"""The raw-libmp kernels reproduce the mpc-object code bit for bit.

Each package route is compared with its mpmath-object reference in
``_oracles`` on the raw ``_mpc_``/``_mpf_`` tuples, so a single moved
rounding anywhere shows up as a mismatch; entry types are compared too.
"""

import functools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import (
    fone,
    from_man_exp,
    fzero,
    mpc_mul,
    mpf_add,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_sub,
    mpf_sum,
    round_floor,
    round_nearest,
)

from countertwist import DenseOperator, HalfInt, build_h_ta, spectrum
from countertwist import _kernels, evolution
from countertwist.charpoly import (
    block_decompose,
    block_polynomials,
    strip_lambda_power,
    to_mu_polynomial,
)
from countertwist.cli import VERIFY_SAMPLE_TIME, _flip_first_coupling
from countertwist.errors import InternalConsistencyError, InvalidInputError, NumericFailureError
from countertwist.spin_algebra import (
    BasisOrdering,
    _two_step_entries,
    chiral_operator,
    two_step_coupling_squared,
)
from countertwist.evolution import (
    Propagator,
    PropagatorMethod,
    _leja_order,
    _series_setup,
    coherent_initial_state,
    heisenberg_expectations,
    propagator_spectral,
    propagator_taylor,
)
from _oracles import (
    build_h_f,
    object_gram_defect,
    object_int_horner,
    object_moment_sums,
    object_moments,
    object_polish_nodes,
    object_spectral_entries,
    object_taylor_entries,
    object_taylor_rows,
    operator_rows,
)

PRECISIONS = (20, 34, 50)
TIMES = ("0", "0.013", "0.7", "-2.3", "4.5")


@functools.lru_cache(maxsize=None)
def _report(twoj, precision):
    return spectrum(HalfInt(twoj), precision)


def _propagator(matrix, chi_t=mp.mpf(0), method=PropagatorMethod.SPECTRAL):
    """A Propagator certified on the rows of a DenseOperator."""
    return Propagator(basis=matrix.basis, rows=operator_rows(matrix), precision=matrix.precision,
                      chi_t=chi_t, method=method)


def _raw(entries):
    return [[(type(x), getattr(x, "_mpc_", None) or x._mpf_) for x in row] for row in entries]


def _assert_same_propagator(u, reference_entries, reference_tau):
    assert _raw(u.matrix.entries) == _raw(reference_entries)
    assert u.chi_t._mpf_ == reference_tau._mpf_
    defect = object_gram_defect(u.matrix)
    assert type(u.unitarity_defect) is type(defect)
    assert u.unitarity_defect._mpf_ == defect._mpf_


# The curve_large benchmark's seed-0 grids: ``evolve --t-max T --steps 11
# --precision 34`` at j = 10 (T = 12/5) and j = 21/2 (T = 11/5).  With
# chi = 1 the grid's chi_t is t_max·i/10, formed as time_series forms it.
CURVE_LARGE_T_MAX = {20: Fraction(12, 5), 21: Fraction(11, 5)}


def _spectral_cases(twoj):
    if twoj not in CURVE_LARGE_T_MAX:
        return [(precision, mp.mpf(chi_t)) for precision in PRECISIONS for chi_t in TIMES]
    t_end = evolution._as_dimensionless_time(CURVE_LARGE_T_MAX[twoj], 34)
    with mp.workdps(34 + 10):
        return [(34, t_end * i / 10) for i in range(11)]


@pytest.mark.parametrize("twoj", [*range(1, 17), *CURVE_LARGE_T_MAX])
def test_spectral_propagator_matches_object_code(twoj):
    for precision, chi_t in _spectral_cases(twoj):
        report = _report(twoj, precision)
        u = propagator_spectral(report, chi_t, precision)
        entries, tau = object_spectral_entries(report, chi_t, precision)
        _assert_same_propagator(u, entries, tau)


def _small_taylor_cases():
    for twoj in (2, 3, 4, 5, 8):
        for precision, chi_t in zip(PRECISIONS + PRECISIONS[:2], TIMES):
            yield twoj, precision, mp.mpf(chi_t)


def _taylor_cases():
    yield from _small_taylor_cases()
    # The spins, precision and sample time of the verify benchmark's calls.
    for twoj in (20, 21, 24):
        yield twoj, 34, VERIFY_SAMPLE_TIME


def _taylor_h(kind, j, precision):
    if kind == "h_ta":
        return build_h_ta(j, mp.mpf(2) / 3, precision)
    # h_ta + 0.3·Jy: imaginary, up to four entries per row, not reflected.
    return build_h_f(j, mp.mpf(2) / 3, mp.mpf("0.3"), precision, axis="y")


def _working_rows(rows, n):
    """The Taylor kernel's unrounded rows as the object code's entries: a
    real part with an exactly zero imaginary part, or, for an empty row,
    the mpf zeros of fdot over no pairs."""
    return [
        [(mp.mpf, fzero)] * n if not row
        else [(mp.mpc, (row.get(c, fzero), fzero)) for c in range(n)]
        for row in rows
    ]


def _assert_same_taylor_rows(h, chi_t, precision):
    tau = evolution._propagation_time(chi_t, precision + 15)
    got = evolution._taylor_rows(h, tau, precision)
    assert _working_rows(got, h.dim) == _raw(object_taylor_rows(h, tau, precision))


@pytest.mark.parametrize("kind", ["h_ta", "h_y"])
def test_taylor_propagator_matches_object_code(kind):
    # Before and after the rounding to the requested precision.
    for twoj, precision, chi_t in _taylor_cases():
        h = _taylor_h(kind, HalfInt(twoj), precision)
        _assert_same_taylor_rows(h, chi_t, precision)
        u = propagator_taylor(h, chi_t, precision)
        entries, tau = object_taylor_entries(h, chi_t, precision)
        _assert_same_propagator(u, entries, tau)


def test_taylor_propagator_of_a_faulted_h_matches_object_code(monkeypatch):
    # The flipped coupling makes exp(-i h t) non-unitary: the certificate
    # raises, so the propagator is taken with it switched off.
    for twoj, precision, chi_t in _taylor_cases():
        h = _flip_first_coupling(build_h_ta(HalfInt(twoj), 1, precision))
        _assert_same_taylor_rows(h, chi_t, precision)
        with monkeypatch.context() as patch:
            patch.setattr(Propagator, "__post_init__", lambda self: None)
            u = propagator_taylor(h, chi_t, precision)
        entries, want_tau = object_taylor_entries(h, chi_t, precision)
        assert _raw(u.matrix.entries) == _raw(entries)
        assert u.chi_t._mpf_ == want_tau._mpf_
        if chi_t != 0:
            with pytest.raises(NumericFailureError) as got:
                Propagator(basis=u.basis, rows=u.rows, precision=u.precision, chi_t=u.chi_t,
                           method=PropagatorMethod.TAYLOR_ORACLE)
            with pytest.raises(NumericFailureError) as want:
                object_gram_defect(u.matrix)
            assert str(got.value) == str(want.value)


def _taylor_mismatches(kind):
    mismatches = 0
    for twoj, precision, chi_t in _small_taylor_cases():
        h = _taylor_h(kind, HalfInt(twoj), precision)
        try:
            u = propagator_taylor(h, chi_t, precision)
        except NumericFailureError:
            mismatches += 1
            continue
        entries, _ = object_taylor_entries(h, chi_t, precision)
        mismatches += _raw(u.matrix.entries) != _raw(entries)
    return mismatches


def test_taylor_comparison_catches_a_wrong_zero_skip(monkeypatch):
    # Mutant: the squarings test the sign field of an entry instead of its
    # mantissa, treating every positive entry as an exact zero.
    original = _kernels.squared

    def wrong_skip(rows, *args):
        masked = [{c: x for c, x in row.items() if x[0]} for row in rows]
        return original(masked, *args)

    monkeypatch.setattr(_kernels, "squared", wrong_skip)
    assert _taylor_mismatches("h_ta")


MOMENT_FIELDS = ("chi_t", "mean_jx", "mean_jy", "mean_jz", "second_jx",
                 "second_jy", "second_jz", "cov_yz", "corr_xz")


def _assert_same_moments(state, u, precision):
    # The kernel's sums at the working precision, ten digits beyond what
    # the rounded ObservableSet keeps, then the set itself.
    halves, labels, _ = evolution._moment_constants(state.basis.j, precision)
    with mp.workdps(precision + 10):
        prec, rnd = mp._prec_rounding
        means, seconds, cov_yz, corr_xz = _kernels.moments(
            u.rows,
            [evolution._fdot_pair(x) for x in state.amplitudes],
            halves, labels, prec, rnd,
        )
    want = object_moment_sums(state, u, precision)
    assert means == [evolution._fdot_pair(x) for x in want[0]]
    assert seconds == [x._mpf_ for x in want[1]]
    assert (cov_yz, corr_xz) == (want[2]._mpf_, want[3]._mpf_)

    got = heisenberg_expectations(state, u, precision)
    want = object_moments(state, u, precision)
    for name in MOMENT_FIELDS:
        value = getattr(got, name)
        assert type(value) is type(getattr(want, name)), name
        assert value._mpf_ == getattr(want, name)._mpf_, name


def _moment_cases(twoj):
    """Each of the five sample times once, the precisions in turn."""
    return [(PRECISIONS[k % 3], mp.mpf(chi_t)) for k, chi_t in enumerate(TIMES, twoj)]


@pytest.mark.parametrize("twoj", range(1, 25))
def test_moments_match_object_code(twoj):
    j = HalfInt(twoj)
    # The sample times in turn, and at every 2j the pairs (20, 0.7),
    # (34, -2.3) and (50, 4.5).
    fixed = [(precision, mp.mpf(chi_t)) for precision, chi_t in zip(PRECISIONS, TIMES[2:])]
    for precision, chi_t in dict.fromkeys(_moment_cases(twoj) + fixed):
        state = coherent_initial_state(j, precision)
        spectral = propagator_spectral(_report(twoj, precision), chi_t, precision)
        _assert_same_moments(state, spectral, precision)
        taylor = propagator_taylor(build_h_ta(j, 1, precision), chi_t, precision)
        _assert_same_moments(state, taylor, precision)


def _state(j, precision, kind):
    """The coherent state with mpf amplitudes, or with complex ones (each
    turned by its own phase), or |j, m = j> with int amplitudes."""
    amplitudes = coherent_initial_state(j, precision).amplitudes
    with mp.workdps(precision):
        if kind == "int":
            amplitudes = (1,) + (0,) * (j.n_states - 1)
        elif kind == "mpf":
            amplitudes = tuple(x.real for x in amplitudes)
        else:
            amplitudes = tuple(x * mp.expjpi(mp.mpf(k) / 7) for k, x in enumerate(amplitudes))
    return evolution.StateVector(
        basis=BasisOrdering.for_spin(j), amplitudes=amplitudes, precision=precision
    )


def _with_entries(u, precision, kind):
    """u with other entries: its exact zeros as mpfs, or for chi_t = 0
    every entry of the chiral operator (a real signed antidiagonal) as an
    mpf; or every entry turned by one phase, so that U, real in exact
    arithmetic, has imaginary parts of the size of its real ones."""
    with mp.workdps(precision):
        if kind == "phased":
            phase = mp.expjpi(mp.mpf(1) / 5)
            rows = [[x * phase for x in row] for row in u.matrix.entries]
        elif u.chi_t == 0:
            chiral = chiral_operator(u.matrix.basis.j, precision)
            rows = [[x.real for x in row] for row in chiral.entries]
        else:
            rows = [[x if x else mp.mpf(0) for x in row] for row in u.matrix.entries]
    matrix = DenseOperator(
        basis=u.matrix.basis, entries=tuple(map(tuple, rows)), precision=precision
    )
    return _propagator(matrix, u.chi_t, u.method)


@pytest.mark.parametrize("twoj", [1, 2, 5, 8, 13])
@pytest.mark.parametrize("kind", ["mpf", "int", "complex"])
def test_moments_of_other_amplitudes_and_entries_match_object_code(twoj, kind):
    j = HalfInt(twoj)
    for precision, chi_t in _moment_cases(twoj):
        state = _state(j, precision, kind)
        u = propagator_spectral(_report(twoj, precision), chi_t, precision)
        _assert_same_moments(state, u, precision)
        for entries in ("real", "phased"):
            _assert_same_moments(state, _with_entries(u, precision, entries), precision)


def test_moments_comparison_catches_rounded_products(monkeypatch):
    # Mutant: each product is rounded before the sum, as a sum of mpc
    # products would round it, where fdot sums the exact products.
    original = _kernels._sum

    def rounded_terms(terms, prec):
        return original([_kernels._rounded(m, e, prec) for m, e in terms], prec)

    monkeypatch.setattr(_kernels, "_sum", rounded_terms)
    with pytest.raises(AssertionError):
        test_moments_match_object_code(4)


@pytest.mark.parametrize("special", ["nan", "inf", "-inf"])
def test_moments_refuse_non_finite_values(special):
    # The core would read the zero mantissa of nan or an infinity as an
    # exact zero, where fdot carries it into the moments.
    bad, x = mp.mpf(special)._mpf_, mp.mpf(3)._mpf_
    halves, labels, _ = evolution._moment_constants(HalfInt(1), 34)
    rows = [[(0, (x, fzero))], [(1, (x, fzero))]]
    amplitudes = [(x, fzero), (fzero, fzero)]
    for k in range(4):
        bad_rows = [list(row) for row in rows]
        bad_amplitudes = list(amplitudes)
        if k < 2:
            bad_amplitudes[1] = (bad, fzero) if k == 0 else (fzero, bad)
        else:
            bad_rows[0].append((1, (bad, fzero) if k == 2 else (fzero, bad)))
        with pytest.raises(InvalidInputError, match="finite values only"):
            _kernels.moments(bad_rows, bad_amplitudes, halves, labels, 53, round_nearest)

    state = coherent_initial_state(HalfInt(1), 34)
    object.__setattr__(state, "amplitudes", (mp.mpf(special),) + state.amplitudes[1:])
    u = propagator_spectral(_report(1, 34), mp.mpf("0.7"), 34)
    with pytest.raises(InvalidInputError):
        heisenberg_expectations(state, u, 34)


def _edited(u, edit):
    rows = [list(row) for row in u.matrix.entries]
    with mp.workdps(u.matrix.precision):
        edit(rows)
    return DenseOperator(
        basis=u.matrix.basis, entries=tuple(map(tuple, rows)), precision=u.matrix.precision
    )


def test_certificate_of_real_and_perturbed_entries_matches_object_code():
    def edit(rows):
        rows[2] = [x.real for x in rows[2]]
        rows[3][5] += mp.mpf("1e-40")

    matrix = _edited(propagator_spectral(_report(6, 34), mp.mpf("0.7"), 34), edit)
    u = _propagator(matrix)
    assert u.unitarity_defect._mpf_ == object_gram_defect(matrix)._mpf_


def test_certificate_failure_matches_object_code():
    def edit(rows):
        rows[0] = [mp.mpf(0)] * len(rows)

    matrix = _edited(propagator_spectral(_report(6, 34), mp.mpf("0.7"), 34), edit)
    with pytest.raises(NumericFailureError) as got:
        _propagator(matrix)
    with pytest.raises(NumericFailureError) as want:
        object_gram_defect(matrix)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("special", ["nan", "inf", "-inf"])
def test_propagator_refuses_non_finite_entries(special):
    # The core would read the zero mantissa of nan or an infinity as an
    # exact zero and certify the identity below with a zero defect.
    one, zero, bad = mp.mpf(1), mp.mpf(0), mp.mpf(special)
    for x in (bad, mp.mpc(0, bad)):
        matrix = DenseOperator(
            basis=BasisOrdering.for_spin(HalfInt(1)), entries=((one, x), (zero, one)), precision=34
        )
        with pytest.raises(InvalidInputError, match="finite values only"):
            _propagator(matrix)


def _outcome(f):
    """f's result, or the message of the error it raises."""
    try:
        return f()
    except (InvalidInputError, NumericFailureError) as error:
        return type(error), str(error)


def _certificate_matches(matrix):
    got = _outcome(lambda: _propagator(matrix).unitarity_defect._mpf_)
    return got == _outcome(lambda: object_gram_defect(matrix)._mpf_)


def _corner_nudged(rows):
    # One entry of the reflected half: its mirror image keeps its value.
    rows[-1][-1] += mp.mpf("1e-31")


def _pair_nudged(rows):
    # An entry and its mirror image, alike: U stays reflected, not unitary.
    n = len(rows)
    rows[0][2] += mp.mpf("1e-30")
    rows[n - 1][n - 3] = -rows[0][2]


def _widened(rows):
    # Reflected, with imaginary parts wider than prec, which the conjugation
    # rounds: the partners' products are not the conjugates any more.
    with mp.workdps(60):
        for row in rows:
            row[:] = [x * mp.mpc(1, mp.mpf(1) / 3) for x in row]


CERTIFICATE_EDITS = {"corner": _corner_nudged, "pair": _pair_nudged, "wide": _widened}


def _gram_deviations(rows, prec, check_prec, monkeypatch):
    """gram_defect's result and every deviation it forms, not only the
    largest: a wrong partner sum need not be the largest."""
    seen = set()
    original = _kernels.mpf_hypot
    with monkeypatch.context() as patch:
        patch.setattr(
            _kernels, "mpf_hypot", lambda *args: seen.add(original(*args)) or original(*args)
        )
        worst = _kernels.gram_defect(rows, prec, check_prec, round_nearest)
    return worst, seen


def _deviations_match_the_full_computation(matrix, monkeypatch):
    rows = operator_rows(matrix)
    with mp.workdps(matrix.precision):
        prec = mp.prec
    with mp.workdps(matrix.precision + 10):
        check_prec = mp.prec
    mirrored = _gram_deviations(rows, prec, check_prec, monkeypatch)
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "reflects", lambda lines, negate: False)
        return mirrored == _gram_deviations(rows, prec, check_prec, monkeypatch)


@pytest.mark.parametrize("edit", CERTIFICATE_EDITS)
@pytest.mark.parametrize("twoj", [6, 7])
def test_certificate_of_edited_reflections_matches_object_code(twoj, edit, monkeypatch):
    for chi_t in ("0.013", "0.7"):
        u = propagator_spectral(_report(twoj, 34), mp.mpf(chi_t), 34)
        edited = _edited(u, CERTIFICATE_EDITS[edit])
        for matrix in (u.matrix, edited):
            assert _certificate_matches(matrix)
            assert _deviations_match_the_full_computation(matrix, monkeypatch)


def test_certificate_comparison_catches_an_assumed_reflection(monkeypatch):
    # Mutant: U is taken as reflected without a look at its entries.  Near
    # the identity the nudged corner's own Gram entry, which the mutant
    # takes from the unedited (0, 0), holds the largest deviation.
    monkeypatch.setattr(_kernels, "reflects", lambda lines, negate: True)
    u = propagator_spectral(_report(6, 34), mp.mpf("0.013"), 34)
    assert _certificate_matches(u.matrix)
    assert not _certificate_matches(_edited(u, _corner_nudged))


def _power(e, sign=1):
    return from_man_exp(sign, e)


# Two real reflected 5×5 matrices, by their rows a <= 4 - a, whose mirror
# pairs hold sums that depend on the order of their terms at prec 53: a
# term 2p bits below the others, then two that cancel.  mpf_sum drops the
# small term when it comes first and keeps it when it comes last.
_P = 53
_SQUARE_HALF = [
    {0: fone, 2: _power(3 * _P), 4: _power(2 * _P)},
    {1: fone},
    {0: _power(_P, -1), 2: fone, 4: _power(_P)},
]
_GRAM_HALF = [
    {0: _power(-2 * _P), 2: _power(_P), 4: _power(_P)},
    {1: fone},
    {0: _power(_P), 2: _power(_P), 4: _power(_P, -1)},
]


def test_mirrored_square_sums_partners_in_reverse():
    rows = _kernels.reflected(_SQUARE_HALF, 5)
    assert _kernels.reflects(rows, mpf_neg)
    full = _kernels.squared(rows, _P, round_nearest)
    assert _kernels.squared(rows, _P, round_nearest, True) == full
    # (0, 0) sums 1, 2^4p, -2^4p; its partner (4, 4) the same in reverse.
    assert 0 not in full[0] and full[4][4] == fone


def test_square_of_an_empty_row_is_empty():
    # A row with no nonzero entry, which only a singular matrix has, stays
    # an empty row.
    want = [{0: fone, 1: fone}, {}]
    assert _kernels.squared([{0: fone, 1: fone}, {}], _P, round_nearest) == want


def test_mirrored_certificate_sums_partners_in_reverse(monkeypatch):
    rows = _kernels.reflected(_GRAM_HALF, 5)
    assert _kernels.reflects(rows, mpf_neg)
    pairs = [[(c, (row[c], fzero)) for c in sorted(row)] for row in rows]
    # The diagonal holds the largest deviation here.
    mirrored = _gram_deviations(pairs, _P, _P + 33, monkeypatch)
    monkeypatch.setattr(_kernels, "reflects", lambda lines, negate: False)
    assert mirrored == _gram_deviations(pairs, _P, _P + 33, monkeypatch)
    # (0, 2) sums 2^-p, 2^2p, -2^2p: 0; its partner (2, 4) keeps 2^-p.
    assert {fzero, _power(-_P)} <= mirrored[1]


def _reflected_half_broken(j, precision):
    """h_ta with the last coupling scaled: only rows n-3 and n-1 change,
    both in the reflected half from 2j = 6 on; h stays Hermitian."""
    h = build_h_ta(j, mp.mpf(2) / 3, precision)
    rows = [list(row) for row in h.entries]
    n = len(rows)
    with mp.workdps(precision):
        rows[n - 1][n - 3] *= mp.mpf("1.001")
        rows[n - 3][n - 1] *= mp.mpf("1.001")
    return DenseOperator(basis=h.basis, entries=tuple(map(tuple, rows)), precision=precision,
                         scale=h.scale, hermitian=True)


def _with_four_step_couplings(j, precision):
    """h_ta plus imaginary Hermitian couplings g_k at (k, k + 4), g_k the
    imaginary unit times 0.1·(n − 5 − 2k): reflected, since
    g_(n−5−k) = −g_k and ε_k·ε_(k+4) = 1, with up to four nonzero entries
    per row."""
    h = build_h_ta(j, mp.mpf(2) / 3, precision)
    rows = [list(row) for row in h.entries]
    n = len(rows)
    with mp.workdps(precision):
        for i in range(n - 4):
            g = mp.mpc(0, mp.mpf("0.1") * (n - 5 - 2 * i))
            rows[i][i + 4], rows[i + 4][i] = g, mp.conj(g)
    return DenseOperator(basis=h.basis, entries=tuple(map(tuple, rows)), precision=precision,
                         scale=h.scale, hermitian=True)


def _reflection_cases():
    for twoj in (6, 9, 12):
        for precision, chi_t in zip(PRECISIONS, TIMES[2:]):
            yield HalfInt(twoj), precision, mp.mpf(chi_t)


def _taylor_reflection_mismatches(build):
    mismatches = 0
    for j, precision, chi_t in _reflection_cases():
        h = build(j, precision)
        u = _outcome(lambda: propagator_taylor(h, chi_t, precision))
        if isinstance(u, tuple):
            mismatches += 1
            continue
        entries, _ = object_taylor_entries(h, chi_t, precision)
        mismatches += _raw(u.matrix.entries) != _raw(entries)
    return mismatches


def test_four_step_couplings_are_reflected():
    for j, precision, _ in _reflection_cases():
        h = _with_four_step_couplings(j, precision)
        lines = [{c: x._mpc_ for c, x in enumerate(row) if x} for row in h.entries]
        assert _kernels.reflects(lines, lambda x: (mpf_neg(x[0]), mpf_neg(x[1])))
        assert max(map(len, lines)) >= 3


@pytest.mark.parametrize("build", [_reflected_half_broken, _with_four_step_couplings])
def test_taylor_of_other_generators_matches_object_code(build, monkeypatch):
    # Both generators fail a check, so every row is formed.  A sum of three
    # terms depends on their order, but seldom in the entries rounded from
    # the guarded precision: the unrounded rows are compared too, and the
    # rows given to series_term are counted.
    for j, precision, chi_t in _reflection_cases():
        _assert_same_taylor_rows(build(j, precision), chi_t, precision)
    sizes = []
    original = _kernels.series_term
    monkeypatch.setattr(
        _kernels, "series_term", lambda generator, *args: sizes.append(len(generator))
        or original(generator, *args)
    )
    assert _taylor_reflection_mismatches(build) == 0
    assert set(sizes) == {7, 10, 13}


def test_taylor_comparison_catches_an_assumed_reflection(monkeypatch):
    # Mutant: the generator is taken as reflected without a look at it.
    monkeypatch.setattr(_kernels, "reflects", lambda lines, negate: True)
    assert _taylor_reflection_mismatches(_reflected_half_broken)


@pytest.mark.parametrize("twoj", [4, 5, 20, 21])
def test_benchmark_propagators_take_the_mirror_shortcuts(twoj, monkeypatch):
    # The checks pass on the spectral and Taylor propagators and on h_ta's
    # generator, so the shortcuts run where the time goes.
    seen = []
    original = _kernels.reflects
    monkeypatch.setattr(
        _kernels, "reflects", lambda lines, negate: seen.append(original(lines, negate)) or seen[-1]
    )
    propagator_spectral(_report(twoj, 34), mp.mpf("0.7"), 34)
    propagator_taylor(build_h_ta(HalfInt(twoj), 1, 34), VERIFY_SAMPLE_TIME, 34)
    assert seen == [True] * 3


def _seed_sets(seeds, precision):
    with mp.workdps(precision):
        near, far = (seeds[-1] * (1 + mp.mpf(10) ** -k) for k in (6, 2))
    return {
        "all": seeds,
        "no lowest": seeds[1:],
        "no highest": seeds[:-1],
        "nonnegative": [x for x in seeds if x >= 0],
        "descending": seeds[::-1],
        "highest nudged": seeds[:-1] + [near],
        "highest moved": seeds[:-1] + [far],
    }


@pytest.mark.parametrize("twoj", [1, 2, 3, 8, 9, 20, 21, 40])
def test_polishing_matches_object_code(twoj):
    # Seed sets closed under negation and not: a twin's result is reused
    # only where the exact negation was polished.
    j = HalfInt(twoj)
    for precision in (20, 34):
        seeds = [ev.value for ev in _report(twoj, precision).eigenvalues]
        for name, chosen in _seed_sets(seeds, precision).items():
            with mp.workdps(precision + 25):
                gap = mp.mpf(10) ** (-(precision // 2))
                got = _outcome(lambda: [
                    x._mpf_ for x in evolution._polish_nodes(j, chosen, precision, gap, 1)
                ])
                want = _outcome(lambda: [
                    x._mpf_ for x in object_polish_nodes(j, chosen, precision, gap, 1)
                ])
            assert got == want, (precision, name)


def test_chain_horner_starts_from_the_last_nonzero_coefficient(monkeypatch):
    # Trailing zero coefficients leave M zero until the last nonzero one is
    # added to it, rounded once; at chi_t = 0 only c_0 is left.
    seeds = tuple(ev.value for ev in _report(8, 34).eigenvalues)
    nodes, _, (ups, _) = _series_setup(HalfInt(8), seeds, _leja_order(seeds), 34, 60, 34)
    with mp.workdps(60):
        prec, rnd = mp._prec_rounding
        coeffs = [(mp.mpc(k + 1, -k) / 7)._mpc_ for k in range(4)]
        with mp.workdps(120):
            wide = (mp.mpc(5, -3) / 7)._mpc_
        rounded = (mp.mpc(5, -3) / 7)._mpc_
    zeros = [_kernels.ZERO] * (len(nodes) - 4)

    def horner(cs):
        return _kernels.chain_horner(cs, nodes, ups, prec, rnd)

    assert horner(coeffs + zeros) == horner(coeffs)
    assert horner(coeffs[:3] + [wide] + zeros) == horner(coeffs[:3] + [rounded])
    assert horner(coeffs[:3] + [wide]) != horner(coeffs[:3] + [rounded])
    calls = []
    original = _kernels._mul
    monkeypatch.setattr(_kernels, "_mul", lambda *args: calls.append(1) or original(*args))
    assert horner(coeffs[:1] + [_kernels.ZERO] * 3 + zeros) == horner(coeffs[:1])
    assert not calls


@pytest.mark.parametrize("twoj", range(1, 62, 2))
def test_half_integer_chains_are_twins(twoj):
    chains = block_decompose(HalfInt(twoj))
    even, odd = chains.block_a, chains.block_b
    assert odd == even[::-1]
    assert chains.twin


@pytest.mark.parametrize("twoj", range(0, 62, 2))
def test_integer_chains_are_palindromes_not_twins(twoj):
    chains = block_decompose(HalfInt(twoj))
    even, odd = chains.block_a, chains.block_b
    assert even == even[::-1] and odd == odd[::-1]
    assert not chains.twin


@pytest.mark.parametrize("twoj", range(1, 62))
def test_chain_squares_are_the_propagator_coupling_squares(twoj):
    # The twin and palindrome shortcuts act on couplings built from
    # two_step_coupling_squared at every label below the top two; chain a
    # takes the even-index ones, chain b the odd.
    j = HalfInt(twoj)
    chains = block_decompose(j)
    squares = [two_step_coupling_squared(j, m) for m in BasisOrdering.for_spin(j).labels[2:]]
    assert [4 * w for w in chains.block_a] == squares[0::2]
    assert [4 * w for w in chains.block_b] == squares[1::2]


@pytest.mark.parametrize("twoj", [5, 6, 15, 16])
def test_twin_path_runs_only_for_twin_chains(twoj, monkeypatch):
    calls = []
    original = _kernels.mirror
    monkeypatch.setattr(_kernels, "mirror", lambda plane: calls.append(1) or original(plane))
    propagator_spectral(_report(twoj, 34), mp.mpf("0.7"), 34)
    assert bool(calls) == block_decompose(HalfInt(twoj)).twin


class _NeverPalindrome(tuple):
    """Couplings that equal no sequence, their reverse included, so that
    chain_horner forms every row."""

    def __eq__(self, other):
        return False


@pytest.mark.parametrize("twoj", [3, 4, 11, 12])
def test_mirrored_halves_equal_computed_ones(twoj):
    j = HalfInt(twoj)
    report = _report(twoj, 34)
    seeds = tuple(ev.value for ev in report.eigenvalues)
    nodes, _, chain_ups = _series_setup(j, seeds, _leja_order(seeds), 34, 60, 34)
    with mp.workdps(60):
        prec, rnd = mp._prec_rounding
        coeffs = [(mp.mpc(k + 1, -k) / 7)._mpc_ for k in range(len(nodes))]
        full = [
            _kernels.chain_horner(coeffs, nodes, _NeverPalindrome(ups), prec, rnd)
            for ups in chain_ups
        ]
        for ups, planes in zip(chain_ups, full):
            assert _kernels.chain_horner(coeffs, nodes, ups, prec, rnd) == planes
        if block_decompose(j).twin:
            assert tuple(map(_kernels.mirror, full[0])) == full[1]


@pytest.mark.parametrize("wp", [49, 70])
def test_coupling_checks_equal_the_chain_model(wp):
    # The series reads its couplings from the chain model's exact squares;
    # they are the imaginary parts of H/chi's entries bit for bit, and the
    # mirror shortcuts their raw values follow are the chain model's facts.
    for twoj in range(1, 41):
        j = HalfInt(twoj)
        n = j.n_states
        seeds = tuple(ev.value for ev in _report(twoj, 34).eigenvalues)
        _, _, (ups_a, ups_b) = _series_setup(j, seeds, _leja_order(seeds), 34, wp, 34)
        with mp.workdps(wp):
            upper = [z._mpc_[1] for z in _two_step_entries(j, 1)]
        assert (ups_a, ups_b) == tuple(tuple(upper[start : n - 2 : 2]) for start in (0, 1))
        chains = block_decompose(j)
        assert (ups_a == ups_a[::-1], ups_b == ups_b[::-1]) == tuple(
            block == block[::-1] for block in (chains.block_a, chains.block_b)
        )
        assert (ups_b == ups_a[::-1]) == chains.twin


HORNER_PRECISIONS = (15, 34, 50, 120)
HORNER_POINTS = ("0", "1", "-1", "0.7", "-2.5", "3.3e-5", "17.25", "-123.456", "9876.5")


def _horner_polynomials():
    """Every chain polynomial with 2j <= 40, its derivative and its
    mu-polynomial."""
    for twoj in range(41):
        for poly in block_polynomials(HalfInt(twoj)):
            yield poly
            yield poly.derivative()
            yield to_mu_polynomial(strip_lambda_power(poly)[1])


def _horner_mismatches():
    mismatches = 0
    for precision in HORNER_PRECISIONS:
        with mp.workdps(precision):
            points = [mp.mpf(x) for x in HORNER_POINTS]
            for poly in _horner_polynomials():
                for x in points:
                    got, want = poly.evaluate(x), object_int_horner(poly, x)
                    assert type(got) is type(want) is mp.mpf
                    mismatches += got._mpf_ != want._mpf_
    return mismatches


def test_int_polynomial_evaluate_matches_object_horner():
    assert _horner_mismatches() == 0


def test_horner_comparison_catches_rounded_coefficients(monkeypatch):
    # Mutant: the coefficients are rounded to the working precision before
    # the loop, where ``mpf + int`` adds them exactly.
    original = _kernels.int_horner

    def rounded_coefficients(coefficients, x, prec, rnd):
        return original([mpf_pos(c, prec, rnd) for c in coefficients], x, prec, rnd)

    monkeypatch.setattr(_kernels, "int_horner", rounded_coefficients)
    assert _horner_mismatches()


# ---------------------------------------------------------------------------
# The integer core against libmp
# ---------------------------------------------------------------------------

CORE_PRECISIONS = (53, 113, 150, 300)


@st.composite
def _mantissas(draw, prec):
    """An odd mantissa of a shape the rounding treats specially: narrow,
    about prec bits, wider than prec up to an exact 1000-bit coefficient,
    an exact tie at prec bits (either parity of the kept part), or a tie
    of all ones that carries into the next power of two."""
    shape = draw(st.sampled_from(("random", "tie", "carry")))
    if shape == "tie":
        kept = draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
        return 2 * kept + 1
    if shape == "carry":
        return (1 << (prec + draw(st.integers(1, 3)))) - 1
    width = draw(st.sampled_from((1, 2, 3, prec // 2, prec - 1, prec, prec + 1, 2 * prec, 1000)))
    return (1 << (width - 1)) | draw(st.integers(0, (1 << (width - 1)) - 1)) | 1


@st.composite
def _operands(draw, count):
    """``count`` raw mpfs and a precision; some zero, exponents from a
    common base with gaps from none to far beyond mpf_add's 100 bits."""
    prec = draw(st.sampled_from(CORE_PRECISIONS))
    base = draw(st.integers(-1200, 1200))
    values = []
    for _ in range(count):
        if draw(st.integers(0, 9)) == 0:
            values.append(fzero)
            continue
        man = draw(_mantissas(prec)) * draw(st.sampled_from((1, -1)))
        gap = draw(st.one_of(st.integers(-3, 3), st.integers(-1300, 1300)))
        values.append(_kernels._mpf((man, base + gap)))
    return prec, values


def _assert_core_matches_libmp(prec, x, y):
    cx, cy = _kernels._pair(x), _kernels._pair(y)
    assert _kernels._mpf(cx) == x and _kernels._mpf(cy) == y
    for core, libmp in ((_kernels._mul, mpf_mul), (_kernels._add, mpf_add), (_kernels._sub, mpf_sub)):
        assert _kernels._mpf(core(cx, cy, prec)) == libmp(x, y, prec, round_nearest), libmp
    # Cancellation to an exact zero.
    assert _kernels._sub(cx, cx, prec) == _kernels._pair(mpf_sub(x, x, prec, round_nearest))


def _tie(kept, exp):
    return _kernels._mpf((2 * kept + 1, exp))


# A 1000-bit x one unit above a tie at 53 bits, and a 300-bit y whose last
# bit is 150 below x's: mpf_add only perturbs x by the sign of y, which
# rounds up, while the exact sum falls below the tie and rounds down.
_PERTURBED = (
    _kernels._mpf(((((1 << 53) + 1) << 946) + 1, 0)),
    _kernels._mpf((-((1 << 300) - 1), -150)),
)


def test_core_repeats_mpf_add_perturbed_sum():
    x, y = _PERTURBED
    exact = _kernels._mpf(_kernels._rounded(
        (_kernels._pair(x)[0] << 150) + _kernels._pair(y)[0], -150, 53
    ))
    want = mpf_add(x, y, 53, round_nearest)
    assert want != exact
    assert _kernels._mpf(_kernels._add(_kernels._pair(x), _kernels._pair(y), 53)) == want


@settings(derandomize=True, max_examples=800, deadline=None)
@given(_operands(2))
# An exact tie whose kept part is odd (rounds up) and even (rounds down),
# plus zero; a tie of all ones carrying into 2^prec.
@example((53, [_tie((1 << 52) + 1, -7), fzero]))
@example((53, [_tie(1 << 52, -7), fzero]))
@example((113, [_kernels._mpf(((1 << 114) - 1, 0)), _kernels._mpf((1, 0))]))
# mpf_add's perturbed sum where it is not the rounded exact sum.
@example((53, list(_PERTURBED)))
def test_core_matches_libmp(case):
    prec, (x, y) = case
    _assert_core_matches_libmp(prec, x, y)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_operands(4))
def test_core_complex_product_matches_mpc_mul(case):
    prec, (a, b, c, d) = case
    got = _kernels._cmul(
        (_kernels._pair(a), _kernels._pair(b)), (_kernels._pair(c), _kernels._pair(d)), prec
    )
    assert tuple(map(_kernels._mpf, got)) == mpc_mul((a, b), (c, d), prec, round_nearest)


@st.composite
def _sum_terms(draw):
    return draw(_operands(draw(st.integers(0, 8))))


# x and y more than 2·prec bits apart at every core precision: summed as x,
# y, -x, mpf_sum drops y (much smaller than x) and returns zero; as y, x,
# -x, x replaces y (much larger) with the same result; as x, -x, y it keeps
# y, the exact sum of all three.
_FAR_X = _kernels._mpf((3, 700))
_FAR_Y = _kernels._mpf((-5, 0))
_NEG_X = _kernels._mpf((-3, 700))
_WIDE = _kernels._mpf((((1 << 999) | 12345) * 2 + 1, -40))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_sum_terms())
@example((53, [_FAR_X, _FAR_Y, _NEG_X]))
@example((300, [_FAR_Y, _FAR_X, _NEG_X]))
@example((113, [fzero, _FAR_X, _NEG_X, _FAR_Y, fzero]))
@example((150, [fzero, fzero, _WIDE, _FAR_Y, fzero]))
@example((53, [_WIDE, _kernels._mpf((-1, -1100)), _kernels._mpf((1, 1100))]))
def test_core_sum_matches_mpf_sum(case):
    # Both orders: mpf_sum's result depends on the order of the terms.
    prec, terms = case
    for order in (terms, terms[::-1]):
        got = _kernels._sum([_kernels._pair(x) for x in order], prec)
        assert _kernels._mpf(got) == mpf_sum(order, prec, round_nearest)


def test_sum_comparison_catches_a_missing_drop_rule(monkeypatch):
    # Mutant: the exact sum of every term, rounded once, with no term
    # dropped for being far from the running sum.
    def exact(terms, prec):
        terms = [(m, e) for m, e in terms if m]
        if not terms:
            return _kernels._NIL
        low = min(e for _, e in terms)
        return _kernels._rounded(sum(m << (e - low) for m, e in terms), low, prec)

    monkeypatch.setattr(_kernels, "_sum", exact)
    with pytest.raises(AssertionError):
        test_core_sum_matches_mpf_sum()


def test_core_comparison_catches_ties_away_from_zero(monkeypatch):
    # Mutant: ties round away from zero instead of to even, in the rounding
    # step and in the product's inlined copy of it.
    def away(m, e, prec):
        n = m.bit_length() - prec
        if n > 0:
            half = 1 << (n - 1)
            m, e = ((abs(m) + half) >> n) * (1 if m > 0 else -1), e + n
        if not m:
            return _kernels._NIL
        z = (m & -m).bit_length() - 1
        return m >> z, e + z

    monkeypatch.setattr(_kernels, "_rounded", away)
    monkeypatch.setattr(_kernels, "_mul", lambda x, y, prec: away(x[0] * y[0], x[1] + y[1], prec))
    with pytest.raises(AssertionError):
        test_core_matches_libmp()


def test_core_kernels_refuse_other_rounding_modes():
    x = mp.mpf(3)._mpf_
    with pytest.raises(InternalConsistencyError):
        _kernels.int_horner([x, x], x, 53, round_floor)
    with pytest.raises(InternalConsistencyError):
        _kernels.chain_horner([(x, fzero)] * 2, [x, x], [x], 53, round_floor)
    with pytest.raises(InternalConsistencyError):
        _kernels.gram_defect([[(0, (x, fzero))]], 53, 86, round_floor)
    with pytest.raises(InternalConsistencyError):
        _kernels.moments([[(x, fzero)]], [(x, fzero)], [], [x], 53, round_floor)
