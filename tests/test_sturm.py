"""The exact real-root core of the numeric spectrum.

Each chain's eigenvalues are counted at dyadic points by the Sturm sequence
of its own leading minors (``Chain.dyadic_count``), isolated by bisection
(``Chain.positive_intervals``), and refined and certified by exact integer
Newton on the chain's recurrence.  The counts and intervals are checked
against sympy's exact root counts, the refined roots and their enclosures
against the Aberth-Ehrlich oracle and numpy.
"""

import importlib
import json
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import sympy
from mpmath import mp
from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest

from countertwist import (
    Eigenvalue,
    Exactness,
    HalfInt,
    IntPolynomial,
    InternalConsistencyError,
    InvalidInputError,
    NumericFailureError,
    block_decompose,
    spectrum,
    strip_lambda_power,
    to_mu_polynomial,
)
from countertwist.charpoly import Chain
from countertwist.spectrum import (
    _chain_eigenvalues,
    _ladder,
    _numeric_roots,
    _value_counts,
    certify_spectrum,
    spectrum_from_json,
    spectrum_to_json,
)
from _oracles import aberth_mu_roots, loop_value_counts, numpy_h_ta

PRECISION = 34
spectrum_module = importlib.import_module("countertwist.spectrum")


def both_chains(twoj):
    """Chains a and b of spin twoj/2, twins included."""
    decomp = block_decompose(HalfInt(twoj))
    return decomp.a, decomp.b


def chain_of(squares):
    """A chain with the given squared couplings, on the labels of chain a
    of spin j = len(squares): m = j, j - 2, ..., -j."""
    n = len(squares)
    return Chain(tuple(HalfInt(tm) for tm in range(2 * n, -2 * n - 1, -4)), squares)


def with_polynomial(chain, polynomial):
    """A copy of ``chain`` whose cached polynomial is ``polynomial``."""
    planted = Chain(chain.labels, chain.squares)
    planted.__dict__["polynomial"] = polynomial
    return planted


def mu_polynomial(chain):
    return to_mu_polynomial(strip_lambda_power(chain.polynomial)[1])


def chains_with_mu_roots(max_twoj):
    """(2j, chain) of every chain with a nonconstant mu part."""
    for twoj in range(1, max_twoj + 1):
        for chain in both_chains(twoj):
            if mu_polynomial(chain).degree:
                yield twoj, chain


def numeric_eigenvalues(chain, precision=PRECISION):
    """The chain's eigenvalues by the certified numeric route."""
    return _chain_eigenvalues(chain, precision)


def expand_multiset(eigenvalues):
    out = []
    for eigen in eigenvalues:
        out.extend([eigen.value] * eigen.multiplicity)
    return sorted(out)


def sympy_count_above(chain, x):
    """Roots of the chain polynomial above x, by sympy's exact count."""
    poly = sympy.Poly(chain.polynomial.coefficients[::-1], sympy.symbols("x"))
    return poly.count_roots(x, None) - (poly.eval(x) == 0)


# ---------------------------------------------------------------- isolation


def test_sturm_counts_match_sympy_for_every_chain_up_to_forty():
    x = sympy.symbols("x")
    for twoj, chain in chains_with_mu_roots(80):
        mu_poly = mu_polynomial(chain)
        intervals = chain.positive_intervals()
        expected = sympy.Poly(mu_poly.coefficients[::-1], x).count_roots()
        assert len(intervals) == expected == mu_poly.degree, twoj


@pytest.mark.parametrize("twoj", [20, 41, 60])
def test_each_isolating_interval_holds_one_root(twoj):
    x = sympy.symbols("x")
    for chain in both_chains(twoj):
        sympy_poly = sympy.Poly(mu_polynomial(chain).coefficients[::-1], x)
        intervals = [(lo * lo, hi * hi) for lo, hi in chain.positive_intervals()]
        for (lo, hi), (next_lo, _) in zip(intervals, intervals[1:]):
            assert hi <= next_lo
        for lo, hi in intervals:
            assert sympy_poly.eval(lo) != 0 and sympy_poly.eval(hi) != 0
            assert sympy_poly.count_roots(lo, hi) == 1


@pytest.mark.parametrize("twoj", range(1, 31))
def test_sturm_count_matches_sympy_where_minors_vanish(twoj):
    # At 0 every odd-size leading minor vanishes, p_N too for an odd chain;
    # the other points have denominators 2^s, so the shift by 2s matters.
    points = [(0, 0), (-5, 1), (7, 2), (41, 3)]
    for chain in both_chains(twoj):
        for m, s in points:
            x = Fraction(m, 2**s)
            assert chain.dyadic_count(m, s) == sympy_count_above(chain, x), (chain.squares, x)
            p_n = chain.polynomial.evaluate(x) * 2 ** (s * chain.polynomial.degree)
            assert chain.dyadic_value(m, s) == p_n
            assert chain._dyadic_sturm(m, s) == (chain.dyadic_count(m, s), p_n)


@pytest.mark.parametrize(
    "squares, polynomial, x, above",
    [
        ((4,), (-4, 0, 1), 2, 0),  # p_2 = p_N vanishes at 2
        ((4,), (-4, 0, 1), -2, 1),
        ((4, 1), (0, -5, 0, 1), 2, 1),  # inner p_2 vanishes; sqrt(5) > 2
        ((4, 4), (0, -8, 0, 1), 2, 1),  # inner p_2 vanishes; sqrt(8) > 2
        ((4, 1, 4), (16, 0, -9, 0, 1), 2, 1),  # inner p_2 vanishes
        ((1, 1, 1, 1), (0, 3, 0, -4, 0, 1), 0, 2),  # p_1, p_3, p_5 vanish
    ],
)
def test_sturm_count_skips_vanishing_minors(squares, polynomial, x, above):
    chain = chain_of(squares)
    assert chain.polynomial == IntPolynomial(polynomial)
    assert chain.dyadic_count(x, 0) == above == sympy_count_above(chain, x)
    # The same point as 4x/2^2: the shift keeps every vanishing minor zero.
    assert chain.dyadic_count(4 * x, 2) == above


def test_midpoints_that_are_roots_move_off_them():
    # mu^2 - 5 mu + 4 = (mu - 1)(mu - 4): the first midpoints, 2 and then 1,
    # are both eigenvalues.
    chain = chain_of((2, 1, 2))
    assert chain.polynomial == IntPolynomial((4, 0, -5, 0, 1))
    intervals = chain.positive_intervals()
    assert [(lo < 1 < hi, lo < 2 < hi) for lo, hi in intervals] == [(True, False), (False, True)]
    assert all(lo not in (1, 2) and hi not in (1, 2) for lo, hi in intervals)


def test_a_chain_whose_polynomial_has_another_degree_is_refused():
    # Three sites have one positive eigenvalue; the planted polynomial has two.
    chain = with_polynomial(chain_of((2, 1)), IntPolynomial((4, 0, -5, 0, 1)))
    with pytest.raises(InternalConsistencyError, match="1 positive eigenvalues"):
        chain.positive_intervals()


@pytest.mark.parametrize("sites, squares", [(3, (2,)), (3, (2, 1, 2)), (1, (4,)), (0, (4,))])
def test_a_chain_whose_squares_do_not_match_its_labels_is_refused(sites, squares):
    labels = tuple(HalfInt(tm) for tm in range(2 * sites - 2, -2 * sites, -4))
    assert len(labels) == sites
    with pytest.raises(InternalConsistencyError, match=f"chain of {sites} sites"):
        Chain(labels, squares)


# ------------------------------------------------------------ against Aberth


def rounded(value, precision):
    with mp.workdps(precision):
        return +value


def dyadic_rounded(fraction, precision):
    """A dyadic rational rounded to ``precision`` digits, in one rounding."""
    shift = fraction.denominator.bit_length() - 1
    assert fraction.denominator == 1 << shift
    return mp.make_mpf(from_man_exp(fraction.numerator, -shift, dps_to_prec(precision), round_nearest))


def as_fraction(value):
    man, exp = value.man_exp
    return Fraction(man) * Fraction(2) ** exp


def aberth_roots(chain, precision):
    """The chain's positive eigenvalues by the Aberth-Ehrlich oracle, as
    the numeric route hands them on: rounded to ``precision``; the oracle
    certifies no enclosure, so each value stands as its own."""
    with mp.workdps(precision + 30):
        mus = sorted(root.real for root, _ in aberth_mu_roots(mu_polynomial(chain), precision))
        values = [rounded(mp.sqrt(mu), precision) for mu in mus]
    return [(value, (as_fraction(value), as_fraction(value))) for value in values]


@pytest.mark.parametrize("twoj", [12, 19, 24, 33, 41, 44, 60])
def test_mu_roots_agree_with_the_aberth_oracle(twoj):
    for chain in both_chains(twoj):
        mu_poly = mu_polynomial(chain)
        with mp.workdps(PRECISION + 30):
            mine = [root**2 for root, _ in _numeric_roots(chain, PRECISION)]
            oracle = sorted(root.real for root, _ in aberth_mu_roots(mu_poly, PRECISION))
            assert len(mine) == len(oracle) == mu_poly.degree
            for a, b in zip(mine, oracle):
                assert abs(a - b) <= mp.mpf(10) ** (-(PRECISION - 8)) * max(1, abs(b))


@pytest.mark.parametrize("twoj", [12, 24, 33, 41, 44, 60])
def test_spectrum_json_equals_the_aberth_route(twoj, monkeypatch):
    for precision in (15, 34, 52):
        text = spectrum_to_json(spectrum(HalfInt(twoj), precision))
        with monkeypatch.context() as patch:
            patch.setattr(spectrum_module, "_numeric_roots", aberth_roots)
            assert spectrum_to_json(spectrum(HalfInt(twoj), precision)) == text, precision


@pytest.mark.parametrize("twoj", [19, 44, 60])
def test_each_enclosure_holds_the_aberth_root(twoj):
    # The oracle runs 20 digits beyond the enclosures' 2^-s.
    for chain in both_chains(twoj):
        roots = _numeric_roots(chain, PRECISION)
        with mp.workdps(PRECISION + 50):
            oracle = sorted(
                mp.sqrt(root.real) for root, _ in aberth_mu_roots(mu_polynomial(chain), PRECISION + 20)
            )
            assert len(roots) == len(oracle)
            for (value, (lo, hi)), exact in zip(roots, oracle):
                assert mp.mpf(lo.numerator) / lo.denominator < exact
                assert exact < mp.mpf(hi.numerator) / hi.denominator
                assert rounded(exact, PRECISION) == value


def test_every_nonzero_eigenvalue_lies_in_its_chains_exponent_window():
    # Chain.exponents against the certified enclosures, and the dyadic
    # counts against sympy's at the window's ends.
    for twoj in range(1, 41):
        for chain in both_chains(twoj):
            lowest, highest = chain.exponents
            for _, (lo, hi) in _numeric_roots(chain, 15):
                assert Fraction(2) ** lowest <= lo and hi < Fraction(2) ** highest
            for e in (lowest, highest):
                m, s = (1 << e, 0) if e >= 0 else (1, -e)
                for sign in (1, -1):
                    x = Fraction(sign * m, 1 << s)
                    assert chain.dyadic_count(sign * m, s) == sympy_count_above(chain, x)


def test_spin_fifty_matches_dense_diagonalization():
    report = spectrum("50", PRECISION)
    assert report.pairing_verified
    assert report.dimension == 101
    mine = np.array([float(v) for v in expand_multiset(report.eigenvalues)])
    oracle = np.linalg.eigvalsh(numpy_h_ta(100))
    assert np.max(np.abs(mine - oracle)) <= 1e-10 * np.max(np.abs(oracle))


# ----------------------------------------------------------- the certificate


def _newton_counts(monkeypatch):
    """Count the exact Newton and sign evaluations of every chain."""
    counts = {"newton": 0, "value": 0}
    newton, value = Chain.dyadic_newton, Chain.dyadic_value

    def counting_newton(chain, m, s):
        counts["newton"] += 1
        return newton(chain, m, s)

    def counting_value(chain, m, s):
        counts["value"] += 1
        return value(chain, m, s)

    monkeypatch.setattr(Chain, "dyadic_newton", counting_newton)
    monkeypatch.setattr(Chain, "dyadic_value", counting_value)
    return counts


def test_spin_sixty_refines_each_root_once(monkeypatch):
    # At 2j = 120 the mu-polynomial route refined every root twice; here
    # each root takes one exact step per rung and two signs.
    counts = _newton_counts(monkeypatch)
    report = spectrum(HalfInt(120), PRECISION)
    roots = sum(1 for e in report.eigenvalues if e.value > 0)
    assert roots == 60
    assert counts == {"newton": len(_ladder(PRECISION)) * roots, "value": 2 * roots}
    mine = np.array([float(v) for v in expand_multiset(report.eigenvalues)])
    oracle = np.linalg.eigvalsh(numpy_h_ta(120))
    assert np.max(np.abs(mine - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_polished_root_outside_its_interval_fails(monkeypatch):
    # (mu - 1)(mu - 4): a Newton step that always lands on the eigenvalue 2
    # leaves the interval isolating the eigenvalue 1, so no enclosure there
    # is certified.
    chain = chain_of((2, 1, 2))
    assert chain.polynomial == IntPolynomial((4, 0, -5, 0, 1))
    real = Chain.dyadic_newton

    def onto_two(self, m, s):
        _, slope = real(self, m, s)
        return (m - (2 << s)) * slope, slope

    monkeypatch.setattr(Chain, "dyadic_newton", onto_two)
    with pytest.raises(NumericFailureError, match=r"no certified enclosure of the eigenvalue in \(1/2, 11/8\]"):
        _numeric_roots(chain, PRECISION)


def test_a_corrupted_newton_step_is_refused_by_the_sign_certificate(monkeypatch):
    chain = both_chains(44)[0]
    expected = _bits(numeric_eigenvalues(chain))
    real = Chain.dyadic_newton
    corrupted = []

    def off_by_a_thousand_units(self, m, s, every=False):
        value, slope = real(self, m, s)
        if s == _ladder(PRECISION)[-1] and (every or not corrupted):
            corrupted.append(m)
            value += 1000 * slope
        return value, slope

    # One corrupted last step: the certificate refuses it, one more step
    # mends it, and the bits are those of the clean route.
    monkeypatch.setattr(Chain, "dyadic_newton", off_by_a_thousand_units)
    assert _bits(numeric_eigenvalues(chain)) == expected
    assert len(corrupted) == 1
    # Every step corrupted: no enclosure is certified.
    monkeypatch.setattr(
        Chain, "dyadic_newton", lambda self, m, s: off_by_a_thousand_units(self, m, s, True)
    )
    with pytest.raises(NumericFailureError, match="no certified enclosure"):
        numeric_eigenvalues(chain)


def test_an_undecided_rounding_is_refined_at_twice_the_bits(monkeypatch):
    # An enclosure 2^51 units wide straddles a rounding boundary at
    # 15 digits; at twice the bits it is narrow again.
    chain = both_chains(44)[0]
    expected = _bits(numeric_eigenvalues(chain, 15))
    monkeypatch.setattr(spectrum_module, "_ENCLOSURE", 1 << 50)
    roots = _numeric_roots(chain, 15)
    assert all(hi - lo == Fraction(1 << 51, 1 << 2 * _ladder(15)[-1]) for _, (lo, hi) in roots)
    assert _bits(numeric_eigenvalues(chain, 15)) == expected


def _doublet_report():
    """A half-integer spin's report: every eigenvalue a doublet."""
    report = spectrum(HalfInt(45), PRECISION)
    assert all(e.multiplicity == 2 for e in report.eigenvalues)
    assert Exactness.NUMERIC is report.eigenvalues[0].exactness is report.eigenvalues[-1].exactness
    return report


def test_every_printed_eigenvalue_is_certified_by_the_chains():
    # Every nonzero value, whatever its exactness, keeps the enclosure
    # that certified it.
    for twoj in [*range(1, 31), 44, 45, 60, 61]:
        for precision in (15, 34):
            report = spectrum(HalfInt(twoj), precision)
            certify_spectrum(report)
            certify_spectrum(spectrum_from_json(spectrum_to_json(report)))
            for eigen in report.eigenvalues:
                if eigen.value:
                    lo, hi = eigen.enclosure
                    assert lo < hi
                    assert dyadic_rounded(lo, precision) == eigen.value == dyadic_rounded(hi, precision)
                else:
                    assert eigen.enclosure is None


@pytest.mark.parametrize("precision", [15, 34, 50])
def test_counts_once_per_magnitude_equal_counts_per_value(precision, monkeypatch):
    # Every value's count, the negative ones' taken from their mirrors,
    # equals the count at its own interval ends; each chain counts at the
    # two ends of each magnitude's interval only.
    calls = []
    dyadic_count = Chain.dyadic_count
    monkeypatch.setattr(Chain, "dyadic_count", lambda *args: calls.append(None) or dyadic_count(*args))
    for twoj in range(1, 81):
        report = spectrum(HalfInt(twoj), precision)
        want = loop_value_counts(report)
        del calls[:]
        assert list(_value_counts(report)) == want
        magnitudes = {(man, exp) for (_, man, exp, _), _, _ in want if man}
        assert len(calls) == 2 * len(magnitudes) * len(block_decompose(HalfInt(twoj)).chains)


def test_a_corrupted_digit_or_doublet_multiplicity_is_refused():
    text = spectrum_to_json(_doublet_report())
    payload = json.loads(text)
    entries = payload["eigenvalues"]
    # The last digit within the precision of the largest value, one up:
    # below the pairing test's 10^(5-p), above the value's rounding.
    text_value = entries[-1]["value"]
    place = [i for i, c in enumerate(text_value) if c.isdigit()][PRECISION - 1]
    digit = str((int(text_value[place]) + 1) % 10)
    entries[-1]["value"] = text_value[:place] + digit + text_value[place + 1:]
    with pytest.raises(InvalidInputError, match="has multiplicity 2, but the chains have 0"):
        spectrum_from_json(json.dumps(payload))
    # Two doublets, and their mirrors, turned into a single and a triplet:
    # the dimension, the pairing and every derived field stay as they were.
    payload = json.loads(text)
    entries = payload["eigenvalues"]
    for index, multiplicity in ((0, 1), (1, 3), (-1, 1), (-2, 3)):
        entries[index]["multiplicity"] = multiplicity
    with pytest.raises(InvalidInputError, match="has multiplicity 1, but the chains have 2"):
        spectrum_from_json(json.dumps(payload))


@pytest.mark.parametrize("twoj", [1, 6, 9])
@pytest.mark.parametrize("magnitude", ["1e-1000000000", "1e+1000000000"])
def test_a_value_far_outside_the_spectrum_is_refused_at_once(twoj, magnitude):
    # The spin's negative and positive values, each merged into one value
    # -+magnitude with their multiplicities summed: the order, the sum and
    # every derived field hold.  Exact, these values have about 3.3 Gbit
    # and each chain's recurrence at their ends N times that; the exponent
    # window refuses them before any is formed.
    report = spectrum(HalfInt(twoj), PRECISION)
    zero = [e for e in report.eigenvalues if not e.value]
    half = sum(e.multiplicity for e in report.eigenvalues if e.value > 0)
    with mp.workdps(PRECISION):
        far = [
            Eigenvalue(mp.mpf(sign + magnitude), max(half, 1), Exactness.NUMERIC)
            for sign in "-+"
        ]
    if not half:  # j = 1/2: the double zero becomes a pair
        zero = []
    text = spectrum_to_json(replace(report, eigenvalues=(far[0], *zero, far[1])))
    start = time.perf_counter()
    with pytest.raises(InvalidInputError, match="but the chains have 0 eigenvalues"):
        spectrum_from_json(text)
    assert time.perf_counter() - start < 5


# ------------------------------------------------------------- float seed


def _bits(eigenvalues):
    return [(e.value._mpf_, e.multiplicity, e.exactness) for e in eigenvalues]


def _float_seeds(monkeypatch):
    """Record every float seed with its bracket."""
    taken = []
    real = spectrum_module._float_seed

    def recording(squares, lo, hi, rising):
        taken.append((lo, real(squares, lo, hi, rising), hi))
        return taken[-1][1]

    monkeypatch.setattr(spectrum_module, "_float_seed", recording)
    return taken


def _midpoint_start(monkeypatch):
    monkeypatch.setattr(spectrum_module, "_float_seed", lambda *args: float("nan"))


@pytest.mark.parametrize("precision", [15, 34, 52])
@pytest.mark.parametrize("twoj", [12, 19, 24, 33, 41, 44, 60, 61])
def test_eigenvalue_bits_do_not_depend_on_the_float_start(twoj, precision, monkeypatch):
    taken = _float_seeds(monkeypatch)
    seeded = _bits(spectrum(HalfInt(twoj), precision).eigenvalues)
    assert all(lo < seed < hi for lo, seed, hi in taken)  # none at radical 2j = 12
    _midpoint_start(monkeypatch)
    assert _bits(spectrum(HalfInt(twoj), precision).eigenvalues) == seeded


def _twoj_24_chain():
    return both_chains(24)[0]


def test_coefficients_beyond_float_range_start_from_the_midpoint(monkeypatch):
    # Squares of 10^400 times chain a's scale every eigenvalue by 10^200;
    # a float seed overflows, and the exact phase starts at the midpoint.
    chain = _twoj_24_chain()
    scaled = Chain(chain.labels, tuple(w * 10**400 for w in chain.squares))
    roots = numeric_eigenvalues(scaled)
    _midpoint_start(monkeypatch)
    assert _bits(numeric_eigenvalues(scaled)) == _bits(roots)
    with mp.workdps(PRECISION):
        for big, small in zip(roots, numeric_eigenvalues(chain)):
            assert abs(big.value / mp.mpf(10) ** 200 - small.value) <= abs(small.value) * mp.mpf(10) ** (2 - PRECISION)


def test_the_float_seed_stays_in_range_at_the_largest_spin():
    # p_N at 2j = 240 is far beyond float range; the rescaled recurrence
    # seeds every bracket from a finite float inside it.
    chain = block_decompose(HalfInt(240)).a
    squares = chain.squares
    intervals = chain.positive_intervals()
    for i, (lo, hi) in enumerate(intervals):
        seed = spectrum_module._float_seed(squares, float(lo), float(hi), (len(intervals) - 1 - i) % 2 == 0)
        assert float(lo) < seed < float(hi)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 1e30])
def test_a_float_start_that_is_not_finite_or_inside_its_bracket_is_dropped(bad, monkeypatch):
    expected = _bits(numeric_eigenvalues(_twoj_24_chain()))
    monkeypatch.setattr(spectrum_module, "_float_seed", lambda *args: bad)
    counts = _newton_counts(monkeypatch)
    assert _bits(numeric_eigenvalues(_twoj_24_chain())) == expected
    # From the midpoint the lowest rung takes bracketed steps.
    assert counts["newton"] > len(_ladder(PRECISION)) * len(expected) // 2
