"""Operator constructors: ladder/Cartesian operators, Hamiltonians, rotations."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from countertwist import (
    BasisOrdering,
    DenseOperator,
    HalfInt,
    InternalConsistencyError,
    InvalidInputError,
    build_cartesian,
    build_h_ta,
    build_ladder,
    chiral_operator,
    coherent_initial_state,
    heisenberg_expectations,
    propagator_spectral,
    propagator_taylor,
    spectrum,
    time_series,
)
from countertwist import cli, spin_algebra
from countertwist.charpoly import (
    block_decompose,
    char_poly_exact,
    classify_solvability,
    degeneracy_report,
    table1_reference,
)
from countertwist.evolution import MAX_STEPS
from countertwist.spin_algebra import (
    MAX_PRECISION,
    MAX_TWICE_SPIN,
    MIN_PRECISION,
    _require_spin,
)
from _oracles import (
    build_h_f,
    dense_dagger,
    dense_from_rows,
    dense_identity,
    dense_matmul,
    dense_max_abs,
    dense_max_abs_diff,
    dense_propagator,
    numpy_h_ta,
    numpy_rotation_y,
    numpy_spin_ops,
    to_numpy,
    wigner_rotation_y,
)


def max_abs(array):
    return float(np.max(np.abs(array))) if array.size else 0.0


# ---------------------------------------------------------------- HalfInt


@pytest.mark.parametrize(
    "text, twice",
    [("1/2", 1), ("21/2", 21), ("3", 6), ("0", 0), ("-1", -2), ("-3/2", -3), ("2/4", 1)],
)
def test_halfint_parsing(text, twice):
    assert HalfInt.from_string(text).twice_value == twice


@pytest.mark.parametrize("text", ["abc", "1/3", "", "2.5.1", "1/0"])
def test_halfint_rejects_bad_text(text):
    with pytest.raises(InvalidInputError):
        HalfInt.from_string(text)


def test_halfint_basics():
    j = HalfInt(5)
    assert str(j) == "5/2"
    assert not j.is_integer
    assert j.n_states == 6
    assert float(j) == 2.5
    assert HalfInt(4) > HalfInt(3)
    assert str(HalfInt(4)) == "2"
    assert HalfInt.from_value(1.5).twice_value == 3  # exactly representable
    with pytest.raises(InvalidInputError):
        HalfInt.from_value(0.3)  # not a half-integer


_SPIN_ENTRY_POINTS = {
    "BasisOrdering.for_spin": BasisOrdering.for_spin,
    "block_decompose": block_decompose,
    "build_cartesian": build_cartesian,
    "build_h_ta": build_h_ta,
    "build_ladder": build_ladder,
    "char_poly_exact": char_poly_exact,
    "chiral_operator": chiral_operator,
    "classify_solvability": classify_solvability,
    "coherent_initial_state": coherent_initial_state,
    "degeneracy_report": degeneracy_report,
    "spectrum": spectrum,
    "table1_reference": table1_reference,
}


@pytest.mark.parametrize("name", sorted(_SPIN_ENTRY_POINTS))
def test_spin_is_coerced_where_it_is_checked(name):
    entry = _SPIN_ENTRY_POINTS[name]
    expected = entry(HalfInt(5))
    for spin in ("5/2", Fraction(5, 2), 2.5):
        assert entry(spin) == expected, spin
    for spin in (float("nan"), float("inf"), "x", HalfInt(MAX_TWICE_SPIN + 1)):
        with pytest.raises(InvalidInputError):
            entry(spin)


def test_the_spin_cap_is_checked_before_any_label_exists():
    assert _require_spin(HalfInt(MAX_TWICE_SPIN)) == HalfInt(MAX_TWICE_SPIN)
    # No label or chain is built for these, so the refusal is immediate.
    for spin in ("1e400", 10**400, Fraction(10**400 + 1, 2), HalfInt(2 * 10**5000)):
        with pytest.raises(InvalidInputError, match="spin must be at most 120"):
            _require_spin(spin)


def _fraction_refusing(text):
    """A stand-in for Fraction that fails the test when given ``text``."""
    def fraction(*args):
        assert text not in args, f"Fraction was called on {text!r}"
        return Fraction(*args)
    return fraction


@pytest.mark.parametrize("text", ["1e4000000", "1e-4000000", "5E+1_001"])
def test_a_decimal_exponent_past_its_bound_is_refused_unexpanded(monkeypatch, text):
    # Fraction would build 10^4000000 first, for seconds; the text is refused.
    monkeypatch.setattr(spin_algebra, "Fraction", _fraction_refusing(text))
    with pytest.raises(InvalidInputError, match="exceeds 1000 in magnitude"):
        HalfInt.from_string(text)
    with pytest.raises(InvalidInputError, match="exceeds 1000 in magnitude"):
        _require_spin(text)


def test_a_decimal_exponent_at_its_bound_is_read():
    assert HalfInt.from_string("5e-1") == HalfInt(1)
    assert HalfInt.from_string("1e0_3") == HalfInt(2000)
    for text in ("1e1000", "1E+0001000", "1e-1000"):
        with pytest.raises(InvalidInputError, match="spin must be|neither an integer"):
            _require_spin(text)


_BOOLEAN_SPINS = {
    "HalfInt": lambda: HalfInt(True),
    "HalfInt.from_value": lambda: HalfInt.from_value(True),
    "spectrum": lambda: spectrum(True),
    "char_poly_exact": lambda: char_poly_exact(False),
    "coherent_initial_state": lambda: coherent_initial_state(True),
    "block_decompose": lambda: block_decompose(True),
    "time_series": lambda: time_series(True, 1, 1, 2),
}


@pytest.mark.parametrize("name", sorted(_BOOLEAN_SPINS))
def test_booleans_are_refused_as_spins(name):
    # True is the integer 1 to Python, but not a spin or a label.
    with pytest.raises(InvalidInputError):
        _BOOLEAN_SPINS[name]()
    assert HalfInt(2).twice_value == 2
    assert HalfInt.from_value(1).twice_value == 2


@pytest.mark.parametrize("chi", ["x", None, [1]])
def test_h_ta_refuses_a_coupling_that_is_not_a_number(chi):
    with pytest.raises(InvalidInputError, match="chi must be a real number"):
        build_h_ta(HalfInt(4), chi)


def test_library_enforces_the_command_line_caps(monkeypatch):
    # Each entry point one past the precision cap, and time_series one past
    # the grid cap, with what they need built at a valid precision first.
    assert cli.MAX_STEPS == MAX_STEPS and cli.MAX_PRECISION == MAX_PRECISION
    j, over = HalfInt(4), MAX_PRECISION + 1
    report = spectrum(j)
    h = build_h_ta(j)
    state = coherent_initial_state(j)
    u = propagator_spectral(report, 0.5)
    radical = next(ev.radical_form for ev in report.eigenvalues if ev.radical_form)
    calls = (
        lambda: spectrum(j, over),
        lambda: time_series(j, 1, 1, 3, over),
        lambda: time_series(j, 1, 1, MAX_STEPS + 1),
        lambda: propagator_spectral(report, 0.5, over),
        lambda: propagator_taylor(h, 0.5, over),
        lambda: coherent_initial_state(j, over),
        lambda: heisenberg_expectations(state, u, over),
        lambda: build_h_ta(j, 1, over),
        lambda: build_ladder(j, over),
        lambda: build_cartesian(j, over),
        lambda: chiral_operator(j, over),
        lambda: radical.evaluate(over),
        lambda: radical.evaluate_real(over),
    )

    # Every computation at a working precision enters mp.workdps, so with it
    # disabled a call that reached arithmetic fails with AssertionError.
    def no_arithmetic(*args, **kwargs):
        raise AssertionError("arithmetic started before the refusal")

    monkeypatch.setattr(mp, "workdps", no_arithmetic)
    for call in calls:
        with pytest.raises(InvalidInputError, match="at most"):
            call()


def test_operators_enforce_the_precision_caps(monkeypatch):
    basis = BasisOrdering.for_spin(HalfInt(1))
    one, zero = mp.mpc(1), mp.mpc(0)
    builds = {
        "direct": lambda p: DenseOperator(basis=basis, entries=((one, zero), (zero, one)), precision=p),
    }
    for name, build in builds.items():
        for p in (MIN_PRECISION, MAX_PRECISION):
            assert build(p).precision == p, name

    # As in test_library_enforces_the_command_line_caps: with mp.workdps
    # disabled, a constructor that reached arithmetic fails with
    # AssertionError instead of the refusal.
    def no_arithmetic(*args, **kwargs):
        raise AssertionError("arithmetic started before the refusal")

    monkeypatch.setattr(mp, "workdps", no_arithmetic)
    for name, build in builds.items():
        for p in (MIN_PRECISION - 1, MAX_PRECISION + 1):
            with pytest.raises(InvalidInputError, match="precision must be"):
                build(p)


def test_basis_ordering():
    basis = BasisOrdering.for_spin(HalfInt(4))
    assert [m.twice_value for m in basis.labels] == [4, 2, 0, -2, -4]
    assert basis.labels.index(HalfInt(0)) == 2
    assert HalfInt(3) not in basis.labels
    assert HalfInt(6) not in basis.labels


# ---------------------------------------------------------------- ladder


def test_ladder_j2_superdiagonal():
    jplus, jminus = build_ladder(HalfInt(4))
    got = to_numpy(jplus)
    expected = np.zeros((5, 5), dtype=complex)
    s6 = math.sqrt(6)
    for col, amp in zip(range(1, 5), (2, s6, s6, 2)):
        expected[col - 1, col] = amp
    assert max_abs(got - expected) < 1e-15
    assert max_abs(to_numpy(jminus) - expected.conj().T) < 1e-15


def test_ladder_j_half_and_one():
    jplus, _ = build_ladder(HalfInt(1))
    assert max_abs(to_numpy(jplus) - np.array([[0, 1], [0, 0]])) == 0.0
    jplus1, _ = build_ladder(HalfInt(2))
    diag = np.diag(to_numpy(jplus1), k=1)
    assert max_abs(diag - np.array([math.sqrt(2), math.sqrt(2)])) < 1e-15


@pytest.mark.parametrize("twoj", [1, 2, 3, 4, 7, 12, 21, 60])
def test_ladder_conjugate_transpose_exact(twoj):
    jplus, jminus = build_ladder(HalfInt(twoj))
    for a in range(jplus.dim):
        for b in range(jplus.dim):
            assert jminus.entries[a][b] == mp.conj(jplus.entries[b][a])


def test_ladder_input_validation():
    with pytest.raises(InvalidInputError):
        build_ladder(HalfInt(-1))
    with pytest.raises(InvalidInputError):
        build_ladder(HalfInt(2), precision=10)


# ---------------------------------------------------------------- cartesian


def test_cartesian_j2_jz():
    _, _, jz = build_cartesian(HalfInt(4))
    assert max_abs(to_numpy(jz) - np.diag([2, 1, 0, -1, -2])) == 0.0


def test_cartesian_j_half_jx():
    jx, _, _ = build_cartesian(HalfInt(1))
    assert max_abs(to_numpy(jx) - np.array([[0, 0.5], [0.5, 0]])) == 0.0


@pytest.mark.parametrize("twoj", range(1, 13))
def test_commutator_algebra(twoj):
    jx, jy, jz = build_cartesian(HalfInt(twoj))
    comm = jx.matmul(jy).sub(jy.matmul(jx))
    expected = jz.scaled(mp.mpc(0, 1))
    assert float(dense_max_abs_diff(comm, expected)) < 1e-12


@pytest.mark.parametrize("twoj", [1, 2, 3, 4, 7, 10, 15, 20, 30, 60])
def test_casimir(twoj):
    precision = 20
    jx, jy, jz = build_cartesian(HalfInt(twoj), precision)
    total = jx.matmul(jx).add(jy.matmul(jy)).add(jz.matmul(jz))
    jj = mp.mpf(twoj) / 2 * (mp.mpf(twoj) / 2 + 1)
    expected = dense_identity(jx.basis, precision).scaled(jj)
    assert float(dense_max_abs_diff(total, expected)) < 1e-12


# ---------------------------------------------------------------- Hamiltonian


def test_h_ta_j2_matrix():
    h = build_h_ta(HalfInt(4))
    s6 = math.sqrt(6)
    expected = 1j * np.array(
        [
            [0, 0, -s6, 0, 0],
            [0, 0, 0, -3, 0],
            [s6, 0, 0, 0, -s6],
            [0, 3, 0, 0, 0],
            [0, 0, s6, 0, 0],
        ]
    )
    assert max_abs(to_numpy(h) - expected) < 1e-15
    assert h.hermitian


def test_h_ta_j_half_is_zero():
    h = build_h_ta(HalfInt(1))
    assert max_abs(to_numpy(h)) == 0.0


def test_h_ta_j_three_half_entries():
    h = build_h_ta(HalfInt(3))
    got = to_numpy(h)
    nonzero = got[np.abs(got) > 0]
    assert len(nonzero) == 4
    assert np.allclose(np.abs(nonzero), math.sqrt(3), atol=1e-15)
    for a in range(4):
        for b in range(4):
            if abs(a - b) != 2:
                assert got[a, b] == 0


@pytest.mark.parametrize("twoj", [1, 2, 3, 4, 5, 8, 11, 16, 21, 30, 60])
def test_h_ta_structure(twoj):
    h = build_h_ta(HalfInt(twoj))
    got = to_numpy(h)
    assert max_abs(got - got.conj().T) < 1e-15
    assert max_abs(got.real) == 0.0  # purely imaginary entries
    for a in range(h.dim):
        for b in range(h.dim):
            if abs(a - b) != 2:
                assert got[a, b] == 0


@pytest.mark.parametrize("twoj", [1, 2, 3, 4, 5, 6, 8, 10, 14, 20, 60])
def test_h_ta_equals_symmetrized_product(twoj):
    h = to_numpy(build_h_ta(HalfInt(twoj)))
    assert max_abs(h - numpy_h_ta(twoj)) < 1e-12


def test_h_ta_chi_scaling():
    h1 = to_numpy(build_h_ta(HalfInt(5), chi=1.0))
    h2 = to_numpy(build_h_ta(HalfInt(5), chi=-2.5))
    assert max_abs(h2 - (-2.5) * h1) < 1e-14
    with pytest.raises(InvalidInputError):
        build_h_ta(HalfInt(5), chi=float("nan"))


# ---------------------------------------------------------------- field variant


def test_h_f_omega_zero_matches_h_ta():
    h0 = build_h_f(HalfInt(7), chi=1.3, omega=0.0)
    h = build_h_ta(HalfInt(7), chi=1.3)
    assert float(dense_max_abs_diff(h0, h)) == 0.0


def test_h_f_j_half_is_field_only():
    h = build_h_f(HalfInt(1), chi=123.0, omega=1.0)
    assert max_abs(to_numpy(h) - np.diag([0.5, -0.5])) == 0.0


@pytest.mark.parametrize("twoj", [2, 4, 5, 9, 16])
def test_h_f_anticommutes_with_chiral(twoj):
    rng = np.random.default_rng(42 + twoj)
    chi, omega = rng.uniform(-3, 3, size=2)
    h = build_h_f(HalfInt(twoj), chi=float(chi), omega=float(omega))
    r = chiral_operator(HalfInt(twoj))
    anti = h.matmul(r).add(r.matmul(h))
    assert float(dense_max_abs(anti)) < 1e-12


def test_h_f_j2_example_anticommutation():
    h = build_h_f(HalfInt(4), chi=1.0, omega=2.0)
    r = chiral_operator(HalfInt(4))
    anti = h.matmul(r).add(r.matmul(h))
    assert float(dense_max_abs(anti)) < 1e-12


# ---------------------------------------------------------------- rotations


@pytest.mark.parametrize("twoj", [1, 2, 4, 5, 8])
def test_rotation_identity_at_zero(twoj):
    w = wigner_rotation_y(HalfInt(twoj), 0.0)
    eye = dense_identity(w.basis, w.precision)
    assert float(dense_max_abs_diff(w, eye)) == 0.0


@pytest.mark.parametrize("twoj", [1, 2, 3, 4, 7, 10])
def test_rotation_minus_pi_antidiagonal(twoj):
    w = wigner_rotation_y(HalfInt(twoj), -math.pi)
    got = to_numpy(w)
    dim = twoj + 1
    expected = np.zeros((dim, dim))
    for col in range(dim):
        # column for m = j - col maps to -m with phase (-1)^(j - m) = (-1)^col
        expected[dim - 1 - col, col] = (-1) ** col
    assert max_abs(got - expected) < 1e-12


def test_rotation_j2_quarter_turn_stretched_state():
    w = wigner_rotation_y(HalfInt(4), -math.pi / 2)
    amplitudes = to_numpy(w)[:, 0]
    s6 = math.sqrt(6)
    expected = np.array([0.25, 0.5, s6 / 4, 0.5, 0.25])
    assert max_abs(amplitudes - expected) < 1e-15


@pytest.mark.parametrize("twoj", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("beta", [0.3, -1.7, 2.9])
def test_rotation_unitary(twoj, beta):
    w = wigner_rotation_y(HalfInt(twoj), beta)
    prod = dense_dagger(w).matmul(w)
    eye = dense_identity(w.basis, w.precision)
    assert float(dense_max_abs_diff(prod, eye)) < 1e-12


@pytest.mark.parametrize("twoj", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("beta", [0.47, -2.13, 3.6])
def test_rotation_matches_exponential_oracle(twoj, beta):
    got = to_numpy(wigner_rotation_y(HalfInt(twoj), beta))
    assert max_abs(got - numpy_rotation_y(twoj, beta)) < 1e-12


# ---------------------------------------------------------------- chiral


def test_chiral_j1_pattern():
    r = to_numpy(chiral_operator(HalfInt(2)))
    expected = np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]], dtype=float)
    assert max_abs(r - expected) < 1e-30


@pytest.mark.parametrize("twoj", [2, 21, 60])
def test_chiral_is_signed_antidiagonal_exactly(twoj):
    r = chiral_operator(HalfInt(twoj), precision=50)
    n = twoj + 1
    for row in range(n):
        for col in range(n):
            expected = mp.mpc((-1) ** col if row + col == n - 1 else 0)
            assert r.entries[row][col] == expected


@pytest.mark.parametrize("twoj", [1, 2, 3, 4, 5, 8, 11, 16, 21, 30, 60])
def test_chiral_anticommutes_with_h_ta(twoj):
    rng = np.random.default_rng(twoj)
    chi = float(rng.uniform(-3, 3))
    h = build_h_ta(HalfInt(twoj), chi=chi)
    r = chiral_operator(HalfInt(twoj))
    anti = h.matmul(r).add(r.matmul(h))
    assert float(dense_max_abs(anti)) < 1e-12


def test_chiral_j2_anticommutation_exact_chi_one():
    h = build_h_ta(HalfInt(4))
    r = chiral_operator(HalfInt(4))
    anti = h.matmul(r).add(r.matmul(h))
    assert float(dense_max_abs(anti)) < 1e-12


@pytest.mark.parametrize("twoj, sign", [(2, 1), (4, 1), (7, -1), (3, -1), (10, 1)])
def test_chiral_squares_to_signed_identity(twoj, sign):
    r = chiral_operator(HalfInt(twoj))
    square = r.matmul(r)
    eye = dense_identity(r.basis, r.precision).scaled(sign)
    assert float(dense_max_abs_diff(square, eye)) < 1e-30


# ---------------------------------------------------------------- DenseOperator


def test_hermitian_flag_verified():
    basis = BasisOrdering.for_spin(HalfInt(1))
    with pytest.raises(InternalConsistencyError):
        dense_from_rows(
            basis, [[0, 1j], [1j, 0]], precision=20, hermitian=True
        )
    dense_from_rows(basis, [[0, 1j], [-1j, 0]], precision=20, hermitian=True)
    # A finite entry whose mirror is an exact zero, above the diagonal or
    # below it: the pair holds one stored nonzero.
    for rows in ([[0, 1j], [0, 0]], [[0, 0], [1j, 0]]):
        with pytest.raises(
            InternalConsistencyError,
            match=re.escape("violates conjugate symmetry (max deviation 1.0)"),
        ):
            dense_from_rows(basis, rows, precision=20, hermitian=True)


@pytest.mark.parametrize("value", ["nan", "+inf", "-inf"])
@pytest.mark.parametrize(
    "cells",
    [((0, 2), (2, 0)), ((2, 0),), ((3, 3),), ((0, 4),), ((4, 0),), ((3, 0), (1, 4))],
)
def test_hermitian_flag_refuses_non_finite_entries(value, cells):
    # A nan deviation compares false against the tolerance, and an infinite
    # entry makes the tolerance infinite, so neither fails the symmetry test.
    h = build_h_ta(HalfInt(4), 1)
    rows = [list(row) for row in h.entries]
    with mp.workdps(h.precision):
        bad = mp.mpc(0, mp.mpf(value))
        for sign, (a, b) in zip((1, -1), cells):
            rows[a][b] = sign * bad
    # The dense scan's order: pairs (a, b) with a <= b, a then b ascending;
    # the first pair holding a bad cell reports it, (a, b) where both are.
    first = next(
        (a, b) for a in range(5) for b in range(a, 5) if {(a, b), (b, a)} & set(cells)
    )
    where = first if first in cells else first[::-1]
    with pytest.raises(InvalidInputError, match=re.escape(f"nan or infinite entry at {where}")):
        DenseOperator(
            basis=h.basis, entries=tuple(map(tuple, rows)), precision=h.precision,
            scale=h.scale, hermitian=True,
        )


@pytest.mark.parametrize("twoj", [1, 4, 21])
def test_matmul_equals_all_terms_product(twoj):
    # Skipping the exact zeros of each left row keeps every value and type,
    # down to the complex zeros between the chains.
    j = HalfInt(twoj)
    h = build_h_ta(j, 1.0)
    operands = [
        h,
        chiral_operator(j),
        *build_cartesian(j),
        dense_propagator(propagator_spectral(spectrum(j), 0.7)),
        dense_propagator(propagator_taylor(h, 0.7)),
    ]
    for a in operands:
        for b in operands:
            got, want = a.matmul(b).entries, dense_matmul(a, b)
            assert got == want
            assert [list(map(type, row)) for row in got] == [
                list(map(type, row)) for row in want
            ]


def test_matmul_dimension_mismatch():
    a = dense_identity(BasisOrdering.for_spin(HalfInt(1)), 20)
    b = dense_identity(BasisOrdering.for_spin(HalfInt(2)), 20)
    with pytest.raises(InvalidInputError):
        a.matmul(b)
