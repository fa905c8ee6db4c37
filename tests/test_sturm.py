"""The exact real-root core of the numeric spectrum.

Sturm isolation is checked against sympy's root counts, the refined roots
against the Aberth-Ehrlich oracle and numpy, and ``roots_numeric`` against
polynomials built from known rational roots (Hypothesis).
"""

import importlib
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from countertwist import (
    HalfInt,
    IntPolynomial,
    NumericFailureError,
    SpectralConsistencyError,
    block_polynomials,
    roots_numeric,
    spectrum,
    strip_lambda_power,
    to_mu_polynomial,
)
from countertwist.spectrum import (
    _isolating_intervals,
    _numeric_mu_roots,
    _squarefree_factors,
    _sturm_sequence,
    spectrum_to_json,
)
from _oracles import aberth_mu_roots, numpy_h_ta

PRECISION = 34
spectrum_module = importlib.import_module("countertwist.spectrum")


def chain_mu_polynomials(max_twoj):
    """(2j, mu-polynomial) of every chain with a nonconstant mu part."""
    for twoj in range(1, max_twoj + 1):
        for poly in block_polynomials(HalfInt(twoj)):
            if poly.degree:
                mu_poly = to_mu_polynomial(strip_lambda_power(poly)[1])
                if mu_poly.degree:
                    yield twoj, mu_poly


def expand_multiset(eigenvalues):
    out = []
    for eigen in eigenvalues:
        out.extend([eigen.value] * eigen.multiplicity)
    return sorted(out)


# ---------------------------------------------------------------- isolation


def test_sturm_counts_match_sympy_for_every_chain_up_to_forty():
    x = sympy.symbols("x")
    for twoj, mu_poly in chain_mu_polynomials(80):
        coefficients = list(mu_poly.coefficients)
        intervals = _isolating_intervals(_sturm_sequence(coefficients))
        expected = sympy.Poly(coefficients[::-1], x).count_roots()
        assert len(intervals) == expected == mu_poly.degree, twoj


@pytest.mark.parametrize("twoj", [20, 41, 60])
def test_each_isolating_interval_holds_one_root(twoj):
    x = sympy.symbols("x")
    for poly in block_polynomials(HalfInt(twoj)):
        coefficients = list(to_mu_polynomial(strip_lambda_power(poly)[1]).coefficients)
        sympy_poly = sympy.Poly(coefficients[::-1], x)
        intervals = _isolating_intervals(_sturm_sequence(coefficients))
        for (lo, hi), (next_lo, _) in zip(intervals, intervals[1:]):
            assert hi <= next_lo
        for lo, hi in intervals:
            assert sympy_poly.eval(lo) != 0 and sympy_poly.eval(hi) != 0
            assert sympy_poly.count_roots(lo, hi) == 1


def test_squarefree_factors_carry_multiplicities():
    # (x - 1)^3 (x - 2)^2 (x + 5)
    poly = IntPolynomial((1,))
    for root, power in ((1, 3), (2, 2), (-5, 1)):
        for _ in range(power):
            poly = poly * IntPolynomial((-root, 1))
    coefficients = list(poly.coefficients)
    gcd = _sturm_sequence(coefficients)[-1]
    factors = _squarefree_factors(coefficients, gcd)
    assert sorted((tuple(f), k) for f, k in factors) == [
        ((-2, 1), 2), ((-1, 1), 3), ((5, 1), 1)
    ]


def test_non_real_roots_are_counted_exactly():
    # (x^2 + 1)(x - 3): one real root of three, however close the pair.
    with pytest.raises(SpectralConsistencyError, match="2 of the 3"):
        _isolating_intervals(_sturm_sequence([-3, 1, -3, 1]))


# ------------------------------------------------------------ against Aberth


@pytest.mark.parametrize("twoj", [12, 19, 24, 33, 41, 44, 60])
def test_mu_roots_agree_with_the_aberth_oracle(twoj):
    for poly in block_polynomials(HalfInt(twoj)):
        mu_poly = to_mu_polynomial(strip_lambda_power(poly)[1])
        with mp.workdps(PRECISION + 30):
            mine = sorted(root for root, _ in _numeric_mu_roots(mu_poly, PRECISION))
            oracle = sorted(root.real for root, _ in aberth_mu_roots(mu_poly, PRECISION))
            assert len(mine) == len(oracle) == mu_poly.degree
            for a, b in zip(mine, oracle):
                assert abs(a - b) <= mp.mpf(10) ** (-(PRECISION - 8)) * max(1, abs(b))


@pytest.mark.parametrize("twoj", [12, 24, 33, 41, 44, 60])
def test_spectrum_json_equals_the_aberth_route(twoj, monkeypatch):
    text = spectrum_to_json(spectrum(HalfInt(twoj), PRECISION))
    monkeypatch.setattr(spectrum_module, "_numeric_mu_roots", aberth_mu_roots)
    assert spectrum_to_json(spectrum(HalfInt(twoj), PRECISION)) == text


def test_spin_fifty_matches_dense_diagonalization():
    report = spectrum("50", PRECISION)
    assert report.pairing_verified
    assert report.dimension == 101
    mine = np.array([float(v) for v in expand_multiset(report.eigenvalues)])
    oracle = np.linalg.eigvalsh(numpy_h_ta(100))
    assert np.max(np.abs(mine - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def test_polished_root_outside_its_interval_fails(monkeypatch):
    # mu^2 - 5 mu + 4: a polisher that always lands on the root 4 passes the
    # residual bound but leaves the interval isolating the root 1.
    monkeypatch.setattr(spectrum_module, "_newton_polish", lambda poly, start, digits: mp.mpf(4))
    with pytest.raises(NumericFailureError, match="left its isolating interval"):
        _numeric_mu_roots(IntPolynomial((4, -5, 1)), PRECISION)


# ------------------------------------------------------------- float start


def _bits(eigenvalues):
    return [(e.value._mpf_, e.multiplicity, e.exactness) for e in eigenvalues]


def _float_starts(monkeypatch):
    """Record what every ``_float_start`` call returns."""
    taken = []
    real = spectrum_module._float_start

    def recording(*args):
        taken.append(real(*args))
        return taken[-1]

    monkeypatch.setattr(spectrum_module, "_float_start", recording)
    return taken


def _midpoint_start(monkeypatch):
    monkeypatch.setattr(spectrum_module, "_float_start", lambda *args: None)


@pytest.mark.parametrize("precision", [15, 34, 52])
@pytest.mark.parametrize("twoj", [12, 19, 24, 33, 41, 44, 60, 61])
def test_eigenvalue_bits_do_not_depend_on_the_float_start(twoj, precision, monkeypatch):
    taken = _float_starts(monkeypatch)
    seeded = _bits(spectrum(HalfInt(twoj), precision).eigenvalues)
    assert None not in taken  # every bracket started from its float
    _midpoint_start(monkeypatch)
    assert _bits(spectrum(HalfInt(twoj), precision).eigenvalues) == seeded


def _twoj_24_chain():
    return block_polynomials(HalfInt(24))[0]


def test_coefficients_beyond_float_range_start_from_the_midpoint(monkeypatch):
    poly = _twoj_24_chain().scaled(10**400)
    taken = _float_starts(monkeypatch)
    roots = _bits(roots_numeric(poly, PRECISION))
    assert taken and all(start is None for start in taken)
    assert roots == _bits(roots_numeric(_twoj_24_chain(), PRECISION))
    _midpoint_start(monkeypatch)
    assert _bits(roots_numeric(poly, PRECISION)) == roots


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 1e30])
def test_a_float_start_that_is_not_finite_or_inside_its_bracket_is_dropped(bad, monkeypatch):
    expected = _bits(roots_numeric(_twoj_24_chain(), PRECISION))
    real = spectrum_module._bracketed_newton

    def broken_in_floats(poly, derivative, lo, hi, rising, x, digits):
        if isinstance(x, float):
            return bad
        return real(poly, derivative, lo, hi, rising, x, digits)

    monkeypatch.setattr(spectrum_module, "_bracketed_newton", broken_in_floats)
    taken = _float_starts(monkeypatch)
    assert _bits(roots_numeric(_twoj_24_chain(), PRECISION)) == expected
    assert taken and all(start is None for start in taken)


# ------------------------------------------------------- known rational roots


@st.composite
def rational_root_polynomials(draw):
    """(lambda polynomial, {mu root: multiplicity}, lambda power, defect).

    The mu roots are distinct positive rationals; ``defect`` adds a factor
    with non-real mu roots (mu^2 + 1) or a negative one (mu + 1).
    """
    roots = draw(
        st.dictionaries(
            st.fractions(min_value=Fraction(1, 9), max_value=40, max_denominator=9),
            st.integers(1, 3),
            min_size=1,
            max_size=4,
        )
    )
    defect = draw(st.sampled_from([None, (1, 0, 1), (1, 1)]))
    lam_power = draw(st.integers(0, 2))
    mu_poly = IntPolynomial((1,))
    for root, multiplicity in roots.items():
        for _ in range(multiplicity):
            mu_poly = mu_poly * IntPolynomial((-root.numerator, root.denominator))
    if defect:
        mu_poly = mu_poly * IntPolynomial(defect)
    spread = [0] * (2 * mu_poly.degree + 1)
    spread[::2] = mu_poly.coefficients
    return IntPolynomial(tuple(spread)).shifted(lam_power), roots, lam_power, defect


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rational_root_polynomials())
def test_roots_numeric_recovers_rational_roots(case):
    poly, roots, lam_power, defect = case
    if defect:
        with pytest.raises(SpectralConsistencyError):
            roots_numeric(poly, PRECISION)
        return
    eigenvalues = roots_numeric(poly, PRECISION)
    with mp.workdps(PRECISION + 10):
        expected = [mp.mpf(0)] * lam_power
        for root, multiplicity in roots.items():
            positive = mp.sqrt(mp.mpf(root.numerator) / root.denominator)
            expected += [positive, -positive] * multiplicity
        expected.sort()
        got = expand_multiset(eigenvalues)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert abs(a - b) <= mp.mpf(10) ** (-(PRECISION - 8)) * max(1, abs(b))
