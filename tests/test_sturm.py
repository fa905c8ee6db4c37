"""The exact real-root core of the numeric spectrum.

Each chain's eigenvalues are counted by the Sturm sequence of its own
leading minors (``Chain.sturm_count``) and isolated by bisection
(``Chain.positive_intervals``).  The counts and intervals are checked
against sympy's exact root counts, the refined roots against the
Aberth-Ehrlich oracle and numpy.
"""

import importlib
from fractions import Fraction

import numpy as np
import pytest
import sympy
from mpmath import mp

from countertwist import (
    HalfInt,
    IntPolynomial,
    InternalConsistencyError,
    NumericFailureError,
    block_decompose,
    spectrum,
    strip_lambda_power,
    to_mu_polynomial,
)
from countertwist.charpoly import Chain
from countertwist.spectrum import (
    _numeric_mu_roots,
    _poly_eigenvalues,
    spectrum_to_json,
)
from _oracles import aberth_mu_roots, numpy_h_ta

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
    return _poly_eigenvalues(chain.polynomial, precision, chain)


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
        intervals = [(lo * lo, hi * hi) for lo, hi, _ in chain.positive_intervals()]
        for (lo, hi), (next_lo, _) in zip(intervals, intervals[1:]):
            assert hi <= next_lo
        for lo, hi in intervals:
            assert sympy_poly.eval(lo) != 0 and sympy_poly.eval(hi) != 0
            assert sympy_poly.count_roots(lo, hi) == 1


@pytest.mark.parametrize("twoj", range(1, 31))
def test_sturm_count_matches_sympy_where_minors_vanish(twoj):
    # At 0 every odd-size leading minor vanishes, p_N too for an odd chain;
    # the other points have denominators, so den^2 matters.
    points = [Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(7, 4), Fraction(41, 8)]
    for chain in both_chains(twoj):
        for x in points:
            count, p_n = chain.sturm_count(x)
            assert count == sympy_count_above(chain, x), (chain.squares, x)
            assert p_n == chain.polynomial.evaluate(x) * x.denominator ** chain.polynomial.degree


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
    assert chain.sturm_count(Fraction(x))[0] == above == sympy_count_above(chain, x)


def test_midpoints_that_are_roots_move_off_them():
    # mu^2 - 5 mu + 4 = (mu - 1)(mu - 4): the first midpoints, 2 and then 1,
    # are both eigenvalues.
    chain = chain_of((2, 1, 2))
    assert chain.polynomial == IntPolynomial((4, 0, -5, 0, 1))
    intervals = chain.positive_intervals()
    assert [(lo < 1 < hi, lo < 2 < hi) for lo, hi, _ in intervals] == [(True, False), (False, True)]
    assert all(lo not in (1, 2) and hi not in (1, 2) for lo, hi, _ in intervals)


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


@pytest.mark.parametrize("twoj", [12, 19, 24, 33, 41, 44, 60])
def test_mu_roots_agree_with_the_aberth_oracle(twoj):
    for chain in both_chains(twoj):
        mu_poly = mu_polynomial(chain)
        with mp.workdps(PRECISION + 30):
            mine = sorted(root for root, _ in _numeric_mu_roots(chain, mu_poly, PRECISION))
            oracle = sorted(root.real for root, _ in aberth_mu_roots(mu_poly, PRECISION))
            assert len(mine) == len(oracle) == mu_poly.degree
            for a, b in zip(mine, oracle):
                assert abs(a - b) <= mp.mpf(10) ** (-(PRECISION - 8)) * max(1, abs(b))


@pytest.mark.parametrize("twoj", [12, 24, 33, 41, 44, 60])
def test_spectrum_json_equals_the_aberth_route(twoj, monkeypatch):
    text = spectrum_to_json(spectrum(HalfInt(twoj), PRECISION))
    monkeypatch.setattr(
        spectrum_module,
        "_numeric_mu_roots",
        lambda chain, mu_poly, precision: aberth_mu_roots(mu_poly, precision),
    )
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
    chain = chain_of((2, 1, 2))
    with pytest.raises(NumericFailureError, match="left its isolating interval"):
        _numeric_mu_roots(chain, IntPolynomial((4, -5, 1)), PRECISION)


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
    return both_chains(24)[0]


def test_coefficients_beyond_float_range_start_from_the_midpoint(monkeypatch):
    chain = _twoj_24_chain()
    scaled = with_polynomial(chain, chain.polynomial.scaled(10**400))
    taken = _float_starts(monkeypatch)
    roots = _bits(numeric_eigenvalues(scaled))
    assert taken and all(start is None for start in taken)
    assert roots == _bits(numeric_eigenvalues(chain))
    _midpoint_start(monkeypatch)
    assert _bits(numeric_eigenvalues(scaled)) == roots


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0, 1e30])
def test_a_float_start_that_is_not_finite_or_inside_its_bracket_is_dropped(bad, monkeypatch):
    expected = _bits(numeric_eigenvalues(_twoj_24_chain()))
    real = spectrum_module._bracketed_newton

    def broken_in_floats(poly, derivative, lo, hi, rising, x, digits):
        if isinstance(x, float):
            return bad
        return real(poly, derivative, lo, hi, rising, x, digits)

    monkeypatch.setattr(spectrum_module, "_bracketed_newton", broken_in_floats)
    taken = _float_starts(monkeypatch)
    assert _bits(numeric_eigenvalues(_twoj_24_chain())) == expected
    assert taken and all(start is None for start in taken)
