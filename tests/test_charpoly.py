"""Exact characteristic polynomials, discriminants, and solvability classes."""

import importlib
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy

from countertwist import (
    HalfInt,
    InternalConsistencyError,
    InvalidInputError,
    NotAvailableError,
    propagator_spectral,
    spectrum,
)
from countertwist.charpoly import (
    BlockDecomposition,
    Chain,
    IntPolynomial,
    SolvabilityCategory,
    block_decompose,
    block_polynomials,
    char_poly_exact,
    classify_solvability,
    decimal_text,
    degeneracy_report,
    discriminant,
    strip_lambda_power,
    table1_reference,
    table1_spins,
    to_mu_polynomial,
)
from countertwist.charpoly import _exact_quotient, _resultant
from _oracles import (
    _euclid_resultant,
    _sylvester_resultant,
    euclid_discriminant,
    numpy_h_ta,
    unlimited_str,
)

charpoly_module = importlib.import_module("countertwist.charpoly")


def eigenvalue_reconstructed_coefficients(twoj):
    """Ascending coefficients of det(H - lambda I) from numpy eigenvalues."""
    eigs = np.linalg.eigvalsh(numpy_h_ta(twoj))
    monic = np.poly(eigs)[::-1]  # ascending, leading 1
    sign = (-1) ** (twoj + 1)
    return sign * monic


def assert_coefficients_close(exact, floating, rel_tol):
    scale = max(abs(c) for c in exact)
    for c_exact, c_float in zip(exact, floating):
        if c_exact != 0:
            assert abs(c_float - c_exact) / abs(c_exact) < rel_tol
        else:
            assert abs(c_float) < rel_tol * scale


# ---------------------------------------------------------------- IntPolynomial


def test_polynomial_normalization_and_basics():
    p = IntPolynomial.from_coefficients([1, 2, 0, 0])
    assert p.coefficients == (1, 2)
    assert p.degree == 1
    q = IntPolynomial.from_coefficients([0, 0, 0])
    assert q.is_zero
    with pytest.raises(InvalidInputError):
        IntPolynomial(())
    with pytest.raises(InvalidInputError):
        IntPolynomial((1, 0))


def test_polynomial_arithmetic():
    p = IntPolynomial((-3, 0, 1))  # x^2 - 3
    q = IntPolynomial((-12, 0, 1))
    assert (p * q).coefficients == (36, 0, -15, 0, 1)
    assert p.shifted(2).coefficients == (0, 0, -3, 0, 1)
    assert p.derivative().coefficients == (0, 2)
    assert p.evaluate(2) == 1
    assert p.evaluate(Fraction(1, 2)) == Fraction(-11, 4)
    assert str(IntPolynomial((0, 1, 0, -1))) == "-x^3 + x"


BIG_INTEGERS = [0, 7, -7, 10**499, 10**500, -(10**500) + 1, 3**20000, -(7**9000) * 10**600]


@pytest.mark.parametrize(
    "value",
    BIG_INTEGERS,
    ids=[f"{'-' if v < 0 else ''}{v.bit_length()}bit" for v in BIG_INTEGERS],
)
def test_decimal_text_matches_str(value):
    assert decimal_text(value) == unlimited_str(value)


def test_decimal_text_of_huge_integers_matches_str():
    # str() of these needs the int-to-str digit limit lifted, which this
    # process keeps: a subprocess lifts it.  Random ints of up to 200 000
    # digits, either sign, around the switch to the Decimal route, and
    # powers of ten with their neighbours.
    script = (
        "import random, sys\n"
        "from countertwist.charpoly import _DECIMAL_BITS, decimal_text\n"
        "sys.set_int_max_str_digits(0)\n"
        "rng = random.Random(29)\n"
        "bits = [_DECIMAL_BITS + k for k in (-1, 0, 1, 2)]\n"
        "bits += [rng.randint(_DECIMAL_BITS, 664_385) for _ in range(4)] + [664_385]\n"
        "values = [rng.getrandbits(b) | 1 << (b - 1) for b in bits]\n"
        "values += [10**d + k for d in (15_050, 60_000) for k in (-1, 0, 1)] + [10**199_999]\n"
        "for v in values:\n"
        "    text = str(v)\n"
        "    assert decimal_text(v) == text and decimal_text(-v) == '-' + text, v.bit_length()\n"
        "print(len(values))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["16"]


def test_parity_and_mu_helpers():
    even = IntPolynomial((9, 0, -6, 0, 1))
    assert even.is_even()
    assert to_mu_polynomial(even).coefficients == (9, -6, 1)
    odd = IntPolynomial((0, 1, 0, -1))
    assert odd.is_odd()
    power, reduced = strip_lambda_power(odd)
    assert power == 1
    assert reduced.coefficients == (1, 0, -1)
    with pytest.raises(InvalidInputError):
        to_mu_polynomial(odd)


# ---------------------------------------------------------------- blocks


def test_block_decompose_j2():
    decomp = block_decompose(HalfInt(4))
    assert [m.twice_value for m in decomp.a.labels] == [4, 0, -4]
    assert [m.twice_value for m in decomp.b.labels] == [2, -2]
    assert decomp.a.squares == (Fraction(6), Fraction(6))
    assert decomp.b.squares == (Fraction(9),)


def test_block_decompose_j3_couplings():
    decomp = block_decompose(HalfInt(6))
    got = {decomp.a.squares, decomp.b.squares}
    expected = {
        (Fraction(15), Fraction(36), Fraction(15)),
        (Fraction(30), Fraction(30)),
    }
    assert got == expected


def test_block_decompose_j_half():
    decomp = block_decompose(HalfInt(1))
    assert len(decomp.a.labels) == len(decomp.b.labels) == 1
    assert decomp.a.squares == decomp.b.squares == ()


@pytest.mark.parametrize("twoj", [1, 2, 3, 4, 5, 8, 13, 22, 30])
def test_block_sizes(twoj):
    decomp = block_decompose(HalfInt(twoj))
    n = twoj + 1
    assert len(decomp.a.labels) == (n + 1) // 2
    assert len(decomp.b.labels) == n // 2
    labels = sorted(
        m.twice_value for m in decomp.a.labels + decomp.b.labels
    )
    assert labels == list(range(-twoj, twoj + 1, 2))


def test_block_couplings_match_matrix_entries():
    h = numpy_h_ta(9)
    decomp = block_decompose(HalfInt(9))
    for chain in (decomp.a, decomp.b):
        for upper, w in zip(chain.labels, chain.squares):
            row = (9 - upper.twice_value) // 2
            entry = h[row, row + 2]
            assert abs(abs(entry) ** 2 - float(w)) < 1e-12
    for twoj in range(241):
        decomp = block_decompose(HalfInt(twoj))
        assert all(type(w) is int for w in decomp.a.squares + decomp.b.squares)


# ---------------------------------------------------------------- char poly


@pytest.mark.parametrize(
    "twoj, expected",
    [
        (1, (0, 0, 1)),  # lambda^2
        (2, (0, 1, 0, -1)),  # lambda (1 - lambda^2)
        (3, (9, 0, -6, 0, 1)),  # (lambda^2 - 3)^2
        (4, (0, -108, 0, 21, 0, -1)),  # -lambda (lambda^2 - 9)(lambda^2 - 12)
        (5, (0, 0, 784, 0, -56, 0, 1)),  # lambda^2 (lambda^2 - 28)^2
    ],
)
def test_char_poly_small_spins(twoj, expected):
    assert char_poly_exact(HalfInt(twoj)).coefficients == expected


@pytest.mark.parametrize("twoj", range(1, 23))
def test_char_poly_matches_eigenvalue_reconstruction(twoj):
    exact = char_poly_exact(HalfInt(twoj)).coefficients
    floating = eigenvalue_reconstructed_coefficients(twoj)
    assert len(floating) == len(exact)
    assert_coefficients_close(exact, floating, 1e-8)


@pytest.mark.parametrize("twoj", list(range(1, 31)) + [60])
def test_char_poly_parity_and_leading_sign(twoj):
    p = char_poly_exact(HalfInt(twoj))
    assert p.degree == twoj + 1
    assert p.leading_coefficient == (-1) ** (twoj + 1)
    if twoj % 2 == 0:
        assert p.is_odd()  # integer spin: lambda times an even polynomial
    else:
        assert p.is_even()


@pytest.mark.parametrize("twoj", list(range(1, 31)) + [60])
def test_char_poly_trace_identities(twoj):
    p = char_poly_exact(HalfInt(twoj))
    n = twoj + 2  # number of coefficients
    coeffs = p.coefficients
    assert coeffs[n - 2] == 0  # zero trace
    decomp = block_decompose(HalfInt(twoj))
    total_w = sum(decomp.a.squares) + sum(decomp.b.squares)
    assert total_w.denominator == 1
    expected = -int(total_w) * (-1) ** (twoj + 1)
    assert coeffs[n - 3] == expected  # encodes tr H^2 = 2 * sum of couplings


@pytest.mark.parametrize("twoj", [1, 3, 5, 9, 13, 17, 21])
def test_half_integer_block_doubling(twoj):
    pa, pb = block_polynomials(HalfInt(twoj))
    assert pa == pb
    assert char_poly_exact(HalfInt(twoj)) == pa * pb


def test_char_poly_runtime_under_one_second():
    import time

    start = time.perf_counter()
    for twoj in range(1, 23):
        char_poly_exact(HalfInt(twoj))
    elapsed = time.perf_counter() - start
    assert elapsed < 22.0  # < 1 s per row on average, with large margin


# ---------------------------------------------------------------- discriminant


def test_discriminant_cubic_example():
    assert discriminant(IntPolynomial((0, 1, 0, -1))) == 4


@pytest.mark.parametrize("twoj", [3, 5])
def test_discriminant_degenerate_rows(twoj):
    assert discriminant(char_poly_exact(HalfInt(twoj))) == 0


def test_discriminant_rejects_zero_polynomial():
    with pytest.raises(InvalidInputError):
        discriminant(IntPolynomial((0,)))


@pytest.mark.parametrize(
    "coeffs",
    [
        (2, -3, 1),
        (-4, 0, 1, 5),
        (1, 1, 1, 1, 1),
        (0, -36, 0, 15, 0, -1),
        (7, 0, 0, 0, 2, 3),
    ],
)
def test_discriminant_matches_sympy(coeffs):
    x = sympy.Symbol("x")
    expr = sum(c * x**k for k, c in enumerate(coeffs))
    expected = int(sympy.discriminant(sympy.Poly(expr, x)))
    assert discriminant(IntPolynomial.from_coefficients(coeffs)) == expected


@pytest.mark.parametrize("twoj", range(1, 17))
def test_char_poly_discriminant_matches_sympy(twoj):
    p = char_poly_exact(HalfInt(twoj))
    x = sympy.Symbol("x")
    expr = sum(c * x**k for k, c in enumerate(p.coefficients))
    expected = int(sympy.discriminant(sympy.Poly(expr, x)))
    assert discriminant(p) == expected


@pytest.mark.parametrize("twoj", range(0, 25))
def test_degeneracy_matches_spin_parity(twoj):
    report = degeneracy_report(HalfInt(twoj))
    assert report.degenerate == (twoj % 2 == 1)
    if twoj % 2 == 1:
        assert report.discriminant_block != 0  # simple within each chain
    # The block factorization agrees with the Euclidean resultant on the
    # full polynomial.
    assert report.discriminant_full == discriminant(char_poly_exact(HalfInt(twoj)))


def test_degeneracy_report_examples():
    assert degeneracy_report(HalfInt(2)).degenerate is False
    assert degeneracy_report(HalfInt(21)).degenerate is True
    assert degeneracy_report(HalfInt(1)).degenerate is True


def _per_chain_discriminants(twoj):
    """(full, block) from both chains' own discriminants and their resultant,
    without reading the twin structure."""
    pa, pb = block_polynomials(HalfInt(twoj))
    block = discriminant(pa) * (discriminant(pb) if pb.degree else 1)
    return block * _resultant(pa, pb) ** 2, block


@pytest.mark.parametrize("twoj", range(0, 81))
def test_degeneracy_report_matches_the_per_chain_route(twoj):
    report = degeneracy_report(HalfInt(twoj))
    assert (report.discriminant_full, report.discriminant_block) == _per_chain_discriminants(twoj)


@pytest.mark.parametrize("twoj", [0, 1, 2, 3, 15, 16, 41])
def test_twin_chains_take_one_discriminant(twoj, monkeypatch):
    calls = []

    def counting(poly):
        calls.append(poly)
        return discriminant(poly)

    monkeypatch.setattr(charpoly_module, "discriminant", counting)
    degeneracy_report(HalfInt(twoj))
    # j = 0 has one chain polynomial of positive degree; other integer
    # spins two distinct chains; half-integer spins twins.
    assert len(calls) == (1 if twoj % 2 or twoj == 0 else 2)


def test_spin_zero_chains_are_not_twins():
    decomp = block_decompose(HalfInt(0))
    assert decomp.chains == ((decomp.a, 1), (decomp.b, 1))
    report = degeneracy_report(HalfInt(0))
    assert (report.discriminant_full, report.discriminant_block, report.degenerate) == (1, 1, False)


@pytest.mark.parametrize("twoj", range(0, 49))
def test_resultant_matches_sylvester_determinant(twoj):
    pa, pb = block_polynomials(HalfInt(twoj))
    for p, q in ((pa, pa.derivative()), (pb, pb.derivative()), (pa, pb)):
        assert _resultant(p, q) == _sylvester_resultant(p, q)
    if twoj % 2 == 1:  # twin chains share every root
        assert _resultant(pa, pb) == 0


@pytest.mark.parametrize(
    "p, q",
    [
        ((1,), (0,)),  # the empty chain at j = 0 and its derivative
        ((0, 1), (1,)),
        ((5,), (1, 0, 1)),
        ((-2, 0, 0, 1), (3,)),
        ((0,), (0, 1)),
        ((0, 1), (0,)),
        ((7,), (4,)),
        ((1, 3, 2), (5, -1, 0, 3)),
        ((5, -1, 0, 3), (1, 3, 2)),
        ((-1, 0, 1), (1, 2, 1)),
    ],
)
def test_resultant_edge_cases(p, q):
    p, q = IntPolynomial.from_coefficients(p), IntPolynomial.from_coefficients(q)
    assert _resultant(p, q) == _sylvester_resultant(p, q)


def _sympy_discriminant(p):
    x = sympy.Symbol("x")
    return int(sympy.discriminant(sympy.Poly(p.coefficients[::-1], x)))


def _random_parity_polynomials(count, seed=20150929):
    """c*lambda^k*q(lambda^2) with k = 0, 1, 2, deg q = 0..5, a leading
    coefficient of any size (often not +-1) and q(0) sometimes 0."""
    rng = random.Random(seed)
    for _ in range(count):
        k, degree = rng.randrange(3), rng.randrange(6)
        lc = rng.choice((-1, 1)) * rng.randint(1, 9)
        q = [rng.randint(-60, 60) for _ in range(degree)] + [lc]
        coefficients = [0] * k
        for c in q:
            coefficients += [c, 0]
        yield IntPolynomial.from_coefficients(coefficients)


def test_mu_form_discriminant_matches_sympy():
    seen = set()
    for p in _random_parity_polynomials(200):
        k, stripped = strip_lambda_power(p)
        seen.add((min(k, 2), to_mu_polynomial(stripped).degree == 0))
        if p.degree < 1:
            with pytest.raises(InvalidInputError):
                discriminant(p)
            continue
        assert discriminant(p) == _sympy_discriminant(p), p.coefficients
    assert seen == {(k, constant) for k in range(3) for constant in (False, True)}


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("lc", [1, -1, 3, -7])
def test_discriminant_of_a_lambda_power(k, lc):
    p = IntPolynomial((0,) * k + (lc,))
    if k == 0:
        with pytest.raises(InvalidInputError):
            discriminant(p)
    else:
        assert discriminant(p) == _sympy_discriminant(p) == (1 if k == 1 else 0)


@pytest.mark.parametrize("twoj", [81, 99, 120])
def test_degeneracy_report_matches_the_euclid_oracle(twoj):
    pa, pb = block_polynomials(HalfInt(twoj))
    block = euclid_discriminant(pa) * euclid_discriminant(pb)
    report = degeneracy_report(HalfInt(twoj))
    assert report.discriminant_block == block
    assert report.discriminant_full == block * _euclid_resultant(pa, pb) ** 2


def test_an_inexact_scalar_division_is_refused(monkeypatch):
    # Left in the primitive parts, the content is missing from the scalars,
    # and the first division of scalars that needed it is not exact.
    monkeypatch.setattr(charpoly_module, "_primitive", lambda coefficients: (1, coefficients))
    with pytest.raises(InternalConsistencyError, match="not exact"):
        discriminant(block_polynomials(HalfInt(10))[0])


def test_exact_quotient_refuses_a_remainder():
    assert _exact_quotient(-12, 4) == -3
    with pytest.raises(InternalConsistencyError, match="not exact"):
        _exact_quotient(7, 2)


# ---------------------------------------------------------------- solvability


@pytest.mark.parametrize(
    "twoj, category, mu_degree",
    [
        (1, SolvabilityCategory.TRIVIAL_ZERO, 0),
        (2, SolvabilityCategory.RADICALS, 1),
        (4, SolvabilityCategory.RADICALS, 1),
        (9, SolvabilityCategory.RADICALS, 2),
        (16, SolvabilityCategory.RADICALS, 4),
        (17, SolvabilityCategory.RADICALS, 4),
        (18, SolvabilityCategory.HYPERGEOMETRIC, 5),
        (19, SolvabilityCategory.HYPERGEOMETRIC, 5),
        (20, SolvabilityCategory.HYPERGEOMETRIC, 5),
        (21, SolvabilityCategory.HYPERGEOMETRIC, 5),
        (22, SolvabilityCategory.NUMERIC_ONLY, 6),
    ],
)
def test_solvability_ladder(twoj, category, mu_degree):
    result = classify_solvability(HalfInt(twoj))
    assert result.category == category
    assert result.mu_degree == mu_degree


def test_solvability_radicals_span():
    for twoj in range(2, 18):
        assert (
            classify_solvability(HalfInt(twoj)).category
            == SolvabilityCategory.RADICALS
        )


# ---------------------------------------------------------------- reference table


def test_reference_clean_rows_match_computation():
    mismatched = []
    for j in table1_spins():
        row = table1_reference(j)
        if row.literal is None or row.literal != char_poly_exact(j):
            mismatched.append(j.twice_value)
    assert mismatched == [4, 16, 22]  # the known defective printed rows


def test_reference_row_7_half():
    row = table1_reference(HalfInt(7))
    factor = IntPolynomial((945, 0, -126, 0, 1))
    assert row.literal == factor * factor
    assert not row.questionable


def test_reference_row_5():
    row = table1_reference(HalfInt(10))
    expected = (
        IntPolynomial((0, 1))
        * IntPolynomial((-108, 0, 1))
        * IntPolynomial((-528, 0, 1))
        * IntPolynomial((-455625, 0, 65619, 0, -651, 0, 1))
    ).scaled(-1)
    assert row.literal == expected


def test_reference_questionable_rows():
    row8 = table1_reference(HalfInt(16))
    assert row8.questionable
    assert row8.literal is not None
    assert row8.literal.degree == 25  # impossible degree, kept literally
    assert row8.corrected == char_poly_exact(HalfInt(16))

    row11 = table1_reference(HalfInt(22))
    assert row11.questionable
    assert row11.literal is None  # ill-formed printed constant
    assert row11.corrected == char_poly_exact(HalfInt(22))


def test_reference_degeneracy_markers():
    for j in table1_spins():
        row = table1_reference(j)
        assert row.degenerate == (j.twice_value % 2 == 1)


def test_reference_out_of_range():
    with pytest.raises(NotAvailableError):
        table1_reference(HalfInt(24))


# ------------------------------------------------------------ the chain model


@pytest.mark.parametrize("twoj", range(0, 62))
def test_factors_are_the_distinct_chain_polynomials_with_their_counts(twoj):
    decomp = block_decompose(HalfInt(twoj))
    pa, pb = decomp.a.polynomial, decomp.b.polynomial
    if twoj % 2:
        assert decomp.chains == ((decomp.a, 2),)
        assert pa == pb
    else:
        assert decomp.chains == ((decomp.a, 1), (decomp.b, 1))
        assert pa != pb


@pytest.mark.parametrize("twoj", [0, 1, 2, 7, 22, 41])
def test_block_polynomials_read_the_memoised_chain_model(twoj):
    j = HalfInt(twoj)
    decomp = block_decompose(j)
    assert block_decompose(j) is decomp
    pa, pb = block_polynomials(j)
    assert pa is decomp.a.polynomial and pb is decomp.b.polynomial


def test_a_coupling_square_not_divisible_by_4_is_refused(monkeypatch):
    charpoly = sys.modules["countertwist.charpoly"]
    square = charpoly.two_step_coupling_squared
    monkeypatch.setattr(charpoly, "two_step_coupling_squared", lambda j, m: square(j, m) + 2)
    block_decompose.cache_clear()
    with pytest.raises(InternalConsistencyError, match="not divisible by 4"):
        block_decompose(HalfInt(4))


def _non_twin_half_integer_chains(monkeypatch, twoj):
    """Make the spectrum and the dynamics see spin twoj/2 with a chain b
    that is no longer chain a's twin."""
    decomp = block_decompose(HalfInt(twoj))
    b = decomp.b
    broken = BlockDecomposition(
        j=decomp.j,
        a=decomp.a,
        b=Chain(b.labels, (b.squares[0] + 1,) + b.squares[1:]),
    )
    with pytest.raises(InternalConsistencyError, match="must be twins"):
        broken.chains
    # The package exports a function named spectrum, so the module that holds
    # it is taken from sys.modules.
    for module in ("countertwist.evolution", "countertwist.spectrum"):
        monkeypatch.setattr(sys.modules[module], "block_decompose", lambda j: broken)


@pytest.mark.parametrize("twoj", [3, 9])
def test_half_integer_chains_that_are_not_twins_are_refused(twoj, monkeypatch):
    report = spectrum(HalfInt(twoj))
    _non_twin_half_integer_chains(monkeypatch, twoj)
    with pytest.raises(InternalConsistencyError, match="must be twins"):
        spectrum(HalfInt(twoj))
    with pytest.raises(InternalConsistencyError, match="must be twins"):
        propagator_spectral(report, 0.7)
