"""Eigenvalue tests: radical closed forms, certified numerics, full spectra.

Every spectrum claim is checked through at least two independent routes:
dense float diagonalization (numpy), exact moment identities from the chain
couplings, high-precision polynomial root isolation (sympy), or the package's
own second code path (closed form versus iterative numerics).
"""

import functools
import json
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
    InternalConsistencyError,
    InvalidInputError,
    SpectralConsistencyError,
    block_decompose,
    block_polynomials,
    roots_even_poly,
    roots_numeric,
    spectrum,
    strip_lambda_power,
    to_mu_polynomial,
)
from countertwist.charpoly import SolvabilityCategory
from countertwist.spin_algebra import MAX_PRECISION, MIN_PRECISION
from countertwist.spectrum import (
    Add,
    Cbrt,
    Div,
    Eigenvalue,
    Exactness,
    Mul,
    Rational,
    SpectrumReport,
    Sqrt,
    Sub,
    spectrum_from_json,
    spectrum_to_json,
)
from _oracles import numpy_h_ta

PRECISION = 34


@pytest.fixture(autouse=True)
def _ambient_precision():
    """Golden values below are computed with plain mp calls; give them enough
    digits to sit well inside the package's 34-digit default."""
    previous = mp.dps
    mp.dps = 45
    yield
    mp.dps = previous


def expand_multiset(eigenvalues):
    """Eigenvalues flattened to floats with multiplicities, ascending."""
    out = []
    for eigen in eigenvalues:
        out.extend([float(eigen.value)] * eigen.multiplicity)
    return sorted(out)


def block_mu_poly(twoj, which):
    poly = block_polynomials(HalfInt(twoj))[which]
    _, reduced = strip_lambda_power(poly)
    return to_mu_polynomial(reduced)


# ----------------------------------------------------------- expression trees


def test_rational_leaf_evaluates_exactly():
    node = Rational(Fraction(3, 4))
    assert node.evaluate_real(30) == mp.mpf(3) / 4
    assert str(node) == "3/4"


def test_arithmetic_nodes_match_mpmath():
    expr = Div(Add(Rational(Fraction(1)), Sqrt(Rational(Fraction(5)))), Rational(Fraction(2)))
    golden = (1 + mp.sqrt(5)) / 2
    assert abs(expr.evaluate_real(40) - golden) < mp.mpf(10) ** -38


def test_subtract_and_multiply_nodes():
    expr = Mul(Sub(Sqrt(Rational(Fraction(2))), Rational(Fraction(1))), Rational(Fraction(3)))
    golden = 3 * (mp.sqrt(2) - 1)
    assert abs(expr.evaluate_real(34) - golden) < mp.mpf(10) ** -32


def test_sqrt_of_negative_is_principal_imaginary():
    value = Sqrt(Rational(Fraction(-3))).evaluate(30)
    assert abs(value.real) < mp.mpf(10) ** -28
    assert abs(value.imag - mp.sqrt(3)) < mp.mpf(10) ** -28


def test_cbrt_of_positive_is_real():
    assert abs(Cbrt(Rational(Fraction(27))).evaluate_real(30) - 3) < mp.mpf(10) ** -28


def test_cbrt_of_negative_takes_principal_branch():
    value = Cbrt(Rational(Fraction(-8))).evaluate(30)
    golden = 2 * mp.exp(mp.mpc(0, mp.pi / 3))
    assert abs(value - golden) < mp.mpf(10) ** -28


def test_division_by_zero_raises():
    expr = Div(Rational(Fraction(1)), Sub(Rational(Fraction(2)), Rational(Fraction(2))))
    with pytest.raises(InternalConsistencyError):
        expr.evaluate(30)


def test_evaluate_real_rejects_genuinely_complex():
    with pytest.raises(InternalConsistencyError):
        Sqrt(Rational(Fraction(-3))).evaluate_real(30)


@pytest.mark.parametrize("j", ["7", "15/2"])
def test_each_cube_root_is_evaluated_once(j, monkeypatch):
    # Cardano's cube root is shared by the three roots of the cubic (and,
    # through the resolvent, by Ferrari's four); the memo of each
    # closed-form solve evaluates it once.  Distinct solves build distinct
    # nodes, so counting over one spectrum covers every solve.
    evaluated = []
    original = Cbrt._eval

    def counting_eval(self, memo):
        evaluated.append(self)  # holds the node, so no id is reused
        return original(self, memo)

    monkeypatch.setattr(Cbrt, "_eval", counting_eval)
    report = spectrum(j, PRECISION)
    assert evaluated
    assert len({id(node) for node in evaluated}) == len(evaluated)
    assert any("cbrt" in str(e.radical_form) for e in report.eigenvalues)


def test_tree_string_forms():
    assert str(Sqrt(Rational(Fraction(12)))) == "sqrt(12)"
    assert str(Mul(Rational(Fraction(-1)), Sqrt(Rational(Fraction(12))))) == "-sqrt(12)"
    assert str(Add(Rational(Fraction(63)), Sqrt(Rational(Fraction(3024))))) == "(63 + sqrt(3024))"


def test_eigenvalue_validation():
    with pytest.raises(InvalidInputError):
        Eigenvalue(mp.mpf(0), 0, Exactness.EXACT_RATIONAL)
    with pytest.raises(InvalidInputError):
        Eigenvalue(mp.mpf(1), 1, Exactness.RADICAL)  # missing tree
    with pytest.raises(InvalidInputError):
        Eigenvalue(mp.mpf(1), 1, Exactness.NUMERIC, Sqrt(Rational(Fraction(2))))


# ---------------------------------------------------------- closed-form roots


def test_even_quadratic_pair():
    roots = roots_even_poly(IntPolynomial((-3, 0, 1)), PRECISION)
    assert [e.exactness for e in roots] == [Exactness.RADICAL] * 2
    assert abs(roots[0].value + mp.sqrt(3)) < mp.mpf(10) ** -32
    assert abs(roots[1].value - mp.sqrt(3)) < mp.mpf(10) ** -32


def test_true_dimension_five_even_part():
    # lambda^4 - 21 lambda^2 + 108: mu roots 9 and 12.
    roots = roots_even_poly(IntPolynomial((108, 0, -21, 0, 1)), PRECISION)
    values = [float(e.value) for e in roots]
    assert values == pytest.approx([-2 * 3**0.5, -3.0, 3.0, 2 * 3**0.5], abs=1e-13)
    tags = [e.exactness for e in roots]
    assert tags == [
        Exactness.RADICAL,
        Exactness.EXACT_RATIONAL,
        Exactness.EXACT_RATIONAL,
        Exactness.RADICAL,
    ]


def test_variant_quartic_has_mu_roots_three_and_twelve():
    # lambda^4 - 15 lambda^2 + 36 factors as (lambda^2-3)(lambda^2-12); its mu
    # roots are 3 and 12 (sum 15), not 9 and 12 (sum 21).
    roots = roots_even_poly(IntPolynomial((36, 0, -15, 0, 1)), PRECISION)
    values = [float(e.value) for e in roots]
    expected = sorted([-(12**0.5), -(3**0.5), 3**0.5, 12**0.5])
    assert values == pytest.approx(expected, abs=1e-13)


def test_quadratic_in_mu_with_rational_roots():
    # (lambda^2-4)(lambda^2-9): perfect-square discriminant.
    roots = roots_even_poly(IntPolynomial((36, 0, -13, 0, 1)), PRECISION)
    assert [float(e.value) for e in roots] == [-3.0, -2.0, 2.0, 3.0]
    assert all(e.exactness is Exactness.EXACT_RATIONAL for e in roots)
    assert all(e.radical_form is None for e in roots)


def test_nested_radical_quartic():
    # mu^2 - 126 mu + 945 -> mu = 63 +- sqrt(3024).
    roots = roots_even_poly(IntPolynomial((945, 0, -126, 0, 1)), PRECISION)
    inner = mp.sqrt(3024)
    expected = sorted(
        [-mp.sqrt(63 + inner), -mp.sqrt(63 - inner), mp.sqrt(63 - inner), mp.sqrt(63 + inner)]
    )
    for eigen, want in zip(roots, expected):
        assert abs(eigen.value - want) < mp.mpf(10) ** -31
        assert eigen.exactness is Exactness.RADICAL
        assert abs(eigen.radical_form.evaluate_real(PRECISION) - eigen.value) <= (
            abs(eigen.value) * mp.mpf(10) ** (-PRECISION + 1)
        )


def test_biquadratic_quartic_in_mu():
    # mu = 3 +- sqrt((5 +- sqrt(17))/2): depressed quartic with no cubic or
    # linear term, exercising the biquadratic branch.
    poly = IntPolynomial((38, 0, -78, 0, 49, 0, -12, 0, 1))
    roots = roots_even_poly(poly, PRECISION)
    inner = [mp.sqrt((5 + mp.sqrt(17)) / 2), mp.sqrt((5 - mp.sqrt(17)) / 2)]
    mus = sorted([3 + inner[0], 3 - inner[0], 3 + inner[1], 3 - inner[1]])
    expected = sorted([sign * mp.sqrt(m) for m in mus for sign in (1, -1)])
    assert len(roots) == 8
    for eigen, want in zip(roots, expected):
        assert abs(eigen.value - want) < mp.mpf(10) ** -31


def test_zero_runs_through_even_path():
    # lambda^2 * (lambda^2 - 1): the stripped power carries the zero pair.
    roots = roots_even_poly(IntPolynomial((0, 0, -1, 0, 1)), PRECISION)
    by_value = {float(e.value): e for e in roots}
    assert by_value[0.0].multiplicity == 2
    assert by_value[0.0].exactness is Exactness.EXACT_RATIONAL
    assert set(by_value) == {-1.0, 0.0, 1.0}


def test_repeated_rational_mu_root_merges_structurally():
    # (lambda^2-1)^2: mu root 1 carried twice by exact deflation, not clustering.
    roots = roots_even_poly(IntPolynomial((1, 0, -2, 0, 1)), PRECISION)
    assert [(float(e.value), e.multiplicity) for e in roots] == [(-1.0, 2), (1.0, 2)]
    assert all(e.exactness is Exactness.EXACT_RATIONAL for e in roots)


def test_odd_polynomial_rejected():
    with pytest.raises(InvalidInputError):
        roots_even_poly(IntPolynomial((0, -12, 0, 1)), PRECISION)


def test_mu_degree_beyond_four_rejected():
    poly = IntPolynomial((-1,) + (0,) * 9 + (1,))  # lambda^10 - 1
    with pytest.raises(InvalidInputError):
        roots_even_poly(poly, PRECISION)


def test_negative_mu_root_raises_spectral_error():
    with pytest.raises(SpectralConsistencyError):
        roots_even_poly(IntPolynomial((1, 0, 1)), PRECISION)  # lambda^2 + 1


def test_complex_mu_roots_raise_spectral_error():
    with pytest.raises(SpectralConsistencyError):
        roots_even_poly(IntPolynomial((1, 0, 1, 0, 1)), PRECISION)


def test_zero_polynomial_rejected():
    with pytest.raises(InvalidInputError):
        roots_even_poly(IntPolynomial((0,)), PRECISION)
    with pytest.raises(InvalidInputError):
        roots_numeric(IntPolynomial((0,)), PRECISION)


def test_low_precision_rejected():
    with pytest.raises(InvalidInputError):
        roots_even_poly(IntPolynomial((-3, 0, 1)), 10)


@pytest.mark.parametrize("twoj", [10, 11, 12, 13])
def test_cardano_blocks_match_dense_diagonalization(twoj):
    """Cubic-in-mu chains: closed forms against an independent eigensolver."""
    report = spectrum(HalfInt(twoj), PRECISION)
    assert report.solvability.mu_degree == 3
    mine = expand_multiset(report.eigenvalues)
    oracle = np.linalg.eigvalsh(numpy_h_ta(twoj))
    assert mine == pytest.approx(list(oracle), abs=1e-12 * max(1.0, abs(oracle[-1])))


@pytest.mark.parametrize("twoj", [14, 15, 16, 17])
def test_ferrari_blocks_match_dense_diagonalization(twoj):
    """Quartic-in-mu chains: closed forms against an independent eigensolver."""
    report = spectrum(HalfInt(twoj), PRECISION)
    assert report.solvability.mu_degree == 4
    mine = expand_multiset(report.eigenvalues)
    oracle = np.linalg.eigvalsh(numpy_h_ta(twoj))
    assert mine == pytest.approx(list(oracle), abs=1e-12 * max(1.0, abs(oracle[-1])))


@pytest.mark.parametrize("twoj, which", [(10, 0), (14, 1), (16, 0), (16, 1)])
def test_closed_forms_match_sympy_at_fifty_digits(twoj, which):
    """Cardano/Ferrari values against sympy's certified root isolation."""
    mu_poly = block_mu_poly(twoj, which)
    x = sympy.symbols("x")
    expr = sum(c * x**k for k, c in enumerate(mu_poly.coefficients))
    sympy_roots = sorted(
        sympy.Poly(expr, x).real_roots(), key=lambda r: r.evalf(20)
    )
    assert len(sympy_roots) == mu_poly.degree
    poly = block_polynomials(HalfInt(twoj))[which]
    lam_power, reduced = strip_lambda_power(poly)
    eigen = roots_numeric(poly, 50) if lam_power else roots_even_poly(poly, 50)
    positives = [e for e in eigen if e.value > 0]
    assert len(positives) == mu_poly.degree
    with mp.workdps(60):
        for eig, root in zip(positives, sympy_roots):
            golden = mp.mpf(str(sympy.N(sympy.sqrt(root), 60)))
            assert abs(eig.value - golden) < mp.mpf(10) ** -45


# ------------------------------------------------------------- numeric roots


def test_numeric_cubic_shape_polynomial():
    roots = roots_numeric(IntPolynomial((0, 1, 0, -1)), PRECISION)
    assert [float(e.value) for e in roots] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-30)
    tags = {float(e.value): e.exactness for e in roots}
    assert tags[0.0] is Exactness.EXACT_RATIONAL
    assert tags[1.0] is Exactness.NUMERIC
    assert all(e.radical_form is None for e in roots)


def test_numeric_pure_lambda_square():
    roots = roots_numeric(IntPolynomial((0, 0, 1)), PRECISION)
    assert len(roots) == 1
    assert roots[0].value == 0
    assert roots[0].multiplicity == 2
    assert roots[0].exactness is Exactness.EXACT_RATIONAL


def test_numeric_sextic_block_reconstructs_coefficients():
    """The six positive mu roots of the largest dimension-23 chain rebuild the
    exact integer polynomial to the certified relative accuracy."""
    mu_poly = block_mu_poly(22, 0)
    assert mu_poly.degree == 6
    roots = roots_numeric(block_polynomials(HalfInt(22))[0], PRECISION)
    mus = [e.value**2 for e in roots if e.value > 0]
    assert len(mus) == 6
    with mp.workdps(PRECISION + 10):
        rebuilt = [mp.mpf(1)]
        for root in mus:
            nxt = [mp.mpf(0)] * (len(rebuilt) + 1)
            for k, c in enumerate(rebuilt):
                nxt[k] += c * (-root)
                nxt[k + 1] += c
            rebuilt = nxt
    scale = max(abs(mp.mpf(c)) for c in mu_poly.coefficients)
    for have, want in zip(rebuilt, mu_poly.coefficients):
        assert abs(have - want) <= scale * mp.mpf(10) ** (-(PRECISION - 8))


def test_numeric_path_locates_repeated_roots_within_certificate():
    """(lambda^2-1)^2: the doubled mu root is found as two certified copies;
    the proximity certificate keeps each within 2x the residual bound."""
    roots = roots_numeric(IntPolynomial((1, 0, -2, 0, 1)), PRECISION)
    values = expand_multiset(roots)
    assert len(values) == 4
    assert values == pytest.approx([-1.0, -1.0, 1.0, 1.0], abs=1e-25)


def test_numeric_rejects_complex_spectrum():
    with pytest.raises(SpectralConsistencyError):
        roots_numeric(IntPolynomial((1, 0, 1, 0, 1)), PRECISION)


@pytest.mark.parametrize("twoj", range(1, 18))
def test_radical_and_numeric_paths_agree(twoj):
    """Independent routes to the same chains agree to 10^-(p-8)."""
    for poly in block_polynomials(HalfInt(twoj)):
        numeric = roots_numeric(poly, PRECISION)
        lam_power, _ = strip_lambda_power(poly)
        if lam_power == 0:
            closed = roots_even_poly(poly, PRECISION)
        else:
            closed = _closed_via_spectrum_block(poly)
        values_n = expand_multiset(numeric)
        values_c = expand_multiset(closed)
        assert len(values_n) == len(values_c)
        for a, b in zip(values_n, values_c):
            assert abs(a - b) <= 10.0 ** (-(PRECISION - 8)) * max(1.0, abs(a))


def _closed_via_spectrum_block(poly):
    """Closed-form eigenvalues for an odd chain polynomial (lambda * even)."""
    from countertwist.spectrum import _poly_eigenvalues

    return _poly_eigenvalues(poly, PRECISION, numeric_path=False)


# ------------------------------------------------------------- full spectra


def test_spin_one_half_is_trivial():
    report = spectrum("1/2", PRECISION)
    assert report.solvability.category is SolvabilityCategory.TRIVIAL_ZERO
    assert len(report.eigenvalues) == 1
    assert report.eigenvalues[0].value == 0
    assert report.eigenvalues[0].multiplicity == 2
    assert report.degenerate
    assert report.pairing_verified
    assert report.dimension == 2


def test_spin_three_halves_doubled_pair():
    report = spectrum("3/2", PRECISION)
    assert [e.multiplicity for e in report.eigenvalues] == [2, 2]
    assert abs(report.eigenvalues[1].value - mp.sqrt(3)) < mp.mpf(10) ** -32
    assert report.degenerate


def test_spin_two_worked_example():
    report = spectrum(2, PRECISION)
    golden = [-mp.sqrt(12), mp.mpf(-3), mp.mpf(0), mp.mpf(3), mp.sqrt(12)]
    assert len(report.eigenvalues) == 5
    for eigen, want in zip(report.eigenvalues, golden):
        assert abs(eigen.value - want) < mp.mpf(10) ** -32
        assert eigen.multiplicity == 1
    assert not report.degenerate
    assert report.pairing_verified
    tags = [e.exactness for e in report.eigenvalues]
    assert tags == [
        Exactness.RADICAL,
        Exactness.EXACT_RATIONAL,
        Exactness.EXACT_RATIONAL,
        Exactness.EXACT_RATIONAL,
        Exactness.RADICAL,
    ]
    tree = report.eigenvalues[4].radical_form
    assert str(tree) == "sqrt(12)"


def test_spin_five_halves_zero_pair():
    report = spectrum("5/2", PRECISION)
    assert [(e.multiplicity, float(e.value)) for e in report.eigenvalues] == [
        (2, pytest.approx(-(28**0.5), abs=1e-13)),
        (2, 0.0),
        (2, pytest.approx(28**0.5, abs=1e-13)),
    ]


def test_spin_seven_halves_nested_radicals():
    report = spectrum("7/2", PRECISION)
    inner = mp.sqrt(3024)
    golden = [
        -mp.sqrt(63 + inner),
        -mp.sqrt(63 - inner),
        mp.sqrt(63 - inner),
        mp.sqrt(63 + inner),
    ]
    assert [e.multiplicity for e in report.eigenvalues] == [2, 2, 2, 2]
    for eigen, want in zip(report.eigenvalues, golden):
        assert abs(eigen.value - want) < mp.mpf(10) ** -31
        assert eigen.exactness is Exactness.RADICAL


def test_hypergeometric_class_reports_but_computes_numerically():
    report = spectrum(9, PRECISION)
    assert report.solvability.category is SolvabilityCategory.HYPERGEOMETRIC
    nonzero = [e for e in report.eigenvalues if e.value != 0]
    assert all(e.exactness is Exactness.NUMERIC for e in nonzero)
    zero = [e for e in report.eigenvalues if e.value == 0]
    assert len(zero) == 1 and zero[0].exactness is Exactness.EXACT_RATIONAL


def test_numeric_only_class():
    report = spectrum(11, PRECISION)
    assert report.solvability.category is SolvabilityCategory.NUMERIC_ONLY
    assert report.dimension == 23


@pytest.mark.parametrize("twoj", list(range(1, 23)) + [60])
def test_pairing_and_moments(twoj):
    """Multiset symmetry under negation plus the exact first two moments."""
    report = spectrum(HalfInt(twoj), PRECISION)
    assert report.pairing_verified
    assert report.dimension == twoj + 1
    decomposition = block_decompose(HalfInt(twoj))
    total = 2 * (
        sum(decomposition.block_a, Fraction(0))
        + sum(decomposition.block_b, Fraction(0))
    )
    with mp.workdps(PRECISION + 10):
        first = mp.fsum([e.value * e.multiplicity for e in report.eigenvalues])
        second = mp.fsum([e.value**2 * e.multiplicity for e in report.eigenvalues])
        exact = mp.mpf(total.numerator) / total.denominator
        scale = max(mp.mpf(1), exact)
        assert abs(first) <= scale * mp.mpf(10) ** (-(PRECISION - 10))
        if twoj > 1:
            assert abs(second - exact) <= exact * mp.mpf(10) ** (-(PRECISION - 10))
        else:
            assert second == 0


@pytest.mark.parametrize("twoj", range(1, 31))
def test_spectrum_matches_dense_diagonalization(twoj):
    mine = expand_multiset(spectrum(HalfInt(twoj), PRECISION).eigenvalues)
    oracle = np.linalg.eigvalsh(numpy_h_ta(twoj))
    assert mine == pytest.approx(list(oracle), abs=1e-11 * max(1.0, abs(oracle[-1])))


@pytest.mark.parametrize(
    "twoj, expect_zero",
    [(1, True), (2, True), (3, False), (4, True), (5, True), (6, True), (7, False), (9, True), (11, False)],
)
def test_zero_eigenvalue_presence(twoj, expect_zero):
    """Integer spins always carry zero; half-integer spins carry a doubled
    zero exactly when their chain length is odd."""
    report = spectrum(HalfInt(twoj), PRECISION)
    has_zero = any(e.value == 0 for e in report.eigenvalues)
    assert has_zero == expect_zero


def test_degeneracy_marks_half_integers():
    for twoj in range(1, 16):
        report = spectrum(HalfInt(twoj), PRECISION)
        assert report.degenerate == (twoj % 2 == 1)
        if report.degenerate:
            assert all(e.multiplicity % 2 == 0 for e in report.eigenvalues)
        else:
            assert all(e.multiplicity == 1 for e in report.eigenvalues)


def test_radical_forms_reproduce_values_to_one_ulp():
    for twoj in range(1, 18):
        report = spectrum(HalfInt(twoj), PRECISION)
        for eigen in report.eigenvalues:
            if eigen.exactness is Exactness.RADICAL:
                replayed = eigen.radical_form.evaluate_real(PRECISION)
                assert abs(replayed - eigen.value) <= abs(eigen.value) * mp.mpf(10) ** (
                    -PRECISION + 1
                )


def test_spectrum_is_deterministic():
    first = spectrum(6, PRECISION)
    second = spectrum(6, PRECISION)
    assert [e.value for e in first.eigenvalues] == [e.value for e in second.eigenvalues]
    assert [e.multiplicity for e in first.eigenvalues] == [
        e.multiplicity for e in second.eigenvalues
    ]


def test_spectrum_at_higher_precision():
    report = spectrum(2, precision=60)
    top = report.eigenvalues[-1]
    with mp.workdps(70):
        golden = mp.sqrt(12)
        assert abs(top.value - golden) < mp.mpf(10) ** -58


def test_thirty_spin_moment_oracle_at_high_precision():
    report = spectrum(HalfInt(60), precision=50)
    decomposition = block_decompose(HalfInt(60))
    total = 2 * (
        sum(decomposition.block_a, Fraction(0))
        + sum(decomposition.block_b, Fraction(0))
    )
    assert total.denominator == 1
    with mp.workdps(60):
        second = mp.fsum([e.value**2 * e.multiplicity for e in report.eigenvalues])
        assert abs(second - int(total)) <= int(total) * mp.mpf(10) ** -40
    assert report.pairing_verified
    assert report.dimension == 61


def test_spectrum_rejects_bad_spins():
    with pytest.raises(InvalidInputError):
        spectrum(0, PRECISION)
    with pytest.raises(InvalidInputError):
        spectrum(0.3, PRECISION)
    with pytest.raises(InvalidInputError):
        spectrum("7/3", PRECISION)


# ------------------------------------------------------------ JSON round trip


def _every_kind_report():
    """A report whose radical form uses each of the seven node kinds."""
    half = Rational(Fraction(1, 2))
    tree = Sub(
        Div(Add(Rational(Fraction(3)), Sqrt(Rational(Fraction(2)))), Cbrt(half)),
        Mul(Rational(Fraction(-1, 3)), half),
    )
    value = tree.evaluate_real(PRECISION)
    negative = Mul(Rational(Fraction(-1)), tree)
    return SpectrumReport(
        j=HalfInt(1),
        eigenvalues=(
            Eigenvalue(-value, 1, Exactness.RADICAL, negative),
            Eigenvalue(value, 1, Exactness.RADICAL, tree),
        ),
        precision=PRECISION,
    )


def _radical_kinds(obj):
    children = [v for v in obj.values() if isinstance(v, dict)]
    return {obj["kind"]}.union(*(_radical_kinds(child) for child in children))


def test_json_round_trip_covers_every_node_kind():
    report = _every_kind_report()
    text = spectrum_to_json(report)
    top = json.loads(text)["eigenvalues"][1]["radical_form"]
    assert _radical_kinds(top) == {
        "rational", "add", "sub", "mul", "div", "sqrt", "cbrt"
    }
    assert list(top) == ["kind", "left", "right"]
    assert list(top["right"]["left"]) == ["kind", "value"]
    assert list(top["left"]["right"]) == ["kind", "operand"]
    parsed = spectrum_from_json(text)
    assert parsed == report
    assert spectrum_to_json(parsed) == text


def _edited_first_form(edit):
    payload = json.loads(spectrum_to_json(_every_kind_report()))
    edit(payload["eigenvalues"][0]["radical_form"])
    return json.dumps(payload)


def test_json_rejects_unknown_node_kind():
    def rename(form):
        form["right"]["kind"] = "root"

    with pytest.raises(InvalidInputError, match="unknown radical node kind 'root'"):
        spectrum_from_json(_edited_first_form(rename))


@pytest.mark.parametrize(
    "path, child",
    [
        ((), "right"),
        (("left",), "value"),
        (("right", "left", "left", "right"), "operand"),
    ],
)
def test_json_rejects_missing_child(path, child):
    def drop(form):
        for key in path:
            form = form[key]
        del form[child]

    with pytest.raises(InvalidInputError, match="malformed spectrum-report"):
        spectrum_from_json(_edited_first_form(drop))


@pytest.mark.parametrize("text", ["[]", "3", '"spectrum-report"', "null"])
def test_json_rejects_a_document_that_is_not_an_object(text):
    with pytest.raises(InvalidInputError, match="malformed spectrum-report"):
        spectrum_from_json(text)


@pytest.mark.parametrize("form", ["sqrt", 12, ["kind", "sqrt"]])
def test_json_rejects_a_radical_form_that_is_not_an_object(form):
    payload = json.loads(spectrum_to_json(_every_kind_report()))
    payload["eigenvalues"][0]["radical_form"] = form
    with pytest.raises(InvalidInputError, match="malformed spectrum-report"):
        spectrum_from_json(json.dumps(payload))


def test_json_rejects_an_eigenvalue_entry_that_is_not_an_object():
    payload = json.loads(spectrum_to_json(_every_kind_report()))
    payload["eigenvalues"][0] = "1.5"
    with pytest.raises(InvalidInputError, match="malformed spectrum-report"):
        spectrum_from_json(json.dumps(payload))


def _spin_two_document(**changes):
    payload = json.loads(spectrum_to_json(spectrum(2, PRECISION)))
    payload.update(changes)
    return json.dumps(payload)


@pytest.mark.parametrize("j", [2, 2.5, None, ["2"], "-2", "-1/2", "0", "7/3"])
def test_json_rejects_a_spin_that_is_not_a_half_integer_string_of_at_least_one_half(j):
    with pytest.raises(InvalidInputError, match="malformed spectrum-report"):
        spectrum_from_json(_spin_two_document(j=j))


@pytest.mark.parametrize(
    "precision", [0, -5, 3, MIN_PRECISION - 1, 20.7, True, "34", None, MAX_PRECISION + 1]
)
def test_json_rejects_a_precision_outside_the_accepted_range(precision):
    with pytest.raises(InvalidInputError, match="malformed spectrum-report"):
        spectrum_from_json(_spin_two_document(precision=precision))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_json_rejects_a_value_that_is_not_finite(value):
    payload = json.loads(_spin_two_document())
    payload["eigenvalues"][0]["value"] = value
    with pytest.raises(InvalidInputError, match="malformed spectrum-report"):
        spectrum_from_json(json.dumps(payload))


def _drop_first(entries):
    del entries[0]


def _raise_first(entries):
    entries[0]["multiplicity"] += 1


@pytest.mark.parametrize("edit", [_drop_first, _raise_first])
def test_json_rejects_multiplicities_that_do_not_sum_to_the_dimension(edit):
    payload = json.loads(_spin_two_document())
    edit(payload["eigenvalues"])
    with pytest.raises(InvalidInputError, match="malformed spectrum-report"):
        spectrum_from_json(json.dumps(payload))


@pytest.mark.parametrize("twoj", [*range(1, 18), 25, 60, 80])
def test_json_round_trips_at_the_lowest_precision(twoj):
    report = spectrum(HalfInt(twoj), MIN_PRECISION)
    text = spectrum_to_json(report)
    assert spectrum_from_json(text) == report
    assert spectrum_to_json(spectrum_from_json(text)) == text


@pytest.mark.parametrize("twoj, precision", [(60, 15), (60, 20), (80, 15), (80, 20)])
def test_json_round_trips_neighbours_rounded_to_one_value(twoj, precision):
    # The two chains' roots at large integer j lie closer together than the
    # working precision resolves, so spectrum() writes equal neighbours.
    report = spectrum(HalfInt(twoj), precision)
    values = [ev.value for ev in report.eigenvalues]
    assert any(a == b for a, b in zip(values, values[1:]))
    assert spectrum_from_json(spectrum_to_json(report)) == report


def _set(*path, value):
    def edit(payload):
        for key in path[:-1]:
            payload = payload[key]
        payload[path[-1]] = value

    return edit


def _reverse_eigenvalues(payload):
    payload["eigenvalues"].reverse()


def _set_first_radical(**changes):
    def edit(payload):
        entry = next(e for e in payload["eigenvalues"] if e["exactness"] == "RADICAL")
        assert entry["radical_text"] == "-sqrt(12)"
        entry.update(changes)

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set("pairing_verified", value="no"),
        _set("degenerate", value="false"),
        _set("degenerate", value=True),
        _set("dimension", value=99),
        _set("solvability", "category", value="NUMERIC_ONLY"),
        _set("solvability", "mu_degree", value=1.5),
        _set("eigenvalues", 0, "multiplicity", value=1.9),
        _set("eigenvalues", 0, "multiplicity", value="1"),
        _set("eigenvalues", 0, "multiplicity", value=True),
        _reverse_eigenvalues,
        _set_first_radical(value="5.0"),
        _set_first_radical(radical_text="-sqrt(13)"),
        _set_first_radical(radical_form={"kind": "rational", "value": "1/0"}),
        _set_first_radical(
            radical_form={"kind": "sqrt", "operand": {"kind": "rational", "value": "-1"}},
            radical_text="sqrt(-1)",
        ),
    ],
    ids=[
        "pairing-string", "degenerate-string", "degenerate-true", "dimension",
        "category", "mu-degree-float", "multiplicity-float",
        "multiplicity-string", "multiplicity-bool", "reversed",
        "radical-value", "radical-text", "rational-over-zero", "non-real-tree",
    ],
)
def test_json_rejects_a_document_that_spectrum_never_writes(edit):
    payload = json.loads(_spin_two_document())
    edit(payload)
    with pytest.raises(InvalidInputError, match="malformed spectrum-report document: "):
        spectrum_from_json(json.dumps(payload))


@pytest.mark.parametrize("depth", [600, 2000])
def test_json_rejects_a_radical_form_nested_too_deeply_to_walk(depth):
    payload = json.loads(_spin_two_document())
    payload["eigenvalues"][0]["radical_form"] = "NESTED"
    nested = '{"kind": "sqrt", "operand": ' * depth + '{"kind": "rational", "value": "1"}'
    text = json.dumps(payload).replace('"NESTED"', nested + "}" * depth)
    with pytest.raises(InvalidInputError):
        spectrum_from_json(text)


# ------------------------------------------------ edits at the JSON boundary


@functools.lru_cache(maxsize=None)
def _written_document(twoj, precision):
    return spectrum_to_json(spectrum(HalfInt(twoj), precision))


def _json_paths(node, path=()):
    """The path to every value below ``node`` in a parsed JSON document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _at(payload, path):
    for key in path:
        payload = payload[key]
    return payload


def _retyped(value, choice):
    """``value`` as another JSON type: bool <-> string, int -> float, string
    or bool, object -> list."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return (float(value), str(value), bool(value))[choice % 3]
    if isinstance(value, str):
        return choice % 2 == 0
    return list(value.values())


@st.composite
def edited_documents(draw):
    """(unedited text, text after one edit from the menu)."""
    twoj = draw(st.integers(1, 12))
    text = _written_document(twoj, draw(st.sampled_from((15, 34))))
    payload = json.loads(text)
    entries = payload["eigenvalues"]
    edit = draw(st.sampled_from(("retype", "drop", "swap", "negate")))
    if edit == "retype":
        paths = [
            path for path in _json_paths(payload)
            if isinstance(_at(payload, path), (bool, int, str, dict))
        ]
        path = draw(st.sampled_from(paths))
        parent = _at(payload, path[:-1])
        parent[path[-1]] = _retyped(parent[path[-1]], draw(st.integers(0, 2)))
    elif edit == "drop":
        paths = [
            path for path in _json_paths(payload)
            if isinstance(_at(payload, path[:-1]), dict)
        ]
        path = draw(st.sampled_from(paths))
        del _at(payload, path[:-1])[path[-1]]
    elif edit == "swap":
        first = draw(st.integers(0, len(entries) - 1))
        second = draw(st.integers(0, len(entries) - 1))
        entries[first], entries[second] = entries[second], entries[first]
    else:
        entry = draw(st.sampled_from(entries))
        value = entry["value"]
        entry["value"] = value[1:] if value.startswith("-") else "-" + value
    return text, json.dumps(payload)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(edited_documents())
def test_an_edited_document_is_refused_or_parses_to_the_same_report(case):
    text, edited = case
    try:
        parsed = spectrum_from_json(edited)
    except InvalidInputError:
        return
    assert parsed == spectrum_from_json(text)
