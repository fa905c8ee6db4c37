"""Eigenvalue spectra of the countertwisting matrix, exact where possible.

The characteristic polynomial of the matrix splits into two chain factors,
each a polynomial in mu = lambda^2 after stripping lambda factors
(:mod:`countertwist.charpoly`).  This module turns those exact integer
polynomials into eigenvalues:

* mu-degree <= 4: closed-form radical roots (linear, quadratic, Cardano,
  Ferrari) carried as explicit expression trees, whose own evaluations,
  Newton-polished on the exact polynomial, give the certified values;
* any mu-degree: exact isolation of every positive eigenvalue of a chain
  by the Sturm sequence of its own leading minors
  (:class:`countertwist.charpoly.Chain`), then bracketed Newton on the
  exact mu-polynomial with a certified residual bound, used beyond the
  radical range (the tests also run it inside that range, as a second
  route to the closed forms).

Multiplicities are always structural — the number of chains carrying a
factor (two for the twin chains of a half-integer spin) and stripped lambda
powers — never inferred from numerical clustering.

Reports round-trip through JSON without loss (:func:`spectrum_to_json`).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields, replace
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Union

from mpmath import mp

from ._version import __version__
from .charpoly import (
    Chain,
    IntPolynomial,
    SolvabilityClass,
    block_decompose,
    classify_solvability,
    strip_lambda_power,
    to_mu_polynomial,
)
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    NumericFailureError,
    SpectralConsistencyError,
)
from .spin_algebra import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    MIN_PRECISION,
    HalfInt,
    _mpf_from_fraction,
    _require_precision,
    _require_spin,
)

__all__ = [
    "RadicalExpr",
    "Rational",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Sqrt",
    "Cbrt",
    "Exactness",
    "Eigenvalue",
    "SpectrumReport",
    "roots_even_poly",
    "spectrum",
    "spectrum_from_json",
    "spectrum_to_json",
]

# Extra decimal digits used while evaluating expression trees; generous enough
# to absorb the cancellation inside nested Cardano/Ferrari forms.
_EVAL_GUARD = 30


# ---------------------------------------------------------- expression trees


class RadicalExpr:
    """Exact closed-form expression built from rationals and radicals.

    Evaluation is complex-capable: square and cube roots of negative numbers
    take the principal branch, which is what the cubic formula needs when all
    three roots are real (the imaginary parts then cancel).
    """

    def evaluate(self, precision: int = DEFAULT_PRECISION):
        """Value at ``precision`` digits; an ``mpc`` when genuinely complex."""
        _require_precision(precision)
        with mp.workdps(precision + _EVAL_GUARD):
            raw = self._value({})
        with mp.workdps(precision):
            if isinstance(raw, mp.mpc):
                if raw.imag == 0:
                    return +raw.real
                return mp.mpc(+raw.real, +raw.imag)
            return +raw

    def evaluate_real(self, precision: int = DEFAULT_PRECISION):
        """Real value at ``precision`` digits; residual imaginary parts from
        principal-branch arithmetic are certified negligible and dropped."""
        _require_precision(precision)
        with mp.workdps(precision + _EVAL_GUARD):
            raw = self._value({})
            if isinstance(raw, mp.mpc):
                scale = max(mp.mpf(1), abs(raw))
                if abs(raw.imag) > scale * mp.mpf(10) ** (-(precision + 5)):
                    raise InternalConsistencyError(
                        f"expression evaluates to the non-real value {raw}"
                    )
                raw = raw.real
        with mp.workdps(precision):
            return +raw

    def _value(self, memo: dict):
        """Value at the working precision.  ``memo`` maps id(node) to
        (node, value), so a subtree shared by several trees is evaluated once
        per memo; holding the node keeps its id from being reused."""
        hit = memo.get(id(self))
        if hit is None:
            hit = memo[id(self)] = (self, self._eval(memo))
        return hit[1]

    def _eval(self, memo: dict):  # pragma: no cover - overridden by every node type
        raise NotImplementedError


@dataclass(frozen=True)
class Rational(RadicalExpr):
    """Exact rational leaf."""

    value: Fraction

    def _eval(self, memo: dict):
        return _mpf_from_fraction(self.value)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Add(RadicalExpr):
    left: RadicalExpr
    right: RadicalExpr

    def _eval(self, memo: dict):
        return self.left._value(memo) + self.right._value(memo)

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


@dataclass(frozen=True)
class Sub(RadicalExpr):
    left: RadicalExpr
    right: RadicalExpr

    def _eval(self, memo: dict):
        return self.left._value(memo) - self.right._value(memo)

    def __str__(self) -> str:
        return f"({self.left} - {self.right})"


@dataclass(frozen=True)
class Mul(RadicalExpr):
    left: RadicalExpr
    right: RadicalExpr

    def _eval(self, memo: dict):
        return self.left._value(memo) * self.right._value(memo)

    def __str__(self) -> str:
        if self.left == Rational(Fraction(-1)):
            return f"-{self.right}"
        return f"({self.left} * {self.right})"


@dataclass(frozen=True)
class Div(RadicalExpr):
    left: RadicalExpr
    right: RadicalExpr

    def _eval(self, memo: dict):
        denominator = self.right._value(memo)
        if denominator == 0:
            raise InternalConsistencyError("division by zero in an expression tree")
        return self.left._value(memo) / denominator

    def __str__(self) -> str:
        return f"({self.left} / {self.right})"


@dataclass(frozen=True)
class Sqrt(RadicalExpr):
    operand: RadicalExpr

    def _eval(self, memo: dict):
        value = self.operand._value(memo)
        if not isinstance(value, mp.mpc) and value < 0:
            value = mp.mpc(value)
        return mp.sqrt(value)

    def __str__(self) -> str:
        return f"sqrt({self.operand})"


@dataclass(frozen=True)
class Cbrt(RadicalExpr):
    operand: RadicalExpr

    def _eval(self, memo: dict):
        value = self.operand._value(memo)
        if isinstance(value, mp.mpc) or value < 0:
            return mp.power(mp.mpc(value), mp.mpf(1) / 3)
        return mp.cbrt(value)

    def __str__(self) -> str:
        return f"cbrt({self.operand})"


def _rat(x) -> Rational:
    return Rational(Fraction(x))


def _neg(expr: RadicalExpr) -> RadicalExpr:
    return Mul(_rat(-1), expr)


# --------------------------------------------------------------- domain types


class Exactness(Enum):
    EXACT_RATIONAL = "EXACT_RATIONAL"
    RADICAL = "RADICAL"
    NUMERIC = "NUMERIC"


@dataclass(frozen=True)
class Eigenvalue:
    """One eigenvalue of the countertwisting matrix, in units of chi.

    :param value: real scalar (``mp.mpf``) rounded to the requested precision.
    :param multiplicity: structural multiplicity (>= 1).
    :param exactness: how the value is known.
    :param radical_form: closed-form expression tree, present exactly when
        ``exactness`` is RADICAL; evaluating it at the same precision
        reproduces ``value`` to one unit in the last place.
    """

    value: object
    multiplicity: int
    exactness: Exactness
    radical_form: Optional[RadicalExpr] = None

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise InvalidInputError("multiplicity must be at least 1")
        if (self.exactness is Exactness.RADICAL) != (self.radical_form is not None):
            raise InvalidInputError(
                "radical_form must be present exactly for RADICAL eigenvalues"
            )


@dataclass(frozen=True)
class SpectrumReport:
    """Complete spectrum of one spin's countertwisting matrix (over chi).

    Everything else a report states is derived from these three fields.

    :param j: spin magnitude.
    :param eigenvalues: sorted ascending by value.
    :param precision: decimal digits the values carry.
    """

    j: HalfInt
    eigenvalues: tuple[Eigenvalue, ...]
    precision: int

    @property
    def dimension(self) -> int:
        return sum(e.multiplicity for e in self.eigenvalues)

    @property
    def degenerate(self) -> bool:
        """Some multiplicity exceeds one (exactly the half-integer spins)."""
        return any(e.multiplicity > 1 for e in self.eigenvalues)

    @property
    def solvability(self) -> SolvabilityClass:
        return classify_solvability(self.j)

    @property
    def pairing_verified(self) -> bool:
        """The multiset of eigenvalues is invariant under lambda -> -lambda,
        multiplicities included, to 10^(5-precision)."""
        with mp.workdps(self.precision):
            tolerance = mp.mpf(10) ** (5 - self.precision)
            return all(
                a.multiplicity == b.multiplicity
                and abs(a.value + b.value) <= tolerance * max(1, abs(a.value))
                for a, b in zip(self.eigenvalues, reversed(self.eigenvalues))
            )


# --------------------------------------------------- lossless JSON round trip

# The JSON kind of each expression-tree node.  A node's children are its
# dataclass fields, serialized under the field names in declaration order.
_RADICAL_NODES: dict[str, type] = {
    "rational": Rational, "add": Add, "sub": Sub, "mul": Mul,
    "div": Div, "sqrt": Sqrt, "cbrt": Cbrt,
}
_RADICAL_KINDS = {node_type: kind for kind, node_type in _RADICAL_NODES.items()}
_RADICAL_FIELDS = {
    kind: tuple(field.name for field in fields(node_type))
    for kind, node_type in _RADICAL_NODES.items()
}


def _json_document(payload: dict) -> str:
    """``json.dumps(payload, indent=2) + "\\n"``, byte for byte, for the
    documents the package writes, each radical subtree formatted once.

    Values may be dicts with str keys, lists, str, bool, int and
    :class:`RadicalExpr` nodes, a node being written as the object of its
    kind and fields that :func:`spectrum_from_json` reads back.  A node's
    text is kept by (id(node), indent) for the call, so a subtree that
    several trees share is formatted once at each depth; every node stays
    reachable from ``payload`` during the call, so no id is reused.
    (``json.dumps`` runs its pure-Python encoder whenever ``indent`` is
    set, and writes a shared subtree out once per reference.)

    :raises InternalConsistencyError: a value or key of any other type.
    """
    return _json_value(payload, "\n", {}) + "\n"


def _json_value(value, newline: str, memo: dict) -> str:
    """The text of ``value``, whose own lines start with ``newline`` (a line
    break and the current indent)."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if isinstance(value, RadicalExpr):
        key = (id(value), newline)
        text = memo.get(key)
        if text is None:
            text = memo[key] = _radical_json(value, newline, memo)
        return text
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    inner = newline + "  "
    if kind is list:
        if not value:
            return "[]"
        items = [_json_value(item, inner, memo) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if kind is dict:
        if not value:
            return "{}"
        if not all(type(name) is str for name in value):
            raise InternalConsistencyError("a JSON object key is not a str")
        items = [
            encode_basestring_ascii(name) + ": " + _json_value(item, inner, memo)
            for name, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise InternalConsistencyError(f"no JSON form for a {kind.__name__} value")


def _radical_json(node: RadicalExpr, newline: str, memo: dict) -> str:
    """One node's object: its kind, then each field, a Rational's value as
    its exact text and every other field a child node."""
    kind = _RADICAL_KINDS.get(type(node))
    if kind is None:
        raise InternalConsistencyError(
            f"radical node {type(node).__name__} has no serialized form"
        )
    inner = newline + "  "
    members = [f'"kind": "{kind}"']
    for name in _RADICAL_FIELDS[kind]:
        child = getattr(node, name)
        if isinstance(child, RadicalExpr):
            text = _json_value(child, inner, memo)
        elif isinstance(child, Fraction):
            text = encode_basestring_ascii(str(child))
        else:
            raise InternalConsistencyError(
                f"radical node {kind} holds a {type(child).__name__} field"
            )
        members.append(f'"{name}": {text}')
    return "{" + inner + ("," + inner).join(members) + newline + "}"


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidInputError(f"{what} {value!r} is not an object")
    return value


def _radical_from_obj(obj: dict) -> RadicalExpr:
    kind = _json_object(obj, "radical node").get("kind")
    node_type = _RADICAL_NODES.get(kind)
    if node_type is None:
        raise InvalidInputError(f"unknown radical node kind {kind!r}")
    if node_type is Rational:
        return Rational(Fraction(obj["value"]))
    children = (_radical_from_obj(obj[name]) for name in _RADICAL_FIELDS[kind])
    return node_type(*children)


def _derived_fields(report: SpectrumReport) -> dict:
    """The document fields that restate what the report derives."""
    solvability = report.solvability
    return {
        "dimension": report.dimension,
        "degenerate": report.degenerate,
        "pairing_verified": report.pairing_verified,
        "solvability": {
            "category": solvability.category.name,
            "mu_degree": solvability.mu_degree,
        },
    }


def spectrum_to_json(report: SpectrumReport) -> str:
    """Serialize a spectrum report so that parsing recovers it exactly.

    Eigenvalues are printed with enough decimal digits (precision + 6) that
    re-rounding the text at the report's precision reproduces the original
    binary values bit for bit.
    """
    digits = report.precision + 6
    eigenvalues = []
    for ev in report.eigenvalues:
        entry: dict = {
            "value": mp.nstr(ev.value, digits),
            "multiplicity": ev.multiplicity,
            "exactness": ev.exactness.name,
        }
        if ev.radical_form is not None:
            entry["radical_form"] = ev.radical_form
            entry["radical_text"] = str(ev.radical_form)
        eigenvalues.append(entry)
    payload = {
        "tool": "countertwist",
        "version": __version__,
        "kind": "spectrum-report",
        "j": str(report.j),
        "precision": report.precision,
        **_derived_fields(report),
        "eigenvalues": eigenvalues,
    }
    return _json_document(payload)


def _parse_eigenvalue(entry, precision: int) -> Eigenvalue:
    """One eigenvalue entry, at the working precision ``precision``."""
    radical = _json_object(entry, "eigenvalue entry").get("radical_form")
    if not isinstance(entry["value"], str):
        raise ValueError(f"eigenvalue {entry['value']!r} is not a string")
    value = mp.mpf(entry["value"])
    if not mp.isfinite(value):
        raise ValueError(f"eigenvalue {entry['value']!r} is not finite")
    multiplicity = entry["multiplicity"]
    if type(multiplicity) is not int:
        raise ValueError(f"multiplicity {multiplicity!r} is not an integer")
    form = _radical_from_obj(radical) if radical is not None else None
    if entry.get("radical_text") != (None if form is None else str(form)):
        raise ValueError(f"radical_text {entry.get('radical_text')!r} does not spell its tree")
    if form is not None:
        try:  # a tree that is not real or divides by zero is malformed input
            error = abs(value - form.evaluate_real(precision))
        except InternalConsistencyError as exc:
            raise ValueError(str(exc)) from exc
        if error > abs(value) * mp.mpf(10) ** (1 - precision):
            raise ValueError(f"eigenvalue {entry['value']!r} is not its tree's value")
    return Eigenvalue(value, multiplicity, Exactness[entry["exactness"]], form)


def spectrum_from_json(text: str) -> SpectrumReport:
    """Inverse of :func:`spectrum_to_json` (ignores tool/version metadata).

    :raises InvalidInputError: the text is not a document that
        :func:`spectrum_to_json` writes: a field of the wrong JSON type or
        out of range, values not in ascending order, a RADICAL value or
        radical_text its tree does not reproduce, multiplicities that do not
        sum to 2j + 1, or a stated field that differs from the derived one.
    """
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidInputError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise InvalidInputError(
            "malformed spectrum-report document: the top level is a "
            f"{type(payload).__name__}, not an object"
        )
    if payload.get("kind") != "spectrum-report":
        raise InvalidInputError(
            f"expected a spectrum-report document, got kind={payload.get('kind')!r}"
        )
    try:
        j = payload["j"]
        if not isinstance(j, str):
            raise ValueError(f"j {j!r} is not a string")
        j = HalfInt.from_string(j)
        if j.twice_value < 1:
            raise ValueError(f"j = {j} is below 1/2")
        precision = payload["precision"]
        if type(precision) is not int or not MIN_PRECISION <= precision <= MAX_PRECISION:
            raise ValueError(
                f"precision {precision!r} is not an integer from {MIN_PRECISION} "
                f"to {MAX_PRECISION}"
            )
        with mp.workdps(precision):
            eigenvalues = tuple(
                _parse_eigenvalue(entry, precision) for entry in payload["eigenvalues"]
            )
        # Equal neighbours occur: two chains' roots can round to one value.
        if any(b.value < a.value for a, b in zip(eigenvalues, eigenvalues[1:])):
            raise ValueError("eigenvalues are not in ascending order")
        total = sum(ev.multiplicity for ev in eigenvalues)
        if total != j.n_states:
            raise ValueError(f"multiplicities sum to {total}, not 2j + 1 = {j.n_states}")
        report = SpectrumReport(j=j, eigenvalues=eigenvalues, precision=precision)
        # Compared as JSON text, so 1, 1.0 and true differ.
        for key, derived in _derived_fields(report).items():
            if json.dumps(payload[key], sort_keys=True) != json.dumps(derived, sort_keys=True):
                raise ValueError(f"{key} {payload[key]!r} is not the derived {derived!r}")
        return report
    # A tree nesting too deeply or a rational over zero is malformed input.
    except (KeyError, TypeError, ValueError, RecursionError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"malformed spectrum-report document: {exc}") from exc


# ------------------------------------------------------------ small helpers


def _sqrt_fraction(fr: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if fr < 0:
        return None
    root_num = math.isqrt(fr.numerator)
    root_den = math.isqrt(fr.denominator)
    if root_num * root_num == fr.numerator and root_den * root_den == fr.denominator:
        return Fraction(root_num, root_den)
    return None


def _round_to(value, precision: int):
    with mp.workdps(precision):
        return +value


def _as_real(value, precision: int):
    """Collapse a numerically-real complex value, or report inconsistency.

    The tolerance 10^(5-p) matches the nonnegativity certificate: anything
    beyond it cannot be roundoff from a Hermitian-origin polynomial.
    """
    if not isinstance(value, mp.mpc):
        return value
    scale = max(mp.mpf(1), abs(value))
    if abs(value.imag) > scale * mp.mpf(10) ** (-(precision - 5)):
        raise SpectralConsistencyError(
            f"non-real root {value}; the polynomial does not come from a "
            "Hermitian matrix"
        )
    return value.real


# ------------------------------------------------- closed-form mu-root solvers
#
# Each solver takes ascending Fraction coefficients and returns the exact
# form of every root: a Fraction or a RadicalExpr tree.  Intermediate values
# may be complex; realness is certified by the caller.  Where a solver needs
# a number to choose a form, it evaluates the candidate tree through
# ``memo`` at the caller's guarded working precision.

_Form = Union[Fraction, RadicalExpr]
_ClosedRoot = tuple[object, _Form]


def _solve_linear(c0: Fraction, c1: Fraction) -> list[_Form]:
    return [-c0 / c1]


def _solve_quadratic(c0: Fraction, c1: Fraction, c2: Fraction) -> list[_Form]:
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        raise SpectralConsistencyError(
            f"quadratic discriminant {disc} is negative; the roots are not real"
        )
    exact = _sqrt_fraction(disc)
    if exact is not None:
        return sorted(((-c1 - exact) / (2 * c2), (-c1 + exact) / (2 * c2)))
    sqrt_tree = Sqrt(Rational(disc))
    return [
        Div(Sub(_rat(-c1), sqrt_tree), _rat(2 * c2)),
        Div(Add(_rat(-c1), sqrt_tree), _rat(2 * c2)),
    ]


def _solve_cubic(
    c0: Fraction, c1: Fraction, c2: Fraction, c3: Fraction, memo: dict
) -> list[_Form]:
    """Cardano's formula; complex intermediates when all roots are real."""
    b = c2 / c3
    c = c1 / c3
    d = c0 / c3
    delta0 = b * b - 3 * c
    delta1 = 2 * b**3 - 9 * b * c + 27 * d
    if delta0 == 0 and delta1 == 0:
        return [-b / 3] * 3
    # Leaves shared between the roots are single nodes, evaluated once.
    two, minus_one, delta1_tree = _rat(2), _rat(-1), Rational(delta1)
    inner_tree = Sqrt(Rational(delta1 * delta1 - 4 * delta0**3))
    half = Div(Add(delta1_tree, inner_tree), two)
    if half._value(memo) == 0:
        # Happens only for delta0 == 0, delta1 < 0; the other branch is safe.
        half = Div(Sub(delta1_tree, inner_tree), two)
    big_c_tree = Cbrt(half)
    sqrt_minus_three = Sqrt(_rat(-3))
    unit_trees = (
        None,
        Div(Add(minus_one, sqrt_minus_three), two),
        Div(Sub(minus_one, sqrt_minus_three), two),
    )
    third, b_tree, delta0_tree = _rat(Fraction(-1, 3)), Rational(b), Rational(delta0)
    roots: list[_Form] = []
    for unit_tree in unit_trees:
        branch_tree = big_c_tree if unit_tree is None else Mul(unit_tree, big_c_tree)
        roots.append(
            Mul(third, Add(b_tree, Add(branch_tree, Div(delta0_tree, branch_tree))))
        )
    return roots


def _solve_quartic(
    c0: Fraction, c1: Fraction, c2: Fraction, c3: Fraction, c4: Fraction, memo: dict
) -> list[_Form]:
    """Ferrari's method via the resolvent cubic of the depressed quartic."""
    b = c3 / c4
    c = c2 / c4
    d = c1 / c4
    e = c0 / c4
    shift = b / 4  # mu = y - shift with y the depressed variable
    p = c - 3 * b * b / 8
    q = d - b * c / 2 + b**3 / 8
    r = e - b * d / 4 + b * b * c / 16 - 3 * b**4 / 256

    roots: list[_Form] = []
    shift_tree = Rational(shift)
    if q == 0:
        # Biquadratic: y^2 solves a plain quadratic.
        for z_form in _solve_quadratic(r, p, Fraction(1)):
            if isinstance(z_form, Fraction):
                exact = _sqrt_fraction(z_form)
                if exact is not None:
                    roots.extend(sign * exact - shift for sign in (-1, 1))
                    continue
                z_form = Rational(z_form)
            y_tree = Sqrt(z_form)
            roots.append(Sub(y_tree, shift_tree))
            roots.append(Sub(_neg(y_tree), shift_tree))
        return roots

    # Resolvent cubic u^3 + 2p u^2 + (p^2 - 4r) u - q^2; its roots are the
    # squared pair-sums of the depressed roots, so for a real spectrum they
    # are nonnegative and their square roots combine into the quartic roots.
    sqrt_trees: list[RadicalExpr] = []
    for u_form in _solve_cubic(-q * q, p * p - 4 * r, 2 * p, Fraction(1), memo):
        if isinstance(u_form, Fraction):
            exact = _sqrt_fraction(u_form)
            if exact is not None:
                sqrt_trees.append(Rational(exact))
                continue
            u_form = Rational(u_form)
        sqrt_trees.append(Sqrt(u_form))

    # Fix the overall sign so that s1*s2*s3 = -q.
    s1, s2, s3 = (tree._value(memo) for tree in sqrt_trees)
    product = s1 * s2 * s3
    target = _mpf_from_fraction(-q)
    if abs(product - target) > abs(product + target):
        sqrt_trees[2] = _neg(sqrt_trees[2])

    t1, t2, t3 = sqrt_trees
    two = _rat(2)
    for y_tree in (
        Add(Add(t1, t2), t3),
        Sub(Sub(t1, t2), t3),
        Sub(Sub(t2, t1), t3),
        Sub(t3, Add(t1, t2)),
    ):
        roots.append(Sub(Div(y_tree, two), shift_tree))
    return roots


def _detect_integer_roots(poly: IntPolynomial, approximations) -> list[int]:
    """Integer roots confirmed by exact evaluation near numeric approximations."""
    found: list[int] = []
    for value in approximations:
        candidate = int(mp.nint(mp.re(value)))
        if candidate not in found and poly.evaluate(candidate) == 0:
            found.append(candidate)
    return found


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for a primitive b that divides a; by Gauss's lemma the
    quotient has integer coefficients."""
    r = a[:]
    quotient = [0] * (len(a) - len(b) + 1)
    for shift in range(len(quotient) - 1, -1, -1):
        factor, rest = divmod(r[shift + len(b) - 1], b[-1])
        if rest:
            raise InternalConsistencyError("polynomial division left a remainder")
        quotient[shift] = factor
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
    if any(r):
        raise InternalConsistencyError("polynomial division left a remainder")
    return quotient


def _closed_mu_roots(mu_poly: IntPolynomial) -> list[_ClosedRoot]:
    """All roots of an integer mu-polynomial of degree <= 4 in closed form,
    each paired with its value at the working precision.

    A tree's value is the tree's own evaluation; the memo, owned by this
    call, evaluates a subtree that several roots share once.
    """
    degree = mu_poly.degree
    if degree == 0:
        return []
    if degree > 4:
        raise InvalidInputError(
            f"mu-degree {degree} exceeds the closed-form limit of 4; "
            "use the numeric path"
        )
    coefficients = [Fraction(c) for c in mu_poly.coefficients]
    memo: dict = {}
    if degree <= 2:
        forms = (_solve_linear if degree == 1 else _solve_quadratic)(*coefficients)
    else:
        forms = (_solve_cubic if degree == 3 else _solve_quartic)(*coefficients, memo)
    raw = [
        (_mpf_from_fraction(form) if isinstance(form, Fraction) else form._value(memo), form)
        for form in forms
    ]
    # A monic integer polynomial can only have integer rational roots; peel
    # those off exactly so they keep their exact form and the leftover factor
    # gets the simplest possible radicals.
    if degree > 2 and abs(mu_poly.leading_coefficient) == 1:
        integer_roots = _detect_integer_roots(mu_poly, [value for value, _ in raw])
        if integer_roots:
            reduced = list(mu_poly.coefficients)
            for root in integer_roots:
                reduced = _exact_quotient(reduced, [-root, 1])
            peeled = [(mp.mpf(root), Fraction(root)) for root in integer_roots]
            return peeled + _closed_mu_roots(IntPolynomial(tuple(reduced)))
    return raw


# ------------------------------------------------------- certified numerics


def _newton_polish(poly: IntPolynomial, start, precision: int):
    """Newton-polish a simple real root against the exact integer polynomial,
    working at ``precision`` + 10 guard digits."""
    derivative = poly.derivative()
    with mp.workdps(precision + 10):
        x = mp.mpf(start)
        threshold = mp.mpf(10) ** (-(precision + 5))
        for _ in range(8):
            slope = derivative.evaluate(x)
            if slope == 0:
                break
            step = poly.evaluate(x) / slope
            x -= step
            if abs(step) <= threshold * max(mp.mpf(1), abs(x)):
                break
        return x


def _bracketed_newton(
    poly: IntPolynomial, derivative: IntPolynomial, lo, hi, rising: bool, x, digits: int
):
    """Refine ``x`` toward the simple root in the bracket (lo, hi).

    ``lo``, ``hi`` and ``x`` are all Python floats or all mpf, and the steps
    run in that type.  Each step narrows the bracket by the sign of poly,
    then takes the Newton step if it stays inside and at most halves the
    previous step, and bisects otherwise.  ``rising`` says poly is negative
    at lo.  Returns once a step falls below 10^(-digits/2) relative, from
    where Newton's quadratic convergence reaches ``digits`` in one or two
    steps.
    """
    tolerance = type(x)(10) ** -(digits // 2)
    previous = hi - lo
    for _ in range(4 * mp.prec):
        value = poly.evaluate(x)
        if value == 0:
            break
        if (value < 0) == rising:
            lo = x
        else:
            hi = x
        slope = derivative.evaluate(x)
        step = value / slope if slope else None
        if step is None or not (lo < x - step < hi and 2 * abs(step) <= previous):
            step = x - (lo + hi) / 2
        previous = abs(step)
        x -= step
        if previous <= tolerance * max(1, abs(x)):
            break
    return x


def _float_start(
    poly: IntPolynomial, derivative: IntPolynomial, lo: Fraction, hi: Fraction, rising: bool
):
    """:func:`_bracketed_newton` run in Python floats inside the exact
    bracket (lo, hi): a start for the mpf phase, or None when the float
    arithmetic overflows or its result is not finite and strictly inside
    the bracket.  Only the number of mpf steps depends on the start."""
    try:
        x = _bracketed_newton(
            poly, derivative, float(lo), float(hi), rising, float((lo + hi) / 2), sys.float_info.dig
        )
    except OverflowError:
        return None
    return x if math.isfinite(x) and lo < x < hi else None


def _numeric_mu_roots(chain: Chain, mu_poly: IntPolynomial, precision: int) -> list[_ClosedRoot]:
    """Certified mu roots of a chain whose polynomial reduces to q = mu_poly.

    The chain's own leading minors isolate its positive eigenvalues exactly
    (:meth:`Chain.positive_intervals`), and each interval (lo, hi] in lambda
    brackets one simple root of q by (lo^2, hi^2); q rises through it when
    it is negative at lo^2, which is the sign of p_N(lo) for lo > 0 and of
    q(0) at lo = 0.  Each root is refined by bracketed Newton and
    :func:`_newton_polish` on q.  Bracketed Newton runs in Python floats
    first, and the mpf phase starts from that float when
    :func:`_float_start` accepts it, else from the midpoint.  Every root
    must meet the residual bound |q(mu)| / |q'(mu)| < 10^(5-p) and lie in
    its bracket widened by that bound; otherwise the refinement is retried
    with more guard digits.  The polished values are Newton fixed points at
    the working precision, so they do not depend on where the refinement
    starts.

    :raises InternalConsistencyError: the chain's count of positive
        eigenvalues is not q's degree.
    :raises NumericFailureError: no guard setting met both certificates.
    """
    if mu_poly.degree == 0:
        return []
    brackets = [
        (lo * lo, hi * hi, (p_lo if lo else mu_poly.coefficients[0]) < 0)
        for lo, hi, p_lo in chain.positive_intervals()
    ]
    derivative = mu_poly.derivative()
    target = mp.mpf(10) ** (-(precision - 5))
    best_residual = None
    for guard in (10, 30, 60, 120):
        digits = precision + guard
        with mp.workdps(digits):
            roots, worst, contained = [], mp.mpf(0), True
            for lo, hi, rising in brackets:
                lo_value, hi_value = _mpf_from_fraction(lo), _mpf_from_fraction(hi)
                seed = _float_start(mu_poly, derivative, lo, hi, rising)
                seed = (lo_value + hi_value) / 2 if seed is None else mp.mpf(seed)
                start = _bracketed_newton(mu_poly, derivative, lo_value, hi_value, rising, seed, digits)
                root = _newton_polish(mu_poly, start, digits)
                slope = derivative.evaluate(root)
                residual = mp.inf if slope == 0 else abs(mu_poly.evaluate(root) / slope)
                contained &= lo_value - residual <= root <= hi_value + residual
                worst = max(worst, residual)
                roots.append(root)
            if not contained:
                continue
            if best_residual is None or worst < best_residual:
                best_residual = worst
            if worst < target:
                return [(root, None) for root in roots]
    detail = "a polished root left its isolating interval" if best_residual is None else (
        f"best residual {mp.nstr(best_residual, 3)}"
    )
    raise NumericFailureError(
        f"root finding did not reach the certified residual bound "
        f"{mp.nstr(target, 3)} ({detail}); insufficient precision is the "
        "usual cause"
    )


# ------------------------------------------------------------ shared assembly


def _finalize_mu_roots(
    mu_poly: IntPolynomial, raw_roots, precision: int
) -> list[_ClosedRoot]:
    """Certify realness and nonnegativity, polish inexact values, and sort."""
    tolerance = mp.mpf(10) ** (-(precision - 5))
    finalized: list[_ClosedRoot] = []
    for value, form in raw_roots:
        if isinstance(form, Fraction):
            if form < 0:
                raise SpectralConsistencyError(
                    f"negative squared eigenvalue {form}; the polynomial does "
                    "not come from a Hermitian matrix"
                )
            finalized.append((_mpf_from_fraction(form), form))
            continue
        value = _as_real(value, precision)
        if form is not None:
            value = _newton_polish(mu_poly, value, mp.dps)
        if value < 0:
            if value < -tolerance:
                raise SpectralConsistencyError(
                    f"negative squared eigenvalue {value} beyond tolerance "
                    f"{mp.nstr(tolerance, 3)}; the polynomial does not come "
                    "from a Hermitian matrix"
                )
            value = mp.mpf(0)
        finalized.append((value, form))
    finalized.sort(key=lambda item: item[0])
    return finalized


def _pm_pair(positive, count: int, exactness: Exactness, plus_tree=None):
    """The eigenvalues -positive and +positive; the negative one's form is
    -plus_tree."""
    minus_tree = None if plus_tree is None else _neg(plus_tree)
    return [
        Eigenvalue(-positive, count, exactness, minus_tree),
        Eigenvalue(positive, count, exactness, plus_tree),
    ]


def _poly_eigenvalues(
    p: IntPolynomial, precision: int, chain: Optional[Chain] = None
) -> list[Eigenvalue]:
    """Eigenvalues of one lambda^k * (even polynomial) factor: in closed
    form, or by the certified numeric route when ``chain``, the chain whose
    polynomial p is, is given."""
    lam_power, reduced = strip_lambda_power(p)
    if reduced.degree and not reduced.is_even():
        raise InvalidInputError(
            "after stripping lambda factors the polynomial must be even in "
            "lambda; a chi-scaled countertwisting matrix always satisfies this"
        )
    mu_poly = to_mu_polynomial(reduced)
    working = precision + _EVAL_GUARD
    with mp.workdps(working):
        if chain is None:
            raw = _closed_mu_roots(mu_poly)
        else:
            raw = _numeric_mu_roots(chain, mu_poly, precision)
        mu_roots = _finalize_mu_roots(mu_poly, raw, precision)

        eigenvalues: list[Eigenvalue] = []
        zero_multiplicity = lam_power
        rational_counts: dict[Fraction, int] = {}
        for value, form in mu_roots:
            if value == 0:
                zero_multiplicity += 2
                continue
            if isinstance(form, Fraction):
                rational_counts[form] = rational_counts.get(form, 0) + 1
                continue
            positive = _round_to(mp.sqrt(value), precision)
            if form is None:
                eigenvalues += _pm_pair(positive, 1, Exactness.NUMERIC)
            else:
                eigenvalues += _pm_pair(positive, 1, Exactness.RADICAL, Sqrt(form))
        for mu_value, count in rational_counts.items():
            exact_root = _sqrt_fraction(mu_value)
            if exact_root is not None:
                positive = _round_to(_mpf_from_fraction(exact_root), precision)
                eigenvalues += _pm_pair(positive, count, Exactness.EXACT_RATIONAL)
            else:
                plus_tree = Sqrt(Rational(mu_value))
                positive = _round_to(plus_tree._value({}), precision)
                eigenvalues += _pm_pair(positive, count, Exactness.RADICAL, plus_tree)
        if zero_multiplicity:
            eigenvalues.append(
                Eigenvalue(mp.mpf(0), zero_multiplicity, Exactness.EXACT_RATIONAL)
            )
    eigenvalues.sort(key=lambda e: e.value)
    return eigenvalues


# ------------------------------------------------------------ public surface


def roots_even_poly(
    q: IntPolynomial, precision: int = DEFAULT_PRECISION
) -> list[Eigenvalue]:
    """Closed-form eigenvalue pairs of an even integer polynomial.

    Substitutes mu = lambda^2, solves the mu-polynomial by radicals
    (linear/quadratic/Cardano/Ferrari, so mu-degree <= 4), and maps every
    root back to the pair lambda = +-sqrt(mu) with its expression tree.

    :param q: even polynomial in lambda with integer coefficients.
    :param precision: working precision in decimal digits, 15 to MAX_PRECISION.
    :raises InvalidInputError: odd polynomial, zero polynomial, or mu-degree
        beyond the radical limit.
    :raises SpectralConsistencyError: a mu root is negative or non-real
        beyond tolerance 10^(5-p), impossible for a Hermitian origin.
    """
    _require_precision(precision)
    if not isinstance(q, IntPolynomial):
        raise InvalidInputError("roots_even_poly expects an IntPolynomial")
    if q.is_zero:
        raise InvalidInputError("the zero polynomial has no root set")
    if not q.is_even():
        raise InvalidInputError("polynomial must be even in lambda")
    return _poly_eigenvalues(q, precision)


def spectrum(j, precision: int = DEFAULT_PRECISION) -> SpectrumReport:
    """Full spectrum of the countertwisting matrix (over chi) for spin j.

    Routes through the radical path when every chain factor has mu-degree
    <= 4 and through certified numerics on each chain's own leading minors
    otherwise; hypergeometric-class spins keep their classification but are
    evaluated numerically.  Each distinct chain of
    :attr:`BlockDecomposition.chains` is solved once and its multiplicities
    scaled by the number of chains carrying its polynomial (two for twin
    chains); stripped lambda powers give the rest, never clustering.

    :param j: spin magnitude >= 1/2 (HalfInt, string like "7/2", or number).
    :param precision: decimal digits for the eigenvalues, 15 to MAX_PRECISION.
    """
    jj = _require_spin(j)
    _require_precision(precision)
    # Hypergeometric and numeric-only spins (mu-degree >= 5) go numeric.
    numeric_path = classify_solvability(jj).mu_degree > 4
    eigenvalues = [
        replace(eigen, multiplicity=count * eigen.multiplicity)
        for chain, count in block_decompose(jj).chains
        for eigen in _poly_eigenvalues(
            chain.polynomial, precision, chain if numeric_path else None
        )
    ]
    eigenvalues.sort(key=lambda e: e.value)

    total = sum(e.multiplicity for e in eigenvalues)
    if total != jj.n_states:
        raise InternalConsistencyError(
            f"multiplicities sum to {total}, expected {jj.n_states}"
        )
    if jj.n_states % 2 and not any(e.value == 0 for e in eigenvalues):
        raise InternalConsistencyError(
            "an odd-dimensional spectrum must contain the zero eigenvalue"
        )
    return SpectrumReport(j=jj, eigenvalues=tuple(eigenvalues), precision=precision)
