"""Eigenvalue spectra of the countertwisting matrix, exact where possible.

The characteristic polynomial of the matrix splits into two chain factors,
each a polynomial in mu = lambda^2 after stripping lambda factors
(:mod:`countertwist.charpoly`).  Every positive eigenvalue of a chain comes
from one value route: exact isolation by the Sturm sequence of the chain's
own leading minors (:class:`countertwist.charpoly.Chain`), then exact
integer Newton on its three-term recurrence with precision doubling, each
root certified by the exact signs of the chain polynomial at the ends of
the enclosure the eigenvalue keeps.  For a spin of mu-degree <= 4 the
closed-form roots (linear, quadratic, Cardano, Ferrari), carried as
expression trees, label those values; each tree is checked against the
value it labels and is never a second source of it.

Multiplicities are always structural — the number of chains carrying a
factor (two for the twin chains of a half-integer spin) and stripped lambda
powers — never inferred from numerical clustering.

Reports round-trip through JSON without loss (:func:`spectrum_to_json`).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Union

from mpmath import mp
from mpmath.libmp import dps_to_prec, from_man_exp, round_nearest

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
    "certify_spectrum",
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
            raw = _real_value(self._value({}), precision)
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

    def __str__(self) -> str:
        return self._text({})

    def _text(self, memo: dict) -> str:
        """The spelling; ``memo`` as for :meth:`_value`, so a subtree that
        several trees share is spelled once per memo."""
        hit = memo.get(id(self))
        if hit is None:
            hit = memo[id(self)] = (self, self._spell(memo))
        return hit[1]

    def _spell(self, memo: dict) -> str:  # pragma: no cover - overridden by every node type
        raise NotImplementedError


@dataclass(frozen=True)
class Rational(RadicalExpr):
    """Exact rational leaf."""

    value: Fraction

    def _eval(self, memo: dict):
        return _mpf_from_fraction(self.value)

    def _spell(self, memo: dict) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Add(RadicalExpr):
    left: RadicalExpr
    right: RadicalExpr

    def _eval(self, memo: dict):
        return self.left._value(memo) + self.right._value(memo)

    def _spell(self, memo: dict) -> str:
        return f"({self.left._text(memo)} + {self.right._text(memo)})"


@dataclass(frozen=True)
class Sub(RadicalExpr):
    left: RadicalExpr
    right: RadicalExpr

    def _eval(self, memo: dict):
        return self.left._value(memo) - self.right._value(memo)

    def _spell(self, memo: dict) -> str:
        return f"({self.left._text(memo)} - {self.right._text(memo)})"


@dataclass(frozen=True)
class Mul(RadicalExpr):
    left: RadicalExpr
    right: RadicalExpr

    def _eval(self, memo: dict):
        return self.left._value(memo) * self.right._value(memo)

    def _spell(self, memo: dict) -> str:
        if self.left == Rational(Fraction(-1)):
            return f"-{self.right._text(memo)}"
        return f"({self.left._text(memo)} * {self.right._text(memo)})"


@dataclass(frozen=True)
class Div(RadicalExpr):
    left: RadicalExpr
    right: RadicalExpr

    def _eval(self, memo: dict):
        denominator = self.right._value(memo)
        if denominator == 0:
            raise InternalConsistencyError("division by zero in an expression tree")
        return self.left._value(memo) / denominator

    def _spell(self, memo: dict) -> str:
        return f"({self.left._text(memo)} / {self.right._text(memo)})"


@dataclass(frozen=True)
class Sqrt(RadicalExpr):
    operand: RadicalExpr

    def _eval(self, memo: dict):
        value = self.operand._value(memo)
        if not isinstance(value, mp.mpc) and value < 0:
            value = mp.mpc(value)
        return mp.sqrt(value)

    def _spell(self, memo: dict) -> str:
        return f"sqrt({self.operand._text(memo)})"


@dataclass(frozen=True)
class Cbrt(RadicalExpr):
    operand: RadicalExpr

    def _eval(self, memo: dict):
        value = self.operand._value(memo)
        if isinstance(value, mp.mpc) or value < 0:
            return mp.power(mp.mpc(value), mp.mpf(1) / 3)
        return mp.cbrt(value)

    def _spell(self, memo: dict) -> str:
        return f"cbrt({self.operand._text(memo)})"


def _real_value(raw, precision: int):
    """A tree's value as a real number, dropping the imaginary residue of
    principal-branch arithmetic; InternalConsistencyError if that residue
    exceeds max(1, |raw|)·10^-(precision + 5)."""
    if not isinstance(raw, mp.mpc):
        return raw
    scale = max(mp.mpf(1), abs(raw))
    if abs(raw.imag) > scale * mp.mpf(10) ** (-(precision + 5)):
        raise InternalConsistencyError(f"expression evaluates to the non-real value {raw}")
    return raw.real


def _reproduces(value, tree_value, precision: int) -> bool:
    """A tree's value lies within |value|·10^(1-precision) of ``value``."""
    return abs(value - tree_value) <= abs(value) * mp.mpf(10) ** (1 - precision)


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
    :param exactness: what is known of the value's exact form.
    :param radical_form: closed-form expression tree, present exactly when
        ``exactness`` is RADICAL: a checked label, not the value's source;
        it reproduces ``value`` to 10^(1-precision) relative.
    :param enclosure: (lo, hi), dyadic, for every nonzero value that
        :func:`spectrum` computes: exactly one eigenvalue of its chain lies
        in (lo, hi), by the exact signs of the chain polynomial at both
        ends, and both ends round to ``value``.  Not serialized and not
        compared.
    """

    value: object
    multiplicity: int
    exactness: Exactness
    radical_form: Optional[RadicalExpr] = None
    enclosure: Optional[tuple[Fraction, Fraction]] = field(default=None, compare=False)

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
    kind: tuple(member.name for member in fields(node_type))
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
    spelled: dict = {}  # a subtree that several trees share is spelled once
    for ev in report.eigenvalues:
        entry: dict = {
            "value": mp.nstr(ev.value, digits),
            "multiplicity": ev.multiplicity,
            "exactness": ev.exactness.name,
        }
        if ev.radical_form is not None:
            entry["radical_form"] = ev.radical_form
            entry["radical_text"] = ev.radical_form._text(spelled)
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
            tree_value = form.evaluate_real(precision)
        except InternalConsistencyError as exc:
            raise ValueError(str(exc)) from exc
        if not _reproduces(value, tree_value, precision):
            raise ValueError(f"eigenvalue {entry['value']!r} is not its tree's value")
    return Eigenvalue(value, multiplicity, Exactness[entry["exactness"]], form)


def spectrum_from_json(text: str) -> SpectrumReport:
    """Inverse of :func:`spectrum_to_json` (ignores tool/version metadata).

    :raises InvalidInputError: the text is not a document that
        :func:`spectrum_to_json` writes: a field of the wrong JSON type or
        out of range, values not in ascending order, a RADICAL value or
        radical_text its tree does not reproduce, multiplicities that do not
        sum to 2j + 1, a stated field that differs from the derived one, or,
        checked last, values that :func:`certify_spectrum` refuses (its
        SpectralConsistencyError re-raised as this error).  That check's
        exact counts are most of the parse of a large spin.
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
        try:  # values that are not the spin's eigenvalues are malformed input
            certify_spectrum(report)
        except SpectralConsistencyError as exc:
            raise ValueError(str(exc)) from exc
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
            f"mu-degree {degree} exceeds the closed-form limit of 4"
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


# The numeric route's constants.  The exact refinement's lowest rung has at
# most _FLOOR_BITS bits, and it and the float seed stop at a relative step
# of 2^-_SEED_BITS (about 1e-9, where the float sign of p_N turns to noise
# at 2j = 60).  A certified enclosure is (m -+ _ENCLOSURE)/2^s.
_FLOOR_BITS = 64
_SEED_BITS = 30
_ENCLOSURE = 4
_RETRIES = 3


def _float_newton_terms(squares: tuple[int, ...], x: float) -> tuple[float, float]:
    """p_N(x) and p_N'(x) in floats by the chain's recurrence, both scaled
    by one positive factor whenever p_k passes 1e150, so that they keep
    their signs and their ratio at any chain length."""
    p_prev, p_cur, d_prev, d_cur = 1.0, x, 0.0, 1.0
    for w in squares:
        p_prev, p_cur, d_prev, d_cur = (
            p_cur, x * p_cur - w * p_prev, d_cur, p_cur + x * d_cur - w * d_prev
        )
        if abs(p_cur) > 1e150:
            p_prev, p_cur, d_prev, d_cur = (
                p_prev * 1e-150, p_cur * 1e-150, d_prev * 1e-150, d_cur * 1e-150
            )
    return p_cur, d_cur


def _bracketed_newton(terms, quotient, x, lo, hi, rising: bool):
    """Newton toward the simple root in (lo, hi) from ``x``, in floats or in
    integers: ``terms(x)`` gives the value and slope, ``quotient`` divides
    (rounding, for integers).

    Each step narrows the bracket by the sign of the value (``rising``: it
    is negative below the root), then takes the Newton step if it stays
    inside and at most halves the previous step, and bisects otherwise.
    Returns after a Newton step of at most 2^-_SEED_BITS relative.
    """
    previous = hi - lo
    for _ in range(4 * _FLOOR_BITS):
        value, slope = terms(x)
        if value == 0:
            break
        if (value < 0) == rising:
            lo = x
        else:
            hi = x
        step = quotient(value, slope) if slope else None
        if step is not None and abs(step) * 2**_SEED_BITS <= x:
            return x - step
        if step is None or not (lo < x - step < hi and 2 * abs(step) <= previous):
            step = x - quotient(lo + hi, 2)
        previous = abs(step)
        x -= step
    return x


def _float_seed(squares: tuple[int, ...], lo: float, hi: float, rising: bool) -> float:
    """A float start for the exact refinement of the root in (lo, hi):
    :func:`_bracketed_newton` from the midpoint on
    :func:`_float_newton_terms`, then one plain Newton step, since near the
    root the float sign is noise.  The caller checks the result; only the
    work of the exact phase depends on it."""
    x = _bracketed_newton(
        lambda y: _float_newton_terms(squares, y), operator.truediv, (lo + hi) / 2, lo, hi, rising
    )
    value, slope = _float_newton_terms(squares, x)
    return x - value / slope if slope else x


def _ladder(precision: int) -> list[int]:
    """The bits of each Newton step, ascending: planned back from
    s_final = ceil((p + 10) * log2(10)) + 8 by s -> s // 2 + 4 down to at
    most _FLOOR_BITS, since each step about doubles the correct bits
    (Brent and Zimmermann, *Modern Computer Arithmetic*, 2010, section 4.2)."""
    s = math.ceil((precision + 10) * math.log2(10)) + 8
    rungs = [s]
    while s > _FLOOR_BITS:
        s = s // 2 + 4
        rungs.append(s)
    return rungs[::-1]


def _newton_quotient(value: int, slope: int) -> int:
    """round(value / slope) for a nonzero integer slope."""
    if slope < 0:
        value, slope = -value, -slope
    return (2 * value + slope) // (2 * slope)


def _newton_step(chain: Chain, m: int, s: int) -> int:
    """One plain exact Newton step from m/2^s, at s bits."""
    value, slope = chain.dyadic_newton(m, s)
    return m - _newton_quotient(value, slope) if slope else m


def _refine_root(
    chain: Chain, lo: Fraction, hi: Fraction, rising: bool, precision: int
) -> tuple[object, tuple[Fraction, Fraction]]:
    """The chain's eigenvalue in (lo, hi), rounded to ``precision`` digits,
    with its certified enclosure.

    Exact Newton on x = m/2^s (:meth:`Chain.dyadic_newton`).  At the lowest
    rung of :func:`_ladder` the steps are bracketed, starting from
    :func:`_float_seed` when it is finite and strictly inside the bracket,
    else (a square or an end beyond float range included) from the
    midpoint; every higher rung takes one plain step.  The certificate: P_N
    has opposite exact signs at (m -+ 4)/2^s, both strictly inside
    (lo, hi), so exactly one eigenvalue lies between them; and both ends
    round to the same value at the precision, which is then the
    eigenvalue's correct rounding.  A failed sign or bracket check takes
    one more step, an undecided rounding one more at twice the bits.

    :raises NumericFailureError: the certificate still fails after
        _RETRIES more steps.
    """
    rungs = _ladder(precision)
    s = rungs[0]
    lo_m, hi_m = math.floor(lo * 2**s), math.ceil(hi * 2**s)
    try:
        seed = _float_seed(chain.squares, float(lo), float(hi), rising)
    except OverflowError:  # a square or an end beyond float range
        seed = math.nan
    m = round(math.ldexp(seed, s)) if math.isfinite(seed) else None
    if m is None or not lo_m < m < hi_m:
        m = (lo_m + hi_m) // 2
    m = _bracketed_newton(
        lambda x: chain.dyadic_newton(x, s), _newton_quotient, m, lo_m, hi_m, rising
    )
    for rung in rungs[1:]:
        m, s = _newton_step(chain, m << (rung - s), rung), rung
    prec = dps_to_prec(precision)
    for _ in range(_RETRIES + 1):
        low, high = m - _ENCLOSURE, m + _ENCLOSURE
        inside = lo * 2**s < low and high < hi * 2**s
        if inside and (chain.dyadic_value(low, s) < 0) != (chain.dyadic_value(high, s) < 0):
            value = from_man_exp(low, -s, prec, round_nearest)
            if value == from_man_exp(high, -s, prec, round_nearest):
                return mp.make_mpf(value), (Fraction(low, 1 << s), Fraction(high, 1 << s))
            m, s = m << s, 2 * s
        m = _newton_step(chain, m, s)
    raise NumericFailureError(
        f"no certified enclosure of the eigenvalue in ({lo}, {hi}] after "
        f"{_RETRIES} more Newton steps"
    )


def _numeric_roots(chain: Chain, precision: int) -> list[tuple[object, tuple[Fraction, Fraction]]]:
    """Each positive eigenvalue of the chain, ascending, rounded to
    ``precision`` digits, with its certified enclosure.

    The chain's own leading minors isolate them exactly
    (:meth:`Chain.positive_intervals`), and :func:`_refine_root` refines and
    certifies each on the chain's three-term recurrence.  p_N is positive
    above the largest eigenvalue and changes sign at each, so it rises
    through the i-th of n intervals (0-based) when n - 1 - i is even.

    :raises InternalConsistencyError: the chain's count of positive
        eigenvalues is not its mu-degree.
    :raises NumericFailureError: a root's certificate failed.
    """
    intervals = chain.positive_intervals()
    last = len(intervals) - 1
    return [
        _refine_root(chain, lo, hi, (last - i) % 2 == 0, precision)
        for i, (lo, hi) in enumerate(intervals)
    ]


# ------------------------------------------------------------ shared assembly


def _closed_labels(chain: Chain, roots, precision: int) -> list[tuple[Exactness, Optional[RadicalExpr]]]:
    """The exactness and tree of each of the chain's positive eigenvalues
    ``roots`` (ascending, from :func:`_numeric_roots`).

    The values :func:`_closed_mu_roots` computed for its forms are sorted
    and paired with the roots: the counts must be equal, each value real
    (:func:`_real_value`) and its square root reproduce its root
    (:func:`_reproduces`), else InternalConsistencyError.  A rational mu
    with a rational square root is EXACT_RATIONAL, any other form RADICAL
    with the tree sqrt(form).
    """
    mu_poly = to_mu_polynomial(strip_lambda_power(chain.polynomial)[1])
    labels = []
    with mp.workdps(precision + _EVAL_GUARD):
        closed = _closed_mu_roots(mu_poly)
        if len(closed) != len(roots):
            raise InternalConsistencyError(
                f"{len(closed)} closed-form mu-roots for {len(roots)} positive eigenvalues"
            )
        closed = sorted(
            ((_real_value(value, precision), form) for value, form in closed),
            key=lambda item: item[0],
        )
        for (root, _), (mu, form) in zip(roots, closed):
            if not _reproduces(root, mp.sqrt(mu), precision):
                raise InternalConsistencyError(
                    f"the closed form {form} does not reproduce the eigenvalue "
                    f"{mp.nstr(root, precision)} squared"
                )
            if isinstance(form, Fraction):
                if _sqrt_fraction(form) is not None:
                    labels.append((Exactness.EXACT_RATIONAL, None))
                    continue
                form = Rational(form)
            labels.append((Exactness.RADICAL, Sqrt(form)))
    return labels


def _chain_eigenvalues(chain: Chain, precision: int, closed_forms: bool = False) -> list[Eigenvalue]:
    """A chain's eigenvalues, ascending: each simple positive root of
    :func:`_numeric_roots` and its negative with their enclosures, NUMERIC
    or, with ``closed_forms``, labelled by :func:`_closed_labels`; and zero
    with the multiplicity of lambda in the chain polynomial."""
    roots = _numeric_roots(chain, precision)
    if closed_forms:
        labels = _closed_labels(chain, roots, precision)
    else:
        labels = [(Exactness.NUMERIC, None)] * len(roots)
    eigenvalues = []
    with mp.workdps(precision):  # where negation is exact
        for (positive, (lo, hi)), (exactness, tree) in zip(roots, labels):
            minus_tree = None if tree is None else _neg(tree)
            eigenvalues.append(Eigenvalue(-positive, 1, exactness, minus_tree, (-hi, -lo)))
            eigenvalues.append(Eigenvalue(positive, 1, exactness, tree, (lo, hi)))
    lam_power = strip_lambda_power(chain.polynomial)[0]
    if lam_power:
        eigenvalues.append(Eigenvalue(mp.mpf(0), lam_power, Exactness.EXACT_RATIONAL))
    eigenvalues.sort(key=lambda e: e.value)
    return eigenvalues


# ------------------------------------------------------------ public surface


def spectrum(j, precision: int = DEFAULT_PRECISION) -> SpectrumReport:
    """Full spectrum of the countertwisting matrix (over chi) for spin j.

    Every nonzero value comes from :func:`_numeric_roots`, correctly
    rounded with its certified enclosure.  For a spin of mu-degree <= 4
    the closed forms label the values (:func:`_closed_labels`); every
    other spin's, hypergeometric class included, are NUMERIC.  Each
    distinct chain of :attr:`BlockDecomposition.chains` is solved once and
    its multiplicities scaled by the number of chains carrying its
    polynomial (two for twin chains); stripped lambda powers give the
    rest, never clustering.

    :param j: spin magnitude >= 1/2 (HalfInt, string like "7/2", or number).
    :param precision: decimal digits for the eigenvalues, 15 to MAX_PRECISION.
    :raises InternalConsistencyError: a closed form does not reproduce the
        value it labels, or the multiplicities do not add up.
    :raises NumericFailureError: a root's certificate failed.
    """
    jj = _require_spin(j)
    _require_precision(precision)
    # Per spin, not per chain: beyond the radical range a chain of low
    # mu-degree stays NUMERIC, as the spin's class says.
    closed_forms = classify_solvability(jj).mu_degree <= 4
    eigenvalues = [
        replace(eigen, multiplicity=count * eigen.multiplicity)
        for chain, count in block_decompose(jj).chains
        for eigen in _chain_eigenvalues(chain, precision, closed_forms)
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


def certify_spectrum(report: SpectrumReport) -> None:
    """Check every value and multiplicity of a report, say one read back
    by :func:`spectrum_from_json`, against its spin's chains, exactly.

    A nonzero value stands for the eigenvalues that round to it at the
    report's precision: those in its rounding interval, half a unit in the
    last place to each side (a quarter below a power of two).  The Sturm
    counts of each chain at the interval's dyadic ends
    (:meth:`Chain.dyadic_count`), each chain taken as often as
    :attr:`BlockDecomposition.chains` counts it, must sum to the value's
    multiplicity, equal values' multiplicities added; a value outside
    every chain's :attr:`Chain.exponents` counts none, with no arithmetic,
    so 1e-1000000000 is refused at once.  Zero's multiplicity must be the
    number of lambda factors of the chain polynomials.  (2j = 240 at 34
    digits: about 0.07 s on a 2-core Xeon.)

    :raises SpectralConsistencyError: a value or multiplicity that the
        counts do not certify.
    """
    for value, multiplicity, counted in _value_counts(report):
        if counted != multiplicity:
            raise SpectralConsistencyError(
                f"the value {mp.nstr(mp.make_mpf(value), report.precision)} "
                f"has multiplicity {multiplicity}, but the chains have "
                f"{counted} eigenvalues that round to it"
            )


def _value_counts(report: SpectrumReport):
    """(value, stated multiplicity, counted eigenvalues) per distinct value
    of a report, in its order, for :func:`certify_spectrum`.

    Each chain's spectrum is symmetric, so the interval of a value −v holds
    as many eigenvalues as the mirror interval of v: the counts are taken
    once per magnitude.  The Sturm counts give the eigenvalues in (low,
    high]; no end is an eigenvalue, so the mirror interval's [−high, −low)
    holds as many as (−high, −low].  An end is a midpoint between two
    values of prec bits, so a dyadic rational with more than prec
    significant bits; an irrational eigenvalue is no dyadic rational, and
    a rational one, a root of a monic integer polynomial, is an integer
    below every chain's bound, of fewer than prec bits.
    """
    chains = block_decompose(report.j).chains
    prec = dps_to_prec(report.precision)
    lowest = min(chain.exponents[0] for chain, _ in chains)
    highest = max(chain.exponents[1] for chain, _ in chains)
    stated: dict = {}
    for eigen in report.eigenvalues:
        stated[eigen.value._mpf_] = stated.get(eigen.value._mpf_, 0) + eigen.multiplicity
    by_magnitude: dict = {}
    for value, multiplicity in stated.items():
        _, man, exp, bits = value
        if not man:
            counted = sum(
                count * strip_lambda_power(chain.polynomial)[0] for chain, count in chains
            )
        elif exp + bits + 1 <= lowest or exp + bits - 2 >= highest:
            # In magnitude the interval lies in (2^(exp+bits-2), 2^(exp+bits+1)).
            counted = 0
        elif (man, exp) in by_magnitude:
            counted = by_magnitude[man, exp]
        else:
            # The ends are low/2^s and high/2^s; 2^quarter is a quarter of
            # a unit in the last place.
            quarter = exp + bits - prec - 2
            s = max(0, -exp, -quarter)
            centre, unit = man << (exp + s), 1 << (quarter + s)
            low, high = centre - (unit if man == 1 else 2 * unit), centre + 2 * unit
            counted = by_magnitude[man, exp] = sum(
                count * (chain.dyadic_count(low, s) - chain.dyadic_count(high, s))
                for chain, count in chains
            )
        yield value, multiplicity, counted
