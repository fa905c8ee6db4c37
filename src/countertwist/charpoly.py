"""Exact big-integer characteristic polynomials via chiral block decomposition.

The countertwisting Hamiltonian only couples basis states two m-steps apart,
so (divided by the coupling chi) it splits into two Hermitian tridiagonal
chains with zero diagonal and integer squared couplings. The characteristic
polynomial of each chain follows from a three-term recurrence over the
integers, and the full polynomial is the product of the two block
polynomials. Degeneracy is decided by the exact discriminant; analytic
solvability is classified by the block degrees in mu = lambda^2.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import from_int

from . import _kernels
from .errors import (
    InternalConsistencyError,
    InvalidInputError,
    NotAvailableError,
)
from .spin_algebra import HalfInt, _require_spin, two_step_coupling_squared


_DIGIT_CHUNK = 500  # below 640, the smallest int-to-str limit Python accepts


def decimal_text(value: int) -> str:
    """Decimal text of an integer of any length, split on powers of ten.

    str() alone refuses more digits than the int-to-str limit (4300 by
    default), which discriminants pass from j = 22 on.
    """
    if value < 0:
        return "-" + decimal_text(-value)
    if value < 10**_DIGIT_CHUNK:
        return str(value)
    half = value.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(value, 10**half)
    return decimal_text(high) + decimal_text(low).zfill(half)


@dataclass(frozen=True)
class IntPolynomial:
    """Dense polynomial with arbitrary-precision integer coefficients.

    :param coefficients: ascending-degree tuple; the last entry is nonzero
        except for the zero polynomial, which is stored as (0,).
    """

    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coefficients:
            raise InvalidInputError("a polynomial needs at least one coefficient")
        if any(not isinstance(c, int) for c in self.coefficients):
            raise InvalidInputError("coefficients must be integers")
        if len(self.coefficients) > 1 and self.coefficients[-1] == 0:
            raise InvalidInputError("leading coefficient must be nonzero (normalize first)")

    @classmethod
    def from_coefficients(cls, coefficients) -> "IntPolynomial":
        coeffs = [int(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (0,)

    @property
    def leading_coefficient(self) -> int:
        return self.coefficients[-1]

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for k, cb in enumerate(b):
                    out[i + k] += ca * cb
        return IntPolynomial.from_coefficients(out)

    def scaled(self, factor: int) -> "IntPolynomial":
        return IntPolynomial.from_coefficients(c * factor for c in self.coefficients)

    def shifted(self, lam_power: int) -> "IntPolynomial":
        """Multiply by lambda**lam_power."""
        if self.is_zero:
            return self
        return IntPolynomial((0,) * lam_power + self.coefficients)

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial((0,))
        return IntPolynomial.from_coefficients(
            k * c for k, c in enumerate(self.coefficients) if k > 0
        )

    @functools.cached_property
    def _mpf_coefficients(self) -> list:
        """The coefficients as exact raw mpf values, converted once."""
        return [from_int(c) for c in self.coefficients]

    def evaluate(self, x):
        """Horner evaluation; exact for int/Fraction x, rounded for mpf/mpc.

        At an mpf the libmp kernel runs the same Horner steps on raw values,
        bit for bit.
        """
        if isinstance(x, mp.mpf):
            prec, rnd = mp._prec_rounding
            return mp.make_mpf(
                _kernels.int_horner(self._mpf_coefficients, x._mpf_, prec, rnd)
            )
        acc = 0 * x if not isinstance(x, (int, Fraction)) else 0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def is_even(self) -> bool:
        return all(c == 0 for k, c in enumerate(self.coefficients) if k % 2 == 1)

    def is_odd(self) -> bool:
        return all(c == 0 for k, c in enumerate(self.coefficients) if k % 2 == 0)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficients[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = decimal_text(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                body = var if mag == 1 else f"{decimal_text(mag)}*{var}"
            sign = "-" if c < 0 else "+"
            parts.append((sign, body))
        sign0, body0 = parts[0]
        text = f"-{body0}" if sign0 == "-" else body0
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def strip_lambda_power(p: IntPolynomial) -> tuple[int, IntPolynomial]:
    """Split p = lambda^k * q with q(0) != 0; returns (k, q)."""
    if p.is_zero:
        raise InvalidInputError("cannot strip factors from the zero polynomial")
    k = next(i for i, c in enumerate(p.coefficients) if c != 0)
    return k, IntPolynomial(p.coefficients[k:])


def to_mu_polynomial(p: IntPolynomial) -> IntPolynomial:
    """Rewrite an even polynomial p(lambda) as q(mu) with mu = lambda^2."""
    if not p.is_even():
        raise InvalidInputError("polynomial is not even in its variable")
    return IntPolynomial(p.coefficients[::2])


@dataclass(frozen=True)
class Chain:
    """One chain: N sites with their m labels, and the zero-diagonal
    tridiagonal matrix T on them with integer squared couplings.  Every
    fact of a chain (its polynomial, the derivative its Newton steps use,
    its eigenvalue counts) is read here.

    The leading principal minors p_k(x) = det(x*I - T_k), k = 0..N, are a
    Sturm sequence (Givens' bisection; Wilkinson, *The Algebraic Eigenvalue
    Problem*, 1965, ch. 5): the sign changes along p_0(x), ..., p_N(x),
    zeros skipped, count the eigenvalues above x.  The couplings are
    nonzero, so the eigenvalues are real, simple and in +- pairs.

    :param labels: the sites' m labels, descending.
    :param squares: squared couplings w_1..w_(N-1) in units of chi^2, w_k
        between sites k and k + 1.
    :raises InternalConsistencyError: ``squares`` does not hold one square
        per pair of neighbouring sites.
    """

    labels: tuple[HalfInt, ...]
    squares: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.squares) != max(len(self.labels) - 1, 0):
            raise InternalConsistencyError(
                f"a chain of {len(self.labels)} sites has {len(self.squares)} squares"
            )

    @functools.cached_property
    def polynomial(self) -> IntPolynomial:
        """p_N = det(lambda*I - T), monic of degree N, by the recurrence
        p_0 = 1, p_1 = lambda, p_k = lambda*p_(k-1) - w_(k-1)*p_(k-2) over
        the integers."""
        if not self.labels:
            return IntPolynomial((1,))
        prev, cur = [1], [0, 1]
        for w in self.squares:
            nxt = [0] + cur
            for i, c in enumerate(prev):
                nxt[i] -= w * c
            prev, cur = cur, nxt
        return IntPolynomial(tuple(cur))

    @functools.cached_property
    def derivative(self) -> IntPolynomial:
        """p_N', for Newton steps: formed once per chain, with its exact
        coefficient conversion, rather than once per step."""
        return self.polynomial.derivative()

    def sturm_count(self, x: Fraction) -> tuple[int, int]:
        """(number of eigenvalues above x, P_N) at x = num/den.

        P_k = den^k * p_k(x) by the recurrence on integers P_0 = 1,
        P_1 = num, P_k = num*P_(k-1) - w_(k-1)*den^2*P_(k-2), so P_k has
        p_k(x)'s sign and no rounding enters the count.
        """
        num, den_squared = x.numerator, x.denominator**2
        minors = [1, num]
        for w in self.squares:
            minors.append(num * minors[-1] - w * den_squared * minors[-2])
        signs = [p > 0 for p in minors if p]
        return sum(a != b for a, b in zip(signs, signs[1:])), minors[-1]

    def positive_intervals(self) -> list[tuple[Fraction, Fraction, int]]:
        """(lo, hi, P_N at lo), ascending: each (lo, hi] holds exactly one
        positive eigenvalue, and neither end is an eigenvalue unless lo = 0.

        Bisection of (0, B] with B = 2*(isqrt(max w) + 1), beyond
        Gershgorin's bound 2*sqrt(max w), so no eigenvalue reaches B.  A
        midpoint where p_N vanishes moves toward lo.

        :raises InternalConsistencyError: the number of positive eigenvalues
            is not the mu-degree of ``polynomial``.
        """
        bound = Fraction(2 * (math.isqrt(max(self.squares, default=0)) + 1))
        (v_lo, p_lo), (v_hi, _) = self.sturm_count(Fraction(0)), self.sturm_count(bound)
        mu_degree = strip_lambda_power(self.polynomial)[1].degree // 2
        if v_lo - v_hi != mu_degree:
            raise InternalConsistencyError(
                f"the chain has {v_lo - v_hi} positive eigenvalues, but its "
                f"polynomial's mu-degree is {mu_degree}"
            )
        pending = [(Fraction(0), v_lo, p_lo, bound, v_hi)]
        intervals = []
        while pending:
            lo, v_lo, p_lo, hi, v_hi = pending.pop()
            if v_lo - v_hi == 1:
                intervals.append((lo, hi, p_lo))
                continue
            mid = (lo + hi) / 2
            v_mid, p_mid = self.sturm_count(mid)
            while p_mid == 0:
                mid = (lo + mid) / 2
                v_mid, p_mid = self.sturm_count(mid)
            for part in ((lo, v_lo, p_lo, mid, v_mid), (mid, v_mid, p_mid, hi, v_hi)):
                if part[1] != part[4]:
                    pending.append(part)
        intervals.sort()
        return intervals


@dataclass(frozen=True)
class BlockDecomposition:
    """The two zero-diagonal tridiagonal chains hiding inside the Hamiltonian.

    :param j: spin magnitude.
    :param a: the chain whose labels descend from m = +j in steps of two
        (ceil((2j+1)/2) sites).
    :param b: the chain on the remaining labels.
    """

    j: HalfInt
    a: Chain
    b: Chain

    @property
    def chains(self) -> tuple[tuple[Chain, int], ...]:
        """The distinct chains, chain a's first, each with the number of
        chains carrying its polynomial: ((a, 2),) when b is a's twin (equal
        sizes, not implied by the squares at j = 0, where both are empty,
        and reversed squares), else ((a, 1), (b, 1)).  Twins are decided
        here and nowhere else.

        :raises InternalConsistencyError: a half-integer spin's chains are
            not twins.
        """
        a, b = self.a, self.b
        if len(a.labels) == len(b.labels) and b.squares == a.squares[::-1]:
            return ((a, 2),)
        if not self.j.is_integer:
            raise InternalConsistencyError(
                f"the chains of the half-integer spin {self.j} must be twins"
            )
        return ((a, 1), (b, 1))


@functools.lru_cache(maxsize=32)
def block_decompose(j: HalfInt) -> BlockDecomposition:
    """Split spin j's Hamiltonian (over chi) into its two m-chains.

    Chain a starts at m = +j and descends in steps of two; chain b holds the
    remaining labels. The squared coupling between consecutive chain members
    m+2 and m is (j-m)(j-m-1)(j+m+1)(j+m+2)/4, an integer: each pair of
    factors is a product of consecutive integers, so even (checked here).

    Memoised: every layer asks for the same spin more than once.
    """
    j = _require_spin(j)
    tj = j.twice_value

    def chain(top: int) -> Chain:
        labels = tuple(HalfInt(tm) for tm in range(top, -tj - 1, -4))
        pairs = [divmod(two_step_coupling_squared(j, lower), 4) for lower in labels[1:]]
        if any(remainder for _, remainder in pairs):
            raise InternalConsistencyError(f"a squared coupling of j={j} is not divisible by 4")
        return Chain(labels, tuple(w for w, _ in pairs))

    return BlockDecomposition(j=j, a=chain(tj), b=chain(tj - 2))


def block_polynomials(j: HalfInt) -> tuple[IntPolynomial, IntPolynomial]:
    """Monic characteristic polynomials det(lambda*I - T) of chains a and b."""
    decomposition = block_decompose(j)
    return decomposition.a.polynomial, decomposition.b.polynomial


def char_poly_exact(j: HalfInt) -> IntPolynomial:
    """Exact det(H/chi - lambda*I) with integer coefficients.

    Product of the two chain polynomials with the (-1)^(2j+1) leading-sign
    convention.
    """
    j = _require_spin(j)
    pa, pb = block_polynomials(j)
    sign = -1 if (j.twice_value + 1) % 2 else 1
    return (pa * pb).scaled(sign)


# ------------------------------------------------------------------ resultants


def _resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Res(p, q) by Euclid's algorithm over the rationals.

    Each step uses Res(a, b) = (-1)^(deg a * deg b) * lc(b)^(deg a - deg r)
    * Res(b, r) with r = a mod b, until b is a constant c, where
    Res(a, c) = c^(deg a).  Equal to the determinant of the Sylvester
    matrix, at a fraction of the cost.
    """
    a = [Fraction(c) for c in p.coefficients]
    b = [Fraction(c) for c in q.coefficients]
    result = Fraction(1)
    while len(b) > 1:
        r = a[:]  # becomes a mod b
        for shift in range(len(a) - len(b), -1, -1):
            factor = r[shift + len(b) - 1] / b[-1]
            for i, c in enumerate(b):
                r[shift + i] -= factor * c
        del r[len(b) - 1:]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            return 0
        if (len(a) - 1) * (len(b) - 1) % 2:
            result = -result
        result *= b[-1] ** (len(a) - len(r))
        a, b = b, r
    result *= b[0] ** (len(a) - 1)
    if result.denominator != 1:
        raise InternalConsistencyError(
            f"resultant of integer polynomials came out as the non-integer {result}"
        )
    return result.numerator


def discriminant(p: IntPolynomial) -> int:
    """Exact discriminant: (-1)^(n(n-1)/2) * Res(p, p') / lc(p).

    Zero exactly when p has a repeated root.
    """
    if p.is_zero:
        raise InvalidInputError("the zero polynomial has no discriminant")
    n = p.degree
    if n < 1:
        raise InvalidInputError("discriminant requires degree >= 1")
    if n == 1:
        return 1
    res = _resultant(p, p.derivative())
    lc = p.leading_coefficient
    quotient, remainder = divmod(res, lc)
    if remainder != 0:
        raise InternalConsistencyError("resultant not divisible by leading coefficient")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * quotient


@dataclass(frozen=True)
class DegeneracyReport:
    """Exact degeneracy data for one spin value.

    :param j: spin magnitude.
    :param discriminant_full: discriminant of the full characteristic polynomial.
    :param discriminant_block: product of the per-block discriminants; nonzero
        means each chain has simple eigenvalues even when the full spectrum is
        degenerate across chains.
    :param degenerate: True iff discriminant_full == 0.
    """

    j: HalfInt
    discriminant_full: int
    discriminant_block: int
    degenerate: bool


def degeneracy_report(j: HalfInt) -> DegeneracyReport:
    """Degeneracy decided by the exact full discriminant (never by clustering).

    disc(pa*pb) = disc(pa) * disc(pb) * Res(pa, pb)^2 for the monic chain
    polynomials, and the overall sign of char_poly_exact leaves the
    discriminant unchanged, so the full discriminant needs no resultant of
    degree 2j+1.  Twin chains (half-integer j) share one polynomial: the
    block discriminant is disc(pa)^2 and the full one 0, from one
    discriminant.  At j = 0 the second chain is empty: its polynomial is the
    constant 1 and its discriminant the empty product 1.
    """
    j = _require_spin(j)
    chains = block_decompose(j).chains
    block = math.prod(
        discriminant(chain.polynomial) ** count
        for chain, count in chains
        if chain.polynomial.degree
    )
    if len(chains) == 1:
        full = 0
    else:
        (a, _), (b, _) = chains
        full = block * _resultant(a.polynomial, b.polynomial) ** 2
    return DegeneracyReport(
        j=j, discriminant_full=full, discriminant_block=block, degenerate=full == 0
    )


class SolvabilityCategory(enum.Enum):
    TRIVIAL_ZERO = "TRIVIAL_ZERO"
    RADICALS = "RADICALS"
    HYPERGEOMETRIC = "HYPERGEOMETRIC"
    NUMERIC_ONLY = "NUMERIC_ONLY"


@dataclass(frozen=True)
class SolvabilityClass:
    """Analytic-solvability class determined by the block mu-degrees.

    :param category: TRIVIAL_ZERO for a pure lambda power; RADICALS for
        mu-degree 1..4; HYPERGEOMETRIC for 5; NUMERIC_ONLY for >= 6.
    :param mu_degree: maximal degree in mu = lambda^2 over the blocks after
        stripping lambda factors.
    """

    category: SolvabilityCategory
    mu_degree: int


def classify_solvability(j: HalfInt) -> SolvabilityClass:
    """Classify how the spectrum of spin j can be obtained analytically."""
    j = _require_spin(j)
    if j.twice_value < 1:
        raise InvalidInputError("solvability classification needs j >= 1/2")
    return _solvability(j)


@functools.lru_cache(maxsize=32)
def _solvability(j: HalfInt) -> SolvabilityClass:
    """Memoised, as block_decompose is: a ``spectrum`` command asks for its
    spin's class once to choose its route and twice more in its report."""
    mu_degree = 0
    for poly in block_polynomials(j):
        _, reduced = strip_lambda_power(poly)
        mu_degree = max(mu_degree, to_mu_polynomial(reduced).degree)
    if mu_degree == 0:
        category = SolvabilityCategory.TRIVIAL_ZERO
    elif mu_degree <= 4:
        category = SolvabilityCategory.RADICALS
    elif mu_degree == 5:
        category = SolvabilityCategory.HYPERGEOMETRIC
    else:
        category = SolvabilityCategory.NUMERIC_ONLY
    return SolvabilityClass(category=category, mu_degree=mu_degree)


# ------------------------------------------------------------- reference table


@dataclass(frozen=True)
class Table1Row:
    """One row of the bundled reference table of published factored forms.

    :param j: spin magnitude.
    :param literal: expansion of the factors exactly as printed, or None when
        the printed row is ill-formed and cannot be expanded.
    :param corrected: corrected candidate polynomial for questionable rows
        (None for clean rows).
    :param questionable: True for rows whose printed form is internally
        inconsistent (impossible degree/signs or a missing operator).
    :param degenerate: the row's published yes/no degeneracy marker.
    :param note: short description of any known defect.
    """

    j: HalfInt
    literal: IntPolynomial | None
    corrected: IntPolynomial | None
    questionable: bool
    degenerate: bool
    note: str = ""


def _expand_row(sign: int, lam_power: int, factors) -> IntPolynomial:
    poly = IntPolynomial((1,)).shifted(lam_power) if lam_power else IntPolynomial((1,))
    for coeffs, power in factors:
        factor = IntPolynomial.from_coefficients(coeffs)
        for _ in range(power):
            poly = poly * factor
    return poly.scaled(sign)


# Each row: (sign, lambda-power, [(ascending coefficients, power), ...],
#            degenerate-marker). Rows keyed by 2j.
_TABLE_ROWS: dict[int, tuple[int, int, list, bool]] = {
    1: (1, 2, [], True),
    2: (1, 1, [([1, 0, -1], 1)], False),
    3: (1, 0, [([-3, 0, 1], 2)], True),
    4: (-1, 1, [([-3, 0, 1], 1), ([-12, 0, 1], 1)], False),
    5: (1, 2, [([-28, 0, 1], 2)], True),
    6: (-1, 1, [([-60, 0, 1], 1), ([-15, -6, 1], 1), ([-15, 6, 1], 1)], False),
    7: (1, 0, [([945, 0, -126, 0, 1], 2)], True),
    8: (
        -1,
        1,
        [([-28, 0, 1], 1), ([-208, 0, 1], 1), ([-63, 10, 1], 1), ([-63, -10, 1], 1)],
        False,
    ),
    9: (1, 2, [([19008, 0, -396, 0, 1], 2)], True),
    10: (
        -1,
        1,
        [
            ([-108, 0, 1], 1),
            ([-528, 0, 1], 1),
            ([-455625, 0, 65619, 0, -651, 0, 1], 1),
        ],
        False,
    ),
    11: (1, 0, [([-2338875, 0, 172315, 0, -1001, 0, 1], 2)], True),
    12: (
        -1,
        1,
        [
            ([-336, 0, 1], 1),
            ([55440, 0, -1176, 0, 1], 1),
            ([-12006225, 0, 421155, 0, -1491, 0, 1], 1),
        ],
        False,
    ),
    13: (1, 2, [([-74794752, 0, 1012752, 0, -2184, 0, 1], 2)], True),
    14: (
        -1,
        1,
        [
            ([-784, 0, 1], 1),
            ([353808, 0, -2296, 0, 1], 1),
            ([3773030625, 0, -328692196, 0, 2236710, 0, -3108, 0, 1], 1),
        ],
        False,
    ),
    15: (
        1,
        0,
        [([22347950625, 0, -1062230652, 0, 4488102, 0, -4284, 0, 1], 2)],
        True,
    ),
    16: (
        -1,
        1,
        [
            ([1900800, 0, 6624, 0, 1], 1),
            ([28753920, 0, 16704, 0, 1], 1),
            ([33886369440000, 0, 204233529600, 0, 138054240, 0, 23184, 0, 1], 2),
        ],
        False,
    ),
    17: (
        1,
        2,
        [([995361177600, 0, -9531032320, 0, 16263696, 0, -7752, 0, 1], 2)],
        True,
    ),
    18: (
        -1,
        1,
        [
            ([6441984, 0, -7056, 0, 1], 1),
            ([668304, 0, -3096, 0, 1], 1),
            (
                [
                    -88322873900625,
                    0,
                    5213177173701,
                    0,
                    -25878927978,
                    0,
                    29403594,
                    0,
                    -10197,
                    0,
                    1,
                ],
                1,
            ),
        ],
        False,
    ),
    19: (
        1,
        0,
        [
            (
                [
                    -584689432201875,
                    0,
                    19627235976789,
                    0,
                    -62764022286,
                    0,
                    50640282,
                    0,
                    -13167,
                    0,
                    1,
                ],
                2,
            )
        ],
        True,
    ),
    20: (
        -1,
        1,
        [
            ([3165184, 0, -5456, 0, 1], 1),
            ([-2031480000, 0, 20438704, 0, -11396, 0, 1], 1),
            (
                [
                    -3870591128105625,
                    0,
                    68747106284901,
                    0,
                    -145160193178,
                    0,
                    84869994,
                    0,
                    -16797,
                    0,
                    1,
                ],
                1,
            ),
        ],
        False,
    ),
    21: (
        1,
        2,
        [
            (
                [
                    -33685691719680000,
                    0,
                    241815611520000,
                    0,
                    -329460868800,
                    0,
                    140008176,
                    0,
                    -21252,
                    0,
                    1,
                ],
                2,
            )
        ],
        True,
    ),
    # 2j = 22: the printed degree-12 factor is missing the operator joining its
    # last two terms, so no literal expansion exists; see table1_reference.
}

_QUESTIONABLE = {16, 22}

_ROW_NOTES = {
    16: (
        "printed factors have impossible total degree 25 and all-positive even "
        "parts; corrected candidate is the computed block factorization"
    ),
    22: (
        "printed constant term lacks an operator (reads '...lambda^2 "
        "4712996874211250625'); corrected candidate inserts '+', matching the "
        "computed block factor exactly"
    ),
}


def table1_reference(j: HalfInt) -> Table1Row:
    """Bundled reference row for spin j: literal transcription plus metadata.

    Rows 2j = 16 and 22 are tagged questionable and additionally carry a
    corrected candidate (the computed block factorization, which for 2j = 22
    equals the printed digits with the missing '+' restored).
    """
    j = _require_spin(j)
    tj = j.twice_value
    if not 1 <= tj <= 22:
        raise NotAvailableError(f"no reference row for j={j}; rows cover 1/2..11")
    if tj == 22:
        literal = None
        degenerate = False
    else:
        sign, lam_power, factors, degenerate = _TABLE_ROWS[tj]
        literal = _expand_row(sign, lam_power, factors)
    questionable = tj in _QUESTIONABLE
    corrected = char_poly_exact(j) if questionable else None
    return Table1Row(
        j=j,
        literal=literal,
        corrected=corrected,
        questionable=questionable,
        degenerate=degenerate if tj != 22 else False,
        note=_ROW_NOTES.get(tj, ""),
    )


def table1_spins() -> tuple[HalfInt, ...]:
    """All spins with a bundled reference row, ascending."""
    return tuple(HalfInt(tj) for tj in range(1, 23))
