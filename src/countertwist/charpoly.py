"""Exact big-integer characteristic polynomials via chiral block decomposition.

The countertwisting Hamiltonian only couples basis states two m-steps apart,
so (divided by the coupling chi) it splits into two Hermitian tridiagonal
chains with zero diagonal and integer squared couplings. The characteristic
polynomial of each chain follows from a three-term recurrence over the
integers, and the full polynomial is the product of the two block
polynomials. Degeneracy is decided by the exact discriminant, formed from
integer subresultants of the chains' polynomials in mu = lambda^2; analytic
solvability is classified by the block degrees in mu.
"""

from __future__ import annotations

import decimal
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
# Bits up to which decimal_text splits on powers of ten, above which it
# builds a Decimal: about 15 000 digits, where the two took about as long
# on CPython 3.11 (1.5 ms at 40 000 bits; at 80 000, 5.8 ms against 3.9 ms).
_DECIMAL_BITS = 50_000
# Bits of the pieces a Decimal is built from, each converted directly.
_PIECE_BITS = 128


def decimal_text(value: int) -> str:
    """Decimal text of an integer of any length.

    str() alone refuses more digits than the int-to-str limit (4300 by
    default), which discriminants pass from j = 22 on, and CPython's int
    division and int-to-str take time quadratic in the digits.  Below
    _DECIMAL_BITS the value is split on powers of ten into chunks that
    str() takes.  Above, it is split on powers of two and rebuilt as an
    exact ``decimal.Decimal``, whose multiplication is subquadratic, with
    Inexact trapped; CPython 3.12's ``_pylong.int_to_decimal_string`` works
    this way.
    """
    if value < 0:
        return "-" + decimal_text(-value)
    bits = value.bit_length()
    if bits > _DECIMAL_BITS:
        with decimal.localcontext() as context:
            context.prec = decimal.MAX_PREC
            context.Emax = decimal.MAX_EMAX
            context.traps[decimal.Inexact] = True
            return str(_as_decimal(value, bits, {}))
    if value < 10**_DIGIT_CHUNK:
        return str(value)
    half = bits * 3 // 20  # about half the decimal digits
    high, low = divmod(value, 10**half)
    return decimal_text(high) + decimal_text(low).zfill(half)


def _as_decimal(value: int, bits: int, powers: dict) -> decimal.Decimal:
    """A nonnegative value below 2^bits as an exact Decimal: its low and
    high halves, split at half the bits, joined by a power of two.
    ``powers`` keeps each power of two formed, for the other halves."""
    if bits <= _PIECE_BITS:
        return decimal.Decimal(value)
    half = bits >> 1
    high = value >> half
    low = value - (high << half)
    return _as_decimal(low, half, powers) + _as_decimal(high, bits - half, powers) * _power_of_two(
        half, powers
    )


def _power_of_two(exponent: int, powers: dict) -> decimal.Decimal:
    """2^exponent as an exact Decimal, kept in ``powers``: from the one
    below where that is kept, else as the product of two halves."""
    power = powers.get(exponent)
    if power is None:
        if exponent <= _PIECE_BITS:
            power = decimal.Decimal(1 << exponent)
        elif exponent - 1 in powers:
            power = 2 * powers[exponent - 1]
        else:
            half = exponent >> 1
            power = _power_of_two(half, powers) * _power_of_two(exponent - half, powers)
        powers[exponent] = power
    return power


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
            return mp.make_mpf(_kernels.int_horner(self._mpf_coefficients, x._mpf_, mp.prec))
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
    fact of a chain (its polynomial and derivative, its eigenvalue counts,
    p_N and p_N' at a point for the numeric spectrum) is read here.

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
        """p_N', for the propagator's node polishing: formed once per
        chain, with its exact coefficient conversion, rather than once per
        step."""
        return self.polynomial.derivative()

    def dyadic_value(self, m: int, s: int) -> int:
        """P_N = 2^(sN) * p_N(x) at x = m/2^s, exact: P_0 = 1, P_1 = m,
        P_k = m*P_(k-1) - (w_(k-1)*P_(k-2)) << 2s.  Its sign is p_N(x)'s."""
        shift = 2 * s
        prev, cur = 1, m
        for w in self.squares:
            prev, cur = cur, m * cur - (w * prev << shift)
        return cur

    def dyadic_count(self, m: int, s: int) -> int:
        """Number of eigenvalues above x = m/2^s, s >= 0: the sign changes
        along P_0, ..., P_N of :meth:`dyadic_value`'s recurrence, zeros
        skipped.  P_k = 2^(sk) * p_k(x) has p_k(x)'s sign, so no rounding
        enters the count."""
        return self._dyadic_sturm(m, s)[0]

    def _dyadic_sturm(self, m: int, s: int) -> tuple[int, int]:
        """(:meth:`dyadic_count`, :meth:`dyadic_value`) at m/2^s from one
        run of the recurrence."""
        shift = 2 * s
        prev, cur = 1, m
        positive, changes = (False, 1) if m < 0 else (True, 0)
        for w in self.squares:
            prev, cur = cur, m * cur - (w * prev << shift)
            if cur and (cur > 0) is not positive:
                positive = not positive
                changes += 1
        return changes, cur

    @functools.cached_property
    def bound(self) -> int:
        """B = 2*(isqrt(max w) + 1), beyond Gershgorin's bound 2*sqrt(max w):
        every eigenvalue lies in (-B, B)."""
        return 2 * (math.isqrt(max(self.squares, default=0)) + 1)

    @functools.cached_property
    def exponents(self) -> tuple[int, int]:
        """(lowest, highest): every nonzero eigenvalue's magnitude lies in
        [2^lowest, 2^highest).  Above, :attr:`bound`.  Below, Cauchy's
        bound on the reversed polynomial: a root of q = c_0 + ... +
        c_n*lambda^n, c_0 != 0, has |lambda| >= |c_0|/(|c_0| + max |c_i|),
        i >= 1; here q is :attr:`polynomial` with its lambda factors
        stripped.  With no nonzero eigenvalue, (0, highest)."""
        q = strip_lambda_power(self.polynomial)[1].coefficients
        lowest = 0
        if len(q) > 1:
            c0, rest = abs(q[0]), max(abs(c) for c in q[1:])
            lowest = c0.bit_length() - 1 - (c0 + rest).bit_length()
        return lowest, self.bound.bit_length()

    def dyadic_newton(self, m: int, s: int) -> tuple[int, int]:
        """(P_N, D_N) at x = m/2^s, exact, with D_N = 2^(s(N-1)) * p_N'(x)
        from D_0 = 0, D_1 = 1, D_k = P_(k-1) + m*D_(k-1) - (w_(k-1)*D_(k-2)) << 2s,
        so that the Newton step from x is m/2^s - P_N/(D_N*2^s)."""
        shift = 2 * s
        p_prev, p_cur, d_prev, d_cur = 1, m, 0, 1
        for w in self.squares:
            p_prev, p_cur, d_prev, d_cur = (
                p_cur,
                m * p_cur - (w * p_prev << shift),
                d_cur,
                p_cur + m * d_cur - (w * d_prev << shift),
            )
        return p_cur, d_cur

    def positive_intervals(self) -> list[tuple[Fraction, Fraction]]:
        """(lo, hi), ascending: each (lo, hi] holds exactly one positive
        eigenvalue, and neither end is an eigenvalue unless lo = 0.

        Bisection of (0, B] with B = :attr:`bound`, which no eigenvalue
        reaches, at dyadic points m/2^s, each counted as
        :meth:`dyadic_count` counts.  A midpoint where p_N vanishes moves
        toward lo.

        :raises InternalConsistencyError: the number of positive eigenvalues
            is not the mu-degree of ``polynomial``.
        """
        v_lo, v_hi = self.dyadic_count(0, 0), self.dyadic_count(self.bound, 0)
        mu_degree = strip_lambda_power(self.polynomial)[1].degree // 2
        if v_lo - v_hi != mu_degree:
            raise InternalConsistencyError(
                f"the chain has {v_lo - v_hi} positive eigenvalues, but its "
                f"polynomial's mu-degree is {mu_degree}"
            )
        # (lo, v_lo, hi, v_hi, s): the interval (lo/2^s, hi/2^s].
        pending = [(0, v_lo, self.bound, v_hi, 0)]
        intervals = []
        while pending:
            lo, v_lo, hi, v_hi, s = pending.pop()
            if v_lo - v_hi == 1:
                intervals.append((Fraction(lo, 1 << s), Fraction(hi, 1 << s)))
                continue
            lo, mid, hi, s = 2 * lo, lo + hi, 2 * hi, s + 1
            v_mid, p_mid = self._dyadic_sturm(mid, s)
            while p_mid == 0:
                lo, mid, hi, s = 2 * lo, lo + mid, 2 * hi, s + 1
                v_mid, p_mid = self._dyadic_sturm(mid, s)
            for part in ((lo, v_lo, mid, v_mid, s), (mid, v_mid, hi, v_hi, s)):
                if part[1] != part[3]:
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


def _exact_quotient(numerator: int, denominator: int) -> int:
    """numerator / denominator, which the subresultant theory makes exact.

    :raises InternalConsistencyError: the division leaves a remainder.
    """
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise InternalConsistencyError(
            "a subresultant scalar division is not exact"
        )
    return quotient


def _primitive(coefficients: list[int]) -> tuple[int, list[int]]:
    """(content, primitive part) of a nonzero ascending coefficient list
    without high zeros; the content is positive."""
    content = math.gcd(*coefficients)
    if content == 1:
        return 1, coefficients
    return content, [c // content for c in coefficients]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """prem(a, b) = lc(b)^(deg a - deg b + 1) * a mod b, with its high
    zeros dropped."""
    lead, degree_b = b[-1], len(b) - 1
    r = list(a)
    for shift in range(len(a) - len(b), -1, -1):
        top = r.pop()
        r = [lead * c for c in r]
        for i in range(degree_b):
            r[shift + i] -= top * b[i]
    while r and r[-1] == 0:
        r.pop()
    return r


def _resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Res(p, q), the determinant of the Sylvester matrix, by the
    subresultant PRS over the integers (Brown & Traub 1971; Cohen, *A
    Course in Computational Algebraic Number Theory*, 1993, alg. 3.3.7).

    The sequence starts S_0, S_1 = p, q (the higher degree first) and goes
    on with S_(i+1) = prem(S_(i-1), S_i)/(g*h^d), d = deg S_(i-1) -
    deg S_i, where g = lc(S_(i-1)) and h come from the step before (both 1
    at the first); then g <- lc(S_i) and h <- g^d/h^(d-1).  It ends at a
    constant S_k, with Res = +-lc(S_k)^(deg S_(k-1)) / h^(deg S_(k-1) - 1),
    or at a zero remainder, with Res = 0.

    Each S is kept as an integer scalar times its primitive part.  The
    pseudo-remainders are formed on the primitive parts, their content is
    divided out at once, and the scalars carry the rest exactly, so the
    polynomial arithmetic never sees the content that the subresultants
    accumulate.  Every division of scalars is exact and checked.  A
    constant p or q gives Res = p_0^(deg q) or q_0^(deg p), so
    Res((1,), (0,)) = 1.
    """
    n, m = p.degree, q.degree
    if n == 0:
        return p.coefficients[0] ** m
    if m == 0:
        return q.coefficients[0] ** n
    a, b = list(p.coefficients), list(q.coefficients)
    sign = 1
    if n < m:  # Res(p, q) = (-1)^(nm) Res(q, p)
        a, b = b, a
        sign = -1 if n * m % 2 else 1
    # S_(i-1) = alpha*a and S_i = beta*b, a and b primitive.  From the
    # second step on, g = lc(S_(i-1)) = alpha*a[-1], and alpha cancels
    # between prem's scalar alpha*beta^(d+1)*gamma and g*h^d; the first
    # step's g = 1 keeps it.
    alpha, a = _primitive(a)
    beta, b = _primitive(b)
    lead, h = 1, 1
    while len(b) > 1:
        degree_a, degree_b = len(a) - 1, len(b) - 1
        delta = degree_a - degree_b
        if degree_a * degree_b % 2:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        gamma, r = _primitive(r)
        g = beta * b[-1]
        beta = _exact_quotient(alpha * beta ** (delta + 1) * gamma, lead * h**delta)
        a, b, alpha, lead = b, r, 1, b[-1]
        if delta:
            h = _exact_quotient(g**delta, h ** (delta - 1))
    degree_a = len(a) - 1
    return sign * _exact_quotient((beta * b[0]) ** degree_a, h ** (degree_a - 1))


def _discriminant(p: IntPolynomial) -> int:
    """(-1)^(n(n-1)/2) * Res(p, p') / lc(p) for a polynomial of degree
    n >= 2."""
    n = p.degree
    res = _exact_quotient(_resultant(p, p.derivative()), p.leading_coefficient)
    return -res if (n * (n - 1) // 2) % 2 else res


def discriminant(p: IntPolynomial) -> int:
    """Exact discriminant: (-1)^(n(n-1)/2) * Res(p, p') / lc(p).

    Zero exactly when p has a repeated root.  A parity polynomial
    p = lambda^k * q(lambda^2), q(0) != 0, as every chain polynomial is,
    takes its discriminant from the mu-polynomial q of degree n:
    disc(p) = (-4)^n * lc(q) * q(0) * disc(q)^2 * q(0)^(2k) for k <= 1,
    and 0 for k >= 2, where lambda^2 divides p.  Other polynomials take
    the resultant of p and p' directly.
    """
    if p.is_zero:
        raise InvalidInputError("the zero polynomial has no discriminant")
    n = p.degree
    if n < 1:
        raise InvalidInputError("discriminant requires degree >= 1")
    if n == 1:
        return 1
    k, stripped = strip_lambda_power(p)
    if k >= 2:
        return 0
    if not stripped.is_even():
        return _discriminant(p)
    q = to_mu_polynomial(stripped)
    q0 = q.coefficients[0]
    disc_q = _discriminant(q) if q.degree >= 2 else 1
    return (-4) ** q.degree * q.leading_coefficient * q0 * disc_q**2 * q0 ** (2 * k)


def _resultant_squared(pa: IntPolynomial, pb: IntPolynomial) -> int:
    """Res(pa, pb)^2 for parity polynomials pa = lambda^ka * qa(lambda^2)
    and pb = lambda^kb * qb(lambda^2) with qa(0), qb(0) != 0, from the
    mu-polynomials: Res(qa(lambda^2), qb(lambda^2)) = Res(qa, qb)^2, and
    each lambda factor of pa contributes pb(0), of pb contributes +-qa(0),
    so Res(pa, pb)^2 = Res(qa, qb)^4 * pb(0)^(2ka) * qa(0)^(2kb)."""
    ka, stripped_a = strip_lambda_power(pa)
    kb, stripped_b = strip_lambda_power(pb)
    qa, qb = to_mu_polynomial(stripped_a), to_mu_polynomial(stripped_b)
    return (
        _resultant(qa, qb) ** 4
        * pb.coefficients[0] ** (2 * ka)
        * qa.coefficients[0] ** (2 * kb)
    )


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
    degree 2j+1.  Each factor is taken on the chains' mu-polynomials, of
    half the degree (:func:`discriminant`, :func:`_resultant_squared`).  Twin chains (half-integer j) share one polynomial: the
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
        full = block * _resultant_squared(a.polynomial, b.polynomial)
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
