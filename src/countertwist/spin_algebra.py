"""Exact-structure matrix representations of angular momentum operators.

Builds ladder and Cartesian spin operators, the two-axis countertwisting
Hamiltonian, and the chiral symmetry operator, all in the |j, m> basis with m
ordered from +j down to -j. Matrix entries are arbitrary-precision complex
scalars; structural zeros are exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp
from mpmath.libmp import fzero

from .errors import InternalConsistencyError, InvalidInputError

DEFAULT_PRECISION = 34
MIN_PRECISION = 15
# The cheapest run, ``evolve --j 1/2 --t-max 1 --steps 2``, took 0.19 s at
# 12 800 digits, 0.44 s at 25 600 and 1.9 s at 51 200 (about 4x per
# doubling; 4.8 s for j = 1), so 10^5 digits keeps it near ten seconds.
MAX_PRECISION = 100_000
# ``charpoly``, the slowest command in j, took 3.1 s at 2j = 200, 8.7 s at
# 240 and 28 s at 300 (``spectrum`` at 34 digits 1.2, 1.8 and 3.0 s; 22 MB
# peak), so 2j = 240 keeps every command under ten seconds.  Provisional
# until the range over which large spins are certified is measured.
MAX_TWICE_SPIN = 240
# ``Fraction`` builds 10^|e| for decimal text such as "1e-30" before any cap
# can be checked: "1e4000000" took 3.3 s.  Rational text (spins, chi,
# t_max) may carry an exponent of at most this magnitude.
_MAX_DECIMAL_EXPONENT = 1000
# The exponent field of Fraction's decimal syntax, which ends the text.
_DECIMAL_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*\Z")


def _require_decimal_exponent(text: str) -> None:
    """Refuse rational text whose decimal exponent exceeds
    _MAX_DECIMAL_EXPONENT in magnitude, before ``Fraction`` sees it."""
    match = _DECIMAL_EXPONENT.search(text)
    if match is None:
        return
    digits = match.group(1).replace("_", "").lstrip("0") or "0"
    # The length test first: int() refuses over 4300 digits.
    if len(digits) > 6 or int(digits) > _MAX_DECIMAL_EXPONENT:
        shown = text if len(text) <= 40 else text[:37] + "..."
        raise InvalidInputError(
            f"the decimal exponent of {shown!r} exceeds {_MAX_DECIMAL_EXPONENT} "
            "in magnitude"
        )


def _require_precision(precision: int) -> int:
    """Refuse a precision that is not an integer from MIN_PRECISION to
    MAX_PRECISION, the bounds the command line enforces too; the library's
    entry points call this before any arithmetic at that precision."""
    if not isinstance(precision, int) or precision < MIN_PRECISION:
        raise InvalidInputError(
            f"precision must be an integer >= {MIN_PRECISION} decimal digits, "
            f"got {precision!r}"
        )
    if precision > MAX_PRECISION:
        raise InvalidInputError(
            f"precision must be at most {MAX_PRECISION} decimal digits, got {precision}"
        )
    return precision


def _mpf_from_fraction(value: Fraction):
    """An exact rational as an mpf at the working precision: the numerator
    rounded, then divided by the exact denominator."""
    return mp.mpf(value.numerator) / value.denominator


@dataclass(frozen=True, order=True)
class HalfInt:
    """Exact integer or half-integer quantum number stored as its doubled value.

    Represents spin magnitudes j and magnetic labels m without rounding:
    HalfInt(3) is 3/2, HalfInt(4) is 2.

    :param twice_value: the integer 2j (or 2m).
    """

    twice_value: int

    def __post_init__(self) -> None:
        # A bool is an int, but True is not the spin 1/2.
        if isinstance(self.twice_value, bool) or not isinstance(self.twice_value, int):
            raise InvalidInputError(
                f"twice_value must be an integer, got {self.twice_value!r}"
            )

    @classmethod
    def from_string(cls, text: str) -> "HalfInt":
        """Parse 'p/q' or plain-integer text ('21/2', '3', '-1') exactly.

        Decimal text is read too ('3.5', '7e-1'); an exponent beyond
        _MAX_DECIMAL_EXPONENT in magnitude is refused before it is expanded.
        """
        _require_decimal_exponent(text)
        try:
            value = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot parse {text!r} as a half-integer") from exc
        return cls.from_value(value)

    @classmethod
    def from_value(cls, value: int | Fraction) -> "HalfInt":
        if isinstance(value, bool):
            raise InvalidInputError(f"{value!r} is a bool, not a number")
        try:
            doubled = Fraction(value) * 2
        except (ValueError, OverflowError) as exc:  # nan, inf, unparsable text
            raise InvalidInputError(f"{value!r} is not a finite number") from exc
        if doubled.denominator != 1:
            raise InvalidInputError(
                f"{value} is neither an integer nor a half-odd-integer"
            )
        return cls(int(doubled))

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice_value, 2)

    @property
    def is_integer(self) -> bool:
        return self.twice_value % 2 == 0

    @property
    def n_states(self) -> int:
        """Dimension 2j+1 of the spin-j representation."""
        return self.twice_value + 1

    def __str__(self) -> str:
        if self.is_integer:
            return str(self.twice_value // 2)
        return f"{self.twice_value}/2"

    def __float__(self) -> float:
        return self.twice_value / 2.0


def _require_spin(j) -> HalfInt:
    """Coerce j (HalfInt, str or number) to a HalfInt with 0 <= 2j <= MAX_TWICE_SPIN."""
    if isinstance(j, str):
        j = HalfInt.from_string(j)
    elif not isinstance(j, HalfInt):
        try:
            j = HalfInt.from_value(j)
        except TypeError as exc:
            raise InvalidInputError(
                f"spin must be a HalfInt, text, or number, got {type(j).__name__}"
            ) from exc
    if j.twice_value < 0:
        raise InvalidInputError(f"spin must be non-negative, got {j}")
    if j.twice_value > MAX_TWICE_SPIN:
        raise InvalidInputError(f"spin must be at most {HalfInt(MAX_TWICE_SPIN)}")
    return j


@dataclass(frozen=True)
class BasisOrdering:
    """The |j, m> basis with labels ordered m = +j, +j-1, ..., -j.

    :param j: spin magnitude.
    :param labels: the m labels, descending; row/column i corresponds to
        labels[i].
    """

    j: HalfInt
    labels: tuple[HalfInt, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != self.j.n_states:
            raise InternalConsistencyError(
                f"basis for j={self.j} must have {self.j.n_states} labels"
            )
        for i, m in enumerate(self.labels):
            if m.twice_value != self.j.twice_value - 2 * i:
                raise InternalConsistencyError("basis labels must descend from +j to -j")

    @classmethod
    def for_spin(cls, j: HalfInt) -> "BasisOrdering":
        j = _require_spin(j)
        labels = tuple(
            HalfInt(j.twice_value - 2 * i) for i in range(j.n_states)
        )
        return cls(j=j, labels=labels)

    def index_of(self, m: HalfInt) -> int:
        offset = self.j.twice_value - m.twice_value
        if offset % 2 != 0 or not 0 <= offset // 2 < self.j.n_states:
            raise InvalidInputError(f"m={m} is not a basis label for j={self.j}")
        return offset // 2


@dataclass(frozen=True)
class DenseOperator:
    """Immutable square complex matrix over a |j, m> basis.

    :param basis: basis ordering (m descending).
    :param entries: tuple of row tuples of mpmath complex scalars.
    :param precision: decimal digits the entries were computed at.
    :param scale: overall energy scale (the coupling chi for Hamiltonians;
        entries already include it, the field records it so exact layers can
        recover the dimensionless operator by division).
    :param hermitian: when True, conjugate symmetry is verified at
        construction time.
    """

    basis: BasisOrdering
    entries: tuple[tuple[mp.mpc, ...], ...]
    precision: int
    scale: object = 1
    hermitian: bool = False

    def __post_init__(self) -> None:
        _require_precision(self.precision)
        n = len(self.entries)
        if n != self.basis.j.n_states or any(len(row) != n for row in self.entries):
            raise InternalConsistencyError("entries must form a (2j+1) square matrix")
        if self.hermitian:
            # |x - conj(y)| equals |y - conj(x)| exactly, so each unordered
            # pair is visited once; a nan would pass the comparison below.
            entries = self.entries
            with mp.workdps(self.precision):
                worst = mp.zero
                for a in range(n):
                    for b in range(a, n):
                        x, y = entries[a][b], entries[b][a]
                        if not (mp.isfinite(x) and mp.isfinite(y)):
                            where = (a, b) if not mp.isfinite(x) else (b, a)
                            raise InvalidInputError(
                                "operator flagged hermitian has a nan or infinite "
                                f"entry at {where}"
                            )
                        worst = max(worst, abs(x - mp.conj(y)))
                tol = (mp.mpf(10) ** (-self.precision + 1)) * (1 + self.max_abs())
                if worst > tol:
                    raise InternalConsistencyError(
                        f"operator flagged hermitian violates conjugate symmetry "
                        f"(max deviation {mp.nstr(worst, 5)})"
                    )

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, a: int, b: int) -> mp.mpc:
        return self.entries[a][b]

    @classmethod
    def identity(cls, basis: BasisOrdering, precision: int) -> "DenseOperator":
        n = basis.j.n_states
        _require_precision(precision)
        with mp.workdps(precision):
            one, zero = mp.mpc(1), mp.mpc(0)
            rows = tuple(
                tuple(one if a == b else zero for b in range(n)) for a in range(n)
            )
        return cls(basis=basis, entries=rows, precision=precision, hermitian=True)

    @classmethod
    def from_rows(
        cls,
        basis: BasisOrdering,
        rows,
        precision: int,
        scale: object = 1,
        hermitian: bool = False,
    ) -> "DenseOperator":
        _require_precision(precision)
        with mp.workdps(precision):
            entries = tuple(tuple(mp.mpc(x) for x in row) for row in rows)
        return cls(
            basis=basis,
            entries=entries,
            precision=precision,
            scale=scale,
            hermitian=hermitian,
        )

    def dagger(self) -> "DenseOperator":
        n = self.dim
        with mp.workdps(self.precision):
            rows = tuple(
                tuple(mp.conj(self.entries[b][a]) for b in range(n)) for a in range(n)
            )
        return DenseOperator(basis=self.basis, entries=rows, precision=self.precision)

    def matmul(self, other: "DenseOperator") -> "DenseOperator":
        """The matrix product.  Nothing in the package calls it since
        ``verify`` checks the chiral anticommutation on h's nonzero entries;
        it stays public for library users."""
        if self.dim != other.dim:
            raise InvalidInputError("operator dimensions do not match")
        n = self.dim
        with mp.workdps(max(self.precision, other.precision)):
            # fsum skips exact zeros: summing over the products of each left
            # row's nonzero entries with the nonzero entries of the right
            # rows they meet changes no bit, in the same ascending k.  fsum
            # returns an mpc when any of its terms is one, zero or not, so a
            # sum is made an mpc where an mpc factor met it (an all-zero left
            # row still gives mpc zeros).  Truth tests stand for ``!= 0``:
            # they agree on every mpf and mpc, without converting the 0.
            zero, real_zero = mp.mpc(0), mp.mpf(0)
            right = [[(b, y) for b, y in enumerate(row) if y] for row in other.entries]
            right_mpc = [
                {b for b, y in enumerate(row) if isinstance(y, mp.mpc)} for row in other.entries
            ]
            rows = []
            for left in self.entries:
                nonzero = [(k, x) for k, x in enumerate(left) if x]
                if not nonzero:
                    rows.append((zero,) * n)
                    continue
                if any(isinstance(x, mp.mpc) for _, x in nonzero):
                    mpc_cols = range(n)
                else:
                    mpc_cols = set().union(*(right_mpc[k] for k, _ in nonzero))
                terms = [[] for _ in range(n)]
                for k, x in nonzero:
                    for b, y in right[k]:
                        terms[b].append(x * y)
                row = []
                for b, t in enumerate(terms):
                    if not t:
                        row.append(zero if b in mpc_cols else real_zero)
                        continue
                    s = mp.fsum(t)
                    if b in mpc_cols and isinstance(s, mp.mpf):
                        s = mp.make_mpc((s._mpf_, fzero))
                    row.append(s)
                rows.append(tuple(row))
        return DenseOperator(
            basis=self.basis, entries=tuple(rows), precision=self.precision
        )

    def matvec(self, vector: tuple) -> tuple:
        """The product with a vector, one ``mp.fsum`` per row.  Nothing in
        the package calls it since ``verify`` forms the energy over h's
        nonzero entries; it stays public for library users."""
        if len(vector) != self.dim:
            raise InvalidInputError("vector length does not match operator dimension")
        n = self.dim
        with mp.workdps(self.precision):
            return tuple(
                mp.fsum(self.entries[a][b] * vector[b] for b in range(n))
                for a in range(n)
            )

    def add(self, other: "DenseOperator") -> "DenseOperator":
        return self._zip_entries(other, lambda x, y: x + y)

    def sub(self, other: "DenseOperator") -> "DenseOperator":
        return self._zip_entries(other, lambda x, y: x - y)

    def scaled(self, factor) -> "DenseOperator":
        with mp.workdps(self.precision):
            c = mp.mpc(factor)
            rows = tuple(tuple(c * x for x in row) for row in self.entries)
        return DenseOperator(basis=self.basis, entries=rows, precision=self.precision)

    def _zip_entries(self, other: "DenseOperator", op) -> "DenseOperator":
        if self.dim != other.dim:
            raise InvalidInputError("operator dimensions do not match")
        with mp.workdps(max(self.precision, other.precision)):
            rows = tuple(
                tuple(op(x, y) for x, y in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            )
        return DenseOperator(basis=self.basis, entries=rows, precision=self.precision)

    def max_abs(self) -> mp.mpf:
        with mp.workdps(self.precision):
            return max(abs(x) for row in self.entries for x in row)

    def max_abs_diff(self, other: "DenseOperator") -> mp.mpf:
        """max |self − other|.  Nothing in the package calls it since
        ``verify`` reads the propagators' rows; it stays public for library
        users."""
        return self.sub(other).max_abs()


def _ladder_amplitude_squared(j: HalfInt, m: HalfInt) -> int:
    """Exact integer (j-m)(j+m+1) = j(j+1) - m(m+1)."""
    lower = (j.twice_value - m.twice_value) // 2
    upper = (j.twice_value + m.twice_value + 2) // 2
    return lower * upper


def build_ladder(
    j: HalfInt, precision: int = DEFAULT_PRECISION
) -> tuple[DenseOperator, DenseOperator]:
    """Raising and lowering operators J+ and J- for spin j.

    J+ has entries sqrt((j-m)(j+m+1)) connecting m to m+1 (one off-diagonal
    above the main diagonal in the m-descending basis); J- is its conjugate
    transpose.

    :param j: spin magnitude (>= 0).
    :param precision: decimal digits for the square-root entries.
    :returns: (Jplus, Jminus).
    """
    j = _require_spin(j)
    _require_precision(precision)
    basis = BasisOrdering.for_spin(j)
    n = j.n_states
    with mp.workdps(precision):
        zero = mp.mpc(0)
        plus_rows = [[zero] * n for _ in range(n)]
        for col in range(1, n):
            m = basis.labels[col]
            amp = mp.sqrt(mp.mpf(_ladder_amplitude_squared(j, m)))
            plus_rows[col - 1][col] = mp.mpc(amp)
        minus_rows = [[zero] * n for _ in range(n)]
        for col in range(1, n):
            minus_rows[col][col - 1] = mp.conj(plus_rows[col - 1][col])
    jplus = DenseOperator(
        basis=basis,
        entries=tuple(tuple(row) for row in plus_rows),
        precision=precision,
    )
    jminus = DenseOperator(
        basis=basis,
        entries=tuple(tuple(row) for row in minus_rows),
        precision=precision,
    )
    return jplus, jminus


def build_cartesian(
    j: HalfInt, precision: int = DEFAULT_PRECISION
) -> tuple[DenseOperator, DenseOperator, DenseOperator]:
    """Cartesian spin operators (Jx, Jy, Jz) for spin j.

    Jx = (J+ + J-)/2, Jy = (J+ - J-)/(2i), Jz diagonal with the m labels
    descending.
    """
    j = _require_spin(j)
    jplus, jminus = build_ladder(j, precision)
    basis = jplus.basis
    n = j.n_states
    with mp.workdps(precision):
        half = mp.mpf(1) / 2
        half_over_i = mp.mpc(0, -1) / 2
        jx = jplus.add(jminus).scaled(half)
        jy = jplus.sub(jminus).scaled(half_over_i)
        zero = mp.mpc(0)
        jz_rows = tuple(
            tuple(
                mp.mpc(mp.mpf(basis.labels[a].twice_value) / 2) if a == b else zero
                for b in range(n)
            )
            for a in range(n)
        )
    jx = DenseOperator(
        basis=basis, entries=jx.entries, precision=precision, hermitian=True
    )
    jy = DenseOperator(
        basis=basis, entries=jy.entries, precision=precision, hermitian=True
    )
    jz = DenseOperator(
        basis=basis, entries=jz_rows, precision=precision, hermitian=True
    )
    return jx, jy, jz


def two_step_coupling_squared(j: HalfInt, m: HalfInt) -> int:
    """Exact integer |<m+2| J+^2 |m>|^2 = (j(j+1)-m(m+1))(j(j+1)-(m+1)(m+2))."""
    return _ladder_amplitude_squared(j, m) * _ladder_amplitude_squared(
        j, HalfInt(m.twice_value + 2)
    )


def _two_step_entries(j: HalfInt, chi) -> list:
    """H[a][a+2] = -i chi w/2 for a = 0 .. 2j-2 at the ambient precision.

    w² is :func:`two_step_coupling_squared` at the label of column a+2.
    """
    return [
        mp.mpc(0, -1) * chi * mp.sqrt(mp.mpf(two_step_coupling_squared(j, m))) / 2
        for m in BasisOrdering.for_spin(j).labels[2:]
    ]


def build_h_ta(
    j: HalfInt, chi: float = 1.0, precision: int = DEFAULT_PRECISION
) -> DenseOperator:
    """Two-axis countertwisting Hamiltonian (chi/2i)(J+^2 - J-^2).

    Hermitian, purely imaginary entries, nonzero only where |Delta m| = 2;
    equals chi (JxJy + JyJx).

    :param j: spin magnitude.
    :param chi: coupling strength (either sign, recorded in ``scale``).
    :param precision: decimal digits for entries.
    """
    j = _require_spin(j)
    _require_precision(precision)
    basis = BasisOrdering.for_spin(j)
    n = j.n_states
    with mp.workdps(precision):
        try:
            chi_mp = mp.mpf(chi)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"chi must be a real number, got {chi!r}") from exc
        if not mp.isfinite(chi_mp):
            raise InvalidInputError(f"chi must be finite, got {chi!r}")
        zero = mp.mpc(0)
        rows = [[zero] * n for _ in range(n)]
        for a, upper in enumerate(_two_step_entries(j, chi_mp)):
            rows[a][a + 2] = upper
            rows[a + 2][a] = mp.conj(upper)
        entries = tuple(tuple(row) for row in rows)
        scale = chi_mp
    return DenseOperator(
        basis=basis, entries=entries, precision=precision, scale=scale, hermitian=True
    )


def chiral_operator(j: HalfInt, precision: int = DEFAULT_PRECISION) -> DenseOperator:
    """Antidiagonal symmetry operator that anticommutes with the Hamiltonian.

    The d-matrix rotation about y by beta = -pi, written directly as the
    signed antidiagonal: maps |j, m> to (-1)^(j-m) |j, -m>, so column c holds
    (-1)^c at row 2j-c. Squares to +identity for integer j and -identity for
    half-integer j.

    Nothing in the package calls it: ``verify`` forms HR + RH from h's
    nonzero entries and R's signs.  It stays public for library users.
    """
    _require_precision(precision)
    j = _require_spin(j)
    basis = BasisOrdering.for_spin(j)
    n = j.n_states
    with mp.workdps(precision):
        rows = [[mp.mpc(0)] * n for _ in range(n)]
        for col in range(n):
            rows[n - 1 - col][col] = mp.mpc((-1) ** col)
    entries = tuple(tuple(row) for row in rows)
    return DenseOperator(basis=basis, entries=entries, precision=precision)
