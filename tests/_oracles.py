"""Independent oracles used by the test suite.

The numpy builders duplicate none of the package code paths: they construct
operators directly with numpy floating arithmetic so that agreement between
the two routes is a genuine cross-check.  ``wigner_rotation_y`` is the
general mpmath d-matrix rotation about y; the package only needs its
beta = -pi case (the chiral operator) and builds that directly.
``build_h_f`` adds a z field to the countertwisting Hamiltonian, a variant
the package does not model; the chiral operator still anticommutes with it.
``dense_matmul`` is the product summed over every term, exact zeros
included, against which the package's sparse-aware product is checked.
"""

import math
import sys

import numpy as np
from mpmath import mp

from countertwist import (
    DEFAULT_PRECISION,
    BasisOrdering,
    DenseOperator,
    HalfInt,
    build_cartesian,
    build_h_ta,
)
from countertwist.errors import InternalConsistencyError, InvalidInputError
from countertwist.spin_algebra import _require_precision, _require_spin


def unlimited_str(value):
    """str(value) with the interpreter's int-to-str digit limit lifted."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters without the limit
        return str(value)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def to_numpy(op):
    """Convert a DenseOperator's entries to a complex numpy array."""
    return np.array([[complex(x) for x in row] for row in op.entries])


def numpy_spin_ops(twoj):
    """Return (Jx, Jy, Jz) as numpy arrays for 2j = twoj, m descending."""
    j = twoj / 2.0
    dim = twoj + 1
    m = j - np.arange(dim)
    jp = np.zeros((dim, dim), dtype=complex)
    for col in range(1, dim):
        mm = m[col]
        jp[col - 1, col] = np.sqrt(j * (j + 1) - mm * (mm + 1))
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j
    jz = np.diag(m).astype(complex)
    return jx, jy, jz


def numpy_h_ta(twoj, chi=1.0):
    """Countertwisting Hamiltonian chi*(JxJy + JyJx) as a numpy array."""
    jx, jy, _ = numpy_spin_ops(twoj)
    return chi * (jx @ jy + jy @ jx)


def numpy_rotation_y(twoj, beta):
    """exp(i*beta*Jy) via numpy eigendecomposition of Jy."""
    _, jy, _ = numpy_spin_ops(twoj)
    vals, vecs = np.linalg.eigh(jy)
    return (vecs * np.exp(1j * beta * vals)) @ vecs.conj().T


def _factorial_of(twice_value: int) -> int:
    if twice_value % 2 != 0 or twice_value < 0:
        raise InternalConsistencyError("factorial argument must be a non-negative integer")
    return math.factorial(twice_value // 2)


def _half_angle_values(theta: mp.mpf) -> tuple[mp.mpf, mp.mpf]:
    """cos(theta/2), sin(theta/2) with exact values at quarter-turn thetas.

    Angles within one working-precision ulp of a quarter turn use the exact
    0 / ±1 / ±sqrt(1/2) half-angle values, so rotations by multiples of pi/2
    (given at working precision) produce exact structural zeros.
    """
    quarter = theta / (mp.pi / 2)
    nearest = mp.nint(quarter)
    if abs(quarter - nearest) < mp.mpf(10) ** (-mp.dps + 8):
        idx = int(nearest) % 8
        root_half = mp.sqrt(mp.mpf(1) / 2)
        cos_table = [1, root_half, 0, -root_half, -1, -root_half, 0, root_half]
        sin_table = [0, root_half, 1, root_half, 0, -root_half, -1, -root_half]
        return mp.mpf(cos_table[idx]), mp.mpf(sin_table[idx])
    return mp.cos(theta / 2), mp.sin(theta / 2)


def wigner_rotation_y(
    j: HalfInt, beta: float, precision: int = DEFAULT_PRECISION
) -> DenseOperator:
    """Rotation operator about the y axis evaluated via the explicit d-matrix sum.

    Real orthogonal matrix; beta = 0 gives the identity, beta = -pi gives the
    antidiagonal (-1)^(j-m) map m -> -m, and beta = -pi/2 rotates the
    stretched state |j, j> into the coherent state with all-positive binomial
    amplitudes sqrt(C(2j, j-m))/2^j.

    :param j: spin magnitude.
    :param beta: rotation angle in radians.
    :param precision: decimal digits for entries.
    """
    _require_spin(j)
    _require_precision(precision)
    basis = BasisOrdering.for_spin(j)
    n = j.n_states
    tj = j.twice_value
    with mp.workdps(precision + 10):
        beta_mp = mp.mpf(beta)
        if not mp.isfinite(beta_mp):
            raise InvalidInputError(f"beta must be finite, got {beta!r}")
        cos_half, sin_half = _half_angle_values(-beta_mp)
        rows = []
        for a in range(n):
            tmp_row = []
            tmp = basis.labels[a].twice_value  # 2*m_row
            for b in range(n):
                tmc = basis.labels[b].twice_value  # 2*m_col
                # k range of the d-matrix sum: factorial arguments must be >= 0.
                k_min = max(0, (tmc - tmp) // 2)
                k_max = min((tj + tmc) // 2, (tj - tmp) // 2)
                total = mp.mpf(0)
                norm = mp.sqrt(
                    mp.mpf(
                        _factorial_of(tj + tmc)
                        * _factorial_of(tj - tmc)
                        * _factorial_of(tj + tmp)
                        * _factorial_of(tj - tmp)
                    )
                )
                for k in range(k_min, k_max + 1):
                    denom = (
                        _factorial_of(tj + tmc - 2 * k)
                        * _factorial_of(2 * k)
                        * _factorial_of(tj - 2 * k - tmp)
                        * _factorial_of(2 * k - tmc + tmp)
                    )
                    sign = -1 if (k + (tmp - tmc) // 2) % 2 else 1
                    # exponents: cos^(2j - 2k + m_col - m_row), sin^(2k - m_col + m_row)
                    ce = tj - 2 * k + (tmc - tmp) // 2
                    se = 2 * k - (tmc - tmp) // 2
                    term = sign * norm / denom
                    term *= cos_half**ce if ce else mp.mpf(1)
                    term *= sin_half**se if se else mp.mpf(1)
                    total += term
                tmp_row.append(total)
            rows.append(tmp_row)
    with mp.workdps(precision):
        entries = tuple(tuple(mp.mpc(x) for x in row) for row in rows)
    return DenseOperator(basis=basis, entries=entries, precision=precision)


def build_h_f(
    j: HalfInt,
    chi: float = 1.0,
    omega: float = 0.0,
    precision: int = DEFAULT_PRECISION,
) -> DenseOperator:
    """Countertwisting Hamiltonian with an external field along z.

    Equals build_h_ta(j, chi) + omega * Jz; still anticommutes with the
    chiral operator.
    """
    h_ta = build_h_ta(j, chi, precision)
    _, _, jz = build_cartesian(j, precision)
    with mp.workdps(precision):
        omega_mp = mp.mpf(omega)
        if not mp.isfinite(omega_mp):
            raise InvalidInputError(f"omega must be finite, got {omega!r}")
        combined = h_ta.add(jz.scaled(omega_mp))
    return DenseOperator(
        basis=h_ta.basis,
        entries=combined.entries,
        precision=precision,
        scale=h_ta.scale,
        hermitian=True,
    )


def dense_matmul(a: DenseOperator, b: DenseOperator) -> tuple:
    """Entries of a·b, each one fsum over all n products of its row and column."""
    n = a.dim
    with mp.workdps(max(a.precision, b.precision)):
        return tuple(
            tuple(
                mp.fsum(row[k] * b.entries[k][col] for k in range(n))
                for col in range(n)
            )
            for row in a.entries
        )
