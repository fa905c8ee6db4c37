"""Independent oracles used by the test suite.

The numpy builders duplicate none of the package code paths: they construct
operators directly with numpy floating arithmetic so that agreement between
the two routes is a genuine cross-check.  ``wigner_rotation_y`` is the
general mpmath d-matrix rotation about y; the package only needs its
beta = -pi case (the chiral operator) and builds that directly.
``build_h_f`` adds a field along z (or another axis) to the countertwisting
Hamiltonian, a variant the package does not model; the chiral operator
still anticommutes with it for a z field.  The Taylor oracle refuses a
Hamiltonian with a real part, such as the z or x field; a y field is
imaginary, and the oracle takes it.
``dense_matmul`` is the product summed over every term, exact zeros
included, against which the package's sparse-aware product is checked.
``_sylvester_resultant`` is the Bareiss determinant of the Sylvester
matrix, the reference for the package's Euclidean resultant.
``aberth_mu_roots`` is the complex Aberth-Ehrlich root finder, the reference
for the package's Sturm-isolated real roots.
The ``object_*`` functions are the per-point dynamics, the node polishing
and the integer Horner loop written with mpmath number objects, one entry
at a time, the references for the raw-libmp kernels and their mirror
shortcuts.  ``operator_rows`` turns a DenseOperator into the sparse raw
rows a ``Propagator`` holds, so that a test can certify any matrix.
"""

import math
import sys
from fractions import Fraction

import numpy as np
from mpmath import mp
from mpmath.libmp import fzero

from countertwist import (
    DEFAULT_PRECISION,
    BasisOrdering,
    DenseOperator,
    HalfInt,
    build_cartesian,
    build_h_ta,
)
from countertwist.charpoly import IntPolynomial, block_decompose
from countertwist.errors import (
    IllConditionedError,
    InternalConsistencyError,
    InvalidInputError,
    NumericFailureError,
)
from countertwist.evolution import (
    ObservableSet,
    _interpolation_guard_digits,
    _leja_order,
    _propagation_time,
)
from countertwist.spectrum import _as_real, _newton_polish
from countertwist.spin_algebra import (
    _ladder_amplitude_squared,
    _require_precision,
    _require_spin,
    _two_step_entries,
)


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
    axis: str = "z",
) -> DenseOperator:
    """Countertwisting Hamiltonian with an external field along an axis.

    Equals build_h_ta(j, chi) + omega * J_axis; with the z field it still
    anticommutes with the chiral operator.
    """
    h_ta = build_h_ta(j, chi, precision)
    field = build_cartesian(j, precision)["xyz".index(axis)]
    with mp.workdps(precision):
        omega_mp = mp.mpf(omega)
        if not mp.isfinite(omega_mp):
            raise InvalidInputError(f"omega must be finite, got {omega!r}")
        combined = h_ta.add(field.scaled(omega_mp))
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


# ---------------------------------------------------------------------------
# Sylvester-determinant resultant
# ---------------------------------------------------------------------------
#
# The determinant route to Res(p, q); the package's Euclidean resultant must
# give the same integers.


def _bareiss_determinant(matrix: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss algorithm)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for col in range(k + 1, n):
                m[i][col] = (m[i][col] * m[k][k] - m[i][k] * m[k][col]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _sylvester_resultant(p: IntPolynomial, q: IntPolynomial) -> int:
    """Res(p, q) as the fraction-free determinant of the Sylvester matrix."""
    n, m = p.degree, q.degree
    if n == 0:
        return p.coefficients[0] ** m
    if m == 0:
        return q.coefficients[0] ** n
    size = n + m
    rows: list[list[int]] = []
    pc = list(reversed(p.coefficients))
    qc = list(reversed(q.coefficients))
    for shift in range(m):
        rows.append([0] * shift + pc + [0] * (size - n - 1 - shift))
    for shift in range(n):
        rows.append([0] * shift + qc + [0] * (size - m - 1 - shift))
    return _bareiss_determinant(rows)


# ---------------------------------------------------------------------------
# Aberth-Ehrlich mu roots
# ---------------------------------------------------------------------------
#
# The package's numeric mu-root finder before exact Sturm isolation replaced
# it: a simultaneous complex iteration from a circle of starting points,
# Newton polishing and the same residual certificate.


def _aberth_iterate(mu_poly: IntPolynomial, digits: int):
    """One Aberth-Ehrlich run at ``digits`` working digits.

    Returns (roots, converged).  Starting points sit on a circle whose radius
    is the Fujiwara root bound (scale-aware, unlike the plain coefficient
    maximum), with an angular offset that breaks real-axis symmetry.
    """
    degree = mu_poly.degree
    coefficients = mu_poly.coefficients
    derivative = mu_poly.derivative()
    lead = abs(mp.mpf(coefficients[-1]))
    ratios = [
        mp.power(abs(mp.mpf(coefficients[degree - k])) / lead, mp.mpf(1) / k)
        for k in range(1, degree + 1)
        if coefficients[degree - k]
    ]
    radius = max(2 * max(ratios), mp.mpf(1)) if ratios else mp.mpf(1)
    roots = [
        radius * mp.exp(mp.mpc(0, 2 * mp.pi * k / degree + mp.mpf(2) / 5))
        for k in range(degree)
    ]
    jitter = mp.mpf(10) ** (-(digits // 2))
    tolerance = mp.mpf(10) ** (-(digits - 6))
    for _ in range(160 + 20 * degree):
        largest_step = mp.mpf(0)
        for i in range(degree):
            value = mu_poly.evaluate(roots[i])
            if value == 0:
                continue
            slope = derivative.evaluate(roots[i])
            if slope == 0:
                roots[i] += jitter * (1 + abs(roots[i])) * mp.mpc(1, 1)
                largest_step = mp.inf
                continue
            newton = value / slope
            repulsion = []
            for k in range(degree):
                if k == i:
                    continue
                gap = roots[i] - roots[k]
                if gap == 0:
                    gap = jitter * (1 + abs(roots[i]))
                repulsion.append(1 / gap)
            denominator = 1 - newton * mp.fsum(repulsion)
            step = newton if denominator == 0 else newton / denominator
            roots[i] -= step
            scaled = abs(step) / max(mp.mpf(1), abs(roots[i]))
            largest_step = max(largest_step, scaled)
        if largest_step < tolerance:
            return roots, True
    return roots, False


def aberth_mu_roots(mu_poly: IntPolynomial, precision: int):
    """Certified numeric mu roots; retries at increasing precision until the
    residual bound |q(mu)| / |q'(mu)| < 10^(5-p) holds for every root."""
    degree = mu_poly.degree
    if degree == 0:
        return []
    target = mp.mpf(10) ** (-(precision - 5))
    derivative = mu_poly.derivative()
    best_residual = None
    for guard in (10, 30, 60, 120):
        digits = precision + guard
        with mp.workdps(digits):
            roots, converged = _aberth_iterate(mu_poly, digits)
            if not converged:
                continue
            polished = []
            for root in roots:
                real_root = _as_real(root, precision)
                polished.append(_newton_polish(mu_poly, real_root, digits))
            residuals = []
            for root in polished:
                slope = derivative.evaluate(root)
                if slope == 0:
                    residuals.append(mp.inf)
                else:
                    residuals.append(abs(mu_poly.evaluate(root) / slope))
            worst = max(residuals)
            if best_residual is None or worst < best_residual:
                best_residual = worst
            if worst < target:
                return [(root, None) for root in polished]
    detail = "no converged iteration" if best_residual is None else (
        f"best residual {mp.nstr(best_residual, 3)}"
    )
    raise NumericFailureError(
        f"root finding did not reach the certified residual bound "
        f"{mp.nstr(target, 3)} ({detail}); repeated roots or insufficient "
        "precision are the usual causes"
    )


# ---------------------------------------------------------------------------
# mpc-object references for the raw-libmp kernels
# ---------------------------------------------------------------------------
#
# The bodies below are the package's per-point dynamics as they were written
# with mpmath number objects, before countertwist._kernels replaced their
# inner loops; the kernels must reproduce them bit for bit.


def object_int_horner(poly: IntPolynomial, x):
    """The generic Horner loop of ``IntPolynomial.evaluate``, the reference
    for its libmp route at an mpf."""
    acc = 0 * x if not isinstance(x, (int, Fraction)) else 0
    for c in reversed(poly.coefficients):
        acc = acc * x + c
    return acc


def object_polish_nodes(j, seeds, precision, gap_floor, extra_steps):
    """The Newton refinement of ``evolution._polish_nodes``, one seed after
    the other, with the generic Horner loop: the reference for its reuse
    of a polished twin.  Three steps, then up to ``extra_steps`` more while
    a step is above the tolerance."""
    pairs = [(poly, poly.derivative()) for poly, _ in block_decompose(j).factors]
    polished = []
    tol = mp.mpf(10) ** (-precision + 2)
    for seed in seeds:
        x = mp.mpf(seed)
        best = None
        for poly, deriv in pairs:
            slope = object_int_horner(deriv, x)
            if slope == 0:
                continue
            step = object_int_horner(poly, x) / slope
            if best is None or abs(step) < abs(best[2]):
                best = (poly, deriv, step)
        if best is None:
            raise InvalidInputError(
                "spectrum report value is not near a simple root of either "
                "chain polynomial"
            )
        poly, deriv, step = best
        for taken in range(3 + extra_steps):
            if taken >= 3 and abs(step) <= tol * (1 + abs(x)):
                break
            x = x - step
            slope = object_int_horner(deriv, x)
            if slope == 0:
                break
            step = object_int_horner(poly, x) / slope
        if abs(step) > tol * (1 + abs(x)):
            raise InvalidInputError(
                "spectrum report values are not eigenvalues of this "
                "Hamiltonian"
            )
        polished.append(x)
    ordered = sorted(polished)
    if any(b - a < gap_floor for a, b in zip(ordered, ordered[1:])):
        raise InvalidInputError(
            "spectrum report values collapse onto the same eigenvalue"
        )
    return polished


def operator_rows(matrix):
    """The rows of a DenseOperator as the propagator routes write them:
    (column, (re, im)) raw pairs over each row's nonzero entries, in
    ascending column, a value that is not an mpmath number converted as
    ``mp.fdot`` converts it."""
    rows = []
    for row in matrix.entries:
        pairs = (
            (c, x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero))
            for c, x in enumerate(map(mp.convert, row))
        )
        rows.append(tuple((c, pair) for c, pair in pairs if pair != (fzero, fzero)))
    return tuple(rows)


def object_gram_defect(matrix):
    """||U†U - I||_max of a DenseOperator as the certificate formed it."""
    p = matrix.precision
    support = [
        {k: row[a] for k, row in enumerate(matrix.entries) if row[a] != 0}
        for a in range(matrix.dim)
    ]
    with mp.workdps(p):
        gram = [
            [
                mp.fsum(mp.conj(x) * cb[k] for k, x in ca.items() if k in cb)
                for cb in support
            ]
            for ca in support
        ]
    with mp.workdps(p + 10):
        worst = max(
            abs(x - (1 if a == b else 0))
            for a, row in enumerate(gram)
            for b, x in enumerate(row)
        )
        if worst > mp.mpf(10) ** (-p + 5):
            raise NumericFailureError(
                f"propagator fails unitarity: ||U†U - I||_max = "
                f"{mp.nstr(worst, 5)} at precision {p}"
            )
    return worst


def object_spectral_entries(report, chi_t, precision=DEFAULT_PRECISION):
    """(entries, chi_t) of propagator_spectral formed with mpc objects."""
    _require_precision(precision)
    j = report.j
    if report.dimension != j.n_states:
        raise InvalidInputError(
            "spectrum report multiplicities do not sum to 2j+1"
        )
    tau = _propagation_time(chi_t, precision + 15)

    distinct = [ev.value for ev in report.eigenvalues]
    n_nodes = len(distinct)
    min_gap = 1.0
    if n_nodes >= 2:
        with mp.workdps(precision + 15):
            gap_floor = mp.mpf(10) ** (-(precision // 2))
            smallest = min(
                distinct[i + 1] - distinct[i] for i in range(n_nodes - 1)
            )
            if smallest < gap_floor:
                raise IllConditionedError(
                    f"distinct eigenvalues only {mp.nstr(smallest, 5)} apart; "
                    f"interpolation needs them separated by at least "
                    f"{mp.nstr(gap_floor, 5)} — retry at higher precision"
                )
            min_gap = float(smallest)

    span = float(distinct[-1] - distinct[0]) if n_nodes >= 2 else 0.0
    guard = _interpolation_guard_digits(span, float(tau), n_nodes, min_gap)
    wp = precision + guard
    n = j.n_states

    with mp.workdps(wp):
        # The propagator is far more sensitive to coupling error than to any
        # other rounding: the couplings come from their exact integer squares.
        upper = _two_step_entries(j, 1)
        doublings = max(0, math.ceil(math.log2(wp / report.precision)))
        polished = object_polish_nodes(
            j, distinct, precision, mp.mpf(10) ** (-(precision // 2)), doublings
        )
        order = _leja_order(distinct)
        nodes = [polished[i] for i in order]
        tau_w = mp.mpf(tau)
        values = [mp.exp(mp.mpc(0, -1) * x * tau_w) for x in nodes]

        # Newton divided differences on the Leja-ordered nodes.
        coeffs = list(values)
        for k in range(1, n_nodes):
            for i in range(n_nodes - 1, k - 1, -1):
                coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (
                    nodes[i] - nodes[i - k]
                )

        # Horner evaluation M <- (A - x_k) M + c_k I on each chain block; the
        # entries between the chains are exact zeros.  A missing neighbour at
        # a chain end enters as an exact zero, which changes no rounding.
        zero = mp.mpc(0)
        m_rows = [[zero] * n for _ in range(n)]
        for chain in (range(0, n, 2), range(1, n, 2)):
            size = len(chain)
            downs = [zero] + [mp.conj(upper[a - 2]) for a in chain[1:]]
            ups = [upper[a] for a in chain[:-1]] + [zero]
            pad = [[zero] * size]
            block = [
                [coeffs[-1] if i == c else zero for c in range(size)]
                for i in range(size)
            ]
            for k in range(n_nodes - 2, -1, -1):
                shift, c_k = nodes[k], coeffs[k]
                padded = pad + block + pad
                new_block = []
                for i, (row, down, up) in enumerate(zip(block, downs, ups)):
                    new_row = [
                        down * x1 + up * x2 - shift * xa
                        for x1, x2, xa in zip(padded[i], padded[i + 2], row)
                    ]
                    new_row[i] += c_k
                    new_block.append(new_row)
                block = new_block
            for a, row in zip(chain, block):
                m_rows[a][chain.start :: 2] = row

    with mp.workdps(precision):
        entries = tuple(tuple(+x for x in row) for row in m_rows)
        tau_out = +tau
    return entries, tau_out


def object_taylor_entries(h, chi_t, precision=DEFAULT_PRECISION):
    """(entries, chi_t) of propagator_taylor formed with mpc objects."""
    _require_precision(precision)
    tau = _propagation_time(chi_t, precision + 15)
    total = object_taylor_rows(h, tau, precision)
    with mp.workdps(precision):
        entries = tuple(tuple(+x for x in row) for row in total)
        tau_out = +tau
    return entries, tau_out


def object_taylor_rows(h, tau, precision=DEFAULT_PRECISION):
    """The rows of exp(-i tau h/scale) that object_taylor_entries rounds,
    at the Taylor oracle's guarded working precision."""
    n = h.dim

    with mp.workdps(precision + 15):
        scale = mp.mpf(h.scale)
        if scale == 0:
            raise InvalidInputError("Hamiltonian has zero scale")
        a_rows = [[x / scale for x in row] for row in h.entries]
        norm = max(
            mp.fsum(abs(x) for x in row) for row in a_rows
        ) * abs(tau)
    squarings = max(0, int(math.ceil(math.log2(float(norm))))) if norm > 1 else 0
    wp = precision + 10 + squarings

    with mp.workdps(wp):
        factor = mp.mpc(0, -1) * mp.mpf(tau) / (1 << squarings)
        b_rows = [[factor * x for x in row] for row in a_rows]
        # Nonzero generator entries per row (diagonal included), in column order.
        nz = [[(b, v) for b, v in enumerate(row) if v != 0] for row in b_rows]
        tol = mp.mpf(10) ** (-wp - 3)

        zero = mp.mpc(0)
        one = mp.mpc(1)
        total = [[one if a == b else zero for b in range(n)] for a in range(n)]
        term = [row[:] for row in total]
        k = 0
        while True:
            k += 1
            new_term = []
            for a in range(n):
                if not nz[a]:
                    new_term.append([zero] * n)
                    continue
                (b, v), *rest = nz[a]
                acc = [v * x for x in term[b]]
                for b, v in rest:
                    acc = [s + v * x for s, x in zip(acc, term[b])]
                new_term.append([s / k for s in acc])
            term = new_term
            term_max = max(abs(x) for row in term for x in row)
            for a in range(n):
                ta, sa = term[a], total[a]
                total[a] = [x + y for x, y in zip(sa, ta)]
            if term_max < tol:
                break
            if k > 40 * wp:
                raise NumericFailureError(
                    "exponential series failed to converge"
                )

        # fdot skips exact zeros: summing each squared entry over the nonzero
        # entries of its left row only changes no bit.
        for _ in range(squarings):
            cols = list(zip(*total))
            support = [[(k, x) for k, x in enumerate(row) if x != 0] for row in total]
            total = [
                [mp.fdot((x, col[k]) for k, x in nz) for col in cols] for nz in support
            ]
    return total


def object_moment_sums(state, u, precision=DEFAULT_PRECISION):
    """The moments of heisenberg_expectations at its working precision,
    formed with mpc objects and no set-up cache, before the imaginary-part
    check and the rounding to ``precision``: the three means (mpf or mpc),
    the three second moments, cov_yz and corr_xz."""
    j = state.basis.j
    n = j.n_states
    labels = state.basis.labels
    with mp.workdps(precision + 10):
        # Jx and Jy couple neighbouring labels through the halved ladder
        # amplitudes w (Jy: -iw above the diagonal, +iw below); Jz is the
        # diagonal of m.
        squares = (_ladder_amplitude_squared(j, m) for m in labels[1:])
        halves = [mp.sqrt(mp.mpf(x)) / 2 for x in squares]
        phi = [mp.fdot(zip(row, state.amplitudes)) for row in u.matrix.entries]
        links = [
            [(halves[min(a, b)], phi[b], b - a) for b in (a - 1, a + 1) if 0 <= b < n]
            for a in range(n)
        ]
        vx = [mp.fdot((w, x) for w, x, _ in row) for row in links]
        vy = [mp.fdot((mp.mpc(0, -d * w), x) for w, x, d in row) for row in links]
        vz = [mp.fdot([(mp.mpf(m.twice_value) / 2, x)]) for m, x in zip(labels, phi)]
        phi_c = [mp.conj(x) for x in phi]
        means = [mp.fdot(zip(phi_c, v)) for v in (vx, vy, vz)]
        seconds = [mp.fsum(abs(x) ** 2 for x in v) for v in (vx, vy, vz)]
        cross_yz = mp.fdot(zip(map(mp.conj, vy), vz))
        cross_xz = mp.fdot(zip(map(mp.conj, vx), vz))
        cov_yz = mp.re(cross_yz) - mp.re(means[1]) * mp.re(means[2])
        corr_xz = 2 * mp.re(cross_xz)
    return means, seconds, cov_yz, corr_xz


def object_moments(state, u, precision=DEFAULT_PRECISION):
    """heisenberg_expectations formed with mpc objects and no set-up cache."""
    _require_precision(precision)
    j = state.basis.j
    if u.matrix.basis.j != j:
        raise InvalidInputError(
            f"propagator is for j={u.matrix.basis.j}, state for j={j}"
        )
    means, seconds, cov_yz, corr_xz = object_moment_sums(state, u, precision)
    with mp.workdps(precision + 10):
        tol = mp.mpf(10) ** (-precision + 5) * (1 + mp.mpf(j.twice_value) / 2)
        for label, value in zip("xyz", means):
            if abs(mp.im(value)) > tol:
                raise InternalConsistencyError(
                    f"mean of J{label} has imaginary part "
                    f"{mp.nstr(mp.im(value), 5)}"
                )
        mean_x, mean_y, mean_z = (mp.re(v) for v in means)

    with mp.workdps(precision):
        return ObservableSet(
            j=j,
            chi_t=+mp.mpf(u.chi_t),
            precision=precision,
            mean_jx=+mean_x,
            mean_jy=+mean_y,
            mean_jz=+mean_z,
            second_jx=+seconds[0],
            second_jy=+seconds[1],
            second_jz=+seconds[2],
            cov_yz=+cov_yz,
            corr_xz=+corr_xz,
        )
