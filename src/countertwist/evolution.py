"""Unitary time evolution and spin-squeezing observables.

Builds the propagator U = exp(-i H t) for the countertwisting Hamiltonian two
independent ways — spectral interpolation over the exact eigenvalues, and a
Taylor scaling-and-squaring oracle — then evolves the coherent initial state
and extracts means, variances, covariances, squeezing parameters, and the
optimal squeezing angle, either at a single time or over a uniform time grid.

All real/complex scalars are mpmath values computed at a requested decimal
precision; every propagator is certified unitary at construction.
"""

from __future__ import annotations

import enum
import functools
import marshal
import math
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise

from mpmath import mp
from mpmath.libmp import (
    fone,
    fzero,
    mpc_exp,
    mpc_pos,
    mpf_abs,
    mpf_gt,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_sub,
)

from . import _kernels
from .charpoly import block_decompose
from .errors import (
    IllConditionedError,
    InternalConsistencyError,
    InvalidInputError,
    NumericFailureError,
)
from .spectrum import SpectrumReport, spectrum
from .spin_algebra import (
    DEFAULT_PRECISION,
    BasisOrdering,
    DenseOperator,
    HalfInt,
    _ladder_amplitude_squared,
    _mpf_from_fraction,
    _require_precision,
    _require_spin,
)

__all__ = [
    "ObservableSet",
    "Propagator",
    "PropagatorMethod",
    "StateVector",
    "TimeSeries",
    "TIME_SERIES_COLUMNS",
    "coherent_initial_state",
    "heisenberg_expectations",
    "optimal_xi",
    "propagator_spectral",
    "propagator_taylor",
    "time_series",
    "xi_y",
    "xi_z",
]


#: Column names produced by :func:`time_series`, in canonical order.
TIME_SERIES_COLUMNS = (
    "jx_mean",
    "var_jy",
    "var_jz",
    "xi_y",
    "xi_z",
    "corr_xz",
    "xi_opt",
    "opt_angle",
)


#: Largest |chi_t| a propagator accepts: both routes take float() of |chi_t|
#: times the spectral span (guard digits, squaring count), which must be finite.
MAX_ABS_CHI_T = 10**300


def _as_dimensionless_time(chi_t, precision: int):
    """Convert chi_t to a finite real mpf at the working precision."""
    with mp.workdps(precision):
        if isinstance(chi_t, Fraction):
            value = _mpf_from_fraction(chi_t)
        else:
            try:
                value = mp.mpf(chi_t)
            except (TypeError, ValueError) as exc:
                raise InvalidInputError(
                    f"chi_t must be a real number, got {chi_t!r}"
                ) from exc
        if not mp.isfinite(value):
            raise InvalidInputError(f"chi_t must be finite, got {chi_t!r}")
        return value


def _propagation_time(chi_t, precision: int):
    """Like _as_dimensionless_time, also rejecting |chi_t| > MAX_ABS_CHI_T."""
    value = _as_dimensionless_time(chi_t, precision)
    if abs(value) > MAX_ABS_CHI_T:
        raise InvalidInputError(
            f"|chi_t| must be at most {float(MAX_ABS_CHI_T):g}, "
            f"got {mp.nstr(value, 5)}"
        )
    return value


def _fdot_pair(x):
    """The raw (re, im) pair of a scalar as ``mp.fdot`` takes it: a value
    that is not an mpmath number goes through ``mp.convert`` first."""
    if type(x) not in (mp.mpf, mp.mpc):
        x = mp.convert(x)
    return x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateVector:
    """Normalized pure spin state over the m-descending basis.

    :param basis: basis ordering (m = +j ... -j).
    :param amplitudes: complex amplitudes, one per basis label.
    :param precision: decimal digits the amplitudes carry.

    Invariant: the norm is 1 to 10^(-precision+5).
    """

    basis: BasisOrdering
    amplitudes: tuple
    precision: int

    def __post_init__(self) -> None:
        if len(self.amplitudes) != self.basis.j.n_states:
            raise InternalConsistencyError(
                f"state for j={self.basis.j} needs {self.basis.j.n_states} "
                f"amplitudes, got {len(self.amplitudes)}"
            )
        with mp.workdps(self.precision):
            norm = mp.sqrt(mp.fsum(abs(a) ** 2 for a in self.amplitudes))
            # Negated, so that a nan norm fails the check too.
            if not abs(norm - 1) <= mp.mpf(10) ** (-self.precision + 5):
                raise InternalConsistencyError(
                    f"state norm deviates from 1 by {mp.nstr(abs(norm - 1), 5)}"
                )

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


class PropagatorMethod(enum.Enum):
    """How a propagator was constructed."""

    SPECTRAL = "spectral"
    TAYLOR_ORACLE = "taylor_oracle"


@dataclass(frozen=True)
class Propagator:
    """Unitary time-evolution operator U = exp(-i H t).

    :param basis: basis ordering (m descending).
    :param rows: ``rows[a]`` lists (column, (re, im)) over row a's nonzero
        entries in ascending column, raw mpf pairs at ``precision``.
    :param precision: decimal digits the entries carry.
    :param chi_t: dimensionless time (coupling times physical time).
    :param method: construction route.
    :ivar unitarity_defect: the achieved ||U†U - I||_max, set at construction.

    Invariant: ||U†U - I||_max < 10^(-p+5) at precision p (checked at
    construction by ``_kernels.gram_defect``; violation raises
    NumericFailureError, a nan or infinite entry InvalidInputError, and
    malformed rows InternalConsistencyError).  ``matrix`` is the dense
    form, built on first read.
    """

    basis: BasisOrdering
    rows: tuple
    precision: int
    chi_t: object
    method: PropagatorMethod
    unitarity_defect: object = field(init=False)

    def __post_init__(self) -> None:
        n = self.basis.j.n_states
        if len(self.rows) != n or not all(
            a < b for row in self.rows for a, b in pairwise((-1, *(c for c, _ in row), n))
        ):
            raise InternalConsistencyError(
                f"a propagator for j={self.basis.j} needs {n} rows of ascending columns in 0..{n - 1}"
            )
        p = self.precision
        with mp.workdps(p):
            prec, rnd = mp._prec_rounding
        with mp.workdps(p + 10):
            check_prec = mp.prec
            worst = mp.make_mpf(_kernels.gram_defect(self.rows, prec, check_prec, rnd))
            if worst > mp.mpf(10) ** (-p + 5):
                raise NumericFailureError(
                    f"propagator fails unitarity: ||U†U - I||_max = "
                    f"{mp.nstr(worst, 5)} at precision {p}"
                )
        object.__setattr__(self, "unitarity_defect", worst)

    @functools.cached_property
    def matrix(self) -> DenseOperator:
        """U with mpc entries, an exact mpc zero where a row has none."""
        entries = [[mp.mpc(0)] * self.dim for _ in self.rows]
        for dense, row in zip(entries, self.rows):
            for c, pair in row:
                dense[c] = mp.make_mpc(pair)
        entries = tuple(map(tuple, entries))
        return DenseOperator(basis=self.basis, entries=entries, precision=self.precision)

    @property
    def dim(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class ObservableSet:
    """Spin moments of one evolved state at one dimensionless time.

    Means and second moments are exact-real by construction (imaginary parts
    are certified negligible before being dropped); ``cov_yz`` is the central
    symmetrized covariance (⟨{Jy,Jz}⟩/2 - ⟨Jy⟩⟨Jz⟩) while ``corr_xz`` is the
    raw symmetrized product ⟨JxJz + JzJx⟩.
    """

    j: HalfInt
    chi_t: object
    precision: int
    mean_jx: object
    mean_jy: object
    mean_jz: object
    second_jx: object
    second_jy: object
    second_jz: object
    cov_yz: object
    corr_xz: object

    # Each variance, and the mean-spin check the squeezing parameters share,
    # is formed once; cached_property writes the instance __dict__, which
    # this frozen dataclass without slots has.
    def _variance(self, second, mean):
        with mp.workdps(self.precision):
            v = second - mean * mean
            return v if v > 0 else mp.mpf(0)

    @functools.cached_property
    def var_jx(self):
        return self._variance(self.second_jx, self.mean_jx)

    @functools.cached_property
    def var_jy(self):
        return self._variance(self.second_jy, self.mean_jy)

    @functools.cached_property
    def var_jz(self):
        return self._variance(self.second_jz, self.mean_jz)

    @functools.cached_property
    def _defined_mean_spin(self):
        """|⟨Jx⟩| if above the definedness threshold, else None."""
        with mp.workdps(self.precision):
            magnitude = abs(self.mean_jx)
            if magnitude <= mp.mpf(10) ** (-(self.precision // 2)):
                return None
            return magnitude

    @property
    def casimir(self):
        """⟨Jx² + Jy² + Jz²⟩, conserved at j(j+1)."""
        with mp.workdps(self.precision):
            return self.second_jx + self.second_jy + self.second_jz


_XI_COLUMNS = frozenset({"xi_y", "xi_z", "xi_opt"})


@dataclass(frozen=True)
class TimeSeries:
    """Observables sampled on a uniform grid of dimensionless times.

    :param grid: the dimensionless times (coupling times physical time; when
        the coupling is zero the grid records the physical time itself so the
        rows stay distinguishable).
    :param columns: mapping column name -> tuple of values, None marking
        points where the quantity is undefined (vanishing mean spin).

    Invariant: every column has one entry per grid point; squeezing-parameter
    columns are positive wherever defined.
    """

    j: HalfInt
    chi: object
    precision: int
    grid: tuple
    columns: dict

    def __post_init__(self) -> None:
        for name, values in self.columns.items():
            if name not in TIME_SERIES_COLUMNS:
                raise InternalConsistencyError(f"unknown column {name!r}")
            if len(values) != len(self.grid):
                raise InternalConsistencyError(
                    f"column {name!r} has {len(values)} entries for "
                    f"{len(self.grid)} grid points"
                )
            if name in _XI_COLUMNS and any(
                v is not None and not v > 0 for v in values
            ):
                raise InternalConsistencyError(
                    f"column {name!r} must be positive where defined"
                )

    def __len__(self) -> int:
        return len(self.grid)


# ---------------------------------------------------------------------------
# Propagators
# ---------------------------------------------------------------------------


def _leja_order(values):
    """Order interpolation nodes for numerically stable Newton products.

    Starts from the largest-magnitude node, then greedily appends the node
    maximizing the product of distances to those already chosen.
    """
    remaining = [float(v) for v in values]
    order = [max(range(len(remaining)), key=lambda i: abs(remaining[i]))]
    chosen = {order[0]}
    # Track log-product of distances to avoid under/overflow.
    logs = [
        -math.inf if i in chosen else _log_distance(remaining[i], remaining[order[0]])
        for i in range(len(remaining))
    ]
    while len(order) < len(remaining):
        best = max(
            (i for i in range(len(remaining)) if i not in chosen),
            key=lambda i: logs[i],
        )
        order.append(best)
        chosen.add(best)
        for i in range(len(remaining)):
            if i not in chosen:
                logs[i] += _log_distance(remaining[i], remaining[best])
    return order


def _log_distance(x: float, y: float) -> float:
    d = abs(x - y)
    return math.log(d) if d > 0 else -math.inf


def _interpolation_guard_digits(
    span: float, chi_t: float, n_nodes: int, min_gap: float
) -> int:
    """Extra digits absorbing cancellation in the Newton form of exp.

    Three sources: the k-th Newton term has magnitude up to
    (span·|chi_t|)^k / k! while the assembled propagator has entries of order
    one, so the largest term's decimal magnitude bounds the alternating-sum
    cancellation; divided differences across nodes only ``min_gap`` apart
    subtract nearly equal values, losing log10(1/min_gap) further digits; and
    rounding noise accumulates over the order of n_nodes² scalar operations
    per entry.
    """
    guard = 15 + math.ceil(2 * math.log10(n_nodes + 1))
    if 0 < min_gap < 1:
        guard += math.ceil(-math.log10(min_gap))
    a = span * abs(chi_t)
    if a <= 1 or n_nodes <= 1:
        return guard
    log_a = math.log10(a)
    worst = max(
        k * log_a - math.lgamma(k + 1) / math.log(10)
        for k in range(1, n_nodes)
    )
    return guard + max(0, math.ceil(worst))


def _polish_nodes(j: HalfInt, seeds, precision: int, gap_floor, extra_steps: int):
    """Newton-refine eigenvalue seeds against the exact chain polynomials.

    The interpolation nodes must carry the full working precision — the
    assembled propagator is far more sensitive to node error than to any
    other rounding — so the reported eigenvalues are treated as seeds and
    sharpened on the distinct exact chain polynomials, chain a's first (each
    distinct eigenvalue is a simple root of one of them) by three Newton
    steps, then up to ``extra_steps`` more while a step exceeds the tolerance.

    The chain polynomials are even or odd, and Horner's rounded steps
    commute with negation, so the Newton steps from −x are those from x
    negated, bit for bit: a seed whose exact negation was polished before
    it takes that result negated.  Each seed of a pair fails the checks
    exactly when its twin does, so the first failure is the one the seed
    order gives.
    """
    pairs = block_decompose(j)._newton_pairs
    polished = []
    done = {}
    tol = mp.mpf(10) ** (-precision + 2)
    for seed in seeds:
        x = mp.mpf(seed)
        twin = done.get(mpf_neg(x._mpf_))
        if twin is not None:
            polished.append(mp.make_mpf(mpf_neg(twin)))
            continue
        start = x._mpf_
        best = None
        for poly, deriv in pairs:
            slope = deriv.evaluate(x)
            if slope == 0:
                continue
            step = poly.evaluate(x) / slope
            if best is None or abs(step) < abs(best[2]):
                best = (poly, deriv, step)
        if best is None:
            raise InvalidInputError(
                "spectrum report value is not near a simple root of either "
                "chain polynomial"
            )
        poly, deriv, step = best
        taken = 0
        while taken < 3 or (taken < 3 + extra_steps and abs(step) > tol * (1 + abs(x))):
            x = x - step
            slope = deriv.evaluate(x)
            if slope == 0:
                break
            step = poly.evaluate(x) / slope
            taken += 1
        if abs(step) > tol * (1 + abs(x)):
            raise InvalidInputError(
                "spectrum report values are not eigenvalues of this "
                "Hamiltonian"
            )
        done[start] = x._mpf_
        polished.append(x)
    ordered = sorted(polished)
    if any(
        b - a < gap_floor for a, b in zip(ordered, ordered[1:])
    ):
        raise InvalidInputError(
            "spectrum report values collapse onto the same eigenvalue"
        )
    return polished


def _series_setup(j: HalfInt, seeds: tuple, order: list, precision: int, wp: int,
                  seed_precision: int) -> tuple:
    """What every time of one spectral series shares at one working precision:
    the seeds (a report's eigenvalues, at ``seed_precision`` digits) polished
    and in the Leja ``order``, the rounded node gaps
    ``gaps[k][i] = nodes[i] - nodes[i - k]`` and the couplings −√w, the
    imaginary parts of H/χ's (imaginary) entries, as (nodes, gaps, ups)."""
    chains = block_decompose(j)
    with mp.workdps(wp):
        prec, rnd = mp._prec_rounding
        # The propagator is far more sensitive to coupling error than to any
        # other rounding: the couplings come from their exact integer squares.
        ups = tuple(
            tuple((-mp.sqrt(mp.mpf(w)))._mpf_ for w in block)
            for block in (chains.block_a, chains.block_b)
        )
        doublings = max(0, math.ceil(math.log2(wp / seed_precision)))
        polished = _polish_nodes(
            j, seeds, precision, mp.mpf(10) ** (-(precision // 2)), doublings
        )
        nodes = tuple(polished[i]._mpf_ for i in order)
        gaps = tuple(
            tuple(
                mpf_sub(nodes[i], nodes[i - k], prec, rnd) if i >= k else None
                for i in range(len(nodes))
            )
            for k in range(len(nodes))
        )
    return nodes, gaps, ups


def _spectral_series(report: SpectrumReport, precision: int):
    """:func:`propagator_spectral` set up once for a series of times: the
    report is checked and ordered here, each working precision's set-up is
    built at its first use.  Returns the function from a checked τ to U."""
    j = report.j
    distinct = tuple(ev.value for ev in report.eigenvalues)
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
    order = _leja_order(distinct)
    basis = BasisOrdering.for_spin(j)
    n = j.n_states
    setups = {}

    def at(tau) -> Propagator:
        wp = precision + _interpolation_guard_digits(span, float(tau), n_nodes, min_gap)
        if wp not in setups:
            setups[wp] = _series_setup(j, distinct, order, precision, wp, report.precision)
        nodes, gaps, (ups_a, ups_b) = setups[wp]

        with mp.workdps(wp):
            prec, rnd = mp._prec_rounding
            tau_w = mp.mpf(tau)._mpf_
            # exp(-i x tau) at each node, in Newton form on the Leja-ordered nodes.
            values = [
                mpc_exp((fzero, mpf_mul(mpf_neg(x), tau_w, prec, rnd)), prec, rnd)
                for x in nodes
            ]
            coeffs = _kernels.newton_coefficients(values, gaps, prec, rnd)
            # Horner evaluation M <- (A - x_k) M + c_k I on each chain block;
            # the entries between the chains are exact zeros.  A chain whose
            # couplings are the other's reversed, bit for bit, is its twin.
            planes_a = _kernels.chain_horner(coeffs, nodes, ups_a, prec, rnd)
            if ups_b == ups_a[::-1]:
                planes_b = tuple(map(_kernels.mirror, planes_a))
            else:
                planes_b = _kernels.chain_horner(coeffs, nodes, ups_b, prec, rnd)

        with mp.workdps(precision):
            prec, rnd = mp._prec_rounding
            rows = [None] * n
            for start, (re, im) in enumerate((planes_a, planes_b)):
                columns = range(start, n, 2)
                for a, row_re, row_im in zip(columns, re, im):
                    pairs = zip(columns, zip(row_re, row_im))
                    rows[a] = tuple((c, mpc_pos(x, prec, rnd)) for c, x in pairs if x != _kernels.ZERO)
            tau_out = +tau
        return Propagator(basis=basis, rows=tuple(rows), precision=precision,
                          chi_t=tau_out, method=PropagatorMethod.SPECTRAL)

    return at


def propagator_spectral(
    report: SpectrumReport, chi_t, precision: int = DEFAULT_PRECISION
) -> Propagator:
    """Propagator U = exp(-i H t) by interpolation over the exact spectrum.

    Writes exp as the unique polynomial agreeing with it on the distinct
    eigenvalues (the confluent reduction valid for any Hermitian matrix),
    evaluated in Newton form with Leja-ordered nodes and a cancellation guard,
    separately on the two chains (even and odd basis index) that the
    Hamiltonian's Delta m = 2 couplings never connect.  The report is the
    whole input: its spin fixes the couplings, taken from the chain model's
    exact squares, and its eigenvalues seed a Newton refinement on the
    exact chain polynomials at working precision, so the report's own
    precision does not limit the result.  :func:`time_series` sets this
    route up once for all its grid points.

    :param report: spectrum of the dimensionless Hamiltonian H/chi.
    :param chi_t: dimensionless time, the full product of coupling and
        physical time.
    :param precision: decimal digits of the result.
    :raises InvalidInputError: precision outside MIN_PRECISION ..
        MAX_PRECISION, multiplicities not summing to 2j+1, |chi_t| above
        MAX_ABS_CHI_T, or report values that are not the eigenvalues of
        the Hamiltonian for its spin (checked in that order).
    :raises IllConditionedError: distinct eigenvalues closer than
        10^(-precision/2), where the interpolation weights blow up.
    :raises NumericFailureError: the assembled matrix fails the unitarity
        certificate.
    """
    _require_precision(precision)
    if report.dimension != report.j.n_states:
        raise InvalidInputError(
            "spectrum report multiplicities do not sum to 2j+1"
        )
    tau = _propagation_time(chi_t, precision + 15)
    return _spectral_series(report, precision)(tau)


def propagator_taylor(
    h: DenseOperator, chi_t, precision: int = DEFAULT_PRECISION
) -> Propagator:
    """Propagator by scaling-and-squaring of the truncated exponential series.

    Independent of the spectral route (no eigenvalues involved): halves the
    generator until its norm is at most one, sums the Taylor series of exp to
    convergence at guarded precision, then squares back up.  Kept as a
    cross-validation oracle for :func:`propagator_spectral`.

    h/scale must be imaginary, H = −iK with K real, as the countertwisting
    Hamiltonian is: the scaled generator −iτH/2^s is then real, and the
    series and the squarings run on real entries.  Only h's nonzero
    entries are read, so exact zeros cost nothing.  Where the generator is
    reflected under m → −m (bit for bit, checked here; see ``_kernels``) and
    has at most two nonzero entries per row, as the countertwisting one
    does, every series term and square is reflected too: rows a <= n−1−a
    are formed and the others are their mirror images, the same bits a full
    computation gives.  Any other generator, such as one with a flipped
    coupling, is summed row by row.

    :param h: Hamiltonian matrix; divided by its recorded scale, so chi_t
        carries the full dimensionless time.
    :raises InvalidInputError: |chi_t| exceeds MAX_ABS_CHI_T, h has zero
        scale, or an entry of h/scale has a nonzero real part (checked in
        that order).
    :raises NumericFailureError: the series does not converge, or the
        result fails the unitarity certificate.
    """
    _require_precision(precision)
    tau = _propagation_time(chi_t, precision + 15)
    total = _taylor_rows(h, tau, precision)
    with mp.workdps(precision):
        prec, rnd = mp._prec_rounding
        rows = tuple(
            tuple((b, (mpf_pos(row[b], prec, rnd), fzero)) for b in sorted(row))
            for row in total
        )
        tau_out = +tau
    return Propagator(basis=h.basis, rows=rows, precision=precision,
                      chi_t=tau_out, method=PropagatorMethod.TAYLOR_ORACLE)


def _taylor_rows(h: DenseOperator, tau, precision: int) -> list:
    """exp(−iτ·h/scale) at :func:`propagator_taylor`'s guarded working
    precision, before rounding: the real parts of its rows as sparse rows
    (``_kernels``)."""
    n = h.dim
    with mp.workdps(precision + 15):
        scale = mp.mpf(h.scale)
        if scale == 0:
            raise InvalidInputError(
                "Hamiltonian has zero scale; build it with coupling 1 and "
                "carry the physics in chi_t (zero coupling means chi_t = 0)"
            )
        # h/scale over h's nonzero entries, by column: the others divide to
        # exact zeros, unless the scale is nan (0/nan is nan).
        a_rows = [[(b, x / scale) for b, x in enumerate(row) if x != 0] for row in h.entries]
        if mp.isnan(scale) or any(_fdot_pair(x)[0] != fzero for row in a_rows for _, x in row):
            raise InvalidInputError(
                "the Taylor oracle takes an imaginary h/scale (H = -iK with K "
                "real); an entry has a nonzero real part"
            )
        norm = max(mp.fsum(abs(x) for _, x in row) for row in a_rows) * abs(tau)
    squarings = max(0, int(math.ceil(math.log2(float(norm))))) if norm > 1 else 0
    wp = precision + 10 + squarings

    with mp.workdps(wp):
        prec, rnd = mp._prec_rounding
        # B = -i·tau·(h/scale)/2^s: the real part of mpc_mul's product with
        # an imaginary entry is one rounded real product.
        step = (mp.mpf(tau) / (1 << squarings))._mpf_
        b_rows = [[(b, mpf_mul(step, _fdot_pair(x)[1], prec, rnd)) for b, x in row] for row in a_rows]
        # Nonzero generator entries per row, in column order.
        nz = [[(b, v) for b, v in row if v != fzero] for row in b_rows]
        tol = (mp.mpf(10) ** (-wp - 3))._mpf_
        # Every term of a reflected generator with at most two entries per
        # row is reflected: the series forms rows a <= n-1-a only.
        mirrored = all(len(row) <= 2 for row in nz) and _kernels.reflects(
            [dict(row) for row in nz], mpf_neg
        )
        computed = nz[: (n + 1) // 2] if mirrored else nz

        term = [{a: fone} for a in range(n)]
        total = term[: len(computed)]
        k = 0
        while True:
            k += 1
            part = _kernels.series_term(computed, term, k, prec, rnd)
            converged = _kernels.all_below(part, tol, prec, rnd)
            total = _kernels.added(total, part, prec, rnd)
            if converged:
                break
            if k > 40 * wp:
                raise NumericFailureError(
                    "exponential series failed to converge"
                )
            term = _kernels.reflected(part, n)

        total = _kernels.reflected(total, n)
        for _ in range(squarings):
            total = _kernels.squared(total, prec, rnd, mirrored)
    return total


# ---------------------------------------------------------------------------
# States and observables
# ---------------------------------------------------------------------------


def coherent_initial_state(j, precision: int = DEFAULT_PRECISION) -> StateVector:
    """Coherent spin state along +x: the stretched state rotated onto x.

    Amplitudes in the m-descending basis are the exact square roots of the
    symmetric binomial distribution, sqrt(C(2j, i) / 2^(2j)) — all positive,
    matching the quarter-turn rotation of |j, m=j⟩ about y.

    Mean spin (j, 0, 0); transverse variances j/2.
    """
    j = _require_spin(j)
    _require_precision(precision)
    basis = BasisOrdering.for_spin(j)
    tj = j.twice_value
    with mp.workdps(precision):
        power = mp.mpf(2) ** tj
        amplitudes = tuple(
            mp.mpc(mp.sqrt(mp.mpf(math.comb(tj, i)) / power))
            for i in range(j.n_states)
        )
    return StateVector(basis=basis, amplitudes=amplitudes, precision=precision)


@functools.lru_cache(maxsize=32)
def _moment_constants(j: HalfInt, precision: int) -> tuple:
    """What every moment computation at (j, precision) shares, as raw mpfs at
    the working precision: the halved ladder amplitudes
    sqrt((j-m)(j+m+1))/2 for m = j-1 .. -j, the exact labels m = j .. -j,
    and the tolerance on the means' imaginary parts."""
    with mp.workdps(precision + 10):
        labels = BasisOrdering.for_spin(j).labels
        halves = tuple(
            (mp.sqrt(mp.mpf(_ladder_amplitude_squared(j, m))) / 2)._mpf_
            for m in labels[1:]
        )
        exact_labels = tuple((mp.mpf(m.twice_value) / 2)._mpf_ for m in labels)
        tol = mp.mpf(10) ** (-precision + 5) * (1 + mp.mpf(j.twice_value) / 2)
        return halves, exact_labels, tol._mpf_


def heisenberg_expectations(
    state: StateVector,
    u: Propagator,
    precision: int = DEFAULT_PRECISION,
) -> ObservableSet:
    """First and second spin moments of the evolved state.

    Evolves observables as O(t) = U† O U against the fixed initial state,
    evaluated as moments of φ = U·state.  All means are certified real to
    10^(-precision+5) scaled by the spin magnitude.

    :raises InvalidInputError: precision out of range or above the state's
        or the propagator's, different spins, or a nan or infinite value.
    :raises InternalConsistencyError: a mean develops a non-negligible
        imaginary part (would indicate a broken propagator or operator).
    """
    _require_precision(precision)
    if precision > min(state.precision, u.precision):
        raise InvalidInputError(
            f"precision {precision} exceeds the {state.precision} digits of the "
            f"state or the {u.precision} of the propagator"
        )
    j = state.basis.j
    if u.basis.j != j:
        raise InvalidInputError(
            f"propagator is for j={u.basis.j}, state for j={j}"
        )
    wp = precision + 10
    halves, labels, tol = _moment_constants(j, precision)
    with mp.workdps(wp):
        prec, rnd = mp._prec_rounding
        means, seconds, cov_yz, corr_xz = _kernels.moments(
            u.rows,
            [_fdot_pair(x) for x in state.amplitudes],
            halves,
            labels,
            prec,
            rnd,
        )
        for label, (_, im) in zip("xyz", means):
            if mpf_gt(mpf_abs(im, prec, rnd), tol):
                raise InternalConsistencyError(
                    f"mean of J{label} has imaginary part "
                    f"{mp.nstr(mp.make_mpf(im), 5)}"
                )

    with mp.workdps(precision):
        prec, rnd = mp._prec_rounding

        def rounded(x):
            return mp.make_mpf(mpf_pos(x, prec, rnd))

        return ObservableSet(
            j=j,
            chi_t=+mp.mpf(u.chi_t),
            precision=precision,
            mean_jx=rounded(means[0][0]),
            mean_jy=rounded(means[1][0]),
            mean_jz=rounded(means[2][0]),
            second_jx=rounded(seconds[0]),
            second_jy=rounded(seconds[1]),
            second_jz=rounded(seconds[2]),
            cov_yz=rounded(cov_yz),
            corr_xz=rounded(corr_xz),
        )


def _xi_from_variance(obs: ObservableSet, variance):
    """Wineland parameter sqrt(2j · variance) / |⟨Jx⟩|, None when undefined."""
    mean = obs._defined_mean_spin
    if mean is None:
        return None
    with mp.workdps(obs.precision):
        return +(mp.sqrt(mp.mpf(obs.j.twice_value) * variance) / mean)


def xi_y(obs: ObservableSet):
    """Squeezing parameter of the y quadrature; None when ⟨Jx⟩ vanishes.

    Values below 1 certify squeezing.
    """
    return _xi_from_variance(obs, obs.var_jy)


def xi_z(obs: ObservableSet):
    """Squeezing parameter of the z quadrature; None when ⟨Jx⟩ vanishes."""
    return _xi_from_variance(obs, obs.var_jz)


def optimal_xi(obs: ObservableSet):
    """Minimum squeezing over all transverse quadratures, with its angle.

    The variance of cos(φ)Jy + sin(φ)Jz traces a circle in (cos 2φ, sin 2φ);
    its minimum is the smaller eigenvalue of the 2×2 covariance matrix of
    (Jy, Jz).  Returns (xi_min, angle) with xi_min ≤ min(xi_y, xi_z), or None
    when ⟨Jx⟩ vanishes.  An isotropic covariance leaves the angle free and is
    reported as 0.
    """
    mean = obs._defined_mean_spin
    if mean is None:
        return None
    with mp.workdps(obs.precision):
        v_y, v_z, c = obs.var_jy, obs.var_jz, obs.cov_yz
        half_sum = (v_y + v_z) / 2
        half_diff = (v_y - v_z) / 2
        radius = mp.sqrt(half_diff ** 2 + c ** 2)
        v_min = half_sum - radius
        if v_min < 0:
            v_min = mp.mpf(0)
        if radius <= mp.mpf(10) ** (-obs.precision + 5) * (1 + half_sum):
            angle = mp.mpf(0)
        else:
            angle = mp.atan2(-c, -half_diff) / 2
        xi_min = mp.sqrt(mp.mpf(obs.j.twice_value) * v_min) / mean
        return (+xi_min, +angle)


# ---------------------------------------------------------------------------
# Time series
# ---------------------------------------------------------------------------


#: Most grid points :func:`time_series` takes.  A grid point at j = 1/2 and
#: 34 digits takes about 0.46 ms and keeps eight values, so 10^5 points take
#: under a minute and some hundred megabytes.  The estimate holds per
#: process: a series split across CPUs gives each process only its block's
#: time, and the calling process also holds the other blocks' values.
MAX_STEPS = 100_000


#: Where a process reads its own cgroup's CPU quota, as a container mounts
#: it: cgroup v2's "quota period" line, else v1's quota and period files.
_CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)

#: A child's block is computed by the calling process instead when the child
#: has not sent it by three times the calling process's own block time plus
#: this many seconds, counted from the fork.  Healthy children send theirs
#: at about one block time, as their blocks are no longer.
_CHILD_GRACE_S = 1.0


def _cpu_quota():
    """CPUs the cgroup's CPU quota allows, rounded up; None without a quota."""
    for paths in _CPU_QUOTA_FILES:
        try:
            words = []
            for path in paths:
                with open(path) as text:
                    words += text.read().split()
            quota, period = map(int, words)
        except (OSError, ValueError):  # absent, "max" (no quota) or malformed
            continue
        return -(-quota // period) if quota > 0 and period > 0 else None
    return None


def _cpu_count() -> int:
    """CPUs this process may run on: the blocks a time series splits into.

    The affinity mask, capped by the cgroup's CPU quota (a container held to
    2 CPUs on a larger host sees all of the host's CPUs in its mask); 1 where
    the platform has no affinity call.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None:
        return 1
    return min(len(affinity(0)), _cpu_quota() or math.inf)


def _may_fork() -> bool:
    """Whether a time series may fork: only on Linux (a fork without exec is
    unsafe on macOS, and Windows has none), and only from a process with one
    thread at the OS level, native threads such as a BLAS pool included."""
    if sys.platform != "linux":
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def _start_block(point, block):
    """Fork a child that computes ``point(i)``, a tuple of mpf values or
    None, for i in ``block`` and writes them as raw mpf tuples, marshalled,
    to a pipe.  Returns (pid, read end), or None when no child could be
    made.  The child leaves through os._exit, so it never runs the caller's
    clean-up or flushes the stdio buffers it inherited; a value that is not
    an mpf fails it (no ``_mpf_``, or marshal refuses it)."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = marshal.dumps(
                [tuple(None if x is None else x._mpf_ for x in point(i)) for i in block]
            )
            view = memoryview(payload)
            while view:
                view = view[os.write(write_fd, view):]
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, read_fd


def _collect_block(read_fd, block, deadline):
    """The results a child wrote for ``block``, or None unless its payload
    is complete by ``deadline`` (a ``time.monotonic`` reading)."""
    # Imported here: the interpreter does not load select at start-up.
    import select

    poller = select.poll()
    poller.register(read_fd, select.POLLIN)
    chunks = []
    while poller.poll(math.ceil(max(0.0, deadline - time.monotonic()) * 1000)):
        chunk = os.read(read_fd, 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    else:
        return None  # still running at the deadline: stalled or starved
    try:
        raw = marshal.loads(b"".join(chunks))
    except (EOFError, ValueError, TypeError):
        return None
    if not isinstance(raw, list) or len(raw) != len(block):
        return None

    def value(x):
        return None if x is None else mp.make_mpf(x)

    return [tuple(map(value, values)) for values in raw]


def _points_in_blocks(point, count: int) -> list:
    """``[point(i) for i in range(count)]``, split across this process's CPUs.

    The range is cut into contiguous blocks, one per CPU and at most one per
    point, the longer ones first.  This process computes the first block;
    each other block runs in a forked child, started only when
    :func:`_may_fork` allows it.  A child whose payload is incomplete,
    because its block raised, it died or it missed its deadline
    (``_CHILD_GRACE_S``), has its block computed here, so an error is raised
    at the same first point as by the plain loop.  The children are killed
    and reaped before this returns or raises.
    """
    n_blocks = min(count, _cpu_count()) if _may_fork() else 1
    bounds = [-(-count * k // n_blocks) for k in range(n_blocks + 1)]
    first, *rest = (range(a, b) for a, b in pairwise(bounds))
    children = []
    try:
        started = time.monotonic()
        for block in rest:
            children.append((block, _start_block(point, block)))
        results = [point(i) for i in first]
        deadline = started + 3 * (time.monotonic() - started) + _CHILD_GRACE_S
        for block, child in children:
            collected = child and _collect_block(child[1], block, deadline)
            results += collected or [point(i) for i in block]
        return results
    finally:
        if any(child for _, child in children):
            # Imported here: the interpreter does not load signal at start-up.
            import signal

            for _, child in children:
                if child:
                    pid, read_fd = child
                    os.close(read_fd)
                    try:
                        os.kill(pid, signal.SIGKILL)
                        os.waitpid(pid, 0)
                    except (ProcessLookupError, ChildProcessError):
                        pass  # reaped already, as when SIGCHLD is ignored


def time_series(
    j,
    chi,
    t_max,
    steps: int,
    precision: int = DEFAULT_PRECISION,
) -> TimeSeries:
    """Squeezing observables on a uniform time grid from a fresh start point.

    Evolves the coherent +x state; every grid point forms its propagator
    directly at that time from the exact spectrum (no stepping, no error
    accumulation), so rows are independent and order-insensitive.  The
    spectral route is set up once for the series: the report's checks and
    node order once, the polished nodes and couplings once per working
    precision.  Every column of TIME_SERIES_COLUMNS is filled.

    On Linux the grid is cut into contiguous blocks, one per CPU this
    process may run on (``os.sched_getaffinity``, capped by a cgroup CPU
    quota) and at most one per point.  This process computes the first
    block; every other block runs in a child made by ``os.fork``, only
    from a process with a single OS thread, which sends its values back
    as raw mpf tuples, so each bit is the one a single process computes.
    A block whose child fails, dies or has not finished well after this
    process's own block is computed here, so an error is raised at the
    same first point as without the split.  There is no option for this:
    on one CPU, elsewhere than Linux or in a threaded process there is
    one block and no fork.  Each process sets up its own working
    precisions.

    :param chi: coupling strength; the grid reports chi·t (or t itself when
        chi = 0, where the dynamics is constant).
    :param t_max: endpoint of the grid, > 0; the grid includes 0 and t_max.
    :param steps: number of grid points, 2 to MAX_STEPS.
    :param precision: decimal digits, MIN_PRECISION to MAX_PRECISION.
    :raises InvalidInputError: an argument out of range (before any
        arithmetic), or |chi·t| above MAX_ABS_CHI_T at some grid point.
    :raises IllConditionedError: the spectrum's distinct eigenvalues are
        closer than 10^(-precision/2).
    """
    j = _require_spin(j)
    _require_precision(precision)
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise InvalidInputError(f"steps must be an integer, got {steps!r}")
    if steps < 2:
        raise InvalidInputError(f"steps must be at least 2, got {steps}")
    if steps > MAX_STEPS:
        raise InvalidInputError(f"steps must be at most {MAX_STEPS}, got {steps}")
    t_end = _as_dimensionless_time(t_max, precision)
    if not t_end > 0:
        raise InvalidInputError(f"t_max must be positive, got {t_max!r}")
    chi_value = _as_dimensionless_time(chi, precision)

    report = spectrum(j, precision)
    state = coherent_initial_state(j, precision)
    propagator = _spectral_series(report, precision)

    def point(i):
        with mp.workdps(precision + 10):
            t_i = t_end * i / (steps - 1)
            chi_t_i = chi_value * t_i
        with mp.workdps(precision):
            grid_value = +(chi_t_i if chi_value != 0 else t_i)
        u = propagator(_propagation_time(chi_t_i, precision + 15))
        obs = heisenberg_expectations(state, u, precision)
        xi_opt, opt_angle = optimal_xi(obs) or (None, None)
        # The grid value, then one value per TIME_SERIES_COLUMNS entry.
        return (
            grid_value,
            obs.mean_jx,
            obs.var_jy,
            obs.var_jz,
            xi_y(obs),
            xi_z(obs),
            obs.corr_xz,
            xi_opt,
            opt_angle,
        )

    grid, *columns = zip(*_points_in_blocks(point, steps))
    return TimeSeries(
        j=j,
        chi=chi_value,
        precision=precision,
        grid=grid,
        columns=dict(zip(TIME_SERIES_COLUMNS, columns)),
    )
