"""Tests for propagators, evolved observables, and squeezing measures."""

import dataclasses
import marshal
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from mpmath import mp

from countertwist import (
    DEFAULT_PRECISION,
    TIME_SERIES_COLUMNS,
    BasisOrdering,
    DenseOperator,
    HalfInt,
    IllConditionedError,
    InternalConsistencyError,
    InvalidInputError,
    NumericFailureError,
    ObservableSet,
    Propagator,
    PropagatorMethod,
    StateVector,
    TimeSeries,
    build_cartesian,
    build_h_ta,
    chiral_operator,
    coherent_initial_state,
    heisenberg_expectations,
    optimal_xi,
    propagator_spectral,
    propagator_taylor,
    spectrum,
    time_series,
    xi_y,
    xi_z,
)
from countertwist import evolution
from countertwist.cli import _closed_form_rows_j2
from countertwist.spectrum import spectrum_from_json, spectrum_to_json
from _oracles import (
    build_h_f,
    dense_dagger,
    dense_from_rows,
    dense_identity,
    dense_matvec,
    dense_max_abs,
    dense_max_abs_diff,
    dense_propagator,
    object_squeezing,
    operator_rows,
    wigner_rotation_y,
)

SEED = 20260825


@pytest.fixture(autouse=True)
def _ambient_precision():
    old = mp.dps
    mp.dps = 45
    yield
    mp.dps = old


def _spin(twoj: int) -> HalfInt:
    return HalfInt(twoj)


def _identity_dev(u: Propagator) -> mp.mpf:
    return dense_max_abs_diff(dense_propagator(u), dense_identity(u.basis, u.precision))


def _unitarity_dev(u: Propagator) -> mp.mpf:
    matrix = dense_propagator(u)
    gram = dense_dagger(matrix).matmul(matrix)
    n = matrix.dim
    return max(
        abs(gram.entries[a][b] - (1 if a == b else 0))
        for a in range(n)
        for b in range(n)
    )


def _spectral(twoj: int, tau, precision: int = DEFAULT_PRECISION) -> Propagator:
    j = _spin(twoj)
    return propagator_spectral(spectrum(j, precision), tau, precision)


# ---------------------------------------------------------------------------
# Closed-form references for j=2 (five-state chain)
# ---------------------------------------------------------------------------


def _u_closed_j2(s):
    """Exact j=2 propagator: 2x2-blockable trig entries in the m basis."""
    c = mp.cos(2 * mp.sqrt(3) * s)
    sn = mp.sin(2 * mp.sqrt(3) * s)
    c3, s3 = mp.cos(3 * s), mp.sin(3 * s)
    r2 = mp.sqrt(2)
    return [
        [(1 + c) / 2, 0, -sn / r2, 0, (1 - c) / 2],
        [0, c3, 0, -s3, 0],
        [sn / r2, 0, c, 0, -sn / r2],
        [0, s3, 0, c3, 0],
        [(1 - c) / 2, 0, sn / r2, 0, (1 + c) / 2],
    ]


def _jx_closed_j2(s):
    r3 = mp.sqrt(3)
    return (
        mp.cos(3 * s) * (1 + 3 * mp.cos(2 * r3 * s))
        + r3 * mp.sin(3 * s) * mp.sin(2 * r3 * s)
    ) / 2


def _var_y_closed_j2(s):
    r3 = mp.sqrt(3)
    return (
        17
        - 6 * mp.cos(6 * s)
        - 6 * mp.cos(2 * r3 * s)
        + 3 * mp.cos(4 * r3 * s)
    ) / 8


def _var_z_closed_j2(s):
    r3 = mp.sqrt(3)
    return (
        7
        - 3 * mp.cos(4 * r3 * s)
        - (mp.sin(6 * s) + r3 * mp.sin(2 * r3 * s)) ** 2
    ) / 4


def _corr_closed_j2(s):
    r3 = mp.sqrt(3)
    return (
        -mp.mpf(3)
        / 2
        * mp.cos(r3 * s)
        * (
            (1 - r3) * mp.sin((3 - r3) * s)
            + (1 + r3) * mp.sin((3 + r3) * s)
        )
    )


def _xi_y_closed_j2(s):
    denom = abs(2 * _jx_closed_j2(s))
    return mp.sqrt(2) * mp.sqrt(8 * _var_y_closed_j2(s)) / denom


def _xi_z_closed_j2(s):
    denom = abs(2 * _jx_closed_j2(s))
    return 2 * mp.sqrt(4 * _var_z_closed_j2(s)) / denom


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


class TestStateVector:
    def test_norm_enforced(self):
        basis = BasisOrdering.for_spin(HalfInt(1))
        good = StateVector(
            basis=basis,
            amplitudes=(mp.mpc(1) / mp.sqrt(2), mp.mpc(0, 1) / mp.sqrt(2)),
            precision=34,
        )
        assert good.dim == 2
        with pytest.raises(InternalConsistencyError):
            StateVector(
                basis=basis, amplitudes=(mp.mpc(1), mp.mpc(1)), precision=34
            )

    def test_nan_amplitude_refused(self):
        # Its norm is nan, which no tolerance bounds.
        basis = BasisOrdering.for_spin(HalfInt(1))
        with pytest.raises(InternalConsistencyError):
            StateVector(basis=basis, amplitudes=(mp.nan, mp.mpc(1)), precision=34)

    def test_length_enforced(self):
        basis = BasisOrdering.for_spin(HalfInt(1))
        with pytest.raises(InternalConsistencyError):
            StateVector(basis=basis, amplitudes=(mp.mpc(1),), precision=34)


class TestPropagatorType:
    def test_non_unitary_rejected(self):
        basis = BasisOrdering.for_spin(HalfInt(1))
        matrix = dense_from_rows(
            basis, [[1, 0], [0, mp.mpf(1) / 2]], precision=34
        )
        with pytest.raises(NumericFailureError):
            Propagator(
                basis=basis,
                rows=operator_rows(matrix),
                precision=34,
                chi_t=mp.mpf(0),
                method=PropagatorMethod.SPECTRAL,
            )

    def test_dense_form_is_a_view_of_the_rows(self):
        for u in (_spectral(5, 0.7), propagator_taylor(build_h_ta(HalfInt(5), 1.0), 0.7)):
            matrix = dense_propagator(u)
            assert operator_rows(matrix) == u.rows
            assert all(type(x) is mp.mpc for row in matrix.entries for x in row)

    @pytest.mark.parametrize("defect", ["count", "range", "negative", "descending", "repeated"])
    def test_malformed_rows_rejected(self, defect):
        u = _spectral(4, 0.3)
        rows = list(u.rows)
        (c, x), *rest = rows[1]
        if defect == "count":
            rows.pop()
        elif defect == "range":
            rows[1] = rows[1] + ((u.dim, x),)
        elif defect == "negative":
            rows[1] = ((-1, x),) + rows[1]
        elif defect == "descending":
            rows[1] = tuple(reversed(rows[1]))
        else:
            rows[1] = ((c, x), (c, x), *rest)
        with pytest.raises(InternalConsistencyError):
            Propagator(
                basis=u.basis,
                rows=tuple(rows),
                precision=u.precision,
                chi_t=u.chi_t,
                method=u.method,
            )

    def test_method_labels(self):
        assert PropagatorMethod.SPECTRAL.value == "spectral"
        assert PropagatorMethod.TAYLOR_ORACLE.value == "taylor_oracle"

    def test_dim(self):
        u = _spectral(4, 0.3)
        assert u.dim == 5
        assert u.method is PropagatorMethod.SPECTRAL

    @pytest.mark.parametrize("route", ["spectral", "taylor"])
    def test_unitarity_defect_is_the_certificate(self, route):
        if route == "spectral":
            u = _spectral(9, 1.3)
        else:
            u = propagator_taylor(build_h_ta(HalfInt(9), 1.0), 1.3)
        recomputed = _unitarity_dev(u)
        assert recomputed > 0
        assert abs(u.unitarity_defect - recomputed) < mp.mpf("1e-3") * recomputed

    @pytest.mark.parametrize("route", ["spectral", "taylor"])
    def test_unitarity_defect_equals_dense_gram(self, route):
        # The certificate skips exact-zero products; the dense Gram at the
        # matrix precision, compared with I ten digits higher, is the same.
        if route == "spectral":
            u = _spectral(11, 0.83)
        else:
            u = propagator_taylor(build_h_ta(HalfInt(11), 1.0), 0.83)
        matrix = dense_propagator(u)
        p = matrix.precision
        gram = dense_dagger(matrix).matmul(matrix)
        with mp.workdps(p + 10):
            dense = max(
                abs(gram.entries[a][b] - (1 if a == b else 0))
                for a in range(u.dim)
                for b in range(u.dim)
            )
        assert dense > 0
        assert u.unitarity_defect == dense


class TestTimeSeriesType:
    def _base(self, **overrides):
        fields = dict(
            j=HalfInt(4),
            chi=mp.mpf(1),
            precision=34,
            grid=(mp.mpf(0), mp.mpf(1)),
            columns={"xi_y": (mp.mpf(1), mp.mpf(2))},
        )
        fields.update(overrides)
        return TimeSeries(**fields)

    def test_valid(self):
        series = self._base()
        assert len(series) == 2

    def test_unknown_column(self):
        with pytest.raises(InternalConsistencyError):
            self._base(columns={"bogus": (mp.mpf(1), mp.mpf(2))})

    def test_length_mismatch(self):
        with pytest.raises(InternalConsistencyError):
            self._base(columns={"xi_y": (mp.mpf(1),)})

    def test_xi_positivity(self):
        with pytest.raises(InternalConsistencyError):
            self._base(columns={"xi_z": (mp.mpf(1), mp.mpf(0))})
        series = self._base(columns={"xi_z": (mp.mpf(1), None)})
        assert series.columns["xi_z"][1] is None


# ---------------------------------------------------------------------------
# Spectral propagator
# ---------------------------------------------------------------------------


class TestPropagatorSpectral:
    @pytest.mark.parametrize("twoj", [1, 2, 4, 7, 9])
    def test_identity_at_zero(self, twoj):
        u = _spectral(twoj, 0)
        assert _identity_dev(u) == 0
        assert u.chi_t == 0

    def test_j2_closed_form(self):
        report = spectrum(_spin(4))
        rng = random.Random(SEED)
        times = [mp.mpf(k) / 8 for k in range(-4, 20)]
        times += [mp.mpf(rng.uniform(0.0, 5.0)) for _ in range(16)]
        for s in times:
            u = propagator_spectral(report, s)
            closed = _u_closed_j2(s)
            entries = dense_propagator(u).entries
            dev = max(
                abs(entries[a][b] - closed[a][b])
                for a in range(5)
                for b in range(5)
            )
            assert dev < mp.mpf("1e-30"), f"chi_t={s}"

    @pytest.mark.parametrize("twoj", [2, 3, 4, 5, 8, 11])
    def test_parity_checkerboard_exact_zeros(self, twoj):
        u = _spectral(twoj, 0.83)
        matrix = dense_propagator(u)
        n = matrix.dim
        for a in range(n):
            for b in range(n):
                if (a - b) % 2 == 1:
                    assert matrix.entries[a][b] == 0

    def test_matches_taylor_oracle_example(self):
        j = _spin(7)
        report = spectrum(j)
        h = build_h_ta(j, 1.0)
        tau = mp.mpf("0.37")
        u = propagator_spectral(report, tau)
        oracle = propagator_taylor(h, tau)
        assert dense_max_abs_diff(dense_propagator(u), dense_propagator(oracle)) < mp.mpf("1e-28")

    @pytest.mark.parametrize("twoj", [1, 3, 4, 6, 10, 15])
    def test_group_inverse(self, twoj):
        j = _spin(twoj)
        report = spectrum(j)
        tau = mp.mpf("0.77")
        forward = propagator_spectral(report, tau)
        backward = propagator_spectral(report, -tau)
        prod = dense_propagator(forward).matmul(dense_propagator(backward))
        ident = dense_identity(prod.basis, prod.precision)
        assert dense_max_abs_diff(prod, ident) < mp.mpf("1e-31")

    def test_unitarity_explicit(self):
        u = _spectral(13, 1.9)
        assert _unitarity_dev(u) < mp.mpf("1e-12")
        assert _unitarity_dev(u) < mp.mpf("1e-29")

    def test_zero_scale_rejected(self):
        # The spectral route reads no Hamiltonian; the Taylor route divides
        # h by its recorded scale and must refuse a zero coupling.
        h = build_h_ta(HalfInt(4), 0.0)
        with pytest.raises(InvalidInputError):
            propagator_taylor(h, 0.1)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), "later"])
    def test_bad_time_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            propagator_spectral(spectrum(HalfInt(4)), bad)

    @pytest.mark.parametrize("huge", [mp.mpf("1e400"), Fraction(-(10**301))])
    def test_huge_time_rejected(self, huge):
        with pytest.raises(InvalidInputError, match="chi_t"):
            propagator_spectral(spectrum(HalfInt(4)), huge)

    def test_the_time_bound_itself_is_accepted(self):
        # 10**300 rounds above itself at 49 digits; the exact input is
        # compared with the bound.
        report, bound = spectrum(HalfInt(4)), evolution.MAX_ABS_CHI_T
        for chi_t in (bound, -bound, Fraction(bound), float(bound) / 2):
            propagator_spectral(report, chi_t)
        for chi_t in (2 * bound, Fraction(bound) + Fraction(1, 10**9), float(bound)):
            with pytest.raises(InvalidInputError, match="chi_t"):
                propagator_spectral(report, chi_t)

    def test_near_degenerate_report_rejected(self):
        report = spectrum(HalfInt(2))
        squeezed = dataclasses.replace(
            report.eigenvalues[-1], value=mp.mpf("1e-21")
        )
        tight = dataclasses.replace(
            report,
            eigenvalues=report.eigenvalues[:-1] + (squeezed,),
        )
        with pytest.raises(IllConditionedError):
            propagator_spectral(tight, 0.1)

    def test_large_spin_needs_higher_precision(self):
        report = spectrum(HalfInt(60))
        with pytest.raises(IllConditionedError):
            propagator_spectral(report, 0.3)

    def test_large_spin_succeeds_at_higher_precision(self):
        report = spectrum(HalfInt(60), precision=50)
        u = propagator_spectral(report, 0.3, precision=50)
        assert _unitarity_dev(u) < mp.mpf("1e-44")

    def test_deterministic(self):
        first = _spectral(9, 1.234)
        second = _spectral(9, 1.234)
        assert dense_propagator(first).entries == dense_propagator(second).entries

    def test_report_precision_does_not_limit_the_result(self):
        # The 15-digit seeds take Newton steps beyond the first three.
        u = propagator_spectral(spectrum(5, 15), "0.7", 200)
        want = propagator_spectral(spectrum(5, 200), "0.7", 200)
        with mp.workdps(200):
            assert dense_max_abs_diff(dense_propagator(u), dense_propagator(want)) < mp.mpf(10) ** -195

    @pytest.mark.parametrize("twoj", [4, 7, 20])
    def test_report_is_the_whole_input(self, twoj):
        report = spectrum(_spin(twoj))
        parsed = spectrum_from_json(spectrum_to_json(report))
        direct = dense_propagator(propagator_spectral(report, 0.83)).entries
        assert dense_propagator(propagator_spectral(parsed, 0.83)).entries == direct


# ---------------------------------------------------------------------------
# Taylor oracle
# ---------------------------------------------------------------------------


class TestPropagatorTaylor:
    def test_zero_hamiltonian_identity(self):
        h = build_h_ta(HalfInt(1), 1.0)
        for tau in (0, 1.7, -3.0):
            u = propagator_taylor(h, tau)
            assert _identity_dev(u) == 0
            assert u.method is PropagatorMethod.TAYLOR_ORACLE

    def test_group_inverse(self):
        h = build_h_ta(HalfInt(7), 1.0)
        forward = propagator_taylor(h, mp.mpf("1.1"))
        backward = propagator_taylor(h, mp.mpf("-1.1"))
        prod = dense_propagator(forward).matmul(dense_propagator(backward))
        ident = dense_identity(prod.basis, prod.precision)
        assert dense_max_abs_diff(prod, ident) < mp.mpf("1e-31")

    def test_scale_respected(self):
        j = HalfInt(4)
        doubled = build_h_ta(j, 2.0)
        plain = build_h_ta(j, 1.0)
        u_doubled = propagator_taylor(doubled, 0.9)
        u_plain = propagator_taylor(plain, 0.9)
        assert dense_max_abs_diff(dense_propagator(u_doubled), dense_propagator(u_plain)) < mp.mpf("1e-32")

    @pytest.mark.parametrize("huge", [mp.mpf("1e400"), Fraction(-(10**301))])
    def test_huge_time_rejected(self, huge):
        with pytest.raises(InvalidInputError, match="chi_t"):
            propagator_taylor(build_h_ta(HalfInt(4), 1.0), huge)

    def test_y_rotation_matches_wigner_d_matrix(self):
        # Jy is imaginary, so the oracle takes it: exp(-i tau Jy) is the
        # d-matrix of wigner_rotation_y at -tau.
        j = HalfInt(5)
        _, jy, _ = build_cartesian(j)
        tau = mp.mpf("0.7")
        u = propagator_taylor(jy, tau)
        assert dense_max_abs_diff(dense_propagator(u), wigner_rotation_y(j, -tau)) < mp.mpf("1e-32")

    def test_y_field_hamiltonian_matches_expm(self):
        h = build_h_f(HalfInt(5), 1.0, 0.3, axis="y")
        tau = mp.mpf("0.7")
        u = propagator_taylor(h, tau)
        reference = mp.expm(mp.mpc(0, -1) * tau * mp.matrix(h.entries))
        entries = dense_propagator(u).entries
        dev = max(
            abs(entries[a][b] - reference[a, b])
            for a in range(u.dim)
            for b in range(u.dim)
        )
        assert dev < mp.mpf("1e-30")

    @pytest.mark.parametrize("scale", [mp.inf, -mp.inf, mp.nan])
    def test_non_finite_scale_rejected(self, scale):
        # With +inf every entry of h/scale would be an exact zero and the
        # identity would pass the certificate for a nonzero h; a nan would
        # be refused as a real part.
        h = dataclasses.replace(build_h_ta(HalfInt(4), 1.0), scale=scale)
        with pytest.raises(InvalidInputError, match="scale must be finite"):
            propagator_taylor(h, mp.mpf("0.7"))

    @pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan])
    def test_non_finite_entry_rejected(self, bad):
        # An infinite entry made the norm infinite, and the squaring count
        # log2 of it raised a bare OverflowError.  An operator flagged
        # hermitian refuses such entries itself, so the flag is dropped to
        # reach the oracle's own refusal.
        h = build_h_ta(HalfInt(4), 1.0)
        rows = [list(row) for row in h.entries]
        rows[0][2], rows[2][0] = mp.mpc(0, bad), mp.mpc(0, -bad)
        h = dataclasses.replace(h, entries=tuple(map(tuple, rows)), hermitian=False)
        with pytest.raises(InvalidInputError, match="finite values only"):
            propagator_taylor(h, mp.mpf("0.7"))

    def test_precision_above_h_rejected(self, monkeypatch):
        # A 15-digit h gave a "50-digit" propagator 1.4e-16 from the 50-digit
        # spectral one, certified unitary to 5e-52.  It is refused before
        # any arithmetic; a precision at or below h's is taken.
        h = build_h_ta(HalfInt(2), 1, 15)
        with monkeypatch.context() as patch:
            patch.setattr(evolution, "_propagation_time", None)
            with pytest.raises(InvalidInputError, match="exceeds the 15 digits"):
                propagator_taylor(h, "0.7", 50)
        assert propagator_taylor(h, "0.7", 15).precision == 15
        assert propagator_taylor(build_h_ta(HalfInt(2), 1, 50), "0.7", 20).precision == 20

    @pytest.mark.parametrize("kind", ["jz", "h_f", "h_xy"])
    def test_real_part_rejected(self, kind):
        # The oracle runs on the real generator -i tau H: H = -iK, K real.
        j = HalfInt(5)
        _, jy, jz = build_cartesian(j)
        if kind == "jz":
            h = jz
        elif kind == "h_f":
            h = build_h_f(j, 1.0, 0.8)
        else:
            h = build_h_f(j, 1.0, 0.3, axis="x").add(jy.scaled(mp.mpf("0.2")))
        with pytest.raises(InvalidInputError, match="nonzero real part"):
            propagator_taylor(h, mp.mpf("0.7"))


ORACLE_TIME_COUNTS = {twoj: 20 for twoj in range(1, 11)}
ORACLE_TIME_COUNTS.update({twoj: 8 for twoj in range(11, 17)})
ORACLE_TIME_COUNTS.update({twoj: 5 for twoj in range(17, 21)})


@pytest.mark.parametrize("twoj", sorted(ORACLE_TIME_COUNTS))
def test_spectral_agrees_with_taylor(twoj):
    """Independent construction routes coincide far below the 1e-10 contract."""
    j = _spin(twoj)
    report = spectrum(j)
    h = build_h_ta(j, 1.0)
    rng = random.Random(SEED + twoj)
    worst = mp.mpf(0)
    for _ in range(ORACLE_TIME_COUNTS[twoj]):
        tau = mp.mpf(rng.uniform(0.01, 1.8))
        u = propagator_spectral(report, tau)
        oracle = propagator_taylor(h, tau)
        worst = max(worst, dense_max_abs_diff(dense_propagator(u), dense_propagator(oracle)))
    assert worst < mp.mpf("1e-10")
    assert worst < mp.mpf("1e-28")


@pytest.mark.xfail(
    strict=True,
    reason="chi_t is rounded to precision + 15 digits before the phases are formed",
)
def test_spectral_propagator_keeps_its_accuracy_at_long_times():
    # The certificate passes, but at chi_t = 10^30 + 1/3 the rounded time
    # moves U by about 1e-20 (ROADMAP item 6).
    chi_t = Fraction(10**30) + Fraction(1, 3)
    u = propagator_spectral(spectrum(HalfInt(4), 34), chi_t, 34)
    reference = _closed_form_rows_j2(chi_t, 1500)
    entries = dense_propagator(u).entries
    with mp.workdps(1510):
        dev = max(abs(entries[a][b] - reference[a][b]) for a in range(5) for b in range(5))
    assert dev < mp.mpf("1e-32")


@pytest.mark.xfail(
    strict=True,
    reason="h's entries are rounded to its precision before they are exponentiated",
)
def test_taylor_propagator_keeps_its_accuracy_at_long_times():
    # The certificate passes (about 7.5e-37), but at chi_t = 10^6 + 1/3 the
    # 34-digit couplings of h, multiplied by chi_t, move U by about 5.9e-30
    # (ROADMAP item 6).
    chi_t = Fraction(10**6) + Fraction(1, 3)
    u = propagator_taylor(build_h_ta(HalfInt(4), 1), chi_t, 34)
    reference = _closed_form_rows_j2(chi_t, 200)
    entries = dense_propagator(u).entries
    with mp.workdps(210):
        dev = max(abs(entries[a][b] - reference[a][b]) for a in range(5) for b in range(5))
    assert dev < mp.mpf("1e-32")


# ---------------------------------------------------------------------------
# Unitarity across the spin range
# ---------------------------------------------------------------------------


UNITARITY_SPINS = list(range(21, 45)) + [46, 49, 52, 55, 58, 60]


@pytest.mark.parametrize("twoj", UNITARITY_SPINS)
def test_unitarity_large_spins(twoj):
    """Construction certifies unitarity; quasi-degenerate spins retry at 50."""
    tau = 0.1 + (7 * twoj % 23) / 23 * (2.0 if twoj <= 40 else 0.4)
    try:
        u = _spectral(twoj, tau)
    except IllConditionedError:
        u = _spectral(twoj, tau, precision=50)
    assert u.dim == twoj + 1


# ---------------------------------------------------------------------------
# Chiral symmetry of the dynamics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("twoj", list(range(1, 21)))
def test_chiral_conjugation_reverses_time(twoj):
    j = _spin(twoj)
    report = spectrum(j)
    tau = mp.mpf("0.61")
    forward = propagator_spectral(report, tau)
    backward = propagator_spectral(report, -tau)
    r = chiral_operator(j)
    conjugated = r.matmul(dense_propagator(forward)).matmul(dense_dagger(r))
    assert dense_max_abs_diff(conjugated, dense_propagator(backward)) < mp.mpf("1e-10")
    assert dense_max_abs_diff(conjugated, dense_propagator(backward)) < mp.mpf("1e-29")


def test_chiral_conjugation_with_field():
    """The z-field Hamiltonian still anticommutes with the chiral flip."""
    j = _spin(5)
    h = build_h_f(j, 1.0, 0.8)
    r = chiral_operator(j)
    anti = h.matmul(r).add(r.matmul(h))
    assert dense_max_abs(anti) < mp.mpf("1e-32")


# ---------------------------------------------------------------------------
# Coherent initial state
# ---------------------------------------------------------------------------


class TestCoherentInitialState:
    def test_j2_amplitudes(self):
        state = coherent_initial_state(HalfInt(4))
        expected = [
            mp.mpf(1) / 4,
            mp.mpf(1) / 2,
            mp.sqrt(6) / 4,
            mp.mpf(1) / 2,
            mp.mpf(1) / 4,
        ]
        for amp, ref in zip(state.amplitudes, expected):
            assert abs(amp - ref) < mp.mpf("1e-33")

    @pytest.mark.parametrize("twoj", [1, 2, 3, 4, 5, 8, 11])
    def test_matches_quarter_turn_rotation(self, twoj):
        j = _spin(twoj)
        state = coherent_initial_state(j)
        with mp.workdps(45):
            quarter_turn = -mp.pi / 2
        rotation = wigner_rotation_y(j, quarter_turn)
        column = [rotation.entries[a][0] for a in range(j.n_states)]
        dev = max(
            abs(amp - ref) for amp, ref in zip(state.amplitudes, column)
        )
        assert dev < mp.mpf("1e-32")

    @pytest.mark.parametrize("twoj", [1, 2, 3, 4, 5, 6, 7, 8, 13])
    def test_mean_spin_and_isotropy(self, twoj):
        j = _spin(twoj)
        state = coherent_initial_state(j)
        u = _spectral(twoj, 0)
        obs = heisenberg_expectations(state, u)
        half = mp.mpf(twoj) / 2
        assert abs(obs.mean_jx - half) < mp.mpf("1e-32")
        assert abs(obs.mean_jy) < mp.mpf("1e-32")
        assert abs(obs.mean_jz) < mp.mpf("1e-32")
        assert abs(obs.var_jy - half / 2) < mp.mpf("1e-32")
        assert abs(obs.var_jz - half / 2) < mp.mpf("1e-32")
        assert obs.var_jx < mp.mpf("1e-32")

    def test_precision_honored(self):
        state = coherent_initial_state(HalfInt(4), precision=60)
        with mp.workdps(70):
            dev = abs(state.amplitudes[2] - mp.sqrt(6) / 4)
            assert dev < mp.mpf("1e-58")


# ---------------------------------------------------------------------------
# Heisenberg-picture observables
# ---------------------------------------------------------------------------


class TestHeisenbergExpectations:
    def test_t0_reference_values(self):
        j = HalfInt(4)
        state = coherent_initial_state(j)
        obs = heisenberg_expectations(state, _spectral(4, 0))
        assert abs(obs.mean_jx - 2) < mp.mpf("1e-32")
        assert abs(obs.var_jy - 1) < mp.mpf("1e-32")
        assert abs(obs.var_jz - 1) < mp.mpf("1e-32")
        assert abs(obs.casimir - 6) < mp.mpf("1e-32")

    def test_mean_jx_closed_form(self):
        j = HalfInt(4)
        state = coherent_initial_state(j)
        s = mp.mpf("0.4")
        obs = heisenberg_expectations(state, _spectral(4, s))
        assert abs(obs.mean_jx - _jx_closed_j2(s)) < mp.mpf("1e-30")

    @pytest.mark.parametrize("twoj", [1, 2, 3, 4, 5, 7, 9, 12])
    def test_casimir_and_energy_conserved(self, twoj):
        j = _spin(twoj)
        report = spectrum(j)
        h = build_h_ta(j, 1.0)
        state = coherent_initial_state(j)
        casimir_ref = mp.mpf(twoj) * (twoj + 2) / 4
        rng = random.Random(SEED + 100 + twoj)
        for _ in range(4):
            tau = mp.mpf(rng.uniform(0.0, 3.0))
            u = propagator_spectral(report, tau)
            obs = heisenberg_expectations(state, u)
            assert abs(obs.casimir - casimir_ref) < mp.mpf("1e-30")
            phi = dense_matvec(dense_propagator(u), state.amplitudes)
            energy = mp.fsum(
                mp.conj(phi[a]) * x
                for a, x in enumerate(dense_matvec(h, phi))
            )
            assert abs(energy) < mp.mpf("1e-30")

    def test_dimension_mismatch(self):
        state = coherent_initial_state(HalfInt(2))
        u = _spectral(4, 0.5)
        with pytest.raises(InvalidInputError):
            heisenberg_expectations(state, u)

    def test_precision_above_the_inputs_refused(self):
        # The state and U carry 20 digits: 60 would report rounding noise.
        state = coherent_initial_state(2, 20)
        u = propagator_spectral(spectrum(2, 20), "0.7", 20)
        for wider_state in (state, coherent_initial_state(2, 60)):
            with pytest.raises(InvalidInputError, match="exceeds"):
                heisenberg_expectations(wider_state, u, 60)
        with pytest.raises(InvalidInputError, match="exceeds"):
            heisenberg_expectations(state, propagator_spectral(spectrum(2, 60), "0.7", 60), 60)
        assert heisenberg_expectations(state, u, 20).precision == 20

    def test_means_are_real_scalars(self):
        j = HalfInt(5)
        state = coherent_initial_state(j)
        obs = heisenberg_expectations(state, _spectral(5, 0.9))
        for value in (obs.mean_jx, obs.mean_jy, obs.mean_jz, obs.corr_xz):
            assert isinstance(value, mp.mpf)

    def test_variance_clamp_nonnegative(self):
        j = HalfInt(4)
        state = coherent_initial_state(j)
        obs = heisenberg_expectations(state, _spectral(4, 0))
        assert obs.var_jx >= 0

    @pytest.mark.parametrize("twoj", range(1, 21))
    def test_equals_dense_cartesian_moments(self, twoj):
        j = _spin(twoj)
        state = coherent_initial_state(j)
        u = _spectral(twoj, 0.61)
        obs = heisenberg_expectations(state, u)
        assert obs == _dense_moments(state, u, j)


def _dense_moments(state, u, j, precision=DEFAULT_PRECISION):
    """Spin moments formed from the dense build_cartesian rows."""
    n = j.n_states
    wp = precision + 10
    operators = build_cartesian(j, wp)
    entries = dense_propagator(u).entries
    with mp.workdps(wp):
        phi = [
            mp.fdot(zip(entries[a], state.amplitudes))
            for a in range(n)
        ]
        vx, vy, vz = (
            [mp.fdot(zip(op.entries[a], phi)) for a in range(n)]
            for op in operators
        )
        phi_c = [mp.conj(x) for x in phi]
        mean_x, mean_y, mean_z = (
            mp.re(mp.fdot(zip(phi_c, v))) for v in (vx, vy, vz)
        )
        seconds = [mp.fsum(abs(x) ** 2 for x in v) for v in (vx, vy, vz)]
        cov_yz = mp.re(mp.fdot(zip([mp.conj(x) for x in vy], vz))) - mean_y * mean_z
        corr_xz = 2 * mp.re(mp.fdot(zip([mp.conj(x) for x in vx], vz)))
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


# ---------------------------------------------------------------------------
# Squeezing parameters against the closed forms
# ---------------------------------------------------------------------------


def _j2_observables(s):
    j = HalfInt(4)
    state = coherent_initial_state(j)
    return heisenberg_expectations(state, _spectral(4, s))


class TestSqueezingClosedForms:
    def test_unity_at_zero(self):
        obs = _j2_observables(mp.mpf(0))
        assert abs(xi_y(obs) - 1) < mp.mpf("1e-32")
        assert abs(xi_z(obs) - 1) < mp.mpf("1e-32")
        assert abs(_xi_y_closed_j2(mp.mpf(0)) - 1) < mp.mpf("1e-40")
        assert abs(_xi_z_closed_j2(mp.mpf(0)) - 1) < mp.mpf("1e-40")

    def test_closed_forms_on_grid(self):
        j = HalfInt(4)
        report = spectrum(j)
        state = coherent_initial_state(j)
        worst_y = worst_z = worst_c = mp.mpf(0)
        for k in range(1, 81):
            s = mp.mpf(3) * k / 80
            u = propagator_spectral(report, s)
            obs = heisenberg_expectations(state, u)
            value_y, value_z = xi_y(obs), xi_z(obs)
            assert value_y is not None and value_z is not None
            worst_y = max(worst_y, abs(value_y - _xi_y_closed_j2(s)))
            worst_z = max(worst_z, abs(value_z - _xi_z_closed_j2(s)))
            worst_c = max(
                worst_c, abs(obs.corr_xz - _corr_closed_j2(s))
            )
        assert worst_y < mp.mpf("1e-28")
        assert worst_z < mp.mpf("1e-28")
        assert worst_c < mp.mpf("1e-30")

    def test_correlation_zero_at_start(self):
        obs = _j2_observables(mp.mpf(0))
        assert abs(obs.corr_xz) < mp.mpf("1e-32")

    def test_variances_match_closed_forms(self):
        s = mp.mpf("1.234")
        obs = _j2_observables(s)
        assert abs(obs.var_jy - _var_y_closed_j2(s)) < mp.mpf("1e-30")
        assert abs(obs.var_jz - _var_z_closed_j2(s)) < mp.mpf("1e-30")


def _fake_obs_with_mean(mean_jx):
    return ObservableSet(
        j=HalfInt(4),
        chi_t=mp.mpf("0.5"),
        precision=34,
        mean_jx=mp.mpf(mean_jx),
        mean_jy=mp.mpf(0),
        mean_jz=mp.mpf(0),
        second_jx=mp.mpf(4),
        second_jy=mp.mpf(1),
        second_jz=mp.mpf(2),
        cov_yz=mp.mpf("0.25"),
        corr_xz=mp.mpf(0),
    )


class TestUndefinedSqueezing:
    def test_vanishing_mean_spin_gives_none(self):
        obs = _fake_obs_with_mean("1e-20")
        assert xi_y(obs) is None
        assert xi_z(obs) is None
        assert optimal_xi(obs) is None

    def test_above_threshold_defined(self):
        obs = _fake_obs_with_mean("1e-10")
        assert xi_y(obs) is not None
        assert optimal_xi(obs) is not None


# ---------------------------------------------------------------------------
# Optimal squeezing quadrature
# ---------------------------------------------------------------------------


def _scan_min_variance(obs, points=10**4):
    best = None
    for k in range(points):
        phi = mp.pi * k / points
        variance = (
            mp.cos(phi) ** 2 * obs.var_jy
            + mp.sin(phi) ** 2 * obs.var_jz
            + 2 * mp.cos(phi) * mp.sin(phi) * obs.cov_yz
        )
        if best is None or variance < best:
            best = variance
    return best


class TestOptimalXi:
    def test_isotropic_start(self):
        obs = _j2_observables(mp.mpf(0))
        xi_min, angle = optimal_xi(obs)
        assert abs(xi_min - 1) < mp.mpf("1e-32")
        assert angle == 0

    def test_brute_force_scan_example(self):
        obs = _j2_observables(mp.mpf("0.25"))
        xi_min, angle = optimal_xi(obs)
        scan = mp.sqrt(4 * _scan_min_variance(obs)) / abs(obs.mean_jx)
        assert abs(xi_min - scan) < mp.mpf("1e-8")
        assert xi_min <= scan + mp.mpf("1e-30")
        assert xi_min <= xi_y(obs) + mp.mpf("1e-30")
        assert xi_min <= xi_z(obs) + mp.mpf("1e-30")
        variance_at_angle = (
            mp.cos(angle) ** 2 * obs.var_jy
            + mp.sin(angle) ** 2 * obs.var_jz
            + 2 * mp.cos(angle) * mp.sin(angle) * obs.cov_yz
        )
        half_sum = (obs.var_jy + obs.var_jz) / 2
        radius = mp.sqrt(((obs.var_jy - obs.var_jz) / 2) ** 2 + obs.cov_yz**2)
        assert abs(variance_at_angle - (half_sum - radius)) < mp.mpf("1e-30")

    def test_scan_agreement_random_pairs(self):
        rng = random.Random(SEED + 7)
        for _ in range(50):
            twoj = rng.randint(1, 10)
            j = _spin(twoj)
            state = coherent_initial_state(j)
            tau = mp.mpf(rng.uniform(0.05, 3.0))
            obs = heisenberg_expectations(state, _spectral(twoj, tau))
            result = optimal_xi(obs)
            if result is None:
                continue
            xi_min, _ = result
            scan = mp.sqrt(
                mp.mpf(twoj) * _scan_min_variance(obs, points=2000)
            ) / abs(obs.mean_jx)
            assert xi_min <= scan + mp.mpf("1e-25")
            assert scan - xi_min < mp.mpf("1e-4")

    def test_bounded_by_axis_parameters_on_grid(self):
        j = HalfInt(4)
        report = spectrum(j)
        state = coherent_initial_state(j)
        for k in range(1, 41):
            s = mp.mpf(3) * k / 40
            u = propagator_spectral(report, s)
            obs = heisenberg_expectations(state, u)
            result = optimal_xi(obs)
            assert result is not None
            xi_min, _ = result
            assert xi_min <= xi_y(obs) + mp.mpf("1e-30")
            assert xi_min <= xi_z(obs) + mp.mpf("1e-30")


def _squeezing_bits(values):
    """Raw bits and types of squeezing columns, None and tuples kept."""
    if values is None:
        return None
    if isinstance(values, tuple):
        return tuple(map(_squeezing_bits, values))
    return type(values), values._mpf_


def _package_squeezing(obs):
    return (obs.var_jx, obs.var_jy, obs.var_jz, xi_y(obs), xi_z(obs), optimal_xi(obs))


def _observables(precision=34, **values):
    """An ObservableSet at j = 2 whose fields are the given decimal texts,
    rounded at ``precision``; unnamed means and cov_yz are zero, second
    moments one."""
    fields = dict(mean_jx="1.5", mean_jy="0", mean_jz="0", second_jx="3", second_jy="1",
                  second_jz="1", cov_yz="0", corr_xz="0")
    fields.update(values)
    with mp.workdps(precision):
        return ObservableSet(j=HalfInt(4), chi_t=mp.mpf("0.5"), precision=precision,
                             **{name: mp.mpf(text) for name, text in fields.items()})


def _mean_floor(precision):
    with mp.workdps(precision):
        return mp.nstr(mp.mpf(10) ** (-(precision // 2)), precision + 5)


# Each branch of the squeezing columns: |<Jx>| below, at and just above the
# definedness floor, and negative; an isotropic covariance (radius zero,
# and nonzero below the tolerance) and one just above it; a covariance
# that makes v_min negative; a clamped variance; each quadrant of the angle.
SQUEEZING_EDGES = {
    "mean_below": dict(mean_jx="1e-20"),
    "mean_at_floor": dict(mean_jx=_mean_floor(34)),
    "mean_at_floor_p15": dict(precision=15, mean_jx=_mean_floor(15)),
    "mean_above_floor": dict(mean_jx="1.0000001e-17"),
    "mean_negative": dict(mean_jx="-0.75"),
    "isotropic": dict(second_jy="0.5", second_jz="0.5"),
    "nearly_isotropic": dict(second_jy="0.5", second_jz="0.5", cov_yz="1e-31"),
    "just_anisotropic": dict(second_jy="0.5", second_jz="0.5", cov_yz="1e-28"),
    "v_min_negative": dict(second_jy="1", second_jz="1", cov_yz="2"),
    "clamped": dict(mean_jy="1", second_jy="0.5"),
    "quadrant_1": dict(second_jy="0.25", second_jz="0.75", cov_yz="-0.125"),
    "quadrant_2": dict(second_jy="0.75", second_jz="0.25", cov_yz="-0.125"),
    "quadrant_3": dict(second_jy="0.75", second_jz="0.25", cov_yz="0.125", precision=50),
    "quadrant_4": dict(second_jy="0.25", second_jz="0.75", cov_yz="0.125", precision=20),
}


class TestSqueezingColumnsMatchObjectCode:
    """The variances, xi_y, xi_z and optimal_xi on raw libmp values give the
    bits the mpf operators give inside mp.workdps (_oracles)."""

    @pytest.mark.parametrize("edge", SQUEEZING_EDGES)
    def test_edges(self, edge):
        obs = _observables(**SQUEEZING_EDGES[edge])
        got = _package_squeezing(obs)
        assert _squeezing_bits(got) == _squeezing_bits(object_squeezing(obs))
        if edge.startswith("mean_below") or edge == "mean_at_floor":
            assert got[3:] == (None, None, None)
        if edge == "v_min_negative":
            assert got[5][0] == 0
        if edge in ("isotropic", "nearly_isotropic", "just_anisotropic"):
            assert (got[5][1] == 0) is (edge != "just_anisotropic")

    @pytest.mark.parametrize("twoj", [1, 2, 4, 5, 8, 13])
    def test_evolved_observables(self, twoj):
        for precision in (15, 20, 34, 50):
            report = spectrum(_spin(twoj), precision)
            state = coherent_initial_state(_spin(twoj), precision)
            for chi_t in ("0", "0.013", "0.7", "-2.3", "4.5"):
                u = propagator_spectral(report, chi_t, precision)
                obs = heisenberg_expectations(state, u, precision)
                assert _squeezing_bits(_package_squeezing(obs)) == _squeezing_bits(
                    object_squeezing(obs)
                )


# ---------------------------------------------------------------------------
# Time series
# ---------------------------------------------------------------------------


class TestTimeSeries:
    def test_grid_and_columns(self):
        series = time_series(HalfInt(4), 1.0, 3.0, 7)
        assert len(series) == 7
        assert series.grid[0] == 0
        assert series.grid[-1] == 3
        steps = [
            series.grid[i + 1] - series.grid[i] for i in range(6)
        ]
        assert all(abs(d - mp.mpf(1) / 2) < mp.mpf("1e-33") for d in steps)
        assert set(series.columns) == set(TIME_SERIES_COLUMNS)

    @pytest.mark.parametrize("twoj", [1, 4, 5])
    def test_columns_equal_per_point_calls(self, twoj):
        j = _spin(twoj)
        # chi·t on this grid (0, 1/2, 1, 3/2) is exact at every precision.
        series = time_series(j, 1, Fraction(3, 2), 4)
        assert list(series.columns) == list(TIME_SERIES_COLUMNS)
        report = spectrum(j)
        state = coherent_initial_state(j)
        for i, chi_t in enumerate(series.grid):
            obs = heisenberg_expectations(state, propagator_spectral(report, chi_t))
            expected = (
                obs.mean_jx,
                obs.var_jy,
                obs.var_jz,
                xi_y(obs),
                xi_z(obs),
                obs.corr_xz,
                *(optimal_xi(obs) or (None, None)),
            )
            row = tuple(series.columns[name][i] for name in TIME_SERIES_COLUMNS)
            assert row == expected

    def test_builds_no_dense_operator(self, monkeypatch):
        # Each grid point's propagator stays in its rows; only the test's
        # dense form builds a dense operator.
        built = []
        original = DenseOperator.__post_init__
        monkeypatch.setattr(
            DenseOperator, "__post_init__", lambda self: built.append(self.dim) or original(self)
        )
        time_series(2, 1, Fraction(5, 2), 201)
        assert built == []
        dense_propagator(_spectral(4, 0.3))
        assert built == [5]

    def test_one_set_up_per_working_precision(self, monkeypatch):
        # The guard digits, and so the working precision, depend on chi_t;
        # the series polishes its nodes once for each working precision its
        # grid needs, however many points share it.
        guards, polished = [], []
        guard_digits, polish_nodes = evolution._interpolation_guard_digits, evolution._polish_nodes

        def counted_guard(*args):
            guards.append(guard_digits(*args))
            return guards[-1]

        def counted_polish(*args):
            polished.append(args)
            return polish_nodes(*args)

        monkeypatch.setattr(evolution, "_interpolation_guard_digits", counted_guard)
        monkeypatch.setattr(evolution, "_polish_nodes", counted_polish)
        # The counts are kept in this process: a forked block's calls are not.
        monkeypatch.setattr(evolution, "_cpu_count", lambda: 1)
        time_series(HalfInt(4), 1, Fraction(23, 10), 201, 34)
        assert len(guards) == 201
        assert 1 < len(polished) == len(set(guards)) < 201

    @pytest.mark.parametrize("steps", [1, 0, -2, True, 2.0])
    def test_bad_steps_rejected(self, steps):
        with pytest.raises(InvalidInputError):
            time_series(HalfInt(4), 1.0, 1.0, steps)

    @pytest.mark.parametrize("t_max", [0, -1.5, float("nan")])
    def test_bad_t_max_rejected(self, t_max):
        with pytest.raises(InvalidInputError):
            time_series(HalfInt(4), 1.0, t_max, 3)

    def test_the_time_bound_itself_is_accepted(self, monkeypatch):
        # chi·t_max is compared exactly where both are exact numbers, before
        # the spectrum is computed; the grid's rounded chi_t may exceed it.
        bound = evolution.MAX_ABS_CHI_T
        for chi, t_max in ((Fraction(bound // 10), 10), (1, Fraction(bound)), (-bound, 1)):
            assert len(time_series(HalfInt(4), chi, t_max, 3)) == 3
        monkeypatch.setattr(evolution, "spectrum", None)
        for chi, t_max in ((Fraction(bound // 5), 10), (1, Fraction(bound) + 1),
                           (mp.mpf(2) * bound, 1)):
            with pytest.raises(InvalidInputError, match="chi_t"):
                time_series(HalfInt(4), chi, t_max, 3)

    def test_first_row_is_initial_state(self):
        series = time_series(HalfInt(4), 1.0, 2.0, 5)
        assert abs(series.columns["jx_mean"][0] - 2) < mp.mpf("1e-32")
        assert abs(series.columns["xi_y"][0] - 1) < mp.mpf("1e-32")
        assert abs(series.columns["xi_z"][0] - 1) < mp.mpf("1e-32")
        assert abs(series.columns["corr_xz"][0]) < mp.mpf("1e-32")
        assert abs(series.columns["xi_opt"][0] - 1) < mp.mpf("1e-32")
        assert series.columns["opt_angle"][0] == 0

    def test_matches_closed_forms(self):
        series = time_series(HalfInt(4), 1.0, 2.5, 11)
        for i, s in enumerate(series.grid):
            assert abs(
                series.columns["jx_mean"][i] - _jx_closed_j2(s)
            ) < mp.mpf("1e-30")
            assert abs(
                series.columns["var_jy"][i] - _var_y_closed_j2(s)
            ) < mp.mpf("1e-30")
            assert abs(
                series.columns["corr_xz"][i] - _corr_closed_j2(s)
            ) < mp.mpf("1e-30")

    def test_coupling_scale_invariance(self):
        fast = time_series(HalfInt(4), 2.0, 1.5, 4)
        slow = time_series(HalfInt(4), 1.0, 3.0, 4)
        for i in range(4):
            assert abs(fast.grid[i] - slow.grid[i]) < mp.mpf("1e-32")
            for name in TIME_SERIES_COLUMNS:
                a, b = fast.columns[name][i], slow.columns[name][i]
                if a is None or b is None:
                    assert a is None and b is None
                else:
                    assert abs(a - b) < mp.mpf("1e-30")

    def test_zero_coupling_constant_rows(self):
        series = time_series(HalfInt(4), 0.0, 2.0, 4)
        assert [float(g) for g in series.grid] == pytest.approx(
            [0.0, 2 / 3, 4 / 3, 2.0]
        )
        for i in range(4):
            assert abs(series.columns["jx_mean"][i] - 2) < mp.mpf("1e-32")
            assert abs(series.columns["xi_y"][i] - 1) < mp.mpf("1e-32")

    def test_spin_half_trivial(self):
        series = time_series(HalfInt(1), 1.0, 3.0, 5)
        for i in range(5):
            assert abs(
                series.columns["jx_mean"][i] - mp.mpf(1) / 2
            ) < mp.mpf("1e-32")
            assert abs(
                series.columns["var_jy"][i] - mp.mpf(1) / 4
            ) < mp.mpf("1e-32")
            assert abs(
                series.columns["var_jz"][i] - mp.mpf(1) / 4
            ) < mp.mpf("1e-32")
            assert abs(series.columns["xi_y"][i] - 1) < mp.mpf("1e-32")
            assert abs(series.columns["xi_z"][i] - 1) < mp.mpf("1e-32")
            assert abs(series.columns["corr_xz"][i]) < mp.mpf("1e-32")

    def test_negative_coupling(self):
        series = time_series(HalfInt(4), -1.0, 1.0, 3)
        assert series.grid[-1] == -1
        mirror = time_series(HalfInt(4), 1.0, 1.0, 3)
        for i in range(3):
            assert abs(
                series.columns["var_jy"][i] - mirror.columns["var_jy"][i]
            ) < mp.mpf("1e-30")
            assert abs(
                series.columns["corr_xz"][i] + mirror.columns["corr_xz"][i]
            ) < mp.mpf("1e-30")

    def test_deterministic(self):
        first = time_series(HalfInt(5), 1.0, 1.7, 4)
        second = time_series(HalfInt(5), 1.0, 1.7, 4)
        assert first.grid == second.grid
        for name in TIME_SERIES_COLUMNS:
            assert first.columns[name] == second.columns[name]

    def test_fraction_inputs(self):
        from fractions import Fraction

        series = time_series(HalfInt(4), Fraction(1, 2), Fraction(2), 3)
        assert abs(series.grid[-1] - 1) < mp.mpf("1e-33")


def _raw_series(series):
    """The grid and every column as raw mpf tuples, None kept."""
    def raw(values):
        return [None if v is None else (type(v), v._mpf_) for v in values]

    return raw(series.grid), {name: raw(v) for name, v in series.columns.items()}


def _failing_from(index, steps, t_max, in_child=None):
    """heisenberg_expectations that raises NumericFailureError at grid points
    index and later (chi = 1, so chi_t is the grid time), and runs
    ``in_child`` first in a forked process."""
    parent, original = os.getpid(), evolution.heisenberg_expectations
    start = mp.mpf(t_max) * (index - 0.5) / (steps - 1)

    def failing(state, u, precision):
        if in_child is not None and os.getpid() != parent:
            in_child()
        if u.chi_t >= start:
            raise NumericFailureError(f"injected at chi_t = {float(u.chi_t):.6g}")
        return original(state, u, precision)

    return failing


class TestTimeSeriesSplit:
    """The grid split across CPUs, one forked child per block after the first."""

    @pytest.mark.parametrize("twoj", range(1, 13))
    def test_every_bit_kept_on_one_two_and_three_cpus(self, set_cpus, forks, twoj):
        for steps in (2, 3, 11):
            results = []
            for count in (1, 2, 3):
                set_cpus(count)
                forks.clear()
                series = time_series(_spin(twoj), Fraction(-2, 3), Fraction(12, 5), steps, 34)
                results.append(_raw_series(series))
                assert len(forks) == min(count, steps) - 1
            assert results[0] == results[1] == results[2], steps

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("index", [7, 10])
    def test_failure_in_a_child_raises_as_on_one_cpu(self, set_cpus, monkeypatch, count, index):
        monkeypatch.setattr(evolution, "heisenberg_expectations", _failing_from(index, 11, 3))
        raised = []
        for cpus in (1, count):
            set_cpus(cpus)
            with pytest.raises(NumericFailureError) as info:
                time_series(HalfInt(4), 1, 3, 11)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        assert raised[0][1] == f"injected at chi_t = {3 * index / 10:.6g}"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_in_the_first_block_leaves_no_child(self, set_cpus, monkeypatch):
        # The child's block would take a minute; the first block fails at
        # once, and the child is killed and reaped before the error leaves.
        set_cpus(2)
        monkeypatch.setattr(
            evolution, "heisenberg_expectations", _failing_from(2, 11, 3, lambda: time.sleep(60))
        )
        start = time.monotonic()
        with pytest.raises(NumericFailureError, match="injected at chi_t = 0.6"):
            time_series(HalfInt(4), 1, 3, 11)
        assert time.monotonic() - start < 20
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_without_payload_gives_the_sequential_result(self, set_cpus, monkeypatch):
        set_cpus(1)
        expected = _raw_series(time_series(_spin(5), 1, 3, 11))
        set_cpus(3)
        monkeypatch.setattr(
            evolution, "heisenberg_expectations", _failing_from(11, 11, 3, lambda: os._exit(0))
        )
        assert _raw_series(time_series(_spin(5), 1, 3, 11)) == expected
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_incomplete_payload_is_refused(self, set_cpus, monkeypatch):
        # Every cut of a payload is refused, and the whole one read back.
        payload = marshal.dumps([(mp.mpf(1)._mpf_,) + (None,) * 8] * 2)
        for cut in range(len(payload) + 1):
            read_fd, write_fd = os.pipe()
            os.write(write_fd, payload[:cut])
            os.close(write_fd)
            try:
                got = evolution._payload(os.getpid(), read_fd)
            finally:
                os.close(read_fd)
            assert got == (marshal.loads(payload) if cut == len(payload) else None)
        # Through the fork helper, a child's cut payload and a complete one
        # of the wrong length are refused too: the child's block, points 3
        # and 4, sends its values cut short or one value only, and both are
        # computed here.
        set_cpus(2)
        parent, here = os.getpid(), []

        def point(i):
            if os.getpid() == parent:
                here.append(i)
            return (mp.mpf(i), None)

        for dumps in (lambda values: marshal.dumps(values)[:-7],
                      lambda values: marshal.dumps(values[:-1])):
            monkeypatch.setattr(evolution, "marshal",
                                SimpleNamespace(dumps=dumps, loads=marshal.loads))
            here.clear()
            assert evolution._points_in_blocks(point, 5) == [(mp.mpf(i), None) for i in range(5)]
            assert here == [0, 1, 2, 3, 4]

    def test_stalled_child_gives_the_sequential_result(self, set_cpus, monkeypatch):
        # The child blocks for a minute; past its deadline it is killed and
        # its block computed here.
        set_cpus(1)
        expected = _raw_series(time_series(_spin(5), 1, 3, 11))
        set_cpus(2)
        monkeypatch.setattr(
            evolution, "heisenberg_expectations", _failing_from(11, 11, 3, lambda: time.sleep(60))
        )
        start = time.monotonic()
        assert _raw_series(time_series(_spin(5), 1, 3, 11)) == expected
        assert time.monotonic() - start < 20
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_busy_child_is_waited_for(self, set_cpus, monkeypatch):
        # The child's last point keeps a CPU busy for 1.5 s, far beyond
        # three times this process's block plus the (shortened) grace; as
        # its CPU time advances it is waited for, and this process computes
        # only its own block, points 0 to 5.
        set_cpus(1)
        expected = _raw_series(time_series(_spin(5), 1, 3, 11))
        set_cpus(2)
        monkeypatch.setattr(evolution, "_CHILD_GRACE_S", 0.2)
        parent, original = os.getpid(), evolution.heisenberg_expectations
        here = []

        def expectations(state, u, precision):
            if os.getpid() == parent:
                here.append(u.chi_t)
            elif u.chi_t > mp.mpf("2.9"):
                busy_until = time.process_time() + 1.5
                while time.process_time() < busy_until:
                    pass
            return original(state, u, precision)

        monkeypatch.setattr(evolution, "heisenberg_expectations", expectations)
        start = time.monotonic()
        assert _raw_series(time_series(_spin(5), 1, 3, 11)) == expected
        assert time.monotonic() - start > 1.5
        assert len(here) == 6

    def test_no_fork_on_one_cpu(self, set_cpus, monkeypatch):
        set_cpus(1)
        expected = _raw_series(time_series(_spin(3), 1, 2, 5))

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert _raw_series(time_series(_spin(3), 1, 2, 5)) == expected

    def test_no_fork_where_forking_is_unsafe(self, set_cpus, monkeypatch):
        # Two CPUs, but the fork check refuses (another OS thread, or not
        # Linux): the second block is computed here.
        set_cpus(1)
        expected = _raw_series(time_series(_spin(3), 1, 2, 5))
        set_cpus(2)
        monkeypatch.setattr(evolution, "_may_fork", lambda: False)

        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert _raw_series(time_series(_spin(3), 1, 2, 5)) == expected

    def test_no_affinity_or_fork_call_runs_one_block(self, set_cpus, monkeypatch):
        # As on Windows, which has neither call.
        set_cpus(1)
        expected = _raw_series(time_series(_spin(3), 1, 2, 5))
        monkeypatch.undo()
        monkeypatch.delattr(os, "fork")
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(sys, "platform", "win32")
        assert evolution._cpu_count() == 1
        assert not evolution._may_fork()
        assert _raw_series(time_series(_spin(3), 1, 2, 5)) == expected

    def test_fork_only_from_a_single_os_thread(self):
        # A fresh interpreter, the same claiming to be macOS, then a Python
        # thread, then a native one (faulthandler's watchdog), which
        # threading does not count.
        script = (
            "import faulthandler, sys, threading\n"
            "from countertwist import evolution\n"
            "print(evolution._may_fork())\n"
            "platform, sys.platform = sys.platform, 'darwin'\n"
            "print(evolution._may_fork())\n"
            "sys.platform = platform\n"
            "release = threading.Event()\n"
            "waiter = threading.Thread(target=release.wait)\n"
            "waiter.start()\n"
            "print(evolution._may_fork())\n"
            "release.set()\n"
            "waiter.join()\n"
            "faulthandler.dump_traceback_later(600)\n"
            "print(threading.active_count(), evolution._may_fork())\n"
        )
        src = os.path.dirname(os.path.dirname(evolution.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        linux = sys.platform == "linux"
        assert done.stdout.split() == [str(linux), "False", "False", "1", "False"]

    @pytest.mark.parametrize(
        "files, cpus",
        [
            ((("max 100000",), ()), None),
            ((("150000 100000",), ()), 2),
            ((("200000 100000\n",), ()), 2),
            (((), ("-1", "100000")), None),
            (((), ("300000", "100000")), 3),
            (((), ("50000", "100000")), 1),
            (((), ()), None),
            ((("garbage",), ("100000", "100000")), 1),
        ],
    )
    def test_cgroup_quota_caps_the_cpu_count(self, monkeypatch, tmp_path, files, cpus):
        paths = []
        for version, texts in enumerate(files):
            names = [tmp_path / f"v{version}_{k}" for k in range(2 - (version == 0))]
            for name, text in zip(names, texts):
                name.write_text(text)
            paths.append(tuple(str(name) for name in names))
        monkeypatch.setattr(evolution, "_CPU_QUOTA_FILES", tuple(paths))
        assert evolution._cpu_quota() == cpus
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert evolution._cpu_count() == (cpus or 64)

    def test_failed_fork_computes_the_block_here(self, set_cpus, monkeypatch):
        set_cpus(1)
        expected = _raw_series(time_series(_spin(3), 1, 2, 5))
        set_cpus(2)

        def failed_fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", failed_fork)
        assert _raw_series(time_series(_spin(3), 1, 2, 5)) == expected
