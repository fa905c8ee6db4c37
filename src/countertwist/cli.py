"""Command-line front end for the countertwisting toolkit.

Subcommands
-----------
``charpoly``
    Exact characteristic polynomial of one spin's matrix, with parity and
    degeneracy metadata (coefficients as decimal big-integer strings).
``spectrum``
    Eigenvalue report — JSON that round-trips losslessly, or readable text.
``classify``
    Closed-form reachability class of a spin (radical / hypergeometric /
    numeric-only ladder).
``verify``
    Property suite: chiral anticommutation, eigenvalue pairing, unitarity,
    Casimir and energy conservation, agreement of the two independent
    propagator routes, and (at j = 2) the closed-form propagator entries.
``evolve``
    Squeezing time series on a uniform grid, exported as plot-ready CSV.
``table1``
    Compare computed polynomials against the bundled reference table rows.

Exit codes: 0 success, 1 property or reference-row failure, 2 invalid
input, 3 numeric failure.  Output goes to stdout unless ``--output`` names
a file.  All formatting is locale-independent (``.`` decimal point, LF line
endings) and byte-stable across runs for an identical configuration.
"""

from __future__ import annotations

import argparse
import enum
import functools
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, NamedTuple, Optional, Sequence

from mpmath import mp

from ._version import __version__
from .charpoly import (
    IntPolynomial,
    SolvabilityCategory,
    char_poly_exact,
    classify_solvability,
    decimal_text,
    degeneracy_report,
    table1_reference,
    table1_spins,
)
from .errors import (
    CountertwistError,
    IllConditionedError,
    InternalConsistencyError,
    InvalidInputError,
    NotAvailableError,
    NumericFailureError,
    SpectralConsistencyError,
)
from .evolution import (
    MAX_STEPS,
    TIME_SERIES_COLUMNS,
    PropagatorMethod,
    _taylor_in_child,
    coherent_initial_state,
    heisenberg_expectations,
    propagator_spectral,
    time_series,
)
from .spectrum import SpectrumReport, _json_document, spectrum, spectrum_to_json
from .spin_algebra import (
    DEFAULT_PRECISION,
    MAX_PRECISION,
    MIN_PRECISION,
    DenseOperator,
    HalfInt,
    _mpf_from_fraction,
    _require_decimal_exponent,
    build_h_ta,
)

# Resource caps, checked before any arithmetic: MAX_PRECISION and
# MAX_TWICE_SPIN are set beside MIN_PRECISION in ``spin_algebra``, MAX_STEPS
# beside ``time_series``.  The library refuses values past them too.

# Verification tolerances: structural identities at 1e-12, conserved
# quantities at 1e-10 (scaled by the magnitude of the reference value; the
# energy, which carries one factor of chi, in units of |chi|).
TOL_STRUCTURE = "1e-12"
TOL_CONSERVATION = "1e-10"
TOL_ORACLE = "1e-10"

# Dimensionless sample time for the dynamic checks in ``verify``: generic
# (avoids special angles) and small enough to stay cheap at default precision.
VERIFY_SAMPLE_TIME = Fraction(7, 10)


class Command(enum.Enum):
    """Dispatchable subcommands."""

    CHARPOLY = "charpoly"
    SPECTRUM = "spectrum"
    CLASSIFY = "classify"
    VERIFY = "verify"
    EVOLVE = "evolve"
    TABLE1 = "table1"


def _rational(text: str) -> Fraction:
    """Exact rational argument; a zero denominator or a decimal exponent
    beyond the bound of ``spin_algebra._require_decimal_exponent`` is a
    usage error."""
    try:
        _require_decimal_exponent(text)
        return Fraction(text)
    except InvalidInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


def _spin(text: str) -> HalfInt:
    """Spin argument; the parse error, not argparse's generic one, is shown."""
    try:
        return HalfInt.from_string(text)
    except InvalidInputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Subcommand(NamedTuple):
    """Parser entry: help line, allowed formats (the first is the default)
    and the options beyond --j, --precision, --format and --output."""

    help: str
    formats: tuple[str, ...]
    options: tuple[tuple[str, dict], ...] = ()


_CHI_OPTION = ("--chi", dict(
    type=_rational, default=Fraction(1),
    help="coupling strength as exact rational text (default 1)",
))

_SUBCOMMANDS: dict[Command, _Subcommand] = {
    Command.CHARPOLY: _Subcommand(
        "exact characteristic polynomial with parity/degeneracy metadata",
        ("text", "json"),
    ),
    Command.SPECTRUM: _Subcommand(
        "eigenvalue report (JSON round-trips losslessly)", ("json", "text")
    ),
    Command.CLASSIFY: _Subcommand(
        "closed-form reachability class of a spin", ("text", "json")
    ),
    Command.VERIFY: _Subcommand(
        "property suite with PASS/FAIL per property", ("text",), (
            _CHI_OPTION,
            ("--inject-fault", dict(
                action="store_true",
                help="flip one coupling sign first; the suite must then fail",
            )),
        ),
    ),
    Command.EVOLVE: _Subcommand(
        "squeezing time series as plot-ready CSV", ("csv",), (
            _CHI_OPTION,
            ("--t-max", dict(
                type=_rational, required=True,
                help="grid endpoint (exact rational text, e.g. 3 or 5/2)",
            )),
            ("--steps", dict(
                type=int, required=True,
                help="number of grid points including both endpoints "
                f"(2 to {MAX_STEPS})",
            )),
        ),
    ),
    Command.TABLE1: _Subcommand(
        "compare computed polynomials against the bundled reference rows", ("text",)
    ),
}


@dataclass(frozen=True)
class RunConfig:
    """One fully-validated command invocation.

    :param command: which subcommand runs.
    :param j: spin magnitude (None only for the all-rows table report).
    :param chi: coupling strength, exact rational.
    :param t_max: grid endpoint for the time series.
    :param steps: number of grid points (2 .. MAX_STEPS for ``evolve``).
    :param precision: working decimal digits (MIN_PRECISION .. MAX_PRECISION).
    :param format: output format, restricted per command.
    :param output: destination path, or None for stdout.
    :param inject_fault: flip one coupling sign before verifying — a
        negative control that must make the property suite fail.
    """

    command: Command
    j: Optional[HalfInt]
    chi: Fraction = Fraction(1)
    t_max: Optional[Fraction] = None
    steps: Optional[int] = None
    precision: int = DEFAULT_PRECISION
    format: str = "text"
    output: Optional[str] = None
    inject_fault: bool = False

    def __post_init__(self) -> None:
        if self.precision < MIN_PRECISION:
            raise InvalidInputError(
                f"precision must be at least {MIN_PRECISION}, got {self.precision}"
            )
        if self.precision > MAX_PRECISION:
            raise InvalidInputError(
                f"precision must be at most {MAX_PRECISION}, got {self.precision}"
            )
        formats = _SUBCOMMANDS[self.command].formats
        if self.format not in formats:
            raise InvalidInputError(
                f"format {self.format!r} is not available for "
                f"{self.command.value!r}; choose from {list(formats)}"
            )
        if self.command is Command.EVOLVE:
            if self.t_max is None:
                raise InvalidInputError("evolve requires --t-max")
            if self.steps is None or self.steps < 2:
                raise InvalidInputError(
                    f"evolve requires at least 2 grid points, got {self.steps}"
                )
            if self.steps > MAX_STEPS:
                raise InvalidInputError(
                    f"evolve allows at most {MAX_STEPS} grid points, got {self.steps}"
                )
        if self.command is not Command.TABLE1 and self.j is None:
            raise InvalidInputError(f"{self.command.value} requires --j")
        if self.j == HalfInt(0) and self.command not in (
            Command.CHARPOLY, Command.TABLE1
        ):
            raise InvalidInputError(f"{self.command.value} needs j >= 1/2")


# ---------------------------------------------------------------------------
# Formatting helpers
# ---------------------------------------------------------------------------


def significant_digits(precision: int) -> int:
    """Digits used for floating output: never fewer than a double's worth."""
    return max(17, precision - 10)


def _format_real(value, digits: int) -> str:
    """Decimal text for a real scalar; empty string for an undefined gap."""
    if value is None:
        return ""
    return mp.nstr(value, digits)


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output is None:
        sys.stdout.write(text)
        return
    # newline='' keeps the LF line endings byte-exact on every platform
    with open(cfg.output, "w", encoding="utf-8", newline="") as stream:
        stream.write(text)


def _metadata_pairs(cfg: RunConfig) -> list[tuple[str, str]]:
    return [
        ("version", __version__),
        ("j", str(cfg.j)),
        ("chi", str(cfg.chi)),
        ("omega", "0"),
        ("precision", str(cfg.precision)),
    ]


# ---------------------------------------------------------------------------
# charpoly / classify / spectrum commands
# ---------------------------------------------------------------------------


def _polynomial_parity(poly: IntPolynomial) -> str:
    if poly.is_odd():
        return "odd"
    if poly.is_even():
        return "even"
    return "none"


def cmd_charpoly(cfg: RunConfig) -> int:
    """Exact characteristic polynomial plus parity/degeneracy metadata."""
    poly = char_poly_exact(cfg.j)
    report = degeneracy_report(cfg.j)
    if cfg.format == "json":
        payload = {
            "tool": "countertwist",
            "version": __version__,
            "kind": "charpoly-report",
            "j": str(cfg.j),
            "dimension": cfg.j.n_states,
            "degree": poly.degree,
            "parity": _polynomial_parity(poly),
            "leading_coefficient": decimal_text(poly.leading_coefficient),
            "coefficients": [decimal_text(c) for c in poly.coefficients],
            "discriminant": decimal_text(report.discriminant_full),
            "degenerate": report.degenerate,
        }
        _emit(cfg, _json_document(payload))
        return 0
    lines = [
        "countertwist charpoly",
        f"j = {cfg.j}",
        f"dimension = {cfg.j.n_states}",
        f"degree = {poly.degree}",
        f"parity = {_polynomial_parity(poly)}",
        f"leading coefficient = {decimal_text(poly.leading_coefficient)}",
        "coefficients (ascending): "
        + ", ".join(decimal_text(c) for c in poly.coefficients),
        f"polynomial: {poly}",
        f"discriminant = {decimal_text(report.discriminant_full)}",
        f"degenerate = {'yes' if report.degenerate else 'no'}",
    ]
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


_CATEGORY_NOTES = {
    SolvabilityCategory.TRIVIAL_ZERO: (
        "the matrix is zero; the only eigenvalue is 0"
    ),
    SolvabilityCategory.RADICALS: (
        "every block polynomial has degree at most 4 in mu = lambda^2; "
        "closed radical forms exist"
    ),
    SolvabilityCategory.HYPERGEOMETRIC: (
        "a block polynomial reaches degree 5 in mu = lambda^2; roots are "
        "expressible through hypergeometric functions but not radicals"
    ),
    SolvabilityCategory.NUMERIC_ONLY: (
        "a block polynomial exceeds degree 5 in mu = lambda^2; certified "
        "arbitrary-precision numerics is the only route"
    ),
}


def cmd_classify(cfg: RunConfig) -> int:
    """Closed-form reachability class of the spin's spectrum."""
    solvability = classify_solvability(cfg.j)
    if cfg.format == "json":
        payload = {
            "tool": "countertwist",
            "version": __version__,
            "kind": "classify-report",
            "j": str(cfg.j),
            "category": solvability.category.name,
            "mu_degree": solvability.mu_degree,
            "note": _CATEGORY_NOTES[solvability.category],
        }
        _emit(cfg, _json_document(payload))
        return 0
    lines = [
        "countertwist classify",
        f"j = {cfg.j}",
        f"category = {solvability.category.name}",
        f"max block degree in mu = lambda^2: {solvability.mu_degree}",
        _CATEGORY_NOTES[solvability.category],
    ]
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


def cmd_spectrum(cfg: RunConfig) -> int:
    """Full eigenvalue report for one spin."""
    report = spectrum(cfg.j, cfg.precision)
    if cfg.format == "json":
        _emit(cfg, spectrum_to_json(report))
        return 0
    digits = significant_digits(cfg.precision)
    lines = [
        "countertwist spectrum",
        f"j = {cfg.j}",
        f"dimension = {report.dimension}",
        f"solvability = {report.solvability.category.name} "
        f"(max mu-degree {report.solvability.mu_degree})",
        f"degenerate = {'yes' if report.degenerate else 'no'}",
        f"pairing verified = {'yes' if report.pairing_verified else 'no'}",
        "eigenvalues (units of the coupling):",
    ]
    for ev in report.eigenvalues:
        line = (
            f"  {_format_real(ev.value, digits)}"
            f"  multiplicity {ev.multiplicity}  {ev.exactness.name}"
        )
        if ev.radical_form is not None:
            line += f"  = {ev.radical_form}"
        lines.append(line)
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# table1 command
# ---------------------------------------------------------------------------


def _coefficient_diff(reference: IntPolynomial, computed: IntPolynomial) -> list[int]:
    """Powers of lambda at which two polynomials disagree."""
    pairs = zip_longest(reference.coefficients, computed.coefficients, fillvalue=0)
    return [k for k, (a, b) in enumerate(pairs) if a != b]


def cmd_table1(cfg: RunConfig) -> int:
    """Compare computed polynomials to the bundled reference-table rows."""
    spins = (cfg.j,) if cfg.j is not None else table1_spins()
    lines = ["countertwist table1"]
    matches = 0
    mismatches = 0
    for j in spins:
        row = table1_reference(j)
        computed = char_poly_exact(j)
        tag = " (QUESTIONABLE row)" if row.questionable else ""
        if row.literal is not None and row.literal == computed:
            matches += 1
            lines.append(f"J={j}: MATCH{tag}")
            continue
        mismatches += 1
        if row.literal is None:
            lines.append(f"J={j}: MISMATCH{tag} — no literal expansion available")
        else:
            powers = _coefficient_diff(row.literal, computed)
            lines.append(f"J={j}: MISMATCH{tag} — differs at powers {powers}")
            lines.append(f"    reference: {row.literal}")
        lines.append(f"    computed:  {computed}")
        if row.note:
            lines.append(f"    note: {row.note}")
    lines.append(f"rows = {len(spins)}, match = {matches}, mismatch = {mismatches}")
    _emit(cfg, "\n".join(lines) + "\n")
    return 0 if mismatches == 0 else 1


# ---------------------------------------------------------------------------
# evolve command
# ---------------------------------------------------------------------------


def cmd_evolve(cfg: RunConfig) -> int:
    """Squeezing time series as CSV with a ``#`` metadata header block."""
    series = time_series(
        cfg.j,
        cfg.chi,
        cfg.t_max,
        cfg.steps,
        precision=cfg.precision,
    )
    digits = significant_digits(cfg.precision)
    lines = ["# countertwist evolve"]
    lines.extend(f"# {key} = {value}" for key, value in _metadata_pairs(cfg))
    lines.append(",".join(("chi_t",) + TIME_SERIES_COLUMNS))
    for i, chi_t in enumerate(series.grid):
        cells = [_format_real(chi_t, digits)]
        cells.extend(
            _format_real(series.columns[name][i], digits)
            for name in TIME_SERIES_COLUMNS
        )
        lines.append(",".join(cells))
    _emit(cfg, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def _flip_first_coupling(h: DenseOperator) -> DenseOperator:
    """Negate one upper coupling entry only — breaks conjugate symmetry.

    The resulting matrix has a negative squared coupling, so its spectrum
    leaves the real axis and every spectral property downstream must fail;
    this is the negative control for the verification suite.
    """
    n = h.dim
    if n < 3:
        raise InvalidInputError(
            f"j = {h.basis.j} has no coupling to fault (dimension {n})"
        )
    rows = [list(row) for row in h.entries]
    rows[0][2] = -rows[0][2]
    return DenseOperator(
        basis=h.basis,
        entries=tuple(tuple(row) for row in rows),
        precision=h.precision,
        scale=h.scale,
        hermitian=False,
    )


def _matrix_spectral_consistency(h: DenseOperator, precision: int) -> None:
    """Certify from the matrix itself that real ± eigenvalue pairs exist.

    Every two-step product h[a, a+2]·h[a+2, a] must be a nonnegative real
    (it equals |coupling|² for a conjugate-symmetric matrix); a negative or
    complex product forces eigenvalues off the real axis.

    :raises SpectralConsistencyError: some product is not a nonnegative real.
    """
    n = h.dim
    with mp.workdps(precision + 10):
        products = [h.entry(a, a + 2) * h.entry(a + 2, a) for a in range(n - 2)]
        scale = max((abs(w) for w in products), default=mp.mpf(0))
        tol = mp.mpf(10) ** (-precision + 8) * (1 + scale)
        for a, w in enumerate(products):
            if abs(mp.im(w)) > tol or mp.re(w) < -tol:
                raise SpectralConsistencyError(
                    f"squared coupling between levels {a} and {a + 2} is "
                    f"{mp.nstr(w, 5)}, not a nonnegative real; eigenvalues "
                    "cannot form real +/- pairs"
                )


def _pairing_deviation(report: SpectrumReport, precision: int):
    """Worst |λ_k + λ_mirror| over the multiplicity-expanded spectrum."""
    values = []
    for ev in report.eigenvalues:
        values.extend([ev.value] * ev.multiplicity)
    values.sort()
    with mp.workdps(precision + 10):
        return max(
            abs(values[i] + values[len(values) - 1 - i]) for i in range(len(values))
        )


def _closed_form_rows_j2(chi_t, precision: int):
    """Reference propagator entries for j = 2 (m-descending basis).

    Derived by exponentiating the two three-level chains: the even-m chain
    mixes through cos/sin of 2·sqrt(3)·s and the odd-m chain rotates at
    angle 3s, with s the dimensionless time.
    """
    with mp.workdps(precision + 10):
        s = _mpf_from_fraction(chi_t)
        root3 = mp.sqrt(3)
        c = mp.cos(2 * root3 * s)
        sn = mp.sin(2 * root3 * s)
        c3 = mp.cos(3 * s)
        s3 = mp.sin(3 * s)
        over_rt2 = 1 / mp.sqrt(2)
        zero = mp.mpf(0)
        return (
            ((1 + c) / 2, zero, -sn * over_rt2, zero, (1 - c) / 2),
            (zero, c3, zero, -s3, zero),
            (sn * over_rt2, zero, c, zero, -sn * over_rt2),
            (zero, s3, zero, c3, zero),
            ((1 - c) / 2, zero, sn * over_rt2, zero, (1 + c) / 2),
        )


def _nonzero_rows(h: DenseOperator) -> list:
    """h's nonzero entries, row by row, as (column, entry) in ascending
    column.  A truth test stands for ``!= 0`` on every mpmath number."""
    return [[(b, x) for b, x in enumerate(row) if x] for row in h.entries]


def _chiral_deviation(h_rows: list, chi_value, precision: int) -> tuple:
    """(max |HR + RH|, max |H|) for H = h/chi, from h's nonzero entries.

    R is the signed antidiagonal of ``chiral_operator``: R[n−1−c][c] =
    (−1)^c.  So (HR)[a][n−1−k] = (−1)^(n−1−k)·H[a][k] and
    (RH)[n−1−a][k] = (−1)^a·H[a][k], each entry of HR + RH is the sum of at
    most two of H's entries, and every other entry is an exact zero.  The
    values are those of the dense products at ``precision``: H's entries
    are the rounded c·x of ``DenseOperator.scaled``, with c = 1/chi formed
    at precision + 10 and rounded to ``precision``; a sign is an exact
    negation, a product's fsum of one term is that term, and an entry with
    one term is the sum of that term and an exact zero, the term itself.
    """
    n = len(h_rows)
    with mp.workdps(precision + 10):
        factor = 1 / chi_value
    with mp.workdps(precision):
        c = mp.mpc(factor)
        scaled = [(a, k, c * x) for a, row in enumerate(h_rows) for k, x in row]
        hr, rh = {}, {}
        for a, k, x in scaled:
            hr[a, n - 1 - k] = x if (n - 1 - k) % 2 == 0 else -x
            rh[n - 1 - a, k] = x if a % 2 == 0 else -x
        zero = mp.mpc(0)
        anti = (hr.get(key, zero) + rh.get(key, zero) for key in hr.keys() | rh.keys())
        return (max(map(abs, anti), default=mp.mpf(0)),
                max((abs(x) for _, _, x in scaled), default=mp.mpf(0)))


def _energy(h_rows: list, amplitudes: tuple, precision: int):
    """Re <psi|h|psi>: h·psi by ``mp.fsum`` over each row's nonzero entries,
    whose products are all the nonzero terms of the dense row's, then
    ``mp.fdot`` against the conjugated amplitudes at precision + 10."""
    with mp.workdps(precision):
        h_amps = tuple(mp.fsum(x * amplitudes[b] for b, x in row) for row in h_rows)
    with mp.workdps(precision + 10):
        return mp.re(mp.fdot(h_amps, amplitudes, conjugate=True))


def _evolved(rows, amplitudes: tuple, precision: int) -> tuple:
    """φ = U·ψ from a propagator's rows, each entry by ``mp.fdot`` over the
    row's nonzero entries at precision + 10.  fdot's sum skips the exact
    zero products of the dense row, and with one complex pair its result is
    an mpc, as over the dense row; a unitary U has no empty row."""
    with mp.workdps(precision + 10):
        return tuple(
            mp.fdot((mp.make_mpc(pair), amplitudes[c]) for c, pair in row) for row in rows
        )


def _entries(rows) -> list:
    """A propagator's rows as dicts from column to mpc entry; an absent
    column stands for the exact mpc zero of ``Propagator.matrix``."""
    return [{c: mp.make_mpc(pair) for c, pair in row} for row in rows]


def _max_abs_difference(rows, other, precision: int):
    """max |U − V| over two propagators' rows at ``precision``, as
    ``DenseOperator.max_abs_diff`` forms it: a column held by neither row is
    an exact zero in the difference, so only columns held by either are
    formed."""
    zero = mp.mpc(0)
    with mp.workdps(precision):
        return max(
            (abs(x.get(c, zero) - y.get(c, zero))
             for x, y in zip(_entries(rows), _entries(other)) for c in x.keys() | y.keys()),
            default=mp.mpf(0),
        )


def _verify_results(j: HalfInt, precision: int, chi_value, h: DenseOperator, taylor) -> list:
    """(name, passed, detail) per property of ``verify``; ``taylor()``
    returns the Taylor oracle's propagator of h at VERIFY_SAMPLE_TIME."""
    results: list[tuple[str, bool, str]] = []
    tol_structure = mp.mpf(TOL_STRUCTURE)
    tol_conservation = mp.mpf(TOL_CONSERVATION)

    # Chiral anticommutation: {H, R} = 0 entrywise on the dimensionless matrix.
    h_rows = _nonzero_rows(h)
    anti_dev, h_max = _chiral_deviation(h_rows, chi_value, precision)
    with mp.workdps(precision + 10):
        anti_tol = tol_structure * (1 + h_max)
    results.append(
        (
            "chiral anticommutation",
            anti_dev < anti_tol,
            f"max |HR + RH| = {mp.nstr(anti_dev, 3)}",
        )
    )

    # Pairing: matrix-level consistency first, then the computed spectrum.
    report = None
    try:
        _matrix_spectral_consistency(h, precision)
        report = spectrum(j, precision)
        pair_dev = _pairing_deviation(report, precision)
        with mp.workdps(precision + 10):
            span = max(abs(ev.value) for ev in report.eigenvalues)
            pair_tol = tol_structure * (1 + span)
        results.append(
            (
                "pairing",
                pair_dev < pair_tol and report.pairing_verified,
                f"{report.dimension} eigenvalues, "
                f"max |lambda + lambda_mirror| = {mp.nstr(pair_dev, 3)}",
            )
        )
    except SpectralConsistencyError as exc:
        results.append(("pairing", False, str(exc)))

    # Unitarity of the propagator at a generic sample time.
    u = None
    try:
        if report is not None:
            u = propagator_spectral(report, VERIFY_SAMPLE_TIME, precision)
        else:
            u = taylor()
        results.append(
            (
                "unitarity",
                u.unitarity_defect < tol_structure,
                f"||U^H U - I||_max = {mp.nstr(u.unitarity_defect, 3)} "
                f"at chi*t = {VERIFY_SAMPLE_TIME}",
            )
        )
    except IllConditionedError:
        raise
    except CountertwistError as exc:
        results.append(("unitarity", False, f"no unitary propagator: {exc}"))

    # Conserved quantities along the evolution.
    if u is not None:
        state = coherent_initial_state(j, precision)
        observables = heisenberg_expectations(state, u, precision)
        with mp.workdps(precision + 10):
            casimir_ref = mp.mpf(j.twice_value) * (j.twice_value + 2) / 4
            casimir_dev = abs(observables.casimir - casimir_ref)
            casimir_tol = tol_conservation * (1 + casimir_ref)

            evolved = _evolved(u.rows, state.amplitudes, precision)
            energy_start = _energy(h_rows, state.amplitudes, precision)
            energy_dev = abs(_energy(h_rows, evolved, precision) - energy_start)
            energy_tol = tol_conservation * (abs(chi_value) + abs(energy_start))
        results.append(
            (
                "casimir conservation",
                casimir_dev < casimir_tol,
                f"|<J^2> - j(j+1)| = {mp.nstr(casimir_dev, 3)}",
            )
        )
        results.append(
            (
                "energy conservation",
                energy_dev < energy_tol,
                f"|<H>(t) - <H>(0)| = {mp.nstr(energy_dev, 3)}",
            )
        )
    else:
        detail = "skipped: no propagator available"
        results.append(("casimir conservation", False, detail))
        results.append(("energy conservation", False, detail))

    # The two propagator routes must agree entrywise.
    if u is not None and u.method is PropagatorMethod.SPECTRAL:
        try:
            oracle_dev = _max_abs_difference(u.rows, taylor().rows, precision)
            results.append(
                (
                    "oracle equivalence",
                    oracle_dev < mp.mpf(TOL_ORACLE),
                    f"spectral vs series propagator, "
                    f"max diff = {mp.nstr(oracle_dev, 3)}",
                )
            )
        except CountertwistError as exc:
            results.append(("oracle equivalence", False, f"series route failed: {exc}"))
    else:
        results.append(
            ("oracle equivalence", False, "skipped: spectral propagator unavailable")
        )

    # Closed-form propagator entries are known for j = 2.
    if j == HalfInt(4):
        if u is not None:
            reference = _closed_form_rows_j2(VERIFY_SAMPLE_TIME, precision)
            zero = mp.mpc(0)
            with mp.workdps(precision + 10):
                closed_dev = max(
                    abs(row.get(c, zero) - want)
                    for row, wanted in zip(_entries(u.rows), reference)
                    for c, want in enumerate(wanted)
                )
            results.append(
                (
                    "closed-form entries",
                    closed_dev < tol_structure,
                    f"25 entries, max diff = {mp.nstr(closed_dev, 3)}",
                )
            )
        else:
            results.append(
                ("closed-form entries", False, "skipped: no propagator available")
            )
    return results


def cmd_verify(cfg: RunConfig) -> int:
    """Run the property suite; report PASS/FAIL per property.

    A property that fails prints FAIL and exits 1.  A numeric limit is not a
    property failure: when the spectral propagator needs more precision
    (IllConditionedError), nothing is printed and the error propagates to
    exit 3, as in ``evolve``.

    The Taylor oracle needs only h, so from 2j + 1 = 14 states on its
    series starts in a forked child as soon as h is built (fault included)
    and runs on a second CPU while this process checks the chiral and
    pairing properties and builds the spectral propagator; a smaller
    series costs less than the fork.  Its rows are certified here, where
    they are used; with one CPU, elsewhere than Linux, or when the child
    fails or stalls, this process computes them itself at that point.
    Every byte printed and every exit code is the same either way.
    """
    j, precision = cfg.j, cfg.precision
    with mp.workdps(precision):
        chi_value = _mpf_from_fraction(cfg.chi)
    if chi_value == 0:
        raise InvalidInputError("coupling chi must be nonzero for verification")
    h = build_h_ta(j, chi_value, precision)
    if cfg.inject_fault:
        h = _flip_first_coupling(h)
    with _taylor_in_child(h, VERIFY_SAMPLE_TIME, precision) as taylor:
        results = _verify_results(j, precision, chi_value, h, taylor)

    all_passed = all(passed for _, passed, _ in results)
    lines = [
        "countertwist verify",
        f"j = {j}, chi = {cfg.chi}, precision = {precision}"
        + (", fault injected" if cfg.inject_fault else ""),
    ]
    lines.extend(
        f"{name}: {'PASS' if passed else 'FAIL'} ({detail})"
        for name, passed, detail in results
    )
    lines.append(f"RESULT: {'PASS' if all_passed else 'FAIL'}")
    _emit(cfg, "\n".join(lines) + "\n")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

_DISPATCH: dict[Command, Callable[[RunConfig], int]] = {
    Command.CHARPOLY: cmd_charpoly,
    Command.SPECTRUM: cmd_spectrum,
    Command.CLASSIFY: cmd_classify,
    Command.VERIFY: cmd_verify,
    Command.EVOLVE: cmd_evolve,
    Command.TABLE1: cmd_table1,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    :func:`main` call; callers must not mutate it."""
    parser = argparse.ArgumentParser(
        prog="countertwist",
        description=(
            "Exact characteristic polynomials, spectra, and squeezing "
            "dynamics of the two-axis countertwisting spin Hamiltonian."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"countertwist {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, entry in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(command.value, help=entry.help)
        sub.add_argument(
            "--j", type=_spin, required=command is not Command.TABLE1,
            help="spin magnitude as integer or p/q text (e.g. 3 or 21/2)",
        )
        sub.add_argument(
            "--precision", type=int, default=DEFAULT_PRECISION,
            help=f"working decimal digits, {MIN_PRECISION} to {MAX_PRECISION} "
            f"(default {DEFAULT_PRECISION})",
        )
        sub.add_argument(
            "--format", choices=entry.formats, default=entry.formats[0],
            help=f"output format (default {entry.formats[0]})",
        )
        sub.add_argument("--output", help="destination file (default: stdout)")
        for flag, settings in entry.options:
            sub.add_argument(flag, **settings)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse arguments, dispatch, and map errors onto exit codes."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        # The argparse dests are the RunConfig field names.
        cfg = RunConfig(**dict(vars(args), command=Command(args.command)))
        return _DISPATCH[cfg.command](cfg)
    except (InvalidInputError, NotAvailableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        IllConditionedError,
        NumericFailureError,
        SpectralConsistencyError,
        InternalConsistencyError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
