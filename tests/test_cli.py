"""Tests for the command-line front end: formats, exit codes, stability."""

import argparse
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from countertwist import (
    HalfInt,
    InvalidInputError,
    build_h_ta,
    char_poly_exact,
    coherent_initial_state,
    degeneracy_report,
    propagator_taylor,
    spectrum,
)
from countertwist import _kernels
from countertwist import cli, evolution, spin_algebra
from countertwist.cli import (
    MAX_PRECISION,
    MAX_STEPS,
    MIN_PRECISION,
    Command,
    RunConfig,
    _format_real,
    main,
    significant_digits,
)
from countertwist.spectrum import spectrum_from_json, spectrum_to_json
from countertwist.spin_algebra import MAX_TWICE_SPIN
from _oracles import (
    dense_chiral_deviation,
    dense_energy,
    dense_evolved,
    dense_oracle_difference,
    unlimited_str,
)

CSV_HEADER = "chi_t,jx_mean,var_jy,var_jz,xi_y,xi_z,corr_xz,xi_opt,opt_angle"


@pytest.fixture(autouse=True)
def _ambient_precision():
    old = mp.dps
    mp.dps = 45
    yield
    mp.dps = old


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _data_rows(csv_text):
    lines = [
        line
        for line in csv_text.splitlines()
        if line and not line.startswith("#")
    ]
    return lines[0], [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------


class TestRunConfig:
    def test_precision_floor(self):
        with pytest.raises(InvalidInputError):
            RunConfig(command=Command.CHARPOLY, j=HalfInt(4), precision=14)

    def test_minimum_precision_accepted(self):
        cfg = RunConfig(command=Command.CHARPOLY, j=HalfInt(4), precision=15)
        assert cfg.precision == 15

    def test_format_restricted_per_command(self):
        with pytest.raises(InvalidInputError):
            RunConfig(command=Command.EVOLVE, j=HalfInt(4), format="json")

    def test_evolve_needs_grid(self):
        with pytest.raises(InvalidInputError):
            RunConfig(command=Command.EVOLVE, j=HalfInt(4), format="csv")

    def test_spin_required_outside_table_report(self):
        with pytest.raises(InvalidInputError):
            RunConfig(command=Command.SPECTRUM, j=None, format="json")

    def test_table_report_accepts_missing_spin(self):
        cfg = RunConfig(command=Command.TABLE1, j=None)
        assert cfg.j is None

    def test_significant_digits_floor(self):
        assert significant_digits(34) == 24
        assert significant_digits(15) == 17
        assert significant_digits(27) == 17
        assert significant_digits(60) == 50

    def test_gap_renders_as_empty_field(self):
        assert _format_real(None, 17) == ""

    def test_caps_accepted(self):
        cfg = RunConfig(command=Command.EVOLVE, j=HalfInt(4), t_max=1, steps=MAX_STEPS,
                        precision=MAX_PRECISION, format="csv")
        assert (cfg.steps, cfg.precision) == (MAX_STEPS, MAX_PRECISION)


class TestResourceCaps:
    """One past a cap exits 2 with one error line before any command runs."""

    @pytest.fixture(autouse=True)
    def _no_command_runs(self, monkeypatch):
        def refuse(cfg):
            raise AssertionError(f"{cfg.command.value} ran")

        for command in Command:
            monkeypatch.setitem(cli._DISPATCH, command, refuse)

    @pytest.mark.parametrize("argv", [
        ("evolve", "--j", "1", "--t-max", "1", "--steps", "2"),
        ("verify", "--j", "1"),
        ("spectrum", "--j", "1"),
        ("charpoly", "--j", "1"),
    ])
    def test_precision_past_cap(self, capsys, argv):
        code, out, err = _run(capsys, *argv, "--precision", str(MAX_PRECISION + 1))
        assert code == 2 and out == ""
        assert err == (
            f"error: precision must be at most {MAX_PRECISION}, got {MAX_PRECISION + 1}\n"
        )

    def test_steps_past_cap(self, capsys):
        code, out, err = _run(
            capsys, "evolve", "--j", "1", "--t-max", "1", "--steps", str(MAX_STEPS + 1)
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: evolve allows at most {MAX_STEPS} grid points, got {MAX_STEPS + 1}\n"
        )


# ---------------------------------------------------------------------------
# Spin argument parsing
# ---------------------------------------------------------------------------


class TestSpinArgument:
    def test_negative_spin_exits_invalid(self, capsys):
        code, _, err = _run(capsys, "charpoly", "--j", "-1")
        assert code == 2
        assert "non-negative" in err

    def test_garbage_spin_exits_invalid(self, capsys):
        code, _, _ = _run(capsys, "charpoly", "--j", "abc")
        assert code == 2

    def test_non_half_integer_exits_invalid(self, capsys):
        code, _, _ = _run(capsys, "charpoly", "--j", "5/3")
        assert code == 2

    def test_fractional_text_accepted(self, capsys):
        code, out, _ = _run(capsys, "charpoly", "--j", "21/2")
        assert code == 0
        assert "j = 21/2" in out

    def test_spin_past_cap_exits_invalid_before_any_chain(self):
        # A fresh interpreter with its address space capped at 1 GiB, so that
        # a command building labels for j = 1e400 would fail there, not here.
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from countertwist import cli\n"
            "for argv in sys.argv[1:]:\n"
            "    print(cli.main(argv.split()))\n"
        )
        commands = (
            "spectrum", "charpoly", "classify", "verify",
            "evolve --t-max 1 --steps 2",
        )
        argvs = [f"{command} --j {spin}" for command in commands
                 for spin in ("1e400", str(HalfInt(MAX_TWICE_SPIN + 1)))]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script, *argvs],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=60,
        )
        assert done.stdout.split() == ["2"] * len(argvs), done.stderr
        assert done.stderr.splitlines() == (
            [f"error: spin must be at most {HalfInt(MAX_TWICE_SPIN)}"] * len(argvs)
        )


# ---------------------------------------------------------------------------
# charpoly command
# ---------------------------------------------------------------------------


class TestCharpolyCommand:
    def test_text_row_two(self, capsys):
        code, out, _ = _run(capsys, "charpoly", "--j", "2")
        assert code == 0
        assert "coefficients (ascending): 0, -108, 0, 21, 0, -1" in out
        assert "parity = odd" in out
        assert "degenerate = no" in out

    def test_json_smallest_spin(self, capsys):
        code, out, _ = _run(capsys, "charpoly", "--j", "1/2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == ["0", "0", "1"]
        assert payload["degree"] == 2
        assert payload["parity"] == "even"
        assert payload["degenerate"] is True
        assert payload["discriminant"] == "0"

    def test_json_row_two(self, capsys):
        code, out, _ = _run(capsys, "charpoly", "--j", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == ["0", "-108", "0", "21", "0", "-1"]
        assert payload["leading_coefficient"] == "-1"
        assert payload["degenerate"] is False

    @pytest.mark.parametrize("spin_text", ["3", "7/2", "21/2"])
    def test_json_matches_library(self, capsys, spin_text):
        code, out, _ = _run(capsys, "charpoly", "--j", spin_text, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        poly = char_poly_exact(HalfInt.from_string(spin_text))
        assert payload["coefficients"] == [str(c) for c in poly.coefficients]
        assert payload["degree"] == poly.degree
        assert int(payload["leading_coefficient"]) == poly.leading_coefficient

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_discriminant_past_digit_limit(self, capsys, fmt):
        # The j = 22 discriminant has more digits than str() converts by default.
        code, out, err = _run(capsys, "charpoly", "--j", "22", "--format", fmt)
        assert code == 0
        assert err == ""
        expected = unlimited_str(degeneracy_report(HalfInt(44)).discriminant_full)
        if fmt == "json":
            assert json.loads(out)["discriminant"] == expected
        else:
            assert f"discriminant = {expected}\n" in out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_spin_zero(self, capsys, fmt):
        # The second chain is empty; its discriminant is the empty product.
        code, out, err = _run(capsys, "charpoly", "--j", "0", "--format", fmt)
        assert code == 0
        assert err == ""
        if fmt == "json":
            payload = json.loads(out)
            assert payload["coefficients"] == ["0", "-1"]
            assert payload["discriminant"] == "1"
            assert payload["degenerate"] is False
        else:
            assert "discriminant = 1\n" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectrum", "--j", "0"),
            ("classify", "--j", "0"),
            ("evolve", "--j", "0", "--t-max", "1", "--steps", "2"),
            ("verify", "--j", "0"),
        ],
    )
    def test_spin_zero_elsewhere_exits_invalid(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {argv[0]} needs j >= 1/2\n"

    def test_half_integer_rows_report_degeneracy(self, capsys):
        code, out, _ = _run(capsys, "charpoly", "--j", "9/2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["degenerate"] is True
        assert payload["parity"] == "even"


# ---------------------------------------------------------------------------
# classify command
# ---------------------------------------------------------------------------


class TestClassifyCommand:
    @pytest.mark.parametrize(
        "spin_text,category",
        [
            ("1/2", "TRIVIAL_ZERO"),
            ("2", "RADICALS"),
            ("17/2", "RADICALS"),
            ("9", "HYPERGEOMETRIC"),
            ("19/2", "HYPERGEOMETRIC"),
            ("10", "HYPERGEOMETRIC"),
            ("21/2", "HYPERGEOMETRIC"),
            ("11", "NUMERIC_ONLY"),
        ],
    )
    def test_ladder(self, capsys, spin_text, category):
        code, out, _ = _run(capsys, "classify", "--j", spin_text, "--format", "json")
        assert code == 0
        assert json.loads(out)["category"] == category

    def test_text_output_names_category(self, capsys):
        code, out, _ = _run(capsys, "classify", "--j", "11")
        assert code == 0
        assert "NUMERIC_ONLY" in out


# ---------------------------------------------------------------------------
# spectrum command
# ---------------------------------------------------------------------------


class TestSpectrumCommand:
    def test_json_round_trips_exactly(self, capsys):
        code, out, _ = _run(capsys, "spectrum", "--j", "5", "--format", "json")
        assert code == 0
        assert spectrum_from_json(out) == spectrum(HalfInt(10), 34)

    def test_round_trip_at_elevated_precision(self, capsys):
        code, out, _ = _run(
            capsys, "spectrum", "--j", "4", "--format", "json", "--precision", "50"
        )
        assert code == 0
        report = spectrum_from_json(out)
        assert report == spectrum(HalfInt(8), 50)
        assert spectrum_to_json(report) == out

    def test_serialization_is_stable(self, capsys):
        first = _run(capsys, "spectrum", "--j", "7/2", "--format", "json")
        second = _run(capsys, "spectrum", "--j", "7/2", "--format", "json")
        assert first == second

    def test_text_lists_every_distinct_eigenvalue(self, capsys):
        code, out, _ = _run(capsys, "spectrum", "--j", "3", "--format", "text")
        assert code == 0
        report = spectrum(HalfInt(6), 34)
        assert out.count("multiplicity") == len(report.eigenvalues)
        assert "pairing verified = yes" in out

    def test_parser_rejects_invalid_json(self):
        with pytest.raises(InvalidInputError):
            spectrum_from_json("{not json")

    def test_parser_rejects_wrong_kind(self):
        with pytest.raises(InvalidInputError):
            spectrum_from_json(json.dumps({"kind": "charpoly-report"}))

    def test_parser_rejects_missing_fields(self):
        with pytest.raises(InvalidInputError):
            spectrum_from_json(json.dumps({"kind": "spectrum-report", "j": "2"}))


# ---------------------------------------------------------------------------
# table1 command
# ---------------------------------------------------------------------------


class TestTable1Command:
    def test_full_report(self, capsys):
        code, out, _ = _run(capsys, "table1")
        assert code == 1  # honest mismatches exist in the reference table
        assert len(re.findall(r": MATCH$", out, re.M)) == 19
        assert len(re.findall(r": MISMATCH", out)) == 3
        assert out.count("QUESTIONABLE") == 2
        assert "J=2: MISMATCH" in out
        assert "rows = 22, match = 19, mismatch = 3" in out

    def test_single_matching_row(self, capsys):
        code, out, _ = _run(capsys, "table1", "--j", "9/2")
        assert code == 0
        assert "J=9/2: MATCH" in out
        assert "MISMATCH" not in out

    def test_row_outside_table(self, capsys):
        code, _, err = _run(capsys, "table1", "--j", "12")
        assert code == 2
        assert "no reference row" in err

    def test_mismatching_row_alone(self, capsys):
        code, out, _ = _run(capsys, "table1", "--j", "2")
        assert code == 1
        assert "differs at powers [1, 3]" in out

    def test_report_is_deterministic(self, capsys):
        first = _run(capsys, "table1")
        second = _run(capsys, "table1")
        assert first == second


# ---------------------------------------------------------------------------
# evolve command
# ---------------------------------------------------------------------------


class TestEvolveCommand:
    def test_documented_grid(self, capsys):
        code, out, _ = _run(
            capsys, "evolve", "--j", "2", "--t-max", "3", "--steps", "601"
        )
        assert code == 0
        header, rows = _data_rows(out)
        assert header == CSV_HEADER
        assert len(rows) == 601
        first = rows[0]
        assert float(first[0]) == 0.0  # chi_t
        assert float(first[1]) == 2.0  # jx_mean = j
        assert float(first[4]) == 1.0  # xi_y
        assert float(first[5]) == 1.0  # xi_z
        assert float(first[6]) == 0.0  # corr_xz
        xi_y_column = [float(row[4]) for row in rows]
        assert min(xi_y_column) >= 1.0 - 1e-12
        assert all(len(row) == 9 for row in rows)

    def test_metadata_block(self, capsys):
        code, out, _ = _run(
            capsys, "evolve", "--j", "2", "--t-max", "1", "--steps", "3"
        )
        assert code == 0
        comments = [line for line in out.splitlines() if line.startswith("#")]
        text = "\n".join(comments)
        for needle in (
            "# countertwist evolve",
            "# j = 2",
            "# chi = 1",
            "# omega = 0",
            "# precision = 34",
            "# version = ",
        ):
            assert needle in text

    def test_spin_half_rows_constant(self, capsys):
        code, out, _ = _run(
            capsys, "evolve", "--j", "1/2", "--t-max", "2", "--steps", "9"
        )
        assert code == 0
        _, rows = _data_rows(out)
        observable_fields = {tuple(row[1:]) for row in rows}
        assert len(observable_fields) == 1

    def test_stdout_is_deterministic(self, capsys):
        args = ("evolve", "--j", "3", "--t-max", "2", "--steps", "11")
        assert _run(capsys, *args) == _run(capsys, *args)

    def test_file_output_byte_stable_lf_only(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = _run(
                capsys,
                "evolve",
                "--j",
                "5/2",
                "--t-max",
                "1",
                "--steps",
                "5",
                "--output",
                str(path),
            )
            assert code == 0
        first, second = (path.read_bytes() for path in paths)
        assert first == second
        assert b"\r" not in first
        assert first.endswith(b"\n")

    def test_coupling_rescaling_leaves_rows_unchanged(self, capsys):
        _, fast, _ = _run(
            capsys, "evolve", "--j", "2", "--chi", "2", "--t-max", "3/2",
            "--steps", "7",
        )
        _, slow, _ = _run(
            capsys, "evolve", "--j", "2", "--chi", "1", "--t-max", "3",
            "--steps", "7",
        )
        assert _data_rows(fast) == _data_rows(slow)

    def test_higher_precision_prints_more_digits(self, capsys):
        code, out, _ = _run(
            capsys, "evolve", "--j", "1", "--t-max", "1", "--steps", "3",
            "--precision", "50",
        )
        assert code == 0
        _, rows = _data_rows(out)
        longest = max(len(cell) for row in rows for cell in row)
        assert longest >= 40  # 40 significant digits at precision 50

    def test_single_step_rejected(self, capsys):
        code, _, _ = _run(
            capsys, "evolve", "--j", "2", "--t-max", "1", "--steps", "1"
        )
        assert code == 2

    def test_zero_t_max_rejected(self, capsys):
        code, _, _ = _run(
            capsys, "evolve", "--j", "2", "--t-max", "0", "--steps", "5"
        )
        assert code == 2

    def test_nonzero_omega_rejected(self, capsys):
        code, _, _ = _run(
            capsys, "evolve", "--j", "2", "--t-max", "1", "--steps", "5",
            "--omega", "1",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "grid", [("--t-max", "1e400"), ("--chi", "1e400", "--t-max", "1")]
    )
    def test_huge_time_rejected(self, capsys, grid):
        code, out, err = _run(capsys, "evolve", "--j", "2", *grid, "--steps", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "chi_t" in err

    def test_low_precision_rejected(self, capsys):
        code, _, _ = _run(
            capsys, "evolve", "--j", "2", "--t-max", "1", "--steps", "5",
            "--precision", "10",
        )
        assert code == 2

    def test_missing_grid_arguments_rejected(self, capsys):
        code, _, _ = _run(capsys, "evolve", "--j", "2", "--steps", "5")
        assert code == 2

    def test_tight_spectrum_reports_numeric_failure(self, capsys):
        code, _, err = _run(
            capsys, "evolve", "--j", "30", "--t-max", "1", "--steps", "2"
        )
        assert code == 3
        assert "higher precision" in err


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

# Rational text of about 4000 digits (Python's int-to-str limit is 4300):
# signed numerals, fractions either way up, and decimal exponents of 1000.
_LONG = st.builds(
    "{}{}{}".format,
    st.sampled_from(("", "-", "3/")),
    st.integers(3990, 4400).map(lambda width: "1" + "0" * width),
    st.sampled_from(("", "/7", "e-1000", "e1000")),
)


class TestVerifyCommand:
    def test_spin_two_all_pass(self, capsys):
        code, out, _ = _run(capsys, "verify", "--j", "2")
        assert code == 0
        assert "FAIL" not in out
        for name in (
            "chiral anticommutation",
            "pairing",
            "unitarity",
            "casimir conservation",
            "energy conservation",
            "oracle equivalence",
            "closed-form entries",
        ):
            assert f"{name}: PASS" in out
        assert "RESULT: PASS" in out

    def test_large_half_integer_spin_all_pass(self, capsys):
        code, out, _ = _run(capsys, "verify", "--j", "21/2")
        assert code == 0
        assert "RESULT: PASS" in out
        assert "closed-form entries" not in out  # reference known only at j = 2

    def test_rescaled_coupling_all_pass(self, capsys):
        code, out, _ = _run(capsys, "verify", "--j", "3/2", "--chi", "3/2")
        assert code == 0
        assert "RESULT: PASS" in out

    def test_injected_fault_fails_pairing(self, capsys):
        code, out, _ = _run(capsys, "verify", "--j", "2", "--inject-fault")
        assert code == 1
        assert "pairing: FAIL" in out
        assert "chiral anticommutation: FAIL" in out
        assert "unitarity: FAIL" in out
        assert "RESULT: FAIL" in out

    def test_tight_spectrum_reports_numeric_failure(self, capsys):
        # At j = 27 and 34 digits two distinct eigenvalues lie 1.9e-18 apart,
        # below the spectral route's 1e-17 floor: a numeric limit, not a
        # failed property, so verify exits 3 with evolve's message.
        code, out, err = _run(capsys, "verify", "--j", "27")
        _, _, evolve_err = _run(
            capsys, "evolve", "--j", "27", "--t-max", "1", "--steps", "2"
        )
        assert (code, out) == (3, "")
        assert err == evolve_err
        assert "retry at higher precision" in err

    def test_fault_needs_a_coupling(self, capsys):
        code, _, _ = _run(capsys, "verify", "--j", "1/2", "--inject-fault")
        assert code == 2

    def test_zero_coupling_rejected(self, capsys):
        code, _, _ = _run(capsys, "verify", "--j", "2", "--chi", "0")
        assert code == 2

    @pytest.mark.parametrize("chi", ["1e45", "1e300", "-1e300"])
    def test_energy_conserved_at_huge_coupling(self, capsys, chi):
        code, out, _ = _run(capsys, "verify", "--j", "2", f"--chi={chi}")
        assert "energy conservation: PASS" in out
        assert code == 0 and "RESULT: PASS" in out

    def test_every_check_runs_here_on_two_cpus(self, capsys, monkeypatch, set_cpus, forks):
        # Two CPUs fork nothing and print what one CPU prints.  The Taylor
        # series is summed once, and not at all where the spectral route
        # exits 3.
        series, sums = evolution._taylor_rows, []
        monkeypatch.setattr(
            evolution, "_taylor_rows", lambda *args: sums.append(None) or series(*args)
        )
        cases = (
            (("--j", "10"), 0, 1),
            (("--j", "10", "--inject-fault"), 1, 1),
            (("--j", "27"), 3, 0),
        )
        for argv, code, summed in cases:
            seen = []
            for count in (1, 2):
                set_cpus(count)
                sums.clear()
                seen.append(_run(capsys, "verify", *argv))
                assert (len(sums), len(forks)) == (summed, 0)
            assert seen[0] == seen[1]
            assert seen[0][0] == code
        assert seen[0][1] == ""  # exit 3 prints nothing

    # A sweep over verify's arguments, each refusal included: fractions,
    # decimal exponents at the bound of 1000, numerators and denominators
    # of about 4000 digits (Python's int-to-str limit is 4300), zeros,
    # nan and inf spellings, and empty text.
    _CHI = st.one_of(
        st.builds("{}/{}".format, st.integers(-40, 40), st.integers(-3, 40)),
        st.builds("{}e{}".format, st.integers(-9, 9),
                  st.sampled_from((-1001, -1000, -999, -17, 0, 17, 999, 1000, 1001))),
        _LONG,
        st.sampled_from(("-0", "0", "+0", "0/3", "0e1000", "nan", "NaN", "-nan", "inf",
                         "-inf", "Infinity", "", " ", "1/0", "2/-3", "1_0", "0x10")),
    )

    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        twoj=st.sampled_from((*range(13), MAX_TWICE_SPIN + 1)),
        chi=_CHI,
        precision=st.integers(MIN_PRECISION - 1, 40),
        fault=st.booleans(),
    )
    def test_arguments_never_raise(self, capsys, set_cpus, forks, twoj, chi, precision, fault):
        set_cpus(2)
        argv = ["verify", "--j", str(Fraction(twoj, 2)), f"--chi={chi}",
                "--precision", str(precision)] + ["--inject-fault"] * fault
        code, _, err = _run(capsys, *argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        assert forks == []


def _raw_values(values):
    return [(type(x), getattr(x, "_mpc_", None) or x._mpf_) for x in values]


def _perturbed(rows):
    """Rows of a nearby matrix: the last bit of every other entry moved,
    the first entry dropped from rows 1, 4, 7, ..., and an entry added at
    a free column of rows 2, 5, 8, ...."""
    n = len(rows)
    out = []
    for a, row in enumerate(rows):
        row = dict(row)
        for c in sorted(row)[::2]:
            m, e = _kernels._pair(row[c][0])
            row[c] = (_kernels._mpf((m + 2, e)), row[c][1])
        if a % 3 == 1 and row:
            del row[min(row)]
        free = [c for c in range(n) if c not in row]
        if a % 3 == 2 and free:
            row[free[0]] = (_kernels._mpf((-3, -200)), _kernels._mpf((1, -190)))
        out.append(tuple(sorted(row.items())))
    return tuple(out)


SPARSE_CHI = (Fraction(2, 3), Fraction(-3, 4), Fraction(5, 4))


class TestVerifySparseChecks:
    """verify's chiral and energy checks on h's nonzero entries, and its
    propagator differences on the rows, give the bits that the dense
    operator algebra of ``_oracles.dense_*`` gives."""

    @pytest.mark.parametrize("twoj", range(1, 41))
    def test_same_bits_as_the_dense_checks(self, twoj):
        j = HalfInt(twoj)
        for k, precision in enumerate((20, 34, 50)):
            with mp.workdps(precision):
                chi_value = cli._mpf_from_fraction(SPARSE_CHI[(twoj + k) % 3])
            h = build_h_ta(j, chi_value, precision)
            state = coherent_initial_state(j, precision)
            u = propagator_taylor(h, cli.VERIFY_SAMPLE_TIME, precision)
            rows = u.rows
            # φ as verify's energy check reads it, from the moments.
            phi = tuple(map(mp.make_mpc, evolution._expectations(state, u, precision)[1]))
            assert _raw_values(phi) == _raw_values(
                dense_evolved(rows, h.basis, state.amplitudes, precision)
            )
            for other in (rows, _perturbed(rows)):
                assert _raw_values([cli._max_abs_difference(rows, other, precision)]) == (
                    _raw_values([dense_oracle_difference(rows, other, h.basis, precision)])
                )
            for hh in (h, cli._flip_first_coupling(h)) if twoj > 1 else (h,):
                h_rows = hh.nonzero_rows
                assert _raw_values(cli._chiral_deviation(h_rows, chi_value, precision)) == (
                    _raw_values(dense_chiral_deviation(hh, chi_value, precision))
                )
                for amplitudes in (state.amplitudes, phi):
                    assert _raw_values([cli._energy(h_rows, amplitudes, precision)]) == (
                        _raw_values([dense_energy(hh, amplitudes, precision)])
                    )

    def test_difference_of_equal_rows_is_zero(self):
        rows = propagator_taylor(build_h_ta(HalfInt(6)), cli.VERIFY_SAMPLE_TIME, 34).rows
        assert cli._max_abs_difference(rows, rows, 34) == 0 < cli._max_abs_difference(
            rows, _perturbed(rows), 34
        )


# ---------------------------------------------------------------------------
# Dispatch and exit codes
# ---------------------------------------------------------------------------


class TestLongChi:
    """A chi whose numerator passes Python's int-to-str digit limit (4300)
    is spelled in full in verify's header and evolve's metadata."""

    CHI = "1" + "0" * 3400 + "e1000"

    def _run_in_a_process(self, *argv):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        script = "import sys\nfrom countertwist import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
        return subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=120,
        )

    def test_verify_spells_the_chi_and_exits_zero(self):
        done = self._run_in_a_process("verify", "--j", "1", "--chi", self.CHI)
        assert "Traceback" not in done.stderr
        assert done.returncode == 0, done.stderr
        header = done.stdout.splitlines()[1]
        assert header == f"j = 1, chi = 1{'0' * 4400}, precision = 34"
        assert done.stdout.endswith("RESULT: PASS\n")

    def test_evolve_spells_the_chi_in_its_metadata(self):
        # chi*t = 10^4400 / 10^4200 stays inside the chi*t bound.
        t_max = "1/1" + "0" * 4200
        done = self._run_in_a_process(
            "evolve", "--j", "1", "--chi", self.CHI, "--t-max", t_max, "--steps", "2"
        )
        assert "Traceback" not in done.stderr
        assert done.returncode == 0, done.stderr
        assert f"# chi = 1{'0' * 4400}\n" in done.stdout

    @pytest.mark.parametrize("chi", ["1/2", "3", "-2/3", "5/4", "-7"])
    def test_a_short_chi_keeps_its_spelling(self, chi):
        assert cli._fraction_text(Fraction(chi)) == str(Fraction(chi)) == chi


class TestNegativeValues:
    """A value that starts with "-" is taken after a space as after "="."""

    @pytest.mark.parametrize(
        "argv, value",
        [
            (("verify", "--j", "1", "--chi"), "-2/3"),
            (("verify", "--j", "1", "--chi"), "-1e-3"),
            (("verify", "--j", "1", "--chi"), "-.5"),
            (("verify", "--j", "1", "--chi"), "-1"),
            (("evolve", "--j", "1", "--steps", "3", "--chi"), "-3/2"),
            (("evolve", "--j", "1", "--steps", "3", "--t-max"), "-1/3"),
            (("verify", "--chi"), "-1/2"),  # then a missing --j
            (("verify", "--j"), "-1/2"),
        ],
    )
    def test_space_form_prints_what_the_equals_form_prints(self, capsys, argv, value):
        flag = argv[-1]
        spaced = _run(capsys, *argv, value)
        assert spaced == _run(capsys, *argv[:-1], f"{flag}={value}")

    @pytest.mark.parametrize(
        "t_max, spelled", [("-1/3", "-1/3"), ("-1", "-1"), ("0", "0"), ("-0.5", "-1/2")]
    )
    def test_a_t_max_that_is_not_positive_is_spelled_as_text(self, capsys, t_max, spelled):
        code, out, err = _run(
            capsys, "evolve", "--j", "1", "--t-max", t_max, "--steps", "3"
        )
        assert (code, out) == (2, "")
        assert err == f"error: t_max must be positive, got {spelled}\n"

    def test_a_long_negative_t_max_is_spelled_in_full(self):
        # 4000 + 1000 digits pass the int-to-str limit that repr() would hit.
        done = TestLongChi()._run_in_a_process(
            "evolve", "--j", "1", "--t-max", "-1" + "0" * 3999 + "e1000", "--steps", "2"
        )
        assert "Traceback" not in done.stderr
        assert done.returncode == 2
        assert done.stderr == f"error: t_max must be positive, got -1{'0' * 4999}\n"


class TestDispatch:
    @pytest.mark.parametrize(
        "argv",
        [
            ("evolve", "--j", "2", "--t-max", "1/0", "--steps", "3"),
            ("evolve", "--j", "2", "--chi", "1/0", "--t-max", "1", "--steps", "3"),
            ("verify", "--j", "2", "--chi", "3/0"),
        ],
    )
    def test_zero_denominator_is_usage_error(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "invalid rational value" in err

    @pytest.mark.parametrize("text", ["1e4000000", "1e-4000000"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--j", "TEXT"),
            ("verify", "--j", "2", "--chi", "TEXT"),
            ("evolve", "--j", "2", "--t-max", "TEXT", "--steps", "3"),
        ],
    )
    def test_large_decimal_exponent_is_usage_error(self, capsys, monkeypatch, argv, text):
        # Refused from the text, with the bound named: Fraction never sees it.
        def fraction(*args):
            assert text not in args, f"Fraction was called on {text!r}"
            return Fraction(*args)

        monkeypatch.setattr(cli, "Fraction", fraction)
        monkeypatch.setattr(spin_algebra, "Fraction", fraction)
        code, out, err = _run(capsys, *(text if a == "TEXT" else a for a in argv))
        assert code == 2
        assert out == ""
        assert f"the decimal exponent of '{text}' exceeds 1000 in magnitude" in err

    def test_a_decimal_exponent_at_its_bound_is_read(self):
        assert cli._rational("1e1000") == 10**1000
        assert cli._rational("-3E-0_1000") == Fraction(-3, 10**1000)
        with pytest.raises(argparse.ArgumentTypeError, match="exceeds 1000"):
            cli._rational("1e1001")

    def test_unparsable_spin_names_the_problem(self, capsys):
        code, out, err = _run(capsys, "classify", "--j", "x")
        assert code == 2
        assert out == ""
        assert "cannot parse 'x' as a half-integer" in err

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = _run(capsys)
        assert code == 2

    def test_unknown_command_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "frobnicate")
        assert code == 2

    def test_version_flag(self, capsys):
        code, out, _ = _run(capsys, "--version")
        assert code == 0
        assert "countertwist" in out

    def test_help_flag(self, capsys):
        code, out, _ = _run(capsys, "--help")
        assert code == 0
        assert "evolve" in out

    def test_unsupported_format_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "spectrum", "--j", "2", "--format", "csv")
        assert code == 2

    def test_unwritable_output_path(self, capsys, tmp_path):
        missing_dir = tmp_path / "does-not-exist" / "out.txt"
        code, _, err = _run(
            capsys, "charpoly", "--j", "2", "--output", str(missing_dir)
        )
        assert code == 2
        assert "cannot write output" in err


# Spin text: spellings of 2j = -3 .. 12, of the cap's 2j = 241, and
# refusals.  2j = 240 is accepted and costs seconds, so only 241 is spelled
# at the cap.
_SPIN_TEXT = st.one_of(
    st.builds("{}/2".format, st.integers(-3, 12)),
    st.builds(str, st.integers(-2, 6)),
    st.sampled_from((
        "1.5", "15e-1", "0.05e2", "+3/2", " 2 ", "3.0", "6/4", "-0", "0/5", "1/3", "0.25",
        "241/2", "120.5", "1205e-1", "121", "\u0663", "\u0665/\u0662", "\uff13",
        "\u0662\u0664\u0661/\u0662", "1e1000", "1e1001", "-1e1000", "1e-1000", "5e-1001",
        "", " ", "nan", "-inf", "Infinity", "1/0", "0x2", "0_3", "--1",
    )),
    _LONG,
)
_STEPS_TEXT = st.one_of(
    st.integers(-1, 3).map(str),
    st.sampled_from((str(MAX_STEPS + 1), "1e1", "3.0", "", "\u0663", " 3", "0x3", "nan")),
)
_PRECISION_TEXT = st.one_of(
    st.integers(MIN_PRECISION - 1, 40).map(str),
    st.sampled_from((str(MAX_PRECISION + 1), "-0", "", "3.4e1", "\u0663\u0664", "1_5")),
)


@st.composite
def _argv(draw):
    """One command line of classify, charpoly, table1, spectrum or evolve,
    with every value in the ``--flag=value`` form.  At most two options
    take sweep text; the others take a cheap value the command accepts, so
    that many command lines reach computation."""
    command = draw(st.sampled_from(("classify", "charpoly", "table1", "spectrum", "evolve")))
    # chi and t_max take verify's chi text, whose exponents keep an
    # accepted |chi·t_max| at most about 1e36.
    options = {
        "--j": (_SPIN_TEXT, None if command == "table1" else "5/2"),
        "--precision": (_PRECISION_TEXT, "20"),
        "--format": (st.sampled_from(("text", "json", "csv", "yaml")), None),
    }
    if command == "evolve":
        options.update({
            "--chi": (TestVerifyCommand._CHI, "-2/3"),
            "--t-max": (TestVerifyCommand._CHI, "3"),
            "--steps": (_STEPS_TEXT, "3"),
        })
    swept = draw(st.sets(st.sampled_from(sorted(options)), max_size=2))
    argv = [command]
    for flag, (text, accepted) in options.items():
        value = draw(text) if flag in swept else accepted
        if value is not None:
            argv.append(f"{flag}={value}")
    return tuple(argv)


class TestArgumentSweep:
    """The rest of ``verify``'s sweep (TestVerifyCommand): no argument text
    makes another command raise, and neither does an unwritable
    ``--output``.  Text that reaches computation stays cheap: 2j <= 12,
    steps <= 3 and precision <= 40."""

    @settings(derandomize=True, max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_argv(), output=st.sampled_from((None, "", "directory", "missing")))
    # A negative spin of more digits than the int-to-str limit (4300),
    # refused with its value in the message.
    @example(argv=("charpoly", "--j=-1" + "0" * 4000 + "e1000"), output=None)
    def test_arguments_never_raise(self, capsys, set_cpus, forks, tmp_path, argv, output):
        set_cpus(1)
        paths = {"directory": tmp_path, "missing": tmp_path / "absent" / "out.txt"}
        if output is not None:
            argv += (f"--output={paths.get(output, output)}",)
        code, _, err = _run(capsys, *argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        assert forks == []


# ---------------------------------------------------------------------------
# Parser shape
# ---------------------------------------------------------------------------

_HELP = (("-h", "--help"), "help", None, "==SUPPRESS==", False, None, 0,
         "show this help message and exit")
_PRECISION = (("--precision",), "precision", "int", 34, False, None, None,
              "working decimal digits, 15 to 100000 (default 34)")
_OUTPUT = (("--output",), "output", None, None, False, None, None,
           "destination file (default: stdout)")
_CHI = (("--chi",), "chi", "_rational", Fraction(1), False, None, None,
        "coupling strength as exact rational text (default 1)")


def _j(required):
    return (("--j",), "j", "_spin", None, required, None, None,
            "spin magnitude as integer or p/q text (e.g. 3 or 21/2)")


def _format(*choices):
    return (("--format",), "format", None, choices[0], False, choices, None,
            f"output format (default {choices[0]})")


# Every subcommand's argparse actions in declaration order: flags, dest, type,
# default, required, choices, nargs and help.  The rendered --help text is not
# pinned, because its layout differs between Python versions.
PARSER_SHAPE = [
    ("charpoly", "exact characteristic polynomial with parity/degeneracy metadata",
     [_HELP, _j(True), _PRECISION, _format("text", "json"), _OUTPUT]),
    ("spectrum", "eigenvalue report (JSON round-trips losslessly)",
     [_HELP, _j(True), _PRECISION, _format("json", "text"), _OUTPUT]),
    ("classify", "closed-form reachability class of a spin",
     [_HELP, _j(True), _PRECISION, _format("text", "json"), _OUTPUT]),
    ("verify", "property suite with PASS/FAIL per property",
     [_HELP, _j(True), _PRECISION, _format("text"), _OUTPUT, _CHI,
      (("--inject-fault",), "inject_fault", None, False, False, None, 0,
       "flip one coupling sign first; the suite must then fail")]),
    ("evolve", "squeezing time series as plot-ready CSV",
     [_HELP, _j(True), _PRECISION, _format("csv"), _OUTPUT, _CHI,
      (("--t-max",), "t_max", "_rational", None, True, None, None,
       "grid endpoint (exact rational text, e.g. 3 or 5/2)"),
      (("--steps",), "steps", "int", None, True, None, None,
       "number of grid points including both endpoints (2 to 100000)")]),
    ("table1", "compare computed polynomials against the bundled reference rows",
     [_HELP, _j(False), _PRECISION, _format("text"), _OUTPUT]),
]


def _action_row(action):
    return (
        tuple(action.option_strings),
        action.dest,
        getattr(action.type, "__qualname__", action.type),
        action.default,
        action.required,
        None if action.choices is None else tuple(action.choices),
        action.nargs,
        action.help,
    )


class TestParserShape:
    def test_subcommand_actions(self):
        parser = cli.build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        helps = {choice.dest: choice.help for choice in sub._choices_actions}
        shape = [
            (name, helps[name], [_action_row(a) for a in subparser._actions])
            for name, subparser in sub.choices.items()
        ]
        assert shape == PARSER_SHAPE

    def test_top_level(self):
        parser = cli.build_parser()
        assert parser.prog == "countertwist"
        assert parser.description == (
            "Exact characteristic polynomials, spectra, and squeezing "
            "dynamics of the two-axis countertwisting spin Hamiltonian."
        )
        version = next(
            a for a in parser._actions if isinstance(a, argparse._VersionAction)
        )
        assert version.option_strings == ["--version"]
        assert version.version == "countertwist 0.1.0"


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_run_of_calls_matches_separate_calls(self, capsys):
        argvs = [
            ["spectrum"],
            ["--help"],
            ["--version"],
            ["spectrum", "--j", "2", "--format", "text"],
            ["spectrum"],
        ]

        def run(argv):
            code = main(argv)
            out, err = capsys.readouterr()
            return code, out, err

        together = [run(argv) for argv in argvs]
        separate = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            separate.append(run(argv))
        assert [code for code, _, _ in together] == [2, 0, 0, 0, 2]
        assert together == separate
