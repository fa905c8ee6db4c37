"""Fast self-test of the benchmark, on tiny op lists.

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

TINY = {
    "curve_large": [workloads.evolve_op("1", Fraction(1), 3)],
    "curve_fine": [workloads.evolve_op("1/2", Fraction(1), 4)],
    "spectra": [
        Op(argv=("charpoly", "--j", "2"), kind="charpoly", j="2"),
        Op(argv=("spectrum", "--j", "3/2", "--format", "json"), kind="spectrum", j="3/2"),
    ],
    "verify": [
        Op(argv=("verify", "--j", "2"), kind="verify", j="2"),
        Op(argv=("verify", "--j", "2", "--inject-fault"), kind="verify", j="2",
           expect_exit=1),
    ],
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(ops: list[Op], trace: bool, golden: dict[str, str] | None = None) -> dict:
    return run.benchmark("tiny", ops, seed=0, seconds=0, trace=trace,
                         golden=golden or {}, min_passes=1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_is_printed_with_its_unit(workload, trace, capsys):
    report = _run(TINY[workload], trace)
    run.print_report(report)
    printed = capsys.readouterr().out.splitlines()
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    result = json.loads(printed[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} = ") and f" {metric['unit']} (n=" in line
                   for line in printed)
    assert any(line.startswith("fail_frac = 0 ratio") for line in printed)


def test_corrupted_golden_digest_is_a_failure():
    ops = TINY["spectra"]
    report = _run(ops, False, golden={ops[0].key: "0" * 64})
    assert report["fail_frac"] > 0
    assert not report["result"]["correct"]


def test_wrong_exit_code_is_a_failure():
    ops = [dataclasses.replace(TINY["verify"][0], expect_exit=1)]
    report = _run(ops, False)
    assert report["fail_frac"] > 0
    assert report["result"]["failed"] == report["result"]["attempted"]


def test_self_times_leave_out_children_and_pauses():
    import tracing

    spans = [
        ["cli.main", 0, 100, -1, 0, 0],
        ["evolution.time_series", 10, 90, 0, 0, 0],
        ["evolution.optimal_xi", 20, 30, 1, 0, 0],
        ["evolution.optimal_xi", 40, 50, 1, 0, 0],
    ]
    # One pause inside the first leaf, one between the leaves, one after them.
    pauses = [[22, 24], [32, 38], [92, 95]]
    assert tracing.self_times(spans, pauses) == [20 - 3, 60 - 6, 10 - 2, 10]
