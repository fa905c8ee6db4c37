"""countertwist benchmark: closed-loop CLI workloads, one client.

Run from the repository root::

    python3 bench/run.py --workload curve_large --seed 0 --seconds 20 --trace 0

A pass runs the workload's operation list (see ``workloads.py``) in a fresh
interpreter (``child.py``), one operation after the other, so every pass
pays the import and cold-cache costs a CLI user pays and nothing cached in
one pass reaches the next.  Passes repeat, one child at a time, until the
next one would overrun ``--seconds`` (at least ``MIN_PASSES``).  Each op's
output is checked against the float64 oracles in ``oracle.py`` and, for the
seed the digests were recorded with, byte for byte against ``golden.json``.

Every time is calibrated: it is scaled to seconds at the box's nominal
speed by the speed that ``reference.py`` measured while it was taken (during
the operations for a pass, right after it for a set-up).  The shared box's
speed drifts by tens of percent from one second or minute to the next; the
calibration takes that drift out of the comparison of two runs.  The
uncalibrated pass time and the run's speed are printed and recorded too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer self times, calls and
errors (``tracing.py``) plus the tracing overhead.  The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
environment stamp, every pass and the raw spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

import oracle
import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = HERE / "golden.json"

MIN_PASSES = 3
SETUPS_PER_PASS = 2
CHILD_TIMEOUT_S = 150
# Share of a traced pass's wall time that the spans' self times must cover.
MIN_TRACE_COVERAGE = 0.9


def run_child(argvs: list[list[str]], trace: bool) -> dict:
    """Run one pass (or, with no argvs, only the set-up) in a fresh interpreter."""
    # The package comes from SRC alone, with a bytecode cache as an installed
    # package has, and with a fixed hash seed so passes differ only by noise.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(SRC)],
        input=json.dumps({"argvs": argvs, "trace": trace}),
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


class Checker:
    """Classifies each op result; remembers verdicts per distinct output."""

    def __init__(self, ops: list[workloads.Op], golden: dict[str, str]) -> None:
        self.ops = ops
        self.golden = golden
        self._verdicts: dict[tuple[int, str], str | None] = {}

    def failure(self, index: int, result: dict) -> tuple[str, str] | None:
        """None for a good op, else (kind, reason); kind "output" is a wrong answer."""
        op = self.ops[index]
        if result["error"] is not None:
            return "error", result["error"]
        if result["exit"] != op.expect_exit:
            return "exit", f"exit {result['exit']}, expected {op.expect_exit}"
        digest = hashlib.sha256(result["stdout"].encode()).hexdigest()
        if op.key in self.golden and self.golden[op.key] != digest:
            return "output", "stdout differs from the recorded golden digest"
        key = (index, digest)
        if key not in self._verdicts:
            self._verdicts[key] = oracle.check(op, result["stdout"])
        reason = self._verdicts[key]
        return None if reason is None else ("output", reason)


def measure(ops: list[workloads.Op], seconds: float, trace: bool,
            golden: dict[str, str], min_passes: int = MIN_PASSES) -> dict:
    """Passes, each after a few set-up-only children, until ``seconds`` is spent.

    Returns the set-up-only children's results, the passes, and the speed
    factor of the whole run (see ``speed_factor``).
    """
    argvs = [list(op.argv) for op in ops]
    run_child([], False)  # compiles the bytecode cache, as any earlier use would
    checker = Checker(ops, golden)
    setups, passes = [], []
    min_passes = max(min_passes, 4 if trace else 1)
    start = time.perf_counter()
    while True:
        setups += [run_child([], False) for _ in range(SETUPS_PER_PASS)]
        traced = trace and len(passes) % 2 == 1
        result = run_child(argvs, traced)
        failures = [checker.failure(i, r) for i, r in enumerate(result["ops"])]
        passes.append({"traced": traced, "result": result, "failures": failures})
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            ref_s = [t for r in setups + [p["result"] for p in passes]
                     for t in r["setup_ref_s"] + r["ref_s"]]
            return {"setups": setups, "passes": passes,
                    "speed": {"factor": speed_factor(ref_s), "samples": len(ref_s)}}


def speed_factor(ref_s: list[float]) -> float:
    """Nominal over measured speed: multiplies a time into calibrated seconds.

    The measured speed is the mean sample time without its top and bottom
    tenth: a mean follows the time the work spent at each speed, and the
    trim drops the samples that a host preemption or a page fault hit.
    """
    ordered = sorted(ref_s)
    cut = len(ordered) // 10
    return reference.NOMINAL_S / mean(ordered[cut:len(ordered) - cut])


def pass_speed(result: dict) -> float:
    """The speed factor of one pass.

    A pass too short to be sampled falls back on the samples after its set-up.
    """
    return speed_factor(result["ref_s"] or result["setup_ref_s"])


def end_to_end(ops: list[workloads.Op], raw: dict) -> tuple[dict, dict]:
    """Calibrated timing and memory medians, and the sample count behind each."""
    plain = [p["result"] for p in raw["passes"] if not p["traced"]]
    points = sum(op.points for op in ops)
    setups = [r["setup_s"] * speed_factor(r["setup_ref_s"]) for r in raw["setups"] + plain]
    passes = [r["pass_s"] * pass_speed(r) for r in plain]
    values = {
        "setup_s": median(setups),
        "pass_s": median(passes),
        "point_ms": median(passes) * 1e3 / points,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    samples = {"setup_s": len(setups), "pass_s": len(plain), "point_ms": len(plain),
               "peak_rss_mb": len(plain)}
    return values, samples


def per_layer(raw: dict) -> tuple[dict, dict, list[str]]:
    """Calibrated per-target medians over traced passes, overhead, coverage checks."""
    traced = [p["result"] for p in raw["passes"] if p["traced"]]
    plain = [p["result"] for p in raw["passes"] if not p["traced"]]
    summaries = [tracing.pass_summary(r["spans"], r["pauses"]) for r in traced]
    speeds = [pass_speed(r) for r in traced]
    values: dict[str, float] = {}
    for name in tracing.TARGETS:
        values[f"{name}.s"] = median([s[name]["s"] * v for s, v in zip(summaries, speeds)])
        for field in ("calls", "errors"):
            values[f"{name}.{field}"] = median([s[name][field] for s in summaries])
    for layer in tracing.LAYERS:
        values[f"layer.{layer}.s"] = median(
            [v * sum(row["s"] for n, row in s.items() if n.startswith(layer + "."))
             for s, v in zip(summaries, speeds)])
    coverage = [sum(row["s"] for row in s.values()) / r["pass_s"]
                for s, r in zip(summaries, traced)]
    values["trace_coverage_frac"] = median(coverage)
    values["trace_overhead_frac"] = (
        median([r["pass_s"] * v for r, v in zip(traced, speeds)])
        / median([r["pass_s"] * pass_speed(r) for r in plain]) - 1)
    problems = [f"traced pass {i}: self times cover {c:.3f} of its wall time"
                for i, c in enumerate(coverage) if not MIN_TRACE_COVERAGE <= c <= 1.0 + 1e-9]
    samples = {name: len(traced) for name in values}
    samples["trace_overhead_frac"] = len(plain)
    return values, samples, problems


def _commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    """SHA-256 over the package sources, which identifies the code measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int, raw: dict, samples: dict) -> dict:
    return {
        "commit": _commit(),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath_backend": raw["passes"][0]["result"]["mpmath_backend"],
        "seed": seed,
        "speed": raw["speed"],
        "samples": samples,
    }


def load_golden(workload: str, seed: int) -> dict[str, str]:
    """Recorded stdout digests for ``workload`` when ``seed`` is the recorded seed."""
    if not GOLDEN.is_file():
        return {}
    golden = json.loads(GOLDEN.read_text())
    return golden["digests"].get(workload, {}) if golden["seed"] == seed else {}


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def benchmark(workload: str, ops: list[workloads.Op], seed: int, seconds: float,
              trace: bool, golden: dict[str, str], min_passes: int = MIN_PASSES) -> dict:
    """Measure, check and summarise one run; returns the report and raw rows."""
    raw = measure(ops, seconds, trace, golden, min_passes)
    failures = [f for p in raw["passes"] for f in p["failures"] if f is not None]
    attempted = sum(len(p["failures"]) for p in raw["passes"])
    if trace:
        values, samples, problems = per_layer(raw)
    else:
        values, samples = end_to_end(ops, raw)
        values["success_frac"] = 1 - len(failures) / attempted
        samples["success_frac"] = attempted
        problems = []
    problems += sorted({f"wrong output: {reason}" for kind, reason in failures
                        if kind == "output"})
    units = load_units()
    return {
        "workload": workload,
        "environment": environment(seed, raw, samples),
        "failures": sorted({f"{kind}: {reason}" for kind, reason in failures}),
        "problems": problems,
        "fail_frac": len(failures) / attempted,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()},
        },
        "raw": raw,
    }


def write_outputs(report: dict, seed: int, trace: bool) -> Path:
    """Stamp, metrics, every pass, and (traced) every span, under .bench_out/."""
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{report['workload']}-seed{seed}-trace{int(trace)}"
    passes = []
    spans = []
    for number, p in enumerate(report["raw"]["passes"]):
        result = dict(p["result"])
        result.pop("pauses", None)
        for span in result.pop("spans", []):
            name, start, end, parent, op, error = span
            spans.append({"pass": number, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "op": op, "error": error})
        result["ops"] = [{k: v for k, v in o.items() if k not in ("stdout", "stderr")}
                         for o in result["ops"]]
        passes.append({"traced": p["traced"], "failures": p["failures"], **result})
    summary = {k: v for k, v in report.items() if k != "raw"}
    summary["setups"] = [{k: v for k, v in r.items() if k != "ops"}
                         for r in report["raw"]["setups"]]
    summary["passes"] = passes
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n")
    if spans:
        with open(stem.with_suffix(".spans.jsonl"), "w") as stream:
            stream.writelines(json.dumps(s) + "\n" for s in spans)
    return stem


def print_report(report: dict) -> None:
    """Stamp, one line per metric with unit and sample count, then the result.

    The stamp line leaves out the sample counts, which follow on each metric line.
    """
    result = report["result"]
    stamp = {k: v for k, v in report["environment"].items() if k != "samples"}
    print("env " + json.dumps(stamp))
    plain = [p["result"]["pass_s"] for p in report["raw"]["passes"] if not p["traced"]]
    print(f"uncalibrated pass wall time = {median(plain):.6g} s (n={len(plain)}); "
          f"speed factor = {report['environment']['speed']['factor']:.6g}")
    for name, metric in result["metrics"].items():
        n = report["environment"]["samples"][name]
        print(f"{name} = {metric['value']:.6g} {metric['unit']} (n={n})")
    print(f"fail_frac = {report['fail_frac']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")
    for line in report["failures"] + report["problems"]:
        print(f"  {line}")
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "countertwist" / "cli.py").is_file():
        print(f"error: no countertwist sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    ops = workloads.build_ops(args.workload, args.seed)
    report = benchmark(args.workload, ops, args.seed, args.seconds, trace,
                       load_golden(args.workload, args.seed))
    write_outputs(report, args.seed, trace)
    print_report(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
