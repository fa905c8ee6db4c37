"""The benchmark's recorded stdout digests, replayed in the test suite.

``bench/golden.json`` pins the SHA-256 of the stdout of every seed-0
operation of the four benchmark workloads.  The benchmark only reports a
changed byte as a drop in its success fraction; replaying the same
operations here through ``countertwist.cli.main`` makes it a test failure.
``bench/workloads.py`` is imported from its own directory without writing
bytecode there.
"""

import contextlib
import hashlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

from countertwist.cli import main

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = json.loads((BENCH_DIR / "golden.json").read_text())


def _workloads_module():
    sys.path.insert(0, str(BENCH_DIR))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(BENCH_DIR))


def _ops():
    workloads = _workloads_module()
    return [
        (name, op)
        for name in workloads.WORKLOADS
        for op in workloads.build_ops(name, GOLDEN["seed"])
    ]


OPS = _ops()


def test_every_digest_has_an_operation():
    replayed = {(name, op.key) for name, op in OPS}
    recorded = {
        (name, key) for name, digests in GOLDEN["digests"].items() for key in digests
    }
    assert recorded and recorded == replayed


@pytest.mark.parametrize("name, op", OPS, ids=[f"{name}: {op.key}" for name, op in OPS])
def test_stdout_matches_recorded_digest(name, op):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(op.argv))
    assert code == op.expect_exit
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == GOLDEN["digests"][name][op.key]
