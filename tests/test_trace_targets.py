"""The benchmark's trace targets name live functions of the package.

``bench/tracing.py`` looks up every entry of ``TARGETS`` with getattr when a
traced run starts, so a renamed or deleted function would only show up as a
crash of ``bench/run.py --trace 1``.  The module is imported from its own
directory without writing bytecode there.
"""

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def _tracing_module():
    sys.path.insert(0, str(BENCH_DIR))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracing")
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(BENCH_DIR))


def test_every_trace_target_resolves():
    targets = _tracing_module().TARGETS
    assert targets
    for name, (module_name, path) in targets.items():
        owner = importlib.import_module(f"countertwist.{module_name}")
        for part in path.split("."):
            assert hasattr(owner, part), f"{name}: {module_name}.{path} is missing"
            owner = getattr(owner, part)
        assert callable(owner), name
