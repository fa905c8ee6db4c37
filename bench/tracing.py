"""Spans around the public functions of each countertwist layer.

The benchmark records these spans from its own code: ``Recorder.install``
replaces every module binding of each listed function with a timing
wrapper, so calls made through ``from .x import f`` copies are caught too.
Spans stay in memory as ``[name, start_ns, end_ns, parent, op, error]``
lists; ``parent`` is the index of the enclosing span (-1 for a root) and
``op`` the index of the CLI operation that caused it.
"""

from __future__ import annotations

import bisect
import functools
import sys
import time

# Metric name -> (module, attribute path).  A layer is a module.
TARGETS: dict[str, tuple[str, str]] = {
    "spin_algebra.build_h_ta": ("spin_algebra", "build_h_ta"),
    "spin_algebra.build_cartesian": ("spin_algebra", "build_cartesian"),
    "spin_algebra.chiral_operator": ("spin_algebra", "chiral_operator"),
    "spin_algebra.DenseOperator.matmul": ("spin_algebra", "DenseOperator.matmul"),
    "charpoly.char_poly_exact": ("charpoly", "char_poly_exact"),
    "charpoly.block_polynomials": ("charpoly", "block_polynomials"),
    "charpoly.degeneracy_report": ("charpoly", "degeneracy_report"),
    "charpoly.discriminant": ("charpoly", "discriminant"),
    "charpoly.classify_solvability": ("charpoly", "classify_solvability"),
    "spectrum.spectrum": ("spectrum", "spectrum"),
    "evolution.time_series": ("evolution", "time_series"),
    "evolution.propagator_spectral": ("evolution", "propagator_spectral"),
    # The unitarity certificate runs in the dataclass __post_init__.
    "evolution.Propagator.certify": ("evolution", "Propagator.__post_init__"),
    "evolution.propagator_taylor": ("evolution", "propagator_taylor"),
    "evolution.coherent_initial_state": ("evolution", "coherent_initial_state"),
    "evolution.heisenberg_expectations": ("evolution", "heisenberg_expectations"),
    "evolution.optimal_xi": ("evolution", "optimal_xi"),
    "cli.main": ("cli", "main"),
}

LAYERS = ("spin_algebra", "charpoly", "spectrum", "evolution", "cli")


class Recorder:
    """In-memory span log for one pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = 1
                raise
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``countertwist`` module."""
        modules = [m for n, m in sys.modules.items()
                   if n == "countertwist" or n.startswith("countertwist.")]
        for name, (module_name, path) in TARGETS.items():
            owner = sys.modules[f"countertwist.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            if outer:  # a method: the class attribute is the only binding
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)


def self_times(spans: list[list], pauses: list[list[int]]) -> list[int]:
    """Each span's duration minus its direct children's and the pauses in it.

    A pause (``[start_ns, end_ns]`` of a speed sample, see ``reference.py``)
    is charged to the innermost span holding it.  Spans are listed in start
    order and nest, so that span is the last one started before the pause
    or one of its ancestors.
    """
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    starts = [span[1] for span in spans]
    for start, end in pauses:
        index = bisect.bisect_right(starts, start) - 1
        while index >= 0 and spans[index][2] < end:
            index = spans[index][3]
        if index >= 0:
            own[index] -= end - start
    return own


def pass_summary(spans: list[list], pauses: list[list[int]]) -> dict[str, dict[str, float]]:
    """Per target: self time in seconds, calls and errors over one pass."""
    summary = {name: {"s": 0.0, "calls": 0, "errors": 0} for name in TARGETS}
    for span, own in zip(spans, self_times(spans, pauses)):
        row = summary[span[0]]
        row["s"] += own / 1e9
        row["calls"] += 1
        row["errors"] += span[5]
    return summary
