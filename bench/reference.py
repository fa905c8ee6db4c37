"""The box's speed while a pass runs, from a fixed computation outside countertwist.

The two-core box the benchmark runs on is shared: from one second to the
next the same work can take 30 % more or less wall time, and CPU time moves
with it.  A reference computation of the same kind as the solver's work (a
dense product of 34-digit binary floats through mpmath's pure-Python
``libmp``) slows down and speeds up with the box.  ``Sampler`` runs it from a
timer signal every ``INTERVAL_S`` while an operation runs, so the samples
cover the same stretch of time as the work they calibrate; the time spent
in samples is taken out of the operation's time.  The benchmark reports
each time scaled to the box's nominal speed::

    calibrated = measured * NOMINAL_S / trimmed mean(samples taken meanwhile)

No countertwist change can move the reference, so a faster program still
shows as a smaller calibrated time.  ``libmp`` functions keep no state, so a
sample leaves nothing behind that an operation could reuse.
"""

from __future__ import annotations

import signal
import time
from functools import reduce

from mpmath.libmp import from_rational, mpf_add, mpf_mul, round_nearest

PREC = 113  # bits: 34 decimal digits, the benchmark's working precision
SIZE = 8
INTERVAL_S = 0.05
# Mean time of ``sample()`` on the two-core Xeon box the bounds were set on;
# calibrated times are seconds at that speed.
NOMINAL_S = 0.0016

_ZERO = from_rational(0, 1, PREC, round_nearest)
_MATRIX = [[from_rational(7 * i + k + 1, k + 3, PREC, round_nearest) for k in range(SIZE)]
           for i in range(SIZE)]


def sample() -> float:
    """Seconds taken by one fixed matrix product."""
    start = time.perf_counter()
    [[reduce(lambda acc, k: mpf_add(acc, mpf_mul(row[k], _MATRIX[k][col], PREC, round_nearest),
                                    PREC, round_nearest), range(SIZE), _ZERO)
      for col in range(SIZE)] for row in _MATRIX]
    return time.perf_counter() - start


class Sampler:
    """Speed samples from SIGALRM while started.

    ``pauses`` holds the ``[start_ns, end_ns]`` of each sample, so that span
    times can leave them out, and ``spent_ns`` their total.  The timer is
    one-shot and re-armed after each sample, so samples never nest and the
    gap between two of them is ``INTERVAL_S`` of other work.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.pauses: list[list[int]] = []
        self.spent_ns = 0
        self._active = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self.samples.append(sample())
        end = time.perf_counter_ns()
        self.pauses.append([start, end])
        self.spent_ns += end - start
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
