"""Operation lists of the four benchmark workloads.

An operation is one ``countertwist`` command line plus what the output
check needs to know about it.  The workload seed picks the inputs; the same
seed always gives the same list, and every pass of a run repeats it.

Why each workload exists:

``curve_large``
    ``evolve`` at j = 10 and j = 21/2 on an 11-point grid.  The dense
    O(n^3) propagator and its unitarity certificate dominate; an integer
    spin (two distinct chains) and a half-integer one (twin chains) both run.
``curve_fine``
    ``evolve`` at j = 2 and j = 5/2 on a fine grid.  Tiny matrices, many
    calls: fixed per-call costs dominate, so added per-call set-up shows.
``spectra``
    ``charpoly`` and ``spectrum`` over a ladder of spins, radical path at
    j = 7 and 15/2 and Aberth above.  No dynamics run: the control workload
    for any change to the propagator.  ``charpoly --j 22`` fails at the
    seed commit (printing its 14 453-bit discriminant exceeds Python's
    int-to-str digit limit); it stays in the list as a counted failure.
``verify``
    The property suite, the only caller of the Taylor propagator and the
    chiral operator, plus a fault-injected negative control (exit 1).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

PRECISION = 34

WORKLOADS = ("curve_large", "curve_fine", "spectra", "verify")

CURVE_LARGE_SPINS = ("10", "21/2")
CURVE_LARGE_STEPS = 11
CURVE_FINE_SPINS = ("2", "5/2")
CURVE_FINE_STEPS = 201
SPECTRA_SPINS = ("7", "15/2", "12", "25/2", "16", "20", "41/2", "22")
SPECTRA_PRECISION_JITTER = 4
VERIFY_SPINS = ("2", "10", "21/2", "12")
VERIFY_CHI = ("1/2", "2/3", "3/4", "1", "5/4", "4/3", "3/2")
FAULT_SPIN = "10"


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the facts its output check relies on.

    :param argv: arguments to ``countertwist.cli.main``.
    :param kind: the subcommand.
    :param j: the spin as CLI text.
    :param points: grid points for ``evolve``; 1 for every other command.
    :param expect_exit: the exit code a correct program returns.
    """

    argv: tuple[str, ...]
    kind: str
    j: str
    points: int = 1
    expect_exit: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _t_max(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(20, 30), 10)


def evolve_op(j: str, t_max: Fraction, steps: int) -> Op:
    argv = ("evolve", "--j", j, "--t-max", str(t_max), "--steps", str(steps),
            "--precision", str(PRECISION))
    return Op(argv=argv, kind="evolve", j=j, points=steps)


def build_ops(workload: str, seed: int) -> list[Op]:
    """The fixed operation list of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "curve_large":
        return [evolve_op(j, _t_max(rng), CURVE_LARGE_STEPS) for j in CURVE_LARGE_SPINS]
    if workload == "curve_fine":
        return [evolve_op(j, _t_max(rng), CURVE_FINE_STEPS) for j in CURVE_FINE_SPINS]
    if workload == "spectra":
        ops = []
        for j in SPECTRA_SPINS:
            ops.append(Op(argv=("charpoly", "--j", j), kind="charpoly", j=j))
            p = PRECISION + rng.randint(-SPECTRA_PRECISION_JITTER, SPECTRA_PRECISION_JITTER)
            ops.append(Op(argv=("spectrum", "--j", j, "--precision", str(p),
                                "--format", "json"), kind="spectrum", j=j))
        p = 50 + rng.randint(-SPECTRA_PRECISION_JITTER, SPECTRA_PRECISION_JITTER)
        ops.append(Op(argv=("spectrum", "--j", "30", "--precision", str(p),
                            "--format", "json"), kind="spectrum", j="30"))
        rng.shuffle(ops)
        return ops
    if workload == "verify":
        ops = [
            Op(argv=("verify", "--j", j, "--chi", rng.choice(VERIFY_CHI),
                     "--precision", str(PRECISION)), kind="verify", j=j)
            for j in VERIFY_SPINS
        ]
        ops.append(Op(argv=("verify", "--j", FAULT_SPIN, "--inject-fault",
                            "--precision", str(PRECISION)),
                      kind="verify", j=FAULT_SPIN, expect_exit=1))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
