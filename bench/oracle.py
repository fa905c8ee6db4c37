"""Independent float64 checks of countertwist CLI output.

Nothing here imports countertwist: the spin matrices are rebuilt from the
textbook definitions with numpy, and every check compares the program's
text against them.  Each check returns ``None`` when the output is right,
or a one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from workloads import Op

# float64 eigen-solvers on matrices of norm ~j^2 agree with exact values to
# ~1e-13 relative; these tolerances sit three or more orders above that.
EIG_RTOL = 1e-10
EVOLVE_RTOL = 1e-10


def spin_matrices(j: Fraction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx, Jy, Jz) in the m-descending basis |j, j>, ..., |j, -j>."""
    n = int(2 * j) + 1
    m = np.array([float(j) - a for a in range(n)])
    jplus = np.zeros((n, n))
    for a in range(1, n):  # J+ |m> = sqrt(j(j+1) - m(m+1)) |m+1>
        jplus[a - 1, a] = np.sqrt(float(j * (j + 1)) - m[a] * (m[a] + 1))
    jx = (jplus + jplus.T) / 2
    jy = (jplus - jplus.T) / 2j
    return jx.astype(complex), jy, np.diag(m).astype(complex)


def tac_hamiltonian(j: Fraction) -> np.ndarray:
    """H / chi = Jx Jy + Jy Jx."""
    jx, jy, _ = spin_matrices(j)
    return jx @ jy + jy @ jx


def coherent_x_state(j: Fraction) -> np.ndarray:
    """The coherent state along +x: the top eigenvector of Jx."""
    jx, _, _ = spin_matrices(j)
    return np.linalg.eigh(jx)[1][:, -1]


def _close(got: float, want: float, scale: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * (1 + scale)


def check_charpoly(op: Op, stdout: str) -> str | None:
    """Degree, parity and "discriminant = 0 iff j is half-integer"."""
    j = Fraction(op.j)
    n = int(2 * j) + 1
    fields = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    half_integer = j.denominator == 2
    want = {
        "degree": str(n),
        "parity": "odd" if n % 2 else "even",
        "degenerate": "yes" if half_integer else "no",
    }
    for key, value in want.items():
        if fields.get(key) != value:
            return f"{key} = {fields.get(key)!r}, expected {value!r}"
    if (fields.get("discriminant") == "0") != half_integer:
        return f"discriminant {fields.get('discriminant', '?')[:20]} vs half-integer {half_integer}"
    return None


def check_spectrum(op: Op, stdout: str) -> str | None:
    """Eigenvalues with multiplicity against numpy.linalg.eigvalsh."""
    j = Fraction(op.j)
    report = json.loads(stdout)
    got = sorted(float(ev["value"]) for ev in report["eigenvalues"]
                 for _ in range(ev["multiplicity"]))
    want = np.linalg.eigvalsh(tac_hamiltonian(j))
    if len(got) != len(want):
        return f"{len(got)} eigenvalues with multiplicity, expected {len(want)}"
    scale = float(np.abs(want).max())
    worst = float(np.abs(np.array(got) - want).max())
    if worst > EIG_RTOL * (1 + scale):
        return f"eigenvalues differ from eigvalsh by {worst:.3g}"
    if report["degenerate"] != (j.denominator == 2):
        return f"degenerate = {report['degenerate']} at j = {op.j}"
    return None


def check_evolve(op: Op, stdout: str) -> str | None:
    """jx_mean, var_jy and var_jz per grid point against exp(-iHt) by eigh."""
    j = Fraction(op.j)
    t_max = Fraction(op.argv[op.argv.index("--t-max") + 1])
    lines = [line for line in stdout.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != op.points:
        return f"{len(rows)} grid rows, expected {op.points}"
    jx, jy, jz = spin_matrices(j)
    values, vectors = np.linalg.eigh(tac_hamiltonian(j))
    start = vectors.conj().T @ coherent_x_state(j)
    scale = float(j * j)
    for i, row in enumerate(rows):
        cell = dict(zip(header, row))
        t = float(cell["chi_t"])
        if not _close(t, float(t_max * i / (op.points - 1)), 1.0, EVOLVE_RTOL):
            return f"row {i}: chi_t = {cell['chi_t']}"
        psi = vectors @ (np.exp(-1j * values * t) * start)

        def mean(op_matrix):
            return float(np.real(psi.conj() @ op_matrix @ psi))

        want = {
            "jx_mean": mean(jx),
            "var_jy": mean(jy @ jy) - mean(jy) ** 2,
            "var_jz": mean(jz @ jz) - mean(jz) ** 2,
        }
        for name, value in want.items():
            if not _close(float(cell[name]), value, scale, EVOLVE_RTOL):
                return f"row {i}: {name} = {cell[name]}, oracle {value:.12g}"
    return None


def check_verify(op: Op, stdout: str) -> str | None:
    """The suite's verdict: PASS, or FAIL for the fault-injected control."""
    want = "RESULT: FAIL" if op.expect_exit else "RESULT: PASS"
    last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
    return None if last == want else f"last line {last!r}, expected {want!r}"


CHECKS = {
    "charpoly": check_charpoly,
    "spectrum": check_spectrum,
    "evolve": check_evolve,
    "verify": check_verify,
}


def check(op: Op, stdout: str) -> str | None:
    """Run the check for the op's subcommand; a parse failure is a failure."""
    try:
        return CHECKS[op.kind](op, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
