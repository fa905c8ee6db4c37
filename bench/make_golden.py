"""Record the stdout digests that ``run.py`` compares against.

Run from the repository root, at the commit whose output is the reference::

    python3 bench/make_golden.py

Every op of every workload for ``GOLDEN_SEED`` runs once in this process;
the SHA-256 of its stdout goes to ``bench/golden.json``.  This process, and
only this one, lifts Python's int-to-str digit limit, so that an op which
crashes under the limit (``charpoly --j 22``) is recorded with the output a
correct program prints.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
GOLDEN_SEED = 0


def main() -> int:
    sys.set_int_max_str_digits(0)
    sys.path.insert(0, str(HERE.parent / "src"))
    from countertwist import cli

    import run

    digests: dict[str, dict[str, str]] = {}
    for workload in workloads.WORKLOADS:
        digests[workload] = {}
        for op in workloads.build_ops(workload, GOLDEN_SEED):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(op.argv))
            if code != op.expect_exit:
                print(f"error: {op.key} exited {code}, expected {op.expect_exit}",
                      file=sys.stderr)
                return 1
            digests[workload][op.key] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    golden = {"seed": GOLDEN_SEED, "src_sha256": run.src_digest(), "digests": digests}
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
