"""One benchmark pass in a fresh interpreter.

Usage: ``python child.py <dir holding countertwist>`` with a JSON job
``{"argvs": [[...], ...], "trace": bool}`` on stdin.  Times the import of
``countertwist.cli`` plus building its parser (set-up), then runs each argv
in-process through ``countertwist.cli.main`` with stdout and stderr
captured, one after the other.  Speed samples of ``reference.py`` are taken
right after the set-up and all through the operations; an operation's time,
and a span's, leaves out the samples taken during it.  Writes one
JSON result to stdout.

The process never lifts Python's int-to-str digit limit: an operation that
hits it fails here as it fails for a user.
"""

import sys
import time

# Speed samples taken right after the set-up.
SETUP_SAMPLES = 10


def _peak_rss_kb() -> int:
    """This process's own peak RSS.

    ``ru_maxrss`` would also count the parent's pages present when the
    process was forked, so the kernel's high-water mark of the current
    address space (VmHWM) is read instead.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main() -> None:
    src = sys.argv[1]
    job_text = sys.stdin.read()
    start = time.perf_counter()
    sys.path.insert(0, src)
    import countertwist.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - start

    import contextlib
    import io
    import json
    import os

    import mpmath

    import reference

    job = json.loads(job_text)
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"countertwist imported from {cli.__file__}, not {src}")
    recorder = None
    if job["trace"]:
        import tracing

        recorder = tracing.Recorder()
        recorder.install()

    reference.sample()  # warm-up, untimed
    setup_ref_s = [reference.sample() for _ in range(SETUP_SAMPLES)]
    sampler = reference.Sampler()
    ops = []
    clock = time.perf_counter_ns
    for index, argv in enumerate(job["argvs"]):
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        if recorder is not None:
            recorder.op = index
        spent_ns = sampler.spent_ns
        start = clock()
        sampler.start()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a counted failure, not the end of the pass
            error = f"{type(exc).__name__}: {exc}"
        finally:
            sampler.stop()
        ns = clock() - start - (sampler.spent_ns - spent_ns)
        ops.append({"ns": ns, "exit": code, "error": error,
                    "stdout": out.getvalue(), "stderr": err.getvalue()})

    result = {
        "setup_s": setup_s,
        "pass_s": sum(op["ns"] for op in ops) / 1e9,
        "setup_ref_s": setup_ref_s,
        "ref_s": sampler.samples,
        "peak_rss_mb": _peak_rss_kb() / 1024,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "ops": ops,
    }
    if recorder is not None:
        result["spans"] = recorder.spans
        result["pauses"] = sampler.pauses
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
