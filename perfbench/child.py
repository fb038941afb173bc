"""One timed repetition: a fresh interpreter that imports the CLI and calls it.

``run.py`` starts it as ``python -I perfbench/child.py`` from the checkout root
and sends a JSON request on stdin: ``argvs`` (a list of argv lists for
``cuspsemi.cli.main``), ``trace`` and ``spans_path``.  The reply on stdout is
one JSON object: the monotonic time at which ``cuspsemi.cli`` was imported,
one record per call (wall seconds, exit code, stdout), the peak resident
memory (``VmHWM``) and, when traced, the per-layer metrics.

Nothing but ``cuspsemi.cli`` is imported before the ready stamp, so the set-up
time the parent computes covers interpreter start and the CLI import only.
"""

import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
sys.path[:0] = [_SRC, _HERE]

import cuspsemi.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402


def _call(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cuspsemi.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception as exc:  # a raising call is a failed call, not a crashed run
        error = repr(exc)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "rc": rc, "error": error, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _peak_rss_kb() -> int:
    """Peak resident memory of this process since exec, in KiB.

    ``ru_maxrss`` would also count the parent's peak, which Linux carries over
    an exec; ``VmHWM`` belongs to the new address space alone.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main() -> None:
    if not os.path.abspath(cuspsemi.cli.__file__).startswith(_SRC + os.sep):
        sys.stderr.write(f"cuspsemi imported from {cuspsemi.cli.__file__}, not from {_SRC}\n")
        raise SystemExit(3)
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    calls = [_call(argv) for argv in request["argvs"]]
    reply = {
        "ready": READY,
        "calls": calls,
        "peak_rss_kb": _peak_rss_kb(),
    }
    if tracer is not None:
        reply["layers"] = tracing.layer_metrics(tracer.spans)
        if request.get("spans_path"):
            tracer.write(request["spans_path"])
    sys.stdout.write(json.dumps(reply) + "\n")


if __name__ == "__main__":
    main()
