"""Benchmark of the cuspsemi CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload supersym-sweep --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0        # every workload in turn

Run it from the root of a checkout; it imports cuspsemi from ``src``.  Each
repetition is a fresh interpreter (``child.py``) that imports ``cuspsemi.cli``
and calls ``cli.main`` once per argv list of the workload: one client in a
closed loop, one process, no threads.  Repetitions run back to back until the
next one would end after ``--seconds``; there is always at least one.

With ``--trace 0`` it reports the end-to-end metrics, each a median over the
run: ``wall_s`` (time inside ``cli.main``, summed over the workload's calls),
``setup_s`` (interpreter start until ``cuspsemi.cli`` is imported, over
``SETUP_PROBES`` bare starts before each repetition and the repetition's own
start) and ``peak_rss_mb``.
With ``--trace 1`` it alternates untraced and traced repetitions and reports
the per-layer metrics of ``tracer.py`` plus ``trace.overhead_s``; the spans of
the last traced repetition are written under ``.perfbench/``.

Every call is checked against ``reference.json``; a call that raises, exits
non-zero or prints other output counts as failed.  A traced call must also
print exactly what the untraced call printed, and counts must repeat across
traced repetitions.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  When the program
cannot be started at all, the benchmark exits 1 without that line.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SPANS_DIR = ROOT / ".perfbench"
SETUP_PROBES = 4  # bare interpreter starts before each repetition
TIME_LIMIT_S = 170.0  # per workload; the benchmark must end within 180 s


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def launch(argvs: list[list[str]], deadline: float, trace: bool = False, spans_path: Path | None = None) -> dict:
    """Run one fresh interpreter over ``argvs`` and return its reply."""
    request = json.dumps({"argvs": argvs, "trace": trace, "spans_path": str(spans_path) if spans_path else None})
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(CHILD)],
            input=request,
            capture_output=True,
            encoding="utf-8",
            cwd=ROOT,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise BenchError("a repetition ran past the benchmark's time limit")
    if proc.returncode != 0:
        raise BenchError(f"the repetition's interpreter exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    reply = json.loads(proc.stdout)
    reply["setup_s"] = reply["ready"] - start
    reply["wall_s"] = sum(call["wall_s"] for call in reply["calls"])
    reply["elapsed_s"] = time.monotonic() - start
    return reply


class Run:
    """Repetitions of one workload with one seed, and the failures they showed."""

    def __init__(self, workload: str, seed: int, seconds: int, reference: dict) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.reference = reference
        self.argvs = workloads.argv_list(workload, seed)
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.reps: list[dict] = []
        self._start = 0.0

    def launch(self, trace: bool = False, spans_path: Path | None = None) -> dict:
        reply = launch(self.argvs, self.deadline, trace, spans_path)
        for i, call in enumerate(reply["calls"]):
            call["failure"] = workloads.call_failure(self.workload, i, self.seed, call, self.reference)
        self.reps.append(reply)
        return reply

    def start_clock(self) -> None:
        launch([], self.deadline)  # the import works and its bytecode is cached
        self._start = time.monotonic()

    def room_for(self, durations: list[float]) -> bool:
        """Whether one more step, taking about as long as ``durations``, ends in time."""
        estimate = statistics.median(durations)
        now = time.monotonic()
        return now - self._start + estimate <= self.seconds and now + estimate < self.deadline

    def result(self, metrics: dict[str, tuple[float, str]], samples: dict[str, str]) -> dict:
        calls = [call for rep in self.reps for call in rep["calls"]]
        return {
            "workload": self.workload,
            "seed": self.seed,
            "attempted": len(calls),
            "failures": [call["failure"] for call in calls if call["failure"]],
            "metrics": metrics,
            "samples": samples,
        }


def measure(run: Run) -> dict:
    """End-to-end metrics of untraced repetitions."""
    run.start_clock()
    setups, reps, steps = [], [], []
    while not steps or run.room_for(steps):
        start = time.monotonic()
        setups += [launch([], run.deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        reps.append(run.launch())
        steps.append(time.monotonic() - start)
    setups += [r["setup_s"] for r in reps]
    n = len(reps)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in reps) / 1024, "MB"),
    }
    samples = {
        "wall_s": f"median of {n} repetitions",
        "setup_s": f"median of {len(setups)} interpreter starts",
        "peak_rss_mb": f"median of {n} repetitions",
    }
    return run.result(metrics, samples)


def measure_traced(run: Run) -> dict:
    """Per-layer metrics, from traced repetitions alternating with untraced ones."""
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"spans-{run.workload}-seed{run.seed}.tsv"
    run.start_clock()
    plain = [run.launch()]
    traced = [run.launch(trace=True, spans_path=spans_path)]
    while True:
        side = plain if len(plain) <= len(traced) else traced
        if not run.room_for([r["elapsed_s"] for r in side]):
            break
        side.append(run.launch(trace=side is traced, spans_path=spans_path))

    first = traced[0]["layers"]
    for k, rep in enumerate(traced):
        changed = [m for m, (v, unit) in rep["layers"].items() if unit != "s" and v != first[m][0]]
        for i, (call, untraced) in enumerate(zip(rep["calls"], plain[0]["calls"])):
            if changed:
                call["failure"] = f"traced repetition {k}: counts differ from the first ({', '.join(changed)})"
            elif call["stdout"] != untraced["stdout"]:
                call["failure"] = f"traced repetition {k}, call {i}: stdout differs from the untraced run"

    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(rep["layers"][name][0] for rep in traced)
        metrics[name] = (value, unit)
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    samples = {"self_s": f"median of {len(traced)} traced repetitions ({len(plain)} untraced)"}
    return run.result(metrics, samples)


def report(result: dict) -> None:
    """Print one workload's metrics by name, with units and sample counts."""
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"{result['workload']} seed={result['seed']}")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:42s} {value:>14.6g} {unit:6s} {result['samples'].get(name, '')}".rstrip())
    if "self_s" in result["samples"]:
        print(f"  (times: {result['samples']['self_s']})")
    print(f"  {'error_rate':42s} {failed / attempted:>14.6g} ratio  {failed} of {attempted} calls failed")
    for reason in result["failures"][:10]:
        print(f"  FAILED: {reason}", file=sys.stderr)


def _terminate(signum, frame):
    # Unwinding through subprocess.run kills and reaps the running repetition.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    default_seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    parser.add_argument("--seconds", type=int, default=default_seconds, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        reference = workloads.load_reference()
        results = []
        for name in names:
            run = Run(name, args.seed, args.seconds, reference)
            results.append(measure_traced(run) if args.trace else measure(run))
            report(results[-1])
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def as_json(metrics: dict) -> dict:
        return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    attempted = sum(r["attempted"] for r in results)
    failed = sum(len(r["failures"]) for r in results)
    if args.workload == "all":
        metrics = {r["workload"]: as_json(r["metrics"]) for r in results}
    else:
        metrics = as_json(results[0]["metrics"])
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
