"""Measure the baseline: two sets of ten runs per workload, each run with another seed.

    python3 perfbench/baseline.py

Run it from the root of a checkout.  It starts ``run.py`` once per run with
the settings of ``BENCHMARK.json``, one set after the other, and writes
``baseline.json`` beside this file.  For each set, workload and end-to-end
metric it records every run value, their median and quartiles, as
``statistics.quantiles(values, n=4)`` gives them, and their spread (third
minus first quartile, over the median).  For each workload and metric it
also records how far the second set's median lies from the first's, as a
share of the first.  The seeds, the sample counts and the machine facts go
in too.  Every set, workload and run made is written; the file is replaced
whole.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
FIRST_SEEDS = (100, 200)  # one per set


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": values}


def measure_set(bench: dict, seeds: list[int]) -> dict:
    """Ten runs of every workload; metric summaries and sample counts per workload."""
    out = {}
    for workload in bench["workloads"]:
        name = workload["name"]
        values: dict[str, list[float]] = {}
        samples: dict[str, list[str]] = {}
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: {result['failed']} of {result['attempted']} calls failed")
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            for line in lines[:-1]:
                words = line.split()
                if words and words[0] in result["metrics"]:
                    samples.setdefault(words[0], []).append(" ".join(words[3:]))
            print(name, seed, {m: round(e["value"], 4) for m, e in result["metrics"].items()}, flush=True)
        metrics = {metric: _summary(vals) for metric, vals in values.items()}
        for metric, summary in metrics.items():
            print(f"  {name} {metric}: median {summary['median']:.4f} spread {summary['spread']:.4f}", flush=True)
        out[name] = {"metrics": metrics, "samples_per_run": samples}
    return out


def main() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = []
    for first in FIRST_SEEDS:
        seeds = list(range(first, first + RUNS))
        sets.append({"seeds": seeds, "workloads": measure_set(bench, seeds)})
    shift = {}
    for name, entry in sets[0]["workloads"].items():
        shift[name] = {}
        for metric, summary in entry["metrics"].items():
            second = sets[1]["workloads"][name]["metrics"][metric]["median"]
            shift[name][metric] = second / summary["median"] - 1
            print(f"  {name} {metric}: second median vs first {shift[name][metric]:+.4f}")
    out = {
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
        },
        "run_seconds": bench["run_seconds"],
        "sets": sets,
        "second_median_vs_first": shift,
    }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
