"""Tests of the benchmark itself: its correctness check, its tracer and its counts.

    python3 -m pytest perfbench/tests -q

The pinned counts were taken with seed 0 when the benchmark was defined.  A
change to the program that alters them must say so; a tracer that misses a
binding of a wrapped function shows up here as a lower count.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PINNED = {
    "supersym-sweep": {
        "semigroup.build.count": 10014,
        "semigroup.sieve.passes": 30652,
        "supersym.rho.count": 10014,
        "supersym.lattice_count.count": 10012,
    },
    "montecarlo": {
        "series.mul.count": 1545,
        "series.echelon.rows": 1554,
        "series.echelon.pivots": 837,
        "series.horizon.attempts": 3,
        "series.horizon.retries": 0,
    },
    "verify-all": {
        "semigroup.factorizations.count": 76681,
        "series.horizon.attempts": 33,
        "series.horizon.retries": 6,
    },
}


def _launch(workload: str, seed: int, trace: bool = False) -> dict:
    return run.launch(workloads.argv_list(workload, seed), time.monotonic() + run.TIME_LIMIT_S, trace)


def _counts(reply: dict) -> dict:
    return {name: value for name, (value, unit) in reply["layers"].items() if unit != "s"}


def test_schoolbook_terms_matches_enumeration():
    for la in range(1, 7):
        for lb in range(1, 7):
            for n in range(1, 14):
                pairs = sum(1 for i in range(la) for j in range(lb) if i + j < n)
                assert tracer.schoolbook_terms(la, lb, n) == pairs


def test_corrupted_output_counts_as_failure(monkeypatch):
    reference = workloads.load_reference()
    good = _launch("montecarlo", 3)
    call = good["calls"][0]
    assert workloads.call_failure("montecarlo", 0, 3, call, reference) is None

    payload = json.loads(call["stdout"])
    payload["gaps"] = payload["gaps"][:-1]
    corrupted = dict(call, stdout=json.dumps(payload, indent=2) + "\n")
    nonzero = dict(call, rc=1, stderr="error: boom\n")
    raised = dict(call, rc=None, error="RuntimeError('boom')")
    for bad in (corrupted, nonzero, raised):
        assert workloads.call_failure("montecarlo", 0, 3, bad, reference)

    replies = iter([dict(good, calls=[dict(c)]) for c in (call, corrupted, nonzero, raised)])
    monkeypatch.setattr(run, "launch", lambda *args, **kwargs: next(replies))
    bench = run.Run("montecarlo", 3, 1, reference)
    for _ in range(4):
        bench.launch()
    result = bench.result({}, {})
    assert result["attempted"] == 4
    assert len(result["failures"]) == 3


def test_traced_stdout_is_identical_and_counts_repeat():
    plain = _launch("montecarlo", 5)
    first = _launch("montecarlo", 5, trace=True)
    second = _launch("montecarlo", 5, trace=True)
    for traced in (first, second):
        assert [c["stdout"] for c in traced["calls"]] == [c["stdout"] for c in plain["calls"]]
    assert _counts(first) == _counts(second)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_seed_zero_counts_are_pinned(workload):
    reply = _launch(workload, 0, trace=True)
    reference = workloads.load_reference()
    for i, call in enumerate(reply["calls"]):
        assert workloads.call_failure(workload, i, 0, call, reference) is None
    counts = _counts(reply)
    assert {name: counts[name] for name in PINNED[workload]} == PINNED[workload]


def test_fails_without_the_program():
    bare = run.SPANS_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE.parent, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "montecarlo", "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
