"""The benchmark's workloads: their argv lists and the check of their outputs.

Each workload is a list of argv lists for ``cuspsemi.cli.main``.  The workload
seed reaches the program only as ``--seed S``.  Every call's stdout is reduced
to the part that the seed cannot change, and its SHA-256 digest is compared
with ``reference.json``, which was recorded with seed 0.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# The registry as it stands when the benchmark was defined.  The list is frozen
# so that a later change to the registry does not change what is timed.
VERIFY_IDS = (
    "supersym-invariants",
    "rho-simplex",
    "yz-bounds",
    "excess-supersym",
    "excess-generic",
    "sprime",
    "min-congruent-one",
    "unique-factorization",
    "betti-supersym",
    "m2-gaps",
    "arith-genus-upper",
    "apery-even",
    "apery-odd",
    "apery-product-lemma",
    "valuation-lemma",
    "generic-montecarlo",
    "supersym-generic-contains",
    "asymptotic-lower",
)

NAMES = ("supersym-sweep", "montecarlo", "verify-all")

_GENERIC_FIELDS = ("conductor", "genus", "achieved_below_conductor", "gaps")
_SEED_LABEL = re.compile(r"\bseed (\d+)\b")


def argv_list(workload: str, seed: int) -> list[list[str]]:
    """The calls one repetition of ``workload`` makes, in order."""
    s = str(seed)
    if workload == "supersym-sweep":
        return [["sweep", "--family", "supersym", "--max-abc", "6000", "--seed", s]]
    if workload == "montecarlo":
        return [["generic", "--profile", "28,30,32", "--seed", s]]
    if workload == "verify-all":
        return [["verify", theorem, "--seed", s] for theorem in VERIFY_IDS]
    raise ValueError(f"unknown workload {workload!r}")


def normalise(argv: list[str], seed: int, stdout: str) -> str:
    """The part of one call's stdout that does not depend on the seed."""
    command = argv[0]
    if command == "sweep":
        lines = stdout.splitlines(keepends=True)
        if lines and lines[0].startswith("# cuspsemi "):
            lines = lines[1:]
        return "".join(lines)
    if command == "generic":
        payload = json.loads(stdout)
        return json.dumps({k: payload[k] for k in _GENERIC_FIELDS}, sort_keys=True)
    if command == "verify":
        # supersym-generic-contains names the seeds it ran: S, S+1, S+2.
        return _SEED_LABEL.sub(lambda m: f"seed S+{int(m.group(1)) - seed}", stdout)
    raise ValueError(f"no normalisation for command {command!r}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> dict[str, list[str]]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def call_failure(workload: str, index: int, seed: int, call: dict, reference: dict) -> str | None:
    """Why one call failed, or None when it exited 0 with the reference output.

    ``call`` is a record written by ``child.py``: ``rc`` (None when
    ``cli.main`` raised), ``error``, ``stdout`` and ``stderr``.
    """
    argv = argv_list(workload, seed)[index]
    if call["rc"] is None:
        return f"{' '.join(argv)}: raised {call['error']}"
    if call["rc"] != 0:
        return f"{' '.join(argv)}: exit code {call['rc']} {call['stderr'].strip()[-200:]}"
    try:
        text = normalise(argv, seed, call["stdout"])
    except (ValueError, KeyError) as exc:
        return f"{' '.join(argv)}: unreadable output ({exc})"
    if digest(text) != reference[workload][index]:
        return f"{' '.join(argv)}: output differs from the reference"
    return None
