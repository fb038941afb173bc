"""Record ``reference.json``: digests of each workload's seed-independent output.

    python3 perfbench/record_reference.py

Run it from the root of a checkout whose outputs are known to be right.  The
benchmark compares every call against these digests, whatever its seed.
"""

from __future__ import annotations

import json
import time

import workloads
from run import TIME_LIMIT_S, launch

SEED = 0  # any seed gives the same digests; 0 is the one recorded


def main() -> None:
    reference = {}
    for name in workloads.NAMES:
        argvs = workloads.argv_list(name, SEED)
        reply = launch(argvs, time.monotonic() + TIME_LIMIT_S)
        digests = []
        for argv, call in zip(argvs, reply["calls"]):
            if call["rc"] != 0:
                raise SystemExit(f"{' '.join(argv)} exited {call['rc']} {call['error'] or ''}")
            digests.append(workloads.digest(workloads.normalise(argv, SEED, call["stdout"])))
        reference[name] = digests
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
