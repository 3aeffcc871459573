"""Regenerate ``perfbench/reference.json``: per-cell final gap and return plus
output digests for the first training seeds of workload seed 0.

    python3 perfbench/pin_reference.py

Run it only when a change is meant to alter training outputs, and say so in
the change. Digests are taken at BLAS_THREADS threads, like every benchmark run.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import BLAS_ENV, OUT, use_checkout_source  # noqa: E402

TOLERANCE = {"rel": 1e-6, "abs": 1e-12}
PINNED_ROUNDS = 5  # training seeds 0-4


def main() -> int:
    os.environ.update(BLAS_ENV)
    use_checkout_source()
    from perfbench.check import REFERENCE_PATH, build_oracle
    from perfbench.run import play_round
    from perfbench.workloads import WORKLOADS, training_seeds

    unpinned = {"tolerance": TOLERANCE, "workloads": {}}
    pins = {}
    for workload in WORKLOADS.values():
        oracle = build_oracle(workload)
        pins[workload.name] = {}
        for ts in training_seeds(0)[:PINNED_ROUNDS]:
            rnd = play_round(workload, ts, OUT / "pin" / workload.name, oracle, unpinned)
            if rnd.check is None or rnd.check.failed:
                print(f"{workload.name} seed {ts}: outputs fail the bound checks; nothing written", file=sys.stderr)
                return 1
            entry = {c.algorithm: {"final_gap": c.final_gap, "final_j": c.final_j} for c in rnd.check.cells}
            entry["digests"] = rnd.check.digests
            pins[workload.name][str(ts)] = entry
            print(f"{workload.name} seed {ts}: pinned", flush=True)
    reference = {"tolerance": TOLERANCE, "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"], "workloads": pins}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
