#!/usr/bin/env python3
"""Record perfbench/golden.json: the run digests every benchmark run checks.

    python3 perfbench/record_golden.py

For each workload's world at the golden seed, cut to GOLDEN_ROUNDS, one run
per policy is digested (see checks.digest). Re-record only for a change that
is meant to alter simulation semantics, and say so in that change.
"""

import json
import os
import shutil
import tempfile

import checks
import run
import workloads

GOLDEN_SEED = 1  # SimConfig's default seed
GOLDEN_ROUNDS = 240  # two and a half simulated days: cheap enough to check on every run


def main() -> int:
    digests = {}
    tmp = tempfile.mkdtemp(prefix=".golden-", dir=workloads.ROOT)
    try:
        for name, workload in workloads.WORKLOADS.items():
            runs = run.golden_runs(workload, GOLDEN_SEED, GOLDEN_ROUNDS, tmp)
            digests[name] = {policy: checks.digest(r) for policy, r in runs.items()}
    finally:
        shutil.rmtree(tmp)
    golden = {"seed": GOLDEN_SEED, "rounds": GOLDEN_ROUNDS, "digests": digests}
    with open(run.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(run.GOLDEN_PATH, workloads.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
