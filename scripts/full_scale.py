#!/usr/bin/env python3
"""Run the full-scale comparison (20 zones x 50 nodes, 30 days) and print
the summary table. Optionally writes the same artifact set as the CLI's
compare subcommand.

Example:
    python3 scripts/full_scale.py --seeds 1..5 --jobs 4 --out results/full
"""

import argparse
import time

from edgesense import metrics, trace
from edgesense.cli import parse_seed_list, run_comparison
from edgesense.core import SimConfig
from edgesense.policy import POLICY_ORDER
from edgesense._util import write_files


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1..5", help="seed list: '3', '1,2,7' or '1..5'")
    ap.add_argument("--jobs", type=int, default=1, help="parallel workers")
    ap.add_argument("--out", metavar="DIR", help="directory for summary artifacts")
    args = ap.parse_args()

    cfg = SimConfig()
    seeds = parse_seed_list(args.seeds)
    hourly = trace.generate_synthetic(cfg, rng_seed=cfg.seed)
    events = trace.draw_events(cfg.rounds, cfg.n_zones, cfg.rounds_per_day, rng_seed=cfg.seed)
    traces = trace.build_round_trace(cfg, hourly, events)

    t0 = time.perf_counter()
    comp = run_comparison(cfg, traces, POLICY_ORDER, seeds, jobs=max(1, args.jobs))
    files = metrics.comparison_files(comp)
    print(files["summary.txt"], end="")
    print(f"{len(POLICY_ORDER) * len(seeds)} runs in {time.perf_counter() - t0:.1f}s")

    if args.out:
        write_files(args.out, files)
        print(f"wrote {len(files)} files to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
