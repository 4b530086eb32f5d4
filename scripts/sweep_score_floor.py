#!/usr/bin/env python3
"""Sweep the activation score floor for the adaptive policy on a small
world and write a tidy CSV, with an always-on row as the reference.

A floor of zero lets every sensor with any positive score compete for the
budget; raising it rests sensors whose information-per-energy falls below
the cutoff. The sweep shows the energy/detection trade this buys.

Example:
    python3 scripts/sweep_score_floor.py --floors 0,0.06,0.12,0.25,0.4 --out sweep.csv
"""

import argparse
import csv
import sys
from dataclasses import replace

from edgesense import metrics, trace
from edgesense.cli import parse_seed_list
from edgesense.core import SimConfig
from edgesense.engine import run_simulation


# the summary fields swept, each written under its comparison JSON key
FIELDS = ("policy", "n_seeds", "energy_mean", "detection_mean", "lifetime", "mean_selected_per_round")


def _row(floor, runs):
    s = metrics.compare(runs).summaries[0]
    return {"score_floor": floor, **{metrics.SUMMARY_KEYS[f]: getattr(s, f) for f in FIELDS}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--floors", default="0,0.06,0.12,0.25,0.4",
                    help="comma-separated score floors to sweep")
    ap.add_argument("--seeds", default="1..3", help="seed list: '3', '1,2,7' or '1..5'")
    ap.add_argument("--zones", type=int, default=4)
    ap.add_argument("--nodes", type=int, default=10, help="nodes per zone")
    ap.add_argument("--rounds", type=int, default=2880)
    ap.add_argument("--out", metavar="CSV", help="write here instead of stdout")
    args = ap.parse_args()

    floors = [float(part) for part in args.floors.split(",") if part.strip()]
    seeds = parse_seed_list(args.seeds)
    base = SimConfig(n_zones=args.zones, nodes_per_zone=args.nodes, rounds=args.rounds)
    hourly = trace.generate_synthetic(base, rng_seed=base.seed)
    events = trace.draw_events(base.rounds, base.n_zones, base.rounds_per_day, rng_seed=base.seed)
    traces = trace.build_round_trace(base, hourly, events)

    rows = [_row("", [run_simulation(base, traces, "static", seed=s) for s in seeds])]
    for floor in floors:
        cfg = replace(base, score_floor=floor)
        rows.append(_row(repr(floor), [run_simulation(cfg, traces, "adaptive", seed=s) for s in seeds]))

    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    if args.out:
        out.close()
        print(f"wrote {args.out}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
