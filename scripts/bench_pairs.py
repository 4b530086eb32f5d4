#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload desk --pairs 10 [--first-seed 1]

Pair i (1-based) runs the benchmark command of BENCHMARK.json with
`--workload W --seed F+i-1 --seconds S --trace 0` in both checkouts, F
being --first-seed and S BENCHMARK.json's run_seconds, the parent first in
odd pairs and the change first in even ones. --first-seed lets a claim be
checked again on seeds not used while it was written. For every end-to-end metric that BENCHMARK.json
names, it prints each side's median, the parent's quartiles, the relative
change of the medians next to the metric's bound, and how many pairs
favour the change. The verdict follows the benchmark's rules: a gain
needs the change to win at least nine tenths of the pairs and to move the
median by more than the parent's interquartile range, over at least
MIN_PAIRS pairs (fewer read `too few pairs`); a regression is a
median worse than the bound allows; a parent spread wider than the bound
leaves the metric unresolved, unless every change run beats every parent
run.

BENCHMARK.json is read from the parent checkout and never written. A run
that fails, prints no strict-JSON last line or reports `correct: false`
stops the script with exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


# the fewest pairs a gain may rest on: a coin wins 4 of 4 pairs one time in
# 16 but 9 of 10 about once in 100 (an A/A run of one commit against
# itself, 4 pairs, read wall_s -2.9% as a gain at 4/4)
MIN_PAIRS = 10


def _strict_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def run_once(command: list[str], checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run in checkout; returns its last-line JSON."""
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(argv)} in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        result = json.loads(lines[-1], parse_constant=_strict_constant)
    except ValueError as exc:
        sys.exit(f"error: last line of the run in {checkout} is not strict JSON: {exc}")
    if not result.get("correct"):
        sys.exit(f"error: the run in {checkout} (seed {seed}) reports incorrect output:\n{proc.stdout[-2000:]}")
    return result


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def verdict(metric: dict, parent: list[float], change: list[float]) -> tuple[str, int]:
    """(verdict, number of pairs the change wins)."""
    lower = metric["better"] == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    q1, q3 = quartiles(parent)
    if worse < 0 and wins >= 0.9 * len(parent) and abs(c_med - p_med) > q3 - q1:
        return ("gain" if len(parent) >= MIN_PAIRS else "too few pairs"), wins
    if worse > metric["bound"]:
        return "REGRESSION", wins
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if (q3 - q1) / p_med > metric["bound"] and not beats_all:
        return "unresolved", wins
    return "within bound", wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--first-seed", type=int, default=1, help="seed of pair 1; pair i runs seed first-seed + i - 1")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    if args.first_seed < 0:
        ap.error("--first-seed must be >= 0")

    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    values: dict[str, dict[str, list[float]]] = {side: {} for side in sides}
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    for pair, seed in enumerate(seeds, start=1):
        order = ["parent", "change"] if pair % 2 else ["change", "parent"]
        for side in order:
            result = run_once(bench["command"], sides[side], args.workload, seed, seconds)
            for name, m in result["metrics"].items():
                values[side].setdefault(name, []).append(m["value"])
        print(f"pair {pair}/{args.pairs} done ({' then '.join(order)})", file=sys.stderr, flush=True)

    print(f"workload {args.workload}: {args.pairs} alternating pairs, {seconds} s runs, seeds {seeds[0]}..{seeds[-1]}")
    print(f"{'metric':<20} {'unit':<5} {'better':<6} {'parent':>10} {'[q1, q3]':>22} {'change':>10} "
          f"{'rel':>8} {'bound':>6} {'wins':>6}  verdict")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent, change = values["parent"].get(name), values["change"].get(name)
        if not parent or not change:
            print(f"{name:<20} missing on {'parent' if not parent else 'change'}")
            continue
        what, wins = verdict(metric, parent, change)
        q1, q3 = quartiles(parent)
        p_med, c_med = statistics.median(parent), statistics.median(change)
        print(f"{name:<20} {metric['unit']:<5} {metric['better']:<6} {p_med:10.4g} "
              f"{f'[{q1:.4g}, {q3:.4g}]':>22} {c_med:10.4g} "
              f"{100 * (c_med - p_med) / p_med:+7.1f}% {100 * metric['bound']:5.0f}% {wins:>3}/{len(parent):<2}  {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
