#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workloads desk,city,replay --seeds 1..10 \
        [--trace 0] [--out perfbench/BENCH_<name>.json]

Runs one `run.py` at a time, prints per metric the median, the quartiles
and the spread (third minus first quartile, as a share of the median), and
flags any end-to-end spread at or above a third of the metric's bound in
BENCHMARK.json. --out writes the summary into a BENCH point file, under
"trace0" or "trace1", with each run's provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("provenance "))
    return json.loads(lines[-1]), prov


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="desk,city,replay")
    ap.add_argument("--seeds", default="1..10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", help="write the summary as a BENCH point")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        results, provs = [], []
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            result, prov = run_once(workload, seed, seconds, args.trace)
            prov["run_host_s"] = time.perf_counter() - t0
            results.append({"seed": seed, **result})
            provs.append(prov)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} in {prov['run_host_s']:.1f} s", flush=True)
        metrics = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            metrics[name] = {"unit": results[0]["metrics"][name]["unit"], **summarize(values)}
            s = metrics[name]
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s" and (s["spread"] is None or s["spread"] >= bound / 3):
                flag, steady = "  <-- spread >= bound/3", False
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:<32} median {s['median']:14.6f} {s['unit']:<6} spread {spread}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
            "provenance": provs,
        }
    if args.out:
        # one point holds a --trace 0 and a --trace 1 summary
        point = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                point = json.load(fh)
        point[f"trace{args.trace}"] = summary
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(point, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
