#!/usr/bin/env python3
"""edgesense benchmark: produce the policy comparison table and time it.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 10 --trace 0

--trace 0 runs whole passes of the workload for --seconds and reports the
end-to-end metrics; --trace 1 alternates untraced and traced passes and
reports per-layer metrics and the tracing overhead. Either way every pass's
outputs are checked. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. perfbench/README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks as ck
import layers

try:
    import workloads as wl
except ImportError as exc:
    sys.exit(f"error: cannot import edgesense from this checkout's src/: {exc}")

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
SETUP_REPEATS = 5
PARALLEL_JOBS = 2


def provenance(load_1m: float) -> dict:
    import numpy

    sha = None
    if os.path.isdir(os.path.join(wl.ROOT, ".git")):
        proc = subprocess.run(["git", "-C", wl.ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "loadavg_1m_at_start": load_1m,
    }


def setup_seconds(workload, seed: int, workdir: str) -> float:
    """Median set-up time over fresh interpreters."""
    samples = []
    for i in range(SETUP_REPEATS):
        probe_dir = os.path.join(workdir, f"setup{i}")
        os.makedirs(probe_dir)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload.name, str(seed), probe_dir],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def check_pass(checks, workload, p, digests: dict) -> None:
    """Per-pass checks: run invariants, one digest per (policy, seed) across
    all passes, the reports, and on replay the pass's own round trips."""
    for r in p.runs:
        label = f"{workload.name} {r.policy} seed {r.seed}"
        ck.check_run(checks, r.result, label)
        d = ck.digest(r.result)
        checks.expect(digests.setdefault((r.policy, r.seed), d) == d, f"{label}: digest changed between passes")
    checks.expect(bool(p.reports["text"].strip()), f"{workload.name}: empty text report")
    if not workload.replay:
        checks.expect(p.reports["json"] == p.artifacts["summary.json"],
                      f"{workload.name}: report --format json differs from summary.json")
        return
    w = p.world
    checks.expect(ck.same_trace(w.hourly, w.loaded_hourly), "replay: load_csv(write_csv(h)) differs from h")
    checks.expect(w.loaded_events == w.events, "replay: events differ after the CSV round trip")
    saved = next(r.result for r in p.runs if r.policy == wl.SERIALIZED_POLICY)
    checks.expect(ck.same_logs(saved, p.loaded_run), "replay: load_run(save_run(r)) changed the logs")
    policies = [m["policy"] for m in json.loads(p.reports["json"])["per_run"]]
    checks.expect(policies == [wl.SERIALIZED_POLICY], "replay: json report does not describe the saved run")


def check_round_trips(checks, workload, p, workdir: str) -> None:
    """The round trips desk/city passes do not make themselves: each seed's
    adaptive run through save_run/load_run, the trace and events through CSV."""
    for r in p.runs:
        if r.policy == wl.SERIALIZED_POLICY:
            path = os.path.join(workdir, f"roundtrip-{r.seed}.json")
            wl.engine.save_run(r.result, path)
            checks.expect(ck.same_logs(r.result, wl.engine.load_run(path)),
                          f"{workload.name} seed {r.seed}: load_run(save_run(r)) changed the logs")
    hourly_csv, events_csv = os.path.join(workdir, "hourly.csv"), os.path.join(workdir, "events.csv")
    wl.trace.write_csv(p.world.hourly, hourly_csv)
    wl.trace.write_events_csv(p.world.events, events_csv)
    checks.expect(ck.same_trace(p.world.hourly, wl.trace.load_csv(hourly_csv)),
                  f"{workload.name}: load_csv(write_csv(h)) differs from h")
    checks.expect(wl.trace.load_events_csv(events_csv) == p.world.events,
                  f"{workload.name}: events differ after the CSV round trip")


def check_parallel(checks, workload, seed: int, p, workdir: str) -> None:
    """run_comparison with PARALLEL_JOBS workers must write the bytes jobs=1 wrote."""
    world = wl.build_world(workload, seed, workdir)
    comp = wl.cli.run_comparison(world.cfg, world.traces, wl.POLICY_ORDER, workload.run_seeds(seed),
                                 jobs=PARALLEL_JOBS)
    parallel = wl.render_comparison(comp)
    wl.write_files(parallel, os.path.join(workdir, "compare-parallel"))
    for name, content in parallel.items():
        checks.expect(content.encode() == p.artifacts[name].encode(),
                      f"{workload.name}: {name} differs between jobs={PARALLEL_JOBS} and jobs=1")


def golden_runs(workload, seed: int, rounds: int, workdir: str):
    """The workload's world at the golden seed, cut to `rounds`: one run per policy."""
    world = wl.build_world(workload, seed, workdir, rounds=rounds)
    return {p: wl.engine.run_simulation(world.cfg, world.traces, p, seed=seed) for p in wl.POLICIES}


def check_golden(checks, workload, workdir: str) -> None:
    """Every policy's digest on the golden world must match golden.json, and
    each run must survive save_run/load_run."""
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    path = os.path.join(workdir, "golden-run.json")
    for policy, run in golden_runs(workload, golden["seed"], golden["rounds"], workdir).items():
        label = f"{workload.name} golden {policy}"
        ck.check_run(checks, run, label)
        checks.expect(ck.digest(run) == golden["digests"][workload.name][policy],
                      f"{label}: digest differs from golden.json")
        wl.engine.save_run(run, path)
        checks.expect(ck.same_logs(run, wl.engine.load_run(path)), f"{label}: load_run(save_run(r)) changed the logs")


def measure(workload, seed: int, seconds: int, workdir: str, checks):
    """End-to-end metrics over passes run for `seconds` (at least
    workload.min_passes)."""
    setup_s = setup_seconds(workload, seed, workdir)
    ref = wl.Reference()
    digests: dict = {}
    passes = []
    peak_rss_mb = None
    t0 = time.perf_counter()
    while len(passes) < workload.min_passes or time.perf_counter() - t0 < seconds:
        p = wl.run_pass(workload, seed, os.path.join(workdir, f"pass{len(passes)}"), ref)
        if peak_rss_mb is None:
            # the first pass is the first work this fresh process does
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_pass(checks, workload, p, digests)
        p.drop_outputs()
        passes.append(p)
    return wl.end_to_end(workload, passes, setup_s, peak_rss_mb), []


def measure_traced(workload, seed: int, seconds: int, workdir: str, checks):
    """Per-layer metrics over pairs of untraced and traced passes run for
    `seconds` (at least one pair)."""
    ref = wl.Reference()
    tracer = layers.Tracer(clock=ref.clock)  # spans leave out the reference kernel
    digests: dict = {}
    walls: dict[bool, list[float]] = {False: [], True: []}
    scales = []
    t0 = time.perf_counter()
    while not walls[True] or time.perf_counter() - t0 < seconds:
        for traced in (False, True):
            if traced:
                tracer.install()
            try:
                p = wl.run_pass(workload, seed, os.path.join(workdir, f"pass{len(walls[traced])}-{int(traced)}"),
                                ref, stage_min_s=0.0)
            finally:
                if traced:
                    left = tracer.restore()
                    checks.expect(not left, f"tracing left wrapped attributes behind: {left}")
            # one digest map for both kinds of pass: tracing must not change a run
            check_pass(checks, workload, p, digests)
            if not walls[False] and not workload.replay:
                # slower checks, made once per traced run rather than on every run
                check_round_trips(checks, workload, p, workdir)
                if workload.name == "desk":
                    check_parallel(checks, workload, seed, p, workdir)
            p.drop_outputs()
            walls[traced].append(p.wall_s)
            if traced:
                scales.append(p.scale)
    overhead_s = statistics.median(walls[True]) - statistics.median(walls[False])
    return layers.layer_metrics(tracer, len(walls[True]), statistics.mean(scales), overhead_s)


def main(argv=None) -> int:
    load_1m = os.getloadavg()[0]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    workload = wl.WORKLOADS[args.workload]
    workroot = os.path.join(wl.ROOT, ".perfbench-work")
    workdir = os.path.join(workroot, f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir)
    checks = ck.Checks()
    try:
        measure_fn = measure_traced if args.trace else measure
        values, absent = measure_fn(workload, args.seed, args.seconds, workdir, checks)
        check_golden(checks, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(workroot):
            os.rmdir(workroot)

    print(f"workload {workload.name}: {workload.n_zones} zones x {workload.nodes_per_zone} nodes, "
          f"{len(wl.POLICIES)} policies x {workload.n_seeds} seeds; seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in values.items():
        print(f"  {name:<30} {value:16.6f} {unit}")
    for name in absent:
        print(f"  {name:<30} {'absent':>16}")
    for policy in ("ucb", "adaptive"):
        part, whole = values.get(f"policy.select_s.{policy}"), values.get(f"engine.run_s.{policy}")
        if part and whole:
            print(f"  policy.select_s.{policy} is {100 * part[0] / whole[0]:.1f}% of engine.run_s.{policy}")
    print(f"  {'failed_share':<30} {checks.failed / checks.attempted:16.6f} "
          f"({checks.failed} of {checks.attempted} checks failed)")
    for failure in checks.failures:
        print(f"  FAILED: {failure}")
    print("provenance " + json.dumps(provenance(load_1m), sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
