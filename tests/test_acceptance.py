"""Acceptance gate: ten end-to-end checks of the headline behavior this
package promises.

Each test prints exactly one verdict line, `[PASS] acceptance N: ...` or
`[FAIL] acceptance N: ...`, with the measured numbers, before asserting.
The lines stay visible under plain `pytest -v` because they bypass capture.

Check 4 documents a known red: on a shared trace with shared observation
noise, the always-on baseline activates every affordable sensor every
round, so the set of readings any budgeted policy takes is a subset of the
baseline's readings in every round of every seed. Its detection rate is
therefore a pointwise upper bound here, and no budgeted policy can beat it
by five points. The check asserts the required margin anyway rather than
hiding the gap.
"""

import json
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest

from edgesense.core import SimConfig
from edgesense.engine import run_simulation
from edgesense.policy import POLICY_ORDER, select_budgeted, update_utility
from edgesense.trace import TraceSet, build_round_trace, draw_events, generate_synthetic, interpolate
from edgesense import metrics

from oracles import naive_budget_selection
from test_metrics import flat_run

SEEDS = (1, 2, 3, 4, 5)
BUDGETED = ("ucb", "adaptive")


def _emit(capsys, num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[{verdict}] acceptance {num}: {detail}")
    return ok


@pytest.fixture(scope="module")
def desk():
    """Four zones x ten nodes, thirty simulated days, all four policies
    over five seeds on one shared world."""
    cfg = SimConfig(n_zones=4, nodes_per_zone=10, rounds=2880, seed=1)
    hourly = generate_synthetic(cfg, rng_seed=1)
    events = draw_events(cfg.rounds, cfg.n_zones, cfg.rounds_per_day, rng_seed=1)
    traces = build_round_trace(cfg, hourly, events)
    t0 = time.perf_counter()
    runs = [
        run_simulation(cfg, traces, kind, seed=s)
        for kind in POLICY_ORDER
        for s in SEEDS
    ]
    elapsed = time.perf_counter() - t0
    comp = metrics.compare(runs, policy_order=[k.value for k in POLICY_ORDER])
    return {"cfg": cfg, "runs": runs, "comp": comp, "elapsed": elapsed}


def test_1_lifetime_arithmetic_is_exact(capsys):
    got = [metrics.lifetime_estimate(21600.0, e) for e in (120.0, 95.0, 76.0, 70.0)]
    ok = got == [180, 227, 284, 309]
    _emit(capsys, 1, ok, f"lifetimes for 120/95/76/70 mAh/day = {got}, want [180, 227, 284, 309]")
    assert got == [180, 227, 284, 309]


def test_2_percentages_render_at_headline_precision(capsys):
    comp = metrics.compare(
        [
            flat_run("static", 1, 120.0),
            flat_run("periodic", 1, 95.0),
            flat_run("ucb", 1, 76.0),
            flat_run("adaptive", 1, 70.0),
        ],
        policy_order=["static", "periodic", "ucb", "adaptive"],
    )
    reductions = [
        f"{comp.summary_for('periodic').energy_reduction_pct:.0f}",
        f"{comp.summary_for('ucb').energy_reduction_pct:.1f}",
        f"{comp.summary_for('adaptive').energy_reduction_pct:.0f}",
    ]
    lifetimes = [s.lifetime for s in comp.summaries]
    extensions = [
        f"{comp.summary_for(p).lifetime_extension_pct:+.1f}"
        for p in ("periodic", "ucb", "adaptive")
    ]
    ok = (
        reductions == ["21", "36.7", "42"]
        and lifetimes == [180, 227, 284, 309]
        and extensions == ["+26.1", "+57.8", "+71.7"]
    )
    _emit(capsys, 2, ok, f"reductions {reductions}%, lifetimes {lifetimes} d, extensions {extensions}%")
    assert reductions == ["21", "36.7", "42"]
    assert lifetimes == [180, 227, 284, 309]
    assert extensions == ["+26.1", "+57.8", "+71.7"]


def test_3_energy_ordering_with_clear_gaps(desk, capsys):
    means = [desk["comp"].summary_for(k.value).energy_mean for k in POLICY_ORDER]
    gaps = [(a - b) / a for a, b in zip(means, means[1:])]
    ok = all(g >= 0.05 for g in gaps) and desk["elapsed"] < 10.0
    _emit(capsys, 3, ok,
          "mean daily energy static/periodic/ucb/adaptive = "
          + "/".join(f"{m:.1f}" for m in means)
          + f" mAh, adjacent gaps {['%.1f%%' % (g * 100) for g in gaps]}, "
          + f"20 runs in {desk['elapsed']:.2f}s (limit 10s)")
    for a, b in zip(means, means[1:]):
        assert (a - b) / a >= 0.05
    assert desk["elapsed"] < 10.0


def test_4_detection_ordering(desk, capsys):
    det = {k.value: desk["comp"].summary_for(k.value).detection_mean for k in POLICY_ORDER}
    assert all(v is not None for v in det.values())
    near_ucb = det["adaptive"] >= det["ucb"] - 0.02
    beats_static = det["adaptive"] >= det["static"] + 0.05
    _emit(capsys, 4, near_ucb and beats_static,
          f"detection adaptive {det['adaptive']:.3f} vs ucb {det['ucb']:.3f} "
          f"(allowed slack 0.02) and vs static {det['static']:.3f} (needs +0.05)")
    assert near_ucb
    assert beats_static, (
        "the always-on baseline reads every affordable sensor every round, so "
        "each budgeted policy's readings are a subset of its readings on this "
        "shared world; its detection rate is an upper bound and a five-point "
        "deficit against it cannot close"
    )


def test_5_budget_never_exceeded(desk, capsys):
    worst = 0.0
    n_selections = 0
    for run in desk["runs"]:
        worst = max(worst, run.max_budget_violation)
        n_selections += run.n_budgeted_selections
        if run.policy in BUDGETED:
            for log in run.logs:
                assert log.spent <= log.budget_total + 1e-9
    expected = 2880 * 4 * len(BUDGETED) * len(SEEDS)
    ok = worst == 0.0 and n_selections == expected
    _emit(capsys, 5, ok,
          f"{n_selections} budgeted selections (want {expected}), max overspend {worst}")
    assert worst == 0.0
    assert n_selections == expected


def test_6_selector_matches_naive_oracle(capsys):
    rng = np.random.default_rng(2026)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        scores = rng.integers(0, 5, size=n) / 4.0  # coarse grid provokes ties
        costs = rng.uniform(0.5, 2.0, size=n)
        budget = float(rng.uniform(0.0, costs.sum()))
        floor = float(rng.choice([0.0, 0.12, 0.5]))
        cands = list(zip(range(n), scores.tolist(), costs.tolist()))
        got = select_budgeted(range(n), scores, costs, [budget], floor)
        if list(got.selected) != naive_budget_selection(cands, budget, floor):
            mismatches += 1
    ok = mismatches == 0
    _emit(capsys, 6, ok, f"{1000 - mismatches}/1000 random instances agree with the naive selector")
    assert mismatches == 0


def test_7_utility_update_stays_bounded(capsys):
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 1.0, size=100_000)
    f = rng.uniform(0.0, 1.0, size=100_000)
    eta = rng.uniform(np.nextafter(0.0, 1.0), 1.0, size=100_000)
    outs = np.array([update_utility(a, b, c) for a, b, c in zip(u, f, eta)])
    in_range = bool(np.all((outs >= 0.0) & (outs <= 1.0)))
    full_rate = all(update_utility(a, b, 1.0) == b for a, b in zip(u[:100], f[:100]))
    tiny = all(abs(update_utility(a, b, 1e-12) - a) <= 1e-12 for a, b in zip(u[:100], f[:100]))
    ok = in_range and full_rate and tiny
    _emit(capsys, 7, ok,
          f"100000 random updates stayed in [0,1]: {in_range}; "
          f"full rate returns the feedback exactly: {full_rate}; "
          f"vanishing rate leaves the utility unchanged: {tiny}")
    assert in_range and full_rate and tiny


def test_8_compare_cli_is_byte_deterministic(tmp_path, capsys):
    def invoke(out_dir):
        argv = [
            sys.executable, "-m", "edgesense", "compare", "--synthetic",
            "--set", "n_zones=4", "--set", "nodes_per_zone=10", "--set", "rounds=960",
            "--seeds", "1..2", "--out", str(out_dir),
        ]
        env = dict(os.environ, EDGESENSE_LOG="quiet")
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}

    first = invoke(tmp_path / "a")
    second = invoke(tmp_path / "b")
    same = [name for name in first if first[name] == second.get(name)]
    ok = len(first) == 5 and list(first) == list(second) and len(same) == 5
    _emit(capsys, 8, ok, f"two compare invocations wrote {len(first)} files, {len(same)} byte-identical")
    assert list(first) == list(second)
    assert len(first) == 5
    for name in first:
        assert first[name] == second[name], name


def test_9_interpolation_preserves_hour_marks(desk, capsys):
    hourly = generate_synthetic(desk["cfg"], rng_seed=1)
    fine = interpolate(hourly, 15)
    marks_exact = bool(np.array_equal(fine.values[::4], hourly.values))
    pair = TraceSet(
        values=np.stack([np.full((1, 6), 10.0), np.full((1, 6), 20.0)]),
        zone_ids=(0,),
    )
    mid = interpolate(pair, 30).values[1]
    midpoint_exact = bool(np.all(mid == 15.0))
    ok = marks_exact and midpoint_exact
    _emit(capsys, 9, ok,
          f"hour marks bit-identical after interpolation: {marks_exact}; "
          f"midpoint of (10, 20) == 15 exactly: {midpoint_exact}")
    assert marks_exact and midpoint_exact


def test_10_full_scale_fits_time_and_memory(capsys):
    cfg = SimConfig()  # 20 zones x 50 nodes, 2880 rounds
    hourly = generate_synthetic(cfg, rng_seed=1)
    events = draw_events(cfg.rounds, cfg.n_zones, cfg.rounds_per_day, rng_seed=1)
    traces = build_round_trace(cfg, hourly, events)
    t0 = time.perf_counter()
    runs = [run_simulation(cfg, traces, kind, seed=1) for kind in POLICY_ORDER]
    elapsed = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # kilobytes on Linux
    energies = [metrics.compute_run_metrics(r).avg_daily_energy for r in runs]
    ordered = all(a > b for a, b in zip(energies, energies[1:]))
    ok = elapsed < 60.0 and peak_kb < 1024 * 1024 and ordered
    _emit(capsys, 10, ok,
          f"1000-node world, 4 policies in {elapsed:.2f}s (limit 60s), "
          f"peak rss {peak_kb / 1024:.0f} MiB (limit 1024), "
          "energy ordering preserved: " + str(ordered))
    assert elapsed < 60.0
    assert peak_kb < 1024 * 1024
    assert ordered
