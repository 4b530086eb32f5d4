"""The benchmark's contract with the package, checked without changing it.

perfbench/ wraps package attributes by name (layers.TARGETS), pins golden
digests per workload (golden.json) and times each run by patching
cli.run_simulation. A rename or a bit drift breaks the benchmark
silently; these tests make it fail the suite as well.
"""

import importlib.util
import os
import sys

import numpy as np
import pytest

from edgesense import cli, engine, metrics, trace
from edgesense.core import SimConfig
from edgesense.policy import POLICY_ORDER, WIDE_FLEET

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py, imported with its sibling modules."""
    sys.path.insert(0, PERFBENCH)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(PERFBENCH, "run.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH)
    return module


def test_every_traced_target_resolves_to_a_callable(bench):
    layers = bench.layers
    missing = [f"{owner}.{attr}" for _, owner, attr in layers.TARGETS
               if not callable(getattr(layers._resolve(owner), attr, None))]
    assert missing == []


def test_every_traced_target_is_called_where_it_is_looked_up(bench, monkeypatch, tmp_path):
    # a target that still resolves but is no longer called through its owner
    # leaves its layer `absent`; count each target's calls over one small
    # pass that takes the routes perfbench takes
    calls = dict.fromkeys([(owner, attr) for _, owner, attr in bench.layers.TARGETS], 0)
    for owner_path, attr in calls:
        owner = bench.layers._resolve(owner_path)

        def counting(*args, _fn=getattr(owner, attr), _key=(owner_path, attr), **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)

    cfg = SimConfig(n_zones=2, nodes_per_zone=3, rounds=96, round_minutes=15)
    paths = {name: str(tmp_path / name) for name in ("hourly.csv", "events.csv", "run.json", "rounds.csv")}
    trace.write_csv(trace.generate_synthetic(cfg, rng_seed=1), paths["hourly.csv"])
    trace.write_events_csv(trace.draw_events(cfg.rounds, cfg.n_zones, cfg.rounds_per_day, rng_seed=1),
                           paths["events.csv"])
    traces = trace.build_round_trace(cfg, trace.load_csv(paths["hourly.csv"], expected_zones=cfg.n_zones),
                                     trace.load_events_csv(paths["events.csv"]))
    comp = cli.run_comparison(cfg, traces, POLICY_ORDER, [1])
    run = engine.run_simulation(cfg, traces, "adaptive", seed=1)
    engine.save_run(run, paths["run.json"])
    engine.load_run(paths["run.json"])
    engine.write_round_log_csv(run, paths["rounds.csv"])
    for render in (metrics.render_text, metrics.render_json, metrics.render_summary_csv,
                   metrics.render_per_seed_csv, metrics.render_plot_csv):
        render(comp)
    assert cli.main(["report", "--in", paths["run.json"], "--format", "json"]) == 0
    assert [f"{owner}.{attr}" for (owner, attr), n in calls.items() if n == 0] == []


@pytest.mark.parametrize("name", ["desk", "city", "replay"])
def test_golden_digests_hold(bench, name, tmp_path):
    # golden digests, run invariants, the detection oracle and save/load
    checks = bench.ck.Checks()
    bench.check_golden(checks, bench.wl.WORKLOADS[name], str(tmp_path))
    assert checks.failures == []
    assert checks.attempted > 0


def test_comparison_routes_every_run_through_the_cli_attribute(monkeypatch):
    cfg = SimConfig(n_zones=2, nodes_per_zone=2, rounds=24, round_minutes=60)
    traces = trace.build_round_trace(cfg, trace.generate_synthetic(cfg))
    calls = []
    original = cli.run_simulation

    def counting(cfg, traces, policy_kind, seed=None):
        calls.append((policy_kind, seed))
        return original(cfg, traces, policy_kind, seed=seed)

    monkeypatch.setattr(cli, "run_simulation", counting)
    cli.run_comparison(cfg, traces, POLICY_ORDER, [1, 2])
    assert calls == [(k, s) for k in POLICY_ORDER for s in (1, 2)]


@pytest.mark.parametrize("n_zones, nodes_per_zone, wide", [(3, 4, False), (4, 50, True)], ids=["narrow", "wide"])
@pytest.mark.parametrize("policy", ["ucb", "adaptive"])
def test_budgeted_runs_feed_the_selection_counters(bench, monkeypatch, n_zones, nodes_per_zone, wide, policy):
    # policy.select_s, candidates and admitted wrap engine.select_budgeted;
    # both admission paths must go through it once a round, and the
    # counters' reading of its arguments and result must match the logs
    cfg = SimConfig(n_zones=n_zones, nodes_per_zone=nodes_per_zone, rounds=200, battery_capacity=150.0)
    traces = trace.build_round_trace(cfg, trace.generate_synthetic(cfg))
    counters = bench.layers.COUNTERS["policy.select"]
    seen = []
    original = engine.select_budgeted

    def counting(*args):
        res = original(*args)
        seen.append((counters["candidates"](args, res), counters["admitted"](args, res)))
        return res

    monkeypatch.setattr(engine, "select_budgeted", counting)
    run = engine.run_simulation(cfg, traces, policy)
    alive = [int(np.count_nonzero((run.death_round < 0) | (run.death_round >= t))) for t in range(cfg.rounds)]
    assert seen == [(a, len(lg.selected)) for a, lg in zip(alive, run.logs)]
    assert min(alive) < run.n_nodes  # nodes die, so the candidate count moves
    assert (run.n_nodes > WIDE_FLEET) == wide


@pytest.mark.parametrize("n_zones, nodes_per_zone, block_rows", [(3, 4, None), (4, 50, 1)], ids=["day", "round"])
@pytest.mark.parametrize("policy", ["static", "periodic"])
def test_fixed_runs_call_their_selector_once_a_round(monkeypatch, n_zones, nodes_per_zone, block_rows, policy):
    # policy.fixed_select_s wraps engine.select_static and
    # engine.select_periodic; a fixed-schedule run must call them there,
    # once a round, and log what they return, whether its blocks are whole
    # days or single rounds
    cfg = SimConfig(n_zones=n_zones, nodes_per_zone=nodes_per_zone, rounds=200, battery_capacity=150.0)
    if block_rows is None:
        assert cfg.n_nodes * cfg.rounds_per_day <= engine.FIXED_BLOCK_ROWS
    else:
        monkeypatch.setattr(engine, "FIXED_BLOCK_ROWS", block_rows)
    traces = trace.build_round_trace(cfg, trace.generate_synthetic(cfg))
    name = f"select_{policy}"
    original = getattr(engine, name)
    returned = []

    def counting(*args):
        res = original(*args)
        returned.append(res.tolist())
        return res

    monkeypatch.setattr(engine, name, counting)
    run = engine.run_simulation(cfg, traces, policy)
    assert returned == [lg.selected.tolist() for lg in run.logs]
    assert len(returned) == cfg.rounds
