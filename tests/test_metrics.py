"""Metrics: lifetime projection, per-run summaries, cross-policy comparison."""

import csv
import io
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesense.core import Pollutant, SimConfig
from edgesense.engine import RunResult, run_simulation
from edgesense.metrics import (
    PER_RUN_KEYS,
    SUMMARY_KEYS,
    Comparison,
    PolicySummary,
    RunMetrics,
    compare,
    compute_run_metrics,
    from_json_dict,
    lifetime_estimate,
    percent_change,
    render_json,
    render_per_seed_csv,
    render_plot_csv,
    render_summary_csv,
    render_text,
    to_json_dict,
)
from edgesense.trace import EventSpec

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


def flat_run(
    policy,
    seed,
    daily_energy,
    days=30,
    rounds_per_day=96,
    n_nodes=1,
    trace_hash="shared-trace",
    config=None,
    events=None,
    detected=None,
    death_round=None,
    selected_per_round=0,
):
    """Hand-built run record with a prescribed average daily energy."""
    rounds = days * rounds_per_day
    cfg = config if config is not None else SimConfig(n_zones=1, nodes_per_zone=n_nodes).to_dict()
    events = events or []
    detected = detected if detected is not None else [False] * len(events)
    return RunResult(
        config=cfg,
        policy=policy,
        seed=seed,
        trace_hash=trace_hash,
        selected=np.tile(np.arange(selected_per_round, dtype=np.int32), rounds),
        feedback=np.zeros(rounds * selected_per_round),
        n_selected=np.full(rounds, selected_per_round, dtype=np.int64),
        spent=np.zeros(rounds),
        budget=np.zeros(rounds),
        mean_reward=np.zeros(rounds),
        energy_cost=np.ones(n_nodes),
        zone_of=np.zeros(n_nodes, dtype=np.int64),
        final_battery=np.full(n_nodes, 21600.0 - daily_energy * days),
        activation_counts=np.zeros(n_nodes, dtype=np.int64),
        death_round=(
            death_round if death_round is not None else np.full(n_nodes, -1, dtype=np.int64)
        ),
        events=events,
        event_detected=detected,
        event_detect_round=[-1] * len(events),
        total_spent=daily_energy * n_nodes * days,
        max_budget_violation=0.0,
        n_budgeted_selections=0,
        final_utilities=np.ones(n_nodes),
        final_ucb_means=np.zeros(n_nodes),
    )


class TestLifetimeEstimate:
    def test_reference_spend_rates(self):
        assert lifetime_estimate(21600.0, 120.0) == 180
        assert lifetime_estimate(21600.0, 95.0) == 227
        assert lifetime_estimate(21600.0, 76.0) == 284
        assert lifetime_estimate(21600.0, 70.0) == 309

    def test_zero_spend_has_no_horizon(self):
        assert lifetime_estimate(21600.0, 0.0) == math.inf

    def test_a_horizon_past_the_float_range_has_none(self):
        # 21600 / 1e-306 overflows to inf, which has no floor
        assert lifetime_estimate(21600.0, 1e-306) == math.inf
        assert math.isfinite(lifetime_estimate(1.0, 1e-300))

    def test_rounds_half_away_from_zero(self):
        assert lifetime_estimate(45.0, 10.0) == 5  # 4.5 rounds up
        assert lifetime_estimate(44.0, 10.0) == 4  # 4.4 rounds down


class TestPercentChange:
    def test_signed_change(self):
        assert percent_change(110.0, 100.0) == pytest.approx(10.0)
        assert percent_change(80.0, 100.0) == pytest.approx(-20.0)


class TestRunMetrics:
    def test_daily_energy_counts_dead_nodes_in_denominator(self):
        run = flat_run("static", 1, daily_energy=120.0, n_nodes=4)
        m = compute_run_metrics(run)
        assert m.avg_daily_energy == pytest.approx(120.0)
        assert m.days == 30
        assert m.n_nodes == 4

    def test_detection_fields(self):
        events = [
            EventSpec(0, 0, 4, Pollutant.CO, 2.0),
            EventSpec(0, 8, 12, Pollutant.CO, 2.0),
            EventSpec(0, 20, 24, Pollutant.CO, 2.0),
        ]
        run = flat_run("ucb", 1, 50.0, events=events, detected=[True, False, True])
        m = compute_run_metrics(run)
        assert (m.n_events, m.n_detected) == (3, 2)
        assert m.detection_rate == pytest.approx(2 / 3)

    def test_no_events_means_no_rate(self):
        m = compute_run_metrics(flat_run("ucb", 1, 50.0))
        assert m.detection_rate is None

    def test_death_days_are_one_based(self):
        death = np.array([-1, 0, 95, 96], dtype=np.int64)
        run = flat_run("static", 1, 120.0, n_nodes=4, death_round=death)
        m = compute_run_metrics(run)
        assert m.first_death_day == 1
        assert m.median_death_day == 1.0  # days 1, 1, 2 from the three deaths
        run_alive = flat_run("static", 1, 120.0, n_nodes=4)
        assert compute_run_metrics(run_alive).first_death_day is None

    def test_mean_selected_per_round(self):
        run = flat_run("static", 1, 120.0, n_nodes=5, selected_per_round=5)
        assert compute_run_metrics(run).mean_selected_per_round == 5.0

    def test_lifetime_uses_config_capacity(self):
        m = compute_run_metrics(flat_run("static", 1, 120.0))
        assert m.lifetime == 180


class TestCompareOnSyntheticRuns:
    def _reference(self):
        return compare(
            [
                flat_run("static", 1, 120.0),
                flat_run("periodic", 1, 95.0),
                flat_run("ucb", 1, 76.0),
                flat_run("adaptive", 1, 70.0),
            ],
            policy_order=["static", "periodic", "ucb", "adaptive"],
        )

    def test_reductions_relative_to_static(self):
        comp = self._reference()
        assert comp.summary_for("static").energy_reduction_pct == 0.0
        assert comp.summary_for("periodic").energy_reduction_pct == pytest.approx(25 / 120 * 100)
        assert comp.summary_for("ucb").energy_reduction_pct == pytest.approx(44 / 120 * 100)
        assert comp.summary_for("adaptive").energy_reduction_pct == pytest.approx(50 / 120 * 100)

    def test_lifetimes_and_extensions_come_from_rounded_days(self):
        comp = self._reference()
        assert [s.lifetime for s in comp.summaries] == [180, 227, 284, 309]
        assert comp.summary_for("periodic").lifetime_extension_pct == pytest.approx(47 / 180 * 100)
        assert comp.summary_for("ucb").lifetime_extension_pct == pytest.approx(104 / 180 * 100)
        assert comp.summary_for("adaptive").lifetime_extension_pct == pytest.approx(129 / 180 * 100)

    def test_without_static_relatives_are_none(self):
        comp = compare([flat_run("ucb", 1, 76.0), flat_run("adaptive", 1, 70.0)])
        assert comp.summary_for("ucb").energy_reduction_pct is None
        assert comp.summary_for("adaptive").lifetime_extension_pct is None

    def test_seed_aggregation(self):
        comp = compare(
            [
                flat_run("static", 1, 118.0),
                flat_run("static", 2, 122.0),
                flat_run("adaptive", 1, 60.0),
                flat_run("adaptive", 2, 58.0),
            ]
        )
        s = comp.summary_for("static")
        assert s.n_seeds == 2
        assert s.energy_mean == pytest.approx(120.0)
        assert s.energy_std == pytest.approx(np.std([118.0, 122.0], ddof=1))
        assert comp.seeds == (1, 2)
        assert len(comp.per_run) == 4

    def test_mixed_traces_rejected(self):
        with pytest.raises(ValueError, match="shared trace"):
            compare([flat_run("static", 1, 100.0), flat_run("ucb", 1, 80.0, trace_hash="other")])

    def test_mixed_configs_rejected(self):
        other_cfg = SimConfig(n_zones=2, nodes_per_zone=1).to_dict()
        with pytest.raises(ValueError, match="config"):
            compare([flat_run("static", 1, 100.0), flat_run("ucb", 1, 80.0, config=other_cfg)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compare([])

    def test_summary_for_unknown_policy(self):
        with pytest.raises(KeyError):
            self._reference().summary_for("greedy")


@pytest.fixture(scope="module")
def comp(tiny_cfg, tiny_traces):
    runs = [
        run_simulation(tiny_cfg, tiny_traces, kind, seed=s)
        for kind in ("static", "adaptive")
        for s in (1, 2)
    ]
    return compare(runs, policy_order=["static", "adaptive"])


class TestCompareOnRealRuns:

    def test_groups_policies_across_seeds(self, comp):
        assert [s.policy for s in comp.summaries] == ["static", "adaptive"]
        assert all(s.n_seeds == 2 for s in comp.summaries)
        assert comp.seeds == (1, 2)

    def test_adaptive_spends_less_on_the_tiny_world(self, comp):
        static = comp.summary_for("static")
        adaptive = comp.summary_for("adaptive")
        assert adaptive.energy_mean < static.energy_mean
        assert adaptive.energy_reduction_pct > 0
        assert adaptive.lifetime > static.lifetime


class TestRenderers:
    def _comp(self):
        return compare(
            [
                flat_run("static", 1, 120.0, events=[EventSpec(0, 0, 4, Pollutant.CO, 2.0)],
                         detected=[True]),
                flat_run("adaptive", 1, 70.0, events=[EventSpec(0, 0, 4, Pollutant.CO, 2.0)],
                         detected=[True]),
            ],
            policy_order=["static", "adaptive"],
        )

    def test_text_table(self):
        text = render_text(self._comp())
        lines = text.splitlines()
        assert lines[0].startswith("policy")
        assert "energy mAh/day" in lines[0]
        static_row = next(l for l in lines if l.startswith("static"))
        assert "baseline" in static_row
        adaptive_row = next(l for l in lines if l.startswith("adaptive"))
        assert "+41.7" in adaptive_row
        assert any("seeds: 1" in l for l in lines)
        assert "trace: shared-trace" in text

    def test_text_handles_missing_detection(self):
        text = render_text(compare([flat_run("static", 1, 120.0)]))
        assert "n/a" in text

    def test_json_is_stable_and_complete(self):
        comp = self._comp()
        d = json.loads(render_json(comp))
        assert d == to_json_dict(comp)
        assert d["format"] == "edgesense-comparison/1"
        assert [p["policy"] for p in d["policies"]] == ["static", "adaptive"]
        assert d["policies"][1]["lifetime_days"] == 309
        assert render_json(comp) == render_json(self._comp())

    def test_json_infinite_lifetime_becomes_null(self):
        d = to_json_dict(compare([flat_run("static", 1, 0.0)]))
        assert d["policies"][0]["lifetime_days"] is None

    def test_summary_csv_roundtrips_floats(self):
        comp = self._comp()
        rows = list(csv.reader(io.StringIO(render_summary_csv(comp))))
        assert rows[0][0] == "policy"
        by_policy = {r[0]: r for r in rows[1:]}
        assert float(by_policy["adaptive"][2]) == comp.summary_for("adaptive").energy_mean
        assert int(by_policy["static"][6]) == 180

    def test_per_seed_csv_has_one_row_per_run(self):
        comp = self._comp()
        rows = list(csv.reader(io.StringIO(render_per_seed_csv(comp))))
        assert len(rows) == 3
        assert rows[1][0] == "static"
        assert float(rows[2][2]) == 70.0

    def test_plot_csv_is_tidy(self):
        comp = self._comp()
        rows = list(csv.reader(io.StringIO(render_plot_csv(comp))))
        assert rows[0] == ["policy", "metric", "mean", "std"]
        metrics_per_policy = {}
        for r in rows[1:]:
            metrics_per_policy.setdefault(r[0], []).append(r[1])
        assert metrics_per_policy["static"] == [
            "avg_daily_energy_mAh", "detection_rate", "lifetime_days",
        ]

    def test_comparison_summary_lookup(self):
        comp = self._comp()
        assert isinstance(comp, Comparison)
        assert comp.summary_for("adaptive").policy == "adaptive"


def _field_values(name, annotation):
    """Values of a field of this annotation: finite floats, None where it is
    nullable, and an infinite lifetime too; a seed count is at least one."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if name == "lifetime":
        return finite | st.just(math.inf)
    ints = st.integers(1 if name == "n_seeds" else -10 ** 6, 10 ** 6)
    values = {"str": st.text(max_size=6), "int": ints, "float": finite}
    base = annotation.removesuffix(" | None")
    return values[base] | st.none() if base != annotation else values[base]


def _records(cls):
    return st.builds(cls, **{f.name: _field_values(f.name, f.type) for f in fields(cls)})


@pytest.mark.parametrize("key", SUMMARY_KEYS.values())
def test_a_policies_entry_of_a_wrong_json_type_is_named_by_its_entry_and_key(key):
    record = to_json_dict(compare([flat_run("static", 1, 100.0), flat_run("ucb", 1, 80.0)]))
    record["policies"][1][key] = [1.0]  # no summary field takes a list
    with pytest.raises(ValueError, match=rf"^policies entry 1 has {key} \[1\.0\], which is not "):
        from_json_dict(record)


@given(summaries=st.lists(_records(PolicySummary), max_size=4), per_run=st.lists(_records(RunMetrics), max_size=4),
       seeds=st.lists(st.integers(0, 2 ** 64 - 1), max_size=3), trace_hash=st.text(max_size=12))
def test_the_key_tables_drive_the_json_round_trip_and_the_csv(summaries, per_run, seeds, trace_hash):
    comp = Comparison({}, trace_hash, tuple(seeds), summaries, per_run)
    back = from_json_dict(json.loads(render_json(comp)))
    # repr, so an int read back as a float, or a lifetime as None, shows
    assert repr(back.summaries) == repr(comp.summaries)
    assert render_text(back) == render_text(comp)
    assert render_summary_csv(back) == render_summary_csv(comp)
    # each table names every saved field once, under a key of its own
    assert list(SUMMARY_KEYS) == [f.name for f in fields(PolicySummary)]
    unsaved = {"rounds", "days", "n_nodes", "total_spent"}
    assert sorted(PER_RUN_KEYS) == sorted(f.name for f in fields(RunMetrics) if f.name not in unsaved)
    for keys in (SUMMARY_KEYS, PER_RUN_KEYS):
        assert len(set(keys.values())) == len(keys)
    assert next(csv.reader(io.StringIO(render_per_seed_csv(comp)))) == list(PER_RUN_KEYS.values())
    assert [list(row) for row in to_json_dict(comp)["per_run"]] == [list(PER_RUN_KEYS.values())] * len(per_run)
