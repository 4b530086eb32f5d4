"""Engine behaviour: readings, feedback, observation state, full simulations."""

import csv
import warnings

import numpy as np
import pytest

from edgesense._util import stable_json
from edgesense.core import (
    ConfigError,
    N_POLLUTANTS,
    STREAM_READING,
    Pollutant,
    SimConfig,
    stream,
)
from edgesense.engine import (
    FEEDBACK_SCALE_FLOOR,
    INITIAL_UTILITY,
    K_DEVIATION,
    ObservationState,
    _NoiseSource,
    feedback_proxy,
    fill_baseline,
    load_run,
    run_simulation,
    save_run,
    sensor_reading,
    write_round_log_csv,
)
from edgesense.policy import POLICY_ORDER
from edgesense.trace import EventSpec, TraceError, TraceSet
from oracles import mark_detections, window_mean


class TestSensorReading:
    def test_zero_sigma_is_exact(self):
        assert sensor_reading(37.25, 1.7, 0.0) == 37.25

    def test_noise_scales_multiplicatively(self):
        # a standard-normal draw of 5 at sigma 0.1 is a +50% excursion
        assert sensor_reading(10.0, 5.0, 0.1) == pytest.approx(15.0)
        got = sensor_reading(np.array([[10.0, 20.0]]), np.array([[5.0, -5.0]]), 0.1)
        assert np.allclose(got, [[15.0, 10.0]])

    def test_negative_excursions_clamp_to_zero(self):
        assert sensor_reading(5.0, -4.0, 0.5) == 0.0


class TestFeedbackProxy:
    def test_on_baseline_is_zero(self):
        assert feedback_proxy(40.0, 40.0) == 0.0

    def test_saturates_exactly_at_k_deviations(self):
        # |measured - baseline| = K_DEVIATION * baseline maps to exactly 1.0
        assert K_DEVIATION == 1.5
        assert feedback_proxy(100.0, 40.0) == 1.0

    def test_clamps_beyond_saturation(self):
        assert feedback_proxy(500.0, 40.0) == 1.0

    def test_negative_deviations_count_by_magnitude(self):
        assert feedback_proxy(10.0, 40.0) == pytest.approx(0.5)

    def test_linear_inside_the_band(self):
        assert feedback_proxy(70.0, 40.0) == pytest.approx(0.5)
        got = feedback_proxy(np.array([40.0, 70.0, 500.0]), np.array([40.0, 40.0, 40.0]))
        assert got.tolist() == pytest.approx([0.0, 0.5, 1.0])

    def test_near_zero_baseline_uses_the_scale_floor(self):
        assert feedback_proxy(0.0, 0.0) == 0.0
        assert feedback_proxy(0.75 * FEEDBACK_SCALE_FLOOR, 0.0) == pytest.approx(0.5)
        assert feedback_proxy(1.0, 0.0) == 1.0


class TestObservationState:
    def test_window_mean_matches_brute_force(self):
        rng = np.random.default_rng(11)
        n_zones, window = 2, 10
        obs = ObservationState(n_zones, window)
        history = {(z, p): [] for z in range(n_zones) for p in range(N_POLLUTANTS)}
        for t in range(35):
            obs.evict(t)
            merged = obs.merged()
            for z in range(n_zones):
                for p in range(N_POLLUTANTS):
                    samples = {r: vals for r, vals in history[(z, p)]}
                    # the round that turned `window` old was evicted before the
                    # read, so the live span is the window - 1 freshest rounds
                    want = window_mean(samples, t, window - 1)
                    if want is None:
                        firsts = [vals for r, vals in history[(z, p)] if vals]
                        want = sum(firsts[0]) / len(firsts[0]) if firsts else None
                    if want is None:
                        assert np.isnan(merged[z, p])
                    else:
                        assert merged[z, p] == pytest.approx(want, rel=1e-9)
            cur_sum = np.zeros((n_zones, N_POLLUTANTS))
            cur_cnt = np.zeros((n_zones, N_POLLUTANTS))
            for z in range(n_zones):
                for p in range(N_POLLUTANTS):
                    vals = list(rng.uniform(5.0, 50.0, rng.integers(0, 4)))
                    history[(z, p)].append((t, vals))
                    cur_sum[z, p] = sum(vals)
                    cur_cnt[z, p] = len(vals)
            cur_mean = np.divide(
                cur_sum, cur_cnt, out=np.full_like(cur_sum, np.nan), where=cur_cnt > 0
            )
            obs.push(t, cur_sum, cur_cnt, cur_mean)

    def test_baseline_fills_gaps_from_current_round_then_zero(self):
        obs = ObservationState(1, 4)
        current = np.full((1, N_POLLUTANTS), np.nan)
        current[0, 0] = 12.0
        bl = fill_baseline(obs.merged(), current)
        assert bl[0, 0] == 12.0
        assert np.all(bl[0, 1:] == 0.0)
        assert np.all(fill_baseline(obs.merged()) == 0.0)
        # a sampled channel keeps its window mean whatever this round saw
        level = np.full((1, N_POLLUTANTS), 30.0)
        obs.push(0, level, np.ones((1, N_POLLUTANTS)), level)
        assert np.all(fill_baseline(obs.merged(), current) == 30.0)

    def test_trend_matches_polyfit_on_full_window(self):
        rng = np.random.default_rng(5)
        obs = ObservationState(2, window=24)
        means = 20.0 + np.cumsum(rng.normal(0, 1, (10, 2, N_POLLUTANTS)), axis=0)
        for t in range(10):
            cnt = np.ones((2, N_POLLUTANTS))
            obs.evict(t)
            obs.push(t, means[t], cnt, means[t])
        now = 10
        got = obs.trend(now)
        x = (obs.tb_round - now).astype(float)
        for z in range(2):
            for p in range(N_POLLUTANTS):
                want = np.polyfit(x, obs.tb_values[:, z, p], 1)[0]
                assert got[z, p] == pytest.approx(want, rel=1e-8, abs=1e-10)

    def test_trend_handles_gaps_and_short_history(self):
        obs = ObservationState(1, window=24)
        # channel 0 sampled at rounds 0, 2, 4; channel 1 only once; rest never
        seen = {0: (0.0, 1.0), 2: (4.0, 1.0), 4: (8.0, 1.0)}
        for t in range(5):
            cur_sum = np.zeros((1, N_POLLUTANTS))
            cur_cnt = np.zeros((1, N_POLLUTANTS))
            if t in seen:
                cur_sum[0, 0], cur_cnt[0, 0] = seen[t]
            if t == 1:
                cur_sum[0, 1], cur_cnt[0, 1] = 7.0, 1.0
            cur_mean = np.divide(
                cur_sum, cur_cnt, out=np.full_like(cur_sum, np.nan), where=cur_cnt > 0
            )
            obs.evict(t)
            obs.push(t, cur_sum, cur_cnt, cur_mean)
        got = obs.trend(5)
        # channel 0 climbs two units per round, channel 1 lacks the points
        assert got[0, 0] == pytest.approx(2.0)
        assert got[0, 1] == 0.0
        assert np.all(got[0, 2:] == 0.0)

    def test_eviction_forgets_old_rounds(self):
        obs = ObservationState(1, window=3)
        ones = np.ones((1, N_POLLUTANTS))
        for t, level in enumerate([100.0, 10.0, 20.0]):
            obs.evict(t)
            obs.push(t, ones * level, ones, ones * level)
        obs.evict(3)
        # round 0's spike left the window
        assert np.all(obs.merged() == 15.0)


class TestNoiseSource:
    def test_chunking_never_changes_the_stream(self):
        per_round = 12
        raw = stream(3, STREAM_READING).standard_normal(30 * per_round).reshape(30, per_round)
        for chunk in (1, 5, 7):
            src = _NoiseSource(3, per_round, chunk_rounds=chunk)
            got = np.stack([src.round_block(t) for t in range(30)])
            assert np.array_equal(got, raw)


@pytest.fixture(scope="module")
def runs(tiny_cfg, tiny_traces):
    """One run per policy on the tiny world, shared by the invariant tests."""
    return {
        kind.value: run_simulation(tiny_cfg, tiny_traces, kind, seed=tiny_cfg.seed)
        for kind in POLICY_ORDER
    }


class TestRunInvariants:
    def test_energy_accounting_is_consistent(self, runs):
        for run in runs.values():
            from_logs = sum(lg.spent for lg in run.logs)
            from_counts = float((run.activation_counts * run.energy_cost).sum())
            assert run.total_spent == pytest.approx(from_logs, rel=1e-12)
            assert run.total_spent == pytest.approx(from_counts, rel=1e-12)
            capacity = run.config["battery_capacity"]
            assert np.array_equal(
                run.final_battery, capacity - run.activation_counts * run.energy_cost
            )
            assert np.all(run.final_battery >= 0)

    def test_budgeted_policies_never_exceed_their_budget(self, runs, tiny_cfg):
        for name in ("ucb", "adaptive"):
            run = runs[name]
            assert run.max_budget_violation == 0.0
            assert run.n_budgeted_selections == tiny_cfg.rounds * tiny_cfg.n_zones
            global_budget = tiny_cfg.budget_fraction * float(run.energy_cost.sum())
            for lg in run.logs:
                assert lg.budget_total == pytest.approx(global_budget)
                assert lg.spent <= lg.budget_total + 1e-9

    def test_static_activates_everyone_every_round(self, runs, tiny_cfg):
        run = runs["static"]
        for lg in run.logs:
            assert len(lg.selected) == tiny_cfg.n_nodes
        assert np.all(run.activation_counts == tiny_cfg.rounds)
        assert np.all(run.death_round == -1)

    def test_periodic_follows_the_stagger(self, runs, tiny_cfg):
        run = runs["periodic"]
        period, duty = tiny_cfg.periodic_period, tiny_cfg.periodic_duty
        for lg in run.logs[:10]:
            want = [n for n in range(tiny_cfg.n_nodes) if (lg.round_index + n) % period < duty]
            assert list(lg.selected) == want

    def test_feedback_always_in_unit_interval(self, runs):
        for run in runs.values():
            for lg in run.logs:
                assert len(lg.feedback) == len(lg.selected)
                if len(lg.feedback):
                    assert lg.feedback.min() >= 0.0
                    assert lg.feedback.max() <= 1.0

    def test_ucb_bookkeeping(self, runs):
        run = runs["ucb"]
        assert np.array_equal(run.final_ucb_counts, run.activation_counts)
        assert run.final_ucb_means.min() >= 0.0
        assert run.final_ucb_means.max() <= 1.0

    def test_adaptive_utilities_stay_bounded(self, runs):
        run = runs["adaptive"]
        assert run.final_utilities.min() >= 0.0
        assert run.final_utilities.max() <= 1.0
        untouched = run.activation_counts == 0
        assert np.all(run.final_utilities[untouched] == INITIAL_UTILITY)

    def test_same_seed_replays_bit_for_bit(self, tiny_cfg, tiny_traces, runs):
        again = run_simulation(tiny_cfg, tiny_traces, "adaptive", seed=tiny_cfg.seed)
        assert stable_json(again.to_dict()) == stable_json(runs["adaptive"].to_dict())

    def test_seed_changes_the_fleet(self, tiny_cfg, tiny_traces, runs):
        other = run_simulation(tiny_cfg, tiny_traces, "adaptive", seed=99)
        assert other.trace_hash == runs["adaptive"].trace_hash
        assert not np.array_equal(other.energy_cost, runs["adaptive"].energy_cost)

    def test_policy_accepts_string_names(self, tiny_cfg, tiny_traces):
        run = run_simulation(tiny_cfg, tiny_traces, "static", seed=1)
        assert run.policy == "static"
        with pytest.raises(ValueError, match="unknown policy"):
            run_simulation(tiny_cfg, tiny_traces, "greedy", seed=1)


class TestRunValidation:
    def test_zone_mismatch(self, tiny_cfg, tiny_traces):
        with pytest.raises(ValueError, match="zones"):
            run_simulation(tiny_cfg.replace(n_zones=3, nodes_per_zone=2), tiny_traces, "static")

    def test_trace_too_short(self, tiny_cfg, tiny_traces):
        with pytest.raises(ValueError, match="rounds"):
            run_simulation(tiny_cfg.replace(rounds=100), tiny_traces, "static")

    def test_invalid_config(self, tiny_cfg, tiny_traces):
        with pytest.raises(ConfigError):
            run_simulation(tiny_cfg.replace(eta=2.0), tiny_traces, "adaptive")

    def test_non_finite_trace_values_rejected(self, tiny_cfg, tiny_traces):
        values = tiny_traces.values.copy()
        values[3, 1, 2] = np.inf
        bad = TraceSet(values=values, zone_ids=tiny_traces.zone_ids, events=tiny_traces.events)
        with pytest.raises(TraceError, match="finite"):
            run_simulation(tiny_cfg, bad, "static")

    def test_zone_ids_must_be_positional(self, tiny_cfg, tiny_traces):
        labelled = TraceSet(values=tiny_traces.values, zone_ids=(5, 9), events=[])
        with pytest.raises(TraceError, match="positional"):
            run_simulation(tiny_cfg, labelled, "static")
        stray = TraceSet(values=tiny_traces.values, zone_ids=(0, 1),
                         events=[EventSpec(7, 0, 4, Pollutant.CO, 3.0)])
        with pytest.raises(TraceError, match="positional"):
            run_simulation(tiny_cfg, stray, "static")

    def test_zero_span_payoff_keeps_ucb_means_finite(self, tiny_cfg, tiny_traces):
        # alpha = beta = 0 leaves the payoff map without a span; the engine
        # must take normalized_payoff's guard instead of dividing 0 by 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run = run_simulation(tiny_cfg.replace(alpha=0.0, beta=0.0), tiny_traces, "ucb")
        assert np.all(np.isfinite(run.final_ucb_means))
        assert np.all(run.final_ucb_means == 0.0)

    def test_zero_rounds_is_a_valid_noop(self, tiny_cfg, tiny_traces):
        run = run_simulation(tiny_cfg.replace(rounds=0), tiny_traces, "static")
        assert run.n_rounds == 0
        assert run.total_spent == 0.0
        assert np.all(run.final_battery == tiny_cfg.battery_capacity)


class TestBatteryDepletion:
    def test_nodes_die_on_schedule_and_stay_dead(self, tiny_cfg, tiny_traces):
        cfg = tiny_cfg.replace(battery_capacity=3.0)
        run = run_simulation(cfg, tiny_traces, "static", seed=tiny_cfg.seed)
        want_pulls = np.floor(3.0 / run.energy_cost).astype(np.int64)
        assert np.array_equal(run.activation_counts, want_pulls)
        assert np.array_equal(run.death_round, want_pulls - 1)
        assert np.all(run.final_battery >= 0)
        assert np.all(run.final_battery < run.energy_cost)
        for lg in run.logs:
            for node in lg.selected:
                assert lg.round_index <= run.death_round[node]


class TestDetection:
    def test_flags_match_log_replay(self, tiny_cfg, tiny_traces, runs):
        assert len(tiny_traces.events) > 0
        for run in runs.values():
            assert mark_detections(run) == run.event_detected

    def test_detect_round_is_inside_the_event_window(self, runs):
        for run in runs.values():
            for ev, hit, r in zip(run.events, run.event_detected, run.event_detect_round):
                if hit:
                    assert ev.start_round <= r < ev.end_round
                else:
                    assert r == -1

    def test_threshold_extremes(self, runs):
        run = runs["static"]
        assert mark_detections(run, threshold=1.1) == [False] * len(run.events)
        # with the whole fleet on, a zero threshold flags every event
        assert mark_detections(run, threshold=0.0) == [True] * len(run.events)


class TestHierarchyToggle:
    def test_single_cluster_when_disabled(self, tiny_cfg, tiny_traces):
        cfg = tiny_cfg.replace(hierarchy=False)
        run = run_simulation(cfg, tiny_traces, "adaptive", seed=tiny_cfg.seed)
        assert run.n_budgeted_selections == cfg.rounds
        assert run.max_budget_violation == 0.0
        global_budget = cfg.budget_fraction * float(run.energy_cost.sum())
        for lg in run.logs:
            assert lg.budget_total == pytest.approx(global_budget)

    def test_toggle_changes_selection(self, tiny_cfg, tiny_traces, runs):
        flat = run_simulation(
            tiny_cfg.replace(hierarchy=False), tiny_traces, "adaptive", seed=tiny_cfg.seed
        )
        hier = runs["adaptive"]
        assert flat.trace_hash == hier.trace_hash
        picked_flat = [list(lg.selected) for lg in flat.logs]
        picked_hier = [list(lg.selected) for lg in hier.logs]
        assert picked_flat != picked_hier


class TestEmptySelection:
    def test_zero_duty_spends_nothing(self, tiny_cfg, tiny_traces):
        cfg = tiny_cfg.replace(periodic_duty=0)
        run = run_simulation(cfg, tiny_traces, "periodic", seed=tiny_cfg.seed)
        assert run.total_spent == 0.0
        assert all(len(lg.selected) == 0 for lg in run.logs)
        assert all(lg.mean_reward == 0.0 for lg in run.logs)
        assert run.event_detected == [False] * len(run.events)


class TestPersistence:
    def test_save_load_roundtrip(self, runs, tmp_path):
        path = tmp_path / "run.json"
        save_run(runs["adaptive"], str(path))
        loaded = load_run(str(path))
        assert stable_json(loaded.to_dict()) == stable_json(runs["adaptive"].to_dict())

    def test_load_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else/9"}')
        with pytest.raises(ValueError, match="unsupported run format"):
            load_run(str(path))

    def test_round_log_csv_layout(self, runs, tiny_cfg, tmp_path):
        run = runs["periodic"]
        path = tmp_path / "rounds.csv"
        write_round_log_csv(run, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["round", "policy", "zone", "node", "selected", "spent_mAh", "feedback"]
        assert len(rows) == 1 + tiny_cfg.rounds * tiny_cfg.n_nodes
        first_round = rows[1 : 1 + tiny_cfg.n_nodes]
        on = {int(r[3]) for r in first_round if r[4] == "1"}
        assert on == set(int(i) for i in run.logs[0].selected)
        for r in first_round:
            node = int(r[3])
            assert r[1] == "periodic"
            assert int(r[2]) == node // tiny_cfg.nodes_per_zone
            if r[4] == "1":
                assert float(r[5]) == run.energy_cost[node]
                assert r[6] != ""
            else:
                assert r[5] == "0.0" and r[6] == ""
