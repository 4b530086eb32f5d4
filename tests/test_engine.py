"""Engine behaviour: readings, feedback, observation state, full simulations."""

import csv
import dataclasses
import itertools
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesense import engine
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
    K_DEVIATION,
    TREND_WINDOW,
    ObservationState,
    RunResult,
    _NoiseSource,
    feedback_proxy,
    fill_baseline,
    load_run,
    run_simulation,
    save_run,
    sensor_reading,
    write_round_log_csv,
)
from edgesense.policy import INITIAL_UTILITY, POLICY_ORDER, PolicyKind, reward, select_static
from edgesense.trace import EventSpec, TraceError, TraceSet, build_round_trace, generate_synthetic
from oracles import mark_detections, round_log_csv, run_record_v1, trend_slope, window_mean
from test_run_digests import DRAINED, build_traces, run_digest


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


def expected_trend(history, now, n_zones):
    """Trend slopes from the pushed rounds: the trend window keeps, per slot
    round % TREND_WINDOW, the latest round pushed into it; unsampled
    channels (NaN means) are left out point by point."""
    latest = {}
    for r, mean in history:
        latest[r % TREND_WINDOW] = (r, mean)
    out = np.zeros((n_zones, N_POLLUTANTS))
    for z in range(n_zones):
        for p in range(N_POLLUTANTS):
            points = [(float(r - now), float(m[z, p])) for r, m in latest.values() if not np.isnan(m[z, p])]
            out[z, p] = trend_slope(points)
    return out


def round_sums(rng, n_zones, p_dark):
    """One round's per-channel sample counts, sums and means: a zone goes
    dark with probability p_dark, else each channel gets 1 to 3 samples,
    and one channel in fifty gets none."""
    cnt = rng.integers(1, 4, (n_zones, N_POLLUTANTS)).astype(np.float64)
    cnt[rng.random((n_zones, N_POLLUTANTS)) < 0.02] = 0.0
    cnt[rng.random(n_zones) < p_dark] = 0.0
    cur_sum = cnt * rng.uniform(5.0, 50.0, cnt.shape)
    cur_mean = np.divide(cur_sum, cnt, out=np.full_like(cur_sum, np.nan), where=cnt > 0)
    return cur_sum, cnt, cur_mean


class TestObservationFastPaths:
    def test_trend_masks_a_zone_that_goes_dark_in_a_full_window(self):
        rng = np.random.default_rng(8)
        obs = ObservationState(2, window=24)
        history = []
        for t in range(40):
            got = obs.trend(t)
            want = expected_trend(history, t, 2)
            assert np.all(np.isfinite(got))
            assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
            cnt = np.ones((2, N_POLLUTANTS))
            if t in (20, 21, 23):
                cnt[1] = 0.0  # zone 1 loses its last live sensor for a while
            cur_mean = np.where(cnt > 0, rng.uniform(5.0, 50.0, cnt.shape), np.nan)
            obs.evict(t)
            obs.push(t, np.nan_to_num(cur_mean), cnt, cur_mean)
            history.append((t, cur_mean))
            # the window was full before zone 1 went dark and is full again
            # once the dark rounds have left it
            assert (obs.n_nan == 0) == (t >= TREND_WINDOW - 1 and not 20 <= t < 23 + TREND_WINDOW)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_zones=st.integers(1, 3),
        window=st.integers(2, 12),
        rounds=st.integers(1, 40),
        p_dark=st.sampled_from([0.0, 0.02, 0.2, 1.0]),
    )
    def test_window_baseline_and_trend_match_brute_force(self, seed, n_zones, window, rounds, p_dark):
        rng = np.random.default_rng(seed)
        obs = ObservationState(n_zones, window)
        samples = {(z, p): {} for z in range(n_zones) for p in range(N_POLLUTANTS)}
        history = []
        for t in range(rounds):
            obs.evict(t)
            merged = obs.merged()
            cur_sum, cur_cnt, cur_mean = round_sums(rng, n_zones, p_dark)
            # the baseline as the round loop forms it: no fill once every channel was seen
            baseline = fill_baseline(merged, cur_mean) if obs.unseen else merged
            never_seen = 0
            for (z, p), by_round in samples.items():
                want = window_mean(by_round, t, window - 1)
                if want is None:
                    firsts = [vals for r, vals in sorted(by_round.items()) if vals]
                    want = sum(firsts[0]) / len(firsts[0]) if firsts else None
                never_seen += want is None
                if want is None:
                    assert np.isnan(merged[z, p])
                    want = 0.0 if np.isnan(cur_mean[z, p]) else cur_mean[z, p]
                assert baseline[z, p] == pytest.approx(want, rel=1e-9)
            assert obs.unseen == never_seen
            assert obs.trend(t) == pytest.approx(expected_trend(history, t, n_zones), rel=1e-9, abs=1e-9)
            for (z, p), by_round in samples.items():
                n = int(cur_cnt[z, p])
                by_round[t] = [cur_sum[z, p] / n] * n if n else []
            obs.push(t, cur_sum, cur_cnt, cur_mean)
            history.append((t, cur_mean))


class TestNoiseSource:
    def test_chunking_never_changes_the_stream(self):
        per_round = 12
        raw = stream(3, STREAM_READING).standard_normal(30 * per_round).reshape(30, per_round)
        for rounds in (30, 29, 0):
            for chunk in (1, 5, 7):
                with _NoiseSource(3, per_round, chunk_rounds=chunk, rounds=rounds) as src:
                    got = np.stack([src.rest_of_chunk(t)[0] for t in range(rounds)]) if rounds else raw[:0]
                assert np.array_equal(got, raw[:rounds])
                # whole chunks up to the one holding the last round were
                # drawn, and nothing past it
                drawn = -(-rounds // chunk) * chunk * per_round
                ref = stream(3, STREAM_READING)
                ref.standard_normal(drawn)
                assert np.array_equal(src._gen.standard_normal(4), ref.standard_normal(4))


@pytest.mark.parametrize("policy", ["static", "ucb"])
def test_a_run_under_a_profile_hook_is_the_same_run(policy):
    # a profile hook holds each C function it sees called, the bound resize
    # that shrinks the record's columns among them
    traces = build_traces(DRAINED)
    want = run_simulation(DRAINED, traces, policy)
    sys.setprofile(lambda frame, event, arg: None)
    try:
        got = run_simulation(DRAINED, traces, policy)
    finally:
        sys.setprofile(None)
    assert run_digest(got) == run_digest(want)


class TestHelperThreads:
    """The noise prefetch thread never outlives run_simulation."""

    CFG = SimConfig(n_zones=2, nodes_per_zone=3, rounds=300, seed=5)

    @pytest.fixture(scope="class")
    def traces(self):
        return build_round_trace(self.CFG, generate_synthetic(self.CFG, rng_seed=self.CFG.seed))

    def test_a_run_that_returns_leaves_no_thread(self, traces):
        before = threading.enumerate()
        run = run_simulation(self.CFG, traces, "static")
        assert run.n_rounds == 300
        assert threading.enumerate() == before

    def test_a_run_that_raises_leaves_no_thread(self, traces, monkeypatch):
        calls = []

        def failing_select_static(cand_ids):
            calls.append(None)
            if len(calls) > 150:
                raise RuntimeError("selector failed")
            return select_static(cand_ids)

        monkeypatch.setattr(engine, "select_static", failing_select_static)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="selector failed"):
            run_simulation(self.CFG, traces, "static")
        assert len(calls) == 151  # it raised in round 150
        assert threading.enumerate() == before

    def test_a_budgeted_run_that_raises_leaves_no_thread(self, traces, monkeypatch):
        original = engine.select_budgeted
        calls = []

        def failing_select_budgeted(*args):
            calls.append(None)
            if len(calls) > 150:
                raise RuntimeError("selector failed")
            return original(*args)

        monkeypatch.setattr(engine, "select_budgeted", failing_select_budgeted)
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="selector failed"):
            run_simulation(self.CFG, traces, "ucb")
        assert len(calls) == 151
        assert threading.enumerate() == before


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
        assert np.all(run.final_ucb_means[run.activation_counts == 0] == 0.0)
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

    @pytest.fixture(scope="class")
    def drained_runs(self):
        """3 zones x 3 nodes on a battery that runs flat within about 200
        rounds, one run per policy."""
        cfg = SimConfig(n_zones=3, nodes_per_zone=3, rounds=360, round_minutes=60, battery_capacity=150.0, seed=3)
        traces = build_round_trace(cfg, generate_synthetic(cfg, rng_seed=cfg.seed))
        return {kind.value: run_simulation(cfg, traces, kind) for kind in POLICY_ORDER}

    def test_only_fundable_nodes_are_selected(self, drained_runs):
        for run in drained_runs.values():
            capacity = run.config["battery_capacity"]
            pulls = np.zeros(run.n_nodes, dtype=np.int64)
            last_round = np.full(run.n_nodes, -1, dtype=np.int64)
            for lg in run.logs:
                sel = lg.selected
                assert np.all((pulls[sel] + 1) * run.energy_cost[sel] <= capacity)
                pulls[sel] += 1
                last_round[sel] = lg.round_index
            assert np.array_equal(pulls, run.activation_counts)
            # a node dies in the round of the activation after which it cannot fund another
            dead = (run.activation_counts + 1) * run.energy_cost > capacity
            assert np.array_equal(run.death_round, np.where(dead, last_round, -1))
        assert np.all(drained_runs["static"].death_round >= 0)
        assert drained_runs["static"].death_round.max() < 200

    def test_survive_is_the_death_test_k_activations_ahead(self):
        # node 2 cannot fund one activation, so it is no candidate and cannot
        # veto; after one activation node 0 has (1 + 8 + 1) * 0.5 == 5.0
        costs = np.array([0.5, 0.25, 8.0])
        both = np.array([0, 1])
        state = engine._RunState(costs, 5.0)
        assert state.cand_ids.tolist() == [0, 1]
        state.activate(np.array([0]), costs[:1])
        assert state.survive(8) and not state.survive(9)
        for _ in range(8):
            state.activate(both, costs[both])
        assert state.survive(0) and not state.survive(1)
        state.activate(both, costs[both])
        assert state.cand_ids.tolist() == [1]
        # node 1: (9 + 10 + 1) * 0.25 == 5.0
        assert state.survive(10) and not state.survive(11)
        # node 0 holds 5.0 - 10 * 0.5 == 0.0, node 1 5.0 - 9 * 0.25
        assert engine._charge_left(state.pulls, costs, 5.0).tolist() == [0.0, 2.75, 5.0]

    def test_run_state_starts_optimistic_and_untallied(self):
        state = engine._RunState(np.array([0.5, 0.25, 8.0, 1.0]), 5.0)
        assert np.all(state.utilities == INITIAL_UTILITY)
        assert INITIAL_UTILITY == 1.0
        assert np.all(state.ucb_means == 0.0)
        assert state.pulls.tolist() == [0, 0, 0, 0]
        assert state.max_violation == 0.0

    def test_round_log_matches_the_csv_module(self, drained_runs, tmp_path):
        path = tmp_path / "rounds.csv"
        for run in drained_runs.values():
            assert any(len(lg.selected) == 0 for lg in run.logs)
            write_round_log_csv(run, str(path))
            assert path.read_bytes() == round_log_csv(run).encode("utf-8")


class TestFixedBlockSums:
    @pytest.mark.parametrize("width", [*range(1, 10), 127, 128, 129, 130, 255, 256, 257, 258, 1000, 8000])
    @pytest.mark.parametrize("rounds", [1, 7, 96])
    def test_a_row_sum_is_the_sum_of_that_round_alone(self, rounds, width):
        # _round_sums sums a chunk of equal-width rounds' spend and rewards as
        # rows of a [rounds, width] view; the floats must be those of each
        # round's own 1-D sum, across numpy's pairwise blocks, or digests would move
        rng = np.random.default_rng(width * 100 + rounds)
        x = rng.standard_normal(rounds * width) * 10.0 ** rng.uniform(-8, 8, rounds * width)
        rows = x.reshape(rounds, width).sum(axis=1)
        alone = np.array([x[i * width:(i + 1) * width].sum() for i in range(rounds)])
        assert rows.tobytes() == alone.tobytes()
        if width >= 128:
            # the data tells summation orders apart: left to right differs
            in_order = np.add.accumulate(x.reshape(rounds, width), axis=1)[:, -1]
            assert in_order.tobytes() != alone.tobytes()

    @pytest.mark.parametrize("counts", [
        [9] * 7, [128] * 5, [130] * 3, [0] * 4,
        [0, 7, 8, 9, 0, 127, 128, 129, 130, 0], [0, 0, 8, 129, 129], [129, 129, 0, 16, 17],
    ], ids=["uniform-9", "uniform-128", "uniform-130", "all-empty", "ragged", "empty-first", "empty-inside"])
    @pytest.mark.parametrize("block_rows", [1, 300, engine.FIXED_BLOCK_ROWS])
    def test_round_sums_are_each_rounds_own_sums(self, monkeypatch, counts, block_rows):
        # chunks of 1, 2 and 61 rounds over a 130-node fleet: each round's
        # spend and mean reward are its own 1-D sums whatever the chunking
        monkeypatch.setattr(engine, "FIXED_BLOCK_ROWS", block_rows)
        cfg = SimConfig()
        rng = np.random.default_rng(sum(counts) + block_rows)
        costs = 10.0 ** rng.uniform(-8, 8, 130)
        sels = [rng.permutation(130)[:k].astype(np.int32) for k in counts]
        feedback = rng.uniform(0.0, 1.0, sum(counts))
        spent, mean_reward = engine._round_sums(cfg, costs, np.concatenate(sels), feedback,
                                                np.array(counts, dtype=np.int64))
        starts = np.cumsum([0, *counts])
        for t, sel in enumerate(sels):
            if sel.size:
                rewards = reward(feedback[starts[t]:starts[t + 1]], costs[sel], cfg.alpha, cfg.beta)
                assert spent[t].tobytes() == costs[sel].sum().tobytes()
                assert mean_reward[t].tobytes() == (rewards.sum() / sel.size).tobytes()
            else:
                assert spent[t] == mean_reward[t] == 0.0


class TestDetection:
    def test_flags_match_log_replay(self, tiny_cfg, tiny_traces, runs):
        assert len(tiny_traces.events) > 0
        for run in runs.values():
            assert mark_detections(run) == (run.event_detected, run.event_detect_round)

    def test_detect_round_is_inside_the_event_window(self, runs):
        for run in runs.values():
            for ev, hit, r in zip(run.events, run.event_detected, run.event_detect_round):
                if hit:
                    assert ev.start_round <= r < ev.end_round
                else:
                    assert r == -1

    def test_threshold_extremes(self, runs):
        run = runs["static"]
        assert mark_detections(run, threshold=1.1)[0] == [False] * len(run.events)
        # with the whole fleet on, a zero threshold flags every event in its first round
        assert mark_detections(run, threshold=0.0) == (
            [True] * len(run.events), [ev.start_round for ev in run.events])


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


@pytest.fixture(scope="module")
def drained_runs():
    """One run per policy on a world whose batteries run flat: nodes die and
    some rounds select nobody."""
    traces = build_traces(DRAINED)
    return {kind.value: run_simulation(DRAINED, traces, kind) for kind in POLICY_ORDER}


class TestPersistence:
    def test_save_load_roundtrip(self, runs, drained_runs, tmp_path):
        # what save_run writes, and the same run as an edgesense-run/1 record
        path, v1_path = tmp_path / "run.json", tmp_path / "v1.json"
        for world, world_runs in (("tiny", runs), ("drained", drained_runs)):
            for (policy, run), loader in itertools.product(world_runs.items(), ("v2", "v1")):
                save_run(run, str(path))
                v1_path.write_text(stable_json(run_record_v1(run)))
                loaded = load_run(str(path if loader == "v2" else v1_path))
                assert stable_json(loaded.to_dict()) == stable_json(run.to_dict())
                for field in dataclasses.fields(RunResult):
                    got, want = getattr(loaded, field.name), getattr(run, field.name)
                    where = (world, policy, loader, field.name)
                    if isinstance(want, np.ndarray):
                        assert got.dtype == want.dtype and np.array_equal(got, want), where
                    else:
                        assert type(got) is type(want) and got == want, where
        assert np.any(runs["ucb"].final_ucb_means > 0.0)
        for run in drained_runs.values():
            assert np.any(run.death_round >= 0) and np.any(run.n_selected == 0)

    def test_record_without_learner_state_loads_run_start_state(self, runs, tmp_path):
        record = runs["ucb"].to_dict()
        del record["final_utilities"], record["final_ucb_means"]
        path = tmp_path / "old.json"
        path.write_text(stable_json(record))
        loaded = load_run(str(path))
        assert np.all(loaded.final_utilities == INITIAL_UTILITY)
        assert np.all(loaded.final_ucb_means == 0.0)

    def test_load_rejects_a_record_that_contradicts_itself(self, runs, tmp_path):
        record = run_record_v1(runs["ucb"])
        record["rounds"][0]["feedback"].append(0.5)
        path = tmp_path / "run.json"
        path.write_text(stable_json(record))
        with pytest.raises(ValueError, match="round 0 has"):
            load_run(str(path))

    def test_load_rejects_a_round_that_selects_a_node_twice(self, runs, tiny_cfg):
        # a forged record whose derived fields are all rebuilt from its ids,
        # so that only the repeated id is wrong
        run = runs["adaptive"]
        assert run.n_selected[0] >= 2
        selected = run.selected.copy()
        selected[1] = selected[0]
        columns = dict(selected=selected, feedback=run.feedback, n_selected=run.n_selected, budget=run.budget)
        forged = engine._build_run(tiny_cfg, PolicyKind.ADAPTIVE, run.seed, run.trace_hash, run.events, columns,
                                   run.energy_cost, run.zone_of, np.bincount(selected, minlength=run.n_nodes),
                                   run.final_utilities, run.final_ucb_means, run.max_budget_violation)
        with pytest.raises(ValueError, match=f"^round 0 has selected node {selected[0]} twice$"):
            engine.run_from_dict(forged.to_dict())

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
