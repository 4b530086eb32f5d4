"""Trace synthesis, CSV round trips, interpolation, and event injection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesense._util import stable_json
from edgesense.core import N_POLLUTANTS, POLLUTANTS, Pollutant, SimConfig
from edgesense.engine import run_simulation
from edgesense.metrics import compute_run_metrics
from edgesense.policy import POLICY_ORDER
from edgesense.trace import (
    EventSpec,
    TraceError,
    TraceSet,
    apply_events,
    build_round_trace,
    EVENT_DURATION,
    EVENT_MAGNITUDE,
    MAX_TRACE_VALUE,
    check_values,
    draw_events,
    fit_rounds,
    generate_synthetic,
    hours_needed,
    interpolate,
    load_csv,
    load_events_csv,
    merge_events,
    write_csv,
    write_events_csv,
)


def flat_trace(n_rounds, n_zones, value=10.0):
    values = np.full((n_rounds, n_zones, N_POLLUTANTS), value, dtype=np.float64)
    return TraceSet(values=values, zone_ids=tuple(range(n_zones)))


class TestHoursNeeded:
    def test_quarter_hour_rounds(self):
        assert hours_needed(SimConfig(rounds=96, round_minutes=15)) == 25
        assert hours_needed(SimConfig(rounds=2880, round_minutes=15)) == 721

    def test_hourly_rounds(self):
        assert hours_needed(SimConfig(rounds=48, round_minutes=60)) == 48

    def test_degenerate_round_counts(self):
        assert hours_needed(SimConfig(rounds=0, round_minutes=15)) == 2
        assert hours_needed(SimConfig(rounds=1, round_minutes=15)) == 2


class TestSynthesis:
    def test_shape_and_nonnegativity(self):
        cfg = SimConfig(n_zones=3, rounds=96, round_minutes=15)
        traces = generate_synthetic(cfg, rng_seed=2)
        assert traces.values.shape == (25, 3, N_POLLUTANTS)
        assert traces.zone_ids == (0, 1, 2)
        assert np.all(traces.values >= 0)
        assert np.all(np.isfinite(traces.values))

    def test_deterministic_per_seed(self):
        cfg = SimConfig(n_zones=2, rounds=96, round_minutes=15)
        a = generate_synthetic(cfg, rng_seed=5)
        b = generate_synthetic(cfg, rng_seed=5)
        c = generate_synthetic(cfg, rng_seed=6)
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() != c.content_hash()

    def test_seed_defaults_to_config_seed(self):
        cfg = SimConfig(n_zones=2, rounds=96, round_minutes=15, seed=9)
        assert np.array_equal(
            generate_synthetic(cfg).values, generate_synthetic(cfg, rng_seed=9).values
        )

    @given(seed=st.integers(0, 2**32 - 1))
    def test_values_never_go_negative(self, seed):
        cfg = SimConfig(n_zones=2, rounds=24, round_minutes=60)
        traces = generate_synthetic(cfg, rng_seed=seed)
        assert np.all(traces.values >= 0)


class TestInterpolation:
    def test_hour_marks_are_bit_exact(self):
        cfg = SimConfig(n_zones=3, rounds=96, round_minutes=15)
        hourly = generate_synthetic(cfg, rng_seed=4)
        rounds = interpolate(hourly, 15)
        assert rounds.n_rounds == (hourly.n_rounds - 1) * 4 + 1
        assert np.array_equal(rounds.values[::4], hourly.values)

    def test_midpoint_is_the_average(self):
        hourly = flat_trace(2, 2)
        hourly.values[0] = 10.0
        hourly.values[1] = 20.0
        half = interpolate(hourly, 30)
        assert half.n_rounds == 3
        assert np.all(half.values[1] == 15.0)

    def test_round_minutes_must_divide_the_hour(self):
        with pytest.raises(TraceError, match="divide 60"):
            interpolate(flat_trace(3, 1), 45)

    def test_needs_two_frames(self):
        with pytest.raises(TraceError, match="two hourly frames"):
            interpolate(flat_trace(1, 1), 15)

    def test_sixty_minute_rounds_are_identity(self):
        hourly = generate_synthetic(SimConfig(n_zones=2, rounds=24, round_minutes=60), rng_seed=1)
        assert np.array_equal(interpolate(hourly, 60).values, hourly.values)


class TestFitRounds:
    def test_trims_to_exact_length(self):
        trimmed = fit_rounds(flat_trace(97, 2), 96)
        assert trimmed.n_rounds == 96

    def test_exact_length_is_passthrough(self):
        traces = flat_trace(96, 2)
        assert fit_rounds(traces, 96) is traces

    def test_too_short_raises(self):
        with pytest.raises(TraceError, match="need 96"):
            fit_rounds(flat_trace(90, 2), 96)


class TestCsvRoundTrip:
    def test_write_then_load_is_exact(self, tmp_path):
        cfg = SimConfig(n_zones=3, rounds=96, round_minutes=15)
        hourly = generate_synthetic(cfg, rng_seed=8)
        path = tmp_path / "trace.csv"
        write_csv(hourly, str(path))
        loaded = load_csv(str(path), expected_zones=3)
        assert loaded.zone_ids == hourly.zone_ids
        assert np.array_equal(loaded.values, hourly.values)

    def test_zone_count_mismatch(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_csv(flat_trace(2, 2), str(path))
        with pytest.raises(TraceError, match="expected 5 zones"):
            load_csv(str(path), expected_zones=5)


def _csv_lines(*rows):
    return "timestamp,zone_id,pollutant,value\n" + "\n".join(rows) + "\n"


def _full_hour(ts, zone, value="1.0", skip=()):
    return [f"{ts},{zone},{p.value},{value}" for p in POLLUTANTS if p not in skip]


class TestCsvErrors:
    def _load(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return load_csv(str(path))

    def test_bad_header(self, tmp_path):
        with pytest.raises(TraceError, match="expected header"):
            self._load(tmp_path, "time,zone,pollutant,value\n")

    def test_empty_file_body(self, tmp_path):
        with pytest.raises(TraceError, match="no data rows"):
            self._load(tmp_path, _csv_lines())

    def test_bad_timestamp(self, tmp_path):
        with pytest.raises(TraceError, match="line 2: bad timestamp"):
            self._load(tmp_path, _csv_lines("yesterday,0,PM25,1.0"))

    def test_bad_timestamp_on_a_late_line_reports_that_line(self, tmp_path):
        # parsed timestamps and labels are reused across rows; a bad string
        # is never reused, so it fails on the line where it first appears
        rows = (_full_hour("2026-01-01T00:00:00Z", 0) + _full_hour("2026-01-01T01:00:00Z", 0)
                + ["2026-01-01T01:00:00Q,1,PM25,1.0"] + _full_hour("2026-01-01T02:00:00Z", 0))
        with pytest.raises(TraceError, match=f"line {2 * len(POLLUTANTS) + 2}: bad timestamp"):
            self._load(tmp_path, _csv_lines(*rows))

    def test_bad_label_after_good_ones_reports_its_line(self, tmp_path):
        rows = _full_hour("2026-01-01T00:00:00Z", 0) + ["2026-01-01T01:00:00Z,0,PM 25,1.0"]
        with pytest.raises(TraceError, match=f"line {len(POLLUTANTS) + 2}: unknown pollutant"):
            self._load(tmp_path, _csv_lines(*rows))

    def test_bad_zone(self, tmp_path):
        with pytest.raises(TraceError, match="line 2: bad zone_id"):
            self._load(tmp_path, _csv_lines("2026-01-01T00:00:00Z,north,PM25,1.0"))

    def test_unknown_pollutant(self, tmp_path):
        with pytest.raises(TraceError, match="unknown pollutant"):
            self._load(tmp_path, _csv_lines("2026-01-01T00:00:00Z,0,CH4,1.0"))

    def test_negative_value(self, tmp_path):
        with pytest.raises(TraceError, match="negative or invalid"):
            self._load(tmp_path, _csv_lines("2026-01-01T00:00:00Z,0,PM25,-1.0"))

    def test_non_finite_value(self, tmp_path):
        for raw in ("inf", "-inf", "nan", "1e999"):
            with pytest.raises(TraceError, match="line 2: negative or invalid"):
                self._load(tmp_path, _csv_lines(f"2026-01-01T00:00:00Z,0,CO,{raw}"))

    def test_non_numeric_value(self, tmp_path):
        with pytest.raises(TraceError, match="non-numeric value"):
            self._load(tmp_path, _csv_lines("2026-01-01T00:00:00Z,0,PM25,high"))

    def test_duplicate_cell(self, tmp_path):
        rows = _full_hour("2026-01-01T00:00:00Z", 0) + ["2026-01-01T00:00:00Z,0,PM25,2.0"]
        with pytest.raises(TraceError, match="duplicate cell"):
            self._load(tmp_path, _csv_lines(*rows))

    def test_missing_cell(self, tmp_path):
        rows = _full_hour("2026-01-01T00:00:00Z", 0, skip=(Pollutant.SO2,))
        with pytest.raises(TraceError, match="missing cell"):
            self._load(tmp_path, _csv_lines(*rows))

    def test_hour_gap(self, tmp_path):
        rows = _full_hour("2026-01-01T00:00:00Z", 0) + _full_hour("2026-01-01T02:00:00Z", 0)
        with pytest.raises(TraceError, match="consecutive hourly"):
            self._load(tmp_path, _csv_lines(*rows))

    def test_wrong_column_count(self, tmp_path):
        with pytest.raises(TraceError, match="expected 4 columns"):
            self._load(tmp_path, _csv_lines("2026-01-01T00:00:00Z,0,PM25"))


class TestCheckValues:
    def test_accepts_values_up_to_the_bound(self):
        check_values(flat_trace(3, 2, MAX_TRACE_VALUE).values)
        check_values(flat_trace(3, 2, 0.0).values)

    def test_rejects_values_past_the_bound(self):
        values = flat_trace(3, 2).values
        values[1, 1, 2] = np.nextafter(MAX_TRACE_VALUE, np.inf)
        with pytest.raises(TraceError, match="at most 1e\\+100"):
            check_values(values)

    def test_the_bound_keeps_a_run_finite(self):
        # the largest accepted trace at the largest accepted noise: readings,
        # window sums and the trend stay finite, so feedback is never NaN
        cfg = SimConfig(n_zones=2, nodes_per_zone=3, rounds=48, round_minutes=60, noise_sigma=1.0)
        hourly = generate_synthetic(cfg, rng_seed=1)
        scaled = np.minimum(hourly.values * (MAX_TRACE_VALUE / hourly.values.max()), MAX_TRACE_VALUE)
        traces = build_round_trace(cfg, TraceSet(values=scaled, zone_ids=hourly.zone_ids))
        assert traces.values.max() > MAX_TRACE_VALUE / 2
        with np.errstate(all="raise"):
            for kind in POLICY_ORDER:
                run = run_simulation(cfg, traces, kind)
                assert all(np.isfinite(lg.feedback).all() for lg in run.logs)


class TestEvents:
    def test_spec_rejects_empty_window(self):
        with pytest.raises(TraceError, match="non-empty"):
            EventSpec(0, 5, 5, Pollutant.PM25, 2.0)

    def test_spec_rejects_negative_start(self):
        # apply_events slices mult[start:end], so [-5, 3) would change no value
        with pytest.raises(TraceError, match="start_round must be >= 0, got -5"):
            EventSpec(0, -5, 3, Pollutant.PM25, 4.0)
        assert EventSpec(0, 0, 3, Pollutant.PM25, 4.0).start_round == 0

    def test_spec_rejects_weak_magnitude(self):
        with pytest.raises(TraceError, match="magnitude"):
            EventSpec(0, 0, 4, Pollutant.PM25, 1.0)

    def test_draw_is_deterministic(self):
        a = draw_events(960, 4, 96, rate_per_zone_day=2.0, rng_seed=3)
        b = draw_events(960, 4, 96, rate_per_zone_day=2.0, rng_seed=3)
        c = draw_events(960, 4, 96, rate_per_zone_day=2.0, rng_seed=4)
        assert a == b
        assert a != c
        assert len(a) > 0

    def test_draw_respects_bounds(self):
        events = draw_events(960, 4, 96, rate_per_zone_day=2.0, rng_seed=3)
        assert events
        for ev in events:
            assert 0 <= ev.start_round < ev.end_round <= 960
            assert ev.end_round - ev.start_round <= EVENT_DURATION[1]
            assert EVENT_MAGNITUDE[0] <= ev.magnitude <= EVENT_MAGNITUDE[1]
            assert ev.zone_id in range(4)

    def test_draw_output_never_overlaps_per_channel(self):
        events = draw_events(960, 2, 96, rate_per_zone_day=12.0, rng_seed=1)
        by_channel = {}
        for ev in events:
            by_channel.setdefault((ev.zone_id, ev.pollutant), []).append(ev)
        for group in by_channel.values():
            group.sort(key=lambda e: e.start_round)
            for a, b in zip(group, group[1:]):
                assert a.end_round <= b.start_round

    def test_zero_rate_draws_nothing(self):
        assert draw_events(960, 4, 96, rate_per_zone_day=0.0, rng_seed=3) == []

    def test_merge_unions_window_and_keeps_max_magnitude(self):
        a = EventSpec(0, 0, 10, Pollutant.CO, 2.0)
        b = EventSpec(0, 5, 20, Pollutant.CO, 4.0)
        merged = merge_events([a, b])
        assert merged == [EventSpec(0, 0, 20, Pollutant.CO, 4.0)]

    def test_merge_leaves_other_channels_alone(self):
        a = EventSpec(0, 0, 10, Pollutant.CO, 2.0)
        b = EventSpec(0, 5, 20, Pollutant.SO2, 4.0)
        c = EventSpec(1, 5, 20, Pollutant.CO, 4.0)
        assert set(merge_events([a, b, c])) == {a, b, c}

    def test_apply_multiplies_only_the_window(self):
        traces = flat_trace(10, 2, value=3.0)
        ev = EventSpec(1, 2, 5, Pollutant.NO2, 4.0)
        boosted = apply_events(traces, [ev])
        pi = POLLUTANTS.index(Pollutant.NO2)
        assert np.all(boosted.values[2:5, 1, pi] == 12.0)
        untouched = boosted.values.copy()
        untouched[2:5, 1, pi] = 3.0
        assert np.all(untouched == 3.0)
        assert boosted.events == [ev]
        # the input is not mutated
        assert np.all(traces.values == 3.0)

    def test_apply_overlap_takes_max_not_product(self):
        traces = flat_trace(10, 1, value=1.0)
        evs = [
            EventSpec(0, 0, 6, Pollutant.O3, 2.0),
            EventSpec(0, 4, 8, Pollutant.O3, 3.0),
        ]
        boosted = apply_events(traces, evs)
        pi = POLLUTANTS.index(Pollutant.O3)
        assert np.all(boosted.values[4:6, 0, pi] == 3.0)

    def test_apply_rejects_window_past_trace_end(self):
        with pytest.raises(TraceError, match="exceeds trace length"):
            apply_events(flat_trace(10, 1), [EventSpec(0, 8, 12, Pollutant.CO, 2.0)])

    def test_events_csv_roundtrip(self, tmp_path):
        events = draw_events(960, 3, 96, rate_per_zone_day=2.0, rng_seed=9)
        path = tmp_path / "events.csv"
        write_events_csv(events, str(path))
        assert load_events_csv(str(path)) == events

    def test_events_csv_bad_header(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("zone,start,end,pollutant,magnitude\n")
        with pytest.raises(TraceError, match="expected header"):
            load_events_csv(str(path))

    def test_events_csv_bad_row(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("zone_id,start_round,end_round,pollutant,magnitude\n0,a,b,PM25,2.0\n")
        with pytest.raises(TraceError, match="line 2"):
            load_events_csv(str(path))


class TestContentHash:
    def test_equal_content_equal_hash(self):
        a = flat_trace(5, 2)
        b = flat_trace(5, 2)
        assert a.content_hash() == b.content_hash()

    def test_value_change_changes_hash(self):
        a = flat_trace(5, 2)
        b = flat_trace(5, 2)
        b.values[3, 1, 2] += 1e-9
        assert a.content_hash() != b.content_hash()

    def test_events_change_hash(self):
        a = flat_trace(5, 2)
        b = flat_trace(5, 2)
        b.events.append(EventSpec(0, 0, 2, Pollutant.CO, 2.0))
        assert a.content_hash() != b.content_hash()


class TestBuildRoundTrace:
    def test_length_matches_config(self):
        cfg = SimConfig(n_zones=2, rounds=96, round_minutes=15)
        hourly = generate_synthetic(cfg, rng_seed=3)
        rounds = build_round_trace(cfg, hourly)
        assert rounds.n_rounds == 96
        assert np.array_equal(rounds.values[::4], hourly.values[:24])

    def test_events_are_applied(self):
        cfg = SimConfig(n_zones=2, rounds=96, round_minutes=15)
        hourly = generate_synthetic(cfg, rng_seed=3)
        ev = EventSpec(0, 10, 20, Pollutant.PM25, 3.0)
        plain = build_round_trace(cfg, hourly)
        boosted = build_round_trace(cfg, hourly, [ev])
        pi = POLLUTANTS.index(Pollutant.PM25)
        assert np.allclose(boosted.values[10:20, 0, pi], plain.values[10:20, 0, pi] * 3.0)
        assert boosted.events == [ev]

    def test_hourly_trace_with_events_rejected(self):
        # the hourly window [10, 12) would raise rounds 37-47 on the 15-minute grid
        cfg = SimConfig(n_zones=2, rounds=96, round_minutes=15)
        hourly = apply_events(generate_synthetic(cfg, rng_seed=3), [EventSpec(0, 10, 12, Pollutant.CO, 4.0)])
        with pytest.raises(TraceError, match="hourly traces carry no events"):
            build_round_trace(cfg, hourly)

    def test_unknown_event_zone_rejected(self):
        cfg = SimConfig(n_zones=2, rounds=96, round_minutes=15)
        hourly = generate_synthetic(cfg, rng_seed=3)
        with pytest.raises(TraceError, match=r"zone ids the trace lacks: \[7\]"):
            build_round_trace(cfg, hourly, [EventSpec(7, 10, 20, Pollutant.CO, 3.0)])

    def test_zone_ids_become_positional(self):
        cfg = SimConfig(n_zones=2, rounds=96, round_minutes=15)
        hourly = generate_synthetic(cfg, rng_seed=3)
        labelled = TraceSet(values=hourly.values, zone_ids=(5, 9))
        rounds = build_round_trace(cfg, labelled, [EventSpec(9, 10, 20, Pollutant.CO, 3.0)])
        assert rounds.zone_ids == (0, 1)
        assert rounds.events == [EventSpec(1, 10, 20, Pollutant.CO, 3.0)]
        want = build_round_trace(cfg, hourly, [EventSpec(1, 10, 20, Pollutant.CO, 3.0)])
        assert np.array_equal(rounds.values, want.values)

    @settings(max_examples=15)
    @given(labels=st.lists(st.integers(-1000, 1000), min_size=3, max_size=3, unique=True))
    def test_relabelling_zones_leaves_runs_unchanged(self, labels):
        cfg = SimConfig(n_zones=3, nodes_per_zone=2, rounds=48, round_minutes=60, seed=5)
        hourly = generate_synthetic(cfg, rng_seed=5)
        events = draw_events(cfg.rounds, cfg.n_zones, cfg.rounds_per_day, rate_per_zone_day=2.0, rng_seed=5)
        relabelled = TraceSet(values=hourly.values, zone_ids=tuple(labels))
        moved = [EventSpec(labels[ev.zone_id], ev.start_round, ev.end_round, ev.pollutant, ev.magnitude)
                 for ev in events]
        base = build_round_trace(cfg, hourly, events)
        other = build_round_trace(cfg, relabelled, moved)
        for kind in POLICY_ORDER:
            a = run_simulation(cfg, base, kind)
            b = run_simulation(cfg, other, kind)
            assert stable_json(a.to_dict()) == stable_json(b.to_dict())
            assert compute_run_metrics(a) == compute_run_metrics(b)
