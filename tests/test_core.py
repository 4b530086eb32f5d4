"""Vocabulary types: pollutants, config handling, fleet, streams."""

import math

import numpy as np
import pytest

from edgesense import core
from edgesense.core import (
    ConfigError,
    Pollutant,
    SimConfig,
    build_fleet,
    load_config,
    parse_config_text,
    parse_override,
    require_valid,
    stream,
    validate_config,
)


class TestPollutant:
    def test_six_channels_in_fixed_order(self):
        assert core.N_POLLUTANTS == 6
        assert [p.value for p in core.POLLUTANTS] == ["PM25", "PM10", "CO", "NO2", "O3", "SO2"]

    def test_from_label_roundtrip(self):
        for p in core.POLLUTANTS:
            assert Pollutant.from_label(p.value) is p

    def test_from_label_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown pollutant"):
            Pollutant.from_label("CH4")

    def test_index_matches_order(self):
        for i, p in enumerate(core.POLLUTANTS):
            assert core.POLLUTANT_INDEX[p] == i


class TestConfigValidation:
    def test_defaults_are_valid(self):
        assert validate_config(SimConfig()) == []

    def test_default_values(self):
        cfg = SimConfig()
        assert cfg.n_zones == 20
        assert cfg.nodes_per_zone == 50
        assert cfg.rounds == 2880
        assert cfg.round_minutes == 15
        assert cfg.budget_fraction == 0.65
        assert cfg.eta == 0.1
        assert cfg.score_floor == 0.12
        assert cfg.battery_capacity == 21600.0
        assert cfg.energy_cost_range == (0.75, 1.75)
        assert (cfg.periodic_period, cfg.periodic_duty) == (5, 4)

    def test_every_violation_reported_not_just_first(self):
        cfg = SimConfig(n_zones=0, eta=1.5, budget_fraction=0.0, round_minutes=7)
        problems = validate_config(cfg)
        assert len(problems) == 4
        joined = " ".join(problems)
        for name in ("n_zones", "eta", "budget_fraction", "round_minutes"):
            assert name in joined

    def test_require_valid_raises_with_problem_list(self):
        with pytest.raises(ConfigError) as exc:
            require_valid(SimConfig(n_zones=-1))
        assert exc.value.problems

    def test_round_minutes_must_divide_the_day(self):
        assert validate_config(SimConfig(round_minutes=15)) == []
        assert validate_config(SimConfig(round_minutes=60)) == []
        assert validate_config(SimConfig(round_minutes=7)) != []
        # rounds subdivide the hourly trace, so a divisor of the day is not enough
        for minutes in (45, 90, 120, 360, 1440):
            assert validate_config(SimConfig(round_minutes=minutes)) != []

    def test_seed_must_fit_64_bits(self):
        assert validate_config(SimConfig(seed=0)) == []
        assert validate_config(SimConfig(seed=2 ** 64 - 1)) == []
        for seed in (-1, 2 ** 64):
            assert validate_config(SimConfig(seed=seed)) == [f"seed must be in [0, 2**64), got {seed}"]

    def test_duty_bounded_by_period(self):
        assert validate_config(SimConfig(periodic_period=5, periodic_duty=6)) != []
        assert validate_config(SimConfig(periodic_period=5, periodic_duty=0)) == []

    def test_energy_cost_range_ordering(self):
        assert validate_config(SimConfig(energy_cost_range=(2.0, 1.0))) != []
        assert validate_config(SimConfig(energy_cost_range=(0.0, 1.0))) != []

    def test_bounds_that_keep_the_arithmetic_finite(self):
        edges = [
            ("energy_cost_range", (core.MIN_ENERGY_COST, core.MAX_ENERGY_COST), [(1e-308, 1e-308), (1.0, 1e308)]),
            ("ucb_c", core.MAX_UCB_C, [1e308, math.nan]),
            ("alpha", core.MAX_REWARD_WEIGHT, [1e308, math.nan]),
            ("beta", core.MAX_REWARD_WEIGHT, [1e308, math.nan]),
            ("periodic_period", core.MAX_PERIODIC_PERIOD, [2 ** 63]),
            ("score_floor", math.inf, [math.nan]),
            ("battery_capacity", math.inf, [math.nan]),
        ]
        for name, bound, bad in edges:
            assert validate_config(SimConfig(**{name: bound})) == [], name
            for value in bad:
                problems = validate_config(SimConfig(**{name: value}))
                assert len(problems) == 1 and problems[0].startswith(name), (name, value)

    def test_rounds_per_day(self):
        assert SimConfig(round_minutes=15).rounds_per_day == 96
        assert SimConfig(round_minutes=60).rounds_per_day == 24

    def test_n_nodes(self):
        assert SimConfig(n_zones=4, nodes_per_zone=10).n_nodes == 40

    def test_replace_returns_modified_copy(self):
        base = SimConfig()
        other = base.replace(eta=0.3)
        assert other.eta == 0.3
        assert base.eta == 0.1


CONFIG_TEXT = """
# deployment sizing
n_zones = 4
nodes_per_zone=10   # trailing comment
eta = 0.2
hierarchy = off
energy_cost_range = 0.5, 1.5
"""


class TestConfigParsing:
    def test_parse_known_keys_with_comments(self):
        assert parse_config_text(CONFIG_TEXT) == {
            "n_zones": 4,
            "nodes_per_zone": 10,
            "eta": 0.2,
            "hierarchy": False,
            "energy_cost_range": (0.5, 1.5),
        }

    def test_unknown_key_error_carries_line_number(self):
        with pytest.raises(ConfigError, match=r"<config>:2: unknown config key 'voltage'"):
            parse_config_text("\nvoltage = 3.3\n")

    def test_bad_value_error_carries_source_and_line(self):
        with pytest.raises(ConfigError, match=r"cfg\.txt:1"):
            parse_config_text("eta = fast", source="cfg.txt")

    def test_all_problems_collected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config_text("voltage = 1\nn_zones = many\n")
        assert len(exc.value.problems) == 2

    def test_missing_equals_is_an_error(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config_text("just some words")

    def test_load_config_applies_overrides_over_file(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("n_zones = 4\neta = 0.2\n")
        cfg = load_config(str(path), overrides={"eta": 0.3})
        assert cfg.n_zones == 4
        assert cfg.eta == 0.3

    def test_load_config_validates_result(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("eta = 2.0\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_load_config_without_file_gives_defaults(self):
        assert load_config() == SimConfig()

    def test_parse_override_coerces_types(self):
        assert parse_override("eta=0.25") == ("eta", 0.25)
        assert parse_override("n_zones=8") == ("n_zones", 8)
        assert parse_override("hierarchy=off") == ("hierarchy", False)
        assert parse_override("energy_cost_range=1,2") == ("energy_cost_range", (1.0, 2.0))

    def test_parse_override_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_override("volts=3")

    def test_parse_override_needs_equals(self):
        with pytest.raises(ConfigError):
            parse_override("eta")


class TestFleet:
    def test_zone_partition_is_contiguous(self):
        # zone z owns node ids [z * npz, (z + 1) * npz), which the engine's
        # per-zone slices rely on
        zone_of = build_fleet(SimConfig(n_zones=3, nodes_per_zone=4), seed=1).zone_id
        assert np.flatnonzero(zone_of == 1).tolist() == [4, 5, 6, 7]
        assert np.all(np.diff(zone_of) >= 0)

    def test_costs_deterministic_and_in_range(self):
        cfg = SimConfig(n_zones=2, nodes_per_zone=5, energy_cost_range=(0.75, 1.75))
        a = build_fleet(cfg, seed=3)
        b = build_fleet(cfg, seed=3)
        c = build_fleet(cfg, seed=4)
        assert np.array_equal(a.energy_cost, b.energy_cost)
        assert not np.array_equal(a.energy_cost, c.energy_cost)
        assert a.energy_cost.min() >= 0.75
        assert a.energy_cost.max() <= 1.75
        assert a.n_nodes == 10

    def test_zone_assignment_matches_partition(self):
        fleet = build_fleet(SimConfig(n_zones=3, nodes_per_zone=2), seed=1)
        assert fleet.zone_id.tolist() == [0, 0, 1, 1, 2, 2]


class TestStreams:
    def test_same_key_replays_identically(self):
        a = stream(11, core.STREAM_READING).standard_normal(64)
        b = stream(11, core.STREAM_READING).standard_normal(64)
        assert np.array_equal(a, b)

    def test_purposes_are_independent(self):
        a = stream(11, core.STREAM_FLEET).standard_normal(64)
        b = stream(11, core.STREAM_TRACE).standard_normal(64)
        assert not np.array_equal(a, b)

    def test_seed_changes_draws(self):
        a = stream(1, core.STREAM_READING).standard_normal(8)
        b = stream(2, core.STREAM_READING).standard_normal(8)
        assert not np.array_equal(a, b)
