"""Properties that any correct round loop satisfies, whatever its internals.

Digests pin a run's bytes; these check what a run must mean. Causality: a
round's decisions depend only on the rounds before it, so a shorter run is
a prefix of a longer one on the same trace. A fixed schedule is one run
whichever loop computes it: the day-at-a-time path and the round loop give
the same bytes, and periodic with every round on duty is static.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesense import engine
from edgesense.core import SimConfig
from edgesense.engine import run_simulation
from edgesense.policy import POLICY_ORDER
from edgesense.trace import build_round_trace, draw_events, generate_synthetic

# three zones of four nodes on a 150 mAh battery: nodes die and zones go
# dark well inside 600 rounds, 96 rounds (one noise chunk) a day
DRAINED = SimConfig(n_zones=3, nodes_per_zone=4, rounds=600, battery_capacity=150.0)

# around the first chunk boundaries, mid-run, and one short of the full run
PREFIX_ROUNDS = (1, 95, 96, 97, 250, 599)


@pytest.fixture(scope="module")
def drained_traces():
    hourly = generate_synthetic(DRAINED, rng_seed=DRAINED.seed)
    events = draw_events(DRAINED.rounds, DRAINED.n_zones, DRAINED.rounds_per_day, rng_seed=DRAINED.seed)
    return build_round_trace(DRAINED, hourly, events)


@pytest.mark.parametrize("policy", [kind.value for kind in POLICY_ORDER])
def test_a_shorter_run_is_a_prefix_of_a_longer_one(drained_traces, policy):
    full = run_simulation(DRAINED, drained_traces, policy)
    assert np.any(full.death_round >= 0)
    assert any(lg.detected_event_ids for lg in full.logs)
    for rounds in PREFIX_ROUNDS:
        short = run_simulation(DRAINED.replace(rounds=rounds), drained_traces, policy)
        assert short.n_rounds == rounds
        for got, want in zip(short.logs, full.logs):
            assert got.round_index == want.round_index
            assert np.array_equal(got.selected, want.selected)
            assert np.array_equal(got.feedback, want.feedback)
            assert (got.spent, got.budget_total, got.mean_reward) == (want.spent, want.budget_total, want.mean_reward)
            assert got.detected_event_ids == want.detected_event_ids


def assert_same_run(got, want):
    """Every field a run decides, bit for bit (the policy name aside)."""
    assert got.n_rounds == want.n_rounds
    for a, b in zip(got.logs, want.logs):
        assert a.round_index == b.round_index
        assert a.selected.tobytes() == b.selected.tobytes()
        assert a.feedback.tobytes() == b.feedback.tobytes()
        assert (a.spent, a.budget_total, a.mean_reward) == (b.spent, b.budget_total, b.mean_reward)
        assert a.detected_event_ids == b.detected_event_ids
    for name in ("final_battery", "activation_counts", "death_round", "final_utilities", "final_ucb_means"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert (got.total_spent, got.max_budget_violation, got.n_budgeted_selections) == (
        want.total_spent, want.max_budget_violation, want.n_budgeted_selections)
    assert (got.event_detected, got.event_detect_round) == (want.event_detected, want.event_detect_round)


@st.composite
def fixed_worlds(draw):
    """A small world, its battery drained inside the horizon or not, over a
    horizon that ends inside a day, and a periodic schedule."""
    round_minutes = draw(st.sampled_from([15, 20, 30, 60]))
    per_day = 1440 // round_minutes
    rounds = draw(st.integers(0, 2)) * per_day + draw(st.integers(1, per_day - 1))
    period = draw(st.integers(1, 5))
    return SimConfig(
        n_zones=draw(st.integers(1, 3)),
        nodes_per_zone=draw(st.integers(1, 5)),
        rounds=rounds,
        round_minutes=round_minutes,
        periodic_period=period,
        periodic_duty=draw(st.integers(0, period)),
        battery_capacity=draw(st.sampled_from([40.0, 150.0, 21600.0])),
        seed=draw(st.integers(0, 3)),
    )


def fixed_world_traces(cfg):
    events = draw_events(cfg.rounds, cfg.n_zones, cfg.rounds_per_day, rate_per_zone_day=3.0, rng_seed=cfg.seed)
    return build_round_trace(cfg, generate_synthetic(cfg, rng_seed=cfg.seed), events)


@given(cfg=fixed_worlds())
def test_fixed_schedules_are_one_run_on_either_path(cfg):
    traces = fixed_world_traces(cfg)
    for policy in ("static", "periodic"):
        # every fleet here goes a day at a time unless the bound is forced below it
        with mock.patch.object(engine, "FIXED_DAY_FLEET", 0):
            by_round = run_simulation(cfg, traces, policy)
        with mock.patch.object(engine, "FIXED_DAY_FLEET", cfg.n_nodes):
            by_day = run_simulation(cfg, traces, policy)
        assert_same_run(by_day, by_round)
    always_on = run_simulation(cfg.replace(periodic_duty=cfg.periodic_period), traces, "periodic")
    assert_same_run(always_on, run_simulation(cfg, traces, "static"))
