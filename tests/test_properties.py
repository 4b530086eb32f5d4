"""Properties that any correct round loop satisfies, whatever its internals.

Digests pin a run's bytes; these check what a run must mean. Causality: a
round's decisions depend only on the rounds before it, so a shorter run is
a prefix of a longer one on the same trace.
"""

import numpy as np
import pytest

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
