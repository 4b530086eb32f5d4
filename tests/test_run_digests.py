"""Full-run digests pinned on worlds whose batteries run flat.

Three zones of four nodes over 300 rounds on a 150 mAh battery: nodes die
and zones go dark long after the trend window has filled, so NaN re-enters
the observation state. The round loop takes fast paths while the fleet is
healthy (cached candidate ids, the closed-form trend, skipped baseline
fills); these digests were recorded from the general per-round code, so
every policy must still reproduce it bit for bit once the fast paths stop
applying.

The wide world drains the same battery over four zones of fifty nodes,
more than policy.WIDE_FLEET, so budgeted runs admit through the vectorized
kernel. Its digests were recorded while every fleet size took the
per-candidate scan.

The record pins hash the bytes a drained run is saved as: its run record
JSON, both as the edgesense-run/1 writer (oracles.run_record_v1) spelled it
and as save_run writes it, and its round-log CSV. The digests above hash
what a run decides; these also catch a change in how the record spells it.

The full world gives every node the same cost and the fleet a budget that
funds all of them, so budgeted runs admit every node in every round, in
score order rather than id order. A shortcut that reads a round's noise
rows as they lie when every node reads would hand nodes each other's draws.
"""

import hashlib
import os

import numpy as np
import pytest
from oracles import run_record_v1

from edgesense._util import stable_json
from edgesense.core import SimConfig
from edgesense.engine import TREND_WINDOW, run_simulation, save_run, write_round_log_csv
from edgesense.policy import WIDE_FLEET
from edgesense.trace import build_round_trace, draw_events, generate_synthetic

DRAINED = SimConfig(n_zones=3, nodes_per_zone=4, rounds=300, battery_capacity=150.0)

GOLDEN = {
    ("static", True): "d0a878259d0ff15b9da6804d53bb31b07dc9c63d97ae9ed665ae8fa495463293",
    ("periodic", True): "0bf5c868aa3065f18cf3f9da62e82dff7f9951637a800fa551bae9f7dc7a3517",
    ("ucb", True): "c93eac865a4809e859aaa10d12849d66e1c3e5c29894b95d7b4cdfb99c855bb4",
    ("adaptive", True): "b53175617c1fcd36c49b1224a0761d636cbc9a18e1366bfcdca2e27a1b3e3ee9",
    ("static", False): "d0a878259d0ff15b9da6804d53bb31b07dc9c63d97ae9ed665ae8fa495463293",
    ("periodic", False): "0bf5c868aa3065f18cf3f9da62e82dff7f9951637a800fa551bae9f7dc7a3517",
    ("ucb", False): "5a2b9296f2735f37e4c1f003211aa99572e5c9a64e8c9f5ca5223a6e6c2d0625",
    ("adaptive", False): "844872da97dd6c28510eb1130c41a997ef2ded331de7adf88d65753b533901e5",
}

# sha256 of (the /1 record's stable JSON, the save_run file, the write_round_log_csv file)
RECORD_BYTES = {
    "static": ("6021b6053fad37db37279a9f94b4331bada0617cb8d829f16330487f8411bb62",
               "2638cf09ee4ff81e7bc3fd52b3b45b76c5fd1ee8abe28cc3ff86b45a0a138573",
               "c8875d3f87de817fb3e13fb11a4f32ca7da28dc084b9ed05b166afc155c9bd21"),
    "periodic": ("9b07e88da9961c126152f2410010a90a762a9ba1e959b48f0bb57cafa1415917",
                 "876062c5b8c7ff2bbeaa56eef37f950cbc5b05306c266945337d2755e5a3ed44",
                 "9160b733f1512857baeba94030e0bdd061138ec1506e72da090b790c014e5fb7"),
    "ucb": ("e5364a749fc648f060876a68a7cd7a5c10ba7f550910cc7744586d5bf755e682",
            "c77e6e2eeae2897f06471484fc008eccfde0aad6315e03104f57effaf4eabb65",
            "d46bd69cb72772a084869c927a34ee772a431a8ac86cabf30b5ddcd5dd60226f"),
    "adaptive": ("b787cb7513312313f69a03c19469648bbba2829c75d1796d5d7a0eed7cd0858d",
                 "a5eac70ca6c23562776e51f0dd0af70277aa08e83bdf9fe9bad2572931decd25",
                 "99d8170727bdfdee28de11aa5e17f93d5d60ba7847907334284723166f8ac286"),
}

WIDE = SimConfig(n_zones=4, nodes_per_zone=50, rounds=300, battery_capacity=150.0)

WIDE_GOLDEN = {
    ("static", True): "1862d6cf5ff5397a426f622e859a9578fe103356d30fa02b375d9d78e7bd9e34",
    ("periodic", True): "7cc931013e96e64747203728555772c83647c9d973f12445a86c7df6a2514655",
    ("ucb", True): "e2814d0559115a179551999cd2e24c03bc22a3236c567d5b41c4b2d71b4c8676",
    ("adaptive", True): "56e4336660f7d2b11a48dc60011526e0f2c8c329abfbec9b1b96f3905a9de03f",
    ("static", False): "1862d6cf5ff5397a426f622e859a9578fe103356d30fa02b375d9d78e7bd9e34",
    ("periodic", False): "7cc931013e96e64747203728555772c83647c9d973f12445a86c7df6a2514655",
    ("ucb", False): "c2f064b125cceb5e5da379f230d7be2d8d31a500f92eb0166bf0158dfe208dab",
    ("adaptive", False): "e0c130ba7916527f1c3cddd94afbb4fded1091d40e0696e1594a3a51bf4c948a",
}

FULL = SimConfig(n_zones=2, nodes_per_zone=3, rounds=200, energy_cost_range=(1.0, 1.0), budget_fraction=1.0,
                 hierarchy=False, score_floor=0.0)

FULL_GOLDEN = {
    "ucb": "4f6f768900ef28e5c5a6f18bde5ff7dc3e67b1f89589148f3ef7d62fda6089a3",
    "adaptive": "62df3750f6d8a928a6eb71cb338f36f9c83437163b2f3c079c29ab79b2eb388a",
}


def run_digest(run) -> str:
    """SHA-256 over everything a run decides: per round the admitted ids in
    admission order, their feedback, the spend, budget, mean reward and
    detections; then battery, counts, deaths, learner state and totals."""
    h = hashlib.sha256()

    def put(values, dtype):
        values = np.asarray(values, dtype=dtype)
        h.update(np.int64(values.size).astype("<i8").tobytes())
        h.update(values.astype(dtype).tobytes())

    for lg in run.logs:
        put([lg.round_index], "<i8")
        put(lg.selected, "<i8")
        put(lg.feedback, "<f8")
        put([lg.spent, lg.budget_total, lg.mean_reward], "<f8")
        put(lg.detected_event_ids, "<i8")
    put(run.final_battery, "<f8")
    put(run.activation_counts, "<i8")
    put(run.death_round, "<i8")
    put(run.final_utilities, "<f8")
    put(run.final_ucb_means, "<f8")
    put([run.total_spent, run.max_budget_violation], "<f8")
    put([run.n_budgeted_selections], "<i8")
    put(run.event_detected, "<i8")
    put(run.event_detect_round, "<i8")
    return h.hexdigest()


def build_traces(cfg):
    hourly = generate_synthetic(cfg, rng_seed=cfg.seed)
    events = draw_events(cfg.rounds, cfg.n_zones, cfg.rounds_per_day, rng_seed=cfg.seed)
    return build_round_trace(cfg, hourly, events)


@pytest.fixture(scope="module")
def drained_traces():
    return build_traces(DRAINED)


@pytest.fixture(scope="module")
def wide_traces():
    return build_traces(WIDE)


def check_drained_run(cfg, traces, policy, hierarchy, golden):
    run = run_simulation(cfg.replace(hierarchy=hierarchy), traces, policy)
    # the world must reach what the digests are meant to cover
    assert np.any(run.death_round >= 0)
    dark = [lg.round_index for lg in run.logs if len(set(run.zone_of[lg.selected].tolist())) < cfg.n_zones]
    assert dark and max(dark) > 2 * TREND_WINDOW
    assert run_digest(run) == golden[(policy, hierarchy)]


@pytest.mark.parametrize("policy, hierarchy", list(GOLDEN))
def test_drained_world_reproduces_the_recorded_run(drained_traces, policy, hierarchy):
    check_drained_run(DRAINED, drained_traces, policy, hierarchy, GOLDEN)


@pytest.mark.parametrize("policy, hierarchy", list(WIDE_GOLDEN))
def test_wide_world_reproduces_the_recorded_run(wide_traces, policy, hierarchy):
    assert WIDE.n_zones * WIDE.nodes_per_zone > WIDE_FLEET
    check_drained_run(WIDE, wide_traces, policy, hierarchy, WIDE_GOLDEN)


@pytest.mark.parametrize("policy", list(RECORD_BYTES))
def test_drained_world_saves_the_recorded_bytes(drained_traces, tmp_path, policy):
    run = run_simulation(DRAINED, drained_traces, policy)
    record, round_log = os.path.join(tmp_path, "run.json"), os.path.join(tmp_path, "rounds.csv")
    save_run(run, record)
    write_round_log_csv(run, round_log)
    with open(record, "rb") as fh, open(round_log, "rb") as log:
        saved = fh.read(), log.read()
    assert (hashlib.sha256(stable_json(run_record_v1(run)).encode()).hexdigest(),
            *(hashlib.sha256(content).hexdigest() for content in saved)) == RECORD_BYTES[policy]


@pytest.mark.parametrize("policy", list(FULL_GOLDEN))
def test_full_admission_out_of_id_order_reproduces_the_recorded_run(policy):
    run = run_simulation(FULL, build_traces(FULL), policy)
    # every node reads in every round, mostly in an order other than by id
    assert all(lg.selected.size == FULL.n_nodes for lg in run.logs)
    assert sum(lg.selected.tolist() != sorted(lg.selected.tolist()) for lg in run.logs) > FULL.rounds // 2
    assert run_digest(run) == FULL_GOLDEN[policy]
