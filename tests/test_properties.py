"""Properties that any correct round loop satisfies, whatever its internals.

Digests pin a run's bytes; these check what a run must mean. Causality: a
round's decisions depend only on the rounds before it, so a shorter run is
a prefix of a longer one on the same trace. A fixed schedule is one run
whatever the blocks of rounds it is computed in, and periodic with every
round on duty is static. Static reads every node it can fund, so until a
node dies a budgeted policy reads a subset of what static reads. A
budgeted selection is fundable and fits its budget. Without reading noise,
static's feedback is the trace's alone, whatever the run seed. Detection is
what a replay of the round logs finds. With one zone, the per-zone budget
split is the fleet-wide budget. At the edges of a valid config every
policy runs without a float warning and keeps its budgets finite. A run's
record loads as that run and saves again as the same bytes. Its
edgesense-run/1 record no longer loads once a derived entry is swapped for
an equal value of another JSON type, and neither record loads once an
input entry is swapped for a value of a wrong type or outside its
column's range.
"""

import base64
import dataclasses
import math
import os
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import mark_detections, run_record_v1
from test_run_digests import run_digest

from edgesense import engine
from edgesense.core import (
    MAX_ENERGY_COST,
    MAX_NOISE_SIGMA,
    MAX_PERIODIC_PERIOD,
    MAX_REWARD_WEIGHT,
    MAX_UCB_C,
    MIN_ENERGY_COST,
    POLLUTANTS,
    SimConfig,
    validate_config,
)
from edgesense.engine import RunResult, run_simulation
from edgesense.policy import POLICY_ORDER
from edgesense.trace import EventSpec, build_round_trace, draw_events, generate_synthetic

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
def test_fixed_schedules_are_one_run_whatever_the_block_size(cfg):
    traces = fixed_world_traces(cfg)
    # one round a block, whole days, and 7-round blocks, which divide no day
    rows = [cfg.n_nodes * r for r in (1, cfg.rounds_per_day, 7)]
    for policy in ("static", "periodic"):
        with mock.patch.object(engine, "FIXED_BLOCK_ROWS", rows[0]):
            by_round = run_simulation(cfg, traces, policy)
        for block_rows in rows[1:]:
            with mock.patch.object(engine, "FIXED_BLOCK_ROWS", block_rows):
                assert_same_run(run_simulation(cfg, traces, policy), by_round)
    always_on = run_simulation(cfg.replace(periodic_duty=cfg.periodic_period), traces, "periodic")
    assert_same_run(always_on, run_simulation(cfg, traces, "static"))


@given(cfg=fixed_worlds())
def test_charging_a_block_at_once_is_charging_it_round_by_round(cfg):
    # 40 and 150 mAh batteries die inside blocks, 21600 mAh never do; with
    # survive false every block charges its rounds one by one. In 1-round
    # blocks every death lands on a block's last activation.
    traces = fixed_world_traces(cfg)
    for policy in ("static", "periodic"):
        for block_rows in (cfg.n_nodes, engine.FIXED_BLOCK_ROWS):
            with mock.patch.object(engine, "FIXED_BLOCK_ROWS", block_rows):
                with mock.patch.object(engine._RunState, "survive", lambda self, k: False):
                    by_round = run_simulation(cfg, traces, policy)
                assert_same_run(run_simulation(cfg, traces, policy), by_round)


SPEND_SLACK = 1e-9  # perfbench's: a re-summed spend may differ in the last bits


@st.composite
def budgeted_worlds(draw):
    """A small world, its battery drained inside the horizon or not, with
    and without the per-zone split."""
    return SimConfig(
        n_zones=draw(st.integers(1, 3)),
        nodes_per_zone=draw(st.integers(1, 5)),
        rounds=draw(st.integers(1, 150)),
        round_minutes=draw(st.sampled_from([15, 30, 60])),
        budget_fraction=draw(st.sampled_from([0.1, 0.4, 0.65, 0.9])),
        battery_capacity=draw(st.sampled_from([20.0, 60.0, 21600.0])),
        hierarchy=draw(st.booleans()),
        seed=draw(st.integers(0, 3)),
    )


@settings(max_examples=30)
@given(cfg=budgeted_worlds(), policy=st.sampled_from(["ucb", "adaptive"]))
def test_until_a_node_dies_static_reads_a_superset(cfg, policy):
    traces = fixed_world_traces(cfg)
    static = run_simulation(cfg, traces, "static")
    budgeted = run_simulation(cfg, traces, policy)
    deaths = static.death_round[static.death_round >= 0]
    # a node that dies in round t was still read in round t
    last = int(deaths.min()) if deaths.size else cfg.rounds - 1
    for want, got in zip(static.logs[:last + 1], budgeted.logs):
        assert set(got.selected.tolist()) <= set(want.selected.tolist())


@settings(max_examples=30)
@given(cfg=budgeted_worlds(), policy=st.sampled_from(["ucb", "adaptive"]))
def test_budgeted_selections_are_fundable_and_fit_their_budget(cfg, policy):
    run = run_simulation(cfg, fixed_world_traces(cfg), policy)
    assert run.max_budget_violation == 0
    pulls = np.zeros(run.n_nodes, dtype=np.int64)
    for lg in run.logs:
        assert lg.spent <= lg.budget_total + SPEND_SLACK
        # each selected node can pay for this activation out of what is left
        assert np.all((pulls[lg.selected] + 1) * run.energy_cost[lg.selected] <= cfg.battery_capacity)
        pulls[lg.selected] += 1
    assert np.array_equal(pulls, run.activation_counts)


EDGE_WORLD = SimConfig(n_zones=2, nodes_per_zone=3, rounds=40)


@pytest.fixture(scope="module")
def edge_traces():
    return fixed_world_traces(EDGE_WORLD)


def just_inside(lo, hi):
    """The floats next to the bounds of the open interval (lo, hi)."""
    return [math.nextafter(lo, hi), math.nextafter(hi, lo)]


@st.composite
def edge_settings(draw):
    """EDGE_WORLD with each field validate_config bounds at its default, its
    lower edge or its upper edge; an open bound's edge is the float just
    inside it."""
    period = draw(st.sampled_from([5, 1, MAX_PERIODIC_PERIOD]))
    alpha, beta = draw(st.sampled_from([(1.0, 0.5), (0.0, 0.0), (MAX_REWARD_WEIGHT, MAX_REWARD_WEIGHT)]))
    return EDGE_WORLD.replace(
        budget_fraction=draw(st.sampled_from([0.65, math.nextafter(0.0, 1.0), 1.0])),
        eta=draw(st.sampled_from([0.1, *just_inside(0.0, 1.0)])),
        alpha=alpha,
        beta=beta,
        ucb_c=draw(st.sampled_from([1.0, 0.0, MAX_UCB_C])),
        score_floor=draw(st.sampled_from([0.12, 0.0, math.inf])),
        detect_threshold=draw(st.sampled_from([0.5, *just_inside(0.0, 1.0)])),
        periodic_period=period,
        periodic_duty=draw(st.sampled_from([min(4, period), 0, period])),
        battery_capacity=draw(st.sampled_from([21600.0, math.nextafter(0.0, 1.0), math.inf])),
        noise_sigma=draw(st.sampled_from([0.05, 0.0, MAX_NOISE_SIGMA])),
        energy_cost_range=draw(st.sampled_from([(0.75, 1.75), (MIN_ENERGY_COST, MIN_ENERGY_COST),
                                                (MAX_ENERGY_COST, MAX_ENERGY_COST), (MIN_ENERGY_COST, MAX_ENERGY_COST)])),
        hierarchy=draw(st.booleans()),
    )


@settings(max_examples=150)
@given(cfg=edge_settings())
# every node admitted: the admitted costs re-added in another order than
# admission subtracts them round past the budget here, by 1.8e-15
@example(cfg=EDGE_WORLD.replace(budget_fraction=1.0, hierarchy=False, seed=12))
def test_every_policy_runs_at_the_edges_of_a_valid_config(edge_traces, cfg):
    # the rules in policy and hierarchy do not check their arguments: what
    # validate_config lets through must keep every budget finite and fitting
    assert validate_config(cfg) == []
    for policy in POLICY_ORDER:
        run = run_simulation(cfg, edge_traces, policy)
        assert np.all((0 <= run.budget) & (run.budget < math.inf)), policy
        assert run.max_budget_violation == 0, policy


@given(cfg=fixed_worlds())
def test_without_noise_static_feedback_does_not_depend_on_the_seed(cfg):
    # a full battery: no node of a horizon this short dies, whatever its cost
    cfg = cfg.replace(noise_sigma=0.0, battery_capacity=21600.0)
    traces = fixed_world_traces(cfg)
    one, other = (run_simulation(cfg, traces, "static", seed=s) for s in (cfg.seed, cfg.seed + 1))
    assert not np.array_equal(one.energy_cost, other.energy_cost)
    for a, b in zip(one.logs, other.logs):
        assert a.selected.tobytes() == b.selected.tobytes()
        assert a.feedback.tobytes() == b.feedback.tobytes()
        assert a.detected_event_ids == b.detected_event_ids


@st.composite
def event_worlds(draw):
    """A small world, its battery drained so zones go dark or not, and a
    trace longer than the run whose events are drawn by hand: long and
    overlapping windows, some of them still live when the horizon ends."""
    cfg = SimConfig(
        n_zones=draw(st.integers(1, 3)),
        nodes_per_zone=draw(st.integers(1, 5)),
        rounds=draw(st.integers(1, 120)),
        round_minutes=draw(st.sampled_from([15, 30, 60])),
        budget_fraction=draw(st.sampled_from([0.1, 0.4, 0.9])),
        battery_capacity=draw(st.sampled_from([20.0, 60.0, 21600.0])),
        detect_threshold=draw(st.sampled_from([0.05, 0.3, 0.6])),
        seed=draw(st.integers(0, 3)),
    )
    trace_rounds = cfg.rounds + draw(st.integers(0, 30))
    events = []
    for _ in range(draw(st.integers(0, 8))):
        start = draw(st.integers(0, trace_rounds - 1))
        events.append(EventSpec(
            zone_id=draw(st.integers(0, cfg.n_zones - 1)),
            start_round=start,
            end_round=draw(st.integers(start + 1, trace_rounds)),
            pollutant=draw(st.sampled_from(POLLUTANTS)),
            magnitude=draw(st.sampled_from([1.5, 3.0, 8.0])),
        ))
    world = cfg.replace(rounds=trace_rounds)
    traces = build_round_trace(world, generate_synthetic(world, rng_seed=cfg.seed), events)
    return cfg, traces


@settings(max_examples=60)
@given(world=event_worlds())
def test_detections_are_what_a_replay_of_the_logs_finds(world):
    cfg, traces = world
    for policy in POLICY_ORDER:
        run = run_simulation(cfg, traces, policy)
        flags, first = mark_detections(run)
        assert (run.event_detected, run.event_detect_round) == (flags, first)
        for lg in run.logs:
            assert lg.detected_event_ids == tuple(i for i, t in enumerate(first) if t == lg.round_index)


@settings(max_examples=20)
@given(cfg=budgeted_worlds(), policy=st.sampled_from(["ucb", "adaptive"]))
def test_with_one_zone_the_split_is_the_fleet_budget(cfg, policy):
    cfg = cfg.replace(n_zones=1, nodes_per_zone=cfg.nodes_per_zone * 3)
    traces = fixed_world_traces(cfg)
    split, whole = (run_simulation(cfg.replace(hierarchy=h), traces, policy) for h in (True, False))
    assert [lg.budget_total for lg in split.logs] == [lg.budget_total for lg in whole.logs]
    assert run_digest(split) == run_digest(whole)


@settings(max_examples=50)
@given(cfg=st.one_of(fixed_worlds(), budgeted_worlds()))
def test_a_record_loads_as_the_run_it_was_saved_from(cfg):
    # deaths inside fixed blocks, budgeted rounds that select nobody, the
    # split on and off: the loader rebuilds every field bit for bit, from
    # what save_run writes and from the /1 record, and the run saves again
    # as the bytes it was loaded from
    traces = fixed_world_traces(cfg)
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "run.json")
        for policy in POLICY_ORDER:
            run = run_simulation(cfg, traces, policy)
            engine.save_run(run, path)
            with open(path, "rb") as fh:
                saved = fh.read()
            for loaded in (engine.load_run(path), engine.run_from_dict(run_record_v1(run))):
                for field in dataclasses.fields(RunResult):
                    got, want = getattr(loaded, field.name), getattr(run, field.name)
                    if isinstance(want, np.ndarray):
                        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), \
                            field.name
                    else:
                        assert repr(got) == repr(want), field.name
                engine.save_run(loaded, path)
                with open(path, "rb") as fh:
                    assert fh.read() == saved, policy


def retyped(value):
    """The value of the other JSON type that equals value (an int for a
    bool, a float for an int, an int for a whole float), else None."""
    if type(value) is bool:
        return int(value)
    if type(value) is int:
        return float(value)
    return int(value) if value.is_integer() else None


def derived_entries(record):
    """Each derived entry of a run record as (field, holder, index or key)."""
    for key in ("n_budgeted_selections", "max_budget_violation", "total_spent"):
        yield key, record, key
    for key in ("zone_of", "activation_counts", "final_battery", "death_round", "event_detect_round", "event_detected"):
        yield from ((key, record[key], i) for i in range(len(record[key])))
    for r in record["rounds"]:
        yield from ((key, r, key) for key in ("round", "spent", "mean_reward", "budget"))
        yield from (("detected", r["detected"], i) for i in range(len(r["detected"])))


@settings(max_examples=25)
@given(cfg=st.one_of(fixed_worlds(), budgeted_worlds()), data=st.data())
def test_a_derived_entry_of_another_json_type_does_not_load(cfg, data):
    # unit costs and a reward of -1 a read node make every spend, charge and
    # mean reward a whole number, which an int can equal
    cfg = cfg.replace(energy_cost_range=(1.0, 1.0), alpha=0.0, beta=1.0)
    traces = fixed_world_traces(cfg)
    for policy in POLICY_ORDER:
        record = run_record_v1(run_simulation(cfg, traces, policy))
        slots = {}
        for key, holder, at in derived_entries(record):
            if retyped(holder[at]) is not None:
                slots.setdefault(key, []).append((holder, at))
        # a budgeted run's budgets are its split's, and only a detection is listed
        assert set(slots) >= {key for key, _, _ in derived_entries(record)} - {"budget", "detected"}, policy
        for key, entries in slots.items():
            holder, at = entries[data.draw(st.integers(0, len(entries) - 1), label=f"{policy} {key}")]
            value, holder[at] = holder[at], retyped(holder[at])
            with pytest.raises(ValueError) as err:
                engine.run_from_dict(record)
            message = str(err.value)
            assert f"has {key} " in message or message.startswith(f"{key} is "), message
            holder[at] = value


def input_columns(record):
    """Each input column of a /1 run record that the loader checks entry by
    entry, as (key, subject, entries, JSON types, range or None), an entry
    being (i, holder, index or key) with i what an error names it by: its
    node or event, or its round for selected, feedback and budget."""
    cfg, rounds, events = record["config"], record["rounds"], record["events"]
    n, finite = cfg["n_zones"] * cfg["nodes_per_zone"], (-sys.float_info.max, sys.float_info.max)
    for key in ("energy_cost", "final_utilities", "final_ucb_means"):
        bounds = tuple(cfg["energy_cost_range"]) if key == "energy_cost" else finite
        yield key, "node", [(i, record[key], i) for i in range(n)], {int, float}, bounds
    for key, types, bounds in (("selected", {int}, (0, n - 1)), ("feedback", {int, float}, (0, 1))):
        yield key, "round", [(t, r[key], k) for t, r in enumerate(rounds) for k in range(len(r[key]))], types, bounds
    yield "budget", "round", [(t, r, "budget") for t, r in enumerate(rounds)], {int, float}, (0, finite[1])
    for key, types, bounds in (("zone_id", {int}, (0, cfg["n_zones"] - 1)), ("start_round", {int}, None),
                               ("end_round", {int}, None), ("magnitude", {int, float}, finite)):
        yield key, "event", [(i, e, key) for i, e in enumerate(events)], types, bounds


@settings(max_examples=40)
@given(cfg=st.one_of(fixed_worlds(), budgeted_worlds()), policy=st.sampled_from(POLICY_ORDER), data=st.data())
def test_a_bad_input_entry_is_named_by_its_place_and_column(cfg, policy, data):
    record = run_record_v1(run_simulation(cfg, fixed_world_traces(cfg), policy))
    key, subject, entries, types, bounds = data.draw(st.sampled_from([c for c in input_columns(record) if c[2]]))
    i, holder, at = data.draw(st.sampled_from(entries), label=key)
    bad = ["0.5", True, None, [0.5], math.nan]  # another JSON type, or NaN
    if bounds is not None:  # past the float range, or just outside the column's range
        lo, hi = bounds
        bad += [10 ** 400, *((lo - 1, hi + 1) if types == {int} else
                             (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)))]
    holder[at] = data.draw(st.sampled_from(bad), label="value")
    with pytest.raises(ValueError) as err:
        engine.run_from_dict(record)
    assert str(err.value).startswith(f"{subject} {i} has {key} "), str(err.value)


@settings(max_examples=40)
@given(cfg=st.one_of(fixed_worlds(), budgeted_worlds()), policy=st.sampled_from(POLICY_ORDER), data=st.data())
def test_a_bad_column_entry_is_named_as_in_the_v1_record(cfg, policy, data):
    # the decoded columns of a /2 record go through the checks a /1 record's
    # rounds do: a value outside its column's range fails with the message
    # the same value fails with in the /1 record
    run = run_simulation(cfg, fixed_world_traces(cfg), policy)
    record, v1 = run.to_dict(), run_record_v1(run)
    bad = {"selected": [-1, cfg.n_zones * cfg.nodes_per_zone], "budget": [math.nan, math.inf, -5e-324],
           "feedback": [math.nan, -math.inf, math.nextafter(1.0, 2.0)]}
    keys = [key for key in bad if key in record and len(record[key])]
    assume(keys)  # a fixed schedule that selects nobody stores no entry to spoil
    key = data.draw(st.sampled_from(keys))
    values = np.frombuffer(base64.b64decode(record[key]), engine.COLUMNS[key]).copy()
    at = data.draw(st.integers(0, len(values) - 1), label="entry")
    values[at] = data.draw(st.sampled_from(bad[key]), label="value")
    record[key] = base64.b64encode(values.tobytes()).decode("ascii")
    t = at if key == "budget" else int(np.searchsorted(np.cumsum(run.n_selected), at, side="right"))
    if key == "budget":
        v1["rounds"][t]["budget"] = values[at].item()
    else:
        v1["rounds"][t][key][at - int(run.n_selected[:t].sum())] = values[at].item()
    messages = []
    for spoilt in (record, v1):
        with pytest.raises(ValueError) as err:
            engine.run_from_dict(spoilt)
        messages.append(str(err.value))
    assert messages[0] == messages[1] and messages[0].startswith(f"round {t} has {key} "), messages
