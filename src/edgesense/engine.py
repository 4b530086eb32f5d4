"""Simulation engine: one policy, one fleet, one trace, round by round.

Each round the engine derives per-zone activation budgets, lets the policy
pick nodes, charges their batteries, synthesizes noisy readings for the
activated nodes only, turns readings into deviation feedback against an
observed baseline and feeds learning policies. The run's round record is
kept as columns (RunResult). Event detection is scored once the loop is
done, in one pass over them: no selection, budget or learning step reads it.

Determinism: every random draw comes from a stream keyed by (seed,
purpose), and a run draws its reading noise from it in sequence, a fixed
block per round with per-node draws positional inside it, whatever was
selected (_NoiseSource). Reordering policies or rerunning cannot shift
anybody's noise.
"""

from __future__ import annotations

import base64
import json
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from functools import partial, reduce
from itertools import chain, zip_longest
from operator import add

import numpy as np

from . import hierarchy as hier
from ._util import atomic_write_chunks, atomic_write_text, check_json, json_kind, json_place, stable_json
from .core import (
    Fleet,
    N_POLLUTANTS,
    STREAM_READING,
    Pollutant,
    SimConfig,
    build_fleet,
    fleet_zones,
    require_valid,
    seed_problem,
    stream,
)
from .policy import (
    INITIAL_UTILITY,
    PolicyKind,
    normalized_payoff,
    reward,
    select_budgeted,
    select_periodic,
    select_static,
    ucb_scores,
    update_utility,
)
from .trace import EventSpec, TraceError, TraceSet, check_values

RUN_FORMAT = "edgesense-run/2"
RUN_FORMATS = ("edgesense-run/1", RUN_FORMAT)  # the records load_run and report read
# a record's per-node lists and round columns, each under its RunResult field's name; a column is stored
# as base64 of its values' little-endian bytes, budget only by a budgeted policy
NODE_INPUTS = ("energy_cost", "final_utilities", "final_ucb_means")
COLUMNS = dict(selected=np.dtype("<i4"), feedback=np.dtype("<f8"), n_selected=np.dtype("<i8"), budget=np.dtype("<f8"))
BUDGETED = (PolicyKind.UCB, PolicyKind.ADAPTIVE)

K_DEVIATION = 1.5            # feedback saturates at this multiple of baseline deviation
FEEDBACK_SCALE_FLOOR = 1e-6  # keeps the deviation ratio finite for near-zero baselines
TREND_WINDOW = 8             # rounds of observed history behind the trend slope

_INT, _NUMBER = json_kind("int")[0], json_kind("float")[0]  # the types a JSON int and a JSON number load as
_FINITE = (-sys.float_info.max, sys.float_info.max)         # the range of a finite float


def sensor_reading(truth, z, noise_sigma: float):
    """Noisy measurements: the true value scaled by (1 + noise_sigma * z) and
    floored at zero, z being standard-normal draws. Scalars or arrays."""
    return np.maximum(0.0, truth * (1.0 + z * noise_sigma))


def feedback_proxy(measured, baseline):
    """Deviation feedback in [0, 1]: how far a measurement sits from its
    baseline, relative to K_DEVIATION times the baseline (floored at
    FEEDBACK_SCALE_FLOOR). Scalars or arrays."""
    scale = np.maximum(baseline, FEEDBACK_SCALE_FLOOR)
    # the ratio is never negative, so capping it at 1 is the whole clip
    return np.minimum(np.abs(measured - baseline) / (K_DEVIATION * scale), 1.0)


def fill_baseline(merged: np.ndarray, current_mean: np.ndarray | None = None) -> np.ndarray:
    """Baseline per (zone, pollutant) from ObservationState.merged(): where a
    channel was never sampled, this round's mean if given, else zero."""
    fallback = 0.0 if current_mean is None else np.where(np.isnan(current_mean), 0.0, current_mean)
    return np.where(np.isnan(merged), fallback, merged)


def _round_starts(n_selected: np.ndarray) -> list[int]:
    """Where each round's entries begin in a run's selected and feedback
    columns, followed by the columns' length."""
    return [0, *np.cumsum(n_selected).tolist()]


def _detections_by_round(event_detect_round) -> dict[int, tuple[int, ...]]:
    """The events first detected in each round that detected any, ascending."""
    by_round: dict[int, tuple[int, ...]] = {}
    for idx, t in enumerate(event_detect_round):
        if t >= 0:
            by_round[t] = by_round.get(t, ()) + (idx,)
    return by_round


@dataclass(frozen=True)
class RoundLog:
    """One round of a run, as RunResult.logs shows it."""

    round_index: int
    selected: np.ndarray          # node ids activated this round
    spent: float                  # mAh drained this round
    feedback: np.ndarray          # deviation feedback per selected node
    detected_event_ids: tuple[int, ...]  # events first detected this round
    mean_reward: float            # mean of alpha*I - beta*E over selected
    budget_total: float           # summed budget across clusters this round


@dataclass
class RunResult:
    config: dict
    policy: str
    seed: int
    trace_hash: str
    # the round record as columns: every round's selected ids in selection
    # order, round after round, with their feedback; then per round
    selected: np.ndarray          # int32 node ids
    feedback: np.ndarray          # float64 deviation feedback, one per selected id
    n_selected: np.ndarray        # int64: how many of the ids are the round's
    spent: np.ndarray             # float64 mAh drained
    budget: np.ndarray            # float64 budget summed across clusters
    mean_reward: np.ndarray       # float64 mean of alpha*I - beta*E over selected
    energy_cost: np.ndarray
    zone_of: np.ndarray
    final_battery: np.ndarray
    activation_counts: np.ndarray
    death_round: np.ndarray       # round a node became unable to fund another activation, -1 if never
    events: list[EventSpec]
    event_detected: list[bool]
    event_detect_round: list[int]  # -1 when undetected
    total_spent: float
    max_budget_violation: float
    n_budgeted_selections: int
    final_utilities: np.ndarray
    final_ucb_means: np.ndarray

    @property
    def n_rounds(self) -> int:
        return len(self.n_selected)

    @property
    def logs(self) -> list[RoundLog]:
        """One RoundLog per round, built from the columns on each access;
        its ids and feedback are views into them."""
        starts = _round_starts(self.n_selected)
        detected = _detections_by_round(self.event_detect_round)
        per_round = zip(starts, starts[1:], self.spent.tolist(), self.mean_reward.tolist(), self.budget.tolist())
        return [
            RoundLog(t, self.selected[a:b], spent, self.feedback[a:b], detected.get(t, ()), mean_reward, budget)
            for t, (a, b, spent, mean_reward, budget) in enumerate(per_round)
        ]

    @property
    def n_nodes(self) -> int:
        return len(self.energy_cost)

    def to_dict(self) -> dict:
        """The run as a RUN_FORMAT record: what _build_run takes, nothing it derives."""
        budgeted = PolicyKind.from_name(self.policy) in BUDGETED
        return {
            "format": RUN_FORMAT,
            "config": self.config,
            "policy": self.policy,
            "seed": self.seed,
            "trace_hash": self.trace_hash,
            "events": [asdict(ev) for ev in self.events],
            **{key: getattr(self, key).tolist() for key in NODE_INPUTS},
            **{key: base64.b64encode(getattr(self, key).astype(dtype, copy=False).tobytes()).decode("ascii")
               for key, dtype in COLUMNS.items() if budgeted or key != "budget"},
            **({"max_budget_violation": self.max_budget_violation} if budgeted else {}),
        }


class ObservationState:
    """Trailing statistics over observed (activated) measurements.

    Baseline: flat mean of a zone channel's activated samples over the last
    `window` rounds, falling back to the first observation ever made for
    that channel. Trend: least-squares slope of the observed per-round zone
    means over a short window. Both see only what sensors reported.
    """

    def __init__(self, n_zones: int, window: int):
        self.window = window
        self.ring_sum = np.zeros((window, n_zones, N_POLLUTANTS))
        self.ring_cnt = np.zeros((window, n_zones, N_POLLUTANTS))
        self.win_sum = np.zeros((n_zones, N_POLLUTANTS))
        self.win_cnt = np.zeros((n_zones, N_POLLUTANTS))
        self.first_obs = np.full((n_zones, N_POLLUTANTS), np.nan)
        self.unseen = n_zones * N_POLLUTANTS  # channels without a first observation
        self.tb_values = np.full((TREND_WINDOW, n_zones, N_POLLUTANTS), np.nan)
        self.tb_round = np.full(TREND_WINDOW, -1, dtype=np.int64)
        # NaN cells per trend slot and in the whole trend window
        self.tb_nan = [n_zones * N_POLLUTANTS] * TREND_WINDOW
        self.n_nan = TREND_WINDOW * n_zones * N_POLLUTANTS

    def merged(self) -> np.ndarray:
        """Windowed mean per (zone, pollutant), first observation where the
        window is empty, NaN where the channel was never sampled (only while
        `unseen` is non-zero)."""
        return np.divide(self.win_sum, self.win_cnt, out=self.first_obs.copy(), where=self.win_cnt > 0)

    def trend(self, now: int) -> np.ndarray:
        """Slope per (zone, pollutant) over the trend window, zero when there
        are fewer than two observations."""
        x = (self.tb_round - now).astype(np.float64)
        if self.n_nan == 0:
            # every slot starts as NaN, so no NaN left means a full window
            # with every channel sampled: closed form with scalar x stats
            k = float(TREND_WINDOW)
            sx = x.sum()
            sxx = float(x @ x)
            denom = k * sxx - sx * sx
            sy = self.tb_values.sum(axis=0)
            sxy = np.dot(x, self.tb_values.reshape(TREND_WINDOW, -1)).reshape(sy.shape)
            return (k * sxy - sx * sy) / denom
        valid = ~np.isnan(self.tb_values)
        n = valid.sum(axis=0)
        x3 = x[:, None, None]
        xv = np.where(valid, x3, 0.0)
        yv = np.where(valid, self.tb_values, 0.0)
        sx = xv.sum(axis=0)
        sy = yv.sum(axis=0)
        sxx = (xv * xv).sum(axis=0)
        sxy = (xv * yv).sum(axis=0)
        denom = n * sxx - sx * sx
        out = np.zeros_like(denom)
        np.divide(n * sxy - sx * sy, denom, out=out, where=(n >= 2) & (denom != 0))
        return out

    def evict(self, now: int) -> None:
        """Drop the window entry that is about to fall out (round now-window)."""
        if now >= self.window:
            slot = now % self.window
            self.win_sum -= self.ring_sum[slot]
            self.win_cnt -= self.ring_cnt[slot]

    def push(self, now: int, cur_sum: np.ndarray, cur_cnt: np.ndarray, cur_mean: np.ndarray) -> None:
        """Record the current round: cur_mean must be cur_sum/cur_cnt with
        NaN where cur_cnt is zero."""
        slot = now % self.window
        self.ring_sum[slot] = cur_sum
        self.ring_cnt[slot] = cur_cnt
        self.win_sum += cur_sum
        self.win_cnt += cur_cnt
        if self.unseen:
            fresh = np.isnan(self.first_obs) & (cur_cnt > 0)
            self.first_obs[fresh] = cur_mean[fresh]
            self.unseen -= int(np.count_nonzero(fresh))
        self._push_trend(now, cur_mean)

    def push_day(self, start: int, cur_sum: np.ndarray, cur_cnt: np.ndarray, cur_mean: np.ndarray) -> np.ndarray:
        """evict and push each round of a block that begins at round start
        and ends by the next multiple of window: cur_* hold one row per
        round, as push takes them. Returns, stacked per round, what merged()
        gives after that round's evict. The floats are those of the
        per-round calls: the window sums run through one sequential
        accumulate over the rows [carry, -evicted_0, cur_0, -evicted_1,
        cur_1, ...], and x - y is x + (-y) in IEEE 754. Before the window
        first fills, its ring holds zeros, and adding -0.0 changes nothing."""
        length = len(cur_sum)
        slots = slice(start % self.window, start % self.window + length)
        if slots.stop > self.window:
            raise ValueError(f"a block of {length} rounds from round {start} crosses the end of window {self.window}")
        win_sum = self._run_window(self.win_sum, self.ring_sum[slots], cur_sum)
        win_cnt = self._run_window(self.win_cnt, self.ring_cnt[slots], cur_cnt)
        # the first observations made before each round
        first = np.broadcast_to(self.first_obs, cur_mean.shape).copy()
        if self.unseen:
            seen = cur_cnt > 0
            fresh = np.isnan(self.first_obs) & seen.any(axis=0)
            first_round = seen.argmax(axis=0)
            value = np.take_along_axis(cur_mean, first_round[None], axis=0)[0]
            np.copyto(first, value, where=fresh & (np.arange(length)[:, None, None] > first_round))
            self.first_obs[fresh] = value[fresh]
            self.unseen -= int(np.count_nonzero(fresh))
        merged = np.divide(win_sum[1::2], win_cnt[1::2], out=first, where=win_cnt[1::2] > 0)
        self.ring_sum[slots] = cur_sum
        self.ring_cnt[slots] = cur_cnt
        self.win_sum[...] = win_sum[-1]
        self.win_cnt[...] = win_cnt[-1]
        # only the block's last TREND_WINDOW rounds stay in the trend window
        for i in range(max(0, length - TREND_WINDOW), length):
            self._push_trend(start + i, cur_mean[i])
        return merged

    @staticmethod
    def _run_window(carry: np.ndarray, evicted: np.ndarray, cur: np.ndarray) -> np.ndarray:
        """Running window totals of push_day: row 2i+1 after round i's evict,
        row 2i+2 after its push."""
        rows = np.empty((2 * len(cur) + 1, *carry.shape))
        rows[0] = carry
        np.negative(evicted, out=rows[1::2])
        rows[2::2] = cur
        return np.add.accumulate(rows, axis=0)

    def _push_trend(self, now: int, cur_mean: np.ndarray) -> None:
        tslot = now % TREND_WINDOW
        self.tb_values[tslot] = cur_mean
        self.tb_round[tslot] = now
        # a dark zone brings NaN back into a full window, so count it every round
        n_nan = int(np.count_nonzero(np.isnan(cur_mean)))
        self.n_nan += n_nan - self.tb_nan[tslot]
        self.tb_nan[tslot] = n_nan


class _NoiseSource:
    """Sequential standard-normal source with a fixed (round, node, pollutant)
    layout, drawn in chunks of chunk_rounds rounds. Consumption never depends
    on which nodes were selected, so rival policies under one seed share
    per-node noise. Rounds must be visited in increasing order, below
    `rounds`; no chunk past the one holding round rounds-1 is drawn.

    While the caller consumes one chunk, the next is drawn on a helper
    thread, which numpy fills without holding the GIL. At most one draw is
    in flight and it is awaited before the next starts, so one thread at a
    time uses the generator, in chunk order: the draws are those of a
    sequential source. Use as a context manager; leaving it stops the helper."""

    def __init__(self, seed: int, per_round: int, chunk_rounds: int, rounds: int):
        self._gen = stream(seed, STREAM_READING)
        self._per_round = per_round
        self._chunk = max(1, chunk_rounds)
        self._rounds = rounds
        self._buf: np.ndarray | None = None
        self._base = -1
        self._pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="edgesense-noise")
        self._next: Future | None = self._draw(0)

    def _draw(self, base: int) -> Future | None:
        """Start drawing the chunk that begins at round base, if the run reaches it."""
        if base >= self._rounds:
            return None
        return self._pool.submit(self._gen.standard_normal, self._chunk * self._per_round)

    def rest_of_chunk(self, t: int) -> np.ndarray:
        """The rounds of the chunk holding round t from round t on, one row
        of per_round draws each."""
        base = (t // self._chunk) * self._chunk
        if base != self._base:
            self._buf = self._next.result().reshape(self._chunk, self._per_round)
            self._base = base
            self._next = self._draw(base + self._chunk)
        return self._buf[t - base:]

    def __enter__(self) -> "_NoiseSource":
        return self

    def __exit__(self, *exc) -> None:
        # waits for a draw in flight; no helper thread outlives the source
        self._pool.shutdown(wait=True)


def _reading_step(cfg: SimConfig, values: np.ndarray, noise: _NoiseSource, zone_of: np.ndarray, block: int):
    """The reading step of both loops: read(base, length, rows, unseen,
    window) gives the feedback of each row read in the block of length <=
    block rounds from round base, inside one noise chunk; a budgeted round is
    a block of one. rows: round * n_nodes + node, the round counted from base,
    in round and selection order; unseen: obs.unseen before the block.
    window(cur_sum, cur_cnt, cur_mean) takes the block's [length, zones,
    pollutants] channel sums, counts and means and returns the baselines
    (merged() after each round's evict)."""
    n_zones = cfg.n_zones
    values = values.reshape(-1, N_POLLUTANTS)  # a row per (round, zone) cell
    # each (round, node) position's (round, zone) cell, each cell's flat
    # (round, zone, pollutant) channels, and a block's means where nothing was read
    cell_of = (np.arange(block)[:, None] * n_zones + zone_of).ravel()
    channels = np.arange(block * n_zones * N_POLLUTANTS).reshape(-1, N_POLLUTANTS)
    no_mean = np.full((block, n_zones, N_POLLUTANTS), np.nan)
    # a block's big arrays live until the next block replaces them: freed on return, the
    # heap top went back to the OS and faulted in again (5-10x desk static's page faults)
    cell = eps = truth = measured = keys = bl = None

    def read(base: int, length: int, rows: np.ndarray, unseen: int, window) -> np.ndarray:
        nonlocal cell, eps, truth, measured, keys, bl
        cell = cell_of[rows]
        eps = noise.rest_of_chunk(base).reshape(-1, N_POLLUTANTS).take(rows, axis=0)
        truth = values[base * n_zones:].take(cell, axis=0)
        measured = sensor_reading(truth, eps, cfg.noise_sigma)

        # bincount adds each bin's readings in row order, so a round's sums are
        # the same in any block; without readings it gives integers, hence the casts
        keys = channels.take(cell, axis=0).ravel()
        unread = no_mean[:length]
        cur_sum = np.bincount(keys, measured.ravel(), unread.size).astype(np.float64, copy=False).reshape(unread.shape)
        cur_cnt = np.bincount(keys, None, unread.size).astype(np.float64).reshape(unread.shape)
        cur_mean = np.divide(cur_sum, cur_cnt, out=unread.copy(), where=cur_cnt > 0)

        merged = window(cur_sum, cur_cnt, cur_mean)
        bl = fill_baseline(merged, cur_mean) if unseen else merged  # no NaN once every channel is seen
        bl = bl.reshape(-1, N_POLLUTANTS).take(cell, axis=0)
        # the max of each row, taken over a pollutant-major copy: max is
        # exact, and this is cheaper than a max along short rows
        return np.ascontiguousarray(feedback_proxy(measured, bl).T).max(axis=0)

    return read


def _cannot_fund(pulls, costs, capacity):
    """The battery rule: whether a node with pulls activations cannot fund another."""
    return (pulls + 1) * costs > capacity


def _charge_left(pulls, costs, capacity):
    """The battery rule's remaining charge after pulls activations."""
    return capacity - pulls * costs


class _RunState:
    """What a run carries from round to round: per node, activations,
    fundability and what the policy has learned; the worst budget overspend.
    A node dies once it cannot fund its next activation (_cannot_fund); only
    activations change that, so the candidates (the fundable nodes) change
    only when a node dies. A caller that knows no node can die (survive) may
    add activations to pulls itself; activate charges one round and drops
    the nodes it kills from the candidates."""

    def __init__(self, costs: np.ndarray, capacity: float):
        n = costs.size
        self.costs = costs
        self.capacity = capacity
        self.pulls = np.zeros(n, dtype=np.int64)
        self.fundable = ~_cannot_fund(self.pulls, costs, capacity)
        self._node_ids = np.arange(n, dtype=np.int64)
        # a static block holds cand_ids itself as each round's selection, so
        # it is replaced, never written to
        self.cand_ids = self._node_ids[self.fundable]
        self.utilities = np.full(n, INITIAL_UTILITY)  # adaptive: EMA utility, in [0, 1]
        self.ucb_means = np.zeros(n)                  # bandit: mean normalized payoff
        self.max_violation = 0.0

    def activate(self, sel: np.ndarray, sel_costs: np.ndarray) -> np.ndarray:
        """Charge a round's selection, every node of it fundable, and return
        the selected nodes' activation counts, this round's included."""
        sel_pulls = self.pulls[sel] + 1
        self.pulls[sel] = sel_pulls
        newly_dead = sel[_cannot_fund(sel_pulls, sel_costs, self.capacity)]
        if newly_dead.size:
            self.fundable[newly_dead] = False
            self.cand_ids = self._node_ids[self.fundable]
        return sel_pulls

    def survive(self, k: int) -> bool:
        """Whether every candidate stays fundable through k more activations:
        the death test after the k-th. The test only grows with the pull
        count, so no fewer activations kill a node either."""
        cand = self.cand_ids
        return not _cannot_fund(self.pulls[cand] + k, self.costs[cand], self.capacity).any()


class _Record:
    """A run's round record as its loop writes it, a round or a block of
    rounds at a time: what the loop decided, from which _build_run derives
    the rest. The id and feedback columns are allocated for every node in
    every round, but memory backs only the pages written, and columns()
    gives the rest back in place: a run never holds its record twice."""

    def __init__(self, rounds: int, n: int):
        self._ids = np.empty(rounds * n, dtype=np.int32)
        self._feedback = np.empty(rounds * n)
        self._size = 0
        self.counts, self.budget = [], []

    def write(self, ids, feedback, counts, budget=()) -> None:
        """Append rounds: ids and feedback hold all their entries in round
        order, counts (and a budgeted run's budget) one value per round."""
        end = self._size + ids.size
        self._ids[self._size:end] = ids
        self._feedback[self._size:end] = feedback
        self._size = end
        self.counts += counts
        self.budget += budget

    def columns(self) -> dict:
        """The round columns _build_run takes; the record is spent."""
        # no view of either column is out, but a profiler may hold the bound method
        self._ids.resize(self._size, refcheck=False)
        self._feedback.resize(self._size, refcheck=False)
        return dict(selected=self._ids, feedback=self._feedback, n_selected=np.array(self.counts, dtype=np.int64),
                    budget=np.array(self.budget))


# Most (round, node) rows in a block of _run_fixed or a chunk of _round_sums:
# at 15-minute rounds, whole days up to 83 nodes, 40 rounds at 200, 8 at 1000.
# Time per 2880-round run over the round loop's (which ran wide fleets before),
# static/periodic, median of 11 paired in-process ratios (2-vCPU x86 VM):
#   rows        4000       6000       8000       12000      16000      24000
#   1000 nodes  1.19/1.12  1.11/1.05  1.09/1.01  1.13/0.95  1.15/0.93  1.17/0.93
#   200 nodes   0.66/0.65  0.64/0.64  0.63/0.63  0.64/0.63  0.65/0.63  0.71/0.60
# Wider blocks spill the cache, narrower ones repeat a block's fixed cost.
FIXED_BLOCK_ROWS = 8000


def run_simulation(
    cfg: SimConfig,
    traces: TraceSet,
    policy_kind: PolicyKind | str,
    seed: int | None = None,
) -> RunResult:
    """Simulate one policy over the trace. The per-run seed (defaulting to
    cfg.seed) drives fleet energy costs and sensor noise; the trace itself
    is taken as given so rival policies can share one world.

    A fixed-schedule run (static or periodic) goes in blocks of rounds
    (_run_fixed); ucb and adaptive go round by round (_run_rounds)."""
    require_valid(cfg)
    policy_kind = PolicyKind.from_name(policy_kind) if isinstance(policy_kind, str) else policy_kind
    seed = cfg.seed if seed is None else seed

    if traces.n_zones != cfg.n_zones:
        raise ValueError(f"trace has {traces.n_zones} zones, config expects {cfg.n_zones}")
    if traces.n_rounds < cfg.rounds:
        raise ValueError(f"trace has {traces.n_rounds} rounds, config needs {cfg.rounds}")
    if tuple(traces.zone_ids) != tuple(range(cfg.n_zones)) or any(
        not 0 <= ev.zone_id < cfg.n_zones for ev in traces.events
    ):
        raise TraceError("trace zone ids must be positional (0..Z-1, events included); "
                         "build the trace with build_round_trace")
    check_values(traces.values)

    fleet: Fleet = build_fleet(cfg, seed)
    n = fleet.n_nodes
    costs = fleet.energy_cost
    zone_of = fleet.zone_id.astype(np.int64)
    state = _RunState(costs, cfg.battery_capacity)
    obs = ObservationState(cfg.n_zones, cfg.rounds_per_day)
    events = list(traces.events)

    fixed = policy_kind not in BUDGETED
    block = max(1, min(cfg.rounds_per_day, FIXED_BLOCK_ROWS // n)) if fixed else 1
    record = _Record(cfg.rounds, n)
    with _NoiseSource(seed, n * N_POLLUTANTS, cfg.rounds_per_day, cfg.rounds) as noise:
        read = _reading_step(cfg, traces.values, noise, zone_of, block)
        if fixed:
            _run_fixed(cfg, policy_kind, read, block, state, obs, record)
        else:
            _run_rounds(cfg, policy_kind, read, state, obs, record)
    columns = record.columns()  # shrinks the record before content_hash copies the trace values
    return _build_run(cfg, policy_kind, seed, traces.content_hash(), events, columns, costs, zone_of,
                      state.pulls, state.utilities, state.ucb_means, state.max_violation)


def _build_run(cfg: SimConfig, policy_kind: PolicyKind, seed: int, trace_hash: str, events: list[EventSpec],
               columns: dict, energy_cost: np.ndarray, zone_of: np.ndarray, activation_counts: np.ndarray,
               final_utilities: np.ndarray, final_ucb_means: np.ndarray, max_budget_violation: float) -> RunResult:
    """The one way a RunResult is built, by run_simulation and by the loader:
    from the run's inputs, its round columns (_Record.columns), its
    activation counts, its learner state and its worst budget overspend.
    Derives the rest: each round's spend and mean reward (_round_sums), a
    fixed schedule's budgets and overspend (0.0), each node's remaining
    charge and death round (that of its last activation if the battery rule
    says it cannot fund another, else -1), the total spend, budgeted
    selections and detections."""
    selected, n_selected = columns["selected"], columns["n_selected"]
    spent, mean_reward = _round_sums(cfg, energy_cost, selected, columns["feedback"], n_selected)
    death_round = np.full(len(energy_cost), -1, dtype=np.int64)
    dead = _cannot_fund(activation_counts, energy_cost, cfg.battery_capacity)
    if dead.any():
        rows = np.flatnonzero(dead[selected])
        np.maximum.at(death_round, selected[rows], np.searchsorted(np.cumsum(n_selected), rows, side="right"))
    detected, detect_round = _detect_events(selected, columns["feedback"], n_selected, zone_of, events,
                                            cfg.n_zones, cfg.detect_threshold)
    budgeted = policy_kind in BUDGETED
    return RunResult(
        config=cfg.to_dict(),
        policy=policy_kind.value,
        seed=seed,
        trace_hash=trace_hash,
        # a fixed schedule has no cap: it reports what it spends as its budget
        **dict(columns, spent=spent, budget=columns["budget"] if budgeted else spent, mean_reward=mean_reward),
        energy_cost=energy_cost,
        zone_of=zone_of,
        final_battery=_charge_left(activation_counts, energy_cost, cfg.battery_capacity),
        activation_counts=activation_counts,
        death_round=death_round,
        events=events,
        event_detected=detected,
        event_detect_round=detect_round,
        total_spent=reduce(add, spent.tolist(), 0.0),  # left to right, like a round's budget in _run_rounds
        max_budget_violation=max_budget_violation if budgeted else 0.0,
        # a budgeted policy selects once per cluster a round: a zone, or the whole fleet
        n_budgeted_selections=cfg.rounds * (cfg.n_zones if cfg.hierarchy else 1) if budgeted else 0,
        final_utilities=final_utilities,
        final_ucb_means=final_ucb_means,
    )


def _round_sums(cfg, energy_cost, selected, feedback, n_selected):
    """Each round's spend and mean reward (alpha*I - beta*E), 0.0 for an empty
    round, each the float of that round's own 1-D sum over its selected nodes,
    in chunks of whole rounds of at most FIXED_BLOCK_ROWS entries (or one)."""
    counts, starts, spents, mean_rewards = n_selected.tolist(), _round_starts(n_selected), [], []
    step = max(1, FIXED_BLOCK_ROWS // len(energy_cost))  # no round holds more entries than nodes
    for t in range(0, len(counts), step):
        widths = counts[t:t + step]
        length, width, chunk = len(widths), widths[0], slice(starts[t], starts[t + len(widths)])
        row_costs = energy_cost[selected[chunk]]
        rewards = reward(feedback[chunk], row_costs, cfg.alpha, cfg.beta)
        if width and widths.count(width) == length:
            # a row of a C-contiguous view sums in the order of a 1-D array
            # of its length; np.add.reduceat would sum in another
            spents += row_costs.reshape(length, width).sum(axis=1).tolist()
            mean_rewards += (rewards.reshape(length, width).sum(axis=1) / width).tolist()
        else:
            bounds = _round_starts(widths)
            spents += [float(row_costs[a:b].sum()) if b > a else 0.0 for a, b in zip(bounds, bounds[1:])]
            mean_rewards += [float(rewards[a:b].sum() / (b - a)) if b > a else 0.0 for a, b in zip(bounds, bounds[1:])]
    return np.array(spents), np.array(mean_rewards)


def _run_rounds(cfg, policy_kind, read, state, obs, record):
    """run_simulation's round loop for ucb and adaptive. Writes each round
    to record and leaves the worst budget overspend in state."""
    costs = state.costs
    max_energy = float(costs.max())
    global_budget = cfg.budget_fraction * float(costs.sum())
    # zone context for the budget split: |trend| and level, stacked for one scalarize pass
    context = np.empty((cfg.n_zones, 2, N_POLLUTANTS))
    floor = cfg.score_floor if policy_kind is PolicyKind.ADAPTIVE else 0.0

    def window(cur_sum, cur_cnt, cur_mean):  # round t's: push its sums, give its baseline
        obs.push(t, cur_sum[0], cur_cnt[0], cur_mean[0])
        return merged

    max_violation = 0.0
    for t in range(cfg.rounds):
        obs.evict(t)
        merged = obs.merged()  # may hold NaN while some channel was never sampled

        # hierarchical budget split from observed context only: one budget
        # per zone, or the whole fleet as one cluster
        if cfg.hierarchy:
            np.abs(obs.trend(t), out=context[:, 0])
            context[:, 1] = fill_baseline(merged) if obs.unseen else merged
            trend_level = hier.scalarize(context)
            weights = hier.zone_interest_weights(trend_level[:, 0], trend_level[:, 1])
            budgets = hier.allocate_budgets(global_budget, weights).tolist()
        else:
            budgets = [global_budget]
        # score the fleet once, then admit in every cluster in one call
        if policy_kind is PolicyKind.UCB:
            scores = ucb_scores(state.ucb_means, state.pulls, costs, t + 1, cfg.ucb_c)
        else:
            scores = state.utilities / costs
        res = select_budgeted(state.cand_ids, scores, costs, budgets, floor)
        sel = res.selected
        max_violation = max(max_violation, -min(res.cluster_left.tolist()))

        sel_costs = costs[sel]
        sel_pulls = state.activate(sel, sel_costs)

        feedback = read(t, 1, sel, obs.unseen, window)

        if policy_kind is PolicyKind.ADAPTIVE:
            state.utilities[sel] = update_utility(state.utilities[sel], feedback, cfg.eta)
        else:
            # sel_pulls already counts this round's activation
            payoff = normalized_payoff(feedback, sel_costs, cfg.alpha, cfg.beta, max_energy)
            state.ucb_means[sel] += (payoff - state.ucb_means[sel]) / sel_pulls

        # the round's budget adds the cluster budgets left to right: np.sum
        # adds pairwise, and sum() compensates from Python 3.12 on
        record.write(sel, feedback, [sel.size], [reduce(add, budgets, 0.0)])
    state.max_violation = max_violation


def _run_fixed(cfg, policy_kind, read, block, state, obs, record):
    """run_simulation's loop for static and periodic, in blocks of one to
    block rounds that never cross a day (a noise chunk and a baseline window).
    A fixed schedule never reads the observation state, so only selection goes
    round by round, and the batteries in a block where some node may die
    (_RunState.survive); otherwise its activations are counted once."""
    costs = state.costs
    n, per_day = costs.size, cfg.rounds_per_day
    base = 0
    while base < cfg.rounds:
        length = min(block, per_day - base % per_day, cfg.rounds - base)
        charge_once = state.survive(length)
        sels = []
        for t in range(base, base + length):
            if policy_kind is PolicyKind.STATIC:
                sel = select_static(state.cand_ids)
            else:
                sel = select_periodic(state.cand_ids, t, cfg.periodic_period, cfg.periodic_duty)
            if not charge_once:
                state.activate(sel, costs[sel])
            sels.append(sel)

        # the block's node ids in round order, and their (round, node) positions
        counts = [sel.size for sel in sels]
        rows = np.concatenate(sels)
        if charge_once:
            state.pulls += np.bincount(rows, minlength=n)
        positions = np.repeat(np.arange(0, length * n, n), counts) + rows
        record.write(rows, read(base, length, positions, obs.unseen, partial(obs.push_day, base)), counts)
        base += length


def _detect_events(selected, feedback, n_selected, zone_of, events, n_zones, threshold):
    """Score detections over a finished run's round columns: an event is
    detected in the first round of its window in which a selected node of
    its zone reports feedback of at least the threshold. Returns the
    detected flags and first rounds (-1 when undetected). A round's zone
    peaks are computed once, and only while some event live in it is still
    undetected."""
    detect_round = [-1] * len(events)
    starts = _round_starts(n_selected)
    # the rounds in which some event is live, with the events live in each
    live: dict[int, list[int]] = {}
    for idx, ev in enumerate(events):
        for t in range(ev.start_round, min(ev.end_round, len(n_selected))):
            live.setdefault(t, []).append(idx)
    for t in sorted(live):
        a, b = starts[t], starts[t + 1]
        pending = [idx for idx in live[t] if detect_round[idx] < 0]
        if pending and b > a:
            zone_peak = np.zeros(n_zones)
            np.maximum.at(zone_peak, zone_of[selected[a:b]], feedback[a:b])
            for idx in pending:
                if zone_peak[events[idx].zone_id] >= threshold:
                    detect_round[idx] = t
    return [r >= 0 for r in detect_round], detect_round


def save_run(run: RunResult, path: str) -> None:
    atomic_write_text(path, stable_json(run.to_dict()))


def load_run(path: str) -> RunResult:
    """Rehydrate a RunResult written by save_run, in either of RUN_FORMATS."""
    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    if d.get("format") not in RUN_FORMATS:
        raise ValueError(f"unsupported run format {d.get('format')!r} in {path}")
    return run_from_dict(d)


def run_from_dict(d: dict) -> RunResult:
    """Rebuild a RunResult from a parsed record of RUN_FORMATS, or raise
    ValueError: check each input value (check_json), the structure and the
    config; decode the round columns (a /1 record's from its rounds) and
    check their values alike; build the run as run_simulation does
    (_build_run) and, for a /1 record, require each stored derived field to
    be the rebuilt run's. Absent learner state is the start state."""
    nodes = {"energy_cost": d["energy_cost"], **{k: d[k] for k in NODE_INPUTS[1:] if k in d}}
    seed, trace_hash, policy = d["seed"], d["trace_hash"], PolicyKind.from_name(d["policy"])
    v1, budgeted = d["format"] == RUN_FORMATS[0], policy in BUDGETED
    stored = {"format", "config", "policy", "seed", "trace_hash", "events", *NODE_INPUTS, *COLUMNS,
              "max_budget_violation"} - (set() if budgeted else {"budget", "max_budget_violation"})
    if not v1 and (extra := sorted(set(d) - stored)):
        raise ValueError(f"the record has keys no {policy.value} run stores: {extra}")
    violation = d["max_budget_violation"] if v1 or budgeted else 0.0
    check_json([seed], json_kind("int"), "seed")
    if problem := seed_problem(seed):
        raise ValueError(problem)
    check_json([trace_hash], json_kind("str"), "trace_hash")
    check_json([violation], (_NUMBER, "a finite number >= 0"), "max_budget_violation", bounds=(0, _FINITE[1]))
    config = check_json([d["config"]], json_kind("dict"), "config")[0]
    for f in fields(SimConfig):  # each config value has its field's JSON type: 1 is no bool, 96.0 no int
        key, value = f"config.{f.name}", config[f.name]
        if f.name == "energy_cost_range":  # require_valid bounds both numbers
            if not (type(value) is list and len(value) == 2 and set(map(type, value)) <= _NUMBER):
                raise ValueError(f"{json_place(key)} {value!r}, which is not two numbers")
        else:  # Infinity is a valid float, an int past the float range is not
            check_json([value], json_kind(f.type), key, bounds=(-np.inf, np.inf) if f.type == "float" else None)
    cfg = require_valid(SimConfig(**{f.name: config[f.name] for f in fields(SimConfig)}))
    if len(config) != len(fields(SimConfig)):
        raise ValueError(f"config has keys SimConfig does not know: {sorted(set(config) - set(cfg.to_dict()))}")
    n, (lo, hi) = cfg.n_nodes, cfg.energy_cost_range
    for key, values in nodes.items():
        check_json([values], json_kind("list"), key)
        ranged = key == "energy_cost"
        kind = (_NUMBER, f"a number in energy_cost_range [{lo}, {hi}]" if ranged else "a finite number")
        nodes[key] = check_json(values, kind, key, "node", (lo, hi) if ranged else _FINITE)
        if len(values) != n:
            raise ValueError(f"{key} has {len(values)} entries, the config has {n} nodes")
    raw_events = d["events"]
    check_json([raw_events], json_kind("list"), "events")
    check_json(raw_events, json_kind("dict"), None, "event")
    if v1:  # the columns from the rounds: flat lists of ids and feedback, counts, budgets
        rounds = d["rounds"]
        check_json([rounds], json_kind("list"), "rounds")
        check_json(rounds, json_kind("dict"), None, "round")
        id_lists, feedback_lists = (check_json([r[key] for r in rounds], json_kind("list"), key, "round")
                                    for key in ("selected", "feedback"))
        for t, (nodes_t, feedback_t) in enumerate(zip(id_lists, feedback_lists)):
            if len(feedback_t) != len(nodes_t):
                raise ValueError(f"round {t} has {len(feedback_t)} feedback values for {len(nodes_t)} selected nodes")
        ids, feedback = list(chain.from_iterable(id_lists)), list(chain.from_iterable(feedback_lists))
        n_selected, budget = np.array(list(map(len, id_lists)), dtype=np.int64), [r["budget"] for r in rounds]
    else:
        ids, feedback, n_selected, budget = _v2_columns(d, n, budgeted)
    if len(n_selected) != cfg.rounds:
        raise ValueError(f"config.rounds is {cfg.rounds}, the record has {len(n_selected)} rounds")
    round_of = partial(np.searchsorted, np.cumsum(n_selected), side="right")  # of an entry of the flat columns
    ids = np.asarray(check_json(ids, (_INT, f"a node id in 0..{n - 1}"), "selected", "round", (0, n - 1), round_of),
                     dtype=np.int32)
    # feedback as feedback_proxy gives it, budgets as select_budgeted takes them
    feedback = check_json(feedback, (_NUMBER, "a number in [0, 1]"), "feedback", "round", (0, 1), round_of)
    budget = check_json(budget, (_NUMBER, "a finite number >= 0"), "budget", "round", (0, _FINITE[1]))
    keys = np.sort(np.repeat(np.arange(cfg.rounds) * n, n_selected) + ids)  # round * n + id: a repeat is adjacent
    if (twice := keys[1:][keys[1:] == keys[:-1]]).size:
        raise ValueError(f"{json_place('selected', 'round', twice[0] // n)} node {twice[0] % n} twice")
    counts = np.bincount(ids, minlength=n)
    # a node with count activations could fund the last one only if it could
    # fund another after count - 1
    over = np.flatnonzero((counts > 0) & _cannot_fund(counts - 1, nodes["energy_cost"], cfg.battery_capacity))
    if over.size:
        raise ValueError(f"node {over[0]} is selected {counts[over[0]]} times, more than its battery funds")
    for key, kind, bounds in (("zone_id", (_INT, f"a zone in 0..{cfg.n_zones - 1}"), (0, cfg.n_zones - 1)),
                              ("start_round", json_kind("int"), None), ("end_round", json_kind("int"), None),
                              ("magnitude", (_NUMBER, "a finite number"), _FINITE)):
        check_json([e[key] for e in raw_events], kind, key, "event", bounds)
    events = []
    for idx, e in enumerate(raw_events):
        try:
            events.append(EventSpec(e["zone_id"], e["start_round"], e["end_round"],
                                    Pollutant.from_label(e["pollutant"]), e["magnitude"]))
        except ValueError as exc:  # an unknown pollutant, or a window or magnitude EventSpec rejects
            raise ValueError(f"event {idx}: {exc}") from None
    utilities, ucb_means = (np.asarray(nodes.get(key, [start] * n), dtype=np.float64)
                            for key, start in (("final_utilities", INITIAL_UTILITY), ("final_ucb_means", 0.0)))
    columns = dict(selected=ids, feedback=feedback, n_selected=n_selected, budget=budget)
    run = _build_run(cfg, policy, seed, trace_hash, events, columns, nodes["energy_cost"],
                     fleet_zones(cfg).astype(np.int64), counts, utilities, ucb_means, float(violation))
    if not v1:
        return run
    detected, no_events = {t: list(ids) for t, ids in _detections_by_round(run.event_detect_round).items()}, []
    per_round = dict(round=list(range(cfg.rounds)), spent=run.spent.tolist(), mean_reward=run.mean_reward.tolist(),
                     budget=run.budget.tolist(), detected=[detected.get(t, no_events) for t in range(cfg.rounds)])
    # (subject, key, stored, rebuilt) for each derived field, subject None for one value, to match in value and
    # JSON type; a rebuilt list has one type per depth, so lists that match as wholes match entry by entry
    derived = [*(("node", key, d[key], getattr(run, key).tolist())
                 for key in ("zone_of", "activation_counts", "final_battery", "death_round")),
               *((None, key, [d[key]], [getattr(run, key)])
                 for key in ("n_budgeted_selections", "max_budget_violation")),
               *(("event", key, d[key], getattr(run, key)) for key in ("event_detect_round", "event_detected")),
               *(("round", key, [r[key] for r in rounds], rebuilt) for key, rebuilt in per_round.items()),
               (None, "total_spent", [d["total_spent"]], [run.total_spent])]
    for subject, key, stored, rebuilt in derived:
        if not (stored == rebuilt and _json_types(stored) == _json_types(rebuilt)):
            walk = enumerate(zip_longest(stored, rebuilt)) if type(stored) is list else ()
            idx, got, want = next(((idx, got, want) for idx, (got, want) in walk  # a missing entry reads as None
                                   if not (got == want and _json_types([got]) == _json_types([want]))),
                                  (None, stored, rebuilt))  # no unequal entry: name the field as a whole
            raise ValueError(f"{json_place(key, subject, idx)} {got!r}, the rebuilt run has {want!r}")
    return run


def _v2_columns(d: dict, n: int, budgeted: bool) -> list:
    """A RUN_FORMAT record's round columns in COLUMNS order, decoded to their
    values in native byte order and their lengths checked; a fixed schedule's budget is empty."""
    columns = dict.fromkeys(COLUMNS, np.empty(0))
    for key, dtype in COLUMNS.items():
        if budgeted or key != "budget":
            text = check_json([d[key]], json_kind("str"), key)[0]
            try:
                raw = base64.b64decode(text, validate=True)
            except ValueError as exc:  # binascii.Error, or a character outside ASCII
                raise ValueError(f"{key} is not base64: {exc}") from None
            if len(raw) % dtype.itemsize:
                raise ValueError(f"{key} holds {len(raw)} bytes, not a whole number of {dtype.itemsize}-byte values")
            columns[key] = np.frombuffer(raw, dtype).astype(dtype.newbyteorder("="))
    entries = int(check_json(columns["n_selected"], (_INT, f"a count in 0..{n}"), "n_selected", "round", (0, n)).sum())
    for key, want in (("selected", entries), ("feedback", entries), ("budget", len(columns["n_selected"]) * budgeted)):
        if len(columns[key]) != want:
            raise ValueError(f"{key} has {len(columns[key])} entries, n_selected implies {want}")
    return list(columns.values())


def _json_types(values: list) -> set:
    """The types of a list's entries and, in a list of lists, of theirs."""
    types = set(map(type, values))
    return types | set(map(type, chain.from_iterable(filter(None, values)))) if types == {list} else types


def write_round_log_csv(run: RunResult, path: str) -> None:
    """Write the per-round log as CSV, one row per (round, node), with a
    selected flag so unselected nodes appear with zero spend. run.policy is
    a policy name, which needs no CSV quoting."""
    # every row is the round number and a per-node tail: the idle tails and
    # the active ones up to the feedback column are formatted once
    idle, active = [], []
    for node, (zone, cost) in enumerate(zip(run.zone_of.tolist(), run.energy_cost.tolist())):
        idle.append(f",{run.policy},{zone},{node},0,0.0,\n")
        active.append(f",{run.policy},{zone},{node},1,{cost!r},")

    def chunks():
        # one round at a time, so the whole log is never held in memory
        yield "round,policy,zone,node,selected,spent_mAh,feedback\n"
        for lg in run.logs:
            rows = idle.copy()
            for node, fb in zip(lg.selected.tolist(), lg.feedback.tolist()):
                rows[node] = f"{active[node]}{fb!r}\n"
            r = str(lg.round_index)
            yield r + r.join(rows)

    atomic_write_chunks(path, chunks())
