"""Simulation engine: one policy, one fleet, one trace, round by round.

Each round the engine derives per-zone activation budgets, lets the policy
pick nodes, charges their batteries, synthesizes noisy readings for the
activated nodes only, turns readings into deviation feedback against an
observed baseline, feeds learning policies, and scores event detections.

Determinism: every random draw comes from a counter-based stream keyed by
(seed, purpose, round), with per-node draws positional inside the round
block. Reordering policies or rerunning cannot shift anybody's noise.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from . import hierarchy as hier
from ._util import atomic_write_text, stable_json
from .core import (
    Fleet,
    N_POLLUTANTS,
    STREAM_READING,
    SimConfig,
    build_fleet,
    require_valid,
    stream,
)
from .policy import (
    PolicyKind,
    PolicyState,
    SelectionResult,
    make_policy_state,
    normalized_payoff,
    reward,
    select_budgeted,
    select_periodic,
    select_static,
    ucb_scores,
    update_utility,
)
from .trace import EventSpec, TraceError, TraceSet, check_values

log = logging.getLogger("edgesense.engine")

RUN_FORMAT = "edgesense-run/1"

K_DEVIATION = 1.5            # feedback saturates at this multiple of baseline deviation
FEEDBACK_SCALE_FLOOR = 1e-6  # keeps the deviation ratio finite for near-zero baselines
TREND_WINDOW = 8             # rounds of observed history behind the trend slope
INITIAL_UTILITY = 1.0        # optimistic start so every node gets tried early


def sensor_reading(truth, z, noise_sigma: float):
    """Noisy measurements: the true value scaled by (1 + noise_sigma * z) and
    floored at zero, z being standard-normal draws. Scalars or arrays."""
    return np.maximum(0.0, truth * (1.0 + z * noise_sigma))


def feedback_proxy(measured, baseline):
    """Deviation feedback in [0, 1]: how far a measurement sits from its
    baseline, relative to K_DEVIATION times the baseline (floored at
    FEEDBACK_SCALE_FLOOR). Scalars or arrays."""
    scale = np.maximum(baseline, FEEDBACK_SCALE_FLOOR)
    return np.clip(np.abs(measured - baseline) / (K_DEVIATION * scale), 0.0, 1.0)


def fill_baseline(merged: np.ndarray, current_mean: np.ndarray | None = None) -> np.ndarray:
    """Baseline per (zone, pollutant) from ObservationState.merged(): where a
    channel was never sampled, this round's mean if given, else zero."""
    fallback = 0.0 if current_mean is None else np.where(np.isnan(current_mean), 0.0, current_mean)
    return np.where(np.isnan(merged), fallback, merged)


@dataclass
class RoundLog:
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
    logs: list[RoundLog]
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
    final_ucb_counts: np.ndarray

    @property
    def n_rounds(self) -> int:
        return len(self.logs)

    @property
    def n_nodes(self) -> int:
        return len(self.energy_cost)

    def to_dict(self) -> dict:
        return {
            "format": RUN_FORMAT,
            "config": self.config,
            "policy": self.policy,
            "seed": self.seed,
            "trace_hash": self.trace_hash,
            "total_spent": self.total_spent,
            "max_budget_violation": self.max_budget_violation,
            "n_budgeted_selections": self.n_budgeted_selections,
            "energy_cost": [float(x) for x in self.energy_cost],
            "zone_of": [int(x) for x in self.zone_of],
            "final_battery": [float(x) for x in self.final_battery],
            "activation_counts": [int(x) for x in self.activation_counts],
            "death_round": [int(x) for x in self.death_round],
            "events": [
                {
                    "zone_id": ev.zone_id,
                    "start_round": ev.start_round,
                    "end_round": ev.end_round,
                    "pollutant": ev.pollutant.value,
                    "magnitude": ev.magnitude,
                }
                for ev in self.events
            ],
            "event_detected": list(self.event_detected),
            "event_detect_round": list(self.event_detect_round),
            "rounds": [
                {
                    "round": lg.round_index,
                    "selected": [int(i) for i in lg.selected],
                    "spent": lg.spent,
                    "feedback": [float(f) for f in lg.feedback],
                    "detected": list(lg.detected_event_ids),
                    "mean_reward": lg.mean_reward,
                    "budget": lg.budget_total,
                }
                for lg in self.logs
            ],
        }


class ObservationState:
    """Trailing statistics over observed (activated) measurements.

    Baseline: flat mean of a zone channel's activated samples over the last
    `window` rounds, falling back to the first observation ever made for
    that channel. Trend: least-squares slope of the observed per-round zone
    means over a short window. Both see only what sensors reported.
    """

    def __init__(self, n_zones: int, window: int, trend_window: int = TREND_WINDOW):
        self.window = window
        self.ring_sum = np.zeros((window, n_zones, N_POLLUTANTS))
        self.ring_cnt = np.zeros((window, n_zones, N_POLLUTANTS))
        self.win_sum = np.zeros((n_zones, N_POLLUTANTS))
        self.win_cnt = np.zeros((n_zones, N_POLLUTANTS))
        self.first_obs = np.full((n_zones, N_POLLUTANTS), np.nan)
        self.trend_window = trend_window
        self.tb_values = np.full((trend_window, n_zones, N_POLLUTANTS), np.nan)
        self.tb_round = np.full(trend_window, -1, dtype=np.int64)

    def merged(self) -> np.ndarray:
        """Windowed mean per (zone, pollutant), first observation where the
        window is empty, NaN where the channel was never sampled."""
        return np.divide(self.win_sum, self.win_cnt, out=self.first_obs.copy(), where=self.win_cnt > 0)

    def trend(self, now: int) -> np.ndarray:
        """Slope per (zone, pollutant) over the trend window, zero when there
        are fewer than two observations."""
        x = (self.tb_round - now).astype(np.float64)
        if self.tb_round.min() >= 0 and not np.isnan(self.tb_values).any():
            # full window, every channel sampled: closed-form with scalar x stats
            k = float(self.trend_window)
            sx = x.sum()
            sxx = float(x @ x)
            denom = k * sxx - sx * sx
            sy = self.tb_values.sum(axis=0)
            sxy = np.tensordot(x, self.tb_values, axes=(0, 0))
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
        fresh = np.isnan(self.first_obs) & (cur_cnt > 0)
        self.first_obs[fresh] = cur_mean[fresh]
        tslot = now % self.trend_window
        self.tb_values[tslot] = cur_mean
        self.tb_round[tslot] = now


class _NoiseSource:
    """Sequential standard-normal source with a fixed (round, node, pollutant)
    layout, prefetched in chunks. Consumption never depends on which nodes
    were selected, so rival policies under one seed share per-node noise.
    Rounds must be visited in increasing order."""

    def __init__(self, seed: int, per_round: int, chunk_rounds: int):
        self._gen = stream(seed, STREAM_READING)
        self._per_round = per_round
        self._chunk = max(1, chunk_rounds)
        self._buf: np.ndarray | None = None
        self._base = -1

    def round_block(self, t: int) -> np.ndarray:
        base = (t // self._chunk) * self._chunk
        if base != self._base:
            self._buf = self._gen.standard_normal(self._chunk * self._per_round)
            self._buf = self._buf.reshape(self._chunk, self._per_round)
            self._base = base
        return self._buf[t - base]


def run_simulation(
    cfg: SimConfig,
    traces: TraceSet,
    policy_kind: PolicyKind | str,
    seed: int | None = None,
) -> RunResult:
    """Simulate one policy over the trace. The per-run seed (defaulting to
    cfg.seed) drives fleet energy costs and sensor noise; the trace itself
    is taken as given so rival policies can share one world."""
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
    capacity = cfg.battery_capacity
    max_energy = float(costs.max())

    pulls = np.zeros(n, dtype=np.int64)
    death_round = np.full(n, -1, dtype=np.int64)
    state: PolicyState = make_policy_state(n, INITIAL_UTILITY)

    node_ids = np.arange(n, dtype=np.int64)
    zone_slices = [
        slice(z * cfg.nodes_per_zone, (z + 1) * cfg.nodes_per_zone) for z in range(cfg.n_zones)
    ]
    global_budget = cfg.budget_fraction * float(costs.sum())
    obs = ObservationState(cfg.n_zones, cfg.rounds_per_day)

    events = list(traces.events)
    detected = [False] * len(events)
    detect_round = [-1] * len(events)
    active_by_round: list[list[int]] = [[] for _ in range(cfg.rounds)]
    for idx, ev in enumerate(events):
        for r in range(ev.start_round, min(ev.end_round, cfg.rounds)):
            active_by_round[r].append(idx)

    logs: list[RoundLog] = []
    total_spent = 0.0
    max_violation = 0.0
    n_budgeted = 0
    values = traces.values
    noise = _NoiseSource(seed, n * N_POLLUTANTS, cfg.rounds_per_day)
    budgeted = policy_kind in (PolicyKind.UCB, PolicyKind.ADAPTIVE)
    cost_l = costs.tolist()

    for t in range(cfg.rounds):
        fundable = (pulls + 1) * costs <= capacity
        obs.evict(t)
        merged = obs.merged()  # may hold NaN for never-sampled channels

        # hierarchical budget split from observed context only:
        # (zone slice, budget) per cluster
        clusters = []
        if budgeted:
            if cfg.hierarchy:
                trends = np.abs(obs.trend(t))
                weights = hier.zone_interest_weights(hier.scalarize(trends), hier.scalarize(fill_baseline(merged)))
                clusters = zip(zone_slices, hier.allocate_budgets(global_budget, weights).tolist())
            else:
                clusters = [(slice(0, n), global_budget)]

        selections: list[SelectionResult] = []
        if policy_kind is PolicyKind.STATIC:
            mask = fundable
            selections.append(select_static(node_ids[mask], costs[mask]))
        elif policy_kind is PolicyKind.PERIODIC:
            mask = fundable
            selections.append(
                select_periodic(node_ids[mask], costs[mask], t, cfg.periodic_period, cfg.periodic_duty)
            )
        else:
            # score the fleet once, then run the shared admission kernel per
            # cluster
            if policy_kind is PolicyKind.UCB:
                scores = ucb_scores(state.ucb_means, state.ucb_counts, costs, t + 1, cfg.ucb_c)
                floor = 0.0
            else:
                scores = state.utilities / costs
                floor = cfg.score_floor
            score_l = scores.tolist()
            fund_l = fundable.tolist()
            for sl, budget in clusters:
                cand = [
                    (i, score_l[i], cost_l[i])
                    for i in range(sl.start, sl.stop)
                    if fund_l[i]
                ]
                res = select_budgeted(cand, budget, floor)
                selections.append(res)
                n_budgeted += 1
                max_violation = max(max_violation, res.total_cost - budget)

        sel = np.concatenate([np.asarray(r.selected, dtype=np.int64) for r in selections]) \
            if selections else np.empty(0, dtype=np.int64)
        spent = float(costs[sel].sum()) if sel.size else 0.0
        budget_total = float(sum(r.budget for r in selections))

        was_fundable = fundable[sel]
        pulls[sel] += 1
        total_spent += spent
        now_dead = (pulls[sel] + 1) * costs[sel] > capacity
        newly_dead = sel[was_fundable & now_dead]
        death_round[newly_dead] = t

        # readings for activated nodes only; the noise layout covers the whole
        # fleet so selection cannot shift anyone else's draws
        eps = noise.round_block(t).reshape(n, N_POLLUTANTS)
        sel_zones = zone_of[sel]
        measured = sensor_reading(values[t][sel_zones, :], eps[sel, :], cfg.noise_sigma)  # [n_sel, P]

        cur_sum = np.zeros((cfg.n_zones, N_POLLUTANTS))
        cur_cnt = np.zeros((cfg.n_zones, N_POLLUTANTS))
        if sel.size:
            np.add.at(cur_sum, sel_zones, measured)
            np.add.at(cur_cnt, sel_zones, 1.0)
        cur_mean = np.divide(cur_sum, cur_cnt, out=np.full_like(cur_sum, np.nan), where=cur_cnt > 0)

        bl = fill_baseline(merged, cur_mean)
        feedback = feedback_proxy(measured, bl[sel_zones, :]).max(axis=1)

        sel_costs = costs[sel]
        if policy_kind is PolicyKind.ADAPTIVE and sel.size:
            state.utilities[sel] = update_utility(state.utilities[sel], feedback, cfg.eta)
        elif policy_kind is PolicyKind.UCB and sel.size:
            state.ucb_counts[sel] += 1
            payoff = normalized_payoff(feedback, sel_costs, cfg.alpha, cfg.beta, max_energy)
            state.ucb_means[sel] += (payoff - state.ucb_means[sel]) / state.ucb_counts[sel]

        mean_reward = float(np.mean(reward(feedback, sel_costs, cfg.alpha, cfg.beta))) if sel.size else 0.0

        newly_detected = []
        if active_by_round[t] and sel.size:
            zone_peak = np.zeros(cfg.n_zones)
            np.maximum.at(zone_peak, sel_zones, feedback)
            for idx in active_by_round[t]:
                if not detected[idx] and zone_peak[events[idx].zone_id] >= cfg.detect_threshold:
                    detected[idx] = True
                    detect_round[idx] = t
                    newly_detected.append(idx)

        obs.push(t, cur_sum, cur_cnt, cur_mean)

        logs.append(
            RoundLog(
                round_index=t,
                selected=sel,
                spent=spent,
                feedback=feedback,
                detected_event_ids=tuple(newly_detected),
                mean_reward=mean_reward,
                budget_total=budget_total,
            )
        )

    return RunResult(
        config=cfg.to_dict(),
        policy=policy_kind.value,
        seed=seed,
        trace_hash=traces.content_hash(),
        logs=logs,
        energy_cost=costs,
        zone_of=zone_of,
        final_battery=capacity - pulls * costs,
        activation_counts=pulls,
        death_round=death_round,
        events=events,
        event_detected=detected,
        event_detect_round=detect_round,
        total_spent=total_spent,
        max_budget_violation=max(0.0, max_violation),
        n_budgeted_selections=n_budgeted,
        final_utilities=state.utilities,
        final_ucb_means=state.ucb_means,
        final_ucb_counts=state.ucb_counts,
    )


def save_run(run: RunResult, path: str) -> None:
    atomic_write_text(path, stable_json(run.to_dict()))


def load_run(path: str) -> RunResult:
    """Rehydrate a RunResult written by save_run."""
    from .core import Pollutant

    with open(path, "r", encoding="utf-8") as fh:
        d = json.load(fh)
    if d.get("format") != RUN_FORMAT:
        raise ValueError(f"unsupported run format {d.get('format')!r} in {path}")
    logs = [
        RoundLog(
            round_index=r["round"],
            selected=np.asarray(r["selected"], dtype=np.int64),
            spent=r["spent"],
            feedback=np.asarray(r["feedback"], dtype=np.float64),
            detected_event_ids=tuple(r["detected"]),
            mean_reward=r["mean_reward"],
            budget_total=r["budget"],
        )
        for r in d["rounds"]
    ]
    events = [
        EventSpec(e["zone_id"], e["start_round"], e["end_round"], Pollutant.from_label(e["pollutant"]), e["magnitude"])
        for e in d["events"]
    ]
    return RunResult(
        config=d["config"],
        policy=d["policy"],
        seed=d["seed"],
        trace_hash=d["trace_hash"],
        logs=logs,
        energy_cost=np.asarray(d["energy_cost"], dtype=np.float64),
        zone_of=np.asarray(d["zone_of"], dtype=np.int64),
        final_battery=np.asarray(d["final_battery"], dtype=np.float64),
        activation_counts=np.asarray(d["activation_counts"], dtype=np.int64),
        death_round=np.asarray(d["death_round"], dtype=np.int64),
        events=events,
        event_detected=list(d["event_detected"]),
        event_detect_round=list(d["event_detect_round"]),
        total_spent=d["total_spent"],
        max_budget_violation=d["max_budget_violation"],
        n_budgeted_selections=d["n_budgeted_selections"],
        final_utilities=np.zeros(len(d["energy_cost"])),
        final_ucb_means=np.zeros(len(d["energy_cost"])),
        final_ucb_counts=np.zeros(len(d["energy_cost"]), dtype=np.int64),
    )


def write_round_log_csv(run: RunResult, path: str) -> None:
    """Stream the per-round log to CSV, one row per (round, node), with a
    selected flag so unselected nodes appear with zero spend."""
    import csv as _csv
    import io

    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["round", "policy", "zone", "node", "selected", "spent_mAh", "feedback"])
    n = run.n_nodes
    for lg in run.logs:
        sel_set = {int(i): k for k, i in enumerate(lg.selected)}
        for node in range(n):
            k = sel_set.get(node)
            if k is None:
                writer.writerow([lg.round_index, run.policy, int(run.zone_of[node]), node, 0, 0.0, ""])
            else:
                writer.writerow(
                    [lg.round_index, run.policy, int(run.zone_of[node]), node, 1,
                     repr(float(run.energy_cost[node])), repr(float(lg.feedback[k]))]
                )
    atomic_write_text(path, buf.getvalue())
