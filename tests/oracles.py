"""Reference implementations the production code is checked against.

These are deliberately slow and literal: a quadratic selection loop, a
dictionary-based trailing window, a point-by-point trend slope, a scalar
UCB index, a per-event detection replay over the round logs and a
round-log CSV written row by row through the csv module. When a test
disagrees with the fast path, the bug should be easy to localize here.

One fixture sits with them: the edgesense-run/1 writer, which the loader
must keep reading and checking.
"""

import csv
import io
import math
from dataclasses import asdict


def naive_budget_selection(candidates, budget, score_floor=0.0):
    """Repeatedly pick the best-scoring candidate that still fits the
    remaining budget, charge it, and continue until nothing fits.

    candidates are (node_id, score, cost) triples; ties go to the lower id.
    Returns the picked ids in admission order.
    """
    pool = [tuple(c) for c in candidates if c[1] >= score_floor]
    chosen = []
    remaining = budget
    while True:
        affordable = [c for c in pool if c[2] <= remaining]
        if not affordable:
            return chosen
        best = min(affordable, key=lambda c: (-c[1], c[0]))
        chosen.append(best[0])
        remaining -= best[2]
        pool.remove(best)


def window_mean(samples_by_round, now, window):
    """Mean of every sample observed in rounds [now - window, now).

    samples_by_round maps round index to a list of values. Returns None when
    the window holds no samples at all.
    """
    values = []
    for r, obs in samples_by_round.items():
        if now - window <= r < now:
            values.extend(obs)
    if not values:
        return None
    return sum(values) / len(values)


def trend_slope(points):
    """Least-squares slope through (x, y) points, one at a time in Python
    floats; 0.0 with fewer than two points or no spread in x."""
    n = len(points)
    if n < 2:
        return 0.0
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    denom = n * sxx - sx * sx
    return 0.0 if denom == 0 else (n * sxy - sx * sy) / denom


def ucb_index(mean_reward, count, round_index, c):
    """Upper confidence bound index of one node. Untried nodes get +inf so
    every node is sampled before any exploitation; round_index is 1-based."""
    if count == 0:
        return math.inf
    return mean_reward + c * math.sqrt(2.0 * math.log(round_index) / count)


def mark_detections(run, threshold=None):
    """Re-score event detections from a run's logs: an event counts as
    detected in the first round of [start_round, end_round) in which an
    activated sensor in its zone reported feedback at or above the
    threshold. Returns the flags and those first rounds (-1 if none)."""
    threshold = run.config["detect_threshold"] if threshold is None else threshold
    flags = [False] * len(run.events)
    first = [-1] * len(run.events)
    for lg in run.logs:
        for idx, ev in enumerate(run.events):
            if flags[idx] or not (ev.start_round <= lg.round_index < ev.end_round):
                continue
            in_zone = run.zone_of[lg.selected] == ev.zone_id
            if in_zone.any() and lg.feedback[in_zone].max() >= threshold:
                flags[idx] = True
                first[idx] = lg.round_index
    return flags, first


def round_log_csv(run):
    """The per-round log as CSV text, one csv.writer row per (round, node):
    selected flag, spend and feedback for activated nodes, zero spend and
    no feedback for the rest."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["round", "policy", "zone", "node", "selected", "spent_mAh", "feedback"])
    for lg in run.logs:
        sel_set = {int(i): k for k, i in enumerate(lg.selected)}
        for node in range(run.n_nodes):
            k = sel_set.get(node)
            if k is None:
                writer.writerow([lg.round_index, run.policy, int(run.zone_of[node]), node, 0, 0.0, ""])
            else:
                writer.writerow(
                    [lg.round_index, run.policy, int(run.zone_of[node]), node, 1,
                     repr(float(run.energy_cost[node])), repr(float(lg.feedback[k]))]
                )
    return buf.getvalue()


# the per-node lists of an edgesense-run/1 record, each under its RunResult field's name
V1_NODE_FIELDS = ("energy_cost", "zone_of", "final_battery", "activation_counts", "death_round", "final_utilities",
                  "final_ucb_means")


def run_record_v1(run):
    """A run as an edgesense-run/1 record: its inputs, every derived field
    and a JSON object per round."""
    return {
        "format": "edgesense-run/1",
        "config": run.config,
        "policy": run.policy,
        "seed": run.seed,
        "trace_hash": run.trace_hash,
        "total_spent": run.total_spent,
        "max_budget_violation": run.max_budget_violation,
        "n_budgeted_selections": run.n_budgeted_selections,
        **{key: getattr(run, key).tolist() for key in V1_NODE_FIELDS},
        "events": [asdict(ev) for ev in run.events],
        "event_detected": list(run.event_detected),
        "event_detect_round": list(run.event_detect_round),
        "rounds": [
            {
                "round": lg.round_index,
                "selected": lg.selected.tolist(),
                "spent": lg.spent,
                "feedback": lg.feedback.tolist(),
                "detected": list(lg.detected_event_ids),
                "mean_reward": lg.mean_reward,
                "budget": lg.budget_total,
            }
            for lg in run.logs
        ],
    }
