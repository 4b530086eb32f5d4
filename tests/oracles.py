"""Reference implementations the production code is checked against.

These are deliberately slow and literal: a quadratic selection loop, a
dictionary-based trailing window, a scalar UCB index and a per-event
detection replay over the round logs. When a test disagrees with the fast
path, the bug should be easy to localize here.
"""

import math


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


def ucb_index(mean_reward, count, round_index, c):
    """Upper confidence bound index of one node. Untried nodes get +inf so
    every node is sampled before any exploitation; round_index is 1-based."""
    if count == 0:
        return math.inf
    return mean_reward + c * math.sqrt(2.0 * math.log(round_index) / count)


def mark_detections(run, threshold=None):
    """Re-score event detections from a run's logs: an event counts as
    detected if any activated sensor in its zone reported feedback at or
    above the threshold during [start_round, end_round)."""
    threshold = run.config["detect_threshold"] if threshold is None else threshold
    flags = [False] * len(run.events)
    for lg in run.logs:
        for idx, ev in enumerate(run.events):
            if flags[idx] or not (ev.start_round <= lg.round_index < ev.end_round):
                continue
            in_zone = run.zone_of[lg.selected] == ev.zone_id
            if in_zone.any() and lg.feedback[in_zone].max() >= threshold:
                flags[idx] = True
    return flags
