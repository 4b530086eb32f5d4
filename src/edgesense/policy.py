"""Sensor-activation policies.

Four selection rules share one vocabulary: a score per candidate node,
an optional per-round energy budget, and a greedy budgeted selector.
Static and periodic ignore learning entirely. The bandit policy ranks by
a UCB index per unit energy and always fills its budget. The adaptive
policy ranks by learned utility per unit energy and additionally applies
a score floor, so it may deliberately leave budget unspent.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class PolicyKind(str, enum.Enum):
    STATIC = "static"
    PERIODIC = "periodic"
    UCB = "ucb"
    ADAPTIVE = "adaptive"

    @classmethod
    def from_name(cls, name: str) -> "PolicyKind":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown policy {name!r} (valid: {valid})") from None


POLICY_ORDER = [PolicyKind.STATIC, PolicyKind.PERIODIC, PolicyKind.UCB, PolicyKind.ADAPTIVE]

INITIAL_UTILITY = 1.0  # optimistic start so every node gets tried early


@dataclass
class BudgetedSelection:
    """Outcome of one round of budgeted admission over every cluster: the
    admitted node ids (int64), cluster by cluster and each cluster's in
    admission order, and the energy cost admitted in each cluster."""

    selected: np.ndarray
    cluster_cost: np.ndarray


def reward(info_gain, energy_cost, alpha: float, beta: float):
    """Sensing reward: information gain weighted against energy spent.
    Scalars or arrays (elementwise)."""
    return alpha * info_gain - beta * energy_cost


def normalized_payoff(info_gain, energy_cost, alpha: float, beta: float, max_energy: float):
    """Map the reward onto [0, 1] with the affine map fixed by (alpha, beta,
    max fleet energy cost) at run start. A degenerate span (alpha = beta = 0)
    maps every payoff to 0. Scalars or arrays (elementwise)."""
    span = alpha + beta * max_energy
    if span <= 0:
        return 0.0
    return (reward(info_gain, energy_cost, alpha, beta) + beta * max_energy) / span


def update_utility(utility, feedback, eta: float):
    """Exponential moving average of feedback, which must already lie in
    [0, 1] (feedback_proxy guarantees it); the result then stays in [0, 1].
    Scalars or arrays (elementwise). Takes eta in (0, 1]."""
    return (1.0 - eta) * utility + eta * feedback


# Fleets of more than WIDE_FLEET nodes admit through the vectorized kernel,
# smaller ones through the per-candidate scan. Kernel time over scan time per
# call, on rounds captured from 2880-round ucb and adaptive runs with zones of
# 10-50 nodes (2-vCPU x86 VM): 1.55 at 40 nodes, 1.15 at 100, 1.10 at 120,
# 1.02 at 150, 1.00-1.03 at 160, 0.96-0.99 at 180, 0.87-0.95 at 200, 0.8 at
# 300 and 0.45 at 1000. The crossover lies between 160 and 180 nodes.
WIDE_FLEET = 160


def select_budgeted(
    candidates,
    scores,
    costs,
    budgets,
    score_floor: float = 0.0,
) -> BudgetedSelection:
    """Greedy budgeted selection with skip, for every cluster of a round.

    The fleet's nodes form len(budgets) clusters of equal width laid out as
    contiguous id blocks, and cluster k may spend budgets[k], which must be
    finite and non-negative. candidates holds the ids of the nodes that may
    be admitted at all; scores and costs hold one entry per fleet node,
    every cost positive. In each cluster the nodes are scanned in
    score-descending order (ties by ascending node id); a candidate is
    admitted if its score reaches the floor and its cost fits the cluster's
    remaining budget. A candidate that does not fit is skipped without
    ending the scan, so cheaper lower-ranked candidates can still use the
    leftover budget. The selected count is whatever the budget allows, never
    a fixed quota.

    The input size picks one of two exact implementations. A fleet of at
    most WIDE_FLEET nodes is scanned candidate by candidate in Python. A
    wider one takes a vectorized kernel: a running subtraction of the
    costs in scan order finds the prefix the scan admits before its first
    skip, and only the later candidates that fit what the prefix left are
    scanned in Python. Both subtract and add the same floats in the same
    order, so they admit the same ids and report the same costs.
    """
    scores = np.asarray(scores, dtype=np.float64)
    costs = np.asarray(costs, dtype=np.float64)
    n, n_clusters = costs.size, len(budgets)
    width = n // n_clusters
    eligible = np.zeros(n, dtype=bool)
    eligible[np.asarray(candidates, dtype=np.int64)] = True
    eligible &= scores >= score_floor
    # an ineligible node costs +inf, so it never fits
    fit_cost = costs.copy()
    fit_cost[~eligible] = math.inf
    # stable sort of the negated scores: descending, lower id first on ties
    order = (-scores.reshape(n_clusters, width)).argsort(axis=1, kind="stable")
    order += np.arange(0, n, width, dtype=np.int64)[:, None]
    if n > WIDE_FLEET:
        return _admit_wide(order, fit_cost[order], budgets)
    # once the remaining budget is below the cheapest cost nothing else fits
    cheapest = float(costs.min()) if n else math.inf
    selected: list[int] = []
    admit = selected.append
    cluster_cost: list[float] = []
    for ids, cost, budget in zip(order.tolist(), fit_cost[order].tolist(), budgets):
        total = 0.0
        remaining = budget
        for node_id, c in zip(ids, cost):
            if c <= remaining:
                admit(node_id)
                total += c
                remaining -= c
                if remaining < cheapest:
                    break
        cluster_cost.append(total)
    return BudgetedSelection(np.array(selected, dtype=np.int64), np.array(cluster_cost))


def _admit_wide(order: np.ndarray, cost: np.ndarray, budgets) -> BudgetedSelection:
    """select_budgeted's kernel for wide fleets: order holds each cluster's
    node ids in scan order, cost their costs (+inf if ineligible)."""
    n_clusters, width = cost.shape
    rows = np.arange(n_clusters)
    # row k is [budgets[k], costs in scan order, +inf]: the running
    # subtraction repeats the scan's `remaining -= c`, and a cost fits
    # exactly when subtracting it leaves a non-negative remainder
    row = np.empty((n_clusters, width + 2))
    row[:, 0] = budgets
    row[:, 1:-1] = cost
    row[:, -1] = math.inf
    remaining = np.subtract.accumulate(row, axis=1)
    # the scan admits every candidate before the first that does not fit;
    # the +inf guard makes sure there is one
    prefix = (remaining < 0).argmax(axis=1) - 1
    left = remaining[rows, prefix]
    # with 0 in front, the running sum repeats the scan's `total += c`
    row[:, 0] = 0.0
    total = np.add.accumulate(row[:, :-1], axis=1)[rows, prefix]
    admitted = np.arange(width) < prefix[:, None]
    # past the prefix, only candidates that fit what it left can be admitted
    tail_k, tail_j = np.nonzero(cost <= left[:, None])
    past = tail_j > prefix[tail_k]
    if past.any():
        tail_k, tail_j = tail_k[past], tail_j[past]
        left, total = left.tolist(), total.tolist()
        for k, j, c in zip(tail_k.tolist(), tail_j.tolist(), cost[tail_k, tail_j].tolist()):
            if c <= left[k]:
                admitted[k, j] = True
                total[k] += c
                left[k] -= c
        total = np.array(total)
    return BudgetedSelection(order[admitted], total)


def select_static(node_ids) -> np.ndarray:
    """Activate every supplied (alive) node: their ids as int64. A fixed
    schedule has no energy cap, so costs do not enter the choice."""
    return np.asarray(node_ids, dtype=np.int64)


def select_periodic(node_ids, round_index: int, period: int, duty: int) -> np.ndarray:
    """Duty-cycled activation with per-node phase stagger: the ids (int64,
    in the order given) of the nodes n with (round + n) mod period < duty.
    Costs do not enter the choice, as in select_static. Takes a period of
    at least 1 and a duty in [0, period]."""
    ids = np.asarray(node_ids, dtype=np.int64)
    return ids[(round_index + ids) % period < duty]


def ucb_scores(means, counts, energy_cost, round_index: int, c: float) -> np.ndarray:
    """Cost-normalized UCB index per node: (mean + c * sqrt(2 ln t / count))
    / E, +inf for untried nodes so every node is sampled before any
    exploitation; round_index t is 1-based and every cost positive."""
    counts = np.asarray(counts, dtype=np.float64)
    costs = np.asarray(energy_cost, dtype=np.float64)
    bonus = c * np.sqrt(2.0 * math.log(round_index) / np.maximum(counts, 1.0))
    index = np.where(counts > 0, np.asarray(means, dtype=np.float64) + bonus, np.inf)
    return index / costs
