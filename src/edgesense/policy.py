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


@dataclass
class SelectionResult:
    """Outcome of one selection pass: node ids in admission order, their
    summed energy cost, and the budget the selector saw. selected is a
    sequence of ints (plain list from the ranked selectors, numpy array
    from the vectorized ones)."""

    selected: "list[int] | np.ndarray"
    total_cost: float
    budget: float

    @property
    def n_selected(self) -> int:
        return len(self.selected)


@dataclass
class PolicyState:
    """Mutable learning state carried across rounds for one policy run."""

    utilities: np.ndarray       # adaptive: EMA utility per node, in [0, 1]
    ucb_means: np.ndarray       # bandit: mean normalized payoff per node
    ucb_counts: np.ndarray      # bandit: activation counts per node


def make_policy_state(n_nodes: int, initial_utility: float = 1.0) -> PolicyState:
    return PolicyState(
        utilities=np.full(n_nodes, initial_utility, dtype=np.float64),
        ucb_means=np.zeros(n_nodes, dtype=np.float64),
        ucb_counts=np.zeros(n_nodes, dtype=np.int64),
    )


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
    Scalars or arrays (elementwise)."""
    if not (0.0 < eta <= 1.0):
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    return (1.0 - eta) * utility + eta * feedback


def select_budgeted(
    candidates,
    budget: float,
    score_floor: float = 0.0,
) -> SelectionResult:
    """Greedy budgeted selection with skip.

    candidates: sequence of (node_id, score, energy_cost) triples, all with
    positive cost. Candidates are scanned in score-descending order (ties by
    ascending node id); each is admitted if its score reaches the floor and
    its cost fits the remaining budget. A candidate that does not fit is
    skipped without ending the scan, so cheaper lower-ranked candidates can
    still use the leftover budget. The selected count is whatever the budget
    allows, never a fixed quota.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    ordered = sorted(candidates, key=lambda c: (-c[1], c[0]))
    selected: list[int] = []
    total = 0.0
    remaining = budget
    for node_id, cand_score, cost in ordered:
        if cand_score < score_floor:
            continue
        if cost <= remaining:
            selected.append(node_id)
            total += cost
            remaining -= cost
    return SelectionResult(selected=selected, total_cost=total, budget=budget)


def select_static(node_ids, energy_cost) -> SelectionResult:
    """Activate every supplied (alive) node. The reported budget is simply
    the summed cost, since this policy has no energy cap."""
    ids = np.asarray(node_ids, dtype=np.int64)
    total = float(np.sum(np.asarray(energy_cost, dtype=np.float64))) if ids.size else 0.0
    return SelectionResult(selected=ids, total_cost=total, budget=total)


def select_periodic(node_ids, energy_cost, round_index: int, period: int, duty: int) -> SelectionResult:
    """Duty-cycled activation with per-node phase stagger: node n is active
    when (round + n) mod period < duty."""
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if not (0 <= duty <= period):
        raise ValueError(f"duty must be in [0, period], got {duty}")
    ids = np.asarray(node_ids, dtype=np.int64)
    costs = np.asarray(energy_cost, dtype=np.float64)
    mask = (round_index + ids) % period < duty
    chosen = ids[mask]
    total = float(costs[mask].sum()) if chosen.size else 0.0
    return SelectionResult(selected=chosen, total_cost=total, budget=total)


def ucb_scores(means, counts, energy_cost, round_index: int, c: float) -> np.ndarray:
    """Cost-normalized UCB index per node: (mean + c * sqrt(2 ln t / count))
    / E, +inf for untried nodes so every node is sampled before any
    exploitation; round_index t is 1-based."""
    if round_index < 1:
        raise ValueError(f"round_index must be >= 1, got {round_index}")
    counts = np.asarray(counts, dtype=np.float64)
    costs = np.asarray(energy_cost, dtype=np.float64)
    if costs.size and costs.min() <= 0:
        raise ValueError("energy costs must be > 0")
    bonus = c * np.sqrt(2.0 * math.log(round_index) / np.maximum(counts, 1.0))
    index = np.where(counts > 0, np.asarray(means, dtype=np.float64) + bonus, np.inf)
    return index / costs
