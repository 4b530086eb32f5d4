"""Output checks: run invariants, a detection oracle, and run digests.

Nothing here trusts the engine's own bookkeeping where it can be recomputed
from the per-round logs. Every check counts as one attempt; failures are
kept with a one-line reason.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

BUDGETED = ("ucb", "adaptive")
SPEND_SLACK = 1e-9  # the selector subtracts costs; a re-summed spend may differ in the last bits


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def _flat_logs(run):
    counts = np.array([len(lg.selected) for lg in run.logs], dtype=np.int64)
    if counts.sum():
        sel = np.concatenate([np.asarray(lg.selected, dtype=np.int64) for lg in run.logs])
        fb = np.concatenate([np.asarray(lg.feedback, dtype=np.float64) for lg in run.logs])
    else:
        sel, fb = np.empty(0, dtype=np.int64), np.empty(0)
    rounds = np.repeat(np.arange(len(run.logs), dtype=np.int64), counts)
    return rounds, sel, fb


def detections(run, threshold: float) -> tuple[list[bool], list[int]]:
    """Oracle: an event is detected in the first round of its window where
    an active sensor in its zone reported feedback >= threshold."""
    rounds, sel, fb = _flat_logs(run)
    n_zones = int(run.zone_of.max()) + 1 if run.n_nodes else 0
    peak = np.full((run.n_rounds, max(n_zones, 1)), -np.inf)
    np.maximum.at(peak, (rounds, run.zone_of[sel]), fb)
    flags, first = [], []
    for ev in run.events:
        window = peak[ev.start_round:min(ev.end_round, run.n_rounds), ev.zone_id]
        hits = np.flatnonzero(window >= threshold)
        flags.append(bool(hits.size))
        first.append(int(ev.start_round + hits[0]) if hits.size else -1)
    return flags, first


def check_run(checks: Checks, run, label: str) -> None:
    """Invariants every run must satisfy, re-derived from its logs."""
    costs = run.energy_cost
    rounds, sel, _ = _flat_logs(run)
    spent = np.array([lg.spent for lg in run.logs])
    resummed = np.array([float(costs[lg.selected].sum()) if len(lg.selected) else 0.0 for lg in run.logs])
    checks.expect(np.array_equal(spent, resummed), f"{label}: a round's spent differs from its selection's cost")
    counts = np.bincount(sel, minlength=run.n_nodes)
    checks.expect(np.array_equal(counts, run.activation_counts), f"{label}: activation counts differ from the logs")
    expected_total = float((run.activation_counts * costs).sum())
    checks.expect(
        math.isclose(run.total_spent, expected_total, rel_tol=1e-9, abs_tol=1e-9),
        f"{label}: total_spent {run.total_spent!r} != sum(counts x cost) {expected_total!r}",
    )
    if run.policy in BUDGETED:
        # The engine reports the worst per-zone overspend; the logs carry only
        # the round budget. A zone's interest weight is 1 + t + l with t, l in
        # [0, 1], so no zone may hold more than 3 / (Z + 2) of it.
        checks.expect(run.max_budget_violation == 0.0, f"{label}: a zone budget was exceeded")
        budget = np.array([lg.budget_total for lg in run.logs])
        checks.expect(bool(np.all(spent <= budget + SPEND_SLACK)), f"{label}: a round overspent its budget")
        n_zones = int(run.zone_of.max()) + 1
        if run.config.get("hierarchy", True) and n_zones > 1:
            per_zone = np.bincount(rounds * n_zones + run.zone_of[sel], weights=costs[sel],
                                   minlength=run.n_rounds * n_zones).reshape(run.n_rounds, n_zones)
            cap = budget * 3.0 / (n_zones + 2) + SPEND_SLACK
            checks.expect(bool(np.all(per_zone <= cap[:, None])),
                          f"{label}: a zone spent more than any zone's budget share allows")
    flags, first = detections(run, run.config["detect_threshold"])
    checks.expect(flags == list(run.event_detected), f"{label}: detection flags differ from the oracle")
    checks.expect(first == list(run.event_detect_round), f"{label}: detection rounds differ from the oracle")


def same_logs(a, b) -> bool:
    if len(a.logs) != len(b.logs):
        return False
    for x, y in zip(a.logs, b.logs):
        if (x.round_index != y.round_index or x.spent != y.spent or x.budget_total != y.budget_total
                or tuple(x.detected_event_ids) != tuple(y.detected_event_ids)
                or x.mean_reward != y.mean_reward
                or not np.array_equal(x.selected, y.selected) or not np.array_equal(x.feedback, y.feedback)):
            return False
    return True


def same_trace(a, b) -> bool:
    return (a.values.dtype == b.values.dtype and a.values.shape == b.values.shape
            and a.values.tobytes() == b.values.tobytes() and tuple(a.zone_ids) == tuple(b.zone_ids))


def digest(run) -> str:
    """Hash of the run's simulation semantics: per round the selected ids
    with their feedback (sorted by id, so a selector that admits the same
    set in another order keeps the digest) and the exact spend; then the
    total, activation counts, death rounds and detection rounds. mean_reward
    and report columns are left out on purpose."""
    h = hashlib.sha256()
    for lg in run.logs:
        sel = np.asarray(lg.selected, dtype=np.int64)
        order = np.argsort(sel, kind="stable")
        h.update(np.int64(sel.size).tobytes())
        h.update(sel[order].astype("<i8").tobytes())
        h.update(np.asarray(lg.feedback, dtype=np.float64)[order].astype("<f8").tobytes())
        h.update(np.float64(lg.spent).astype("<f8").tobytes())
    h.update(np.float64(run.total_spent).astype("<f8").tobytes())
    h.update(np.asarray(run.activation_counts, dtype="<i8").tobytes())
    h.update(np.asarray(run.death_round, dtype="<i8").tobytes())
    h.update(np.asarray(run.event_detect_round, dtype="<i8").tobytes())
    h.update(bytes(bool(f) for f in run.event_detected))
    return h.hexdigest()
