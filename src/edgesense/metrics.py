"""Evaluation metrics and cross-policy comparison.

The headline numbers per policy: average daily energy per node (mAh/day),
detection rate (fraction of injected events detected), and the projected
network lifetime in days at that spend rate. Relative columns are measured
against the always-on static baseline.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass, fields
from operator import attrgetter

from ._util import check_json, json_kind, stable_json
from .core import MINUTES_PER_DAY
from .engine import RunResult

BASELINE_POLICY = "static"
COMPARISON_FORMAT = "edgesense-comparison/1"


def lifetime_estimate(battery_capacity: float, daily_energy: float) -> float:
    """Projected days until a node at the average spend rate empties its
    battery, rounded half away from zero. Zero spend means no horizon, and
    so does a horizon beyond the float range. Takes a spend of at least 0."""
    days = battery_capacity / daily_energy if daily_energy else math.inf
    return float(math.floor(days + 0.5)) if days < math.inf else math.inf


def percent_change(value: float, baseline: float) -> float:
    """Signed percent change of value relative to a nonzero baseline."""
    return (value - baseline) / baseline * 100.0


@dataclass
class RunMetrics:
    """Headline metrics for one simulated run."""

    policy: str
    seed: int
    rounds: int
    days: float
    n_nodes: int
    total_spent: float
    avg_daily_energy: float       # mAh per node per day, dead nodes counted
    n_events: int
    n_detected: int
    detection_rate: float | None  # None when the trace carried no events
    lifetime: float               # days, inf when nothing was spent
    first_death_day: int | None
    median_death_day: float | None
    mean_selected_per_round: float


def compute_run_metrics(run: RunResult) -> RunMetrics:
    cfg = run.config
    rounds_per_day = MINUTES_PER_DAY // int(cfg["round_minutes"])
    days = run.n_rounds / rounds_per_day
    n = run.n_nodes
    avg_daily = run.total_spent / (n * days) if days > 0 else 0.0
    n_events = len(run.events)
    n_detected = sum(run.event_detected)
    death_days = [int(r) // rounds_per_day + 1 for r in run.death_round if r >= 0]
    return RunMetrics(
        policy=run.policy,
        seed=run.seed,
        rounds=run.n_rounds,
        days=days,
        n_nodes=n,
        total_spent=run.total_spent,
        avg_daily_energy=avg_daily,
        n_events=n_events,
        n_detected=n_detected,
        detection_rate=(n_detected / n_events) if n_events else None,
        lifetime=lifetime_estimate(float(cfg["battery_capacity"]), avg_daily),
        first_death_day=min(death_days) if death_days else None,
        median_death_day=float(statistics.median(death_days)) if death_days else None,
        mean_selected_per_round=float(run.n_selected.mean()) if run.n_rounds else 0.0,
    )


@dataclass
class PolicySummary:
    """One policy's metrics aggregated over seeds, plus columns relative to
    the static baseline (None when static was not part of the comparison;
    energy and lifetime ones also when static spent nothing)."""

    policy: str
    n_seeds: int
    energy_mean: float
    energy_std: float
    detection_mean: float | None
    detection_std: float | None
    lifetime: float               # from the mean daily energy
    energy_reduction_pct: float | None
    detection_delta_pp: float | None
    lifetime_extension_pct: float | None
    first_death_day: int | None   # earliest across seeds
    mean_selected_per_round: float


# Each record kind's fields and the JSON key each is saved under, in output
# order: the comparison JSON, its loader's type check, the per-seed CSV and
# the score-floor sweep read them. A run's rounds, days, node count and
# total spend are not saved. A lifetime is inf in memory and null in JSON.
SUMMARY_KEYS = dict(
    policy="policy", n_seeds="n_seeds", energy_mean="avg_daily_energy_mAh", energy_std="avg_daily_energy_std",
    detection_mean="detection_rate", detection_std="detection_rate_std", lifetime="lifetime_days",
    energy_reduction_pct="energy_reduction_pct", detection_delta_pp="detection_delta_pp",
    lifetime_extension_pct="lifetime_extension_pct", first_death_day="first_death_day",
    mean_selected_per_round="mean_selected_per_round",
)
PER_RUN_KEYS = dict(
    policy="policy", seed="seed", avg_daily_energy="avg_daily_energy_mAh", detection_rate="detection_rate",
    lifetime="lifetime_days", n_events="n_events", n_detected="n_detected", first_death_day="first_death_day",
    median_death_day="median_death_day", mean_selected_per_round="mean_selected_per_round",
)


@dataclass
class Comparison:
    config: dict
    trace_hash: str
    seeds: tuple[int, ...]
    summaries: list[PolicySummary]
    per_run: list[RunMetrics]

    def summary_for(self, policy: str) -> PolicySummary:
        for s in self.summaries:
            if s.policy == policy:
                return s
        raise KeyError(f"no summary for policy {policy!r}")


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = float(statistics.fmean(values))
    std = float(statistics.stdev(values)) if len(values) >= 2 else 0.0
    return mean, std


def compare(runs: list[RunResult], policy_order: list[str] | None = None) -> Comparison:
    """Aggregate runs (policies x seeds) into one comparison table.

    All runs must share a trace (verified by content hash) and a config;
    otherwise the numbers would not be comparable and this raises.
    """
    if not runs:
        raise ValueError("compare needs at least one run")
    hashes = {r.trace_hash for r in runs}
    if len(hashes) > 1:
        raise ValueError(f"runs mix {len(hashes)} different traces; comparison requires one shared trace")
    configs = {stable_json(r.config) for r in runs}
    if len(configs) > 1:
        raise ValueError("runs mix different configs; comparison requires one shared config")

    per_run = [compute_run_metrics(r) for r in runs]
    by_policy: dict[str, list[RunMetrics]] = {}
    for m in per_run:
        by_policy.setdefault(m.policy, []).append(m)
    if policy_order is None:
        policy_order = list(by_policy)

    capacity = float(runs[0].config["battery_capacity"])
    summaries: list[PolicySummary] = []
    for policy in policy_order:
        group = by_policy.get(policy)
        if not group:
            continue
        energy_mean, energy_std = _mean_std([m.avg_daily_energy for m in group])
        det = [m.detection_rate for m in group if m.detection_rate is not None]
        det_mean, det_std = _mean_std(det) if det else (None, None)
        deaths = [m.first_death_day for m in group if m.first_death_day is not None]
        summaries.append(
            PolicySummary(
                policy=policy,
                n_seeds=len(group),
                energy_mean=energy_mean,
                energy_std=energy_std,
                detection_mean=det_mean,
                detection_std=det_std,
                lifetime=lifetime_estimate(capacity, energy_mean),
                energy_reduction_pct=None,
                detection_delta_pp=None,
                lifetime_extension_pct=None,
                first_death_day=min(deaths) if deaths else None,
                mean_selected_per_round=float(statistics.fmean(m.mean_selected_per_round for m in group)),
            )
        )

    base = next((s for s in summaries if s.policy == BASELINE_POLICY), None)
    if base is not None:
        for s in summaries:
            if s.policy == BASELINE_POLICY:
                s.energy_reduction_pct = 0.0
                s.detection_delta_pp = 0.0 if s.detection_mean is not None else None
                s.lifetime_extension_pct = 0.0
                continue
            if base.energy_mean > 0:
                # static spends nothing when no node can fund an activation
                # or no round is run: then there is no baseline to cut from
                s.energy_reduction_pct = -percent_change(s.energy_mean, base.energy_mean)
            if s.detection_mean is not None and base.detection_mean is not None:
                s.detection_delta_pp = (s.detection_mean - base.detection_mean) * 100.0
            if math.isfinite(s.lifetime) and math.isfinite(base.lifetime) and base.lifetime > 0:
                # extensions quoted from the rounded day counts, matching how
                # the lifetime column itself is reported
                s.lifetime_extension_pct = percent_change(s.lifetime, base.lifetime)

    seeds = tuple(sorted({m.seed for m in per_run}))
    return Comparison(
        config=runs[0].config,
        trace_hash=runs[0].trace_hash,
        seeds=seeds,
        summaries=summaries,
        per_run=per_run,
    )


def _fmt_signed(value) -> str:
    return "n/a" if value is None else f"{value:+.1f}"


def render_text(comp: Comparison) -> str:
    """Human-readable comparison table."""
    headers = [
        "policy", "energy mAh/day", "detection %", "lifetime d",
        "energy cut %", "detection pp", "lifetime ext %",
    ]
    rows = []
    for s in comp.summaries:
        rows.append([
            s.policy,
            f"{s.energy_mean:.1f} ± {s.energy_std:.1f}",
            ("n/a" if s.detection_mean is None
             else f"{s.detection_mean * 100:.1f} ± {(s.detection_std or 0.0) * 100:.1f}"),
            "inf" if math.isinf(s.lifetime) else f"{s.lifetime:.0f}",
            _fmt_signed(s.energy_reduction_pct) if s.policy != BASELINE_POLICY else "baseline",
            _fmt_signed(s.detection_delta_pp) if s.policy != BASELINE_POLICY else "baseline",
            _fmt_signed(s.lifetime_extension_pct) if s.policy != BASELINE_POLICY else "baseline",
        ])
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    lines.append("")
    lines.append(f"seeds: {', '.join(str(s) for s in comp.seeds)}   trace: {comp.trace_hash[:12]}")
    lines.append("detection % is the share of injected events seen by an active sensor in zone.")
    return "\n".join(lines) + "\n"


def _rows(records: list, keys: dict) -> list[list]:
    """Each record's values of the fields keys names, in the order of keys;
    an infinite lifetime reads None."""
    get, life = attrgetter(*keys), list(keys).index("lifetime")
    rows = [list(get(r)) for r in records]
    for row in rows:
        row[life] = None if math.isinf(row[life]) else row[life]
    return rows


def to_json_dict(comp: Comparison) -> dict:
    return {
        "format": COMPARISON_FORMAT,
        "config": comp.config,
        "trace_hash": comp.trace_hash,
        "seeds": list(comp.seeds),
        "policies": [dict(zip(SUMMARY_KEYS.values(), row)) for row in _rows(comp.summaries, SUMMARY_KEYS)],
        "per_run": [dict(zip(PER_RUN_KEYS.values(), row)) for row in _rows(comp.per_run, PER_RUN_KEYS)],
    }


def from_json_dict(d: dict) -> Comparison:
    """Rebuild a Comparison's summaries from to_json_dict output, or raise
    ValueError naming the first field whose JSON type is wrong: the type
    its PolicySummary annotation names, or null for a lifetime, which
    reads as inf. per_run is left empty: the text and summary CSV
    renderers do not read it."""
    check_json([d["policies"]], json_kind("list"), "policies")
    check_json(d["policies"], json_kind("dict"), None, "policies entry")
    for f in fields(PolicySummary):
        key, kind = SUMMARY_KEYS[f.name], json_kind(f"{f.type} | None" if f.name == "lifetime" else f.type)
        check_json([p[key] for p in d["policies"]], kind, key, "policies entry")
    check_json([d["seeds"]], json_kind("list"), "seeds")
    check_json(d["seeds"], json_kind("int"), None, "seeds entry")
    check_json([d["trace_hash"]], json_kind("str"), "trace_hash")
    summaries = [PolicySummary(**{name: p[key] for name, key in SUMMARY_KEYS.items()}) for p in d["policies"]]
    for s in summaries:
        if s.lifetime is None:
            s.lifetime = math.inf
    return Comparison(d["config"], d["trace_hash"], tuple(d["seeds"]), summaries, per_run=[])


def render_json(comp: Comparison) -> str:
    return stable_json(to_json_dict(comp))


def render_summary_csv(comp: Comparison) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")  # None as an empty cell, a float as its repr
    w.writerow([
        "policy", "n_seeds", "avg_daily_energy_mAh", "energy_std",
        "detection_rate", "detection_std", "lifetime_days",
        "energy_reduction_pct", "detection_delta_pp", "lifetime_extension_pct",
    ])
    for s in comp.summaries:
        w.writerow([
            s.policy, s.n_seeds, s.energy_mean, s.energy_std, s.detection_mean, s.detection_std,
            None if math.isinf(s.lifetime) else int(s.lifetime),
            s.energy_reduction_pct, s.detection_delta_pp, s.lifetime_extension_pct,
        ])
    return buf.getvalue()


def render_per_seed_csv(comp: Comparison) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(PER_RUN_KEYS.values())
    life = list(PER_RUN_KEYS).index("lifetime")
    for row in _rows(comp.per_run, PER_RUN_KEYS):
        row[life] = None if row[life] is None else int(row[life])  # whole days, as lifetime_estimate gives them
        w.writerow(row)
    return buf.getvalue()


def render_plot_csv(comp: Comparison) -> str:
    """Tidy long-form table (policy, metric, mean, std) for plotting tools."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["policy", "metric", "mean", "std"])
    for s in comp.summaries:
        w.writerow([s.policy, "avg_daily_energy_mAh", s.energy_mean, s.energy_std])
        if s.detection_mean is not None:
            w.writerow([s.policy, "detection_rate", s.detection_mean, s.detection_std or 0.0])
        if not math.isinf(s.lifetime):
            w.writerow([s.policy, "lifetime_days", s.lifetime, 0.0])
    return buf.getvalue()


def comparison_files(comp: Comparison) -> dict[str, str]:
    """The artifact set of a comparison, file name -> contents."""
    return {
        "summary.txt": render_text(comp),
        "summary.json": render_json(comp),
        "summary.csv": render_summary_csv(comp),
        "per_seed.csv": render_per_seed_csv(comp),
        "plot.csv": render_plot_csv(comp),
    }
