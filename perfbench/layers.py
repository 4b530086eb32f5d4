"""Per-layer timing of edgesense, wrapped from outside the package.

The layers are the package modules. `Tracer.install` replaces the module
(and class) attributes listed in TARGETS with timing wrappers; `restore`
puts the originals back. Nothing under `src/` is instrumented. A target
that no longer exists is skipped, and a layer metric whose targets are all
missing is reported absent rather than as zero.

Each wrapped call is a span. A span's self time is its duration minus the
spans it encloses, and spans inside `run_simulation` are charged to that
run's policy. Busy time counts only the outermost span of a name, so a
wrapped function calling another of the same layer is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict

POLICIES = ("static", "periodic", "ucb", "adaptive")
BUDGETED = ("ucb", "adaptive")
FIXED = ("static", "periodic")

# (span, owner inside the edgesense package, attribute). The engine imports
# its policy functions by name, so they are wrapped where the engine looks
# them up; the CLI imports run_simulation the same way.
TARGETS = [
    ("trace.synth", "trace", "generate_synthetic"),
    ("trace.events", "trace", "draw_events"),
    ("trace.build", "trace", "build_round_trace"),
    ("trace.csv_write", "trace", "write_csv"),
    ("trace.csv_write", "trace", "write_events_csv"),
    ("trace.csv_load", "trace", "load_csv"),
    ("trace.csv_load", "trace", "load_events_csv"),
    ("hierarchy.split", "hierarchy", "zone_interest_weights"),
    ("hierarchy.split", "hierarchy", "scalarize"),
    ("hierarchy.split", "hierarchy", "allocate_budgets"),
    ("policy.score", "engine", "ucb_scores"),
    ("policy.select", "engine", "select_budgeted"),
    ("policy.fixed_select", "engine", "select_static"),
    ("policy.fixed_select", "engine", "select_periodic"),
    ("engine.observe", "engine.ObservationState", "merged"),
    ("engine.observe", "engine.ObservationState", "trend"),
    ("engine.observe", "engine.ObservationState", "evict"),
    ("engine.observe", "engine.ObservationState", "push"),
    ("engine.run", "engine", "run_simulation"),
    ("engine.run", "cli", "run_simulation"),
    ("engine.save", "engine", "save_run"),
    ("engine.load", "engine", "load_run"),
    ("engine.roundlog", "engine", "write_round_log_csv"),
    ("metrics.compare", "metrics", "compare"),
    ("metrics.render", "metrics", "render_text"),
    ("metrics.render", "metrics", "render_json"),
    ("metrics.render", "metrics", "render_summary_csv"),
    ("metrics.render", "metrics", "render_per_seed_csv"),
    ("metrics.render", "metrics", "render_plot_csv"),
    ("metrics.render", "metrics", "to_json_dict"),
    ("cli.comparison", "cli", "run_comparison"),
    ("cli.report", "cli", "main"),  # the benchmark calls cli.main only for `report`
]


# Counters taken from a span's arguments and result: span -> counter -> fn(args, result).
COUNTERS = {
    "policy.select": {
        "candidates": lambda args, res: len(args[0]),
        "admitted": lambda args, res: len(res.selected),
    },
    # one CSV row per trace cell, or per event
    "trace.csv_load": {"csv_rows": lambda args, res: res.values.size if hasattr(res, "values") else len(res)},
    "engine.save": {"run_json_bytes": lambda args, res: os.path.getsize(args[1])},
    "engine.roundlog": {"roundlog_bytes": lambda args, res: os.path.getsize(args[1])},
}


def _policy_of(args, kwargs) -> str:
    kind = kwargs["policy_kind"] if "policy_kind" in kwargs else args[2]
    return getattr(kind, "value", kind)


class Tracer:
    """Span accumulators keyed by (span, policy); policy is None outside runs."""

    def __init__(self, clock):
        self.clock = clock  # span times are read from this
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.runs = defaultdict(int)     # policy -> traced runs
        self.rounds = defaultdict(int)   # policy -> simulated rounds
        self.present: set[str] = set()   # spans with at least one installed target
        self.broken: set[str] = set()    # counters whose hook stopped fitting the API
        self._saved: list[tuple[object, str, object]] = []
        self._children: list[float] = []
        self._depth = defaultdict(int)
        self._policy: str | None = None

    def install(self) -> None:
        for span, owner_path, attr in TARGETS:
            owner = _resolve(owner_path)
            if owner is None or not callable(getattr(owner, attr, None)):
                continue
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original))
            self.present.add(span)

    def restore(self) -> list[str]:
        """Put every original back; return the attributes that did not stay put."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        wrong = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._saved if getattr(o, a) is not orig]
        self._saved.clear()
        return wrong

    def _wrap(self, span, fn):
        counters = COUNTERS.get(span, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_policy = self._policy
            if span == "engine.run":
                self._policy = _policy_of(args, kwargs)
            self._children.append(0.0)
            self._depth[span] += 1
            t0 = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - t0
                enclosed = self._children.pop()
                self._depth[span] -= 1
                policy = self._policy
                self._policy = outer_policy
            key = (span, policy)
            if self._depth[span] == 0:
                self.busy[key] += elapsed
            self.self_s[key] += elapsed - enclosed
            self.calls[key] += 1
            if self._children:
                self._children[-1] += elapsed
            if span == "engine.run":
                self.runs[policy] += 1
                self.rounds[policy] += len(result.logs)
            for name, count in counters.items():
                try:
                    self.counts[(name, policy)] += count(args, result)
                except (AttributeError, IndexError, TypeError, OSError):
                    self.broken.add(name)
            return result

        return wrapper

    def total(self, table, span: str, policy: str | None = None) -> float:
        """Sum of table over span, for one policy's runs or (None) everywhere."""
        return sum(v for (s, p), v in table.items() if s == span and policy in (None, p))


def _resolve(path: str):
    module, _, cls = path.partition(".")
    try:
        owner = importlib.import_module(f"edgesense.{module}")
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


def layer_metrics(tracer: Tracer, n_passes: int, scale: float, overhead_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics from a tracer that saw n_passes traced passes.

    Workload-wide figures are per pass; figures suffixed with a policy are
    per run of that policy. Times are multiplied by scale, the reference
    scale of the traced passes. Returns (name -> (value, unit), names absent).
    """
    t = tracer
    values: dict[str, tuple[float, str]] = {}
    absent: list[str] = []

    def put(name, unit, span, value_fn, counter=None):
        if span not in t.present or counter in t.broken:
            absent.append(name)
        else:
            values[name] = (value_fn() * (scale if unit in ("s", "us") else 1.0), unit)

    def per_pass(table, span):
        return t.total(table, span) / n_passes

    def per_run(table, span, policy):
        return t.total(table, span, policy) / max(t.runs[policy], 1)

    def count(name, policy=None):
        return sum(v for (c, p), v in t.counts.items() if c == name and policy in (None, p))

    for span in ("trace.synth", "trace.events", "trace.build", "trace.csv_write", "trace.csv_load"):
        put(f"{span}_s", "s", span, lambda s=span: per_pass(t.busy, s))
    put("trace.csv_rows", "count", "trace.csv_load", lambda: count("csv_rows") / n_passes, "csv_rows")

    for p in POLICIES:
        put(f"engine.run_s.{p}", "s", "engine.run", lambda p=p: per_run(t.busy, "engine.run", p))
        put(f"engine.loop_self_s.{p}", "s", "engine.run", lambda p=p: per_run(t.self_s, "engine.run", p))
        put(f"engine.us_per_round.{p}", "us", "engine.run",
            lambda p=p: 1e6 * t.total(t.self_s, "engine.run", p) / max(t.rounds[p], 1))
        put(f"engine.observe_s.{p}", "s", "engine.observe", lambda p=p: per_run(t.busy, "engine.observe", p))
        put(f"hierarchy.calls.{p}", "count", "hierarchy.split", lambda p=p: per_run(t.calls, "hierarchy.split", p))
    for p in BUDGETED:
        put(f"hierarchy.split_s.{p}", "s", "hierarchy.split", lambda p=p: per_run(t.busy, "hierarchy.split", p))
        put(f"policy.select_s.{p}", "s", "policy.select", lambda p=p: per_run(t.busy, "policy.select", p))
        put(f"policy.select_calls.{p}", "count", "policy.select", lambda p=p: per_run(t.calls, "policy.select", p))
        put(f"policy.candidates.{p}", "count", "policy.select",
            lambda p=p: count("candidates", p) / max(t.runs[p], 1), "candidates")
        put(f"policy.admitted.{p}", "count", "policy.select",
            lambda p=p: count("admitted", p) / max(t.runs[p], 1), "admitted")
        put(f"policy.admit_ratio.{p}", "ratio", "policy.select",
            lambda p=p: count("admitted", p) / max(count("candidates", p), 1), "candidates")
    put("policy.score_s.ucb", "s", "policy.score", lambda: per_run(t.busy, "policy.score", "ucb"))
    for p in FIXED:
        put(f"policy.fixed_select_s.{p}", "s", "policy.fixed_select",
            lambda p=p: per_run(t.busy, "policy.fixed_select", p))

    for span in ("engine.save", "engine.load", "engine.roundlog", "metrics.compare", "metrics.render"):
        put(f"{span}_s", "s", span, lambda s=span: per_pass(t.busy, s))
    put("engine.run_json_bytes", "B", "engine.save", lambda: count("run_json_bytes") / n_passes, "run_json_bytes")
    put("engine.roundlog_bytes", "B", "engine.roundlog", lambda: count("roundlog_bytes") / n_passes, "roundlog_bytes")
    put("cli.comparison_self_s", "s", "cli.comparison", lambda: per_pass(t.self_s, "cli.comparison"))
    put("cli.report_s", "s", "cli.report", lambda: per_pass(t.busy, "cli.report"))
    values["tracing.overhead_s"] = (overhead_s, "s")
    return values, absent
