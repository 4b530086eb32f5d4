"""Command line interface.

Subcommands:
  gen-trace   synthesize an hourly pollutant trace (and an event schedule)
  run         simulate one policy over a trace and print its metrics
  compare     run several policies x seeds over one shared trace
  report      re-render saved comparison or run artifacts

Exit codes: 0 success, 2 bad usage or bad input (config, trace, events),
1 unexpected runtime failure. EDGESENSE_LOG=quiet|info|debug controls
stderr logging (default quiet).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import errno
import json
import logging
import math
import os
import sys
import time

from . import __version__, core, engine, metrics, trace
from ._util import atomic_write_text, stable_json, write_files
from .core import ConfigError, SimConfig
from .engine import RunResult, run_simulation, save_run, write_round_log_csv
from .policy import POLICY_ORDER, PolicyKind
from .trace import TraceError, TraceSet

log = logging.getLogger("edgesense.cli")

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("EDGESENSE_LOG", "quiet").strip().lower()
    level = _LOG_LEVELS.get(name)
    if level is None:
        print(f"warning: EDGESENSE_LOG={name!r} not recognized, using quiet", file=sys.stderr)
        level = logging.WARNING
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def parse_seed_list(text: str) -> list[int]:
    """Accept '7', '1,2,5' or '1..5' (inclusive range) of seeds in [0, 2**64)."""
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            start, stop = int(lo), int(hi)
        except ValueError:
            raise ValueError(f"bad seed range {text!r}") from None
        if stop < start:
            raise ValueError(f"empty seed range {text!r}")
        return list(range(_require_seed(start), _require_seed(stop) + 1))
    try:
        seeds = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"bad seed list {text!r}") from None
    if not seeds:
        raise ValueError(f"bad seed list {text!r}")
    return [_require_seed(seed) for seed in seeds]


def _require_seed(seed: int, name: str = "seed") -> int:
    problem = core.seed_problem(seed, name)
    if problem:
        raise ConfigError([problem])
    return seed


def _check_writable(path: str, directory: bool = False) -> None:
    """Raise the OSError that writing at path would meet. A file path must
    not be a directory, and its parent must be an existing writable
    directory. With directory, path is a directory that os.makedirs creates
    and files are written into: it must not be an existing non-directory,
    and its nearest existing ancestor (itself if it exists) must be a
    writable directory. Called before simulating, so a bad path does not
    throw a finished run away."""
    parent = os.path.abspath(path) if directory else os.path.dirname(os.path.abspath(path))
    while directory and not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if os.path.exists(path) and os.path.isdir(path) != directory:
        code = errno.EEXIST if directory else errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    elif not os.access(parent, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _parse_policies(text: str) -> list[PolicyKind]:
    kinds = [PolicyKind.from_name(part.strip()) for part in text.split(",") if part.strip()]
    if not kinds:
        raise ValueError("no policies given")
    seen = set()
    out = []
    for k in kinds:
        if k not in seen:
            seen.add(k)
            out.append(k)
    return out


def _load_cfg(args) -> SimConfig:
    overrides: dict = {}
    for item in getattr(args, "set", None) or []:
        key, value = core.parse_override(item)
        overrides[key] = value
    if getattr(args, "hierarchy", None) is not None:
        overrides["hierarchy"] = args.hierarchy == "on"
    return core.load_config(args.config, overrides)


def _build_traces(cfg: SimConfig, args, world_seed: int) -> TraceSet:
    """Shared world for a run or comparison: either a loaded trace CSV (events
    optional) or a synthetic one derived from world_seed."""
    if args.trace:
        hourly = trace.load_csv(args.trace, expected_zones=cfg.n_zones)
        events = trace.load_events_csv(args.events) if args.events else []
        return trace.build_round_trace(cfg, hourly, events)
    if not args.synthetic:
        raise ConfigError(["either --trace FILE or --synthetic is required"])
    if args.events:
        raise ConfigError(["--events only applies together with --trace"])
    log.info("synthesizing trace (seed %d, %d zones, %d rounds)", world_seed, cfg.n_zones, cfg.rounds)
    hourly = trace.generate_synthetic(cfg, rng_seed=world_seed)
    events = trace.draw_events(
        cfg.rounds, cfg.n_zones, cfg.rounds_per_day, rng_seed=world_seed
    )
    return trace.build_round_trace(cfg, hourly, events)


def _add_common(p: argparse.ArgumentParser, with_trace: bool = True) -> None:
    p.add_argument("--config", metavar="FILE", help="key=value config file")
    p.add_argument("--set", metavar="KEY=VALUE", action="append",
                   help="override one config field (repeatable)")
    if with_trace:
        p.add_argument("--trace", metavar="CSV", help="hourly trace to replay")
        p.add_argument("--events", metavar="CSV", help="event schedule for --trace")
        p.add_argument("--synthetic", action="store_true",
                       help="synthesize the trace instead of loading one")
        p.add_argument("--hierarchy", choices=("on", "off"),
                       help="toggle per-zone budget allocation")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgesense",
        description="Trace-driven simulator for sensor activation policies.",
    )
    parser.add_argument("--version", action="version", version=f"edgesense {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-trace", help="write an hourly synthetic trace CSV")
    _add_common(g, with_trace=False)
    g.add_argument("--seed", type=int, help="generator seed (default: config seed)")
    g.add_argument("--out", required=True, metavar="CSV", help="hourly trace output path")
    g.add_argument("--events-out", metavar="CSV", help="also write an event schedule")

    r = sub.add_parser("run", help="simulate one policy over a trace")
    _add_common(r)
    r.add_argument("--policy", required=True, help="static, periodic, ucb or adaptive")
    r.add_argument("--seed", type=int, help="run seed (default: config seed)")
    r.add_argument("--out", metavar="JSON", help="write the full run record")
    r.add_argument("--round-log", metavar="CSV", help="write the per-round activation log")

    c = sub.add_parser("compare", help="run policies x seeds over one shared trace")
    _add_common(c)
    c.add_argument("--policies", default=",".join(k.value for k in POLICY_ORDER),
                   help="comma-separated policy names (default: all four)")
    c.add_argument("--seeds", default="1..5", help="seed list: '3', '1,2,7' or '1..5'")
    c.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
    c.add_argument("--out", metavar="DIR", help="directory for summary artifacts")

    p = sub.add_parser("report", help="render saved comparison or run output")
    p.add_argument("--in", dest="input", required=True, metavar="PATH",
                   help="comparison dir, summary.json, or run JSON")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", metavar="FILE", help="write instead of printing")
    return parser


def _cmd_gen_trace(args) -> int:
    cfg = _load_cfg(args)
    seed = cfg.seed if args.seed is None else _require_seed(args.seed, "--seed")
    hourly = trace.generate_synthetic(cfg, rng_seed=seed)
    trace.write_csv(hourly, args.out)
    print(f"wrote {args.out}: {hourly.n_rounds} hourly frames, {hourly.n_zones} zones")
    if args.events_out:
        events = trace.draw_events(cfg.rounds, cfg.n_zones, cfg.rounds_per_day, rng_seed=seed)
        trace.write_events_csv(events, args.events_out)
        print(f"wrote {args.events_out}: {len(events)} events")
    return 0


def _run_metrics_text(m: metrics.RunMetrics) -> str:
    det = "n/a" if m.detection_rate is None else f"{m.detection_rate * 100:.1f}% ({m.n_detected}/{m.n_events})"
    life = "inf" if math.isinf(m.lifetime) else f"{m.lifetime:.0f} d"
    return (
        f"policy={m.policy} seed={m.seed} rounds={m.rounds}\n"
        f"  energy      {m.avg_daily_energy:.2f} mAh/node/day (total {m.total_spent:.1f} mAh)\n"
        f"  detection   {det}\n"
        f"  lifetime    {life}\n"
        f"  activations {m.mean_selected_per_round:.1f} nodes/round"
    )


def _cmd_run(args) -> int:
    cfg = _load_cfg(args)
    seed = cfg.seed if args.seed is None else _require_seed(args.seed, "--seed")
    policy = PolicyKind.from_name(args.policy)
    for path in (args.out, args.round_log):
        if path:
            _check_writable(path)
    traces = _build_traces(cfg, args, world_seed=seed)
    t0 = time.perf_counter()
    run = run_simulation(cfg, traces, policy, seed=seed)
    log.info("run finished in %.2fs", time.perf_counter() - t0)
    print(_run_metrics_text(metrics.compute_run_metrics(run)))
    if args.out:
        save_run(run, args.out)
        print(f"wrote {args.out}")
    if args.round_log:
        write_round_log_csv(run, args.round_log)
        print(f"wrote {args.round_log}")
    return 0


def _compare_task(payload) -> RunResult:
    cfg, traces, kind, seed = payload
    return run_simulation(cfg, traces, kind, seed=seed)


def run_comparison(cfg: SimConfig, traces: TraceSet, policies, seeds, jobs: int = 1) -> metrics.Comparison:
    """Simulate every (policy, seed) pair over one shared trace and aggregate.
    Results are merged in task order, so worker count never changes output."""
    tasks = [(cfg, traces, k, s) for k in policies for s in seeds]
    if jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            runs = list(pool.map(_compare_task, tasks))
    else:
        runs = [_compare_task(t) for t in tasks]
    return metrics.compare(runs, policy_order=[k.value for k in policies])


def _cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    policies = _parse_policies(args.policies)
    seeds = parse_seed_list(args.seeds)
    if args.out:
        _check_writable(args.out, directory=True)
    traces = _build_traces(cfg, args, world_seed=cfg.seed)
    t0 = time.perf_counter()
    comp = run_comparison(cfg, traces, policies, seeds, jobs=max(1, args.jobs))
    log.info("%d runs finished in %.2fs", len(policies) * len(seeds), time.perf_counter() - t0)
    files = metrics.comparison_files(comp)
    print(files["summary.txt"], end="")
    if args.out:
        write_files(args.out, files)
        print(f"wrote {len(files)} files to {args.out}")
    return 0


def _cmd_report(args) -> int:
    path = args.input
    if os.path.isdir(path):
        path = os.path.join(path, "summary.json")
    # a malformed record fails somewhere in decoding, parsing or the
    # metrics; it is reported against its file here, in one place
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
        fmt = d.get("format", "")
        if fmt == metrics.COMPARISON_FORMAT:
            comp = metrics.from_json_dict(d)  # type-checks the record whatever the format
            if args.format == "json":
                out = stable_json(d)
            elif args.format == "csv":
                out = metrics.render_summary_csv(comp)
            else:
                out = metrics.render_text(comp)
        elif fmt == engine.RUN_FORMAT:
            run = engine.run_from_dict(d)
            if args.format == "json":
                out = stable_json(metrics.to_json_dict(metrics.compare([run])))
            elif args.format == "csv":
                out = metrics.render_per_seed_csv(metrics.compare([run]))
            else:
                out = _run_metrics_text(metrics.compute_run_metrics(run)) + "\n"
        else:
            raise ValueError(f"unrecognized format {fmt!r}")
    except KeyError as exc:
        raise TraceError(f"{path}: missing key {exc}") from None
    except (TypeError, AttributeError, OverflowError) as exc:
        raise TraceError(f"{path}: malformed record: {exc}") from None
    except ValueError as exc:  # not UTF-8, not JSON, or a record that contradicts itself
        raise TraceError(f"{path}: {exc}") from None
    if args.out:
        atomic_write_text(args.out, out)
        print(f"wrote {args.out}")
    else:
        print(out, end="")
    return 0


_COMMANDS = {
    "gen-trace": _cmd_gen_trace,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileExistsError, FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a world too large for this host, such as rounds=10**11
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("unexpected failure")
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
