"""The benchmark's workloads, driven through edgesense's public Python API.

Each pass runs one workload the way the command line does it:

  setup     config validation and world build (`edgesense compare`'s
            `_build_traces`), plus, on `replay`, the hourly trace and the
            event schedule written to CSV and loaded back (`gen-trace`, then
            `--trace/--events`);
  simulate  `cli.run_comparison` over every policy and seed, jobs=1;
  write     desk/city: the five comparison artifacts `compare --out` writes;
            replay: the adaptive run's record and round log (`run --out
            --round-log`);
  read      desk/city: `report --in DIR` as text and as json;
            replay: `load_run`, then `report --in run.json` as text and json.

Every call goes through a module attribute (`trace.load_csv`, not a name
imported from it), so the traced run can wrap those attributes from outside.
Importing this module puts the checkout's `src/` first on `sys.path` and
refuses any other copy of edgesense.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import edgesense  # noqa: E402

if not os.path.abspath(edgesense.__file__).startswith(SRC + os.sep):
    raise ImportError(f"edgesense was imported from {edgesense.__file__}, not from {SRC}")

from edgesense import _util, cli, core, engine, metrics, trace  # noqa: E402
from edgesense.policy import POLICY_ORDER  # noqa: E402
from reference import Reference, Segment  # noqa: E402

POLICIES = tuple(k.value for k in POLICY_ORDER)
ROUNDS = 2880  # 30 days of 15-minute rounds
# Cheap write/read stages are repeated until they add up to STAGE_MIN_S, so
# their medians are not single few-millisecond samples.
STAGE_MIN_S = 0.5
STAGE_MAX_REPEATS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    n_zones: int
    nodes_per_zone: int
    n_seeds: int
    min_passes: int = 2   # a run makes at least this many passes
    replay: bool = False  # world goes through CSV; artifacts are a run record

    @property
    def n_nodes(self) -> int:
        return self.n_zones * self.nodes_per_zone

    def run_seeds(self, seed: int) -> list[int]:
        return list(range(seed, seed + self.n_seeds))


WORKLOADS = {
    "desk": Workload("desk", 4, 10, 5),
    "city": Workload("city", 20, 50, 1),
    # replay's runs are short, so one more pass steadies their medians
    "replay": Workload("replay", 10, 20, 1, min_passes=3, replay=True),
}
SERIALIZED_POLICY = "adaptive"  # the replay run that is written and read back


@dataclass
class World:
    cfg: core.SimConfig
    traces: trace.TraceSet
    hourly: trace.TraceSet
    events: list
    loaded_hourly: trace.TraceSet | None = None  # replay: what load_csv returned
    loaded_events: list | None = None
    csv_write_s: float = 0.0
    csv_load_s: float = 0.0


@dataclass
class RunRecord:
    policy: str
    seed: int
    seconds: float  # scaled by the reference samples around the run
    rounds: int
    result: engine.RunResult | None


@dataclass
class PassResult:
    world: World
    setup_s: float
    simulate_s: float
    wall_s: float
    # times below are scaled by the reference samples around them
    write_s: list[float]  # one sample per execution of the write stage
    read_s: list[float]
    runs: list[RunRecord]
    scale: float  # reference scale over the whole pass
    artifacts: dict[str, str] = field(default_factory=dict)  # desk/city comparison files
    reports: dict[str, str] = field(default_factory=dict)    # report output by format
    loaded_run: engine.RunResult | None = None                # replay: load_run's result

    def drop_outputs(self) -> None:
        """Release everything but the timings once the pass is checked."""
        self.world, self.artifacts, self.reports, self.loaded_run = None, {}, {}, None
        for r in self.runs:
            r.result = None


def make_config(wl: Workload, seed: int, rounds: int = ROUNDS) -> core.SimConfig:
    """Validated config, built the way `--set key=value` overrides build it."""
    return core.load_config(None, {
        "n_zones": wl.n_zones, "nodes_per_zone": wl.nodes_per_zone, "rounds": rounds, "seed": seed,
    })


def build_world(wl: Workload, seed: int, workdir: str, rounds: int = ROUNDS, clock=time.perf_counter) -> World:
    """Everything before the first simulated round; clock times the CSV steps."""
    cfg = make_config(wl, seed, rounds)
    hourly = trace.generate_synthetic(cfg, rng_seed=seed)
    events = trace.draw_events(cfg.rounds, cfg.n_zones, cfg.rounds_per_day, rng_seed=seed)
    if not wl.replay:
        return World(cfg, trace.build_round_trace(cfg, hourly, events), hourly, events)
    hourly_csv = os.path.join(workdir, "hourly.csv")
    events_csv = os.path.join(workdir, "events.csv")
    t0 = clock()
    trace.write_csv(hourly, hourly_csv)
    trace.write_events_csv(events, events_csv)
    t1 = clock()
    loaded_hourly = trace.load_csv(hourly_csv, expected_zones=cfg.n_zones)
    loaded_events = trace.load_events_csv(events_csv)
    t2 = clock()
    traces = trace.build_round_trace(cfg, loaded_hourly, loaded_events)
    return World(cfg, traces, hourly, events, loaded_hourly, loaded_events, t1 - t0, t2 - t1)


@contextlib.contextmanager
def patched(owner, name: str, make_wrapper):
    """Replace owner.name with make_wrapper(original) for the block."""
    original = getattr(owner, name)
    setattr(owner, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def run_clock(records: list, ref: Reference):
    """Wrapper factory for cli.run_simulation: each run measured as a
    segment, and its result kept, because run_comparison returns only the
    aggregate. Appends (segment, result)."""
    def make(run_simulation):
        def timed(cfg, traces, policy_kind, seed=None):
            seg, result = ref.measure(lambda: run_simulation(cfg, traces, policy_kind, seed=seed))
            records.append((seg, result))
            return result
        return timed
    return make


def report(path: str, fmt: str) -> str:
    """`edgesense report --in PATH --format FMT`, stdout captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["report", "--in", path, "--format", fmt])
    if code != 0:
        raise RuntimeError(f"edgesense report --in {path} --format {fmt} exited {code}")
    return out.getvalue()


def render_comparison(comp) -> dict[str, str]:
    """The five files `edgesense compare --out DIR` writes, by name."""
    return {
        "summary.txt": metrics.render_text(comp),
        "summary.json": metrics.render_json(comp),
        "summary.csv": metrics.render_summary_csv(comp),
        "per_seed.csv": metrics.render_per_seed_csv(comp),
        "plot.csv": metrics.render_plot_csv(comp),
    }


def write_files(outputs: dict[str, str], outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    for name, content in outputs.items():
        _util.atomic_write_text(os.path.join(outdir, name), content)


def run_pass(wl: Workload, seed: int, workdir: str, ref: Reference,
             stage_min_s: float = STAGE_MIN_S) -> PassResult:
    """One pass of the workload, with the reference sampler running; times
    are reported through Reference.scaled. wall_s covers setup, simulate and
    the first write and read; the repeats of cheap stages (until they add up
    to stage_min_s) come after it."""
    os.makedirs(workdir)
    runs: list = []
    with ref.running(), patched(cli, "run_simulation", run_clock(runs, ref)):
        spent, start = ref.spent, time.perf_counter()
        setup, world = ref.measure(lambda: build_world(wl, seed, workdir, clock=ref.clock))
        simulate, comp = ref.measure(
            lambda: cli.run_comparison(world.cfg, world.traces, POLICY_ORDER, wl.run_seeds(seed), jobs=1))

        if wl.replay:
            run = next(r for _, r in runs if r.policy == SERIALIZED_POLICY)
            run_json = os.path.join(workdir, "run.json")
            round_log = os.path.join(workdir, "rounds.csv")

            def write():
                seg, _ = ref.measure(lambda: (engine.save_run(run, run_json),
                                              engine.write_round_log_csv(run, round_log)))
                return seg, 0.0, 0.0, {}

            def read():
                return engine.load_run(run_json), {fmt: report(run_json, fmt) for fmt in ("text", "json")}
        else:
            outdir = os.path.join(workdir, "compare")

            def write():
                # rendering is computation; the five small files are file-system work
                seg, outputs = ref.measure(lambda: render_comparison(comp))
                files_s, files_scaled, _ = ref.fs_measure(lambda: write_files(outputs, outdir), workdir)
                return seg, files_s, files_scaled, outputs

            def read():
                return None, {fmt: report(outdir, fmt) for fmt in ("text", "json")}

        # each write: (computation segment, file seconds, file seconds scaled, outputs)
        writes = [write()]
        read_seg, (loaded_run, reports) = ref.measure(read)
        end = time.perf_counter()
        wall = Segment(start, end, end - start - (ref.spent - spent))
        # cheap stages: more samples, one per execution, so that the median
        # passes over the file system's occasional slow operation
        while sum(w[0].seconds + w[1] for w in writes) < stage_min_s and len(writes) < STAGE_MAX_REPEATS:
            writes.append(write())
        reads = [read_seg]
        while sum(seg.seconds for seg in reads) < stage_min_s and len(reads) < STAGE_MAX_REPEATS:
            reads.append(ref.measure(read)[0])

    # the trace CSVs are written and loaded during setup (replay only)
    setup_scale = ref.scaled(setup) / setup.seconds
    csv_write, csv_load = world.csv_write_s * setup_scale, world.csv_load_s * setup_scale
    return PassResult(
        world=world, setup_s=ref.scaled(setup), simulate_s=ref.scaled(simulate), wall_s=ref.scaled(wall),
        write_s=[csv_write + ref.scaled(seg) + files_scaled for seg, _, files_scaled, _ in writes],
        read_s=[csv_load + ref.scaled(seg) for seg in reads],
        runs=[RunRecord(r.policy, r.seed, ref.scaled(seg), r.n_rounds, r) for seg, r in runs],
        scale=ref.scaled(wall) / wall.seconds,
        artifacts=writes[0][3], reports=reports, loaded_run=loaded_run,
    )


def end_to_end(wl: Workload, passes: list[PassResult], setup_s: float,
               peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """End-to-end metrics over a run's passes, medians where there are
    several samples: name -> (value, unit)."""
    node_rounds = sum(wl.n_nodes * r.rounds for p in passes for r in p.runs)
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "node_rounds_per_s": (node_rounds / sum(p.simulate_s for p in passes), "1/s"),
    }
    for policy in POLICIES:
        seconds = [r.seconds for p in passes for r in p.runs if r.policy == policy]
        values[f"run_s.{policy}"] = (statistics.median(seconds), "s")
    values["artifact_write_s"] = (statistics.median(s for p in passes for s in p.write_s), "s")
    values["artifact_read_s"] = (statistics.median(s for p in passes for s in p.read_s), "s")
    values["peak_rss_mb"] = (peak_rss_mb, "MB")
    return values
