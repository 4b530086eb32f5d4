"""End-to-end checks of the command line interface.

Nearly everything here shells out to `python -m edgesense` the way a user
would, on a small two-zone world, and inspects exit codes, stdout and the
files left behind. The input gate at the end calls `cli.main` in-process,
so it can try many settings in a few seconds.
"""

import concurrent.futures
import contextlib
import functools
import io
import json
import operator
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesense import cli, core, engine, trace
from edgesense.cli import parse_seed_list
from edgesense.core import Pollutant, load_config
from edgesense.policy import PolicyKind

PAST_FLOAT = 10 ** 400  # a JSON number past the float range

CONFIG_TEXT = """\
# small world so every invocation stays fast
n_zones = 2
nodes_per_zone = 3
rounds = 96
round_minutes = 15
"""


def run_cli(*argv, log="quiet"):
    """Run `python -m edgesense` with a RuntimeWarning as an error, as the
    suite's filterwarnings makes it for in-process code."""
    env = os.environ.copy()
    if log is None:
        env.pop("EDGESENSE_LOG", None)
    else:
        env["EDGESENSE_LOG"] = log
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "edgesense", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="session")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "world.cfg"
    path.write_text(CONFIG_TEXT)
    return str(path)


@pytest.fixture(scope="session")
def artifacts(cfg_file, tmp_path_factory):
    """One compare directory and three run records, built once and reused:
    run_json, an adaptive run whose nodes all live, static_json, the static
    run of the same world, and drained_json, a 3-day run on a 150 mAh
    battery in which five of its six nodes die."""
    base = tmp_path_factory.mktemp("artifacts")
    cmp_dir = base / "cmp"
    run_json = base / "run.json"
    static_json = base / "static.json"
    drained_json = base / "drained.json"
    round_log = base / "rounds.csv"
    compare_argv = (
        "compare", "--config", cfg_file, "--synthetic",
        "--policies", "static,adaptive", "--seeds", "1..2",
        "--out", str(cmp_dir),
    )
    proc = run_cli(*compare_argv)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(
        "run", "--config", cfg_file, "--synthetic", "--policy", "adaptive",
        "--seed", "1", "--set", "rounds=300", "--set", "battery_capacity=150",
        "--out", str(drained_json),
    )
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("run", "--config", cfg_file, "--synthetic", "--policy", "static", "--seed", "3",
                   "--out", str(static_json))
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(
        "run", "--config", cfg_file, "--synthetic", "--policy", "adaptive",
        "--seed", "3", "--out", str(run_json), "--round-log", str(round_log),
    )
    assert proc.returncode == 0, proc.stderr
    return {
        "cmp_dir": str(cmp_dir),
        "compare_argv": compare_argv,
        "run_json": str(run_json),
        "static_json": str(static_json),
        "drained_json": str(drained_json),
        "round_log": str(round_log),
        "run_stdout": proc.stdout,
    }


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _drained(edit):
    """Mark a case of test_inconsistent_run_record_exits_two as an edit of
    the drained record rather than of the run record."""
    edit.record = "drained_json"
    return edit


def _static(edit):
    """Mark a case of test_inconsistent_run_record_exits_two as an edit of
    the static record."""
    edit.record = "static_json"
    return edit


def _double_spent(record):
    """Double every round's spend and re-add total_spent left to right, as
    the engine adds it."""
    for r in record["rounds"]:
        r["spent"] *= 2
    record["total_spent"] = functools.reduce(operator.add, (r["spent"] for r in record["rounds"]), 0.0)


def _clear_detections(record):
    """Mark every event undetected, consistently across flags, rounds and
    each round's detected list."""
    record.update(event_detected=[False] * len(record["events"]), event_detect_round=[-1] * len(record["events"]))
    for r in record["rounds"]:
        r["detected"] = []


def _shrink_battery(record, capacity):
    """Lower the battery capacity and rewrite final_battery to agree with it."""
    record["config"]["battery_capacity"] = capacity
    record["final_battery"] = [capacity - k * c for k, c in zip(record["activation_counts"], record["energy_cost"])]


def _write_world(cfg_file, tmp_path, zone_ids=(0, 1), events=(), edit=None):
    """Write the config's synthetic hourly trace with the given zone labels,
    optionally rewriting one CSV line (edit maps the line list in place),
    plus an event schedule. Returns (trace path, events path)."""
    cfg = load_config(cfg_file)
    hourly = trace.generate_synthetic(cfg, rng_seed=3)
    hourly = trace.TraceSet(values=hourly.values, zone_ids=tuple(zone_ids))
    trace_csv, events_csv = tmp_path / "hourly.csv", tmp_path / "events.csv"
    trace.write_csv(hourly, str(trace_csv))
    if edit is not None:
        lines = trace_csv.read_text().splitlines()
        edit(lines)
        trace_csv.write_text("\n".join(lines) + "\n")
    trace.write_events_csv(list(events), str(events_csv))
    return str(trace_csv), str(events_csv)


def _set_first_co(value):
    def edit(lines):
        k = next(i for i, line in enumerate(lines) if ",CO," in line)
        lines[k] = lines[k].rsplit(",", 1)[0] + "," + value
    return edit


class TestBasics:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "edgesense 0.1.0" in proc.stdout

    def test_no_subcommand_is_usage_error(self):
        proc = run_cli()
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_seed_list_parsing(self):
        assert parse_seed_list("7") == [7]
        assert parse_seed_list("1,2,5") == [1, 2, 5]
        assert parse_seed_list("1..4") == [1, 2, 3, 4]
        assert parse_seed_list("5..5") == [5]
        assert parse_seed_list("1,,2") == [1, 2]  # stray commas are tolerated
        for bad in ("", "a", "3..1", "1..x", "-1", "2,18446744073709551616", "-1..3",
                    "1..18446744073709551616"):
            with pytest.raises(ValueError):
                parse_seed_list(bad)
        assert parse_seed_list("18446744073709551615") == [2 ** 64 - 1]


class TestGenTrace:
    def test_writes_loadable_csv(self, cfg_file, tmp_path):
        out = tmp_path / "hourly.csv"
        events_out = tmp_path / "events.csv"
        proc = run_cli("gen-trace", "--config", cfg_file, "--seed", "3",
                       "--out", str(out), "--events-out", str(events_out))
        assert proc.returncode == 0, proc.stderr
        assert "wrote" in proc.stdout
        hourly = trace.load_csv(str(out), expected_zones=2)
        assert hourly.n_rounds == 25  # one simulated day needs 25 hourly frames
        events = trace.load_events_csv(str(events_out))
        assert all(ev.zone_id in (0, 1) for ev in events)

    def test_deterministic_bytes(self, cfg_file, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            proc = run_cli("gen-trace", "--config", cfg_file, "--seed", "9",
                           "--out", str(out))
            assert proc.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_content(self, cfg_file, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("gen-trace", "--config", cfg_file, "--seed", "1", "--out", str(a))
        run_cli("gen-trace", "--config", cfg_file, "--seed", "2", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()


class TestRun:
    def test_synthetic_run_artifacts(self, artifacts):
        assert "policy=adaptive" in artifacts["run_stdout"]
        assert "energy" in artifacts["run_stdout"]
        run = engine.load_run(artifacts["run_json"])
        assert run.policy == "adaptive"
        assert run.seed == 3
        lines = _read(artifacts["round_log"]).splitlines()
        assert len(lines) == 1 + 96 * 6  # header plus one row per round and node

    def test_trace_replay_matches_synthetic(self, cfg_file, tmp_path):
        hourly = tmp_path / "hourly.csv"
        events = tmp_path / "events.csv"
        proc = run_cli("gen-trace", "--config", cfg_file, "--seed", "3",
                       "--out", str(hourly), "--events-out", str(events))
        assert proc.returncode == 0, proc.stderr
        replay = tmp_path / "replay.json"
        direct = tmp_path / "direct.json"
        proc = run_cli("run", "--config", cfg_file, "--trace", str(hourly),
                       "--events", str(events), "--policy", "ucb",
                       "--seed", "3", "--out", str(replay))
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("run", "--config", cfg_file, "--synthetic",
                       "--policy", "ucb", "--seed", "3", "--out", str(direct))
        assert proc.returncode == 0, proc.stderr
        assert replay.read_bytes() == direct.read_bytes()

    def test_set_override_reaches_the_run(self, cfg_file):
        proc = run_cli("run", "--config", cfg_file, "--synthetic",
                       "--policy", "static", "--set", "rounds=24")
        assert proc.returncode == 0, proc.stderr
        assert "rounds=24" in proc.stdout

    def test_hierarchy_toggle_accepted(self, cfg_file):
        proc = run_cli("run", "--config", cfg_file, "--synthetic",
                       "--policy", "adaptive", "--hierarchy", "off")
        assert proc.returncode == 0, proc.stderr


class TestCompare:
    def test_writes_five_artifacts(self, artifacts):
        names = sorted(os.listdir(artifacts["cmp_dir"]))
        assert names == ["per_seed.csv", "plot.csv", "summary.csv",
                         "summary.json", "summary.txt"]
        summary = json.loads(_read(os.path.join(artifacts["cmp_dir"], "summary.json")))
        assert summary["format"] == "edgesense-comparison/1"
        assert [p["policy"] for p in summary["policies"]] == ["static", "adaptive"]
        per_seed = _read(os.path.join(artifacts["cmp_dir"], "per_seed.csv")).splitlines()
        assert len(per_seed) == 1 + 2 * 2  # header plus policies x seeds

    def test_byte_deterministic(self, artifacts, tmp_path):
        again = tmp_path / "again"
        argv = list(artifacts["compare_argv"])
        argv[argv.index(artifacts["cmp_dir"])] = str(again)
        proc = run_cli(*argv)
        assert proc.returncode == 0, proc.stderr
        assert "wrote 5 files" in proc.stdout
        for name in os.listdir(artifacts["cmp_dir"]):
            assert _read(os.path.join(artifacts["cmp_dir"], name)) == \
                _read(str(again / name)), name

    def test_parallel_jobs_match_serial(self, artifacts, tmp_path):
        par = tmp_path / "par"
        argv = list(artifacts["compare_argv"])
        argv[argv.index(artifacts["cmp_dir"])] = str(par)
        proc = run_cli(*argv, "--jobs", "2")
        assert proc.returncode == 0, proc.stderr
        for name in os.listdir(artifacts["cmp_dir"]):
            assert _read(os.path.join(artifacts["cmp_dir"], name)) == \
                _read(str(par / name)), name

    def test_parallel_jobs_start_no_more_workers_than_runs(self, monkeypatch):
        started = []

        class InProcessPool:  # records the pool size and maps in this process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        cfg = load_config(None, {"n_zones": 2, "nodes_per_zone": 3, "rounds": 96})
        traces = trace.build_round_trace(cfg, trace.generate_synthetic(cfg, rng_seed=1), [])
        comp = cli.run_comparison(cfg, traces, [PolicyKind.STATIC], [1, 2], jobs=4)
        assert started == [2]
        assert comp.seeds == (1, 2)

    @pytest.mark.parametrize("out, problem", [
        ("a-file", "File exists"),
        ("a-file/summary", "Not a directory"),
    ], ids=["file", "parent-is-a-file"])
    def test_unwritable_out_fails_before_simulating(self, cfg_file, tmp_path, out, problem):
        (tmp_path / "a-file").write_text("")
        out = tmp_path / out
        proc = run_cli("compare", "--config", cfg_file, "--synthetic", "--seeds", "1", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {problem}: {out}"]
        # the path is checked before simulating, so no table is printed
        assert proc.stdout == ""
        assert os.listdir(tmp_path) == ["a-file"]


class TestReport:
    def test_text_from_directory(self, artifacts):
        proc = run_cli("report", "--in", artifacts["cmp_dir"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == _read(os.path.join(artifacts["cmp_dir"], "summary.txt"))

    def test_json_roundtrips_summary(self, artifacts):
        proc = run_cli("report", "--in", artifacts["cmp_dir"], "--format", "json")
        assert proc.returncode == 0
        assert proc.stdout == _read(os.path.join(artifacts["cmp_dir"], "summary.json"))

    def test_csv_format(self, artifacts):
        proc = run_cli("report", "--in", artifacts["cmp_dir"], "--format", "csv")
        assert proc.returncode == 0
        assert proc.stdout == _read(os.path.join(artifacts["cmp_dir"], "summary.csv"))

    def test_run_record_report(self, artifacts):
        proc = run_cli("report", "--in", artifacts["run_json"])
        assert proc.returncode == 0
        assert "policy=adaptive seed=3" in proc.stdout

    def test_out_writes_file(self, artifacts, tmp_path):
        dest = tmp_path / "report.txt"
        proc = run_cli("report", "--in", artifacts["cmp_dir"], "--out", str(dest))
        assert proc.returncode == 0
        assert "wrote" in proc.stdout
        assert "static" in dest.read_text()

    def test_unrecognized_format_fails(self, tmp_path):
        bogus = tmp_path / "other.json"
        bogus.write_text(json.dumps({"format": "something-else/9"}))
        proc = run_cli("report", "--in", str(bogus))
        assert proc.returncode == 2
        assert "unrecognized format" in proc.stderr

    @pytest.mark.parametrize("record, problem", [
        ([1, 2], "malformed record: 'list' object has no attribute 'get'"),
        ({"format": "edgesense-run/1"}, "missing key 'energy_cost'"),
        ({"format": "edgesense-comparison/1"}, "missing key 'policies'"),
    ], ids=["not-an-object", "run-without-costs", "comparison-without-policies"])
    def test_malformed_record_exits_two(self, tmp_path, record, problem):
        path = tmp_path / "record.json"
        path.write_text(json.dumps(record))
        proc = run_cli("report", "--in", str(path))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {path}: {problem}"]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("edit, problem", [
        (lambda d: d["policies"][1].update(detection_rate=True),
         "policies entry 1 has detection_rate True, which is not a number or null"),
        (lambda d: d["policies"][0].update(n_seeds="two"), "policies entry 0 has n_seeds 'two', which is not an int"),
        (lambda d: d["policies"][0].update(n_seeds=True), "policies entry 0 has n_seeds True, which is not an int"),
        (lambda d: d["policies"][1].update(policy=5), "policies entry 1 has policy 5, which is not a string"),
        (lambda d: d["policies"][0].update(avg_daily_energy_std=None),
         "policies entry 0 has avg_daily_energy_std None, which is not a number"),
        (lambda d: d["policies"][0].update(first_death_day=1.5),
         "policies entry 0 has first_death_day 1.5, which is not an int or null"),
        (lambda d: d["policies"].__setitem__(0, 5), "policies entry 0 is 5, which is not an object"),
        (lambda d: d.update(policies=5), "policies is 5, which is not a list"),
        (lambda d: d.update(seeds=[1, "2"]), "seeds entry 1 is '2', which is not an int"),
        (lambda d: d.update(trace_hash=5), "trace_hash is 5, which is not a string"),
    ], ids=["detection-rate-bool", "n-seeds-string", "n-seeds-bool", "policy-int", "energy-std-null",
            "first-death-day-float", "policy-entry-int", "policies-int", "seed-string", "trace-hash-int"])
    def test_comparison_of_wrong_json_types_exits_two(self, artifacts, tmp_path, edit, problem, fmt):
        record = json.loads(_read(os.path.join(artifacts["cmp_dir"], "summary.json")))
        edit(record)
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(record))
        proc = run_cli("report", "--in", str(path), "--format", fmt)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {path}: {problem}"]

    def test_run_record_whose_config_is_not_an_object_exits_two(self, artifacts, tmp_path):
        record = json.loads(_read(artifacts["run_json"]))
        record["config"] = []
        path = tmp_path / "run.json"
        path.write_text(json.dumps(record))
        proc = run_cli("report", "--in", str(path))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {path}: config is [], which is not an object"]

    @pytest.mark.parametrize("edit, problem", [
        (lambda r: r.update(zone_of=[]), "node 0 has zone_of None, the rebuilt run has 0"),
        (lambda r: r["energy_cost"].pop(), "energy_cost has 5 entries, the config has 6 nodes"),
        (lambda r: r["zone_of"].__setitem__(5, 2), "node 5 has zone_of 2, the rebuilt run has 1"),
        (lambda r: r["rounds"][0]["selected"].__setitem__(0, 1000000),
         "round 0 has selected 1000000, which is not a node id in 0..5"),
        (lambda r: r["rounds"][0]["feedback"].pop(), "round 0 has {} feedback values for {} selected nodes"),
        (lambda r: r["events"].append({"zone_id": 2, "start_round": 0, "end_round": 4,
                                       "pollutant": "CO", "magnitude": 2.0}),
         "event 2 has zone_id 2, which is not a zone in 0..1"),
        (lambda r: r["events"].append({"zone_id": 0, "start_round": -5, "end_round": 3,
                                       "pollutant": "PM25", "magnitude": 4.0}),
         "event 2: event start_round must be >= 0, got -5"),
        (lambda r: r.update(event_detected=[True] * 21),
         "event 2 has event_detected True, the rebuilt run has None"),
        (lambda r: r["event_detect_round"].pop(), "event 1 has event_detect_round None, the rebuilt run has 85"),
        (lambda r: r.update(event_detected=[False, False]),
         "event 0 has event_detected False, the rebuilt run has True"),
        (lambda r: r.update(event_detected=[True, True], event_detect_round=[36, -1]),
         "event 1 has event_detect_round -1, the rebuilt run has 85"),
        (lambda r: r["event_detect_round"].__setitem__(0, 0),
         "event 0 has event_detect_round 0, the rebuilt run has 36"),
        (lambda r: r["rounds"][1].__setitem__("round", 7), "round 1 has round 7, the rebuilt run has 1"),
        (lambda r: r["rounds"][0]["detected"].append(1),
         "round 0 has detected [1], the rebuilt run has []"),
        (lambda r: r["rounds"][36]["detected"].clear(),
         "round 36 has detected [], the rebuilt run has [0]"),
        (lambda r: r["rounds"][0]["selected"].__setitem__(0, 1.7),
         "round 0 has selected 1.7, which is not a node id in 0..5"),
        (lambda r: r["rounds"][0]["selected"].__setitem__(0, True),
         "round 0 has selected True, which is not a node id in 0..5"),
        (lambda r: r["rounds"][0]["selected"].__setitem__(0, 2 ** 70),
         f"round 0 has selected {2 ** 70}, which is not a node id in 0..5"),
        (lambda r: r["rounds"][0]["feedback"].__setitem__(0, "0.5"),
         "round 0 has feedback '0.5', which is not a number in [0, 1]"),
        (lambda r: r["rounds"][0]["feedback"].__setitem__(0, False),
         "round 0 has feedback False, which is not a number in [0, 1]"),
        (lambda r: r["rounds"][3].__setitem__("spent", "1.5"),
         "round 3 has spent '1.5', the rebuilt run has 3.3135456233081038"),
        (lambda r: r["rounds"][3].__setitem__("spent", True),
         "round 3 has spent True, the rebuilt run has 3.3135456233081038"),
        (lambda r: r["rounds"][2].__setitem__("budget", None),
         "round 2 has budget None, which is not a finite number >= 0"),
        (lambda r: r["rounds"][1].__setitem__("mean_reward", [0.1]),
         "round 1 has mean_reward [0.1], the rebuilt run has -0.4882035619722818"),
        (lambda r: r.update(total_spent=r["total_spent"] * 100),
         "total_spent is 32709.24147520715, the rebuilt run has 327.0924147520715"),
        (lambda r: r.update(activation_counts=[0] * 6), "node 0 has activation_counts 0, the rebuilt run has 40"),
        (lambda r: r.update(final_battery=[1.0] * 6),
         "node 0 has final_battery 1.0, the rebuilt run has 21540.396146077524"),
        (_drained(lambda r: r.update(death_round=[10 ** 6] * 6)),
         "node 0 has death_round 1000000, the rebuilt run has 180"),
        (_drained(lambda r: r.update(death_round=[-1] * 6)), "node 0 has death_round -1, the rebuilt run has 180"),
        (_drained(lambda r: _shrink_battery(r, 100.0)), "node 0 is selected 181 times, more than its battery funds"),
        (_drained(_double_spent), "round 0 has spent 7.828038305577554, the rebuilt run has 3.914019152788777"),
        (_drained(_clear_detections), "event 0 has event_detect_round -1, the rebuilt run has 95"),
        (_drained(lambda r: r.update(energy_cost=[repr(c) for c in r["energy_cost"]])),
         "node 0 has energy_cost '0.8251511510959112', which is not a number in energy_cost_range [0.75, 1.75]"),
        (_drained(lambda r: r["zone_of"].__setitem__(5, 1.5)), "node 5 has zone_of 1.5, the rebuilt run has 1"),
        (_drained(lambda r: r["zone_of"].__setitem__(0, False)), "node 0 has zone_of False, the rebuilt run has 0"),
        (_drained(lambda r: r["activation_counts"].__setitem__(1, 86.0)),
         "node 1 has activation_counts 86.0, the rebuilt run has 86"),
        (_drained(lambda r: r["death_round"].__setitem__(4, True)),
         "node 4 has death_round True, the rebuilt run has -1"),
        (_drained(lambda r: r["final_battery"].__setitem__(3, None)),
         "node 3 has final_battery None, the rebuilt run has 0.8924198557850787"),
        (_drained(lambda r: r["final_utilities"].__setitem__(2, "0.5")),
         "node 2 has final_utilities '0.5', which is not a finite number"),
        (_drained(lambda r: r["final_ucb_means"].__setitem__(4, True)),
         "node 4 has final_ucb_means True, which is not a finite number"),
        (lambda r: r.update(n_budgeted_selections=r["n_budgeted_selections"] + 1),
         "n_budgeted_selections is 193, the rebuilt run has 192"),
        (lambda r: r.update(policy="static"), "n_budgeted_selections is 192, the rebuilt run has 0"),
        (lambda r: r.update(policy="greedy"), "unknown policy 'greedy' (valid: static, periodic, ucb, adaptive)"),
        (lambda r: r["config"].update(rounds=10), "config.rounds is 10, the record has 96 rounds"),
        (lambda r: r["config"].update(nodes_per_zone=5), "energy_cost has 6 entries, the config has 10 nodes"),
        (lambda r: r["config"].update(n_zones=3), "energy_cost has 6 entries, the config has 9 nodes"),
        (lambda r: r["config"].update(noise_sigma=-1.0), "noise_sigma must be in [0, 1], got -1.0"),
        (lambda r: r["config"].pop("hierarchy"), "missing key 'hierarchy'"),
        (lambda r: r["config"].update(volts=3), "config has keys SimConfig does not know: ['volts']"),
        (lambda r: r["config"].update(energy_cost_range=[1.5, 1.75]),
         "node 0 has energy_cost 1.4900963480618716, which is not a number in energy_cost_range [1.5, 1.75]"),
        (lambda r: r["rounds"][1].__setitem__("mean_reward", 0.25),
         "round 1 has mean_reward 0.25, the rebuilt run has -0.4882035619722818"),
        (_static(lambda r: r["rounds"][1].__setitem__("mean_reward", 0.25)),
         "round 1 has mean_reward 0.25, the rebuilt run has -0.5717086060981902"),
        (_static(lambda r: r["rounds"][2].__setitem__("budget", 10.0)),
         "round 2 has budget 10.0, the rebuilt run has 7.577414949702322"),
        (lambda r: r.update(seed="x"), "seed is 'x', which is not an int"),
        (lambda r: r.update(seed=True), "seed is True, which is not an int"),
        (lambda r: r.update(seed=2 ** 70), "seed must be in [0, 2**64), got 1180591620717411303424"),
        (lambda r: r.update(max_budget_violation="oops"),
         "max_budget_violation is 'oops', which is not a finite number >= 0"),
        (_static(lambda r: r.update(max_budget_violation=5.0)),
         "max_budget_violation is 5.0, the rebuilt run has 0.0"),
        (lambda r: r["events"][0].update(zone_id=True), "event 0 has zone_id True, which is not a zone in 0..1"),
        (lambda r: r["events"][1].update(magnitude=float("nan")),
         "event 1 has magnitude nan, which is not a finite number"),
        (lambda r: r.update(trace_hash=5), "trace_hash is 5, which is not a string"),
        (lambda r: r["rounds"][0]["feedback"].__setitem__(0, 1.5),
         "round 0 has feedback 1.5, which is not a number in [0, 1]"),
        (lambda r: r["rounds"][2].__setitem__("budget", float("nan")),
         "round 2 has budget nan, which is not a finite number >= 0"),
        (lambda r: r["config"].update(hierarchy=1), "config.hierarchy is 1, which is not a bool"),
        (lambda r: r["config"].update(rounds=96.0), "config.rounds is 96.0, which is not an int"),
        (lambda r: r["config"].update(seed=1.5), "config.seed is 1.5, which is not an int"),
        (lambda r: r["config"].update(seed=True), "config.seed is True, which is not an int"),
        (lambda r: r["config"].update(battery_capacity=True),
         "config.battery_capacity is True, which is not a number"),
        (lambda r: r["config"].update(energy_cost_range=[0.75]),
         "config.energy_cost_range is [0.75], which is not two numbers"),
        (lambda r: r["config"].update(energy_cost_range=[0.75, "1.75"]),
         "config.energy_cost_range is [0.75, '1.75'], which is not two numbers"),
        (lambda r: r["rounds"][1].__setitem__("round", True), "round 1 has round True, the rebuilt run has 1"),
        (lambda r: r.update(n_budgeted_selections=192.0), "n_budgeted_selections is 192.0, the rebuilt run has 192"),
        (lambda r: r.update(event_detected=[1, 1]), "event 0 has event_detected 1, the rebuilt run has True"),
        (lambda r: r["rounds"][36].__setitem__("detected", [0.0]),
         "round 36 has detected [0.0], the rebuilt run has [0]"),
        (_static(lambda r: r.update(max_budget_violation=0)), "max_budget_violation is 0, the rebuilt run has 0.0"),
        (lambda r: r["event_detected"].append(None),
         "event_detected is [True, True, None], the rebuilt run has [True, True]"),
        (lambda r: r.update(zone_of=5), "zone_of is 5, the rebuilt run has [0, 0, 0, 1, 1, 1]"),
        (lambda r: r.update(events=5), "events is 5, which is not a list"),
        (lambda r: r.update(rounds=5), "rounds is 5, which is not a list"),
        (lambda r: r["rounds"].__setitem__(3, 5), "round 3 is 5, which is not an object"),
        (lambda r: r["events"].__setitem__(1, 5), "event 1 is 5, which is not an object"),
        (lambda r: r["rounds"][0].update(selected=5), "round 0 has selected 5, which is not a list"),
        (lambda r: r["rounds"][0].update(feedback=5), "round 0 has feedback 5, which is not a list"),
        (lambda r: r.update(energy_cost=5), "energy_cost is 5, which is not a list"),
        (lambda r: r.update(final_utilities=5), "final_utilities is 5, which is not a list"),
        (lambda r: r.update(final_ucb_means=5), "final_ucb_means is 5, which is not a list"),
        (lambda r: r["rounds"][0]["feedback"].__setitem__(0, PAST_FLOAT),
         f"round 0 has feedback {PAST_FLOAT}, which is not a number in [0, 1]"),
        (lambda r: r["rounds"][2].update(budget=PAST_FLOAT),
         f"round 2 has budget {PAST_FLOAT}, which is not a finite number >= 0"),
        (lambda r: r["energy_cost"].__setitem__(1, PAST_FLOAT),
         f"node 1 has energy_cost {PAST_FLOAT}, which is not a number in energy_cost_range [0.75, 1.75]"),
        (lambda r: r["final_utilities"].__setitem__(2, PAST_FLOAT),
         f"node 2 has final_utilities {PAST_FLOAT}, which is not a finite number"),
        (lambda r: r["final_ucb_means"].__setitem__(4, float("nan")),
         "node 4 has final_ucb_means nan, which is not a finite number"),
        (lambda r: r.update(max_budget_violation=PAST_FLOAT),
         f"max_budget_violation is {PAST_FLOAT}, which is not a finite number >= 0"),
        (lambda r: r["events"][1].update(magnitude=PAST_FLOAT), f"event 1 has magnitude {PAST_FLOAT}, which is not a finite number"),
        (lambda r: r["config"].update(battery_capacity=PAST_FLOAT),
         f"config.battery_capacity is {PAST_FLOAT}, which is not a number"),
        (_drained(lambda r: r["events"][0].update(pollutant=5)),
         "event 0: unknown pollutant label 5 (expected one of: PM25, PM10, CO, NO2, O3, SO2)"),
        (_drained(lambda r: r["events"][0].update(pollutant="XX")),
         "event 0: unknown pollutant label 'XX' (expected one of: PM25, PM10, CO, NO2, O3, SO2)"),
        (_drained(lambda r: r["events"][0].update(magnitude=1.0)), "event 0: event magnitude must be > 1, got 1.0"),
        (_drained(lambda r: r["events"][0].update(end_round=r["events"][0]["start_round"])),
         "event 0: event window must be non-empty, got [95, 95)"),
        (lambda r: r["rounds"][0]["selected"].__setitem__(1, 0), "round 0 has selected node 0 twice"),
    ], ids=["zone_of-empty", "energy_cost-short", "zone-out-of-range", "node-out-of-range",
            "feedback-short", "event-zone-out-of-range", "event-negative-start",
            "detected-flags-long", "detect-rounds-short", "flags-false-with-rounds", "flag-true-without-round",
            "detect-round-outside-window", "round-misnumbered", "round-lists-an-undetected-event",
            "round-drops-its-detection", "node-id-float", "node-id-bool", "node-id-past-int64",
            "feedback-string", "feedback-bool", "spent-string", "spent-bool", "budget-null", "mean-reward-list",
            "total-spent-inflated", "activation-counts-zero", "final-battery-full",
            "death-rounds-past-the-run", "deaths-hidden", "over-drawn", "spent-doubled", "detections-cleared",
            "energy-cost-strings", "zone-of-float", "zone-of-bool", "activation-count-float", "death-round-bool",
            "final-battery-null", "final-utility-string", "final-ucb-mean-bool", "budgeted-selections-edited",
            "policy-static", "policy-unknown", "config-rounds", "config-nodes-per-zone", "config-zones",
            "config-invalid", "config-without-hierarchy", "config-unknown-key", "config-costs-outside-range",
            "mean-reward-edited", "static-mean-reward-edited", "static-budget-not-spent", "seed-string",
            "seed-bool", "seed-past-64-bits", "max-violation-string", "static-max-violation", "event-zone-bool",
            "event-magnitude-nan", "trace-hash-int", "feedback-above-one", "budget-nan", "config-hierarchy-int",
            "config-rounds-float", "config-seed-float", "config-seed-bool", "config-capacity-bool",
            "config-cost-range-short", "config-cost-range-string", "round-numbered-true",
            "budgeted-selections-float", "detected-flags-ints", "detection-listed-as-float",
            "static-max-violation-int", "detected-flags-extra-null", "zone_of-not-a-list", "events-not-a-list",
            "rounds-not-a-list", "round-not-an-object", "event-not-an-object", "selected-not-a-list",
            "feedback-not-a-list", "energy-cost-not-a-list", "final-utilities-not-a-list",
            "final-ucb-means-not-a-list", "feedback-past-float-range", "budget-past-float-range",
            "energy-cost-past-float-range", "final-utility-past-float-range", "final-ucb-mean-nan",
            "max-violation-past-float-range", "event-magnitude-past-float-range",
            "config-capacity-past-float-range", "event-pollutant-int", "event-pollutant-unknown",
            "event-magnitude-one", "event-window-empty", "node-selected-twice"])
    def test_inconsistent_run_record_exits_two(self, artifacts, tmp_path, edit, problem):
        record = json.loads(_read(artifacts[getattr(edit, "record", "run_json")]))
        n_selected = len(record["rounds"][0]["selected"])
        assert n_selected > 0
        edit(record)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(record))
        proc = run_cli("report", "--in", str(path))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {path}: {problem.format(n_selected - 1, n_selected)}"]

    @pytest.mark.parametrize("content, problem", [
        (b"not json\n", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ], ids=["not-json", "not-utf8"])
    def test_undecodable_input_names_its_file(self, tmp_path, content, problem):
        path = tmp_path / "junk.json"
        path.write_bytes(content)
        proc = run_cli("report", "--in", str(path))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {path}: {problem}"]


class TestFailureModes:
    def test_bad_inputs_exit_two(self, cfg_file, tmp_path):
        cases = [
            (("run", "--config", cfg_file, "--synthetic", "--policy", "adaptive",
              "--set", "eta=7"), "eta"),
            (("run", "--config", cfg_file, "--synthetic", "--policy", "adaptive",
              "--set", "volts=3"), "unknown config key"),
            (("run", "--config", cfg_file, "--policy", "adaptive"),
             "--trace"),
            (("run", "--config", cfg_file, "--synthetic", "--policy", "adaptive",
              "--events", str(tmp_path / "none.csv")), "--events"),
            (("run", "--config", cfg_file, "--synthetic", "--policy", "greedy"),
             "policy"),
            (("compare", "--config", cfg_file, "--synthetic", "--seeds", "5..1"),
             "seed"),
            (("run", "--config", cfg_file, "--trace", str(tmp_path / "gone.csv"),
              "--policy", "static"), "gone.csv"),
            (("report", "--in", str(tmp_path / "missing.json")), "error:"),
        ]
        for argv, needle in cases:
            proc = run_cli(*argv)
            assert proc.returncode == 2, argv
            assert proc.stderr.startswith("error:"), argv
            assert needle in proc.stderr, argv

    def test_non_finite_trace_values_exit_two(self, cfg_file, tmp_path):
        # an infinite cell in the file is caught by the CSV reader
        trace_csv, _ = _write_world(cfg_file, tmp_path, edit=_set_first_co("inf"))
        for cmd in (("run", "--policy", "static"), ("compare", "--seeds", "1")):
            proc = run_cli(*cmd, "--config", cfg_file, "--trace", trace_csv)
            assert proc.returncode == 2, cmd
            assert proc.stderr.startswith("error: line 4: "), proc.stderr
        # a finite cell that an event multiplies past the float range is
        # caught by the engine's own trace check
        huge = _write_world(cfg_file, tmp_path, edit=_set_first_co("1e308"),
                            events=[trace.EventSpec(0, 0, 4, Pollutant.CO, 5.0)])
        proc = run_cli("run", "--policy", "static", "--config", cfg_file,
                       "--trace", huge[0], "--events", huge[1])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "finite" in proc.stderr, proc.stderr

    def test_event_on_unknown_zone_exits_two(self, cfg_file, tmp_path):
        trace_csv, events_csv = _write_world(
            cfg_file, tmp_path, events=[trace.EventSpec(7, 0, 4, Pollutant.CO, 3.0)])
        proc = run_cli("run", "--policy", "ucb", "--config", cfg_file,
                       "--trace", trace_csv, "--events", events_csv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and "lacks: [7]" in proc.stderr, proc.stderr

    def test_negative_event_start_exits_two(self, cfg_file, tmp_path):
        # the window [-5, 3) would change no trace value, while detection
        # would look for the event in rounds 0-2
        trace_csv, events_csv = _write_world(cfg_file, tmp_path)
        with open(events_csv, "a", encoding="utf-8") as fh:
            fh.write("0,-5,3,PM25,4.0\n")
        proc = run_cli("run", "--policy", "static", "--config", cfg_file,
                       "--trace", trace_csv, "--events", events_csv)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: line 2: bad event row: event start_round must be >= 0, got -5"], proc.stderr
        assert proc.stdout == ""

    def test_zone_labels_do_not_change_the_run(self, cfg_file, tmp_path):
        outs = []
        for labels in ((0, 1), (5, 9)):
            sub = tmp_path / f"z{labels[0]}"
            sub.mkdir()
            trace_csv, events_csv = _write_world(
                cfg_file, sub, zone_ids=labels,
                events=[trace.EventSpec(labels[0], 10, 30, Pollutant.NO2, 4.0)])
            proc = run_cli("run", "--policy", "adaptive", "--config", cfg_file, "--trace", trace_csv,
                           "--events", events_csv, "--out", str(sub / "run.json"))
            assert proc.returncode == 0, proc.stderr
            outs.append((sub / "run.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("out, problem", [
        ("missing/run.json", "No such file or directory"),
        ("a-directory", "Is a directory"),
    ], ids=["missing-directory", "directory"])
    def test_unwritable_out_names_the_path(self, cfg_file, tmp_path, out, problem):
        (tmp_path / "a-directory").mkdir()
        out = tmp_path / out
        proc = run_cli("run", "--config", cfg_file, "--synthetic", "--policy", "static", "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {problem}: {out}"]
        # the path is checked before simulating, so no metrics are printed
        assert proc.stdout == ""
        # no temp file is left behind
        assert os.listdir(tmp_path) == ["a-directory"]
        assert os.listdir(tmp_path / "a-directory") == []

    @pytest.mark.parametrize("log_path, problem", [
        ("missing/rounds.csv", "No such file or directory"),
        ("a-file/rounds.csv", "Not a directory"),
        ("a-directory", "Is a directory"),
    ], ids=["missing-directory", "parent-is-a-file", "directory"])
    def test_unwritable_round_log_fails_before_simulating(self, cfg_file, tmp_path, log_path, problem):
        (tmp_path / "a-directory").mkdir()
        (tmp_path / "a-file").write_text("")
        log_path = tmp_path / log_path
        out = tmp_path / "run.json"
        proc = run_cli("run", "--config", cfg_file, "--synthetic", "--policy", "static",
                       "--out", str(out), "--round-log", str(log_path))
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {problem}: {log_path}"]
        assert proc.stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("minutes", [45, 90, 120, 360, 1440])
    def test_round_minutes_must_divide_the_hour(self, cfg_file, minutes):
        proc = run_cli("compare", "--config", cfg_file, "--synthetic", "--seeds", "1",
                       "--set", f"round_minutes={minutes}")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: round_minutes must be a positive divisor of 60, got {minutes}"]

    def test_overflowing_noise_exits_two(self, cfg_file):
        # readings would overflow, and every table cell would read as if
        # the run were sound
        proc = run_cli("compare", "--config", cfg_file, "--synthetic", "--seeds", "1",
                       "--set", "noise_sigma=1e308")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: noise_sigma must be in [0, 1], got 1e+308"]
        assert proc.stdout == ""

    @pytest.mark.parametrize("setting", ["rounds=0", "battery_capacity=0.5"], ids=["no-rounds", "no-fundable-node"])
    def test_a_baseline_that_spends_nothing_leaves_relative_columns_empty(self, cfg_file, tmp_path, setting):
        # static spends nothing when no round runs or no node can fund an
        # activation, so there is no energy to cut from or lifetime to extend
        out = tmp_path / "cmp"
        proc = run_cli("compare", "--config", cfg_file, "--synthetic", "--seeds", "1",
                       "--set", setting, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[2:6]}
        assert rows["static"][-3:] == ["baseline"] * 3
        for policy in ("periodic", "ucb", "adaptive"):
            assert rows[policy][1] == "0.0"  # energy mAh/day
            assert rows[policy][-3] == rows[policy][-1] == "n/a"
        assert "nan" not in proc.stdout.lower()
        summary = json.loads((out / "summary.json").read_text())
        assert [p["energy_reduction_pct"] for p in summary["policies"]] == [0.0, None, None, None]

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seeds_outside_64_bits_exit_two(self, cfg_file, tmp_path, seed):
        cases = [
            (("compare", "--synthetic", f"--seeds={seed}"), "seed"),
            (("compare", "--synthetic", f"--seeds={min(seed, 0)}..{max(seed, 0)}"), "seed"),
            (("run", "--synthetic", "--policy", "static", "--seed", str(seed)), "--seed"),
            (("gen-trace", "--seed", str(seed), "--out", str(tmp_path / "t.csv")), "--seed"),
            (("run", "--synthetic", "--policy", "static", "--set", f"seed={seed}"), "seed"),
        ]
        for argv, name in cases:
            proc = run_cli(*argv, "--config", cfg_file)
            assert proc.returncode == 2, argv
            assert proc.stderr.splitlines() == [f"error: {name} must be in [0, 2**64), got {seed}"], argv
            assert proc.stdout == "", argv
        assert not (tmp_path / "t.csv").exists()

    def test_tiny_energy_costs_project_an_endless_lifetime(self, cfg_file):
        # 1e308 mAh over a spend of about 1e-4 mAh a day overflows the
        # projected lifetime, which reads inf as it does for zero spend
        proc = run_cli("compare", "--config", cfg_file, "--synthetic", "--seeds", "1",
                       "--set", "rounds=200", "--set", "energy_cost_range=1e-6,1e-6",
                       "--set", "battery_capacity=1e308")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""  # no traceback, and no overflow warning either
        rows = {line.split()[0]: line.split() for line in proc.stdout.splitlines()[2:6]}
        assert [rows[p][7] for p in ("static", "periodic", "ucb", "adaptive")] == ["inf"] * 4

    @pytest.mark.parametrize("setting, message", [
        ("energy_cost_range=1e-308,1e-308",
         "energy_cost_range must satisfy 1e-06 <= lo <= hi <= 1e+06, got (1e-308, 1e-308)"),
        ("ucb_c=1e308", "ucb_c must be in [0, 1e+06], got 1e+308"),
    ], ids=["tiny-costs", "huge-ucb-c"])
    def test_an_overflowing_ucb_index_exits_two(self, cfg_file, setting, message):
        # the bandit's index per cost would overflow to inf, and inf ties
        # rank tried nodes by id while the table reads as sound
        proc = run_cli("compare", "--config", cfg_file, "--synthetic", "--seeds", "1",
                       "--set", "rounds=200", "--set", setting)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {message}"]
        assert proc.stdout == ""

    def test_trace_values_past_the_bound_exit_two(self, cfg_file, tmp_path):
        # readings of a trace near the float maximum overflow, and the
        # table would read as if the run were sound
        cfg = load_config(cfg_file)
        hourly = trace.generate_synthetic(cfg, rng_seed=3)
        trace_csv = tmp_path / "huge.csv"
        trace.write_csv(trace.TraceSet(values=hourly.values * 1e306, zone_ids=hourly.zone_ids), str(trace_csv))
        proc = run_cli("compare", "--config", cfg_file, "--trace", str(trace_csv), "--seeds", "1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: trace values must be at most 1e+100"), proc.stderr
        assert proc.stdout == ""

    def test_out_of_memory_exits_two(self, cfg_file, monkeypatch, capsys):
        # rounds=100000000000 asks numpy for 2.18 TiB; the failure is
        # simulated, so the suite allocates nothing large
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.18 TiB for an array")

        monkeypatch.setattr(trace, "generate_synthetic", no_memory)
        code = cli.main(["compare", "--config", cfg_file, "--synthetic", "--seeds", "1",
                         "--set", "rounds=100000000000"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: out of memory: Unable to allocate 2.18 TiB for an array"]

    def test_policy_names_round_trip(self):
        for kind in PolicyKind:
            assert PolicyKind.from_name(kind.value) is kind


class TestLogging:
    def test_quiet_by_default(self, cfg_file, tmp_path):
        proc = run_cli("gen-trace", "--config", cfg_file, "--out",
                       str(tmp_path / "t.csv"), log=None)
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_debug_emits_log_lines(self, cfg_file, tmp_path):
        proc = run_cli("run", "--config", cfg_file, "--synthetic",
                       "--policy", "static", log="debug")
        assert proc.returncode == 0
        assert "edgesense" in proc.stderr

    def test_unknown_level_warns(self, cfg_file, tmp_path):
        proc = run_cli("gen-trace", "--config", cfg_file, "--out",
                       str(tmp_path / "t.csv"), log="bogus")
        assert proc.returncode == 0
        assert "not recognized" in proc.stderr


HUGE = ("1e308", "1.7976931348623157e308", "inf", "nan")
MINUTE_DIVISORS = [str(m) for m in range(1, 1441) if 1440 % m == 0]

# each field's edges: 0, 1, its validated bounds, huge and non-finite
# numbers, and for the round grid every divisor of a day's minutes; sizes
# stay within a 3 x 3 world of at most 200 rounds
EDGES = {
    "n_zones": ["-1", "0", "1", "3"],
    "nodes_per_zone": ["-1", "0", "1", "3"],
    "rounds": ["-1", "0", "1", "97", "200"] + [m for m in MINUTE_DIVISORS if int(m) <= 200],
    "round_minutes": ["-1", "0"] + MINUTE_DIVISORS,
    "budget_fraction": ["0", "1", "5e-324", "1e-308", *HUGE],
    "eta": ["0", "1", "5e-324", "0.9999999999999999", *HUGE],
    "alpha": ["0", "1", "5e-324", repr(core.MAX_REWARD_WEIGHT), *HUGE],
    "beta": ["0", "1", "5e-324", repr(core.MAX_REWARD_WEIGHT), *HUGE],
    "ucb_c": ["0", "1", repr(core.MAX_UCB_C), "1000000.0000000001", *HUGE],
    "score_floor": ["0", "1", "5e-324", *HUGE],
    "detect_threshold": ["0", "1", "5e-324", "0.9999999999999999", *HUGE],
    "periodic_period": ["0", "1", "2", str(core.MAX_PERIODIC_PERIOD), str(2 ** 63), str(10 ** 30)],
    "periodic_duty": ["0", "1", "2", str(2 ** 63), str(10 ** 30)],
    "battery_capacity": ["0", "1", "5e-324", *HUGE],
    "noise_sigma": ["0", "1", repr(core.MAX_NOISE_SIGMA), "1.0000000000000002", *HUGE],
    "seed": ["-1", "0", "1", str(2 ** 64 - 1), str(2 ** 64)],
    "energy_cost_range": [
        "0,0", "1,1", "1,0", "5e-324,1", "5e-324,5e-324", "1e-308,1e-308", "9.999999999999999e-07,1",
        f"{core.MIN_ENERGY_COST!r},{core.MIN_ENERGY_COST!r}", f"{core.MIN_ENERGY_COST!r},{core.MAX_ENERGY_COST!r}",
        "1,1000000.0000000001", "1,1e308", "1e308,1e308", "1.7976931348623157e308,1.7976931348623157e308",
    ],
    "hierarchy": ["on", "off"],
}


@st.composite
def edge_settings(draw):
    """One to three fields set to edge values, over a 2 x 2 world of 100 rounds."""
    fields = draw(st.lists(st.sampled_from(sorted(EDGES)), min_size=1, max_size=3, unique=True))
    chosen = ["n_zones=2", "nodes_per_zone=2", "rounds=100"]
    chosen += [f"{name}={draw(st.sampled_from(EDGES[name]))}" for name in fields]
    return chosen


@settings(max_examples=150)
@given(chosen=edge_settings())
def test_every_edge_setting_simulates_or_exits_two(chosen):
    argv = ["compare", "--synthetic", "--seeds", "1"]
    for item in chosen:
        argv += ["--set", item]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: "), err.getvalue()
    assert "nan" not in out.getvalue().lower()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]
