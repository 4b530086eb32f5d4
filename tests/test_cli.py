"""End-to-end checks of the command line interface.

Everything here shells out to `python -m edgesense` the way a user would,
on a small two-zone world, and inspects exit codes, stdout and the files
left behind.
"""

import json
import os
import subprocess
import sys

import pytest

from edgesense import engine, trace
from edgesense.cli import parse_seed_list
from edgesense.core import Pollutant, load_config
from edgesense.policy import PolicyKind

CONFIG_TEXT = """\
# small world so every invocation stays fast
n_zones = 2
nodes_per_zone = 3
rounds = 96
round_minutes = 15
"""


def run_cli(*argv, log="quiet"):
    env = os.environ.copy()
    if log is None:
        env.pop("EDGESENSE_LOG", None)
    else:
        env["EDGESENSE_LOG"] = log
    return subprocess.run(
        [sys.executable, "-m", "edgesense", *argv],
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
    """One compare directory and one run record, built once and reused."""
    base = tmp_path_factory.mktemp("artifacts")
    cmp_dir = base / "cmp"
    run_json = base / "run.json"
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
        "--seed", "3", "--out", str(run_json), "--round-log", str(round_log),
    )
    assert proc.returncode == 0, proc.stderr
    return {
        "cmp_dir": str(cmp_dir),
        "compare_argv": compare_argv,
        "run_json": str(run_json),
        "round_log": str(round_log),
        "run_stdout": proc.stdout,
    }


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


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
        for bad in ("", "a", "3..1", "1..x"):
            with pytest.raises(ValueError):
                parse_seed_list(bad)


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
