"""The verdict rule of scripts/bench_pairs.py on hand-made pair samples,
and its pair loop with the benchmark runs faked."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "bench_pairs.py")

LOWER = {"name": "run_s.ucb", "better": "lower", "bound": 0.25}
HIGHER = {"name": "node_rounds_per_s", "better": "higher", "bound": 0.2}
# parent runs of one metric, median 1.0 and quartiles [0.99, 1.01]
TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
# parent runs spread wider than any bound: median 1.0, quartiles [0.725, 1.275]
WIDE = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def verdict(bench_pairs):
    return bench_pairs.verdict


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_spread(verdict):
    assert verdict(LOWER, TIGHT, [0.6] * 10) == ("gain", 10)
    # eight wins of ten is not a gain, whatever the medians say
    assert verdict(LOWER, TIGHT, [0.6] * 8 + [1.1] * 2) == ("within bound", 8)
    # ten wins that move the median by less than the spread is not a gain either
    assert verdict(LOWER, TIGHT, [x - 0.005 for x in TIGHT]) == ("within bound", 10)


def test_regression_is_a_median_worse_than_the_bound(verdict):
    assert verdict(LOWER, TIGHT, [1.3] * 10) == ("REGRESSION", 0)
    assert verdict(LOWER, TIGHT, [1.2] * 10) == ("within bound", 0)
    assert verdict(HIGHER, TIGHT, [0.7] * 10) == ("REGRESSION", 0)


def test_a_wide_parent_spread_is_unresolved(verdict):
    assert verdict(LOWER, WIDE, list(reversed(WIDE))) == ("unresolved", 5)
    assert verdict(HIGHER, WIDE, list(reversed(WIDE))) == ("unresolved", 5)


def test_a_change_that_beats_every_parent_run_is_resolved_despite_the_spread(verdict):
    # every change run beats every parent run, by less than the spread
    assert verdict(LOWER, WIDE, [0.49] * 10) == ("within bound", 10)
    assert verdict(HIGHER, WIDE, [1.51] * 10) == ("within bound", 10)
    # one change run inside the parent's range leaves it unresolved
    assert verdict(LOWER, WIDE, [0.49] * 9 + [0.55]) == ("unresolved", 10)


def test_fewer_than_ten_pairs_are_too_few_for_a_gain(verdict):
    assert verdict(LOWER, TIGHT[:9], [0.6] * 9) == ("too few pairs", 9)
    assert verdict(HIGHER, TIGHT[:4], [1.5] * 4) == ("too few pairs", 4)
    # only a gain needs the pairs: a regression shows with fewer
    assert verdict(LOWER, TIGHT[:4], [1.3] * 4) == ("REGRESSION", 0)


def fake_checkouts(tmp_path, bench_pairs, monkeypatch):
    """A parent and a change checkout whose benchmark runs are faked: the
    change halves run_s.static and leaves run_s.ucb alone. Returns their
    paths and the list of (side, seed) runs made."""
    bench = {"command": ["bench"], "run_seconds": 3, "end_to_end": [{**LOWER, "unit": "s"}, {**LOWER, "unit": "s", "name": "run_s.static"}]}
    sides = {}
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
        sides[str(tmp_path / side)] = side
    runs = []

    def run_once(command, checkout, workload, seed, seconds):
        assert (command, workload, seconds) == (["bench"], "desk", 3)
        runs.append((sides[checkout], seed))
        static = (0.5 if sides[checkout] == "change" else 1.0) + seed / 1000
        return {"correct": True, "metrics": {"run_s.static": {"value": static}, "run_s.ucb": {"value": 1.0}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return str(tmp_path / "parent"), str(tmp_path / "change"), runs


def test_pairs_run_from_the_first_seed_in_alternating_order(tmp_path, bench_pairs, monkeypatch, capsys):
    parent, change, runs = fake_checkouts(tmp_path, bench_pairs, monkeypatch)
    assert bench_pairs.main([parent, change, "--workload", "desk", "--pairs", "3", "--first-seed", "11"]) == 0
    assert runs == [("parent", 11), ("change", 11), ("change", 12), ("parent", 12), ("parent", 13), ("change", 13)]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "workload desk: 3 alternating pairs, 3 s runs, seeds 11..13"
    verdicts = {line.split()[0]: line.rsplit("  ", 1)[1] for line in out[2:]}
    assert verdicts == {"run_s.ucb": "within bound", "run_s.static": "too few pairs"}


def test_ten_pairs_default_to_seeds_one_to_ten(tmp_path, bench_pairs, monkeypatch, capsys):
    parent, change, runs = fake_checkouts(tmp_path, bench_pairs, monkeypatch)
    assert bench_pairs.main([parent, change, "--workload", "desk"]) == 0
    assert [seed for side, seed in runs if side == "change"] == list(range(1, 11))
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("seeds 1..10")
    assert out[-1].startswith("run_s.static") and out[-1].endswith("10/10  gain")
