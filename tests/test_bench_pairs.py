"""The verdict rule of scripts/bench_pairs.py on hand-made pair samples."""

import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "bench_pairs.py")

LOWER = {"name": "run_s.ucb", "better": "lower", "bound": 0.25}
HIGHER = {"name": "node_rounds_per_s", "better": "higher", "bound": 0.2}
# parent runs of one metric, median 1.0 and quartiles [0.99, 1.01]
TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
# parent runs spread wider than any bound: median 1.0, quartiles [0.725, 1.275]
WIDE = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]


@pytest.fixture(scope="module")
def verdict():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.verdict


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
