"""Zone-level coordination: interest weights and proportional budget splits."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesense.hierarchy import (
    allocate_budgets,
    normalize_max,
    scalarize,
    zone_interest_weights,
)


class TestNormalizeMax:
    def test_vector(self):
        assert normalize_max(np.array([2.0, 4.0])).tolist() == [0.5, 1.0]

    def test_all_zero_stays_zero(self):
        assert normalize_max(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_empty_passthrough(self):
        assert normalize_max(np.array([])).size == 0

    def test_matrix_normalizes_per_column(self):
        m = np.array([[2.0, 0.0], [4.0, 10.0]])
        assert normalize_max(m).tolist() == [[0.5, 0.0], [1.0, 1.0]]


class TestScalarize:
    def test_column_max_then_row_mean(self):
        m = np.array([[1.0, 10.0], [2.0, 20.0]])
        assert scalarize(m).tolist() == [0.5, 1.0]

    def test_big_unit_channel_cannot_dominate(self):
        # second channel is numerically huge but identical across zones,
        # so it must not decide the ranking
        m = np.array([[5.0, 1000.0], [1.0, 1000.0]])
        out = scalarize(m)
        assert out[0] > out[1]

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="zones, pollutants"):
            scalarize(np.zeros(4))


class TestZoneInterestWeights:
    def test_formula_with_unit_gains(self):
        got = zone_interest_weights(np.array([0.0, 4.0]), np.array([3.0, 0.0]))
        assert got.tolist() == [2.0, 2.0]

    def test_quiet_zones_keep_base_weight(self):
        got = zone_interest_weights(np.zeros(3), np.zeros(3))
        assert got.tolist() == [1.0, 1.0, 1.0]

    def test_negative_trends_count_by_magnitude(self):
        got = zone_interest_weights(np.array([-4.0, 2.0]), np.zeros(2))
        assert got.tolist() == [2.0, 1.5]


class TestAllocateBudgets:
    def test_proportional_split(self):
        assert allocate_budgets(8.0, [1.0, 3.0]).tolist() == [2.0, 6.0]

    def test_all_zero_weights_split_equally_with_warning(self, caplog):
        with caplog.at_level("WARNING", logger="edgesense.hierarchy"):
            out = allocate_budgets(9.0, [0.0, 0.0, 0.0])
        assert out.tolist() == [3.0, 3.0, 3.0]
        assert any("zero" in rec.message for rec in caplog.records)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            allocate_budgets(-1.0, [1.0])
        with pytest.raises(ValueError):
            allocate_budgets(1.0, [])
        with pytest.raises(ValueError):
            allocate_budgets(1.0, [1.0, -0.5])

    @given(
        weights=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=12),
        budget=st.floats(0.0, 1e4),
    )
    def test_shares_cover_the_budget_exactly_once(self, weights, budget):
        shares = allocate_budgets(budget, weights)
        assert shares.shape == (len(weights),)
        assert np.all(shares >= 0)
        assert np.isclose(shares.sum(), budget, rtol=1e-9, atol=1e-9)

    def test_bigger_weight_never_gets_less(self):
        budgets = allocate_budgets(10.0, [0.5, 2.0, 1.0])
        assert budgets[1] > budgets[2] > budgets[0]
