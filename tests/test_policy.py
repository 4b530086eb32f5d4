"""Selection policies: scoring, the budgeted admission kernel, and the four
per-round selectors."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesense.policy import (
    POLICY_ORDER,
    PolicyKind,
    make_policy_state,
    normalized_payoff,
    reward,
    select_budgeted,
    select_periodic,
    select_static,
    ucb_scores,
    update_utility,
)
from oracles import naive_budget_selection, ucb_index


class TestPolicyKind:
    def test_from_name(self):
        assert PolicyKind.from_name("adaptive") is PolicyKind.ADAPTIVE
        assert PolicyKind.from_name("static") is PolicyKind.STATIC

    def test_from_name_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown policy"):
            PolicyKind.from_name("greedy")

    def test_canonical_order(self):
        assert [k.value for k in POLICY_ORDER] == ["static", "periodic", "ucb", "adaptive"]


class TestScoring:
    def test_reward_formula(self):
        assert reward(0.8, 1.2, alpha=1.0, beta=0.5) == pytest.approx(0.8 - 0.6)

    def test_update_utility_is_exact_ema(self):
        assert update_utility(0.5, 1.0, eta=0.1) == pytest.approx(0.55)
        assert update_utility(0.5, 0.0, eta=0.1) == pytest.approx(0.45)

    def test_update_utility_full_rate_returns_feedback(self):
        assert update_utility(0.3, 0.9, eta=1.0) == 0.9

    def test_update_utility_rejects_bad_eta(self):
        for eta in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                update_utility(0.5, 0.5, eta)

    @given(
        utility=st.floats(0.0, 1.0),
        feedback=st.floats(0.0, 1.0),
        eta=st.floats(1e-9, 1.0),
    )
    def test_update_utility_stays_in_unit_interval(self, utility, feedback, eta):
        out = update_utility(utility, feedback, eta)
        assert 0.0 <= out <= 1.0
        assert abs(out - utility) <= eta + 1e-12

    def test_rules_apply_elementwise_to_arrays(self):
        # the engine calls these rules on whole rounds at once; each element
        # must come out bit-identical to the scalar call
        rng = np.random.default_rng(2)
        u, f = rng.uniform(0.0, 1.0, 50), rng.uniform(0.0, 1.0, 50)
        cost = rng.uniform(0.75, 1.75, 50)
        got = (update_utility(u, f, 0.1), reward(f, cost, 1.0, 0.5),
               normalized_payoff(f, cost, 1.0, 0.5, 1.75))
        want = (
            [update_utility(a, b, 0.1) for a, b in zip(u.tolist(), f.tolist())],
            [reward(a, b, 1.0, 0.5) for a, b in zip(f.tolist(), cost.tolist())],
            [normalized_payoff(a, b, 1.0, 0.5, 1.75) for a, b in zip(f.tolist(), cost.tolist())],
        )
        for g, w in zip(got, want):
            assert g.tolist() == w

    def test_make_policy_state_optimistic_start(self):
        state = make_policy_state(4, initial_utility=1.0)
        assert np.all(state.utilities == 1.0)
        assert np.all(state.ucb_counts == 0)
        assert np.all(state.ucb_means == 0.0)


class TestNormalizedPayoff:
    def test_endpoints(self):
        assert normalized_payoff(0.0, 2.0, alpha=1.0, beta=0.5, max_energy=2.0) == 0.0
        assert normalized_payoff(1.0, 0.0, alpha=1.0, beta=0.5, max_energy=2.0) == 1.0

    def test_degenerate_span_maps_to_zero(self):
        assert normalized_payoff(1.0, 1.0, alpha=0.0, beta=0.0, max_energy=2.0) == 0.0
        assert np.all(normalized_payoff(np.ones(3), np.ones(3), 0.0, 0.0, 2.0) == 0.0)

    @given(
        info_gain=st.floats(0.0, 1.0),
        alpha=st.floats(0.1, 5.0),
        beta=st.floats(0.0, 5.0),
        max_energy=st.floats(0.1, 3.0),
        frac=st.floats(0.0, 1.0),
    )
    def test_stays_in_unit_interval(self, info_gain, alpha, beta, max_energy, frac):
        out = normalized_payoff(info_gain, frac * max_energy, alpha, beta, max_energy)
        assert -1e-12 <= out <= 1.0 + 1e-12


class TestSelectBudgeted:
    def test_skip_expensive_then_fill_with_cheaper(self):
        cands = [(0, 5.0, 10.0), (1, 4.0, 3.0), (2, 3.0, 2.0)]
        res = select_budgeted(cands, budget=6.0)
        assert list(res.selected) == [1, 2]
        assert res.total_cost == pytest.approx(5.0)
        assert res.budget == 6.0

    def test_score_ties_break_by_lower_id(self):
        cands = [(2, 1.0, 1.0), (0, 1.0, 1.0), (1, 1.0, 1.0)]
        res = select_budgeted(cands, budget=2.0)
        assert list(res.selected) == [0, 1]

    def test_floor_excludes_low_scores(self):
        cands = [(0, 0.5, 1.0), (1, 0.11, 1.0)]
        res = select_budgeted(cands, budget=5.0, score_floor=0.12)
        assert list(res.selected) == [0]

    def test_floor_is_inclusive(self):
        res = select_budgeted([(0, 0.12, 1.0)], budget=5.0, score_floor=0.12)
        assert list(res.selected) == [0]

    def test_zero_budget_selects_nothing(self):
        res = select_budgeted([(0, 1.0, 0.5)], budget=0.0)
        assert list(res.selected) == []
        assert res.total_cost == 0.0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            select_budgeted([], budget=-1.0)

    def test_exact_fit_admits_everything(self):
        cands = [(0, 3.0, 1.5), (1, 2.0, 2.5)]
        res = select_budgeted(cands, budget=4.0)
        assert list(res.selected) == [0, 1]
        assert res.total_cost == 4.0

    def test_count_follows_budget_not_a_quota(self):
        cands = [(i, 1.0 / (i + 1), 1.0) for i in range(10)]
        assert select_budgeted(cands, budget=3.0).n_selected == 3
        assert select_budgeted(cands, budget=7.0).n_selected == 7

    def test_matches_naive_reference_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(300):
            n = int(rng.integers(1, 11))
            scores = np.round(rng.uniform(0.0, 1.2, n), 1)  # coarse grid forces ties
            costs = np.round(rng.uniform(0.2, 2.0, n), 2)
            budget = float(rng.uniform(0.0, costs.sum()))
            floor = float(rng.choice([0.0, 0.12, 0.5]))
            cands = list(zip(range(n), scores.tolist(), costs.tolist()))
            got = select_budgeted(cands, budget, floor)
            assert list(got.selected) == naive_budget_selection(cands, budget, floor)
            assert got.total_cost <= budget + 1e-12


class TestSelectStatic:
    def test_selects_every_node(self):
        res = select_static([3, 5, 9], [1.0, 2.0, 0.5])
        assert list(res.selected) == [3, 5, 9]
        assert res.total_cost == pytest.approx(3.5)
        assert res.budget == pytest.approx(3.5)

    def test_empty_input(self):
        res = select_static([], [])
        assert list(res.selected) == []
        assert res.total_cost == 0.0


class TestSelectPeriodic:
    def test_stagger_pattern(self):
        ids = list(range(10))
        costs = [1.0] * 10
        res = select_periodic(ids, costs, round_index=0, period=5, duty=4)
        assert list(res.selected) == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_each_node_rests_once_per_period(self):
        ids = list(range(10))
        costs = [1.0] * 10
        rests = {i: 0 for i in ids}
        for t in range(5):
            on = set(select_periodic(ids, costs, t, period=5, duty=4).selected)
            for i in ids:
                if i not in on:
                    rests[i] += 1
        assert all(n == 1 for n in rests.values())

    def test_duty_extremes(self):
        ids = [0, 1, 2]
        costs = [1.0, 1.0, 1.0]
        assert list(select_periodic(ids, costs, 3, period=5, duty=0).selected) == []
        assert list(select_periodic(ids, costs, 3, period=5, duty=5).selected) == [0, 1, 2]

    def test_validates_period_and_duty(self):
        with pytest.raises(ValueError):
            select_periodic([0], [1.0], 0, period=0, duty=0)
        with pytest.raises(ValueError):
            select_periodic([0], [1.0], 0, period=5, duty=6)


def ranked_select(scores, costs, budget, score_floor=0.0):
    """Budgeted admission over per-node scores, candidates built the way the
    engine builds them for one cluster."""
    cands = zip(range(len(costs)), np.asarray(scores).tolist(), np.asarray(costs, dtype=float).tolist())
    return select_budgeted(list(cands), budget, score_floor)


class TestUcb:
    def test_untried_node_gets_infinite_index(self):
        assert ucb_scores([0.0], [0], [1.0], 1, 1.0)[0] == math.inf

    def test_index_formula(self):
        got = ucb_scores([0.4], [9], [1.25], 100, 1.3)[0]
        assert got == pytest.approx((0.4 + 1.3 * math.sqrt(2 * math.log(100) / 9)) / 1.25)

    def test_bonus_shrinks_with_count(self):
        got = ucb_scores([0.4, 0.4], [4, 16], [1.0, 1.0], 50, 1.0)
        assert got[0] > got[1]

    def test_vector_scores_match_scalar_route(self):
        rng = np.random.default_rng(3)
        n = 40
        means = rng.uniform(0.0, 1.0, n)
        counts = rng.integers(0, 30, n)
        costs = rng.uniform(0.75, 1.75, n)
        t, c = 17, 1.3
        got = ucb_scores(means, counts, costs, t, c)
        want = np.array([
            ucb_index(means[i], int(counts[i]), t, c) / costs[i] for i in range(n)
        ])
        assert np.array_equal(got, want)
        assert np.isinf(got[counts == 0]).all()

    def test_vector_scores_validate_inputs(self):
        with pytest.raises(ValueError):
            ucb_scores([0.0], [1], [1.0], 0, 1.0)
        with pytest.raises(ValueError):
            ucb_scores([0.0], [1], [0.0], 5, 1.0)

    def test_select_ucb_cold_start_fills_budget_by_id(self):
        n = 6
        costs = np.full(n, 1.0)
        scores = ucb_scores(np.zeros(n), np.zeros(n, dtype=np.int64), costs, 1, 1.0)
        assert list(ranked_select(scores, costs, budget=3.5).selected) == [0, 1, 2]

    def test_select_ucb_prefers_cheap_high_mean_nodes(self):
        costs = np.array([1.0, 2.0, 1.0])
        scores = ucb_scores(np.array([0.9, 0.9, 0.1]), np.array([5, 5, 5]), costs, 50, 0.1)
        assert list(ranked_select(scores, costs, budget=2.0).selected) == [0, 2]


class TestSelectAdaptive:
    def test_ranks_by_utility_per_energy(self):
        utilities = np.array([0.9, 0.8, 0.2])
        costs = np.array([1.8, 0.9, 0.9])
        res = ranked_select(utilities / costs, costs, budget=2.7)
        # scores: 0.5, 0.889, 0.222 so the cheap high-utility node leads
        assert list(res.selected) == [1, 0]

    def test_floor_cuts_weak_nodes_even_with_budget_left(self):
        utilities = np.array([1.0, 0.05])
        costs = np.array([1.0, 1.0])
        res = ranked_select(utilities / costs, costs, budget=5.0, score_floor=0.12)
        assert list(res.selected) == [0]
        no_floor = ranked_select(utilities / costs, costs, budget=5.0)
        assert list(no_floor.selected) == [0, 1]
