"""Selection policies: scoring, the budgeted admission kernel, and the four
per-round selectors."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesense import policy
from edgesense.policy import (
    POLICY_ORDER,
    WIDE_FLEET,
    PolicyKind,
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
        res = select_budgeted([0, 1, 2], [5.0, 4.0, 3.0], [10.0, 3.0, 2.0], [6.0])
        assert list(res.selected) == [1, 2]
        assert list(res.cluster_left) == [1.0]

    def test_score_ties_break_by_lower_id(self):
        res = select_budgeted([2, 0, 1], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0])
        assert list(res.selected) == [0, 1]

    def test_floor_excludes_low_scores(self):
        res = select_budgeted([0, 1], [0.5, 0.11], [1.0, 1.0], [5.0], score_floor=0.12)
        assert list(res.selected) == [0]

    def test_floor_is_inclusive(self):
        res = select_budgeted([0], [0.12], [1.0], [5.0], score_floor=0.12)
        assert list(res.selected) == [0]

    def test_zero_budget_selects_nothing(self):
        res = select_budgeted([0], [1.0], [0.5], [0.0])
        assert list(res.selected) == []
        assert list(res.cluster_left) == [0.0]

    def test_exact_fit_admits_everything(self):
        res = select_budgeted([0, 1], [3.0, 2.0], [1.5, 2.5], [4.0])
        assert list(res.selected) == [0, 1]
        assert list(res.cluster_left) == [0.0]

    def test_count_follows_budget_not_a_quota(self):
        scores = [1.0 / (i + 1) for i in range(10)]
        costs = [1.0] * 10
        assert len(select_budgeted(range(10), scores, costs, [3.0]).selected) == 3
        assert len(select_budgeted(range(10), scores, costs, [7.0]).selected) == 7

    def test_only_candidates_are_admitted(self):
        res = select_budgeted([1, 3], [4.0, 3.0, 2.0, 1.0], [1.0] * 4, [10.0])
        assert list(res.selected) == [1, 3]

    def test_each_cluster_spends_its_own_budget(self):
        # two clusters of three: ids 0-2 may spend 2.0, ids 3-5 may spend 1.0
        scores = [1.0, 3.0, 2.0, 1.0, 3.0, 2.0]
        res = select_budgeted(range(6), scores, [1.0] * 6, [2.0, 1.0])
        assert list(res.selected) == [1, 2, 4]
        assert list(res.cluster_left) == [0.0, 0.0]

    def test_clusters_must_split_the_fleet_evenly(self):
        with pytest.raises(ValueError):
            select_budgeted(range(5), [1.0] * 5, [1.0] * 5, [1.0, 1.0])

    def test_matches_naive_reference_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(300):
            n = int(rng.integers(1, 11))
            scores = np.round(rng.uniform(0.0, 1.2, n), 1)  # coarse grid forces ties
            costs = np.round(rng.uniform(0.2, 2.0, n), 2)
            budget = float(rng.uniform(0.0, costs.sum()))
            floor = float(rng.choice([0.0, 0.12, 0.5]))
            cands = list(zip(range(n), scores.tolist(), costs.tolist()))
            got = select_budgeted(range(n), scores, costs, [budget], floor)
            assert list(got.selected) == naive_budget_selection(cands, budget, floor)
            assert got.cluster_left[0] >= 0

    @given(data=st.data())
    def test_clusters_match_the_naive_reference_cluster_by_cluster(self, data):
        n_clusters = data.draw(st.integers(1, 4))
        width = data.draw(st.integers(1, 8))
        n = n_clusters * width
        floor = data.draw(st.sampled_from([0.0, 0.12, 0.5]))
        # untried UCB arms score +inf; scores on the floor must be admitted
        scores = data.draw(st.lists(st.sampled_from([math.inf, floor, 0.0, 0.5]) | st.floats(0.0, 2.0),
                                    min_size=n, max_size=n))
        costs = data.draw(st.lists(st.sampled_from([0.1, 0.25, 0.75, 1.3]) | st.floats(0.05, 2.0),
                                   min_size=n, max_size=n))
        candidates = [i for i in range(n) if data.draw(st.booleans())]
        budgets = []
        for k in range(n_clusters):
            block = costs[k * width:(k + 1) * width]
            kind = data.draw(st.sampled_from(["zero", "running_sum", "any"]))
            if kind == "zero":
                budgets.append(0.0)
            elif kind == "running_sum":
                budget = 0.0
                for c in data.draw(st.permutations(block))[:data.draw(st.integers(0, width))]:
                    budget += c
                budgets.append(budget)
            else:
                budgets.append(data.draw(st.floats(0.0, sum(block) + 1.0)))

        got = select_budgeted(candidates, scores, costs, budgets, floor)

        want, want_left = [], []
        for k, budget in enumerate(budgets):
            cands = [(i, scores[i], costs[i]) for i in candidates if i // width == k]
            picked = naive_budget_selection(cands, budget, floor)
            left = budget  # the naive reference's own subtractions, in its admission order
            for i in picked:
                left -= costs[i]
            want += picked
            want_left.append(left)
        assert list(got.selected) == want
        assert list(got.cluster_left) == want_left

    @given(wide=st.booleans(), data=st.data())
    def test_both_kernels_match_the_naive_reference_around_the_threshold(self, wide, data):
        # fleets of up to 20 clusters x 50 nodes on either side of WIDE_FLEET;
        # bulk values come from a drawn seed, the shape and mix from hypothesis
        if wide:
            n_clusters = data.draw(st.integers(WIDE_FLEET // 50 + 1, 20))
            width = data.draw(st.integers(WIDE_FLEET // n_clusters + 1, 50))
        else:
            n_clusters = data.draw(st.integers(1, 20))
            width = data.draw(st.integers(1, min(50, WIDE_FLEET // n_clusters)))
        n = n_clusters * width
        assert (n > WIDE_FLEET) == wide
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        floor = data.draw(st.sampled_from([0.0, 0.12, 0.5]))
        # untried UCB arms score +inf; scores on the floor must be admitted
        scores = np.where(rng.random(n) < 0.4,
                          rng.choice([math.inf, floor, 0.0, 0.5], n), rng.uniform(0.0, 2.0, n))
        costs = np.where(rng.random(n) < 0.5,
                         rng.choice([0.1, 0.25, 0.75, 1.3], n), rng.uniform(0.05, 2.0, n))
        candidates = np.flatnonzero(rng.random(n) < data.draw(st.floats(0.0, 1.0)))
        budgets = []
        for k in range(n_clusters):
            block = costs[k * width:(k + 1) * width].tolist()
            kind = data.draw(st.sampled_from(["zero", "running_sum", "any"]))
            if kind == "zero":
                budgets.append(0.0)
            elif kind == "running_sum":
                budget = 0.0
                for i in rng.permutation(width)[:rng.integers(0, width + 1)].tolist():
                    budget += block[i]
                budgets.append(budget)
            else:
                budgets.append(float(rng.uniform(0.0, sum(block) + 1.0)))

        want, want_left = [], []
        for k, budget in enumerate(budgets):
            cands = [(i, scores[i], costs[i]) for i in candidates.tolist() if i // width == k]
            picked = naive_budget_selection(cands, budget, floor)
            left = budget  # the naive reference's own subtractions, in its admission order
            for i in picked:
                left -= costs[i]
            want += picked
            want_left.append(left)
        want_left = np.array(want_left)

        # the threshold as shipped, then each implementation forced
        for threshold in (WIDE_FLEET, n, 0):
            with mock.patch.object(policy, "WIDE_FLEET", threshold):
                got = select_budgeted(candidates, scores, costs, budgets, floor)
            assert got.selected.dtype == np.int64
            assert got.selected.tolist() == want
            assert got.cluster_left.tobytes() == want_left.tobytes()


class TestSelectStatic:
    def test_selects_every_node(self):
        ids = select_static([3, 5, 9])
        assert ids.dtype == np.int64
        assert ids.tolist() == [3, 5, 9]

    def test_empty_input(self):
        ids = select_static([])
        assert ids.dtype == np.int64
        assert ids.tolist() == []


class TestSelectPeriodic:
    def test_stagger_pattern(self):
        ids = list(range(10))
        on = select_periodic(ids, round_index=0, period=5, duty=4)
        assert on.tolist() == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_each_node_rests_once_per_period(self):
        ids = list(range(10))
        rests = {i: 0 for i in ids}
        for t in range(5):
            on = set(select_periodic(ids, t, period=5, duty=4))
            for i in ids:
                if i not in on:
                    rests[i] += 1
        assert all(n == 1 for n in rests.values())

    def test_duty_extremes(self):
        ids = [0, 1, 2]
        assert list(select_periodic(ids, 3, period=5, duty=0)) == []
        assert list(select_periodic(ids, 3, period=5, duty=5)) == [0, 1, 2]


def ranked_select(scores, costs, budget, score_floor=0.0):
    """Budgeted admission over per-node scores, every node a candidate in
    one cluster."""
    return select_budgeted(range(len(costs)), scores, costs, [budget], score_floor)


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
