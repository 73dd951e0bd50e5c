"""Greedy refinement: goodness objective, gain trace, drop-based cut."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotmine.errors import InputError
from hotmine.interestingness import TopicGraph, pagerank, transition_matrix
from hotmine.oracle import brute_force_subset, sample_instance
from hotmine.refining import (
    RefinedTopic,
    apply_cut,
    cut_stack,
    dissimilarity,
    goodness,
    greedy_select,
    marginal_gain,
)


def toy_instance():
    """Two strongly linked pages plus a weakly attached pair."""
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 0.9
    w[0, 2] = w[2, 0] = 0.1
    w[1, 3] = w[3, 1] = 0.1
    tg = TopicGraph((0, 1, 2, 3), w)
    pi = pagerank(transition_matrix(tg), alpha=0.9, tol=1e-12, max_iter=2000).pi
    d = dissimilarity(tg, bandwidth=10.0)
    return tg, pi, d


def goodness_reference(selection, pi, d, lam):
    total = lam * sum(pi[i] for i in selection)
    for i in selection:
        for j in selection:
            total -= pi[i] * d[i, j] * pi[j]
    return total


# -------------------------------------------------------- dissimilarity


def test_dissimilarity_gaussian_value():
    tg = TopicGraph((0, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))
    d = dissimilarity(tg, bandwidth=10.0)
    assert d[0, 1] == pytest.approx(np.exp(-0.1))
    assert d[0, 0] == 0.0


def test_dissimilarity_decreases_with_similarity():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 0.2
    w[0, 2] = w[2, 0] = 1.5
    d = dissimilarity(TopicGraph((0, 1, 2), w))
    assert d[0, 2] < d[0, 1] < 1.0
    # absent similarity means maximal dissimilarity
    assert d[1, 2] == 1.0


@pytest.mark.parametrize("bw", [0.0, -1.0, np.inf, np.nan])
def test_dissimilarity_rejects_bad_bandwidth(bw):
    tg = TopicGraph((0, 1), np.zeros((2, 2)))
    with pytest.raises(InputError, match="bandwidth"):
        dissimilarity(tg, bandwidth=bw)


# -------------------------------------------------------- goodness


def test_goodness_matches_double_loop():
    rng = np.random.default_rng(21)
    pi, d = sample_instance(rng, 7)
    for sel in [(0,), (0, 3), (1, 2, 4, 6), tuple(range(7))]:
        assert goodness(sel, pi, d, lam=1.7) == pytest.approx(
            goodness_reference(sel, pi, d, 1.7), abs=1e-12
        )


def test_goodness_of_empty_selection_is_zero():
    rng = np.random.default_rng(22)
    pi, d = sample_instance(rng, 5)
    assert goodness([], pi, d, lam=2.0) == 0.0


def test_goodness_rejects_out_of_range_selection():
    rng = np.random.default_rng(23)
    pi, d = sample_instance(rng, 4)
    with pytest.raises(InputError, match="outside topic"):
        goodness([0, 7], pi, d)
    with pytest.raises(InputError, match="outside topic"):
        goodness([-1], pi, d)


def test_marginal_gain_equals_goodness_difference():
    rng = np.random.default_rng(24)
    pi, d = sample_instance(rng, 8)
    sel = [1, 4, 6]
    for p in (0, 2, 3, 5, 7):
        direct = marginal_gain(p, sel, pi, d, lam=2.0)
        diff = goodness(sel + [p], pi, d, lam=2.0) - goodness(sel, pi, d, lam=2.0)
        assert direct == pytest.approx(diff, abs=1e-12)


def test_marginal_gain_rejects_bad_candidates():
    rng = np.random.default_rng(25)
    pi, d = sample_instance(rng, 4)
    with pytest.raises(InputError, match="already selected"):
        marginal_gain(1, [1, 2], pi, d)
    with pytest.raises(InputError, match="outside topic"):
        marginal_gain(9, [0], pi, d)


def test_goodness_shape_mismatch():
    with pytest.raises(InputError, match="shape"):
        goodness([0], np.array([0.5, 0.5]), np.zeros((3, 3)))


# -------------------------------------------------------- greedy trace


def test_greedy_single_node():
    refined = greedy_select(np.array([1.0]), np.zeros((1, 1)), lam=2.0)
    assert refined.selection_order == [0]
    assert refined.gains == [2.0]
    assert refined.deltas == []


def test_greedy_ties_go_to_lower_index():
    pi = np.full(4, 0.25)
    refined = greedy_select(pi, np.zeros((4, 4)), lam=2.0)
    assert refined.selection_order == [0, 1, 2, 3]
    assert refined.gains == pytest.approx([0.5, 0.5, 0.5, 0.5])
    assert refined.deltas == pytest.approx([0.0, 0.0, 0.0])


def test_greedy_gains_non_increasing_and_sum_to_goodness():
    rng = np.random.default_rng(26)
    for _ in range(10):
        pi, d = sample_instance(rng, 9)
        refined = greedy_select(pi, d, lam=2.0)
        gains = np.asarray(refined.gains)
        assert np.all(gains[:-1] >= gains[1:] - 1e-12)
        for t in range(1, 10):
            prefix = refined.selection_order[:t]
            assert float(gains[:t].sum()) == pytest.approx(
                goodness(prefix, pi, d, lam=2.0), abs=1e-9
            )


def test_greedy_step_matches_marginal_gain_argmax():
    rng = np.random.default_rng(27)
    pi, d = sample_instance(rng, 7)
    refined = greedy_select(pi, d, lam=2.0)
    chosen: list[int] = []
    for t, p in enumerate(refined.selection_order):
        rest = [q for q in range(7) if q not in chosen]
        best = max(marginal_gain(q, chosen, pi, d, lam=2.0) for q in rest)
        got = marginal_gain(p, chosen, pi, d, lam=2.0)
        assert got == pytest.approx(best, abs=1e-12)
        assert refined.gains[t] == pytest.approx(got, abs=1e-12)
        chosen.append(p)


def test_greedy_rejects_scores_that_are_no_vector():
    with pytest.raises(InputError, match="^pi must be a vector$"):
        greedy_select(np.full((2, 2), 0.25), np.zeros((2, 2)))


def test_greedy_rejects_empty_topic():
    with pytest.raises(InputError, match="empty topic"):
        greedy_select(np.array([]), np.zeros((0, 0)))


def test_deltas_bounded_in_monotone_regime():
    rng = np.random.default_rng(28)
    for _ in range(20):
        n = int(rng.integers(4, 12))
        pi, d = sample_instance(rng, n, normalize=True)
        lam = float(rng.uniform(2.0, 4.0))
        refined = greedy_select(pi, d, lam=lam)
        for delta in refined.deltas:
            assert 0.0 <= delta <= 1.0


def test_deltas_truncate_at_first_non_positive_gain():
    # lam small enough that late selections turn negative
    pi = np.array([0.6, 0.3, 0.1])
    d = np.ones((3, 3)) - np.eye(3)
    refined = greedy_select(pi, d, lam=0.5)
    neg = [t for t, g in enumerate(refined.gains) if g <= 0.0]
    assert neg, "instance must exhaust its gains for this test"
    assert len(refined.deltas) == neg[0]


# -------------------------------------------------------- cut point


def cut_of(deltas, margin):
    """apply_cut's cut index on a trace of the given drops."""
    order = list(range(len(deltas) + 1))
    return apply_cut(RefinedTopic(order, [1.0] * len(order), list(deltas)), margin).cut_index


def test_cut_point_prefers_earliest_within_margin():
    cases = [([0.05, 0.9, 0.1], 1), ([0.85, 0.9, 0.1], 0), ([0.05, 0.9, 0.87], 1)]
    for deltas, cut in cases:
        assert cut_of(deltas, margin=0.1) == cut
    rows = np.array([deltas for deltas, _ in cases])
    assert cut_stack(rows, np.array([3, 3, 3]), margin=0.1).tolist() == [1, 0, 1]


def test_cut_point_zero_margin_is_argmax():
    assert cut_of([0.2, 0.7, 0.7], margin=0.0) == 1
    assert cut_stack(np.array([[0.2, 0.7, 0.7]]), np.array([3]), margin=0.0).tolist() == [1]


def test_cut_point_flat_trace_cuts_first():
    assert cut_of([0.0, 0.0, 0.0], margin=0.1) == 0
    assert cut_stack(np.zeros((1, 3)), np.array([3]), margin=0.1).tolist() == [0]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10),
    st.floats(0.0, 0.5),
    st.floats(0.0, 0.5),
)
def test_cut_point_monotone_in_margin(deltas, m1, m2):
    lo, hi = sorted((m1, m2))
    assert cut_of(deltas, margin=lo) >= cut_of(deltas, margin=hi)


def test_cut_point_validation():
    with pytest.raises(InputError, match="empty"):
        apply_cut(RefinedTopic([0], [1.0], []))
    with pytest.raises(InputError, match="empty"):
        cut_stack(np.zeros((2, 3)), np.array([3, 0]))
    with pytest.raises(InputError, match="margin"):
        apply_cut(RefinedTopic([0, 1], [1.0, 0.5], [0.5]), margin=-0.1)


# -------------------------------------------------------- end to end


def test_refine_toy_topic_keeps_the_strong_pair():
    tg, pi, d = toy_instance()
    assert d[0, 1] == pytest.approx(np.exp(-0.081), abs=1e-15)
    assert pi[0] == pytest.approx(pi[1], abs=1e-9)
    assert pi[2] == pytest.approx(pi[3], abs=1e-9)
    assert pi[0] > pi[2]
    refined = apply_cut(greedy_select(pi, d, lam=2.0), margin=0.1)
    assert refined.selection_order == [0, 1, 2, 3]
    assert refined.cut_index == 1
    assert refined.members == frozenset({0, 1})


def test_refine_planted_core_against_hangers_on():
    # dense core {0,1,2} with high scores, three low-score stragglers
    pi = np.array([0.3, 0.3, 0.3, 1.0 / 30.0, 1.0 / 30.0, 1.0 / 30.0])
    w = np.zeros((6, 6))
    core = [0, 1, 2]
    for i in core:
        for j in core:
            if i != j:
                w[i, j] = 3.0
    d = dissimilarity(TopicGraph(tuple(range(6)), w), bandwidth=10.0)
    refined = apply_cut(greedy_select(pi, d, lam=2.0), margin=0.1)
    assert refined.cut_index == 2
    assert refined.members == frozenset({0, 1, 2})
    assert refined.gains[0] == pytest.approx(0.6)


def test_greedy_meets_constant_factor_bound():
    rng = np.random.default_rng(29)
    bound = 1.0 - 1.0 / np.e
    for _ in range(20):
        n = int(rng.integers(4, 11))
        pi, d = sample_instance(rng, n, normalize=True)
        lam = float(rng.uniform(2.0, 4.0))
        refined = greedy_select(pi, d, lam=lam)
        for k in range(1, n + 1):
            greedy_val = goodness(refined.selection_order[:k], pi, d, lam=lam)
            _, best = brute_force_subset(pi, d, lam=lam, k=k)
            assert greedy_val >= bound * best - 1e-9
