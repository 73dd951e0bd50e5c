"""Reconstructed similarity and damped PageRank scores."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotmine.bundling import CoarseTopic
from hotmine.candidates import TopicCandidate
from hotmine.errors import ConvergenceError, InputError
from hotmine.interestingness import (
    TopicGraph,
    pagerank,
    pagerank_stack,
    reconstructed_similarity,
    transition_matrix,
)


def weighted(members, weight):
    cand = TopicCandidate(members)
    cand.weight = weight
    return cand


def star_transition():
    """4-node star: center 0 linked to 1, 2, 3 with unit weight."""
    w = np.zeros((4, 4))
    w[0, 1:] = w[1:, 0] = 1.0
    return transition_matrix(TopicGraph((0, 1, 2, 3), w))


def random_transition(rng, m):
    w = rng.uniform(0.0, 1.0, (m, m))
    w = np.triu(w, 1)
    return transition_matrix(TopicGraph(tuple(range(m)), w + w.T))


# --------------------------------------------------- reconstruction


def test_reconstruction_single_source():
    topic = CoarseTopic(frozenset({3, 5}), sources=(0,))
    tg = reconstructed_similarity(topic, [weighted({3, 5}, 0.3)])
    assert tg.nodes == (3, 5)
    np.testing.assert_allclose(tg.weights, [[0.0, 0.3], [0.3, 0.0]])


def test_reconstruction_sums_overlapping_sources():
    cands = [weighted({0, 1, 2}, 0.2), weighted({1, 2, 3}, 0.3)]
    topic = CoarseTopic(frozenset({0, 1, 2, 3}), sources=(0, 1))
    tg = reconstructed_similarity(topic, cands)
    # pair (1, 2) sits in both sources
    assert tg.weights[1, 2] == pytest.approx(0.5)
    assert tg.weights[0, 1] == pytest.approx(0.2)
    assert tg.weights[2, 3] == pytest.approx(0.3)
    assert tg.weights[0, 3] == 0.0
    assert np.all(np.diag(tg.weights) == 0.0)


def test_reconstruction_matches_pair_loop():
    rng = np.random.default_rng(7)
    cands = [
        weighted(frozenset(rng.choice(8, size=4, replace=False).tolist()),
                 float(rng.uniform(0.1, 1.0)))
        for _ in range(3)
    ]
    members = frozenset().union(*(c.members for c in cands))
    topic = CoarseTopic(members, sources=(0, 1, 2))
    tg = reconstructed_similarity(topic, cands)
    nodes = tg.nodes
    for a in range(len(nodes)):
        for b in range(len(nodes)):
            expected = 0.0
            if a != b:
                for c in cands:
                    if nodes[a] in c.members and nodes[b] in c.members:
                        expected += c.weight
            assert tg.weights[a, b] == pytest.approx(expected, abs=1e-12)


def test_reconstruction_ignores_members_outside_topic():
    # source extends past the topic; only the inside pair gets weight
    cands = [weighted({0, 1, 9}, 0.4)]
    topic = CoarseTopic(frozenset({0, 1}), sources=(0,))
    tg = reconstructed_similarity(topic, cands)
    np.testing.assert_allclose(tg.weights, [[0.0, 0.4], [0.4, 0.0]])


def test_reconstruction_rejects_bad_source_index():
    topic = CoarseTopic(frozenset({0, 1}), sources=(5,))
    with pytest.raises(InputError, match="outside candidate list"):
        reconstructed_similarity(topic, [weighted({0, 1}, 0.1)])


def test_reconstruction_requires_fitted_weights():
    topic = CoarseTopic(frozenset({0, 1}), sources=(0,))
    with pytest.raises(InputError, match="no weight"):
        reconstructed_similarity(topic, [TopicCandidate({0, 1})])


# --------------------------------------------------- transition matrix


def test_transition_two_nodes():
    tg = TopicGraph((0, 1), np.array([[0.0, 0.7], [0.7, 0.0]]))
    np.testing.assert_allclose(transition_matrix(tg), [[0.0, 1.0], [1.0, 0.0]])


def test_transition_row_proportional_to_weights():
    w = np.array([
        [0.0, 1.0, 3.0],
        [1.0, 0.0, 0.0],
        [3.0, 0.0, 0.0],
    ])
    p = transition_matrix(TopicGraph((0, 1, 2), w))
    np.testing.assert_allclose(p[0], [0.0, 0.25, 0.75])
    np.testing.assert_allclose(p.sum(axis=1), np.ones(3))


def test_transition_isolated_node_gets_uniform_row():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    p = transition_matrix(TopicGraph((0, 1, 2), w))
    np.testing.assert_allclose(p[2], [1.0 / 3.0] * 3)


def test_transition_rejects_negative_weight():
    w = np.zeros((2, 2))
    w[0, 1] = -0.5
    with pytest.raises(InputError, match="negative"):
        transition_matrix(TopicGraph((0, 1), w))


# --------------------------------------------------- pagerank


def test_pagerank_cycle_is_uniform():
    p = np.zeros((4, 4))
    for i in range(4):
        p[i, (i + 1) % 4] = 1.0
    result = pagerank(p, alpha=0.9)
    np.testing.assert_allclose(result.pi, np.full(4, 0.25), atol=1e-12)


def test_pagerank_alpha_zero_is_uniform_jump():
    p = np.zeros((3, 3))
    p[:, 0] = 1.0
    result = pagerank(p, alpha=0.0)
    np.testing.assert_allclose(result.pi, np.full(3, 1.0 / 3.0))
    assert result.iterations == 1


def test_pagerank_star_matches_linear_solve():
    p = star_transition()
    result = pagerank(p, alpha=0.9, tol=1e-9)
    m = p.shape[0]
    exact = np.linalg.solve(
        np.eye(m) - 0.9 * p.T, np.full(m, (1.0 - 0.9) / m)
    )
    np.testing.assert_allclose(
        result.pi,
        [0.48684211, 0.17105263, 0.17105263, 0.17105263],
        atol=1e-7,
    )
    assert float(np.abs(result.pi - exact).sum()) <= 1e-8
    assert result.pi.sum() == pytest.approx(1.0, abs=1e-9)


def test_power_iterates_preserve_total_mass():
    # a loose tol stops pagerank early, so this sees intermediate iterates
    rng = np.random.default_rng(12)
    p = random_transition(rng, 9)
    for tol in (1e-1, 1e-3, 1e-6, 1e-9):
        pi = pagerank(p, alpha=0.9, tol=tol).pi
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(pi > 0.0)


def test_power_iteration_contracts_at_rate_alpha():
    # The k-th iterate is alpha**k times closer to the fixed point than the
    # uniform start, and successive iterates are at most 2 * alpha**(k-1)
    # apart in L1, so the step change falls below tol by the bound below.
    rng = np.random.default_rng(13)
    p = random_transition(rng, 8)
    for alpha in (0.5, 0.85, 0.9, 0.99):
        exact = pagerank(p, alpha=alpha, tol=1e-15, max_iter=10_000).pi
        start = float(np.abs(1.0 / 8 - exact).sum())
        for tol in (1e-1, 1e-3, 1e-9, 1e-12):
            result = pagerank(p, alpha=alpha, tol=tol, max_iter=10_000)
            bound = math.ceil(math.log(tol / 2) / math.log(alpha)) + 1
            assert result.iterations <= bound
            error = float(np.abs(result.pi - exact).sum())
            assert error <= alpha**result.iterations * start + 1e-13


def test_pagerank_floor_from_random_jump():
    rng = np.random.default_rng(14)
    p = random_transition(rng, 7)
    result = pagerank(p, alpha=0.9)
    assert np.all(result.pi > (1.0 - 0.9) / 7 - 1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_pagerank_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 9))
    p = random_transition(rng, m)
    perm = rng.permutation(m)
    pi = pagerank(p, alpha=0.9, tol=1e-12, max_iter=2000).pi
    pi_perm = pagerank(p[np.ix_(perm, perm)], alpha=0.9, tol=1e-12, max_iter=2000).pi
    np.testing.assert_allclose(pi_perm, pi[perm], atol=1e-7)


@pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5])
def test_pagerank_rejects_bad_alpha(alpha):
    with pytest.raises(InputError, match="alpha"):
        pagerank(np.eye(2)[::-1].copy(), alpha=alpha)


def test_pagerank_rejects_bad_matrices():
    with pytest.raises(InputError, match="square"):
        pagerank(np.ones((2, 3)) / 3.0)
    with pytest.raises(InputError, match="negative entry"):
        pagerank(np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(InputError, match="does not sum to 1"):
        pagerank(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(InputError, match="empty"):
        pagerank(np.zeros((0, 0)))


def test_pagerank_rejects_bad_controls():
    p = np.eye(2)[::-1].copy()
    with pytest.raises(InputError, match="tol"):
        pagerank(p, tol=0.0)
    with pytest.raises(InputError, match="max_iter"):
        pagerank(p, max_iter=0)


@pytest.mark.parametrize("controls", [
    dict(tol=math.nan),  # unrefused, nan fails every stopping test: a run to the cap
    dict(tol=math.inf),
    dict(max_iter=2.5),
    dict(max_iter=True),
])
def test_pagerank_stack_refuses_the_controls_a_config_refuses(controls):
    with pytest.raises(InputError, match=f"^{next(iter(controls))} must be"):
        pagerank_stack(star_transition()[None], **controls)


def test_pagerank_raises_when_budget_too_small():
    with pytest.raises(ConvergenceError, match="did not converge"):
        pagerank(star_transition(), tol=1e-16, max_iter=2)
