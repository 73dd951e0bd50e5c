"""Size-batched refinement against the per-topic code it replaced.

The reference_* functions are the per-topic reconstructed similarity,
transition matrix, PageRank, dissimilarity, greedy pass, cut and
`pipeline._refine_topic` as they stood before refinement ran in stacks of
equal-size topics. The stacked kernels must reproduce them bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_dense
from hotmine import pipeline
from hotmine.bundling import CoarseTopic
from hotmine.candidates import TopicCandidate
from hotmine.errors import ConvergenceError, InputError
from hotmine.interestingness import (
    TopicGraph,
    pagerank_stack,
    similarity_stack,
    transition_stack,
)
from hotmine.pipeline import DetectedTopic, PipelineConfig, run_br
from hotmine.refining import RefinedTopic, apply_cut, cut_stack, dissimilarity_stack, greedy_stack

# ------------------------------------------------------------ reference


def reference_reconstructed_similarity(topic, candidates):
    nodes = sorted(topic.members)
    pos = {node: i for i, node in enumerate(nodes)}
    m = len(nodes)
    weights = np.zeros((m, m))
    for k in topic.sources:
        cand = candidates[k]
        idx = np.asarray([pos[u] for u in cand.members if u in pos])
        if idx.size >= 2:
            weights[np.ix_(idx, idx)] += cand.weight
    np.fill_diagonal(weights, 0.0)
    return TopicGraph(tuple(nodes), weights)


def reference_transition_matrix(tg):
    weights = tg.weights
    m = len(tg.nodes)
    degrees = weights.sum(axis=1)
    p = np.full((m, m), 1.0 / m)
    live = degrees > 0.0
    p[live] = weights[live] / degrees[live, None]
    return p


def reference_pagerank(p, alpha, tol, max_iter):
    """(pi, iterations) of the per-topic power iteration."""
    m = p.shape[0]
    x = np.full(m, 1.0 / m)
    jump = (1.0 - alpha) / m
    pt = p.T.copy()
    for iteration in range(1, max_iter + 1):
        prev = x
        x = alpha * (pt @ x) + jump
        if float(np.abs(x - prev).sum()) < tol:
            return x, iteration
    raise ConvergenceError(
        f"pagerank did not converge within {max_iter} iterations (tol={tol})"
    )


def reference_dissimilarity(tg, bandwidth):
    values = np.exp(-(tg.weights ** 2) / bandwidth)
    np.fill_diagonal(values, 0.0)
    return values


def reference_greedy_select(pi, dm, lam):
    """(order, gains, deltas) lists of the per-topic greedy pass."""
    m = len(pi)
    row_acc = np.zeros(m)
    col_acc = np.zeros(m)
    selected = np.zeros(m, dtype=bool)
    order, gains = [], []
    current = lam * pi - pi * (row_acc + col_acc)
    for _ in range(m):
        masked = np.where(selected, -np.inf, current)
        j = int(np.argmax(masked))
        order.append(j)
        gains.append(float(masked[j]))
        selected[j] = True
        row_acc += pi[j] * dm[j, :]
        col_acc += dm[:, j] * pi[j]
        current = lam * pi - pi * (row_acc + col_acc)
    deltas = []
    for t in range(len(gains) - 1):
        if gains[t] <= 0.0:
            break
        deltas.append((gains[t] - gains[t + 1]) / gains[t])
    return order, gains, deltas


def reference_cut_point(deltas, margin):
    arr = np.asarray(deltas, dtype=float)
    peak = float(arr.max())
    return int(np.argmax(arr >= peak - margin))


def reference_refine_topic(topic, rank_pos, candidates, config):
    if len(topic.members) <= 2:
        return DetectedTopic(rank_pos, topic.members, topic.members, topic.sources, True)
    tg = reference_reconstructed_similarity(topic, candidates)
    pi, _ = reference_pagerank(
        reference_transition_matrix(tg), config.alpha, config.pr_tol, config.pr_max_iter
    )
    d = reference_dissimilarity(tg, config.sigma_dissim)
    order, gains, deltas = reference_greedy_select(pi, d, config.lam)
    cut = reference_cut_point(deltas, config.margin)
    return DetectedTopic(
        rank=rank_pos,
        members=frozenset(tg.nodes[i] for i in order[: cut + 1]),
        coarse_members=topic.members,
        sources=topic.sources,
        bypassed=False,
        pi=tuple(float(v) for v in pi),
        selection_order=tuple(tg.nodes[i] for i in order),
        gains=tuple(gains),
        deltas=tuple(deltas),
        cut_index=cut,
    )


def reference_detections(coarse, candidates, config):
    return [reference_refine_topic(t, pos, candidates, config) for pos, t in enumerate(coarse)]


def same_bits(got, expected):
    """Equal detections whose float fields also agree in sign of zero."""

    def floats(dets):
        return [repr((d.pi, d.gains, d.deltas)) for d in dets]

    return got == expected and floats(got) == floats(expected)


# ------------------------------------------------------------ equivalence

# Repeated weights give exact ties; zero weights and members no two-member
# source covers give zero-degree (dangling) rows.
WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 3.0]) | st.floats(
    0.0, 5.0, allow_subnormal=False
)


@st.composite
def coarse_lists(draw):
    """Coarse topics of mixed sizes, several per size and m = 3 among them,
    plus their weighted source candidates (which may reach outside)."""
    pages = 30
    topics, candidates = [], []
    for _ in range(draw(st.integers(1, 12))):
        m = draw(st.sampled_from([1, 2, 3, 3, 4, 7]))
        members = draw(st.lists(st.integers(0, pages - 1), min_size=m, max_size=m, unique=True))
        sources = []
        for _ in range(draw(st.integers(1, 4))):
            part = draw(st.lists(st.sampled_from(members), min_size=1, unique=True))
            outside = draw(st.lists(st.integers(pages, pages + 4), max_size=2, unique=True))
            sources.append(len(candidates))
            candidates.append(TopicCandidate(frozenset(part + outside), draw(WEIGHTS)))
        topics.append(CoarseTopic(frozenset(members), tuple(sources)))
    return topics, candidates


@settings(max_examples=200, deadline=None)
@given(
    case=coarse_lists(),
    max_iter=st.sampled_from([3, 200, 200]),
    margin=st.sampled_from([0.0, 0.1, 0.5]),
    lam=st.sampled_from([0.3, 2.0]),
)
def test_stacked_refine_matches_per_topic_reference(case, max_iter, margin, lam):
    # lam = 0.3 drives gains negative, so gain traces get truncated
    coarse, candidates = case
    config = PipelineConfig(pr_max_iter=max_iter, margin=margin, lam=lam)
    try:
        expected = reference_detections(coarse, candidates, config)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as got:
            pipeline._refine_topics(coarse, candidates, config, True)
        assert str(got.value) == str(exc)
        return
    assert same_bits(pipeline._refine_topics(coarse, candidates, config, True), expected)

    for m in sorted({len(t.members) for t in coarse if len(t.members) > 2}):
        group = [t for t in coarse if len(t.members) == m]
        nodes, w = similarity_stack(group, candidates)
        pi, iterations = pagerank_stack(
            transition_stack(w), config.alpha, config.pr_tol, config.pr_max_iter
        )
        order, gains, deltas, lengths = greedy_stack(
            pi, dissimilarity_stack(w, config.sigma_dissim), config.lam
        )
        cuts = cut_stack(deltas, lengths, config.margin)
        for t, topic in enumerate(group):
            tg = reference_reconstructed_similarity(topic, candidates)
            assert nodes[t].tolist() == list(tg.nodes)
            assert np.array_equal(w[t], tg.weights)
            ref_pi, ref_iterations = reference_pagerank(
                reference_transition_matrix(tg), config.alpha, config.pr_tol, config.pr_max_iter
            )
            assert np.array_equal(pi[t], ref_pi) and iterations[t] == ref_iterations
            ref_order, ref_gains, ref_deltas = reference_greedy_select(
                ref_pi, reference_dissimilarity(tg, config.sigma_dissim), config.lam
            )
            assert np.array_equal(order[t], ref_order)
            assert np.array_equal(gains[t], ref_gains)
            assert np.array_equal(deltas[t, : lengths[t]], ref_deltas)
            assert cuts[t] == reference_cut_point(ref_deltas, config.margin)


# drops from a short pool tie often; 0.0 and one-entry traces are common
DROPS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(DROPS, min_size=1, max_size=12),
    st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 2.0)),
)
def test_apply_cut_matches_reference_cut_point(deltas, margin):
    order = list(range(len(deltas) + 1))
    refined = apply_cut(RefinedTopic(order, [1.0] * len(order), deltas), margin)
    assert refined.cut_index == reference_cut_point(deltas, margin)
    assert refined.members == frozenset(order[: refined.cut_index + 1])


# ------------------------------------------------------------ similarity stack


def reference_similarity_stack(topics, candidates):
    """similarity_stack before it ran as one pass per stack: per topic, a
    dict of member positions and one block add per source."""
    if len({len(topic.members) for topic in topics}) != 1:
        raise InputError("a similarity stack needs topics of one size")
    nodes = np.array([sorted(topic.members) for topic in topics], dtype=np.int64)
    count, m = nodes.shape
    weights = np.zeros((count, m, m))
    for block, topic, row in zip(weights.reshape(count, m * m), topics, nodes.tolist()):
        pos = {node: i for i, node in enumerate(row)}
        for k in topic.sources:
            if k < 0 or k >= len(candidates):
                raise InputError(f"source index {k} outside candidate list")
            cand = candidates[k]
            if cand.weight is None:
                raise InputError(f"candidate {k} has no weight; rank before refining")
            idx = np.asarray([pos[u] for u in cand.members if u in pos])
            if idx.size >= 2:
                block[idx[:, None] * m + idx] += cand.weight
    weights.reshape(count, m * m)[:, :: m + 1] = 0.0
    return nodes, weights


@st.composite
def similarity_stacks(draw):
    """Topics of one size, each listing its own fragments and a few others
    in any order, repeats among them, so that up to seven weights add up on
    one pair; the fragments reach outside their topic, and now and then a
    source lies outside the list or has no weight."""
    m = draw(st.sampled_from([1, 2, 3, 5, 8]))
    topics, candidates, own = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        members = draw(st.lists(st.integers(0, 19), min_size=m, max_size=m, unique=True))
        topics.append(members)
        own.append(list(range(len(candidates), len(candidates) + draw(st.integers(1, 5)))))
        for _ in own[-1]:
            part = draw(st.lists(st.sampled_from(members), min_size=1, unique=True))
            outside = draw(st.lists(st.integers(0, 23), max_size=3))
            candidates.append(TopicCandidate(frozenset(part + outside), draw(WEIGHTS)))
    if draw(st.integers(0, 9)) == 0:
        candidates[-1].weight = None
    source = st.integers(0, len(candidates) - 1)
    if draw(st.integers(0, 9)) == 0:
        source = source | st.sampled_from([-1, len(candidates)])
    coarse = [
        CoarseTopic(frozenset(members), tuple(draw(st.permutations(ks + draw(st.lists(source, max_size=2))))))
        for members, ks in zip(topics, own)
    ]
    return coarse, candidates


@settings(max_examples=300, deadline=None)
@given(similarity_stacks())
def test_similarity_stack_matches_per_topic_block_adds(case):
    topics, candidates = case
    try:
        expected_nodes, expected = reference_similarity_stack(topics, candidates)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            similarity_stack(topics, candidates)
        assert str(got.value) == str(exc)
        return
    nodes, weights = similarity_stack(topics, candidates)
    assert np.array_equal(nodes, expected_nodes)
    assert weights.shape == expected.shape
    assert weights.tobytes() == expected.tobytes()


def test_similarity_stack_refuses_topics_of_two_sizes():
    candidates = [TopicCandidate(frozenset({0, 1, 2}), 0.5)]
    topics = [CoarseTopic(frozenset({0, 1}), (0,)), CoarseTopic(frozenset({0, 1, 2}), (0,))]
    with pytest.raises(InputError, match="^a similarity stack needs topics of one size$"):
        similarity_stack(topics, candidates)


# ------------------------------------------------------------ chunking


def test_chunk_bound_splits_stacks_without_changing_detections(monkeypatch):
    rng = np.random.default_rng(7)
    coarse, candidates = [], []
    for m in [3] * 5 + [4] * 3 + [9]:
        members = rng.choice(40, size=m, replace=False).tolist()
        sources = []
        for _ in range(2):
            part = rng.choice(members, size=int(rng.integers(2, m + 1)), replace=False)
            sources.append(len(candidates))
            candidates.append(TopicCandidate(frozenset(part.tolist()), float(rng.uniform(0.1, 2.0))))
        coarse.append(CoarseTopic(frozenset(members), tuple(sources)))
    config = PipelineConfig()
    shapes = []

    def spy(p, *controls):
        shapes.append(p.shape)
        return pagerank_stack(p, *controls)

    monkeypatch.setattr(pipeline, "pagerank_stack", spy)
    default = pipeline._refine_topics(coarse, candidates, config, True)
    assert shapes == [(5, 3, 3), (3, 4, 4), (1, 9, 9)]
    assert same_bits(default, reference_detections(coarse, candidates, config))

    # 20 floats: two 3x3 topics per stack, one 4x4, and the 9x9 topic is
    # larger than the bound, so it runs as a stack of one.
    shapes.clear()
    monkeypatch.setattr(pipeline, "STACK_FLOATS", 20)
    assert same_bits(pipeline._refine_topics(coarse, candidates, config, True), default)
    assert shapes == [(2, 3, 3), (2, 3, 3), (1, 3, 3)] + [(1, 4, 4)] * 3 + [(1, 9, 9)]


# ------------------------------------------------------------ pagerank cap


def cap_case():
    """Two four-page coarse topics in one stack: a weighted clique, whose
    walk mixes in a few steps, and a path, whose walk nearly oscillates.
    The path's middle edge is its heaviest, so its fragment seeds the
    bundle and both end fragments join it."""
    values = np.zeros((8, 8))
    for (i, j), v in {
        (0, 1): 0.9, (0, 2): 0.8, (0, 3): 0.3, (1, 2): 0.7, (1, 3): 0.4, (2, 3): 0.35,
        (4, 5): 0.6, (5, 6): 1.0, (6, 7): 0.5,
    }.items():
        values[i, j] = values[j, i] = v
    members = [{0, 1, 2, 3}, {0, 1, 2}, {4, 5}, {5, 6}, {6, 7}]
    return graph_from_dense(values), [TopicCandidate(frozenset(s)) for s in members]


def test_pagerank_cap_inside_a_mixed_stack():
    graph, candidates = cap_case()
    config = PipelineConfig(tau=0.1)
    bundled = run_br(config, graph, candidates, stop_after="bundle").detections
    coarse = [CoarseTopic(d.coarse_members, d.sources) for d in bundled]
    assert sorted(map(sorted, (t.members for t in coarse))) == [[0, 1, 2, 3], [4, 5, 6, 7]]
    graphs = [reference_reconstructed_similarity(t, candidates) for t in coarse]
    probe = [
        reference_pagerank(reference_transition_matrix(tg), config.alpha, config.pr_tol, 10_000)
        for tg in graphs
    ]
    fast, slow = sorted(iterations for _, iterations in probe)
    assert fast + 1 < slow

    cap = (fast + slow) // 2
    capped = PipelineConfig(tau=0.1, pr_max_iter=cap)
    with pytest.raises(ConvergenceError) as exc:
        run_br(capped, graph, candidates)
    assert str(exc.value) == (
        f"pagerank did not converge within {cap} iterations (tol={capped.pr_tol})"
    )

    # With room for both, every row stops at its own step and stays there.
    roomy = PipelineConfig(tau=0.1, pr_max_iter=slow + 50)
    _, w = similarity_stack(coarse, candidates)
    pi, iterations = pagerank_stack(
        transition_stack(w), roomy.alpha, roomy.pr_tol, roomy.pr_max_iter
    )
    for t, (ref_pi, ref_iterations) in enumerate(probe):
        assert np.array_equal(pi[t], ref_pi) and iterations[t] == ref_iterations
    detections = run_br(roomy, graph, candidates).detections
    assert same_bits(detections, reference_detections(coarse, candidates, roomy))
