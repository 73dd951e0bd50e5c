"""Size-batched refinement against the per-topic code it replaced.

The reference_* functions are the per-topic reconstructed similarity,
transition matrix, PageRank, dissimilarity, greedy pass, cut and
`pipeline._refine_topic` as they stood before refinement ran in stacks of
equal-size topics. The stacked kernels must reproduce them bit for bit.
reference_transition_stack, reference_pagerank_stack and
reference_dissimilarity_stack are those stack kernels as they stood when a
refine stack held four (T, m, m) arrays at a time.
"""

import tracemalloc

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
    DEFAULT_PR_TOL,
    TopicGraph,
    pagerank_stack,
    similarity_stack,
    transition_stack,
)
from hotmine.pipeline import DetectedTopic, PipelineConfig, run_br
from hotmine.refining import RefinedTopic, apply_cut, cut_stack, dissimilarity_stack, greedy_stack, marginal_gain

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


# ------------------------------------------------------------ greedy stack


def reference_greedy_stack(pi, d, lam):
    """greedy_stack as it stood with two cross sums, one fed by rows of D
    and one by a transposed (T, m, m) copy of D."""
    count, m = pi.shape
    base = np.arange(count) * m
    flat_pi, d_rows = pi.reshape(-1), d.reshape(count * m, m)
    d_cols = d.transpose(0, 2, 1).reshape(count * m, m)
    row_acc, col_acc = np.zeros((count, m)), np.zeros((count, m))
    selected = np.zeros((count, m), dtype=bool)
    order, gains = np.empty((count, m), dtype=np.int64), np.empty((count, m))
    current = lam * pi - pi * (row_acc + col_acc)
    for step in range(m):
        masked = np.where(selected, -np.inf, current)
        j = masked.argmax(axis=-1)
        k = base + j
        order[:, step], gains[:, step] = j, masked.reshape(-1)[k]
        selected.reshape(-1)[k] = True
        pj = flat_pi[k][:, None]
        row_acc += pj * d_rows[k]
        col_acc += d_cols[k] * pj
        current = lam * pi - pi * (row_acc + col_acc)
    with np.errstate(divide="ignore", invalid="ignore"):
        deltas = (gains[:, :-1] - gains[:, 1:]) / gains[:, :-1]
    stop = gains <= 0.0
    stop[:, -1] = True
    return order, gains, deltas, stop.argmax(axis=-1)


@st.composite
def greedy_instances(draw, symmetric):
    """Scores and similarity weights for a stack of T topics of m members,
    m = 1 and 2 among them; the weights are mirrored when symmetric."""
    count = draw(st.integers(1, 5))
    m = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 9)))
    weights = np.reshape(draw(st.lists(WEIGHTS, min_size=count * m * m, max_size=count * m * m)), (count, m, m))
    if symmetric:
        weights = np.triu(weights, 1)
        weights += weights.transpose(0, 2, 1)
    scores = draw(st.lists(st.floats(0.01, 1.0), min_size=count * m, max_size=count * m))
    pi = np.reshape(scores, (count, m))
    return pi / pi.sum(axis=1, keepdims=True), weights


@settings(max_examples=300, deadline=None)
@given(
    case=greedy_instances(symmetric=True),
    bandwidth=st.sampled_from([0.5, 10.0]),
    lam=st.sampled_from([0.3, 2.0]),
)
def test_greedy_stack_on_symmetric_dissimilarity_matches_two_sums(case, bandwidth, lam):
    pi, weights = case
    d = dissimilarity_stack(weights, bandwidth)
    got, want = greedy_stack(pi, d, lam), reference_greedy_stack(pi, d, lam)
    for part, array, expected in zip(("order", "gains", "deltas", "lengths"), got, want):
        assert array.tobytes() == expected.tobytes(), part


@settings(max_examples=200, deadline=None)
@given(
    case=greedy_instances(symmetric=False),
    bandwidth=st.sampled_from([0.5, 10.0]),
    lam=st.sampled_from([0.3, 2.0]),
)
def test_greedy_stack_on_asymmetric_dissimilarity_takes_the_best_marginal_gain(case, bandwidth, lam):
    pi, weights = case
    d = dissimilarity_stack(weights, bandwidth)
    order, gains, _, _ = greedy_stack(pi, d, lam)
    for t in range(len(pi)):
        chosen: list[int] = []
        for step, p in enumerate(order[t].tolist()):
            rest = [q for q in range(pi.shape[1]) if q not in chosen]
            best = max(marginal_gain(q, chosen, pi[t], d[t], lam) for q in rest)
            assert gains[t, step] == pytest.approx(marginal_gain(p, chosen, pi[t], d[t], lam), abs=1e-12)
            assert gains[t, step] >= best - 1e-12
            chosen.append(p)


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


# ------------------------------------------------------------ two stack arrays


def reference_transition_stack(weights):
    """transition_stack as it stood before it wrote P laid out as P^T."""
    if np.any(weights < 0.0):
        raise InputError("reconstructed similarity has a negative weight")
    degrees = weights.sum(axis=-1, keepdims=True)
    uniform = np.full(weights.shape, 1.0 / weights.shape[-1])
    return np.divide(weights, degrees, out=uniform, where=degrees > 0.0)


def reference_pagerank_stack(p, alpha, tol, max_iter):
    """pagerank_stack as it stood with its own copy of P^T, which it cut
    down to the live topics' rows whenever a topic stopped."""
    count, m = p.shape[0], p.shape[-1]
    x, iterations = np.full((count, m), 1.0 / m), np.zeros(count, dtype=np.int64)
    jump = (1.0 - alpha) / m
    live, cur, pt = np.arange(count), x, p.transpose(0, 2, 1).copy()
    for iteration in range(1, max_iter + 1):
        nxt = alpha * np.matmul(pt, cur[..., None])[..., 0] + jump
        done = np.abs(nxt - cur).sum(axis=-1) < tol
        cur = nxt
        if done.any():
            x[live[done]], iterations[live[done]] = nxt[done], iteration
            if done.all():
                return x, iterations
            live, cur, pt = live[~done], nxt[~done], pt[~done]
    raise ConvergenceError(
        f"pagerank did not converge within {max_iter} iterations (tol={tol})"
    )


def reference_dissimilarity_stack(weights, bandwidth):
    """dissimilarity_stack as it stood with a temporary beside its result."""
    values = np.exp(-(weights ** 2) / bandwidth)
    values.reshape(len(values), -1)[:, :: values.shape[-1] + 1] = 0.0
    return values


@st.composite
def symmetric_stacks(draw):
    """Symmetric (T, m, m) similarity stacks, T >= 2, with a zero diagonal;
    some nodes lose every edge, which leaves all-zero (dangling) rows."""
    count = draw(st.integers(2, 5))
    m = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 12)))
    values = draw(st.lists(WEIGHTS, min_size=count * m * m, max_size=count * m * m))
    weights = np.triu(np.reshape(values, (count, m, m)), 1)
    weights += weights.transpose(0, 2, 1)
    dangling = np.reshape(draw(st.lists(st.booleans(), min_size=count * m, max_size=count * m)), (count, m))
    weights[dangling] = 0.0
    weights.transpose(0, 2, 1)[dangling] = 0.0
    return weights


def assert_stacks_match_references(weights, alpha, max_iter, bandwidth):
    p, expected_p = transition_stack(weights), reference_transition_stack(weights)
    assert p.shape == expected_p.shape and p.tobytes() == expected_p.tobytes()
    assert p.transpose(0, 2, 1).flags.c_contiguous
    try:
        expected = reference_pagerank_stack(expected_p, alpha, DEFAULT_PR_TOL, max_iter)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as got:
            pagerank_stack(p, alpha, DEFAULT_PR_TOL, max_iter)
        assert str(got.value) == str(exc)
    else:
        pi, iterations = pagerank_stack(p, alpha, DEFAULT_PR_TOL, max_iter)
        assert pi.tobytes() == expected[0].tobytes()
        assert iterations.tolist() == expected[1].tolist()
        # a P laid out as itself gets the same scores through its own copy
        pi, iterations = pagerank_stack(expected_p, alpha, DEFAULT_PR_TOL, max_iter)
        assert pi.tobytes() == expected[0].tobytes()
        assert iterations.tolist() == expected[1].tolist()
    d = dissimilarity_stack(weights, bandwidth)
    assert d.tobytes() == reference_dissimilarity_stack(weights, bandwidth).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    weights=symmetric_stacks(),
    alpha=st.sampled_from([0.0, 0.5, 0.9]),
    max_iter=st.sampled_from([1, 4, 200]),
    bandwidth=st.sampled_from([0.5, 10.0]),
)
def test_stack_kernels_match_the_copies_they_replace(weights, alpha, max_iter, bandwidth):
    # max_iter 1 and 4 stop some topics before others, or hit the cap
    assert_stacks_match_references(weights, alpha, max_iter, bandwidth)


def test_stack_kernels_match_the_copies_they_replace_on_a_large_stack():
    # long enough rows for every vector loop of divide, exp and the gemv
    rng = np.random.default_rng(3)
    weights = np.triu(rng.uniform(0.0, 4.0, size=(3, 130, 130)) * (rng.random((3, 130, 130)) < 0.3), 1)
    weights += weights.transpose(0, 2, 1)
    weights[1, 7] = weights[1, :, 7] = 0.0
    assert_stacks_match_references(weights, 0.9, 200, 10.0)


def two_topic_stack(m):
    """Two coarse topics of m members and their weighted sources: one
    topic is a clique of one fragment, whose walk stops at its first step,
    the other a chain of overlapping fragments, whose walk takes longer."""
    rng = np.random.default_rng(11)
    candidates = [TopicCandidate(frozenset(range(m)), 1.5)]
    for lo in range(m, 2 * m - 10, 10):
        candidates.append(TopicCandidate(frozenset(range(lo, lo + 20)), float(rng.uniform(0.5, 2.0))))
    coarse = [
        CoarseTopic(frozenset(range(m)), (0,)),
        CoarseTopic(frozenset(range(m, 2 * m)), tuple(range(1, len(candidates)))),
    ]
    return coarse, candidates


def test_a_refine_stack_holds_two_stack_arrays_at_a_time(monkeypatch):
    m = 300
    coarse, candidates = two_topic_stack(m)
    config = PipelineConfig()
    shapes, iterations, shared = [], [], []

    def spy(p, *controls):
        real_matmul = np.matmul

        def matmul(a, *args, **kwargs):
            shared.append(bool(np.shares_memory(a, p)))
            return real_matmul(a, *args, **kwargs)

        shapes.append(p.shape)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np, "matmul", matmul)
            pi, its = pagerank_stack(p, *controls)
        iterations.append(its.tolist())
        return pi, its

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "pagerank_stack", spy)
        spied = pipeline._refine_topics(coarse, candidates, config, True)
    assert shapes == [(2, m, m)]
    # the topics stop at different steps, and P^T is p's own buffer throughout
    assert iterations[0][0] != iterations[0][1]
    assert shared and all(shared)

    tracemalloc.start()
    try:
        detections = pipeline._refine_topics(coarse, candidates, config, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bits(spied, reference_detections(coarse, candidates, config))
    assert same_bits(detections, spied)
    stack_bytes = 2 * m * m * 8
    assert peak < 2.5 * stack_bytes, f"peak {peak / stack_bytes:.2f} stack arrays"


# ------------------------------------------------------------ one stack array
# The reference_*_two_arrays functions are the refine kernels as they stood
# when a refine stack held two (T, m, m) arrays at a time: W, then P^T and D
# each in an array of its own. reference_similarity_stack builds W; it is
# pinned to similarity_stack above.


def reference_transition_stack_two_arrays(weights):
    """P laid out as P^T through strided reads of W, for any W."""
    degrees = weights.sum(axis=-1, keepdims=True).transpose(0, 2, 1)
    pt = np.full(weights.shape, 1.0 / weights.shape[-1])
    np.divide(weights.transpose(0, 2, 1), degrees, out=pt, where=degrees > 0.0)
    return pt.transpose(0, 2, 1)


def reference_pagerank_stack_two_arrays(p, alpha, tol, max_iter):
    """Every topic of the stack multiplied until the last one stops."""
    count, m = p.shape[0], p.shape[-1]
    x, iterations = np.full((count, m), 1.0 / m), np.zeros(count, dtype=np.int64)
    jump = (1.0 - alpha) / m
    live, cur, pt = np.ones(count, dtype=bool), x, np.ascontiguousarray(p.transpose(0, 2, 1))
    for iteration in range(1, max_iter + 1):
        nxt = alpha * np.matmul(pt, cur[..., None])[..., 0] + jump
        done = live & (np.abs(nxt - cur).sum(axis=-1) < tol)
        cur = nxt
        if done.any():
            x[done], iterations[done] = nxt[done], iteration
            live &= ~done
            if not live.any():
                return x, iterations
    raise ConvergenceError(f"pagerank did not converge within {max_iter} iterations (tol={tol})")


def reference_greedy_stack_two_arrays(pi, d, lam):
    """greedy_stack with a fresh -inf mask and lam * pi at every step."""
    count, m = pi.shape
    topics = np.arange(count)
    cross = np.zeros((count, m))
    selected = np.zeros((count, m), dtype=bool)
    order, gains = np.empty((count, m), dtype=np.int64), np.empty((count, m))
    current = lam * pi - pi * cross
    for step in range(m):
        masked = np.where(selected, -np.inf, current)
        j = masked.argmax(axis=-1)
        order[:, step], gains[:, step] = j, masked[topics, j]
        selected[topics, j] = True
        cross += pi[topics, j][:, None] * (d[topics, j] + d[topics, :, j])
        current = lam * pi - pi * cross
    with np.errstate(divide="ignore", invalid="ignore"):
        deltas = (gains[:, :-1] - gains[:, 1:]) / gains[:, :-1]
    stop = gains <= 0.0
    stop[:, -1] = True
    return order, gains, deltas, stop.argmax(axis=-1)


def reference_refine_topics_two_arrays(coarse, candidates, config):
    """pipeline._refine_topics composed of the two-array kernels."""
    out = [None] * len(coarse)
    sizes = {}
    for pos, topic in enumerate(coarse):
        if len(topic.members) > 2:
            sizes.setdefault(len(topic.members), []).append(pos)
        else:
            out[pos] = DetectedTopic(pos, topic.members, topic.members, topic.sources, True)
    for m, chunk in sizes.items():
        nodes, w = reference_similarity_stack([coarse[pos] for pos in chunk], candidates)
        pi, _ = reference_pagerank_stack_two_arrays(
            reference_transition_stack_two_arrays(w), config.alpha, config.pr_tol, config.pr_max_iter
        )
        d = reference_dissimilarity_stack(w, config.sigma_dissim)
        order, gains, deltas, lengths = reference_greedy_stack_two_arrays(pi, d, config.lam)
        cuts = cut_stack(deltas, lengths, config.margin).tolist()
        picked = np.take_along_axis(nodes, order, axis=1).tolist()
        for k, pos in enumerate(chunk):
            topic, sel = coarse[pos], picked[k]
            out[pos] = DetectedTopic(
                pos, frozenset(sel[: cuts[k] + 1]), topic.members, topic.sources, False,
                tuple(pi[k].tolist()), tuple(sel), tuple(gains[k].tolist()),
                tuple(deltas[k, : lengths[k]].tolist()), cuts[k],
            )
    return out


@settings(max_examples=200, deadline=None)
@given(
    case=coarse_lists(),
    max_iter=st.sampled_from([1, 4, 200]),
    lam=st.sampled_from([0.3, 2.0]),
)
def test_one_array_refine_matches_the_two_array_kernels(case, max_iter, lam):
    coarse, candidates = case
    config = PipelineConfig(pr_max_iter=max_iter, lam=lam)
    try:
        expected = reference_refine_topics_two_arrays(coarse, candidates, config)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as got:
            pipeline._refine_topics(coarse, candidates, config, True)
        assert str(got.value) == str(exc)
        return
    assert same_bits(pipeline._refine_topics(coarse, candidates, config, True), expected)


@settings(max_examples=300, deadline=None)
@given(weights=symmetric_stacks())
def test_transition_over_its_own_weights_is_the_strided_fill(weights):
    expected = reference_transition_stack_two_arrays(weights)
    assert transition_stack(weights).tobytes() == expected.tobytes()
    p = transition_stack(weights, out=weights)
    assert np.shares_memory(p, weights) and p.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    case=st.one_of(greedy_instances(symmetric=True), greedy_instances(symmetric=False)),
    bandwidth=st.sampled_from([0.5, 10.0]),
    lam=st.sampled_from([0.3, 2.0]),
)
def test_greedy_stack_matches_its_masked_steps(case, bandwidth, lam):
    pi, weights = case
    d = dissimilarity_stack(weights, bandwidth)
    got, want = greedy_stack(pi, d, lam), reference_greedy_stack_two_arrays(pi, d, lam)
    for part, array, expected in zip(("order", "gains", "deltas", "lengths"), got, want):
        assert array.tobytes() == expected.tobytes(), part


def test_a_refine_stack_holds_one_stack_array_at_a_time():
    m = 300
    coarse, candidates = two_topic_stack(m)
    config = PipelineConfig()
    tracemalloc.start()
    try:
        detections = pipeline._refine_topics(coarse, candidates, config, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bits(detections, reference_refine_topics_two_arrays(coarse, candidates, config))
    stack_bytes = 2 * m * m * 8
    assert peak < 1.5 * stack_bytes, f"peak {peak / stack_bytes:.2f} stack arrays"
