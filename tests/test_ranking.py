"""Poisson-deconvolution weights and interestingness ranking."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import graph_from_dense
from hotmine.candidates import TopicCandidate
from hotmine.errors import ConvergenceError, InputError
from hotmine.ranking import (
    MEAN_GUARD,
    _Coverage,
    apply_weights,
    estimate_weights,
    iterate_weights,
    rank,
)


def pair_graph(n, pair_weights):
    vals = np.zeros((n, n))
    for (i, j), w in pair_weights.items():
        vals[i, j] = vals[j, i] = w
    return graph_from_dense(vals)


def overlap_instance():
    """Two overlapping candidates with fixed edge weights."""
    pair_w = {
        (0, 1): 0.8,
        (0, 2): 0.6,
        (1, 2): 0.9,
        (1, 3): 0.3,
        (1, 4): 0.2,
        (2, 3): 0.4,
        (3, 4): 0.25,
    }
    g = pair_graph(5, pair_w)
    c1, c2 = frozenset({0, 1, 2}), frozenset({1, 2, 3, 4})
    return g, [TopicCandidate(c1), TopicCandidate(c2)], pair_w, c1, c2


def grid_mle(pair_w, c1, c2, n):
    """Exhaustive two-candidate likelihood maximizer on a refined grid."""
    only1 = [p for p in combinations(sorted(c1), 2) if not set(p) <= c2]
    only2 = [p for p in combinations(sorted(c2), 2) if not set(p) <= c1]
    both = [p for p in combinations(range(n), 2) if set(p) <= c1 and set(p) <= c2]
    s1 = sum(pair_w.get(p, 0.0) for p in only1)
    s2 = sum(pair_w.get(p, 0.0) for p in only2)
    sb = sum(pair_w.get(p, 0.0) for p in both)
    n1, n2, nb = len(only1), len(only2), len(both)

    def best_on(lo1, hi1, lo2, hi2, step):
        u1 = np.arange(lo1, hi1 + step / 2, step)
        u2 = np.arange(lo2, hi2 + step / 2, step)
        m1, m2 = np.meshgrid(u1, u2, indexing="ij")
        with np.errstate(divide="ignore", invalid="ignore"):
            ll = (
                np.where(s1 > 0, s1 * np.log(m1), 0.0)
                + np.where(s2 > 0, s2 * np.log(m2), 0.0)
                + np.where(sb > 0, sb * np.log(m1 + m2), 0.0)
                - n1 * m1
                - n2 * m2
                - nb * (m1 + m2)
            )
        ll = np.where(np.isnan(ll), -np.inf, ll)
        k = np.unravel_index(np.argmax(ll), ll.shape)
        return float(u1[k[0]]), float(u2[k[1]])

    g1, g2 = best_on(0.0, 2.0, 0.0, 2.0, 1e-2)
    return best_on(
        max(g1 - 2e-2, 0.0), g1 + 2e-2, max(g2 - 2e-2, 0.0), g2 + 2e-2, 1e-4
    )


# --------------------------------------------------------------- weights


def test_single_edge_single_candidate_recovers_weight():
    g = pair_graph(2, {(0, 1): 0.6})
    mu = estimate_weights(g, [TopicCandidate({0, 1})])
    assert mu[0] == pytest.approx(0.6, abs=1e-9)


def test_disjoint_candidates_recover_per_candidate_means():
    # pair (1, 2) is inside the first candidate but carries no edge, so it
    # still counts in that candidate's mean as a zero
    pair_w = {(0, 1): 0.6, (0, 2): 0.4, (3, 4): 0.9, (3, 5): 0.5, (4, 5): 0.7}
    g = pair_graph(6, pair_w)
    cands = [TopicCandidate({0, 1, 2}), TopicCandidate({3, 4, 5})]
    mu = estimate_weights(g, cands)
    np.testing.assert_allclose(mu, [1.0 / 3.0, 0.7], atol=1e-6)


def test_overlapping_candidates_match_grid_search():
    g, cands, pair_w, c1, c2 = overlap_instance()
    mu = estimate_weights(g, cands, max_iter=5000, tol=1e-12)
    g1, g2 = grid_mle(pair_w, c1, c2, 5)
    assert abs(mu[0] - g1) <= 1e-4
    assert abs(mu[1] - g2) <= 1e-4


def test_log_likelihood_non_decreasing():
    rng = np.random.default_rng(3)
    vals = rng.uniform(0.0, 1.0, (10, 10))
    vals = np.triu(vals, 1)
    g = graph_from_dense(vals + vals.T)
    cands = [
        TopicCandidate(frozenset(rng.choice(10, size=4, replace=False).tolist()))
        for _ in range(5)
    ]
    cov = _Coverage(g, cands)
    previous = -np.inf
    for mu in iterate_weights(g, cands, max_iter=300, tol=1e-9):
        current = cov.log_likelihood(mu)
        assert current >= previous - 1e-10
        previous = current


def test_weights_stay_nonnegative():
    g, cands, *_ = overlap_instance()
    for mu in iterate_weights(g, cands, max_iter=100, tol=1e-9):
        assert np.all(mu >= 0.0)


def test_disjoint_tiling_conserves_total_edge_weight():
    pair_w = {(0, 1): 0.6, (0, 2): 0.4, (1, 2): 0.2, (3, 4): 0.8}
    g = pair_graph(5, pair_w)
    cands = [TopicCandidate({0, 1, 2}), TopicCandidate({3, 4})]
    mu = estimate_weights(g, cands, tol=1e-10)
    covered = mu[0] * 3 + mu[1] * 1
    assert covered == pytest.approx(sum(pair_w.values()), abs=1e-6)


def test_scaling_similarities_scales_weights():
    g, cands, pair_w, c1, c2 = overlap_instance()
    half = pair_graph(5, {p: w / 2.0 for p, w in pair_w.items()})
    mu_full = estimate_weights(g, [TopicCandidate(c1), TopicCandidate(c2)], tol=1e-10)
    mu_half = estimate_weights(half, [TopicCandidate(c1), TopicCandidate(c2)], tol=1e-10)
    np.testing.assert_allclose(mu_half, mu_full / 2.0, rtol=1e-6)
    assert np.argsort(mu_half).tolist() == np.argsort(mu_full).tolist()


def test_singleton_candidate_stays_at_zero():
    g = pair_graph(3, {(0, 1): 0.5})
    cands = [TopicCandidate({0, 1}), TopicCandidate({2})]
    mu = estimate_weights(g, cands)
    assert mu[1] == 0.0


def test_poisson_log_likelihood_matches_closed_form():
    g = pair_graph(2, {(0, 1): 0.6})
    cands = [TopicCandidate({0, 1})]
    mu = np.array([0.5])
    assert _Coverage(g, cands).log_likelihood(mu) == pytest.approx(
        0.6 * np.log(0.5) - 0.5, abs=1e-12
    )


# ------------------------------------------------- pair-enumerating reference


def reference_fit(g, candidates, max_iter, tol):
    """The fit over every covered pair, edge or not, one pair dict entry per
    pair: the coverage build and update loop that the covered-edge version
    replaced. Returns the iterates and the log-likelihood function."""
    if not candidates:
        raise InputError("no candidates to weight")
    dense = g.adjacency.toarray()
    pair_index = {}
    cand_rows = []
    for cand in candidates:
        members = cand.sorted_members()
        if members and members[-1] >= g.n:
            raise InputError(f"candidate member {members[-1]} outside graph (n={g.n})")
        rows = [
            pair_index.setdefault(pair, len(pair_index))
            for pair in combinations(members, 2)
        ]
        cand_rows.append(np.asarray(rows, dtype=np.int64))
    n_pairs = len(pair_index)
    a = np.zeros(n_pairs)
    for (i, j), row in pair_index.items():
        a[row] = dense[i, j]
    if n_pairs == 0 or not np.any(a > 0.0):
        raise InputError("no candidate covers any edge of the graph")
    indptr = np.zeros(len(candidates) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(r) for r in cand_rows])
    indices = np.concatenate(cand_rows)
    membership = sp.csc_matrix(
        (np.ones(len(indices)), indices, indptr), shape=(n_pairs, len(candidates))
    )
    pair_counts = np.asarray([len(r) for r in cand_rows], dtype=float)

    def log_likelihood(mu):
        w = membership @ mu
        pos = a > 0.0
        with np.errstate(divide="ignore"):
            return float(-w.sum() + np.dot(a[pos], np.log(w[pos])))

    mu = np.full(len(candidates), float(a.sum()) / pair_counts.sum())
    mu[pair_counts == 0] = 0.0
    counts = np.maximum(pair_counts, 1.0)
    iterates = []
    for _ in range(max_iter):
        w = membership @ mu
        ratio = a / np.maximum(w, MEAN_GUARD)
        mu_new = mu * (membership.T @ ratio) / counts
        change = np.max(np.abs(mu_new - mu) / np.maximum(mu, MEAN_GUARD))
        mu = mu_new
        iterates.append(mu.copy())
        if change < tol:
            break
    return iterates, log_likelihood


@st.composite
def fit_instances(draw):
    """Small graphs with candidate lists that mix singletons, duplicates,
    edgeless candidates, overlaps and, now and then, a member outside."""
    n = draw(st.integers(2, 9))
    weight = st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.sampled_from([0.1, 0.3, 1.0]))
    vals = np.zeros((n, n))
    for i, j in combinations(range(n), 2):
        vals[i, j] = vals[j, i] = draw(weight)
    reach = n + draw(st.sampled_from([0, 0, 0, 1]))
    member_sets = st.sets(st.integers(0, reach - 1), min_size=1, max_size=reach)
    sets = draw(st.lists(member_sets, min_size=1, max_size=8))
    sets += draw(st.lists(st.sampled_from(sets), max_size=3))  # duplicates
    order = draw(st.permutations(range(len(sets))))
    return graph_from_dense(vals), [TopicCandidate(sets[k]) for k in order]


@st.composite
def cascade_instances(draw):
    """Nested candidates as a threshold cascade makes them: unions and
    subsets of a few base blocks of shuffled pages, duplicates, singletons
    and, now and then, a member outside the graph; so classes hold many
    pages, interleaved by index, and class pairs have many holders."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    vals = np.triu(rng.uniform(0.01, 1.0, (n, n)) * (rng.uniform(0.0, 1.0, (n, n)) < density), 1)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4)))
    pages = rng.permutation(n).tolist()
    blocks = [frozenset(pages[lo:hi]) for lo, hi in zip([0, *cuts], [*cuts, n])]
    block = st.sampled_from(blocks)
    shapes = st.one_of(
        st.lists(block, min_size=1, max_size=4).map(lambda bs: frozenset().union(*bs)),  # unions
        block.flatmap(lambda b: st.sets(st.sampled_from(sorted(b)), min_size=1)),  # subsets
        st.integers(0, n - 1).map(lambda page: {page}),  # singletons
    )
    sets = draw(st.lists(shapes, min_size=1, max_size=10))
    sets += draw(st.lists(st.sampled_from(sets), max_size=4))  # duplicates
    order = draw(st.permutations(range(len(sets))))
    sets = [sets[k] for k in order]
    if draw(st.integers(0, 9)) == 0:
        k = draw(st.integers(0, len(sets) - 1))
        sets[k] = set(sets[k]) | {n + draw(st.integers(0, 2))}
    return graph_from_dense(vals + vals.T), [TopicCandidate(s) for s in sets]


def ring_graph(n):
    return pair_graph(n, {(i, (i + 1) % n): 0.1 * (1 + i % 3) for i in range(n)})


# Hand-made class structures, each given to every test of the coverage build.
CLASS_EXAMPLES = [
    (graph_from_dense(np.zeros((4, 4))), [TopicCandidate(s) for s in ({0, 1, 2}, {1, 2, 3})]),  # edgeless
    (ring_graph(6), [TopicCandidate(s) for s in (range(6), {0, 3, 5}, {4, 1})]),  # one holds every page
    (ring_graph(6), [TopicCandidate(s) for s in ({0, 2, 4}, {0, 2, 4}, {1, 2, 5})]),  # two identical
    (ring_graph(7), [TopicCandidate(s) for s in ({2, 5, 0}, {2, 5, 1, 3, 6}, {2, 5}, {2, 4, 5})]),  # one class in all
]


def class_examples(*rest):
    """An @example per CLASS_EXAMPLES instance; rest fills the test's other
    arguments."""
    def decorate(test):
        for instance in CLASS_EXAMPLES:
            test = example(instance, *rest)(test)
        return test
    return decorate


COVERAGE_INSTANCES = st.one_of(fit_instances(), cascade_instances())


@settings(max_examples=300, deadline=None)
@given(COVERAGE_INSTANCES, st.integers(1, 60), st.sampled_from([1e-3, 1e-6, 1e-9]))
@class_examples(60, 1e-9)
def test_fit_matches_pair_enumerating_reference(instance, max_iter, tol):
    g, cands = instance
    try:
        expected, expected_ll = reference_fit(g, cands, max_iter + 1, tol)
    except InputError:
        with pytest.raises(InputError):
            list(iterate_weights(g, cands, max_iter=max_iter + 1, tol=tol))
        with pytest.raises(InputError):
            estimate_weights(g, cands, max_iter=max_iter, tol=tol)
        return
    got = list(iterate_weights(g, cands, max_iter=max_iter + 1, tol=tol))
    assert len(got) == len(expected)
    cov = _Coverage(g, cands)
    for mu, ref in zip(got, expected):
        assert np.array_equal(mu, ref)
        assert cov.log_likelihood(mu) == pytest.approx(
            expected_ll(ref), rel=1e-9, abs=1e-9
        )
    if len(expected) > max_iter:
        with pytest.raises(ConvergenceError):
            estimate_weights(g, cands, max_iter=max_iter, tol=tol)
    else:
        assert np.array_equal(estimate_weights(g, cands, max_iter=max_iter, tol=tol), expected[-1])


def spare_update_fit(g, candidates, max_iter, tol):
    """estimate_weights as it stood: up to max_iter + 1 updates, and a fit
    that took the spare one raised. Returns the weights, or None where it
    raised, and every iterate from the starting guess on."""
    cov = _Coverage(g, candidates)
    mu = np.full(len(cov.pair_counts), cov.mu0)
    mu[cov.pair_counts == 0] = 0.0
    counts = np.maximum(cov.pair_counts, 1.0)
    iterates = [mu]
    for _ in range(max_iter + 1):
        ratio = cov.a / np.maximum(cov.mean(mu), MEAN_GUARD)
        mu_new = mu * cov.numerator(ratio) / counts
        change = np.max(np.abs(mu_new - mu) / np.maximum(mu, MEAN_GUARD))
        mu = mu_new
        iterates.append(mu.copy())
        if change < tol:
            break
    return (None if len(iterates) > max_iter + 1 else iterates[-1]), iterates


def drain(steps):
    """The iterates a fit yields, and the verdict it returns."""
    iterates = []
    try:
        while True:
            iterates.append(next(steps))
    except StopIteration as stop:
        return iterates, stop.value


@settings(max_examples=300, deadline=None)
@given(COVERAGE_INSTANCES, st.integers(1, 60), st.sampled_from([1e-3, 1e-6, 1e-9]))
@class_examples(60, 1e-9)
def test_fit_stops_where_the_spare_update_rule_stops(instance, max_iter, tol):
    g, cands = instance
    try:
        want, iterates = spare_update_fit(g, cands, max_iter, tol)
    except InputError:
        with pytest.raises(InputError):
            estimate_weights(g, cands, max_iter=max_iter, tol=tol)
        return
    got, verdict = drain(iterate_weights(g, cands, max_iter=max_iter, tol=tol))
    assert len(got) == min(len(iterates) - 1, max_iter)
    for mu, ref in zip(got, iterates[1:]):
        assert mu.tobytes() == ref.tobytes()
    if want is None:
        previous = iterates[max_iter - 1]
        change = np.abs(got[-1] - previous) / np.maximum(previous, MEAN_GUARD)
        assert verdict.tobytes() == change.tobytes()
        with pytest.raises(ConvergenceError):
            estimate_weights(g, cands, max_iter=max_iter, tol=tol)
    else:
        assert verdict is None
        assert estimate_weights(g, cands, max_iter=max_iter, tol=tol).tobytes() == want.tobytes()


def reference_coverage(g, candidates):
    """The scipy coverage build that the one-sort build replaced: np.unique
    over the concatenated pair keys, a lookup in the adjacency matrix, and
    a CSC membership matrix of covered edges x candidates."""
    n = g.n
    keys = []
    for cand in candidates:
        members = np.asarray(cand.sorted_members(), dtype=np.int64)
        iu, ju = np.triu_indices(len(members), 1)
        keys.append(members[iu] * n + members[ju])
    n_pairs = np.asarray([len(k) for k in keys])
    pairs, first, inverse = np.unique(np.concatenate(keys), return_index=True, return_inverse=True)
    a = np.asarray(g.adjacency[pairs // n, pairs % n]).ravel()
    mu0 = float(a[np.argsort(first)].sum()) / float(n_pairs.sum())
    edge = a > 0.0
    kept = edge[inverse]
    rows = (np.cumsum(edge) - 1)[inverse[kept]]
    owner = np.repeat(np.arange(len(candidates)), n_pairs)[kept]
    shape = (int(edge.sum()), len(candidates))
    return mu0, a[edge], sp.csc_matrix((np.ones(len(rows)), (rows, owner)), shape=shape)


VECTOR_ENTRIES = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(1e-6, 10.0))
VECTORS = st.lists(VECTOR_ENTRIES, min_size=64, max_size=64)


@settings(max_examples=300, deadline=None)
@given(COVERAGE_INSTANCES, VECTORS, VECTORS)
@class_examples([0.0, 0.5, 1.0, 2.25] * 16, [1.0, 0.0, 0.5, 7.0, 1e-6, 0.5, 3.0, 0.25] * 8)
def test_coverage_matches_scipy_build(instance, mu_entries, ratio_entries):
    """Pair lookup, starting guess and both membership products against
    the scipy code, bit for bit; ties and zeros are common in the vectors,
    drawn 64 entries at a time and cut to the length each product needs
    (repeated past 64, which only a large cascade instance reaches)."""
    g, cands = instance
    try:
        reference_fit(g, cands, 1, 1e-6)
    except InputError:
        with pytest.raises(InputError):
            _Coverage(g, cands)
        return
    mu0, a, membership = reference_coverage(g, cands)
    cov = _Coverage(g, cands)
    assert cov.mu0 == mu0
    assert np.array_equal(cov.a, a)
    mu = np.resize(np.array(mu_entries), len(cands))
    ratio = np.resize(np.array(ratio_entries), len(a))
    assert np.array_equal(cov.mean(mu), membership @ mu)
    assert np.array_equal(cov.numerator(ratio), membership.T @ ratio)


def reference_coverage_arrays(g, candidates):
    """Every array of the coverage build as it stood with one key loop per
    candidate (each candidate's members, its triu_indices keys and its
    pages' holders in one pass), before the coverage came from page classes."""
    if not candidates:
        raise InputError("no candidates to weight")
    n = g.n
    sizes = np.asarray([cand.size for cand in candidates], dtype=np.int64)
    n_pairs = sizes * (sizes - 1) // 2
    ends = np.cumsum(n_pairs)
    keys = np.empty(int(ends[-1]), dtype=np.int64)
    triu = {}
    holders = {}
    for k, (cand, end) in enumerate(zip(candidates, ends.tolist())):
        members = np.asarray(cand.sorted_members(), dtype=np.int64)
        if members[-1] >= n:
            raise InputError(f"candidate member {members[-1]} outside graph (n={n})")
        if len(members) not in triu:
            triu[len(members)] = np.triu_indices(len(members), 1)
        iu, ju = triu[len(members)]
        keys[end - len(iu) : end] = members[iu] * n + members[ju]
        for page in cand.members:
            holders.setdefault(page, []).append(k)
    if not len(keys):
        raise InputError("no candidate covers any edge of the graph")
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    head = np.concatenate(([True], keys[1:] != keys[:-1]))
    pairs, starts = keys[head], np.flatnonzero(head)
    graph_keys = g.keys()
    at = np.minimum(np.searchsorted(pairs, graph_keys), len(pairs) - 1)
    hit = pairs[at] == graph_keys
    a = np.zeros(len(pairs))
    a[at[hit]] = g.data[hit]
    first, in_first_order = np.zeros(len(order), dtype=bool), np.zeros(len(order))
    first[order[starts]], in_first_order[order[starts]] = True, a
    out = {"mu0": float(in_first_order[first].sum()) / float(ends[-1])}
    edge = a > 0.0
    if not edge.any():
        raise InputError("no candidate covers any edge of the graph")
    run_lengths = np.diff(starts, append=len(order))
    out["rows"] = np.repeat(np.arange(int(edge.sum())), run_lengths[edge])
    out["owner"] = np.searchsorted(ends, order[np.repeat(edge, run_lengths)], side="right")
    classes = {}
    page_class = np.zeros(n, dtype=np.int64)
    page_class[list(holders)] = [classes.setdefault(tuple(h), len(classes)) for h in holders.values()]
    edges = pairs[edge]
    class_pair = page_class[edges // n] * len(classes) + page_class[edges % n]
    _, firsts, out["edge_class"] = np.unique(class_pair, return_index=True, return_inverse=True)
    representative = np.isin(out["rows"], firsts)
    out["class_rows"] = out["edge_class"][out["rows"][representative]]
    out["class_owner"] = out["owner"][representative]
    out["a"] = a[edge]
    out["pair_counts"] = n_pairs.astype(float)
    return out


@st.composite
def block_instances(draw):
    """Graphs of up to 40 pages whose candidates mix many sizes and
    overlap at random, so that most classes hold a page or two."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = np.triu(rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(0.0, 1.0, (n, n)) < 0.3), 1)
    reach = n + draw(st.sampled_from([0, 0, 0, 1, 3]))  # outside members differ
    member_sets = st.sets(st.integers(0, reach - 1), min_size=1, max_size=min(reach, 12))
    sets = draw(st.lists(member_sets, min_size=1, max_size=30))
    return graph_from_dense(vals + vals.T), [TopicCandidate(s) for s in sets]


@settings(max_examples=300, deadline=None)
@given(st.one_of(fit_instances(), block_instances(), cascade_instances()))
# the message names the first candidate reaching outside, by its largest member
@example((pair_graph(4, {(0, 1): 0.5}), [TopicCandidate(s) for s in ({0, 1}, {2, 9}, {0, 6})]))
@class_examples()
def test_coverage_arrays_match_the_per_candidate_key_loop(instance):
    g, cands = instance
    try:
        expected = reference_coverage_arrays(g, cands)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            _Coverage(g, cands)
        assert str(got.value) == str(exc)
        return
    cov = vars(_Coverage(g, cands))
    assert sorted(cov) == sorted(expected)
    assert repr(cov.pop("mu0")) == repr(expected.pop("mu0"))  # the same bits
    for name, array in expected.items():
        assert cov[name].dtype == array.dtype, name
        assert np.array_equal(cov[name], array), name


def test_coverage_memory_follows_distinct_pairs_not_incidences():
    """A cascade's nesting: 30 nested ranges of 370-399 pages and 8
    fragments of 20 pages inside them. That is about 2.2M (pair, candidate)
    incidences but about 79k distinct covered pairs. The build's traced peak
    stays within a few int64s per distinct pair; one int64 key per
    incidence alone would take 17 MB."""
    rng = np.random.default_rng(0)
    n = 420
    g = pair_graph(n, {(i, int(j)): 0.5 for i in range(n) for j in rng.choice(n, 4) if j != i})
    cands = [TopicCandidate(range(370 + t)) for t in range(30)]
    cands += [TopicCandidate(range(start, start + 20)) for start in range(0, 400, 50)]
    incidences = sum(c.size * (c.size - 1) // 2 for c in cands)
    distinct = len({pair for c in cands for pair in combinations(sorted(c.members), 2)})
    assert incidences > 2_200_000 and distinct < 80_000
    tracemalloc.start()
    try:
        _Coverage(g, cands)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * distinct


# --------------------------------------------------------------- ranking


def test_interestingness_is_weight_times_size():
    cands = [TopicCandidate({0, 1, 2, 3}), TopicCandidate({4, 5})]
    apply_weights(cands, np.array([0.5, 0.5]))
    assert [c.interestingness for c in cands] == [2.0, 1.0]
    ranked = rank(cands)
    assert ranked.indices == [0, 1]
    assert ranked.items[0].size == 4


def test_rank_ties_keep_input_order():
    cands = [TopicCandidate({0, 1}), TopicCandidate({2, 3}), TopicCandidate({4, 5})]
    apply_weights(cands, np.array([0.3, 0.3, 0.9]))
    ranked = rank(cands)
    assert ranked.indices == [2, 0, 1]
    assert ranked.items[0].members == frozenset({4, 5})


def test_rank_requires_weights():
    with pytest.raises(InputError, match="no weight"):
        rank([TopicCandidate({0, 1})])


def test_rank_rejects_a_negative_weight():
    cands = [TopicCandidate({0, 1}, 0.2), TopicCandidate({2, 3}, -0.5)]
    with pytest.raises(InputError, match="^candidate 1 has negative weight$"):
        rank(cands)


def test_rank_rejects_empty_list():
    with pytest.raises(InputError, match="no candidates"):
        rank([])


def test_apply_weights_validates():
    cands = [TopicCandidate({0, 1})]
    with pytest.raises(InputError, match="length"):
        apply_weights(cands, np.array([0.1, 0.2]))
    with pytest.raises(InputError, match="nonnegative"):
        apply_weights(cands, np.array([-0.1]))


# --------------------------------------------------------------- errors


def test_estimate_rejects_empty_candidate_list():
    g = pair_graph(2, {(0, 1): 0.5})
    with pytest.raises(InputError, match="no candidates"):
        estimate_weights(g, [])


def test_estimate_rejects_uncovered_graph():
    g = pair_graph(4, {(0, 1): 0.5})
    with pytest.raises(InputError, match="covers any edge"):
        estimate_weights(g, [TopicCandidate({2, 3})])
    with pytest.raises(InputError, match="covers any edge"):
        estimate_weights(g, [TopicCandidate({2})])


def test_estimate_rejects_member_outside_graph():
    g = pair_graph(3, {(0, 1): 0.5})
    with pytest.raises(InputError, match="outside graph"):
        estimate_weights(g, [TopicCandidate({0, 7})])


def test_iterate_validates_controls():
    g = pair_graph(2, {(0, 1): 0.5})
    cands = [TopicCandidate({0, 1})]
    with pytest.raises(InputError, match="max_iter"):
        list(iterate_weights(g, cands, max_iter=0))
    with pytest.raises(InputError, match="max_iter"):
        estimate_weights(g, cands, max_iter=0)
    with pytest.raises(InputError, match="tol"):
        list(iterate_weights(g, cands, tol=0.0))


@pytest.mark.parametrize("controls", [
    dict(tol=float("nan")),  # unrefused, nan fails every stopping test: a run to the cap
    dict(tol=float("inf")),
    dict(max_iter=2.5),
    dict(max_iter=True),
])
@pytest.mark.parametrize("fit", [estimate_weights, lambda *args, **kw: list(iterate_weights(*args, **kw))])
def test_fit_refuses_the_controls_a_config_refuses(fit, controls):
    g = pair_graph(2, {(0, 1): 0.5})
    with pytest.raises(InputError, match=f"^{next(iter(controls))} must be"):
        fit(g, [TopicCandidate({0, 1})], **controls)


def test_estimate_raises_when_cap_hit():
    g, cands, *_ = overlap_instance()
    steps = list(iterate_weights(g, cands, max_iter=5000, tol=1e-12))
    assert 1 < len(steps) < 5000
    # converging on the last allowed step still returns the fitted weights
    mu = estimate_weights(g, cands, max_iter=len(steps), tol=1e-12)
    np.testing.assert_array_equal(mu, steps[-1])
    with pytest.raises(ConvergenceError, match="did not converge within"):
        estimate_weights(g, cands, max_iter=len(steps) - 1, tol=1e-12)


def test_convergence_error_names_the_slowest_candidate():
    # B = {0, 1} covers only the edge that A = {0, 1, 2} also covers, and
    # that edge is lighter than A's other two: B's weight shrinks by about
    # 1.4% per update around step 100, so the fit crawls to B = 0
    g = pair_graph(3, {(0, 1): 0.8, (0, 2): 0.81, (1, 2): 0.81})
    cands = [TopicCandidate({0, 1, 2}), TopicCandidate({0, 1})]
    steps = list(iterate_weights(g, cands, max_iter=10_000))
    b = np.array([mu[1] for mu in steps])
    assert np.all(np.diff(b) < 0.0)
    assert b[100] / b[99] == pytest.approx(0.986, abs=1e-3)
    # 3861 updates on x86-64
    assert 500 < len(steps) < 10_000
    with pytest.raises(ConvergenceError) as exc:
        estimate_weights(g, cands, max_iter=500)
    message = str(exc.value)
    assert message.startswith(
        "weight estimation did not converge within 500 iterations (tol=1e-06)"
    )
    change = (steps[498][1] - steps[499][1]) / steps[498][1]
    assert (
        f"candidate 1 (size 2, weight {steps[499][1]:.3g}, "
        f"last relative change {change:.3g})"
    ) in message
    mu = estimate_weights(g, cands, max_iter=len(steps))
    np.testing.assert_array_equal(mu, steps[-1])
