"""Threshold-cascade candidate generation and the candidate file format."""

import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from conftest import graph_from_dense, random_similarity
from hotmine.candidates import (
    TopicCandidate,
    cascade_candidates,
    load_candidates,
    save_candidates,
)
from hotmine.errors import InputError
from hotmine.graph import load_graph


def two_cliques_with_bridge():
    # two 0.9 triangles joined by a 0.3 bridge between nodes 2 and 3
    vals = np.zeros((6, 6))
    for block in ((0, 1, 2), (3, 4, 5)):
        for i in block:
            for j in block:
                if i != j:
                    vals[i, j] = 0.9
    vals[2, 3] = vals[3, 2] = 0.3
    return graph_from_dense(vals)


# --------------------------------------------------------------- candidate type


def test_candidate_coerces_members_to_frozenset():
    c = TopicCandidate([3, 1, 1, 2])
    assert c.members == frozenset({1, 2, 3})
    assert c.size == 3
    assert c.sorted_members() == [1, 2, 3]
    assert c.weight is None and c.interestingness is None


def test_candidate_rejects_empty_members():
    with pytest.raises(InputError, match="at least one member"):
        TopicCandidate(frozenset())


def test_candidate_rejects_negative_members():
    with pytest.raises(InputError, match="nonnegative"):
        TopicCandidate({-1, 2})


@pytest.mark.parametrize("members", [frozenset({1.5}), [0, 2.0], {np.float64(3.0)}, ["4"]])
def test_candidate_rejects_non_integer_members(members):
    # int() would truncate 1.5 to 1 and read "4" as 4
    with pytest.raises(InputError, match="integer"):
        TopicCandidate(members)


def test_candidate_turns_numpy_ints_into_python_ints():
    c = TopicCandidate(np.array([4, 2], dtype=np.int32).tolist() + [np.int64(7), np.uint8(0)])
    assert c.members == {0, 2, 4, 7}
    assert {type(m) for m in c.members} == {int}


# --------------------------------------------------------------- cascade


def test_low_threshold_yields_one_candidate_per_component():
    g = two_cliques_with_bridge()
    out = cascade_candidates(g, [0.05])
    assert [c.members for c in out] == [frozenset(range(6))]

    vals = np.zeros((5, 5))
    vals[0, 1] = vals[1, 0] = 0.4
    vals[2, 3] = vals[3, 2] = 0.6
    out = cascade_candidates(graph_from_dense(vals), [0.05])
    assert [c.members for c in out] == [frozenset({0, 1}), frozenset({2, 3})]


def test_threshold_above_every_weight_yields_empty_list():
    g = two_cliques_with_bridge()
    assert cascade_candidates(g, [0.95]) == []


def test_two_cliques_with_bridge_cascade():
    g = two_cliques_with_bridge()
    out = cascade_candidates(g, [0.1, 0.5])
    assert [c.members for c in out] == [
        frozenset(range(6)),
        frozenset({0, 1, 2}),
        frozenset({3, 4, 5}),
    ]


def test_cascade_deduplicates_identical_components():
    # no bridge: both thresholds see the same two components
    vals = np.zeros((6, 6))
    for block in ((0, 1, 2), (3, 4, 5)):
        for i in block:
            for j in block:
                if i != j:
                    vals[i, j] = 0.9
    out = cascade_candidates(graph_from_dense(vals), [0.1, 0.5])
    assert [c.members for c in out] == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]


def test_cascade_is_deterministic():
    rng = np.random.default_rng(7)
    g = graph_from_dense(random_similarity(rng, 20, density=0.2).values)
    first = cascade_candidates(g, [0.2, 0.5, 0.8])
    second = cascade_candidates(g, [0.2, 0.5, 0.8])
    assert [c.members for c in first] == [c.members for c in second]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_cascade_components_nest_across_thresholds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 25))
    g = graph_from_dense(random_similarity(rng, n, density=0.25).values)
    if g.edge_count == 0:
        return
    low = cascade_candidates(g, [0.2])
    high = cascade_candidates(g, [0.6])
    # higher-threshold components refine the lower-threshold ones
    for cand in high:
        assert any(cand.members <= other.members for other in low)
    # one combined call emits each member set at most once
    combined = [c.members for c in cascade_candidates(g, [0.2, 0.6])]
    assert len(combined) == len(set(combined))
    assert set(combined) == {c.members for c in low} | {c.members for c in high}


@pytest.mark.parametrize(
    "thresholds, message",
    [
        ([], "at least one threshold"),
        ([0.0], "strictly inside"),
        ([1.0], "strictly inside"),
        ([0.5, 0.5], "strictly increasing"),
        ([0.5, 0.2], "strictly increasing"),
    ],
)
def test_cascade_rejects_bad_thresholds(thresholds, message):
    g = two_cliques_with_bridge()
    with pytest.raises(InputError, match=message):
        cascade_candidates(g, thresholds)


def test_cascade_requires_edges():
    with pytest.raises(InputError, match="at least one edge"):
        cascade_candidates(graph_from_dense(np.zeros((4, 4))), [0.5])


# --------------------------------------------------------------- scipy reference
# cascade_candidates labels components on the graph's CSR arrays in numpy. It
# must emit the same member lists, in the same order, as the scipy code it
# replaced, kept here as the reference.


def reference_cascade(g, thresholds):
    """scipy's connected_components at each threshold, grouped per node."""
    if g.n == 0 or len(g.data) == 0:
        raise InputError("cascade requires a graph with at least one edge")
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise InputError("at least one threshold is required")
    if any(not (0.0 < t < 1.0) for t in thresholds):
        raise InputError("thresholds must lie strictly inside (0, 1)")
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise InputError("thresholds must be strictly increasing")

    out: list[TopicCandidate] = []
    seen: set[frozenset[int]] = set()
    adj = g.adjacency
    for tau in thresholds:
        kept = adj.multiply(adj >= tau)
        n_comp, labels = connected_components(sp.csr_matrix(kept), directed=False)
        groups: dict[int, list[int]] = {}
        for node, label in enumerate(labels):
            groups.setdefault(int(label), []).append(node)
        components = [m for m in groups.values() if len(m) >= 2]
        components.sort(key=min)
        for members in components:
            key = frozenset(members)
            if key in seen:
                continue
            seen.add(key)
            out.append(TopicCandidate(key))
    return out


# Edge weights and ladder steps share these levels, so weights that sit
# exactly at a threshold, and ladders whose steps keep the same edges (so the
# same components repeat), are common.
WEIGHTS = (0.2, 0.4, 0.6, 0.8)
LADDERS = st.lists(st.sampled_from((0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 0.9)), min_size=1, max_size=5, unique=True).map(sorted)


def graph_of(n, edges):
    """A graph on n nodes from (i, j, weight) edges; a later pair wins."""
    values = np.zeros((n, n))
    for i, j, w in edges:
        if i != j:
            values[i, j] = values[j, i] = w
    return graph_from_dense(values)


@st.composite
def random_graphs(draw):
    """n = 1 to 40 with up to 80 edges: isolated nodes are common."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    weight = st.one_of(st.sampled_from(WEIGHTS), st.floats(0.01, 1.0))
    return n, draw(st.lists(st.tuples(node, node, weight), max_size=80))


@st.composite
def stars(draw):
    """One center joined to some of the other nodes; the rest isolated."""
    n = draw(st.integers(2, 40))
    center = draw(st.integers(0, n - 1))
    leaves = draw(st.lists(st.integers(0, n - 1).filter(lambda v: v != center), min_size=1, unique=True))
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=len(leaves), max_size=len(leaves)))
    return n, [(center, leaf, w) for leaf, w in zip(leaves, weights)]


@st.composite
def shuffled_paths(draw):
    """A path through up to 300 nodes in random order, so labels must travel
    far: pointer-jumping depth."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = rng.permutation(n)[: draw(st.integers(2, n))].tolist()
    weights = rng.choice(WEIGHTS, size=len(nodes) - 1).tolist()
    return n, list(zip(nodes, nodes[1:], weights))


@given(case=st.one_of(random_graphs(), stars(), shuffled_paths()), ladder=LADDERS)
@example(case=(1, []), ladder=[0.5])
@example(case=(5, [(4, 0, 0.4), (4, 1, 0.4), (4, 3, 0.2)]), ladder=[0.2, 0.3, 0.4])
@example(case=(6, [(5, 4, 0.6), (4, 3, 0.6), (3, 2, 0.6), (2, 1, 0.6), (1, 0, 0.6)]), ladder=[0.5, 0.6])
@example(case=(6, [(0, 5, 0.8), (5, 1, 0.8), (1, 4, 0.8), (4, 2, 0.8), (2, 3, 0.2)]), ladder=[0.1, 0.2, 0.8, 0.9])
@settings(max_examples=500, deadline=None)
def test_cascade_matches_scipy_reference(case, ladder):
    g = graph_of(*case)
    try:
        want = [c.sorted_members() for c in reference_cascade(g, ladder)]
    except InputError as exc:
        with pytest.raises(InputError, match=re.escape(str(exc))):
            cascade_candidates(g, ladder)
        return
    assert [c.sorted_members() for c in cascade_candidates(g, ladder)] == want


def test_cascade_on_a_long_shuffled_path_matches_scipy(tmp_path):
    n = 100_000
    rng = np.random.default_rng(11)
    nodes = rng.permutation(n)
    i, j = np.minimum(nodes[:-1], nodes[1:]), np.maximum(nodes[:-1], nodes[1:])
    weights = rng.choice(WEIGHTS, size=n - 1)
    path = tmp_path / "path.graph"
    path.write_text("\n".join([f"{n} {n - 1}", *map("{} {} {!r}".format, i.tolist(), j.tolist(), weights.tolist())]) + "\n")
    g = load_graph(path)
    got = cascade_candidates(g, [0.1, 0.5])
    assert got[0].members == frozenset(range(n))
    assert [c.members for c in got] == [c.members for c in reference_cascade(g, [0.1, 0.5])]
    # at 0.5 the path falls into runs of heavy edges, one component each
    _, labels = connected_components(sp.csr_matrix(g.adjacency >= 0.5), directed=False)
    assert len(got) - 1 == sum(np.bincount(labels) >= 2)


# --------------------------------------------------------------- file format


def candidates_file(tmp_path, *lines):
    path = tmp_path / "c.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def test_load_candidates_parses_lines(tmp_path):
    out = load_candidates(candidates_file(tmp_path, "0 1 2", "2 3"))
    assert [c.members for c in out] == [frozenset({0, 1, 2}), frozenset({2, 3})]


def test_load_candidates_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# header\n\n4 5\n  \n# more\n6 7 8\n")
    out = load_candidates(path)
    assert [c.members for c in out] == [frozenset({4, 5}), frozenset({6, 7, 8})]


def test_load_candidates_rejects_malformed_line(tmp_path):
    path = candidates_file(tmp_path, "0 1", "0 one 2")
    with pytest.raises(InputError, match=re.escape(f"{path}:2: malformed")):
        load_candidates(path)


def test_load_candidates_rejects_negative_index(tmp_path):
    with pytest.raises(InputError, match="negative"):
        load_candidates(candidates_file(tmp_path, "0 -3"))


def test_load_candidates_checks_range(tmp_path):
    with pytest.raises(InputError, match="out of range"):
        load_candidates(candidates_file(tmp_path, "0 9"), n=5)
    assert len(load_candidates(candidates_file(tmp_path, "0 4"), n=5)) == 1


def test_load_candidates_empty_raises(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    with pytest.raises(InputError, match="no candidates"):
        load_candidates(path)


def reference_load_candidates(path, n=None):
    """The loader before it mapped int over each line and took min and max."""
    try:
        lines = Path(path).read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    out = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            members = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: malformed candidate line") from exc
        if any(m < 0 for m in members):
            raise InputError(f"{path}:{lineno}: negative index")
        if n is not None and any(m >= n for m in members):
            raise InputError(f"{path}:{lineno}: index out of range (n={n})")
        out.append(TopicCandidate(frozenset(members)))
    if not out:
        raise InputError(f"{path}: no candidates")
    return out


tokens = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["+4", "007", "1_0", "x", "1.5", "\u0663"]),
)
candidate_lines = st.one_of(
    st.lists(tokens, min_size=1, max_size=6).map(" ".join),
    st.sampled_from(["", "   ", "# comment", "#1 2", "\t3  4\t"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(candidate_lines, max_size=8), st.sampled_from([None, 5, 13]))
def test_load_candidates_matches_the_generator_loop(tmp_path_factory, lines, n):
    path = tmp_path_factory.mktemp("cands") / "c.txt"
    path.write_text("\n".join(lines) + "\n")
    try:
        expected = reference_load_candidates(path, n=n)
    except InputError as exc:
        with pytest.raises(InputError) as got:
            load_candidates(path, n=n)
        assert str(got.value) == str(exc)
        return
    assert load_candidates(path, n=n) == expected


def test_save_load_round_trip(tmp_path):
    cands = [TopicCandidate({5, 1, 3}), TopicCandidate({0, 2})]
    path = tmp_path / "c.txt"
    save_candidates(cands, path, header=["written by the round-trip test"])
    loaded = load_candidates(path)
    assert [c.members for c in loaded] == [c.members for c in cands]
    assert path.read_text().startswith("# written by")


def test_save_accepts_bare_sets_and_header_lines(tmp_path):
    path = tmp_path / "c.txt"
    save_candidates([{2, 0}, {7}], path, header=["one", "two"])
    lines = path.read_text().splitlines()
    assert lines == ["# one", "# two", "0 2", "7"]
