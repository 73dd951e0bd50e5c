"""Similarity matrices, Gaussian affinities, kNN sparsification, mixing, file I/O."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_dense, random_similarity
from hotmine.errors import InputError
from hotmine.graph import (
    SimilarityGraph,
    SimilarityMatrix,
    gaussian_affinity,
    knn_sparsify,
    load_graph,
    load_similarity,
    mix_graphs,
    save_graph,
    save_similarity,
)


def sym(values):
    values = np.asarray(values, dtype=float)
    upper = np.triu(values, 1)
    return SimilarityMatrix(upper + upper.T)


# --------------------------------------------------------------- validation


def test_matrix_rejects_nonsquare():
    with pytest.raises(InputError, match="square"):
        SimilarityMatrix(np.zeros((2, 3)))


def test_matrix_rejects_asymmetric():
    values = np.array([[0.0, 0.2], [0.3, 0.0]])
    with pytest.raises(InputError, match="symmetric"):
        SimilarityMatrix(values)


def test_matrix_rejects_out_of_range():
    with pytest.raises(InputError, match="0, 1"):
        sym([[0.0, 1.2], [0.0, 0.0]])


def test_matrix_rejects_nonzero_diagonal():
    values = np.array([[0.5, 0.0], [0.0, 0.0]])
    with pytest.raises(InputError, match="diagonal"):
        SimilarityMatrix(values)


def test_matrix_rejects_non_finite():
    with pytest.raises(InputError, match="finite"):
        sym([[0.0, np.nan], [0.0, 0.0]])


def test_graph_rejects_self_loops():
    with pytest.raises(InputError, match="self-loops"):
        SimilarityGraph(sp.csr_matrix(np.array([[0.5, 0.0], [0.0, 0.0]])))


def test_graph_rejects_asymmetric_adjacency():
    values = np.array([[0.0, 0.4], [0.0, 0.0]])
    with pytest.raises(InputError, match="symmetric"):
        SimilarityGraph(sp.csr_matrix(values))


def test_graph_rejects_out_of_range_weights():
    values = np.array([[0.0, 1.5], [1.5, 0.0]])
    with pytest.raises(InputError, match="0, 1"):
        SimilarityGraph(sp.csr_matrix(values))


def test_graph_edge_accessors():
    g = graph_from_dense([[0.0, 0.3, 0.0], [0.3, 0.0, 0.7], [0.0, 0.7, 0.0]])
    assert g.n == 3
    assert g.edge_count == 2
    np.testing.assert_array_equal(
        g.to_dense(), [[0.0, 0.3, 0.0], [0.3, 0.0, 0.7], [0.0, 0.7, 0.0]]
    )
    np.testing.assert_array_equal(g.to_dense(), g.to_dense().T)


# --------------------------------------------------------------- affinity


def test_affinity_unit_bandwidth_known_value():
    m = sym([[0.0, 1.0], [0.0, 0.0]])
    out = gaussian_affinity(m, sigma2=1.0)
    assert out.values[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_affinity_preserves_absent_pairs():
    m = sym([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    out = gaussian_affinity(m, sigma2=1.0)
    assert out.values[0, 2] == 0.0
    assert out.values[1, 2] == 0.0
    assert out.values[0, 1] > 0.0


def test_affinity_matches_dense_reference():
    rng = np.random.default_rng(0)
    m = random_similarity(rng, 5)
    sigma2 = 0.7
    out = gaussian_affinity(m, sigma2=sigma2)
    expected = np.zeros((5, 5))
    for i in range(5):
        for j in range(5):
            if m.values[i, j] > 0.0:
                expected[i, j] = np.exp(-m.values[i, j] ** 2 / sigma2)
    np.testing.assert_allclose(out.values, expected, atol=1e-12)


def test_affinity_default_bandwidth_is_mean_square():
    m = sym([[0.0, 0.4, 0.8], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    sigma2 = np.mean([0.4**2, 0.8**2, 0.4**2, 0.8**2])
    out = gaussian_affinity(m)
    np.testing.assert_allclose(
        out.values[0, 1], np.exp(-0.16 / sigma2), atol=1e-12
    )


def test_affinity_rejects_empty_matrix_without_bandwidth():
    with pytest.raises(InputError, match="sigma2"):
        gaussian_affinity(SimilarityMatrix(np.zeros((3, 3))))


@pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan])
def test_affinity_rejects_bad_bandwidth(sigma2):
    m = sym([[0.0, 0.5], [0.0, 0.0]])
    with pytest.raises(InputError, match="sigma2"):
        gaussian_affinity(m, sigma2=sigma2)


# --------------------------------------------------------------- knn


def test_knn_full_neighbor_count_is_dense():
    rng = np.random.default_rng(1)
    vals = rng.uniform(0.1, 1.0, (6, 6))
    vals = np.triu(vals, 1)
    m = SimilarityMatrix(vals + vals.T)
    g = knn_sparsify(m, k=5)
    np.testing.assert_allclose(g.to_dense(), m.values, atol=1e-12)


def test_knn_chain_keeps_strongest_neighbors():
    # a-b 0.9, b-c 0.5, a-c absent; k = 1 keeps exactly those two edges
    m = sym([[0.0, 0.9, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
    g = knn_sparsify(m, k=1)
    np.testing.assert_array_equal(g.to_dense(), m.values)


def test_knn_tie_breaks_to_lower_index():
    # node 0 sees nodes 1 and 2 at the same affinity; the lower index wins
    m = sym(
        [
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.9, 0.8],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    )
    g = knn_sparsify(m, k=1)
    expected = m.values.copy()
    expected[0, 2] = expected[2, 0] = 0.0
    np.testing.assert_array_equal(g.to_dense(), expected)


def test_knn_weights_come_from_input():
    rng = np.random.default_rng(2)
    m = random_similarity(rng, 10, density=0.6)
    g = knn_sparsify(m, k=3)
    adj = g.adjacency.tocoo()
    assert adj.nnz > 0
    np.testing.assert_array_equal(adj.data, m.values[adj.row, adj.col])


@pytest.mark.parametrize("k", [0, -1, 10, True])
def test_knn_rejects_bad_neighbor_count(k):
    rng = np.random.default_rng(3)
    m = random_similarity(rng, 10)
    with pytest.raises(InputError, match="k"):
        knn_sparsify(m, k=k)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_knn_preserves_symmetry_and_range(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    m = random_similarity(rng, n, density=0.7)
    k = int(rng.integers(1, n))
    if not (m.values > 0).any():
        return
    g = knn_sparsify(gaussian_affinity(m, sigma2=0.5), k=k)
    dense = g.to_dense()
    np.testing.assert_array_equal(dense, dense.T)
    assert np.all(np.diagonal(dense) == 0.0)
    assert dense.min() >= 0.0 and dense.max() <= 1.0


# --------------------------------------------------------------- mixing


def test_mix_identical_graphs_is_identity():
    g = graph_from_dense([[0.0, 0.6], [0.6, 0.0]])
    mixed = mix_graphs(g, g)
    np.testing.assert_array_equal(mixed.to_dense(), g.to_dense())


def test_mix_one_sided_edge_halves():
    a = graph_from_dense([[0.0, 0.8], [0.8, 0.0]])
    b = graph_from_dense(np.zeros((2, 2)))
    np.testing.assert_array_equal(mix_graphs(a, b).to_dense(), [[0.0, 0.4], [0.4, 0.0]])


def test_mix_matches_dense_reference():
    rng = np.random.default_rng(4)
    a = random_similarity(rng, 10, density=0.4)
    b = random_similarity(rng, 10, density=0.4)
    ga, gb = graph_from_dense(a.values), graph_from_dense(b.values)
    np.testing.assert_allclose(
        mix_graphs(ga, gb).to_dense(), (a.values + b.values) / 2.0, atol=1e-12
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_mix_commutes_exactly(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    ga = graph_from_dense(random_similarity(rng, n, density=0.5).values)
    gb = graph_from_dense(random_similarity(rng, n, density=0.5).values)
    ab = mix_graphs(ga, gb).to_dense()
    ba = mix_graphs(gb, ga).to_dense()
    np.testing.assert_array_equal(ab, ba)


def test_mix_rejects_size_mismatch():
    a = graph_from_dense(np.zeros((2, 2)))
    b = graph_from_dense(np.zeros((3, 3)))
    with pytest.raises(InputError, match="node count"):
        mix_graphs(a, b)


def test_mix_carries_mixed_kind():
    g = graph_from_dense([[0.0, 0.6], [0.6, 0.0]], kind="vis")
    assert mix_graphs(g, g).kind == "mixed"


# --------------------------------------------------------------- file I/O


def test_similarity_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    m = random_similarity(rng, 8, density=0.5)
    path = tmp_path / "m.sim"
    save_similarity(m, path)
    loaded = load_similarity(path)
    np.testing.assert_array_equal(loaded.values, m.values)


def test_graph_round_trip_exact(tmp_path):
    rng = np.random.default_rng(6)
    g = knn_sparsify(random_similarity(rng, 9), k=3, kind="mixed")
    path = tmp_path / "g.graph"
    save_graph(g, path)
    loaded = load_graph(path)
    np.testing.assert_array_equal(loaded.to_dense(), g.to_dense())


def test_triplet_header_counts_upper_pairs(tmp_path):
    m = sym([[0.0, 0.3, 0.0], [0.0, 0.0, 0.9], [0.0, 0.0, 0.0]])
    path = tmp_path / "m.sim"
    save_similarity(m, path)
    assert path.read_text().splitlines()[0] == "3 2"


@pytest.mark.parametrize(
    "text, message",
    [
        ("nonsense\n", "header"),
        ("2\n", "header"),
        ("2 1\n0 1\n", "i j value"),
        ("2 1\n0 1 batman\n", "i j value"),
        ("2 1\n1 0 0.5\n", "0 <= i < j < n"),
        ("2 1\n0 5 0.5\n", "0 <= i < j < n"),
        ("2 1\n0 1 1.5\n", "outside"),
        ("3 2\n0 1 0.5\n0 1 0.5\n", "duplicate"),
        ("2 2\n0 1 0.5\n", "promised"),
        ("100000000 1\n0 1 0.5\n", "does not fit in memory"),
        ("3037000500 1\n0 1 0.5\n", "does not fit in memory"),
        ("99999999999999999999999 1\n0 1 0.5\n", "does not fit in memory"),
    ],
)
def test_load_similarity_rejects_malformed(tmp_path, text, message):
    path = tmp_path / "bad.sim"
    path.write_text(text)
    with pytest.raises(InputError, match=message):
        load_similarity(path)
