"""Similarity matrices, Gaussian affinities, kNN sparsification, mixing, file I/O."""

import contextlib
import io
import os
import pickle
import pickletools
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fed_fifo, graph_from_dense, loglog_fit, random_similarity
from hotmine.errors import InputError
from hotmine.graph import (
    SimilarityGraph,
    SimilarityMatrix,
    _keys,
    _union,
    gaussian_affinity,
    knn_sparsify,
    load_graph,
    load_similarity,
    mix_graphs,
    save_similarity,
)
from hotmine import pipeline
from hotmine.pipeline import PipelineConfig, _receive, _send_txt_side, build_mixed_graph, build_mixed_graph_from_files


def sym(values):
    values = np.asarray(values, dtype=float)
    upper = np.triu(values, 1)
    return SimilarityMatrix(upper + upper.T)


def assert_canonical(m):
    """Canonical CSR arrays: indptr from 0 to nnz, strictly ascending column
    indices within each row, and no explicit zero."""
    assert m.indptr[0] == 0 and m.indptr[-1] == len(m.indices) == len(m.data)
    assert np.all(np.diff(m.indptr) >= 0)
    assert np.all((m.indices >= 0) & (m.indices < m.n))
    assert np.all(np.diff(_keys(m.n, m.indptr, m.indices)) > 0)
    assert np.all(m.data > 0.0)


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
        SimilarityGraph(np.array([[0.5, 0.0], [0.0, 0.0]]))


def test_graph_rejects_asymmetric_adjacency():
    values = np.array([[0.0, 0.4], [0.0, 0.0]])
    with pytest.raises(InputError, match="symmetric"):
        SimilarityGraph(values)


def test_graph_rejects_out_of_range_weights():
    values = np.array([[0.0, 1.5], [1.5, 0.0]])
    with pytest.raises(InputError, match="0, 1"):
        SimilarityGraph(values)


def test_graph_edge_accessors():
    g = graph_from_dense([[0.0, 0.3, 0.0], [0.3, 0.0, 0.7], [0.0, 0.7, 0.0]])
    assert g.n == 3
    assert g.edge_count == 2
    np.testing.assert_array_equal(
        g.adjacency.toarray(), [[0.0, 0.3, 0.0], [0.3, 0.0, 0.7], [0.0, 0.7, 0.0]]
    )
    np.testing.assert_array_equal(g.adjacency.toarray(), g.adjacency.toarray().T)


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
    np.testing.assert_allclose(g.adjacency.toarray(), m.values, atol=1e-12)


def test_knn_chain_keeps_strongest_neighbors():
    # a-b 0.9, b-c 0.5, a-c absent; k = 1 keeps exactly those two edges
    m = sym([[0.0, 0.9, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
    g = knn_sparsify(m, k=1)
    np.testing.assert_array_equal(g.adjacency.toarray(), m.values)


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
    np.testing.assert_array_equal(g.adjacency.toarray(), expected)


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
    dense = g.adjacency.toarray()
    np.testing.assert_array_equal(dense, dense.T)
    assert np.all(np.diagonal(dense) == 0.0)
    assert dense.min() >= 0.0 and dense.max() <= 1.0


# --------------------------------------------------------------- mixing


def test_mix_identical_graphs_is_identity():
    g = graph_from_dense([[0.0, 0.6], [0.6, 0.0]])
    mixed = mix_graphs(g, g)
    np.testing.assert_array_equal(mixed.adjacency.toarray(), g.adjacency.toarray())


def test_mix_one_sided_edge_halves():
    a = graph_from_dense([[0.0, 0.8], [0.8, 0.0]])
    b = graph_from_dense(np.zeros((2, 2)))
    np.testing.assert_array_equal(mix_graphs(a, b).adjacency.toarray(), [[0.0, 0.4], [0.4, 0.0]])


def test_mix_matches_dense_reference():
    rng = np.random.default_rng(4)
    a = random_similarity(rng, 10, density=0.4)
    b = random_similarity(rng, 10, density=0.4)
    ga, gb = graph_from_dense(a.values), graph_from_dense(b.values)
    np.testing.assert_allclose(
        mix_graphs(ga, gb).adjacency.toarray(), (a.values + b.values) / 2.0, atol=1e-12
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_mix_commutes_exactly(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 10))
    ga = graph_from_dense(random_similarity(rng, n, density=0.5).values)
    gb = graph_from_dense(random_similarity(rng, n, density=0.5).values)
    ab = mix_graphs(ga, gb).adjacency.toarray()
    ba = mix_graphs(gb, ga).adjacency.toarray()
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
    save_similarity(g, path)
    loaded = load_graph(path)
    np.testing.assert_array_equal(loaded.adjacency.toarray(), g.adjacency.toarray())


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
        ("2147483648 1\n0 1 0.5\n", "does not fit in memory"),
        ("3037000500 1\n0 1 0.5\n", "does not fit in memory"),
        ("99999999999999999999999 1\n0 1 0.5\n", "does not fit in memory"),
    ],
)
def test_load_similarity_rejects_malformed(tmp_path, text, message):
    path = tmp_path / "bad.sim"
    path.write_text(text)
    with pytest.raises(InputError, match=message):
        load_similarity(path)


def test_load_similarity_large_header_stays_sparse(tmp_path):
    # a dense 400000 x 400000 matrix would need 1.2 TB
    path = tmp_path / "wide.sim"
    path.write_text("400000 1\n0 1 0.5\n")
    loaded = load_similarity(path)
    assert loaded.n == 400_000
    assert loaded.indptr[:3].tolist() == [0, 1, 2] and loaded.indptr[-1] == 2
    assert loaded.indices.tolist() == [1, 0] and loaded.data.tolist() == [0.5, 0.5]


# --------------------------------------------------------------- loader contract
# Where the CSR loader differs from the line-by-line dense loader it replaced.


def test_load_similarity_rejects_any_repeated_pair(tmp_path):
    # the dense loader only caught a repeat of a nonzero pair
    path = tmp_path / "m.sim"
    path.write_text("3 2\n0 1 0.0\n0 1 0.5\n")
    with pytest.raises(InputError, match=rf"{path}:3: duplicate pair \(0, 1\)"):
        load_similarity(path)


@pytest.mark.parametrize(
    "body",
    ["0 1_0 0.5", "0 1 0.2_5", "0 ٣ 0.5", "0 1 ٠.٥"],
    ids=["underscore-index", "underscore-value", "arabic-index", "arabic-value"],
)
def test_load_similarity_rejects_underscores_and_non_ascii_digits(tmp_path, body):
    # Python's int() and float() read these; the file format does not
    path = tmp_path / "m.sim"
    path.write_text(f"11 1\n{body}\n", encoding="utf-8")
    with pytest.raises(InputError, match=rf"{path}:2: expected 'i j value'"):
        load_similarity(path)


def test_load_similarity_zero_triplet_is_no_edge(tmp_path):
    path = tmp_path / "m.sim"
    path.write_text("3 2\n0 1 0.0\n1 2 0.5\n")
    loaded = load_similarity(path)
    assert len(loaded.data) == 2
    np.testing.assert_array_equal(
        loaded.values, [[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.5, 0.0]]
    )


@pytest.mark.parametrize("body", ["", "\n \n\t\n"])
def test_load_similarity_empty_body_loads_without_warning(tmp_path, body):
    path = tmp_path / "m.sim"
    path.write_text(f"3 0\n{body}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = load_similarity(path)
    assert caught == []
    assert loaded.n == 3 and len(loaded.data) == 0


def test_load_similarity_memory_error_is_input_error(tmp_path, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "loadtxt", no_memory)
    path = tmp_path / "m.sim"
    path.write_text("3 1\n0 1 0.5\n")
    with pytest.raises(InputError, match="does not fit in memory"):
        load_similarity(path)


# --------------------------------------------------------------- loader routes
# np.loadtxt parses a regular file from its path, in large chunks, and a pipe
# or a name with a compression suffix from the open file, line by line.

ROUTES = ["file", "fifo", "gz"]


@contextlib.contextmanager
def triplet_source(tmp_path, route, text):
    """text as a regular file, a FIFO fed by a thread, a plain-text file
    named *.gz, or a filled pipe named /dev/fd/N, as `<(zcat m.sim.gz)`
    passes it."""
    if route == "fifo":
        with fed_fifo(tmp_path / "m.sim", text) as path:
            yield path
    elif route == "fd":
        read_end, write_end = os.pipe()
        os.write(write_end, text.encode())  # under 64 KiB, a pipe's buffer
        os.close(write_end)
        try:
            yield Path(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
    else:
        path = tmp_path / ("m.sim.gz" if route == "gz" else "m.sim")
        path.write_text(text)
        yield path


def csr_arrays(m):
    return m.indptr, m.indices, m.data


@pytest.mark.parametrize(
    "text",
    ["5 5\n2 4 0.25\r\n\n0 1 0.5\n1 3 0.0\n\t0 4   1.0\n3 4 1e-3\n", "3 0\n", "3 0", "3 0\n \n"],
    ids=["shuffled-crlf-blank-zero", "empty", "no-newline", "blank"],
)
def test_loader_routes_load_identical_arrays(tmp_path, text):
    loaded = {}
    for route in ROUTES:
        (tmp_path / route).mkdir()
        with triplet_source(tmp_path / route, route, text) as path:
            loaded[route] = load_similarity(path)
    want = loaded["file"]
    np.testing.assert_array_equal(want.values, reference_load_similarity(tmp_path / "file" / "m.sim"))
    for route in ROUTES:
        assert loaded[route].n == want.n
        for got, expected in zip(csr_arrays(loaded[route]), csr_arrays(want)):
            assert got.dtype == expected.dtype and np.array_equal(got, expected), route


@pytest.mark.parametrize("route, source", [("file", str), ("fifo", io.TextIOWrapper), ("gz", io.TextIOWrapper)])
def test_loader_parses_only_a_regular_file_from_its_path(tmp_path, monkeypatch, route, source):
    # a regression back to line iteration fails here on any machine
    seen = []
    loadtxt = np.loadtxt

    def spy(fname, *args, **kwargs):
        seen.append(fname)
        return loadtxt(fname, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    with triplet_source(tmp_path, route, "3 1\n0 2 0.5\n") as path:
        load_similarity(path)
    assert [type(fname) for fname in seen] == [source]
    if source is str:
        assert os.path.isabs(seen[0]) and os.path.samefile(seen[0], path)


def test_shuffled_body_loads_as_sorted(tmp_path):
    m = random_similarity(np.random.default_rng(3), 30, density=0.4)
    ordered = tmp_path / "sorted.sim"
    save_similarity(m, ordered)
    header, *lines = ordered.read_text().splitlines()
    np.random.default_rng(4).shuffle(lines)
    shuffled = tmp_path / "shuffled.sim"
    shuffled.write_text("\n".join([header, *lines]) + "\n")
    assert shuffled.read_text() != ordered.read_text()
    for got, want in zip(csr_arrays(load_similarity(shuffled)), csr_arrays(load_similarity(ordered))):
        assert np.array_equal(got, want)
    for got, want in zip(csr_arrays(load_similarity(ordered)), csr_arrays(m)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("body", ["0 1 0.5\n0 1 0.5\n", "0 1 0.5\n1 2 0.5\n0 1 0.5\n"], ids=["adjacent", "apart"])
def test_repeated_pair_is_rejected_in_any_order(tmp_path, body):
    path = tmp_path / "m.sim"
    path.write_text(f"3 {body.count(chr(10))}\n{body}")
    lineno = 1 + len(body.splitlines())
    with pytest.raises(InputError, match=rf"{path}:{lineno}: duplicate pair \(0, 1\)"):
        load_similarity(path)


def test_bad_body_from_a_pipe_names_the_file(tmp_path):
    with fed_fifo(tmp_path / "bad.sim", "3 2\n0 1 0.5\n0 1 0.5\n") as path:
        with pytest.raises(InputError) as caught:
            load_similarity(path)
    assert str(caught.value).startswith(f"{path}: ") and "cannot be read again to locate the bad line" in str(caught.value)


# --------------------------------------------------------------- file builder
# build_mixed_graph_from_files builds the txt graph in a forked child; the
# graph it returns must be build_mixed_graph's over two load_similarity
# calls, dtype and bits, and its errors must be the same.


@st.composite
def valid_triplet_pairs(draw):
    """Two valid bodies over the same n: distinct upper-triangle pairs in
    drawn (so unsorted) order, values that include 0.0."""
    n = draw(st.integers(2, 7))
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    texts = []
    for _ in range(2):
        pairs = draw(st.lists(st.sampled_from(upper), unique=True))
        lines = [f"{i} {j} {draw(VALUES)}" for i, j in pairs]
        texts.append("\n".join([f"{n} {len(pairs)}", *lines]) + "\n")
    return tuple(texts)


GRAPH_CONFIGS = st.builds(
    PipelineConfig,
    knn_vis=st.integers(1, 7),
    knn_txt=st.integers(1, 7),
    apply_kernel=st.booleans(),
    sigma2_affinity=st.none() | st.sampled_from([0.3, 2.0]),
)


def assert_same_matrix(got, want):
    assert got.n == want.n
    for a, b in zip(csr_arrays(got), csr_arrays(want)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_build(build, want):
    """build() returns the graph want() returns, kind, dtypes and bits
    included, or raises what want() raises."""
    try:
        expected = want()
    except InputError as exc:
        with pytest.raises(InputError) as caught:
            build()
        assert str(caught.value) == str(exc)
        return
    got = build()
    assert got.kind == expected.kind == "mixed"
    assert_same_matrix(got, expected)


@given(texts=valid_triplet_pairs(), route=st.sampled_from(["file", "fifo", "fd"]), config=GRAPH_CONFIGS)
@example(texts=("3 0\n", "3 0\n"), route="fifo", config=PipelineConfig())
@example(texts=("3 1\n0 2 0.5\n", "3 2\n1 2 0.5\n0 1 0.0\n"), route="fd", config=PipelineConfig(knn_vis=1))
@example(
    texts=("4 2\n2 3 0.25\n0 1 1.0\n", "4 3\n2 3 0.0\n0 3 0.5\n0 1 0.125\n"),
    route="file",
    config=PipelineConfig(apply_kernel=False, knn_txt=1),
)
@settings(max_examples=150, deadline=None)
def test_file_builder_matches_build_mixed_graph_over_two_loads(tmp_path_factory, texts, route, config):
    directory = tmp_path_factory.mktemp("pair")
    vis, txt = directory / "vis.sim", directory / "txt.sim"
    vis.write_text(texts[0])
    txt.write_text(texts[1])
    with triplet_source(directory, route, texts[1]) as source:
        assert_same_build(
            lambda: build_mixed_graph_from_files(config, vis, source),
            lambda: build_mixed_graph(config, load_similarity(vis), load_similarity(txt)),
        )
    with pytest.raises(ChildProcessError):  # the child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_file_builder_without_fork_builds_one_side_after_the_other(corpus, monkeypatch):
    paths = corpus / "vis.sim", corpus / "txt.sim"
    configs = PipelineConfig(), PipelineConfig(apply_kernel=False, knn_txt=20, knn_vis=8)
    wants = [build_mixed_graph(config, *map(load_similarity, paths)) for config in configs]
    monkeypatch.delattr(os, "fork")
    for config, want in zip(configs, wants):
        assert_same_matrix(build_mixed_graph_from_files(config, *paths), want)


def sent_by_the_txt_child(config, path) -> tuple[bytes, int]:
    """The bytes the txt child sends, and where its first pickle ends."""
    out = io.BytesIO()
    _send_txt_side(out, config, path)
    feed = io.BytesIO(out.getvalue())
    pickle.load(feed)
    return out.getvalue(), feed.tell()


CORPUS_CONFIG = PipelineConfig(apply_kernel=False, knn_txt=20, knn_vis=8)


def test_the_txt_child_sends_its_n_then_its_graph_and_no_matrix(corpus):
    path = corpus / "txt.sim"
    matrix = load_similarity(path)
    raw, n_end = sent_by_the_txt_child(CORPUS_CONFIG, path)
    feed = io.BytesIO(raw)
    assert _receive(feed) == matrix.n
    sent = _receive(feed)
    assert feed.read() == b""
    want = knn_sparsify(matrix, CORPUS_CONFIG.knn_txt, kind="txt")
    assert sent.kind == "txt"
    assert_same_matrix(sent, want)
    # the bytes on the pipe: the graph's three arrays and pickle overhead,
    # nothing of the matrix's
    arrays = [arg for op, arg, _ in pickletools.genops(raw[n_end:]) if op.name == "BYTEARRAY8"]
    assert [len(a) for a in arrays] == [a.nbytes for a in csr_arrays(want)]
    assert len(raw) <= sum(a.nbytes for a in csr_arrays(want)) + 1024
    assert sum(a.nbytes for a in csr_arrays(want)) < sum(a.nbytes for a in csr_arrays(matrix))


def test_a_stream_cut_anywhere_is_no_result(corpus):
    # the two pickles the txt child sends: its n, then its graph; a cut
    # leaves the reader without one of them, whichever byte it falls on
    raw, _ = sent_by_the_txt_child(CORPUS_CONFIG, corpus / "txt.sim")
    for end in range(len(raw)):
        feed = io.BytesIO(raw[:end])
        first = _receive(feed)
        assert first is None or (first == 60 and _receive(feed) is None), end


@pytest.mark.parametrize("cut", ["empty", "inside-n", "after-n", "inside-graph", "last-byte"])
def test_a_cut_stream_from_the_child_is_refused_and_the_child_reaped(corpus, monkeypatch, cut):
    txt = corpus / "txt.sim"
    raw, n_end = sent_by_the_txt_child(CORPUS_CONFIG, txt)
    ends = {"empty": 0, "inside-n": n_end // 2, "after-n": n_end, "inside-graph": (n_end + len(raw)) // 2}
    end = ends.get(cut, len(raw) - 1)
    monkeypatch.setattr(pipeline, "_send_txt_side", lambda out, config, path: out.write(raw[:end]))
    with pytest.raises(InputError) as caught:
        build_mixed_graph_from_files(CORPUS_CONFIG, corpus / "vis.sim", txt)
    assert str(caught.value) == f"{txt}: the process parsing it ended without a result (exit status 0)"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_matrix_is_canonical_csr():
    m = SimilarityMatrix(sp.csr_matrix(([0.5, 0.0, 0.5], ([1, 0, 0], [0, 2, 1])), shape=(3, 3)).toarray())
    assert_canonical(m)
    assert len(m.data) == 2
    np.testing.assert_array_equal(m.values, [[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]])


# --------------------------------------------------------------- dense references
# The dense loader, kernel and kNN that the CSR graph stage replaced. The
# equivalence tests below require the CSR versions to agree with them bit
# for bit.


def reference_load_similarity(path) -> np.ndarray:
    """The line-by-line loader into a dense n x n array."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise InputError(f"{path}: malformed header, expected 'n nnz'")
        try:
            n, nnz = int(header[0]), int(header[1])
        except ValueError as exc:
            raise InputError(f"{path}: malformed header, expected 'n nnz'") from exc
        if n < 1 or nnz < 0:
            raise InputError(f"{path}: header values out of range")
        values = np.zeros((n, n))
        seen = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise InputError(f"{path}:{lineno}: expected 'i j value'")
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: expected 'i j value'") from exc
            if not (0 <= i < j < n):
                raise InputError(f"{path}:{lineno}: indices must satisfy 0 <= i < j < n")
            if not np.isfinite(v) or v < 0.0 or v > 1.0:
                raise InputError(f"{path}:{lineno}: value outside [0, 1]")
            if values[i, j] != 0.0:
                raise InputError(f"{path}:{lineno}: duplicate pair ({i}, {j})")
            values[i, j] = values[j, i] = v
            seen += 1
    if seen != nnz:
        raise InputError(f"{path}: header promised {nnz} entries, found {seen}")
    return values


def reference_gaussian_affinity(values: np.ndarray, sigma2=None) -> np.ndarray:
    mask = values > 0.0
    if sigma2 is None:
        if not mask.any():
            raise InputError("cannot infer sigma2 from a matrix with no nonzero entries")
        sigma2 = float(np.mean(values[mask] ** 2))
    out = np.zeros_like(values)
    out[mask] = np.exp(-(values[mask] ** 2) / sigma2)
    return out


def reference_knn_sparsify(values: np.ndarray, k: int) -> sp.csr_matrix:
    """Stable argsort of every full row; the lower index wins ties."""
    n = values.shape[0]
    values = values.copy()
    np.fill_diagonal(values, -1.0)
    order = np.argsort(-values, axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(n), k)
    cols = order.ravel()
    vals = values[rows, cols]
    keep = vals > 0.0
    directed = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n))
    out = directed.maximum(directed.T).tocsr()
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


# --------------------------------------------------------------- equivalence

LEVELS = (0.05, 0.3, 0.5, 0.8, 1.0)


@st.composite
def tie_heavy_matrices(draw):
    """Symmetric matrices over a few value levels, so that exact ties at the
    k-th neighbor are common; row degrees fall below, at and above k."""
    n = draw(st.integers(2, 14))
    levels = draw(st.lists(st.sampled_from(LEVELS), min_size=1, max_size=3, unique=True))
    zeros = draw(st.integers(0, 3))
    upper = draw(
        st.lists(
            st.sampled_from((0.0,) * zeros + tuple(levels)),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    values = np.zeros((n, n))
    values[np.triu_indices(n, 1)] = upper
    values += values.T
    k = draw(st.integers(1, n - 1))
    return values, k


@pytest.mark.parametrize("kernel", [False, True], ids=["raw", "kernel"])
@given(case=tie_heavy_matrices(), sigma2=st.sampled_from([None, 0.3]))
@example(
    # node 0 has degree 4 > k, node 1 degree 2 = k, node 4 degree 1 < k;
    # node 0's k-th neighbor value 0.5 is shared by nodes 2, 3 and 4
    case=(
        np.array(
            [
                [0.0, 0.8, 0.5, 0.5, 0.5],
                [0.8, 0.0, 0.0, 0.3, 0.0],
                [0.5, 0.0, 0.0, 0.5, 0.0],
                [0.5, 0.3, 0.5, 0.0, 0.0],
                [0.5, 0.0, 0.0, 0.0, 0.0],
            ]
        ),
        2,
    ),
    sigma2=None,
)
@settings(max_examples=300, deadline=None)
def test_knn_graph_matches_dense_reference(kernel, case, sigma2):
    values, k = case
    matrix, expected = SimilarityMatrix(values), values
    if kernel:
        if sigma2 is None and not values.any():
            with pytest.raises(InputError, match="sigma2"):
                gaussian_affinity(matrix)
            return
        matrix = gaussian_affinity(matrix, sigma2=sigma2)
        expected = reference_gaussian_affinity(values, sigma2=sigma2)
        np.testing.assert_array_equal(matrix.values, expected)
    assert_canonical(matrix)
    got = knn_sparsify(matrix, k)
    same_csr((got.indptr, got.indices, got.data), reference_knn_sparsify(expected, k))


@pytest.mark.parametrize("kernel", [False, True], ids=["raw", "kernel"])
@given(case=tie_heavy_matrices(), slack=st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_knn_graph_of_rows_within_k_is_the_matrix(kernel, case, slack):
    values, _ = case
    n = len(values)
    matrix, expected = SimilarityMatrix(values), values
    if kernel:
        matrix = gaussian_affinity(matrix, sigma2=0.3)
        expected = reference_gaussian_affinity(values, sigma2=0.3)
    k = min(max(int(np.diff(matrix.indptr).max()), 1) + slack, n - 1)  # at or above every degree
    got = knn_sparsify(matrix, k, kind="txt")
    same_csr((got.indptr, got.indices, got.data), reference_knn_sparsify(expected, k))
    assert got.data is matrix.data and got.kind == "txt"


@st.composite
def nearly_symmetric_arrays(draw):
    """Tie-heavy symmetric arrays whose lower triangle is nudged by up to
    9e-10, as a float computation may leave it: entries within [0, 1] move,
    and an entry may appear or vanish on one side only."""
    values, k = draw(tie_heavy_matrices())
    n = len(values)
    nudges = draw(st.lists(st.sampled_from([0.0, 0.0, 5e-10, -5e-10, 9e-10]), min_size=n * n, max_size=n * n))
    return np.clip(values + np.tril(np.reshape(nudges, (n, n)), -1), 0.0, 1.0), k


def _nudged_example():
    values = np.triu(np.random.default_rng(0).uniform(0.05, 1.0, (8, 8)), 1)
    values += values.T
    values[1, 0] += 5e-10
    return values, 6


@given(case=nearly_symmetric_arrays())
@example(case=_nudged_example())
@settings(max_examples=200, deadline=None)
def test_a_matrix_and_its_saved_file_are_one_matrix(tmp_path_factory, case):
    values, k = case
    matrix = SimilarityMatrix(values)
    path = tmp_path_factory.mktemp("round") / "m.sim"
    save_similarity(matrix, path)
    loaded = load_similarity(path)
    graphs = knn_sparsify(matrix, k), knn_sparsify(loaded, k)
    for got, want in ((matrix, loaded), graphs):
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(want, part)), part


def test_kernel_underflow_drops_the_pair():
    # exp(-1000) underflows to 0: that pair has no affinity, as in the
    # dense kernel, and the input keeps its entries
    m = sym([[0.0, 1.0, 0.0], [0.0, 0.0, 0.01], [0.0, 0.0, 0.0]])
    out = gaussian_affinity(m, sigma2=1e-3)
    assert len(m.data) == 4
    assert len(out.data) == 2
    np.testing.assert_array_equal(out.values, reference_gaussian_affinity(m.values, 1e-3))


# Body tokens are mostly well-formed; the rest are spellings on which
# Python's int()/float() and the file format disagree, or plain garbage.
ODD_INDICES = st.sampled_from(["-1", "+1", "01", "-0", "1.0", "1e0", "1_0", "٣", "x"])
ODD_VALUES = st.sampled_from(
    ["nan", "inf", "-0.0", "1.5", "1e-1", ".5", "5.", "+.5", "0x1p-1", "0.2_5", "٠.5", "x"]
)
VALUES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)).map(repr)
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\x0c", "\xa0"])


def _often(draw, common, rare):
    """Draw from common nine times in ten."""
    return draw(rare if draw(st.integers(0, 9)) == 0 else common)


@st.composite
def triplet_files(draw):
    n = draw(st.integers(2, 6))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", "\x0b"])))
        elif kind == 1:
            lines.append(" ".join(draw(st.lists(VALUES, max_size=4))))
        else:
            i = draw(st.integers(0, n - 2))
            pair = st.tuples(st.just(str(i)), st.integers(i + 1, n - 1).map(str))
            odd_pair = st.tuples(
                st.one_of(st.integers(0, n).map(str), ODD_INDICES),
                st.one_of(st.integers(0, n).map(str), ODD_INDICES),
            )
            tokens = [*_often(draw, pair, odd_pair), _often(draw, VALUES, ODD_VALUES)]
            lines.append(draw(SEPARATORS).join(tokens))
    data_lines = sum(1 for line in lines if line.strip())
    nnz = _often(draw, st.just(data_lines), st.integers(0, 8))
    header = _often(draw, st.just(f"{n} {nnz}"), st.sampled_from(["0 0", f"{n}", "x 1"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([header, *lines]) + draw(st.sampled_from(["", end]))


def contract_change(text: str) -> bool:
    """A body that the CSR loader rejects on purpose and the dense loader
    took: a token with an underscore or a non-ASCII character, or a pair
    given twice (the dense loader caught only a repeat of a nonzero pair)."""
    pairs = set()
    for line in text.replace("\r\n", "\n").split("\n")[1:]:
        parts = line.split()
        if any("_" in part or not part.isascii() for part in parts):
            return True
        try:
            pair = (int(parts[0]), int(parts[1]))
        except (IndexError, ValueError):
            continue
        if pair in pairs:
            return True
        pairs.add(pair)
    return False


@given(text=triplet_files())
@settings(max_examples=1500, deadline=None)
def test_loader_matches_line_loop_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "m.sim"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = reference_load_similarity(path)
    except InputError as exc:
        expected = exc
    if isinstance(expected, InputError) or contract_change(text):
        with pytest.raises(InputError) as caught:
            load_similarity(path)
        assert str(path) in str(caught.value)
        if isinstance(expected, InputError) and not contract_change(text):
            assert str(caught.value) == str(expected)
    else:
        loaded = load_similarity(path)
        assert_canonical(loaded)
        np.testing.assert_array_equal(loaded.values, expected)


# --------------------------------------------------------------- scaling


def _ring_similarity(rng, n: int, per_row: int) -> SimilarityMatrix:
    """per_row nonzeros in every row: page i links to i +- d for per_row / 2
    distinct offsets d."""
    offsets = rng.choice(np.arange(1, n // 2), size=per_row // 2, replace=False)
    rows = np.repeat(np.arange(n), len(offsets))
    cols = (rows + np.tile(offsets, n)) % n
    upper = sp.csr_matrix((rng.uniform(0.05, 1.0, len(rows)), (rows, cols)), shape=(n, n))
    full = (upper + upper.T).tocsr()  # no pair twice: offsets stay below n / 2
    return SimilarityMatrix._trusted(n, full.indptr, full.indices, full.data)


@pytest.mark.timing
def test_graph_stage_scales_linearly_in_nonzeros(tmp_path):
    """Load, kernel, kNN and mix from triplet files: time and memory grow
    with nnz, not n^2 (one dense 20000 x 20000 matrix is 3.2 GB)."""
    rng = np.random.default_rng(7)
    config = PipelineConfig()
    sizes = (5_000, 10_000, 20_000)
    files, nnz = {}, {}
    for n in sizes:
        files[n] = []
        for side in ("vis", "txt"):
            matrix = _ring_similarity(rng, n, per_row=30)
            save_similarity(matrix, tmp_path / f"{side}{n}.sim")
            files[n].append(tmp_path / f"{side}{n}.sim")
        nnz[n] = 2 * len(matrix.data)

    def build(n):
        return build_mixed_graph(config, *(load_similarity(p) for p in files[n]))

    peak = {}
    for n in sizes:
        tracemalloc.start()
        build(n)
        peak[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    best = {n: float("inf") for n in sizes}
    for _ in range(3):
        # sizes take turns within a round, so machine-speed drift hits each
        for n in sizes:
            start = time.perf_counter()
            build(n)
            best[n] = min(best[n], time.perf_counter() - start)

    nonzeros = [nnz[n] for n in sizes]
    time_slope, _, time_fit = loglog_fit(nonzeros, [best[n] for n in sizes])
    memory_slope, _, memory_fit = loglog_fit(nonzeros, [peak[n] for n in sizes])
    assert time_slope <= 1.3, f"seconds against nonzeros, n {list(sizes)}: {time_fit}"
    assert memory_slope <= 1.3, f"peak bytes against nonzeros, n {list(sizes)}: {memory_fit}"


# --------------------------------------------------------------- scipy references
# The graph stage no longer imports scipy. Each numpy operation that replaced
# a scipy one must give the same indptr/indices/data, bit for bit, as the
# scipy code it replaced; scipy stays installed as the reference.


TIES = st.sampled_from([0.25, 0.5, 1.0])


@st.composite
def directed_entries(draw, symmetric=False):
    """An n x n scipy CSR matrix (n = 1 to 7) with values in (0, 1]: empty
    rows, single entries and exact ties are common; zero diagonal."""
    n = draw(st.integers(1, 7))
    cells = [(i, j) for i in range(n) for j in range(n) if (i < j if symmetric else i != j)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells))) if cells else []
    values = draw(st.lists(st.one_of(TIES, st.floats(1e-3, 1.0)), min_size=len(chosen), max_size=len(chosen)))
    rows, cols = np.array([c[0] for c in chosen], dtype=int), np.array([c[1] for c in chosen], dtype=int)
    upper = sp.csr_matrix((np.array(values, dtype=float), (rows, cols)), shape=(n, n))
    return upper + upper.T if symmetric else upper


def same_csr(got, want):
    """got: (indptr, indices, data) arrays; want: a scipy CSR matrix."""
    want = want.tocsr()
    for part, array in zip(("indptr", "indices", "data"), got):
        assert np.array_equal(array, getattr(want, part)), part


def reference_checked(matrix, what, tol):
    """The scipy validation of dense constructor input."""
    csr = sp.csr_matrix(matrix, dtype=float, copy=True)
    csr.sum_duplicates()
    if csr.shape[0] != csr.shape[1]:
        raise InputError(f"{what} must be square, got shape {csr.shape}")
    if not np.all(np.isfinite(csr.data)):
        raise InputError(f"{what} contains a non-finite entry")
    if np.any(np.abs((csr - csr.T).data) > tol):
        raise InputError(f"{what} is not symmetric within {tol:g}")
    csr = (sp.triu(csr) + sp.triu(csr, 1).T).tocsr()  # the upper triangle, as a saved file holds it
    csr.sort_indices()
    if np.any((csr.data < 0.0) | (csr.data > 1.0)):
        raise InputError(f"{what} values must lie in [0, 1]")
    if csr.diagonal().any():
        raise InputError(f"{what} must have a zero diagonal (no self-loops)")
    csr.eliminate_zeros()
    return csr


@given(
    case=directed_entries(),
    symmetrize=st.booleans(),
    spoil=st.sampled_from([None, np.nan, np.inf, 1.5, -0.5, 1e-12, "diagonal"]),
)
@settings(max_examples=400, deadline=None)
def test_constructors_match_scipy_validation(case, symmetrize, spoil):
    dense = (case + case.T).toarray() if symmetrize else case.toarray()
    if spoil == "diagonal":
        dense[0, 0] = 0.5
    elif spoil is not None and dense.size > 1:
        dense[0, -1] += spoil
    for cls, what, tol in ((SimilarityMatrix, "similarity matrix", 1e-9), (SimilarityGraph, "graph", 0.0)):
        try:
            want = reference_checked(dense, what, tol)
        except InputError as exc:
            with pytest.raises(InputError) as caught:
                cls(dense)
            assert str(caught.value) == str(exc)
            continue
        got = cls(dense)
        same_csr((got.indptr, got.indices, got.data), want)


@given(case=directed_entries())
@settings(max_examples=300, deadline=None)
def test_transposed_keys_match_scipy_transpose(case):
    n = case.shape[0]
    keys = _keys(n, case.indptr, case.indices, transpose=True)
    order = np.argsort(keys, kind="stable")
    want = case.T.tocsr()
    assert np.array_equal(keys[order], _keys(n, want.indptr, want.indices))
    assert np.array_equal(case.data[order], want.data)


@given(case=directed_entries())
@settings(max_examples=300, deadline=None)
def test_union_maximum_matches_scipy(case):
    n = case.shape[0]
    directed = (_keys(n, case.indptr, case.indices), case.data)
    transposed = (_keys(n, case.indptr, case.indices, transpose=True), case.data)
    same_csr(_union(n, directed, transposed, np.maximum), case.maximum(case.T))


def reference_union(n, a, b, op):
    """The union by one sort of the keys, a dedupe and two searchsorted
    lookups of each side's keys among the distinct ones."""
    keys = np.sort(np.concatenate((a[0], b[0])), kind="stable")
    keys = keys[np.diff(keys, prepend=-1) != 0]
    x, y = np.zeros(len(keys)), np.zeros(len(keys))
    x[np.searchsorted(keys, a[0])], y[np.searchsorted(keys, b[0])] = a[1], b[1]
    out = op(x, y)
    keys, out = keys[out != 0.0], out[out != 0.0]
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return indptr, (keys % n).astype(np.int32 if n < 2**31 else np.int64), out


@st.composite
def entry_sets(draw):
    """n (1 to 7) and two (keys, values) entry sets over its n * n keys, each
    key once per set, in any order; values that tie, cancel or are zero are
    common."""
    n = draw(st.integers(1, 7))

    def entries():
        keys = draw(st.lists(st.integers(0, n * n - 1), unique=True, max_size=n * n))
        values = st.one_of(st.sampled_from([0.0, 0.25, -0.25, 0.5, -0.5, 1.0]), st.floats(-1.0, 1.0))
        drawn = draw(st.lists(values, min_size=len(keys), max_size=len(keys)))
        return np.array(keys, dtype=np.int64), np.array(drawn, dtype=float)

    return n, entries(), entries()


@given(case=entry_sets(), op=st.sampled_from([np.maximum, np.add]))
@settings(max_examples=400, deadline=None)
def test_union_matches_sort_and_search(case, op):
    n, a, b = case
    for got, want in zip(_union(n, a, b, op), reference_union(n, a, b, op)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(a=directed_entries(symmetric=True), b=directed_entries(symmetric=True))
@settings(max_examples=300, deadline=None)
def test_mix_matches_scipy_sum(a, b):
    if a.shape != b.shape:
        b = sp.csr_matrix(a.shape)
    ga, gb = SimilarityGraph(a.toarray()), SimilarityGraph(b.toarray())
    mixed = mix_graphs(ga, gb)
    same_csr((mixed.indptr, mixed.indices, mixed.data), (a + b) * 0.5)
    assert mixed.edge_count == ((a + b) * 0.5).nnz // 2


def reference_save(csr, path):
    """The scipy writer: the upper triangle of the COO form."""
    coo = csr.tocoo()
    upper = coo.row < coo.col
    rows, cols = coo.row[upper].tolist(), coo.col[upper].tolist()
    lines = [f"{csr.shape[0]} {len(rows)}"]
    lines.extend(map("{} {} {!r}".format, rows, cols, coo.data[upper].tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


@given(case=directed_entries(symmetric=True))
@settings(max_examples=200, deadline=None)
def test_writer_matches_scipy_writer(tmp_path_factory, case):
    folder = tmp_path_factory.mktemp("writer")
    save_similarity(SimilarityMatrix(case.toarray()), folder / "got.sim")
    reference_save(case, folder / "want.sim")
    assert (folder / "got.sim").read_bytes() == (folder / "want.sim").read_bytes()


@st.composite
def triplet_bodies(draw):
    """Upper-triangle triplets in any order, now and then a pair twice or a
    0.0 value; n = 1 to 7."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    values = draw(st.lists(st.one_of(TIES, st.just(0.0), st.floats(0.0, 1.0)), min_size=len(chosen), max_size=len(chosen)))
    return n, [(i, j, v) for (i, j), v in zip(chosen, values)]


@given(body=triplet_bodies())
@example(body=(1, []))
@example(body=(4, [(2, 3, 0.5), (0, 1, 0.5), (0, 3, 0.5), (1, 2, 0.25)]))
@example(body=(3, [(1, 2, 0.5), (0, 1, 0.0), (1, 2, 0.5)]))
@settings(max_examples=400, deadline=None)
def test_loader_matches_scipy_assembly(tmp_path_factory, body):
    n, triplets = body
    path = tmp_path_factory.mktemp("assembly") / "m.sim"
    path.write_text("\n".join([f"{n} {len(triplets)}", *(f"{i} {j} {v!r}" for i, j, v in triplets)]) + "\n")
    i, j, v = (np.array([t[k] for t in triplets], dtype=float if k == 2 else int) for k in range(3))
    upper = sp.csr_matrix((v, (i, j)), shape=(n, n))  # sums a repeated pair
    if upper.nnz != len(triplets):
        with pytest.raises(InputError, match="duplicate pair"):
            load_similarity(path)
        return
    loaded = load_similarity(path)
    same_csr((loaded.indptr, loaded.indices, loaded.data), upper + upper.T)
    assert loaded.indices.dtype == np.int32
