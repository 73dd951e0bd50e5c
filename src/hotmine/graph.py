"""Similarity matrices and sparse webpage graphs.

Raw visual/textual similarity matrices are converted to affinities with a
Gaussian kernel, sparsified to k-nearest-neighbor graphs, and mixed into a
single multimodal graph whose edge set is the union of the two inputs and
whose weights are the per-edge average (a missing edge contributes zero).

Matrices travel as dense numpy arrays; graphs are CSR adjacency. Both are
exchanged on disk in a plain triplet text format (see load_similarity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import InputError

SYMMETRY_TOL = 1e-9


def _check_square_symmetric(values: np.ndarray, what: str) -> None:
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise InputError(f"{what} must be square, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InputError(f"{what} contains a non-finite entry")
    if np.max(np.abs(values - values.T), initial=0.0) > SYMMETRY_TOL:
        raise InputError(f"{what} is not symmetric within {SYMMETRY_TOL}")


@dataclass(frozen=True)
class SimilarityMatrix:
    """Dense pairwise similarity (or affinity) matrix over n webpages.

    Entries live in [0, 1], the diagonal is zero, and the matrix is
    symmetric within 1e-9. A zero entry means "no measured similarity".
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        _check_square_symmetric(values, "similarity matrix")
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise InputError("similarity values must lie in [0, 1]")
        if np.any(np.diagonal(values) != 0.0):
            raise InputError("similarity matrix must have a zero diagonal")

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SimilarityGraph:
    """Sparse undirected webpage graph with weights in [0, 1].

    kind records provenance ("visual", "textual" or "mixed") and is carried
    through mixing so downstream stages can label their reports.
    """

    adjacency: sp.csr_matrix
    kind: str = "mixed"

    def __post_init__(self) -> None:
        adj = sp.csr_matrix(self.adjacency)
        adj.sum_duplicates()
        object.__setattr__(self, "adjacency", adj)
        if adj.shape[0] != adj.shape[1]:
            raise InputError(f"adjacency must be square, got {adj.shape}")
        if adj.nnz:
            if not np.all(np.isfinite(adj.data)):
                raise InputError("graph contains a non-finite weight")
            if adj.data.min() < 0.0 or adj.data.max() > 1.0:
                raise InputError("graph weights must lie in [0, 1]")
        if adj.diagonal().any():
            raise InputError("graph must not contain self-loops")
        if (adj != adj.T).nnz:
            raise InputError("graph adjacency must be symmetric")

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self.adjacency.nnz // 2

    def to_dense(self) -> np.ndarray:
        return self.adjacency.toarray()


def gaussian_affinity(
    w: SimilarityMatrix, sigma2: float | None = None
) -> SimilarityMatrix:
    """Convert raw similarities to affinities via exp(-w_ij^2 / sigma2).

    The kernel is applied only to nonzero entries; absent pairs stay absent
    so the sparsity pattern is preserved. When sigma2 is omitted it defaults
    to the mean squared value of the nonzero off-diagonal entries, which
    keeps the exponent at order one regardless of the input scale.
    """
    values = w.values
    mask = values > 0.0
    if sigma2 is None:
        if not mask.any():
            raise InputError("cannot infer sigma2 from a matrix with no nonzero entries")
        sigma2 = float(np.mean(values[mask] ** 2))
    if not np.isfinite(sigma2) or sigma2 <= 0.0:
        raise InputError(f"sigma2 must be a positive real, got {sigma2}")
    out = np.zeros_like(values)
    out[mask] = np.exp(-(values[mask] ** 2) / sigma2)
    return SimilarityMatrix(out)


def knn_sparsify(affinity: SimilarityMatrix, k: int, kind: str = "mixed") -> SimilarityGraph:
    """Keep each node's k largest-affinity neighbors, symmetrized by union.

    A kept edge carries its original affinity value. Ties at the k-th
    neighbor are broken in favor of the lower node index, which makes the
    output independent of any internal ordering quirks.
    """
    n = affinity.n
    if not isinstance(k, int) or isinstance(k, bool):
        raise InputError(f"k must be an integer, got {k!r}")
    if k < 1 or k >= n:
        raise InputError(f"k must satisfy 1 <= k < n (n={n}), got {k}")
    values = affinity.values.copy()
    # Self-affinities are structural zeros; sink them below every candidate
    # so a node can never pick itself.
    np.fill_diagonal(values, -1.0)
    # Stable argsort on the negated values: equal affinities keep ascending
    # index order, i.e. the lower index wins the tie at position k.
    order = np.argsort(-values, axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(n), k)
    cols = order.ravel()
    vals = values[rows, cols]
    keep = vals > 0.0
    directed = sp.csr_matrix(
        (vals[keep], (rows[keep], cols[keep])), shape=(n, n)
    )
    adjacency = directed.maximum(directed.T)
    return SimilarityGraph(adjacency, kind=kind)


def mix_graphs(g_vis: SimilarityGraph, g_txt: SimilarityGraph) -> SimilarityGraph:
    """Average two graphs over the union of their edge sets.

    An edge present in only one input contributes zero for the other, so
    its mixed weight is half the present weight. The operation is exactly
    commutative.
    """
    if g_vis.n != g_txt.n:
        raise InputError(
            f"graphs disagree on node count: {g_vis.n} vs {g_txt.n}"
        )
    mixed = (g_vis.adjacency + g_txt.adjacency) * 0.5
    return SimilarityGraph(mixed, kind="mixed")


# ---------------------------------------------------------------------------
# Triplet file format: first line "n nnz", then one "i j value" line per
# stored pair with 0-based i < j; the lower triangle is implied by symmetry.


def save_similarity(matrix: SimilarityMatrix, path: str | Path) -> None:
    """Write a matrix in triplet format (upper triangle of nonzeros)."""
    values = matrix.values
    iu, ju = np.nonzero(np.triu(values, 1))
    lines = [f"{matrix.n} {len(iu)}"]
    lines.extend(
        f"{int(i)} {int(j)} {float(values[i, j])!r}" for i, j in zip(iu, ju)
    )
    Path(path).write_text("\n".join(lines) + "\n")


def load_similarity(path: str | Path) -> SimilarityMatrix:
    """Read a triplet-format matrix, validating indices and value range."""
    path = Path(path)
    try:
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
            try:
                values = np.zeros((n, n))
            except (MemoryError, ValueError) as exc:
                raise InputError(
                    f"{path}: header n={n} needs an n x n matrix that does not fit in memory"
                ) from exc
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
                    raise InputError(
                        f"{path}:{lineno}: indices must satisfy 0 <= i < j < n"
                    )
                if not np.isfinite(v) or v < 0.0 or v > 1.0:
                    raise InputError(f"{path}:{lineno}: value outside [0, 1]")
                if values[i, j] != 0.0:
                    raise InputError(f"{path}:{lineno}: duplicate pair ({i}, {j})")
                values[i, j] = values[j, i] = v
                seen += 1
    except UnicodeDecodeError as exc:
        # the codec's byte position counts from a read buffer, not the file
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if seen != nnz:
        raise InputError(f"{path}: header promised {nnz} entries, found {seen}")
    return SimilarityMatrix(values)


def save_graph(graph: SimilarityGraph, path: str | Path) -> None:
    """Write a graph's adjacency in the same triplet format as matrices."""
    coo = graph.adjacency.tocoo()
    upper = [(int(i), int(j), float(v)) for i, j, v in zip(coo.row, coo.col, coo.data) if i < j]
    upper.sort()
    lines = [f"{graph.n} {len(upper)}"]
    lines.extend(f"{i} {j} {v!r}" for i, j, v in upper)
    Path(path).write_text("\n".join(lines) + "\n")


def load_graph(path: str | Path, kind: str = "mixed") -> SimilarityGraph:
    matrix = load_similarity(path)
    return SimilarityGraph(sp.csr_matrix(matrix.values), kind=kind)
