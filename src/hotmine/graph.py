"""Similarity matrices and sparse webpage graphs.

Raw visual/textual similarity matrices are converted to affinities with a
Gaussian kernel, sparsified to k-nearest-neighbor graphs, and mixed into a
single multimodal graph whose edge set is the union of the two inputs and
whose weights are the per-edge average (a missing edge contributes zero).

Matrices and graphs are both CSR: every stage costs time and memory in
proportion to the stored nonzeros, never n x n. Both are exchanged on disk
in a plain triplet text format (see load_similarity).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn, TextIO

import numpy as np
import scipy.sparse as sp

from .errors import InputError

SYMMETRY_TOL = 1e-9
_TRIPLET = np.dtype([("i", np.int32), ("j", np.int32), ("v", np.float64)])


def _checked(matrix: np.ndarray | sp.spmatrix, what: str, tol: float) -> sp.csr_matrix:
    """A CSR copy with duplicates summed, checked to be square and symmetric
    within tol, with finite values in [0, 1] and a zero diagonal."""
    if np.ndim(matrix) != 2:
        raise InputError(f"{what} must be square, got shape {np.shape(matrix)}")
    csr = sp.csr_matrix(matrix, dtype=float, copy=True)
    csr.sum_duplicates()
    if csr.shape[0] != csr.shape[1]:
        raise InputError(f"{what} must be square, got shape {csr.shape}")
    if not np.all(np.isfinite(csr.data)):
        raise InputError(f"{what} contains a non-finite entry")
    if np.any(np.abs((csr - csr.T).data) > tol):
        raise InputError(f"{what} is not symmetric within {tol:g}")
    if np.any((csr.data < 0.0) | (csr.data > 1.0)):
        raise InputError(f"{what} values must lie in [0, 1]")
    if csr.diagonal().any():
        raise InputError(f"{what} must have a zero diagonal (no self-loops)")
    return csr


@dataclass(frozen=True)
class SimilarityMatrix:
    """Pairwise similarity (or affinity) matrix over n webpages.

    Built from a dense array or a sparse matrix and held as a canonical CSR
    matrix: sorted indices, no duplicates, no explicit zeros. Entries live
    in [0, 1], the diagonal is zero, and the matrix is symmetric within
    1e-9. A zero entry means "no measured similarity".
    """

    csr: sp.csr_matrix

    def __post_init__(self) -> None:
        csr = _checked(self.csr, "similarity matrix", SYMMETRY_TOL)
        csr.eliminate_zeros()
        object.__setattr__(self, "csr", csr)

    @classmethod
    def _trusted(cls, csr: sp.csr_matrix) -> SimilarityMatrix:
        """Wrap a CSR matrix that is canonical and valid by construction."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "csr", csr)
        return matrix

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @property
    def values(self) -> np.ndarray:
        """A dense n x n copy."""
        return self.csr.toarray()


@dataclass(frozen=True)
class SimilarityGraph:
    """Sparse undirected webpage graph with weights in [0, 1].

    kind records provenance ("visual", "textual" or "mixed") and is carried
    through mixing so downstream stages can label their reports.
    """

    adjacency: sp.csr_matrix
    kind: str = "mixed"

    def __post_init__(self) -> None:
        object.__setattr__(self, "adjacency", _checked(self.adjacency, "graph", 0.0))

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self.adjacency.nnz // 2


def gaussian_affinity(
    w: SimilarityMatrix, sigma2: float | None = None
) -> SimilarityMatrix:
    """Convert raw similarities to affinities via exp(-w_ij^2 / sigma2).

    The kernel is applied only to nonzero entries; absent pairs stay absent
    so the sparsity pattern is preserved. When sigma2 is omitted it defaults
    to the mean squared value of the nonzero off-diagonal entries, which
    keeps the exponent at order one regardless of the input scale.
    """
    csr = w.csr
    x = csr.data**2
    if sigma2 is None:
        if not x.size:
            raise InputError("cannot infer sigma2 from a matrix with no nonzero entries")
        # row-major nonzeros: the dense values[values > 0], so the same bits
        sigma2 = float(np.mean(x))
    if not np.isfinite(sigma2) or sigma2 <= 0.0:
        raise InputError(f"sigma2 must be a positive real, got {sigma2}")
    np.negative(x, out=x)
    x /= sigma2
    np.exp(x, out=x)
    out = sp.csr_matrix((x, csr.indices, csr.indptr), shape=csr.shape)
    if not x.all():  # exp underflowed; copy, as the indices are the input's
        out = out.copy()
        out.eliminate_zeros()
    return SimilarityMatrix._trusted(out)


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
    a = affinity.csr
    degree = np.diff(a.indptr)
    keep = np.ones(a.nnz, dtype=bool)
    # Rows of one degree stack into a (rows x degree) block without padding;
    # there are at most sqrt(2 nnz) distinct degrees.
    for d in np.unique(degree[degree > k]):
        pos = a.indptr[np.flatnonzero(degree == d), None] + np.arange(d)
        block = a.data[pos]
        kth = np.partition(block, d - k, axis=1)[:, d - k, None]
        above = block > kth
        ties = block == kth
        room = k - above.sum(axis=1, keepdims=True)
        # columns are sorted within a row: the first ties have the lowest index
        keep[pos] = above | (ties & (np.cumsum(ties, axis=1) <= room))
    # every stored affinity is > 0, so each row keeps min(degree, k) entries
    indptr = np.concatenate(([0], np.cumsum(np.minimum(degree, k))))
    directed = sp.csr_matrix((a.data[keep], a.indices[keep], indptr), shape=(n, n))
    return SimilarityGraph(directed.maximum(directed.T), kind=kind)


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


def _save_triplets(adjacency: sp.csr_matrix, path: str | Path) -> None:
    """Write the upper triangle of a CSR matrix with sorted indices."""
    coo = adjacency.tocoo()
    upper = coo.row < coo.col
    rows, cols = coo.row[upper].tolist(), coo.col[upper].tolist()
    lines = [f"{adjacency.shape[0]} {len(rows)}"]
    lines.extend(map("{} {} {!r}".format, rows, cols, coo.data[upper].tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def save_similarity(matrix: SimilarityMatrix, path: str | Path) -> None:
    """Write a matrix in triplet format (upper triangle of nonzeros)."""
    _save_triplets(matrix.csr, path)


def load_similarity(path: str | Path) -> SimilarityMatrix:
    """Read a triplet-format matrix, validating indices and value range.

    Memory grows with nnz, not n x n. A `0.0` triplet counts towards nnz
    but stores no edge; a pair given twice is rejected.
    """
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
            if n >= 2**31:  # page indices are 32-bit
                raise InputError(f"{path}: header n={n} does not fit in memory (n < 2**31)")
            upper = _read_upper(fh, n, nnz)
            if upper is None:
                _raise_first_bad_line(fh, path, n, nnz)
        # the sum stores no zeros: a 0.0 triplet is no edge
        return SimilarityMatrix._trusted(upper + upper.T)
    except UnicodeDecodeError as exc:
        # the codec's byte position counts from a read buffer, not the file
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except MemoryError as exc:
        raise InputError(f"{path}: the matrix does not fit in memory") from exc


def _read_upper(fh: TextIO, n: int, nnz: int) -> sp.csr_matrix | None:
    """The body's upper triangle, parsed in one call and checked as arrays;
    None if it does not parse or a check fails."""
    try:
        with warnings.catch_warnings():
            # a body without data lines is valid when nnz is 0
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, dtype=_TRIPLET, comments=None, ndmin=1)
    except ValueError:
        return None
    i, j, v = rows["i"], rows["j"], rows["v"]
    valid = (0 <= i) & (i < j) & (j < n) & (v >= 0.0) & (v <= 1.0)
    if len(rows) != nnz or not valid.all():
        return None
    upper = sp.csr_matrix((v, (i, j)), shape=(n, n))  # sums repeated pairs
    return upper if upper.nnz == nnz else None


def _raise_first_bad_line(fh: TextIO, path: Path, n: int, nnz: int) -> NoReturn:
    """Read a rejected body again line by line and raise its first error."""
    fh.seek(0)
    fh.readline()
    pairs: set[int] = set()
    for lineno, line in enumerate(fh, start=2):
        if not line.strip():
            continue
        parts = line.split()
        # ASCII digits only, no underscores: what the vectorized parse reads
        if len(parts) != 3 or not all(p.isascii() and "_" not in p for p in parts):
            raise InputError(f"{path}:{lineno}: expected 'i j value'")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: expected 'i j value'") from exc
        if not (0 <= i < j < n):
            raise InputError(f"{path}:{lineno}: indices must satisfy 0 <= i < j < n")
        if not 0.0 <= v <= 1.0:
            raise InputError(f"{path}:{lineno}: value outside [0, 1]")
        if i * n + j in pairs:
            raise InputError(f"{path}:{lineno}: duplicate pair ({i}, {j})")
        pairs.add(i * n + j)
    if len(pairs) != nnz:
        raise InputError(f"{path}: header promised {nnz} entries, found {len(pairs)}")
    raise InputError(f"{path}: malformed triplet body")


def save_graph(graph: SimilarityGraph, path: str | Path) -> None:
    """Write a graph's adjacency in the same triplet format as matrices."""
    _save_triplets(graph.adjacency, path)


def load_graph(path: str | Path, kind: str = "mixed") -> SimilarityGraph:
    return SimilarityGraph(load_similarity(path).csr, kind=kind)
