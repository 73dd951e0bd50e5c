"""Similarity matrices and sparse webpage graphs.

Raw visual/textual similarity matrices are converted to affinities with a
Gaussian kernel, sparsified to k-nearest-neighbor graphs, and mixed into a
single multimodal graph whose edge set is the union of the two inputs and
whose weights are the per-edge average (a missing edge contributes zero).
A matrix whose every row holds k entries or fewer is its own kNN graph.

Matrices and graphs are both held as canonical CSR arrays (indptr,
indices, data) in plain numpy: every stage costs time and memory in
proportion to the stored nonzeros, never n x n, and no module imports
scipy, except SimilarityGraph.adjacency, a view for callers that want one.
Where two entry sets meet (a transpose, a union), entries are addressed by
their row-major int64 key i*n + j. Both are exchanged on disk in a plain
triplet text format (see load_similarity). A matrix only feeds its own
modality's kNN graph: pipeline.build_mixed_graph_from_files builds each in
its own process, and the textual child sends back its kNN graph, not its
matrix, so no process holds both matrices.
"""

from __future__ import annotations

import os
import stat
import warnings
from pathlib import Path
from typing import Any, Callable, NoReturn, TextIO

import numpy as np

from .errors import InputError, check_int

SYMMETRY_TOL = 1e-9
_TRIPLET = np.dtype([("i", np.int32), ("j", np.int32), ("v", np.float64)])
# names np.loadtxt would open through a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _keys(n: int, indptr: np.ndarray, indices: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Int64 keys i*n + j of the stored entries (j*n + i with transpose), in
    storage order: ascending for canonical arrays without transpose."""
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    cols = indices.astype(np.int64)
    return cols * n + rows if transpose else rows * n + cols


def _kept(indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, keep: np.ndarray) -> tuple:
    """CSR arrays of the entries where keep is true."""
    if keep.all():
        return indptr, indices, data
    return np.concatenate(([0], np.cumsum(keep)))[indptr], indices[keep], data[keep]


def _union(n: int, a: tuple, b: tuple, op: Callable) -> tuple:
    """CSR arrays of op over the union of two (keys, values) entry sets, each
    without a repeated key, a missing entry counting as zero; like scipy's
    sparse binary operations, it stores no zero result."""
    keys = np.concatenate((a[0], b[0]))
    order = np.argsort(keys, kind="stable")  # merges sorted runs
    keys = keys[order]
    head = np.ones(len(keys), dtype=bool)  # first of its key; no int temporaries
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    keys = keys[head]
    rank = np.cumsum(head)
    rank -= 1  # in place, and the dels: the peak stays near a plain sort's
    slot = np.empty_like(order)  # each entry's position among the distinct keys
    slot[order] = rank
    del order, rank
    x, y = np.zeros(len(keys)), np.zeros(len(keys))
    x[slot[: len(a[0])]], y[slot[len(a[0]) :]] = a[1], b[1]
    del slot
    out = op(x, y)
    keys, out = keys[out != 0.0], out[out != 0.0]
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    return indptr, (keys % n).astype(np.int32), out


def _checked(matrix: Any, what: str, tol: float) -> tuple:
    """Canonical CSR arrays (n, indptr, indices, data) of a dense array,
    zeros dropped, checked to be square and symmetric within tol, with
    finite values in [0, 1] and a zero diagonal. An array symmetric only
    within tol keeps its upper triangle, mirrored, as the triplet file does."""
    shape = np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InputError(f"{what} must be square, got shape {shape}")
    n = shape[0]
    dense = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(dense)):
        raise InputError(f"{what} contains a non-finite entry")
    asymmetry = dense - dense.T  # the one n x n float temporary
    if np.any(np.abs(asymmetry, out=asymmetry) > tol):
        raise InputError(f"{what} is not symmetric within {tol:g}")
    if asymmetry.any():  # the spent buffer takes the mirrored upper triangle
        np.copyto(asymmetry, dense.T)
        np.copyto(asymmetry, dense, where=np.tri(n, dtype=bool).T)
        dense = asymmetry
    del asymmetry
    nonzero = dense != 0.0  # row-major, as CSR stores them
    indptr = np.concatenate(([0], np.cumsum(nonzero.sum(axis=1))))
    indices = np.broadcast_to(np.arange(n, dtype=np.int32), (n, n))[nonzero]
    data = dense[nonzero]
    if np.any((data < 0.0) | (data > 1.0)):
        raise InputError(f"{what} values must lie in [0, 1]")
    if dense.diagonal().any():
        raise InputError(f"{what} must have a zero diagonal (no self-loops)")
    return n, indptr, indices, data


class _SymmetricCSR:
    """An n x n symmetric matrix held as canonical CSR arrays: indptr, and
    per row ascending distinct column indices and their float64 data."""

    def __init__(self, matrix: Any) -> None:
        self.n, self.indptr, self.indices, self.data = _checked(matrix, self._what, self._tol)

    @classmethod
    def _trusted(cls, n: int, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, **attrs: Any):
        """Wrap CSR arrays that are canonical and valid by construction."""
        obj = object.__new__(cls)
        vars(obj).update(n=n, indptr=indptr, indices=indices, data=data, **attrs)
        return obj

    def keys(self) -> np.ndarray:
        """Ascending row-major keys i*n + j of the stored entries."""
        return _keys(self.n, self.indptr, self.indices)

    @property
    def values(self) -> np.ndarray:
        """A dense n x n copy."""
        out = np.zeros((self.n, self.n))
        out.ravel()[self.keys()] = self.data
        return out


class SimilarityMatrix(_SymmetricCSR):
    """Pairwise similarity (or affinity) matrix over n webpages.

    Built from a dense array and held as canonical CSR arrays: sorted
    indices, no explicit zeros. Entries live in [0, 1], the diagonal is
    zero, and the matrix is symmetric within 1e-9. A zero entry means "no
    measured similarity".
    """

    _what, _tol = "similarity matrix", SYMMETRY_TOL


class SimilarityGraph(_SymmetricCSR):
    """Sparse undirected webpage graph with weights in [0, 1].

    kind names what it was built from ("vis", "txt" or "mixed"); it is a
    label for callers, and no stage reads it.
    """

    _what, _tol = "graph", 0.0

    def __init__(self, adjacency: Any, kind: str = "mixed") -> None:
        super().__init__(adjacency)
        self.kind = kind

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return len(self.data) // 2

    @property
    def adjacency(self):  # a scipy CSR view that perfbench/tracing.py reads
        import scipy.sparse as sp

        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))


def gaussian_affinity(
    w: SimilarityMatrix, sigma2: float | None = None
) -> SimilarityMatrix:
    """Convert raw similarities to affinities via exp(-w_ij^2 / sigma2).

    The kernel is applied only to nonzero entries; absent pairs stay absent
    so the sparsity pattern is preserved. When sigma2 is omitted it defaults
    to the mean squared value of the nonzero off-diagonal entries, which
    keeps the exponent at order one regardless of the input scale.
    """
    x = w.data**2
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
    # an underflowed exp is no affinity
    return SimilarityMatrix._trusted(w.n, *_kept(w.indptr, w.indices, x, x != 0.0))


def knn_sparsify(affinity: SimilarityMatrix, k: int, kind: str = "mixed") -> SimilarityGraph:
    """Keep each node's k largest-affinity neighbors, symmetrized by union.

    A kept edge carries its original affinity value. Ties at the k-th
    neighbor are broken in favor of the lower node index, which makes the
    output independent of any internal ordering quirks. When no row holds
    more than k entries, the graph shares the matrix's arrays.
    """
    n = affinity.n
    k = check_int("k", k, 1)
    if k >= n:
        raise InputError(f"k must satisfy 1 <= k < n (n={n}), got {k}")
    a = affinity
    degree = np.diff(a.indptr)
    if degree.max() <= k:  # every entry is kept, and a matrix is exactly symmetric
        return SimilarityGraph._trusted(n, a.indptr, a.indices, a.data, kind=kind)
    keep = np.ones(len(a.data), dtype=bool)
    # Rows of one degree stack into a (rows x degree) block without padding;
    # there are at most sqrt(2 nnz) distinct degrees.
    for d in np.flatnonzero(np.bincount(degree[degree > k])):  # ascending
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
    indices, data = a.indices[keep], a.data[keep]
    transposed = _keys(n, indptr, indices, transpose=True)
    by_key = np.argsort(transposed)  # sorted needles search faster
    union = _union(n, (_keys(n, indptr, indices), data), (transposed[by_key], data[by_key]), np.maximum)
    return SimilarityGraph._trusted(n, *union, kind=kind)


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
    indptr, indices, data = _union(g_vis.n, (g_vis.keys(), g_vis.data), (g_txt.keys(), g_txt.data), np.add)
    return SimilarityGraph._trusted(g_vis.n, indptr, indices, data * 0.5, kind="mixed")


# ---------------------------------------------------------------------------
# Triplet file format: first line "n nnz", then one "i j value" line per
# stored pair with 0-based i < j; the lower triangle is implied by symmetry.


def save_similarity(matrix: _SymmetricCSR, path: str | Path) -> None:
    """Write a matrix in triplet format (upper triangle of nonzeros)."""
    rows = np.repeat(np.arange(matrix.n), np.diff(matrix.indptr))
    upper = rows < matrix.indices
    rows, cols = rows[upper].tolist(), matrix.indices[upper].tolist()
    lines = [f"{matrix.n} {len(rows)}"]
    lines.extend(map("{} {} {!r}".format, rows, cols, matrix.data[upper].tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def load_similarity(path: str | Path) -> SimilarityMatrix:
    """Read a triplet-format matrix, validating indices and value range.

    Memory grows with nnz, not n x n. A `0.0` triplet counts towards nnz
    but stores no edge; a pair given twice is rejected. The input may be a
    regular file or a pipe; a compression suffix is not decompressed.
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
            arrays = _read_symmetric(fh, path, n, nnz)
            if arrays is None:
                _raise_first_bad_line(fh, path, n, nnz)
        return SimilarityMatrix._trusted(n, *arrays)
    except UnicodeDecodeError as exc:
        # the codec's byte position counts from a read buffer, not the file
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except MemoryError as exc:
        raise InputError(f"{path}: the matrix does not fit in memory") from exc


def _read_symmetric(fh: TextIO, path: Path, n: int, nnz: int) -> tuple | None:
    """CSR arrays of upper + upper.T from the upper triangle in the body
    after fh's header line, parsed in one call and checked as arrays; None
    if the body does not parse or a check fails. Each large array is freed
    once used, to keep the peak low."""
    # Given a str path, np.loadtxt opens the file itself and reads it in
    # large chunks; given a file, it iterates it line by line, which is
    # slower. The path is given where reading the file again is safe: a
    # regular file whose name has no suffix that np.loadtxt would
    # decompress. It is absolute, so never taken for a URL.
    source: dict = dict(fname=fh)
    if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and path.suffix not in _COMPRESSED:
        source = dict(fname=os.path.abspath(path), skiprows=1, encoding=fh.encoding)
    try:
        with warnings.catch_warnings():
            # a body without data lines is valid when nnz is 0
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(**source, dtype=_TRIPLET, comments=None, ndmin=1)
    except ValueError:
        return None
    i, j, v = rows["i"], rows["j"], rows["v"]
    valid = (0 <= i) & (i < j) & (j < n) & (v >= 0.0) & (v <= 1.0)
    if len(rows) != nnz or not valid.all():
        return None
    # Row-major keys i*n + j in strict ascent, as save_similarity writes
    # them, hold no repeated pair; otherwise sorted keys show one as equal
    # neighbours.
    keys = i.astype(np.int64) * n + j
    if np.all(keys[1:] > keys[:-1]):
        del keys  # i, j, v stay views of rows: copies raised the peak RSS
    else:
        order = np.argsort(keys)
        keys = keys[order]
        if np.any(keys[1:] == keys[:-1]):
            return None
        del keys
        i, j, v = i[order], j[order], v[order]
        del rows, order
    # Row r of upper + upper.T is column r of the upper triangle, rows
    # ascending, then row r of it: the two halves interleave without a sort.
    lower, upper = np.bincount(j, minlength=n), np.bincount(i, minlength=n)
    in_upper = np.repeat(np.tile([False, True], n), np.column_stack((lower, upper)).ravel())
    by_column = np.argsort(j, kind="stable")
    lower_i, lower_v = i[by_column], v[by_column]
    del i, by_column
    indices = np.empty(len(in_upper), dtype=np.int32)
    indices[in_upper], indices[~in_upper] = j, lower_i
    del j, lower_i
    data = np.empty(len(in_upper))
    data[in_upper], data[~in_upper] = v, lower_v
    indptr = np.concatenate(([0], np.cumsum(lower + upper)))
    return _kept(indptr, indices, data, data != 0.0)  # a 0.0 triplet is no edge


def _raise_first_bad_line(fh: TextIO, path: Path, n: int, nnz: int) -> NoReturn:
    """Read a rejected body again line by line and raise its first error."""
    if not fh.seekable():  # a pipe, say: its body is gone
        raise InputError(f"{path}: malformed triplet body; the input cannot be read again to locate the bad line")
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


def load_graph(path: str | Path) -> SimilarityGraph:
    """Read a mixed graph written by save_similarity."""
    return SimilarityGraph._trusted(**vars(load_similarity(path)), kind="mixed")
