"""Candidate weighting by Poisson deconvolution, and ranking.

Each unordered webpage pair covered by at least one candidate gets an
observation a_ij (the graph weight, zero if the pair is not an edge). The
model explains a_ij as a Poisson count with mean w_ij = sum_k mu_k C_k_ij,
where C_k_ij is 1 when candidate k contains both endpoints. The nonnegative
candidate weights mu maximize the likelihood

    sum_ij ( a_ij * log(w_ij) - w_ij )

over the covered pairs, fitted with the classic multiplicative update

    mu_k <- mu_k * ( sum_{ij in C_k} a_ij / w_ij ) / |pairs(C_k)|

which never leaves the nonnegative orthant and never decreases the
likelihood. A covered pair with a_ij = 0 adds nothing to the numerator, and
|pairs(C_k)| = s_k(s_k-1)/2 in closed form, so the fit runs over the covered
edges only, looked up in the graph's CSR arrays; the -w_ij terms of the
likelihood sum to -sum_k mu_k |pairs(C_k)|. A candidate's interestingness is its weight
times its size, so a small dense fragment can outrank a big sparse blob of
noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .candidates import TopicCandidate
from .errors import ConvergenceError, InputError, check_int
from .graph import SimilarityGraph

# Lower guard for the model mean inside the update ratio; keeps a zero mean
# from producing inf while leaving converged values untouched.
MEAN_GUARD = 1e-12

DEFAULT_MAX_ITER = 500
DEFAULT_TOL = 1e-6

# Most pair keys the coverage build computes in one block: 2 MiB of int64.
KEY_BLOCK = 2 ** 18


@dataclass
class RankedTopicList:
    """Candidates sorted by descending interestingness.

    indices maps each rank position back to the candidate's position in the
    original input list; ties in interestingness keep the smaller original
    index first.
    """

    items: list[TopicCandidate]
    indices: list[int]


class _Coverage:
    """Covered-edge view of a candidate list against a graph.

    Its (edge, candidate) entries run in ascending pair-key order, one
    edge's candidates ascending, so that both products below add each
    output's terms in the order of the CSC/CSR matvecs they replace.
    """

    def __init__(self, g: SimilarityGraph, candidates: Sequence[TopicCandidate]):
        if not candidates:
            raise InputError("no candidates to weight")
        n = g.n
        members = [cand.members for cand in candidates]
        sizes = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
        n_pairs = sizes * (sizes - 1) // 2
        ends = np.cumsum(n_pairs)
        # every candidate's members ascending, one candidate after another
        heads = np.cumsum(sizes) - sizes
        flat = np.fromiter(chain.from_iterable(map(sorted, members)), dtype=np.int64, count=int(sizes.sum()))
        largest = flat[heads + sizes - 1]
        outside = np.flatnonzero(largest >= n)
        if len(outside):
            raise InputError(f"candidate member {largest[outside[0]]} outside graph (n={n})")
        # A candidate's keys run in lexicographic (i, j) order, i < j, as
        # triu_indices gives them; the candidates of one size take one block
        # of at most KEY_BLOCK keys at a time (a larger candidate, a block
        # of its own, is copied as a slice).
        keys = np.empty(int(ends[-1]), dtype=np.int64)
        for size in np.flatnonzero(np.bincount(sizes)[2:]) + 2:
            iu, ju = np.triu_indices(size, 1)
            same = np.flatnonzero(sizes == size)
            step = max(1, KEY_BLOCK // len(iu))
            for ks in (same[lo : lo + step] for lo in range(0, len(same), step)):
                rows = flat[heads[ks, None] + np.arange(size)]
                block = np.take(rows * n, iu, axis=1)
                block += np.take(rows, ju, axis=1)
                if len(ks) == 1:
                    keys[ends[ks[0]] - len(iu) : ends[ks[0]]] = block[0]
                else:
                    keys[(ends[ks] - len(iu))[:, None] + np.arange(len(iu))] = block
        holders: dict[int, list[int]] = {}  # page -> candidates holding it
        for k, pages in enumerate(members):
            for page in pages:
                holders.setdefault(page, []).append(k)
        if not len(keys):
            raise InputError("no candidate covers any edge of the graph")
        # One stable sort: each distinct pair heads a run of equal keys that
        # lists its incidences in candidate order.
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        head = np.concatenate(([True], keys[1:] != keys[:-1]))
        pairs, starts = keys[head], np.flatnonzero(head)
        del keys
        graph_keys = g.keys()  # the needles: fewer than the pairs on big inputs
        at = np.minimum(np.searchsorted(pairs, graph_keys), len(pairs) - 1)
        hit = pairs[at] == graph_keys
        a = np.zeros(len(pairs))
        a[at[hit]] = g.data[hit]
        # Summing in first-appearance order (order[starts]), zeros included,
        # keeps the bits of the starting guess; any other order rounds differently.
        self.mu0 = float(a[np.argsort(order[starts])].sum()) / float(ends[-1])
        edge = a > 0.0
        if not edge.any():
            raise InputError("no candidate covers any edge of the graph")
        run_lengths = np.diff(starts, append=len(order))
        self.rows = np.repeat(np.arange(int(edge.sum())), run_lengths[edge])
        self.owner = np.searchsorted(ends, order[np.repeat(edge, run_lengths)], side="right")
        # Pages held by the same candidates form a class. An edge's
        # candidates, and so its mean, depend only on its ends' classes: each
        # pair of classes takes its entries from its first edge.
        classes: dict[tuple[int, ...], int] = {}
        page_class = np.zeros(n, dtype=np.int64)
        page_class[list(holders)] = [classes.setdefault(tuple(h), len(classes)) for h in holders.values()]
        edges = pairs[edge]
        class_pair = page_class[edges // n] * len(classes) + page_class[edges % n]
        _, firsts, self.edge_class = np.unique(class_pair, return_index=True, return_inverse=True)
        representative = np.isin(self.rows, firsts)
        self.class_rows = self.edge_class[self.rows[representative]]
        self.class_owner = self.owner[representative]
        self.a = a[edge]
        self.pair_counts = n_pairs.astype(float)

    def mean(self, mu: np.ndarray) -> np.ndarray:
        """The model mean of each covered edge, membership @ mu."""
        by_class = np.bincount(self.class_rows, weights=mu[self.class_owner])
        return by_class[self.edge_class]

    def numerator(self, ratio: np.ndarray) -> np.ndarray:
        """Each candidate's sum of ratio over its edges, membership.T @ ratio."""
        weights = np.take(ratio, self.rows)
        return np.bincount(self.owner, weights=weights, minlength=len(self.pair_counts))

    def initial_weights(self) -> np.ndarray:
        mu = np.full(len(self.pair_counts), self.mu0)
        mu[self.pair_counts == 0] = 0.0  # a singleton covers no pairs
        return mu

    def log_likelihood(self, mu: np.ndarray) -> float:
        with np.errstate(divide="ignore"):
            logs = np.log(self.mean(mu))
        return float(np.dot(self.a, logs) - np.dot(self.pair_counts, mu))


def iterate_weights(
    g: SimilarityGraph,
    candidates: Sequence[TopicCandidate],
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> Iterator[np.ndarray]:
    """Yield the weight vector after each multiplicative update.

    Stops early once the largest relative coordinate change falls below
    tol. Raising on non-convergence is the caller's business; this
    generator just runs out of iterations.
    """
    check_int("max_iter", max_iter, 1)
    if not 0.0 < tol < np.inf:
        raise InputError(f"tol must be positive and finite, got {tol}")
    cov = _Coverage(g, candidates)
    mu = cov.initial_weights()
    counts = np.maximum(cov.pair_counts, 1.0)
    for _ in range(max_iter):
        ratio = cov.a / np.maximum(cov.mean(mu), MEAN_GUARD)
        mu_new = mu * cov.numerator(ratio) / counts
        change = np.max(np.abs(mu_new - mu) / np.maximum(mu, MEAN_GUARD))
        mu = mu_new
        yield mu.copy()
        if change < tol:
            return


def estimate_weights(
    g: SimilarityGraph,
    candidates: Sequence[TopicCandidate],
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """Fit candidate weights; returns the final nonnegative vector.

    Raises ConvergenceError when the largest relative change has not fallen
    below tol within max_iter updates: ranking on an unfinished fit would
    pass for a converged one. The message names the candidate whose weight
    still changed the most, relative to itself, in the last update.
    """
    check_int("max_iter", max_iter, 1)
    # One spare update tells a fit that converged on its last allowed step
    # (the generator stops) from one that did not (it yields once more).
    prev = None
    for step, mu in enumerate(
        iterate_weights(g, candidates, max_iter=max_iter + 1, tol=tol), start=1
    ):
        if step > max_iter:
            change = np.abs(mu - prev) / np.maximum(prev, MEAN_GUARD)
            k = int(np.argmax(change))
            raise ConvergenceError(
                f"weight estimation did not converge within {max_iter} "
                f"iterations (tol={tol}); slowest: candidate {k} "
                f"(size {candidates[k].size}, weight {prev[k]:.3g}, "
                f"last relative change {change[k]:.3g})"
            )
        prev = mu
    return mu


def apply_weights(
    candidates: Sequence[TopicCandidate], weights: np.ndarray
) -> None:
    """Attach fitted weights to candidates in place."""
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(candidates):
        raise InputError("weights length does not match candidate count")
    if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
        raise InputError("weights must be finite and nonnegative")
    for cand, w in zip(candidates, weights):
        cand.weight = float(w)


def rank(candidates: Sequence[TopicCandidate]) -> RankedTopicList:
    """Sort candidates by descending interestingness = weight * size.

    Ties keep the candidate with the smaller original index first, so the
    output is deterministic for any input.
    """
    if not candidates:
        raise InputError("no candidates to rank")
    for pos, cand in enumerate(candidates):
        if cand.weight is None:
            raise InputError(f"candidate {pos} has no weight; run estimate_weights first")
        if cand.weight < 0.0:
            raise InputError(f"candidate {pos} has negative weight")
    order = sorted(
        range(len(candidates)),
        key=lambda k: (-candidates[k].interestingness, k),
    )
    return RankedTopicList(
        items=[candidates[k] for k in order],
        indices=order,
    )
