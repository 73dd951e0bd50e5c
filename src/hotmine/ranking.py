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
likelihood. A candidate's interestingness is its weight times its size, so
a small dense fragment can outrank a big sparse blob of noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .candidates import TopicCandidate
from .errors import ConvergenceError, InputError
from .graph import SimilarityGraph

# Lower guard for the model mean inside the update ratio; keeps a zero mean
# from producing inf while leaving converged values untouched.
MEAN_GUARD = 1e-12

DEFAULT_MAX_ITER = 500
DEFAULT_TOL = 1e-6


@dataclass
class RankedTopicList:
    """Candidates sorted by descending interestingness.

    indices maps each rank position back to the candidate's position in the
    original input list; ties in interestingness keep the smaller original
    index first.
    """

    items: list[TopicCandidate]
    indices: list[int]

    def __len__(self) -> int:
        return len(self.items)

    def member_sets(self) -> list[frozenset[int]]:
        return [item.members for item in self.items]


class _Coverage:
    """Pair-level view of a candidate list against a graph."""

    def __init__(self, g: SimilarityGraph, candidates: Sequence[TopicCandidate]):
        if not candidates:
            raise InputError("no candidates to weight")
        weights = g.edge_weights()
        pair_index: dict[tuple[int, int], int] = {}
        cand_rows: list[np.ndarray] = []
        for cand in candidates:
            members = cand.sorted_members()
            if members and members[-1] >= g.n:
                raise InputError(
                    f"candidate member {members[-1]} outside graph (n={g.n})"
                )
            rows = [
                pair_index.setdefault(pair, len(pair_index))
                for pair in combinations(members, 2)
            ]
            cand_rows.append(np.asarray(rows, dtype=np.int64))
        n_pairs = len(pair_index)
        a = np.zeros(n_pairs)
        for (i, j), row in pair_index.items():
            a[row] = weights.get((i, j), 0.0)
        if n_pairs == 0 or not np.any(a > 0.0):
            raise InputError("no candidate covers any edge of the graph")
        indptr = np.zeros(len(candidates) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([len(r) for r in cand_rows])
        indices = np.concatenate(cand_rows) if n_pairs else np.empty(0, dtype=np.int64)
        data = np.ones(len(indices))
        # membership: pairs x candidates, one column per candidate
        self.membership = sp.csc_matrix(
            (data, indices, indptr), shape=(n_pairs, len(candidates))
        )
        self.a = a
        self.pair_counts = np.asarray([len(r) for r in cand_rows], dtype=float)

    def initial_weights(self) -> np.ndarray:
        total_pairs = self.pair_counts.sum()
        mu0 = float(self.a.sum()) / total_pairs
        mu = np.full(len(self.pair_counts), mu0)
        mu[self.pair_counts == 0] = 0.0  # a singleton covers no pairs
        return mu

    def log_likelihood(self, mu: np.ndarray) -> float:
        w = self.membership @ mu
        out = -w.sum()
        pos = self.a > 0.0
        if np.any(pos):
            with np.errstate(divide="ignore"):
                logs = np.log(w[pos])
            out += float(np.dot(self.a[pos], logs))
        return float(out)


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
    if max_iter < 1:
        raise InputError(f"max_iter must be >= 1, got {max_iter}")
    if tol <= 0.0:
        raise InputError(f"tol must be positive, got {tol}")
    cov = _Coverage(g, candidates)
    mu = cov.initial_weights()
    counts = np.maximum(cov.pair_counts, 1.0)
    for _ in range(max_iter):
        w = cov.membership @ mu
        ratio = cov.a / np.maximum(w, MEAN_GUARD)
        mu_new = mu * (cov.membership.T @ ratio) / counts
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
    pass for a converged one.
    """
    if max_iter < 1:
        raise InputError(f"max_iter must be >= 1, got {max_iter}")
    # One spare update tells a fit that converged on its last allowed step
    # (the generator stops) from one that did not (it yields once more).
    for step, mu in enumerate(
        iterate_weights(g, candidates, max_iter=max_iter + 1, tol=tol), start=1
    ):
        if step > max_iter:
            raise ConvergenceError(
                f"weight estimation did not converge within {max_iter} "
                f"iterations (tol={tol})"
            )
    return mu


def poisson_log_likelihood(
    g: SimilarityGraph, candidates: Sequence[TopicCandidate], mu: np.ndarray
) -> float:
    """Log-likelihood of weights mu over the covered pairs (additive
    constants dropped)."""
    mu = np.asarray(mu, dtype=float)
    if len(mu) != len(candidates):
        raise InputError("mu length does not match candidate count")
    if np.any(mu < 0.0):
        raise InputError("weights must be nonnegative")
    return _Coverage(g, candidates).log_likelihood(mu)


def apply_weights(
    candidates: Sequence[TopicCandidate], weights: np.ndarray
) -> None:
    """Attach fitted weights (and interestingness) to candidates in place."""
    weights = np.asarray(weights, dtype=float)
    if len(weights) != len(candidates):
        raise InputError("weights length does not match candidate count")
    if np.any(weights < 0.0) or not np.all(np.isfinite(weights)):
        raise InputError("weights must be finite and nonnegative")
    for cand, w in zip(candidates, weights):
        cand.weight = float(w)
        cand.interestingness = float(w) * cand.size


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
        cand.interestingness = cand.weight * cand.size
    order = sorted(
        range(len(candidates)),
        key=lambda k: (-candidates[k].interestingness, k),
    )
    return RankedTopicList(
        items=[candidates[k] for k in order],
        indices=order,
    )
