"""Per-topic interestingness scores via PageRank on reconstructed similarity.

The raw graph is too noisy to score individual webpages, so each coarse
topic gets a model-based similarity instead: for members i and j the
reconstructed weight is the sum of the fitted weights of the topic's source
candidates that contain both. A random walk on that matrix (row-normalized,
with damping) yields a stationary distribution pi whose entries say how
central each member is to the topic. Webpages dragged in by a single weak
fragment sit in thin rows and score low; that is exactly what the refining
stage prunes on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundling import CoarseTopic
from .candidates import TopicCandidate
from .errors import ConvergenceError, InputError

DEFAULT_DAMPING = 0.9
DEFAULT_PR_TOL = 1e-9
DEFAULT_PR_MAX_ITER = 200

_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class TopicGraph:
    """Dense reconstructed-similarity graph over one coarse topic.

    nodes are the topic's webpage indices in ascending order; weights is
    the symmetric nonnegative matrix aligned with that order, zero on the
    diagonal.
    """

    nodes: tuple[int, ...]
    weights: np.ndarray

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class InterestingnessVector:
    """Stationary scores for one topic graph, aligned with its nodes."""

    pi: np.ndarray
    iterations: int


def reconstructed_similarity(
    topic: CoarseTopic, candidates: Sequence[TopicCandidate]
) -> TopicGraph:
    """Sum of source-candidate weights over pairs inside the topic."""
    nodes = sorted(topic.members)
    pos = {node: i for i, node in enumerate(nodes)}
    m = len(nodes)
    weights = np.zeros((m, m))
    for k in topic.sources:
        if k < 0 or k >= len(candidates):
            raise InputError(f"source index {k} outside candidate list")
        cand = candidates[k]
        if cand.weight is None:
            raise InputError(f"candidate {k} has no weight; rank before refining")
        idx = np.asarray([pos[u] for u in cand.members if u in pos])
        if idx.size >= 2:
            weights[np.ix_(idx, idx)] += cand.weight
    np.fill_diagonal(weights, 0.0)
    return TopicGraph(tuple(nodes), weights)


def transition_matrix(tg: TopicGraph) -> np.ndarray:
    """Row-normalize reconstructed similarity into a stochastic matrix.

    A node with no positive outgoing weight gets a uniform row, the usual
    dangling-node fix, so every row sums to one exactly.
    """
    weights = tg.weights
    if np.any(weights < 0.0):
        raise InputError("reconstructed similarity has a negative weight")
    m = tg.size
    degrees = weights.sum(axis=1)
    p = np.full((m, m), 1.0 / m)
    live = degrees > 0.0
    p[live] = weights[live] / degrees[live, None]
    return p


def pagerank(
    p: np.ndarray,
    alpha: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_PR_TOL,
    max_iter: int = DEFAULT_PR_MAX_ITER,
) -> InterestingnessVector:
    """Damped power iteration to the stationary distribution.

    alpha = 0 degenerates to the uniform distribution (pure random jump);
    alpha must stay strictly below 1 so the iteration contracts. Raises
    ConvergenceError when the L1 change between iterates has not fallen
    below tol within max_iter steps: a silent non-converged score vector
    would poison the refinement downstream.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise InputError(f"transition matrix must be square, got {p.shape}")
    if not (0.0 <= alpha < 1.0):
        raise InputError(f"alpha must lie in [0, 1), got {alpha}")
    if tol <= 0.0 or max_iter < 1:
        raise InputError("tol must be positive and max_iter >= 1")
    m = p.shape[0]
    if m == 0:
        raise InputError("empty transition matrix")
    if np.any(p < 0.0):
        raise InputError("transition matrix has a negative entry")
    rows = p.sum(axis=1)
    if np.max(np.abs(rows - 1.0)) > _ROW_SUM_TOL:
        bad = int(np.argmax(np.abs(rows - 1.0)))
        raise InputError(f"row {bad} of the transition matrix does not sum to 1")

    # pi <- alpha * P^T pi + (1 - alpha)/m, from the uniform vector.
    x = np.full(m, 1.0 / m)
    jump = (1.0 - alpha) / m
    pt = p.T.copy()
    for iteration in range(1, max_iter + 1):
        prev = x
        x = alpha * (pt @ x) + jump
        if float(np.abs(x - prev).sum()) < tol:
            return InterestingnessVector(pi=x, iterations=iteration)
    raise ConvergenceError(
        f"pagerank did not converge within {max_iter} iterations (tol={tol})"
    )
