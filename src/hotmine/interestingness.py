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
from .errors import ConvergenceError, InputError, check_int

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


@dataclass(frozen=True)
class InterestingnessVector:
    """Stationary scores for one topic graph, aligned with its nodes."""

    pi: np.ndarray
    iterations: int


def similarity_stack(
    topics: Sequence[CoarseTopic], candidates: Sequence[TopicCandidate]
) -> tuple[np.ndarray, np.ndarray]:
    """Node ids (T, m) and reconstructed weights (T, m, m) of T topics of m
    members each: per topic, the source weights added in source order over
    the pairs inside the topic. The weights are exactly symmetric."""
    nodes, held, source_weight = stack_sources(topics, candidates)
    return nodes, fill_similarity(held, source_weight)


def stack_sources(
    topics: Sequence[CoarseTopic], candidates: Sequence[TopicCandidate]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What similarity_stack builds its weights from: the node ids (T, m),
    which members each topic's S source slots hold (T, S, m) and the slots'
    weights (T, S). A topic's slots past its last source hold no member and
    weight 0."""
    if len({len(topic.members) for topic in topics}) != 1:
        raise InputError("a similarity stack needs topics of one size")
    nodes = np.array([sorted(topic.members) for topic in topics], dtype=np.int64)
    count, m = nodes.shape
    depth = max(len(topic.sources) for topic in topics)
    slots, weight, sizes, members = [], [], [], []
    for t, topic in enumerate(topics):
        for s, k in enumerate(topic.sources):
            if k < 0 or k >= len(candidates):
                raise InputError(f"source index {k} outside candidate list")
            cand = candidates[k]
            if cand.weight is None:
                raise InputError(f"candidate {k} has no weight; rank before refining")
            slots.append(t * depth + s)
            weight.append(cand.weight)
            sizes.append(len(cand.members))
            members.extend(cand.members)
    source_weight = np.zeros((count, depth))
    source_weight.ravel()[slots] = weight
    # each member's position in its topic, from one search over the topics'
    # node ids offset by topic, ending in a key above every needle
    members = np.asarray(members, dtype=np.int64)
    slot = np.repeat(np.asarray(slots, dtype=np.int64), sizes)
    span = int(max(nodes.max(initial=0), members.max(initial=0))) + 1
    keys = np.append(nodes + np.arange(count)[:, None] * span, count * span)
    needles = members + slot // depth * span
    at = np.searchsorted(keys, needles)
    hit = keys[at] == needles
    held = np.zeros((count, depth, m), dtype=bool)
    held.reshape(count * depth, m)[slot[hit], at[hit] % m] = True
    return nodes, held, source_weight


def fill_similarity(held: np.ndarray, source_weight: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The (T, m, m) weights of stack_sources' membership and slot weights,
    written into out if given, else into a new array: source by source in
    order, each covered pair adds the source's weight. Both triangles take
    the same adds, so the result is exactly symmetric."""
    count, depth, m = held.shape
    weights = np.empty((count, m, m)) if out is None else out
    weights.fill(0.0)
    pair = np.empty((count, m, m), dtype=bool)
    for s in range(depth):
        np.logical_and(held[:, s, :, None], held[:, s, None, :], out=pair)
        np.add(weights, source_weight[:, s, None, None], out=weights, where=pair)
    weights.reshape(count, m * m)[:, :: m + 1] = 0.0
    return weights


def reconstructed_similarity(
    topic: CoarseTopic, candidates: Sequence[TopicCandidate]
) -> TopicGraph:
    """Sum of source-candidate weights over pairs inside the topic."""
    nodes, weights = similarity_stack([topic], candidates)
    return TopicGraph(tuple(nodes[0].tolist()), weights[0])


def transition_stack(weights: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-normalize a symmetric (T, m, m) similarity stack, as
    similarity_stack builds it, into stochastic matrices.

    A node with no positive outgoing weight gets a uniform row, the usual
    dangling-node fix, so every row sums to one exactly. The result is a
    view laid out as the transposes: its .transpose(0, 2, 1) is a
    C-contiguous stack, the P^T that pagerank_stack multiplies without a
    copy. As W is symmetric, P^T[t, j, i] = W[t, j, i] / deg[t, i] divides
    W elementwise, into out if given: out may be weights itself.
    """
    if np.any(weights < 0.0):
        raise InputError("reconstructed similarity has a negative weight")
    degrees = weights.sum(axis=-1)[:, None, :]  # deg[t, i] over column i of P^T
    live = degrees > 0.0
    pt = np.empty(weights.shape) if out is None else out
    np.divide(weights, degrees, out=pt, where=live)
    np.copyto(pt, 1.0 / weights.shape[-1], where=~live)
    return pt.transpose(0, 2, 1)


def transition_matrix(tg: TopicGraph) -> np.ndarray:
    """transition_stack of one topic graph."""
    return transition_stack(tg.weights[None])[0]


def pagerank_stack(
    p: np.ndarray,
    alpha: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_PR_TOL,
    max_iter: int = DEFAULT_PR_MAX_ITER,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped power iteration to the stationary distributions of a (T, m, m)
    stack of transition matrices: (T, m) scores and per-topic iterations.

    alpha = 0 degenerates to the uniform distribution (pure random jump);
    alpha must stay strictly below 1 so the iteration contracts. Each topic
    stops at its own first step whose L1 change falls below tol, and its
    row stays frozen from then on. Raises ConvergenceError when some topic
    has not stopped within max_iter steps: a silent non-converged score
    vector would poison the refinement downstream.
    """
    if not (0.0 <= alpha < 1.0):
        raise InputError(f"alpha must lie in [0, 1), got {alpha}")
    if not 0.0 < tol < np.inf:
        raise InputError(f"tol must be positive and finite, got {tol}")
    max_iter = check_int("max_iter", max_iter, 1)
    if p.ndim != 3 or p.shape[1] != p.shape[2]:
        raise InputError(f"a transition stack must have shape (T, m, m), got {p.shape}")
    count, m = p.shape[0], p.shape[-1]
    if m == 0:
        raise InputError("empty transition matrix")
    if p.min(initial=0.0) < 0.0:  # no (T, m, m) mask beside p
        raise InputError("transition matrix has a negative entry")
    off = np.abs(p.sum(axis=-1) - 1.0)
    if np.max(off) > _ROW_SUM_TOL:
        bad = int(np.argmax(off)) % m
        raise InputError(f"row {bad} of the transition matrix does not sum to 1")

    # pi <- alpha * P^T pi + (1 - alpha)/m from the uniform vector. Stacked
    # matmul runs the gemv of a lone pt @ x, so the bits match. P^T is a view
    # when p comes from transition_stack; each step multiplies only the runs
    # of topics still live, as slices of it, and a stopped topic's row of x
    # is never written again.
    x, iterations = np.full((count, m), 1.0 / m), np.zeros(count, dtype=np.int64)
    jump = (1.0 - alpha) / m
    pt, runs = np.ascontiguousarray(p.transpose(0, 2, 1)), [(0, count)]
    for iteration in range(1, max_iter + 1):
        stopped = False
        for lo, hi in runs:
            nxt = alpha * np.matmul(pt[lo:hi], x[lo:hi, :, None])[..., 0] + jump
            done = np.abs(nxt - x[lo:hi]).sum(axis=-1) < tol
            x[lo:hi] = nxt
            if done.any():
                iterations[lo:hi][done], stopped = iteration, True
        if stopped:
            live = iterations == 0
            if not live.any():
                return x, iterations
            edges = np.flatnonzero(np.diff(live, prepend=False, append=False)).tolist()
            runs = list(zip(edges[::2], edges[1::2]))
    raise ConvergenceError(
        f"pagerank did not converge within {max_iter} iterations (tol={tol})"
    )


def pagerank(
    p: np.ndarray,
    alpha: float = DEFAULT_DAMPING,
    tol: float = DEFAULT_PR_TOL,
    max_iter: int = DEFAULT_PR_MAX_ITER,
) -> InterestingnessVector:
    """pagerank_stack of one square transition matrix."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise InputError(f"transition matrix must be square, got {p.shape}")
    pi, iterations = pagerank_stack(p[None], alpha=alpha, tol=tol, max_iter=max_iter)
    return InterestingnessVector(pi=pi[0], iterations=int(iterations[0]))
