"""Greedy submodular refinement of a coarse topic.

A coarse topic contains the real hot topic plus whatever junk the bundling
pass dragged in. Refinement scores every subset P of the topic with

    goodness(P) = lam * sum_{i in P} pi_i
                  - sum_{i, j in P} pi_i * D_ij * pi_j     (ordered pairs)

where pi are the PageRank scores and D is a Gaussian dissimilarity built
from the reconstructed similarity (diagonal forced to zero, so adding a
node never penalizes itself). The first term rewards interesting members;
the second penalizes keeping members that are mutually redundant-with-low
affinity. goodness is submodular for any lam > 0, and monotone when
lam >= 2 with D normalized to unit total mass and pi a distribution, which
is what makes plain greedy selection near-optimal.

Greedy selection walks all members, each step taking the largest marginal
gain, lam * pi_p less one cross term pi_p * sum_{i in P} pi_i (D_ip + D_pi)
kept as a running sum (ties to the lower index), and recording it. The gain
trace g^0, g^1, ... decays, and the relative drop (g^t - g^(t+1)) / g^t
spikes when the selection crosses from topic core into junk. The cut point
is the earliest step whose drop lands within `margin` of the largest drop;
members selected up to and including that step form the refined topic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InputError
from .interestingness import TopicGraph

DEFAULT_BANDWIDTH = 10.0
DEFAULT_TRADEOFF = 2.0
DEFAULT_MARGIN = 0.1


@dataclass
class RefinedTopic:
    """Greedy trace over one topic, plus the cut once it is applied.

    selection_order, gains and deltas are aligned: gains[t] is the marginal
    gain of selection_order[t]; deltas[t] is the relative drop from step t
    to t + 1 and is only defined while gains[t] > 0 (the trace truncates at
    the first non-positive gain). cut_index/members stay None until a cut
    is applied.
    """

    selection_order: list[int]
    gains: list[float]
    deltas: list[float]
    cut_index: int | None = None
    members: frozenset[int] | None = None


def dissimilarity_stack(weights: np.ndarray, bandwidth: float = DEFAULT_BANDWIDTH) -> np.ndarray:
    """D_ij = exp(-s_ij^2 / bandwidth) off the diagonal, 0 on it, for each
    matrix of a (T, m, m) similarity stack.

    High reconstructed similarity means low dissimilarity. The diagonal is
    zeroed so that goodness never charges a member against itself.
    """
    if bandwidth <= 0.0 or not np.isfinite(bandwidth):
        raise InputError(f"bandwidth must be a positive real, got {bandwidth}")
    # the ufuncs of exp(-(w ** 2) / bandwidth), one buffer for all four
    values = np.square(weights, dtype=float)
    np.negative(values, out=values)
    np.divide(values, bandwidth, out=values)
    np.exp(values, out=values)
    values.reshape(len(values), -1)[:, :: values.shape[-1] + 1] = 0.0
    return values


def dissimilarity(tg: TopicGraph, bandwidth: float = DEFAULT_BANDWIDTH) -> np.ndarray:
    """dissimilarity_stack of one topic graph."""
    return dissimilarity_stack(tg.weights[None], bandwidth)[0]


def _instance(pi, d) -> tuple[np.ndarray, np.ndarray]:
    """pi and D as float arrays, checked to be a vector and a matching square."""
    pi, d = np.asarray(pi, dtype=float), np.asarray(d, dtype=float)
    if pi.ndim != 1:
        raise InputError("pi must be a vector")
    if d.shape != (len(pi), len(pi)):
        raise InputError(f"dissimilarity shape {d.shape} does not match {len(pi)} scores")
    return pi, d


def goodness(
    selection: Iterable[int],
    pi: np.ndarray,
    d,
    lam: float = DEFAULT_TRADEOFF,
) -> float:
    """Objective value of a member subset (local indices into pi)."""
    pi, dm = _instance(pi, d)
    sel = sorted(set(int(i) for i in selection))
    if not sel:
        return 0.0
    if sel[0] < 0 or sel[-1] >= len(pi):
        raise InputError(f"selection index outside topic of size {len(pi)}")
    ps = pi[sel]
    return float(lam * ps.sum() - ps @ dm[np.ix_(sel, sel)] @ ps)


def marginal_gain(
    p: int,
    selection: Iterable[int],
    pi: np.ndarray,
    d,
    lam: float = DEFAULT_TRADEOFF,
) -> float:
    """goodness(selection + {p}) - goodness(selection), computed directly.

    With a zero diagonal this equals lam * pi_p minus the two cross terms
    against the current selection; no full re-evaluation is needed.
    """
    pi, dm = _instance(pi, d)
    p = int(p)
    if p < 0 or p >= len(pi):
        raise InputError(f"candidate index {p} outside topic of size {len(pi)}")
    sel = sorted(set(int(i) for i in selection))
    if p in sel:
        raise InputError(f"candidate {p} already selected")
    if not sel:
        return float(lam * pi[p])
    ps = pi[sel]
    cross = float(ps @ dm[sel, p] * pi[p] + pi[p] * (dm[p, sel] @ ps))
    return float(lam * pi[p] - cross)


def greedy_stack(
    pi: np.ndarray, d: np.ndarray, lam: float = DEFAULT_TRADEOFF
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Full greedy passes over a (T, m) score stack and its (T, m, m)
    dissimilarities: selection order and gains, both (T, m), relative drops
    (T, m - 1) and the count of defined drops per topic. Row t's drops are
    deltas[t, :lengths[t]], up to its first non-positive gain. A member's
    cross term is one running sum, fed by D's row and column j once j is chosen.
    """
    count, m = pi.shape
    if m == 0:
        raise InputError("cannot refine an empty topic")
    if not 0.0 < lam < np.inf:
        raise InputError(f"lam must be positive and finite, got {lam}")
    topics = np.arange(count)
    cross = np.zeros((count, m))  # sum_{i in P} pi_i * (D_ip + D_pi)
    selected = np.zeros((count, m), dtype=bool)
    order, gains = np.empty((count, m), dtype=np.int64), np.empty((count, m))
    current = lam * pi - pi * cross
    for step in range(m):  # O(T * m) a step
        masked = np.where(selected, -np.inf, current)
        j = masked.argmax(axis=-1)  # first max wins: lower index on ties
        order[:, step], gains[:, step] = j, masked[topics, j]
        selected[topics, j] = True
        cross += pi[topics, j][:, None] * (d[topics, j] + d[topics, :, j])
        current = lam * pi - pi * cross
    with np.errstate(divide="ignore", invalid="ignore"):
        deltas = (gains[:, :-1] - gains[:, 1:]) / gains[:, :-1]
    # The trace is meaningless from the first non-positive gain on.
    stop = gains <= 0.0
    stop[:, -1] = True
    lengths = stop.argmax(axis=-1)
    return order, gains, deltas, lengths


def greedy_select(
    pi: np.ndarray,
    d,
    lam: float = DEFAULT_TRADEOFF,
) -> RefinedTopic:
    """Full greedy pass over every member, recording the gain trace.

    Selection does not stop at a negative gain; the complete trace is what
    the cut search needs. Ties go to the lower index.
    """
    pi, dm = _instance(pi, d)
    order, gains, deltas, lengths = greedy_stack(pi[None], dm[None], lam=lam)
    return RefinedTopic(order[0].tolist(), gains[0].tolist(), deltas[0, : lengths[0]].tolist())


def cut_stack(deltas: np.ndarray, lengths: np.ndarray, margin: float = DEFAULT_MARGIN) -> np.ndarray:
    """Per row t, the earliest step whose relative drop is within margin of
    the peak of its first lengths[t] drops. margin = 0 degenerates to the
    argmax itself. An index t means "keep selections 0..t inclusive".
    """
    if np.any(lengths == 0):
        raise InputError("cannot cut an empty gain-drop trace")
    if not 0.0 <= margin < np.inf:
        raise InputError(f"margin must be >= 0 and finite, got {margin}")
    arr = np.where(np.arange(deltas.shape[-1]) < lengths[:, None], deltas, -np.inf)
    return (arr >= arr.max(axis=-1, keepdims=True) - margin).argmax(axis=-1)


def apply_cut(refined: RefinedTopic, margin: float = DEFAULT_MARGIN) -> RefinedTopic:
    """Fill cut_index and members on a greedy trace, in place: cut_stack of
    its one gain-drop trace."""
    deltas = np.asarray(refined.deltas, dtype=float)
    refined.cut_index = int(cut_stack(deltas[None], np.array([len(deltas)]), margin=margin)[0])
    refined.members = frozenset(refined.selection_order[: refined.cut_index + 1])
    return refined
