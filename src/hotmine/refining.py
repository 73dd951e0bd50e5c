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
gain (ties to the lower index) and recording it. The gain trace g^0, g^1,
... decays, and the relative drop (g^t - g^(t+1)) / g^t spikes when the
selection crosses from topic core into junk. The cut point is the earliest
step whose drop lands within `margin` of the largest drop; members selected
up to and including that step form the refined topic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


def dissimilarity(tg: TopicGraph, bandwidth: float = DEFAULT_BANDWIDTH) -> np.ndarray:
    """D_ij = exp(-s_ij^2 / bandwidth) off the diagonal, 0 on it.

    High reconstructed similarity means low dissimilarity. The diagonal is
    zeroed so that goodness never charges a member against itself.
    """
    if bandwidth <= 0.0 or not np.isfinite(bandwidth):
        raise InputError(f"bandwidth must be a positive real, got {bandwidth}")
    values = np.exp(-(tg.weights ** 2) / bandwidth)
    np.fill_diagonal(values, 0.0)
    return values


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
    m = len(pi)
    if m == 0:
        raise InputError("cannot refine an empty topic")
    # Accumulated cross terms against the current selection, kept
    # incrementally so each step costs O(m).
    row_acc = np.zeros(m)  # sum_{i in P} pi_i * D_ip
    col_acc = np.zeros(m)  # sum_{j in P} D_pj * pi_j
    selected = np.zeros(m, dtype=bool)
    order: list[int] = []
    gains: list[float] = []
    current = lam * pi - pi * (row_acc + col_acc)
    for _ in range(m):
        masked = np.where(selected, -np.inf, current)
        j = int(np.argmax(masked))  # first max wins: lower index on ties
        order.append(j)
        gains.append(float(masked[j]))
        selected[j] = True
        row_acc += pi[j] * dm[j, :]
        col_acc += dm[:, j] * pi[j]
        current = lam * pi - pi * (row_acc + col_acc)
    deltas: list[float] = []
    for t in range(len(gains) - 1):
        if gains[t] <= 0.0:
            break  # trace is meaningless once gains are exhausted
        deltas.append((gains[t] - gains[t + 1]) / gains[t])
    return RefinedTopic(selection_order=order, gains=gains, deltas=deltas)


def cut_point(deltas: Sequence[float], margin: float = DEFAULT_MARGIN) -> int:
    """Earliest step whose relative drop is within margin of the peak drop.

    margin = 0 degenerates to the argmax itself. The returned index t means
    "keep selections 0..t inclusive".
    """
    if len(deltas) == 0:
        raise InputError("cannot cut an empty gain-drop trace")
    if margin < 0.0:
        raise InputError(f"margin must be nonnegative, got {margin}")
    arr = np.asarray(deltas, dtype=float)
    peak = float(arr.max())
    return int(np.argmax(arr >= peak - margin))


def apply_cut(refined: RefinedTopic, margin: float = DEFAULT_MARGIN) -> RefinedTopic:
    """Fill cut_index and members on a greedy trace, in place."""
    t_hat = cut_point(refined.deltas, margin=margin)
    refined.cut_index = t_hat
    refined.members = frozenset(refined.selection_order[: t_hat + 1])
    return refined
