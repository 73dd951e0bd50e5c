"""Window bundling of ranked fragments into coarse topics.

A hot topic usually surfaces as several overlapping fragments sitting near
each other in the ranked list. Bundling walks the list once: each not yet
consumed candidate seeds a coarse topic and absorbs every candidate within
the next `window` rank positions whose Jaccard overlap with the growing
union reaches tau. Absorbed candidates are consumed, so every input ends up
inside exactly one coarse topic. A final non-maximum-suppression pass drops
coarse topics that mostly duplicate a better-ranked one.

The scan evaluates at most K * window Jaccard overlaps for K candidates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError
from .ranking import RankedTopicList

DEFAULT_WINDOW = 100
DEFAULT_TAU = 0.4
DEFAULT_NMS_THRESH = 0.4


def _members_of(obj) -> frozenset[int]:
    if isinstance(obj, (set, frozenset)):
        return frozenset(obj)
    members = getattr(obj, "members", None)
    if members is None:
        raise InputError(f"cannot read a member set from {type(obj).__name__}")
    return frozenset(members)


def jaccard(a, b) -> float:
    """|a & b| / |a | b| for two member sets (or anything with .members)."""
    sa, sb = _members_of(a), _members_of(b)
    if not sa or not sb:
        raise InputError("jaccard requires nonempty member sets")
    return len(sa & sb) / len(sa | sb)


@dataclass(frozen=True)
class CoarseTopic:
    """A bundled topic: member union, source candidate indices, seed rank."""

    members: frozenset[int]
    sources: tuple[int, ...]
    rank: int


def bundle(
    ranked: RankedTopicList,
    window: int = DEFAULT_WINDOW,
    tau: float = DEFAULT_TAU,
) -> list[CoarseTopic]:
    """Bundle a ranked candidate list into coarse topics (window = 0 merges
    nothing and passes every candidate through as its own topic)."""
    if window < 0:
        raise InputError(f"window must be >= 0, got {window}")
    if not (0.0 < tau <= 1.0):
        raise InputError(f"tau must lie in (0, 1], got {tau}")
    items = ranked.items
    count = len(items)
    consumed = [False] * count
    out: list[CoarseTopic] = []
    for k in range(count):
        if consumed[k]:
            continue
        union = set(items[k].members)
        sources = [ranked.indices[k]]
        for j in range(k + 1, min(count, k + window + 1)):
            if consumed[j]:
                continue
            other = items[j].members
            # Overlap is measured against the growing union, not the seed.
            if len(union & other) / len(union | other) >= tau:
                union |= other
                sources.append(ranked.indices[j])
                consumed[j] = True
        out.append(CoarseTopic(frozenset(union), tuple(sources), rank=k))
    return out


def nms_dedupe(
    coarse: Sequence[CoarseTopic] | Iterable[CoarseTopic],
    overlap_thresh: float = DEFAULT_NMS_THRESH,
) -> list[CoarseTopic]:
    """Greedy rank-order suppression of near-duplicate coarse topics.

    A topic survives only if its Jaccard overlap with every already kept
    topic stays below overlap_thresh. Kept topics therefore overlap
    pairwise strictly below the threshold.
    """
    if not (0.0 < overlap_thresh < 1.0):
        raise InputError(
            f"overlap_thresh must lie in (0, 1), got {overlap_thresh}"
        )
    kept: list[CoarseTopic] = []
    for topic in coarse:
        duplicate = any(
            jaccard(topic.members, other.members) >= overlap_thresh
            for other in kept
        )
        if not duplicate:
            kept.append(topic)
    return kept
