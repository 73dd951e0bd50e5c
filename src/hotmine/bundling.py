"""Window bundling of ranked fragments into coarse topics.

A hot topic usually surfaces as several overlapping fragments sitting near
each other in the ranked list. Bundling walks the list once: each not yet
consumed candidate seeds a coarse topic and absorbs every candidate within
the next `window` rank positions whose Jaccard overlap with the growing
union reaches tau. Absorbed candidates are consumed, so every input ends up
inside exactly one coarse topic. A final non-maximum-suppression pass drops
coarse topics that mostly duplicate a better-ranked one.

A candidate sharing no page with the union has Jaccard 0 < tau, so the scan
visits only those sharing one, through a page -> position index of the
window: it costs the window's page incidences plus the overlapping in-window
pairs, not K * window. Suppression looks each page of a topic up in a page ->
kept-topic index, so its cost is the pages of each topic times the kept
topics holding them, not (coarse topics)^2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .errors import InputError, check_int
from .ranking import RankedTopicList

DEFAULT_WINDOW = 100
DEFAULT_TAU = 0.4
DEFAULT_NMS_THRESH = 0.4


@dataclass(frozen=True)
class CoarseTopic:
    """A bundled topic: member union and source candidate indices."""

    members: frozenset[int]
    sources: tuple[int, ...]


def bundle(
    ranked: RankedTopicList,
    window: int = DEFAULT_WINDOW,
    tau: float = DEFAULT_TAU,
) -> list[CoarseTopic]:
    """Bundle a ranked candidate list into coarse topics (window = 0 merges
    nothing and passes every candidate through as its own topic)."""
    window = check_int("window", window, 0)
    if not (0.0 < tau <= 1.0):
        raise InputError(f"tau must lie in (0, 1], got {tau}")
    items = ranked.items
    if not all(item.members for item in items):
        raise InputError("bundle requires nonempty member sets")
    count = len(items)
    consumed = [False] * count
    holders: dict[int, list[int]] = {}  # page -> window positions, ascending
    out: list[CoarseTopic] = []
    for k in range(count):
        # window k+1..k+window: 0..window enter first, then k + window; k leaves
        for j in range(k + window if k else 0, min(count, k + window + 1)):
            for page in items[j].members:
                holders.setdefault(page, []).append(j)
        for page in items[k].members:
            if rest := holders.pop(page)[1:]:
                holders[page] = rest
        if consumed[k]:
            continue
        union = set(items[k].members)
        sources = [ranked.indices[k]]
        # unconsumed window positions sharing a page with the union, in rank
        # order; absorbing j pushes the holders of its new pages not yet passed
        heap = [j for page in union for j in holders.get(page, ()) if not consumed[j]]
        heapify(heap)
        while heap:
            j = heappop(heap)
            while heap and heap[0] == j:  # pushed once per shared page
                heappop(heap)
            other = items[j].members
            # Overlap is measured against the growing union, not the seed;
            # as in nms_dedupe, |union| + |other| - inter is |union | other|.
            inter = len(union & other)
            if inter / (len(union) + len(other) - inter) >= tau:
                for page in other - union:
                    for i in holders.get(page, ()):
                        if i > j and not consumed[i]:
                            heappush(heap, i)
                union |= other
                sources.append(ranked.indices[j])
                consumed[j] = True
        out.append(CoarseTopic(frozenset(union), tuple(sources)))
    return out


def nms_dedupe(
    coarse: Sequence[CoarseTopic] | Iterable[CoarseTopic],
    overlap_thresh: float = DEFAULT_NMS_THRESH,
) -> list[CoarseTopic]:
    """Greedy rank-order suppression of near-duplicate coarse topics.

    A topic survives only if its Jaccard overlap with every already kept
    topic stays below overlap_thresh. Kept topics therefore overlap
    pairwise strictly below the threshold.

    Only kept topics sharing a page can reach overlap_thresh > 0, so they
    are found through a page -> kept-topic index: the cost is the pages of
    each topic times the kept topics holding them.
    """
    if not (0.0 < overlap_thresh < 1.0):
        raise InputError(
            f"overlap_thresh must lie in (0, 1), got {overlap_thresh}"
        )
    kept: list[CoarseTopic] = []
    holders: dict[int, list[int]] = {}  # page -> positions in kept
    for topic in coarse:
        size = len(topic.members)
        if not size:
            raise InputError("nms_dedupe requires nonempty member sets")
        shared = Counter(pos for page in topic.members for pos in holders.get(page, ()))
        # size + |other| - inter is |topic | other| as an exact int, so the
        # ratio is the same float as len(a & b) / len(a | b).
        if any(
            inter / (size + len(kept[pos].members) - inter) >= overlap_thresh
            for pos, inter in shared.items()
        ):
            continue
        for page in topic.members:
            holders.setdefault(page, []).append(len(kept))
        kept.append(topic)
    return kept
