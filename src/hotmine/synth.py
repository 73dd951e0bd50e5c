"""Synthetic hot-topic scenarios with known ground truth.

Real web-topic corpora are dominated by noise: only a few percent of the
pages belong to any hot topic. The generator reproduces that shape. Planted
topics occupy consecutive index blocks with high pairwise similarity; every
other pair sits at a low noise level. Candidates are fragments of the
planted topics (optionally contaminated with private noise pages) plus
disjoint clusters of pure noise, which is exactly the failure mode the
bundling and refining stages exist to repair.

The emitted matrices are already on the similarity scale used downstream
(large value = similar), so a pipeline consuming them should skip the
distance-to-affinity kernel and sparsify directly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import inf
from operator import index

import numpy as np

from .candidates import TopicCandidate
from .errors import InputError
from .evaluation import GroundTruth
from .graph import SimilarityMatrix


@dataclass(frozen=True)
class SyntheticScenario:
    """Shape of one generated corpus.

    Noise pages are the indices left over after the planted topics; their
    count is implied by n_webpages - sum(topic_sizes). With fragment_drop
    zero the fragments partition each topic into near-equal runs; with a
    positive drop each fragment is the topic minus a staggered window of
    dropped pages (overlapping fragments, the shattering the bundler must
    undo), plus fragment_noise private noise pages each.
    """

    n_webpages: int
    topic_sizes: tuple[int, ...]
    fragments_per_topic: int = 3
    fragment_drop: int = 0
    fragment_noise: int = 0
    intra_similarity: float = 0.8
    noise_similarity: float = 0.05
    jitter: float = 0.02
    noise_cluster_size: int = 12
    noise_cluster_count: int = 0

    @property
    def planted_total(self) -> int:
        return sum(self.topic_sizes)

    def __post_init__(self) -> None:
        # integer fields through operator.index: 10.7 is refused, not truncated
        for field in fields(self):
            value, many = getattr(self, field.name), field.type == "tuple[int, ...]"
            if not (many or field.type == "int"):
                continue
            try:
                object.__setattr__(self, field.name, tuple(map(index, value)) if many else index(value))
            except TypeError as exc:
                kind = "a list of ints" if many else "an int"
                raise InputError(f"{field.name} must be {kind}, got {value!r}") from exc
        if self.n_webpages < 1:
            raise InputError("scenario needs at least one webpage")
        if not self.topic_sizes or any(s < 1 for s in self.topic_sizes):
            raise InputError("every planted topic needs at least one page")
        if self.planted_total > self.n_webpages:
            raise InputError(
                f"infeasible scenario: {self.planted_total} planted pages "
                f"exceed n = {self.n_webpages}"
            )
        if self.fragments_per_topic < 1:
            raise InputError("fragments_per_topic must be >= 1")
        if self.fragment_drop < 0 or self.fragment_noise < 0:
            raise InputError("fragment_drop and fragment_noise must be >= 0")
        if not 0.0 < self.noise_similarity < self.intra_similarity <= 1.0:
            raise InputError(
                "need 0 < noise_similarity < intra_similarity <= 1, got "
                f"{self.noise_similarity} and {self.intra_similarity}"
            )
        if not 0.0 <= self.jitter < inf:
            raise InputError("jitter must be finite and >= 0")
        if self.noise_cluster_count < 0 or self.noise_cluster_size < 1:
            raise InputError("bad noise cluster shape")
        noise_needed = (
            len(self.topic_sizes) * self.fragments_per_topic * self.fragment_noise
            + self.noise_cluster_count * self.noise_cluster_size
        )
        if noise_needed > self.n_webpages - self.planted_total:
            raise InputError(
                f"infeasible scenario: fragments and clusters need "
                f"{noise_needed} noise pages, only "
                f"{self.n_webpages - self.planted_total} available"
            )


@dataclass(frozen=True)
class SyntheticData:
    """One generated corpus: two matrices, candidates, and the truth."""

    w_vis: SimilarityMatrix
    w_txt: SimilarityMatrix
    candidates: tuple[TopicCandidate, ...]
    truth: GroundTruth


def _split_topic(pages: list[int], scenario: SyntheticScenario) -> list[list[int]]:
    """Planted part of each fragment for one topic."""
    count, drop = scenario.fragments_per_topic, scenario.fragment_drop
    size = len(pages)
    if drop == 0:
        if size < count:
            raise InputError(
                f"infeasible scenario: cannot partition {size} pages into "
                f"{count} fragments"
            )
        return [list(chunk) for chunk in np.array_split(np.array(pages), count)]
    # Each fragment is the topic minus one drop window. The windows are
    # disjoint and evenly spaced, so every page sits in either count or
    # count - 1 fragments and the fragments are mutually symmetric.
    stride = size // count
    if drop > stride:
        raise InputError(
            f"infeasible scenario: fragment_drop {drop} needs topics of at "
            f"least {drop * count} pages, got {size}"
        )
    fragments = []
    for i in range(count):
        lo, hi = i * stride, i * stride + drop
        fragments.append([p for k, p in enumerate(pages) if not lo <= k < hi])
    return fragments


def _similarity(
    rng: np.random.Generator, scenario: SyntheticScenario, topics: list[list[int]]
) -> SimilarityMatrix:
    n = scenario.n_webpages
    raw = rng.standard_normal((n, n))
    raw *= scenario.jitter
    raw += scenario.noise_similarity
    for pages in topics:
        block = np.ix_(pages, pages)
        raw[block] = scenario.intra_similarity + scenario.jitter * rng.standard_normal(
            (len(pages), len(pages))
        )
    np.clip(raw, 0.0, 1.0, out=raw)
    # v + v.T of the strict upper triangle v, one band of columns at a time:
    # every entry is >= 0, so adding the zero across the diagonal is a copy
    for lo in range(0, n, _BAND):
        hi = min(lo + _BAND, n)
        tile = np.triu(raw[lo:hi, lo:hi], 1)
        raw[lo:hi, lo:hi] = tile + tile.T
        raw[hi:, lo:hi] = raw[lo:hi, hi:].T
    return SimilarityMatrix(raw)


_BAND = 512


def generate_synthetic(scenario: SyntheticScenario, seed: int = 0) -> SyntheticData:
    """Build the corpus deterministically from the seed."""
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(int(seed))
    offsets = np.cumsum((0,) + scenario.topic_sizes)
    topics = [
        list(range(int(lo), int(hi))) for lo, hi in zip(offsets[:-1], offsets[1:])
    ]
    noise_pool = list(range(scenario.planted_total, scenario.n_webpages))
    next_noise = 0

    candidates: list[TopicCandidate] = []
    for pages in topics:
        for planted_part in _split_topic(pages, scenario):
            private = noise_pool[next_noise : next_noise + scenario.fragment_noise]
            next_noise += scenario.fragment_noise
            candidates.append(TopicCandidate(frozenset(planted_part) | frozenset(private)))
    for _ in range(scenario.noise_cluster_count):
        chunk = noise_pool[next_noise : next_noise + scenario.noise_cluster_size]
        next_noise += scenario.noise_cluster_size
        candidates.append(TopicCandidate(frozenset(chunk)))

    w_vis = _similarity(rng, scenario, topics)
    w_txt = _similarity(rng, scenario, topics)
    truth = GroundTruth(
        tuple(frozenset(pages) for pages in topics), n=scenario.n_webpages
    )
    return SyntheticData(
        w_vis=w_vis, w_txt=w_txt, candidates=tuple(candidates), truth=truth
    )
