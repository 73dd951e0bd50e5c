"""Window bundling and non-maximum suppression."""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import best_times, loglog_fit
from hotmine.bundling import CoarseTopic, bundle, nms_dedupe
from hotmine.candidates import TopicCandidate
from hotmine.errors import InputError
from hotmine.ranking import RankedTopicList


def ranked_from_sets(sets):
    """Treat the given member sets as an already ranked list."""
    items = [TopicCandidate(s) for s in sets]
    return RankedTopicList(items=items, indices=list(range(len(items))))


def as_coarse(sets):
    """Treat the given member sets as coarse topics in rank order."""
    return [CoarseTopic(frozenset(s), sources=(k,)) for k, s in enumerate(sets)]


member_sets = st.lists(
    st.frozensets(st.integers(0, 30), min_size=1, max_size=6),
    min_size=1,
    max_size=12,
)


# --------------------------------------------------------------- bundling


def test_bundle_merges_overlapping_neighbors():
    ranked = ranked_from_sets([{1, 2, 3}, {2, 3, 4}, {9}, {1, 3}])
    # seed 0 scans ranks 1..3, {9} fails, {1,3} joins; seed 2 has nothing left
    assert bundle(ranked, window=3, tau=0.4) == [
        CoarseTopic(frozenset({1, 2, 3, 4}), sources=(0, 1, 3)),
        CoarseTopic(frozenset({9}), sources=(2,)),
    ]


def test_bundle_growing_union_can_absorb_late_items():
    # {3,4} reaches 0.5 against the union {1,2,3,4} but only 0.25 against
    # the seed {1,2,3}, so measuring against the union is what absorbs it
    ranked = ranked_from_sets([{1, 2, 3}, {2, 3, 4}, {3, 4}])
    coarse = bundle(ranked, window=5, tau=0.4)
    assert [t.members for t in coarse] == [frozenset({1, 2, 3, 4})]
    assert coarse[0].sources == (0, 1, 2)


def test_bundle_tau_one_keeps_distinct_sets_apart():
    ranked = ranked_from_sets([{1, 2}, {1, 2, 3}, {1, 2}])
    coarse = bundle(ranked, window=10, tau=1.0)
    assert [t.members for t in coarse] == [
        frozenset({1, 2}),
        frozenset({1, 2, 3}),
    ]
    assert coarse[0].sources == (0, 2)


def test_bundle_window_zero_passes_everything_through():
    ranked = ranked_from_sets([{1, 2}, {1, 2}, {3}])
    coarse = bundle(ranked, window=0, tau=0.4)
    assert [t.members for t in coarse] == [
        frozenset({1, 2}),
        frozenset({1, 2}),
        frozenset({3}),
    ]


def test_bundle_window_limits_reach():
    sets = [{1, 2, 3}, {7, 8}, {1, 2, 3, 4}]
    near = bundle(ranked_from_sets(sets), window=1, tau=0.4)
    assert [t.members for t in near] == [frozenset(s) for s in sets]
    far = bundle(ranked_from_sets(sets), window=2, tau=0.4)
    assert [t.members for t in far] == [
        frozenset({1, 2, 3, 4}),
        frozenset({7, 8}),
    ]
    assert far[0].sources == (0, 2)


def test_bundle_rank_is_seed_position_and_sources_are_input_indices():
    items = [TopicCandidate(s) for s in ({1, 2}, {8, 9}, {1, 2, 3})]
    # ranked order: positions 0,1,2 hold input candidates 2,0,1
    ranked = RankedTopicList(items=[items[2], items[0], items[1]], indices=[2, 0, 1])
    coarse = bundle(ranked, window=2, tau=0.4)
    assert coarse[0].members == frozenset({1, 2, 3})
    assert coarse[0].sources == (2, 0)
    assert coarse[1].sources == (1,)


@settings(max_examples=60, deadline=None)
@given(member_sets, st.integers(0, 12), st.floats(0.05, 1.0))
def test_bundle_sources_partition_input(sets, window, tau):
    ranked = ranked_from_sets(sets)
    coarse = bundle(ranked, window=window, tau=tau)
    everything = [s for t in coarse for s in t.sources]
    assert sorted(everything) == list(range(len(sets)))
    for topic in coarse:
        covered = frozenset().union(*(sets[s] for s in topic.sources))
        assert topic.members == covered


def test_bundle_never_merges_disjoint_inputs():
    sets = [{2 * k, 2 * k + 1} for k in range(10)]
    coarse = bundle(ranked_from_sets(sets), window=4, tau=0.4)
    assert coarse == [
        CoarseTopic(frozenset(s), sources=(k,)) for k, s in enumerate(sets)
    ]


@pytest.mark.parametrize("window,tau,msg", [
    (-1, 0.4, "window"),
    # ids pinned to the earlier wording, so the test names do not move
    pytest.param(2.5, 0.4, "^window must be an int, got 2.5$", id="2.5-0.4-^window must be an int >= 0, got 2.5$"),
    pytest.param(True, 0.4, "^window must be an int, got True$", id="True-0.4-^window must be an int >= 0, got True$"),
    (3, 0.0, "tau"),
    (3, 1.5, "tau"),
    (3, -0.2, "tau"),
])
def test_bundle_rejects_bad_params(window, tau, msg):
    ranked = ranked_from_sets([{1, 2}])
    with pytest.raises(InputError, match=msg):
        bundle(ranked, window=window, tau=tau)


# pages 0-15 make most pairs of topics share pages, and ratios such as
# 1/3, 2/5, 1/2 and 2/3 come up often enough to land exactly on a threshold
crowded_sets = st.lists(
    st.frozensets(st.integers(0, 15), min_size=1, max_size=10), max_size=40
)


def reference_bundle(ranked, window, tau):
    """The window scan that builds each union set to take its size."""
    items = ranked.items
    consumed = [False] * len(items)
    out = []
    for k in range(len(items)):
        if consumed[k]:
            continue
        union = set(items[k].members)
        sources = [ranked.indices[k]]
        for j in range(k + 1, min(len(items), k + window + 1)):
            if consumed[j]:
                continue
            other = items[j].members
            if len(union & other) / len(union | other) >= tau:
                union |= other
                sources.append(ranked.indices[j])
                consumed[j] = True
        out.append(CoarseTopic(frozenset(union), tuple(sources)))
    return out


@settings(max_examples=400, deadline=None)
@given(
    crowded_sets,
    st.integers(0, 40),
    st.one_of(
        st.sampled_from([1.0 / 3.0, 0.4, 0.5, 2.0 / 3.0, 1.0]),
        st.floats(0.0, 1.0, exclude_min=True),
    ),
)
@example([{1, 2}, {2, 3}], 1, 1.0 / 3.0)  # |a & b| / |a | b| == tau
@example([{1, 2, 3}, {1, 2, 3, 4, 5}, {4, 5, 6}], 2, 0.6)
@example([{1, 2}, {1, 2}, {1}], 2, 1.0)
# {5,6} shares a page only with {2,5}, absorbed later at a higher position
@example([{1, 2}, {5, 6}, {2, 5}], 2, 1.0 / 3.0)
# positions k + window (in) and k + window + 1 (out) of seed 0
@example([{1, 2}, {7}, {1, 2}, {1, 2}], 2, 1.0)
# {1,2,3} shares page 3 with seed 1 but was consumed by seed 0
@example([{1, 2}, {3, 4}, {1, 2, 3}, {3, 4}], 3, 0.5)
def test_bundle_matches_union_set_scan(sets, window, tau):
    ranked = ranked_from_sets(sets)
    assert bundle(ranked, window=window, tau=tau) == reference_bundle(ranked, window, tau)


@pytest.mark.parametrize("sets", [
    [set()],
    [set(), {1, 2}],
    [{1, 2}, set()],
    [{1, 2}, set(), {7, 8}],
    [set(), set()],
])
def test_bundle_rejects_empty_member_set_at_any_position(sets):
    # a TopicCandidate cannot be empty, so coarse topics stand in for the items
    ranked = RankedTopicList(items=as_coarse(sets), indices=list(range(len(sets))))
    with pytest.raises(InputError, match="nonempty"):
        bundle(ranked, window=3, tau=0.4)


# --------------------------------------------------------------- NMS


def test_nms_keeps_first_of_identical_pair():
    a = CoarseTopic(frozenset({1, 2, 3}), sources=(0,))
    b = CoarseTopic(frozenset({1, 2, 3}), sources=(1,))
    assert nms_dedupe([a, b], overlap_thresh=0.4) == [a]


def test_nms_chain_only_checks_against_kept():
    a = CoarseTopic(frozenset({1, 2, 3}), sources=(0,))
    b = CoarseTopic(frozenset({2, 3, 4}), sources=(1,))
    c = CoarseTopic(frozenset({4, 5, 6}), sources=(2,))
    # b dies against a; c overlaps b but b is gone, so c survives
    assert nms_dedupe([a, b, c], overlap_thresh=0.4) == [a, c]


@settings(max_examples=60, deadline=None)
@given(member_sets, st.floats(0.05, 0.95))
def test_nms_kept_topics_overlap_below_threshold(sets, thresh):
    coarse = as_coarse(sets)
    kept = nms_dedupe(coarse, overlap_thresh=thresh)
    assert kept and kept[0] == coarse[0]
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            a, b = kept[i].members, kept[j].members
            assert len(a & b) / len(a | b) < thresh


@pytest.mark.parametrize("thresh", [0.0, 1.0, -0.3, 1.7])
def test_nms_rejects_bad_threshold(thresh):
    with pytest.raises(InputError, match="overlap_thresh"):
        nms_dedupe([], overlap_thresh=thresh)


def reference_jaccard(a, b):
    """The pairwise overlap the scan below was written against."""
    sa, sb = frozenset(a), frozenset(b)
    if not sa or not sb:
        raise InputError("jaccard requires nonempty member sets")
    return len(sa & sb) / len(sa | sb)


def reference_nms(coarse, overlap_thresh):
    """Suppression by comparing each topic with every kept topic."""
    kept = []
    for topic in coarse:
        duplicate = any(
            reference_jaccard(topic.members, other.members) >= overlap_thresh
            for other in kept
        )
        if not duplicate:
            kept.append(topic)
    return kept


thresholds = st.one_of(
    st.sampled_from([1.0 / 3.0, 0.4, 0.5, 2.0 / 3.0]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@settings(max_examples=400, deadline=None)
@given(crowded_sets, thresholds)
@example([{1, 2}, {2, 3, 4}, {4, 5}], 1.0 / 3.0)  # |a & b| / |a | b| == thresh
@example([{1, 2, 3}, {3, 4, 5, 6, 7}], 1.0 / 7.0)
def test_nms_matches_pairwise_scan(sets, thresh):
    coarse = as_coarse(sets)
    assert nms_dedupe(coarse, overlap_thresh=thresh) == reference_nms(coarse, thresh)


@pytest.mark.parametrize("sets", [
    [set()],
    [set(), {1, 2}],
    [{1, 2}, set()],
    [{1, 2}, set(), {7, 8}],
])
def test_nms_rejects_empty_member_set_at_any_position(sets):
    with pytest.raises(InputError, match="nonempty"):
        nms_dedupe(as_coarse(sets), overlap_thresh=0.4)


@pytest.mark.timing
def test_nms_time_scales_linearly_in_topics():
    rng = np.random.default_rng(12)
    sizes = (1000, 2000, 4000)
    inputs = [
        as_coarse(rng.choice(100_000, size=8, replace=False).tolist() for _ in range(count))
        for count in sizes
    ]
    # best of 3 per size, the sizes taking turns
    times = best_times([partial(nms_dedupe, coarse, overlap_thresh=0.4) for coarse in inputs])
    slope, r_squared, fit = loglog_fit(sizes, times)
    # comparing every topic with every kept one gives a slope near 2
    assert slope <= 1.5, fit
    assert r_squared >= 0.9, fit
