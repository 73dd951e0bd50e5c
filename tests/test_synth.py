"""Synthetic corpus generator: shapes, determinism, similarity levels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotmine import synth
from hotmine.errors import InputError
from hotmine.graph import SimilarityMatrix
from hotmine.synth import SyntheticScenario, generate_synthetic


def fragment_sets(data, scenario):
    """Candidates that came from planted topics, in emission order."""
    count = len(scenario.topic_sizes) * scenario.fragments_per_topic
    return [c.members for c in data.candidates[:count]]


# ------------------------------------------------------------ scenario


def test_scenario_counts():
    sc = SyntheticScenario(n_webpages=1500, topic_sizes=(20, 20, 20))
    assert sc.planted_total == 60
    assert 1.0 - sc.planted_total / sc.n_webpages == pytest.approx(0.96)


@pytest.mark.parametrize("kwargs,msg", [
    # ids pinned to the earlier wording, so the test names do not move
    pytest.param(dict(n_webpages=0, topic_sizes=(5,)), "^n_webpages must be >= 1, got 0$",
                 id="kwargs0-at least one webpage"),
    pytest.param(dict(n_webpages=10, topic_sizes=()), r"^topic_sizes must be a non-empty list of ints, got \(\)$",
                 id="kwargs1-at least one page"),
    pytest.param(dict(n_webpages=10, topic_sizes=(5, 0)), r"^topic_sizes\[1\] must be >= 1, got 0$",
                 id="kwargs2-at least one page"),
    (dict(n_webpages=10, topic_sizes=(6, 6)), "planted pages exceed"),
    (dict(n_webpages=10, topic_sizes=(5,), fragments_per_topic=0),
     "fragments_per_topic"),
    (dict(n_webpages=10, topic_sizes=(5,), fragment_drop=-1), "must be >= 0"),
    (dict(n_webpages=10, topic_sizes=(5,), fragment_noise=-2), "must be >= 0"),
    (dict(n_webpages=10, topic_sizes=(5,), noise_similarity=0.0),
     "noise_similarity < intra_similarity"),
    (dict(n_webpages=10, topic_sizes=(5,), intra_similarity=1.2),
     "noise_similarity < intra_similarity"),
    (dict(n_webpages=10, topic_sizes=(5,), noise_similarity=0.9),
     "noise_similarity < intra_similarity"),
    (dict(n_webpages=10, topic_sizes=(5,), jitter=-0.1), "jitter"),
    pytest.param(dict(n_webpages=10, topic_sizes=(5,), noise_cluster_count=-1),
                 "^noise_cluster_count must be >= 0, got -1$", id="kwargs11-noise cluster"),
    pytest.param(dict(n_webpages=10, topic_sizes=(5,), noise_cluster_size=0),
                 "^noise_cluster_size must be >= 1, got 0$", id="kwargs12-noise cluster"),
    (dict(n_webpages=20, topic_sizes=(10,), fragments_per_topic=2,
          fragment_noise=3, noise_cluster_count=1, noise_cluster_size=5),
     "only 10 available"),
])
def test_scenario_validation(kwargs, msg):
    with pytest.raises(InputError, match=msg):
        SyntheticScenario(**kwargs)


@pytest.mark.parametrize("kwargs,msg", [
    # ids pinned to the earlier wording, so the test names do not move
    pytest.param(dict(topic_sizes=(10.7, 10.2)), r"^topic_sizes\[0\] must be an int, got 10.7$",
                 id=r"kwargs0-^topic_sizes must be a list of ints, got \(10.7, 10.2\)$"),
    pytest.param(dict(topic_sizes=10), "^topic_sizes must be a non-empty list of ints, got 10$",
                 id="kwargs1-^topic_sizes must be a list of ints, got 10$"),
    (dict(n_webpages=60.0), "^n_webpages must be an int, got 60.0$"),
    (dict(fragments_per_topic=2.5), "^fragments_per_topic must be an int, got 2.5$"),
    (dict(fragment_drop=1.5), "^fragment_drop must be an int, got 1.5$"),
    (dict(fragment_noise="2"), "^fragment_noise must be an int, got '2'$"),
    (dict(noise_cluster_size=4.0), "^noise_cluster_size must be an int, got 4.0$"),
    (dict(noise_cluster_count=None), "^noise_cluster_count must be an int, got None$"),
])
def test_scenario_refuses_non_integers_rather_than_truncating(kwargs, msg):
    with pytest.raises(InputError, match=msg):
        SyntheticScenario(**{"n_webpages": 60, "topic_sizes": (10, 10), **kwargs})


@pytest.mark.parametrize("kwargs,msg", [
    (dict(jitter="0.1"), "^jitter must be a number, got '0.1'$"),
    (dict(jitter=True), "^jitter must be a number, got True$"),
    (dict(intra_similarity=None), "^intra_similarity must be a number, got None$"),
    (dict(noise_similarity=False), "^noise_similarity must be a number, got False$"),
    (dict(noise_similarity=[0.05]), r"^noise_similarity must be a number, got \[0.05\]$"),
])
def test_scenario_refuses_float_fields_that_are_not_numbers(kwargs, msg):
    with pytest.raises(InputError, match=msg):
        SyntheticScenario(**{"n_webpages": 60, "topic_sizes": (10, 10), **kwargs})


def test_scenario_float_fields_take_ints():
    scenario = SyntheticScenario(60, (10, 10), intra_similarity=1, jitter=0)
    assert (scenario.intra_similarity, scenario.jitter) == (1, 0)


def test_scenario_takes_numpy_ints_as_python_ints():
    scenario = SyntheticScenario(np.int64(60), [np.int32(10), 10], fragments_per_topic=np.int64(2))
    assert repr(scenario) == repr(SyntheticScenario(60, (10, 10), fragments_per_topic=2))


@pytest.mark.parametrize("jitter", [-0.1, math.inf, math.nan])
def test_scenario_refuses_jitter_that_is_negative_or_not_finite(jitter):
    # an infinite jitter would clip every entry to 0 or 1; a nan one would
    # fail only later, in SimilarityMatrix
    with pytest.raises(InputError, match=r"^jitter must be finite and >= 0$"):
        SyntheticScenario(n_webpages=30, topic_sizes=(10,), jitter=jitter)


# ------------------------------------------------------------ fragments


def test_zero_drop_fragments_partition_each_topic():
    sc = SyntheticScenario(n_webpages=24, topic_sizes=(12, 12))
    data = generate_synthetic(sc, seed=0)
    assert len(data.candidates) == 6
    for t, topic in enumerate(data.truth.topics):
        parts = fragment_sets(data, sc)[3 * t : 3 * t + 3]
        assert frozenset().union(*parts) == topic
        assert sum(len(p) for p in parts) == len(topic)


def test_drop_windows_split_page_multiplicity():
    # 3 windows of 4 dropped pages: 12 pages sit in 2 fragments, 8 in all 3
    sc = SyntheticScenario(
        n_webpages=80, topic_sizes=(20,), fragments_per_topic=3, fragment_drop=4
    )
    data = generate_synthetic(sc, seed=0)
    frags = fragment_sets(data, sc)
    assert all(len(f) == 16 for f in frags)
    multiplicity = {p: sum(p in f for f in frags) for p in range(20)}
    assert sorted(multiplicity.values()).count(2) == 12
    assert sorted(multiplicity.values()).count(3) == 8
    assert frozenset().union(*frags) == frozenset(range(20))


def test_drop_beyond_stride_is_rejected():
    sc = SyntheticScenario(
        n_webpages=80, topic_sizes=(20,), fragments_per_topic=3, fragment_drop=7
    )
    with pytest.raises(InputError, match="at least 21 pages"):
        generate_synthetic(sc, seed=0)


def test_partition_needs_enough_pages():
    sc = SyntheticScenario(n_webpages=10, topic_sizes=(2,), fragments_per_topic=3)
    with pytest.raises(InputError, match="cannot partition 2 pages"):
        generate_synthetic(sc, seed=0)


def test_private_noise_pages_are_disjoint_and_outside_topics():
    sc = SyntheticScenario(
        n_webpages=100,
        topic_sizes=(10, 10),
        fragments_per_topic=2,
        fragment_noise=3,
        noise_cluster_count=2,
        noise_cluster_size=5,
    )
    data = generate_synthetic(sc, seed=0)
    assert len(data.candidates) == 6
    planted = frozenset(range(20))
    noise_parts = [c.members - planted for c in data.candidates[:4]]
    assert all(len(p) == 3 for p in noise_parts)
    for i in range(4):
        for j in range(i + 1, 4):
            assert not noise_parts[i] & noise_parts[j]
    clusters = [c.members for c in data.candidates[4:]]
    assert all(len(c) == 5 and not c & planted for c in clusters)
    assert not clusters[0] & clusters[1]
    taken = frozenset().union(*noise_parts)
    assert not taken & (clusters[0] | clusters[1])


def test_truth_is_consecutive_blocks():
    sc = SyntheticScenario(n_webpages=50, topic_sizes=(8, 5))
    data = generate_synthetic(sc, seed=3)
    assert data.truth.topics == (
        frozenset(range(0, 8)),
        frozenset(range(8, 13)),
    )
    assert data.truth.n == 50


# ------------------------------------------------------------ matrices


def test_similarity_levels_separate_topic_from_noise():
    sc = SyntheticScenario(n_webpages=60, topic_sizes=(15, 15), jitter=0.02)
    data = generate_synthetic(sc, seed=4)
    for matrix in (data.w_vis, data.w_txt):
        vals = matrix.values
        topic = data.truth.topics[0]
        intra = [vals[i, j] for i in topic for j in topic if i < j]
        noise = [
            vals[i, j] for i in range(40, 60) for j in range(40, 60) if i < j
        ]
        assert np.mean(intra) == pytest.approx(0.8, abs=0.05)
        assert np.mean(noise) == pytest.approx(0.05, abs=0.03)
        assert min(intra) > max(0.0, 0.8 - 0.2)
        assert vals.min() >= 0.0 and vals.max() <= 1.0
        np.testing.assert_allclose(vals, vals.T)


def test_vis_and_txt_matrices_differ():
    sc = SyntheticScenario(n_webpages=30, topic_sizes=(10,))
    data = generate_synthetic(sc, seed=5)
    assert not np.allclose(data.w_vis.values, data.w_txt.values)


def test_negative_seed_is_rejected():
    sc = SyntheticScenario(n_webpages=30, topic_sizes=(10,))
    with pytest.raises(InputError, match="seed must be >= 0"):
        generate_synthetic(sc, seed=-1)


def test_same_seed_reproduces_different_seed_varies():
    sc = SyntheticScenario(n_webpages=40, topic_sizes=(10, 10), fragment_noise=1)
    a = generate_synthetic(sc, seed=9)
    b = generate_synthetic(sc, seed=9)
    c = generate_synthetic(sc, seed=10)
    np.testing.assert_array_equal(a.w_vis.values, b.w_vis.values)
    np.testing.assert_array_equal(a.w_txt.values, b.w_txt.values)
    assert a.candidates == b.candidates
    assert not np.array_equal(a.w_vis.values, c.w_vis.values)
    # candidate structure is seed-independent; only the matrices vary
    assert a.candidates == c.candidates


def reference_similarity(rng, scenario, topics):
    """synth's matrix before it clipped in place and mirrored by bands: the
    noise, its clipped strict upper triangle v, and v + v.T, all n x n."""
    n = scenario.n_webpages
    raw = scenario.noise_similarity + scenario.jitter * rng.standard_normal((n, n))
    for pages in topics:
        block = np.ix_(pages, pages)
        raw[block] = scenario.intra_similarity + scenario.jitter * rng.standard_normal(
            (len(pages), len(pages))
        )
    v = np.triu(np.clip(raw, 0.0, 1.0), 1)
    return SimilarityMatrix(v + v.T)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    jitter=st.sampled_from([0.0, 0.02, 0.5, 3.0]),
    band=st.sampled_from([1, 3, 7, 512]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_similarity_matches_the_dense_construction(n, jitter, band, seed, data):
    # jitter 3.0 clips many entries to 0 and 1
    sizes = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=3).filter(lambda s: sum(s) <= n))
    scenario = SyntheticScenario(n_webpages=n, topic_sizes=tuple(sizes), jitter=jitter)
    offsets = np.cumsum((0,) + scenario.topic_sizes)
    topics = [list(range(lo, hi)) for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist())]
    expected = reference_similarity(np.random.default_rng(seed), scenario, topics)
    default, synth._BAND = synth._BAND, band
    try:
        got = synth._similarity(np.random.default_rng(seed), scenario, topics)
    finally:
        synth._BAND = default
    for name in ("n", "indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
        assert np.asarray(getattr(got, name)).dtype == np.asarray(getattr(expected, name)).dtype
