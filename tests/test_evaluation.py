"""Detection metrics: F1/NIR, top-10 F1 curve, accuracy-FPPT curve."""

import math
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import loglog_fit
from hotmine.candidates import TopicCandidate
from hotmine.errors import InputError
from hotmine.evaluation import (
    NIR_SUCCESS_THRESHOLD,
    TOP_K,
    GroundTruth,
    _as_set,
    _f1,
    _match,
    _nir,
    EvaluationReport,
    evaluate,
    load_ground_truth,
    write_curves,
)

nonempty_sets = st.frozensets(st.integers(0, 20), min_size=1, max_size=8)


def top10_f1_curve(detections, truth, max_ndt):
    """The first max_ndt points of the top-10 F1 curve that evaluate reports."""
    return list(evaluate(detections, truth).top10_f1_curve[:max_ndt])


def accuracy_curve(detections, truth, max_fppt=None):
    """The accuracy-FPPT curve that evaluate reports."""
    return list(evaluate(detections, truth, max_fppt=max_fppt).accuracy_fppt_curve)


def staircase_case():
    """Six detections of mixed quality against three planted topics."""
    truth = GroundTruth(
        (
            frozenset(range(0, 10)),
            frozenset(range(10, 20)),
            frozenset(range(20, 30)),
        ),
        n=36,
    )
    detections = [
        frozenset(range(0, 10)),
        frozenset(range(30, 36)),
        frozenset(range(10, 18)) | {30, 31},
        frozenset(range(0, 10)),
        frozenset(range(20, 25)),
        frozenset(range(20, 30)) | {30, 31, 32},
    ]
    return detections, truth


def blocks(count, size=10):
    return tuple(
        frozenset(range(k * size, (k + 1) * size)) for k in range(count)
    )


# ------------------------------------------------------------ f1 and nir
# _f1 and _nir score a pair from |D & G|, |D| and |G|.


def reference_score(score, detected, truth):
    """score of two members-or-sets, each made a set again, refusing an empty
    one: the per-pair form the matching walk once called."""
    d, g = _as_set(detected), _as_set(truth)
    if not d or not g:
        raise InputError(f"{'f1' if score is _f1 else 'nir'} requires nonempty sets")
    return score(len(d & g), len(d), len(g))


def test_f1_values():
    assert _f1(3, 3, 3) == 1.0  # {0, 1, 2} against itself
    assert _f1(3, 6, 3) == pytest.approx(2.0 / 3.0)  # 0..5 against {0, 1, 2}
    assert _f1(1, 1, 4) == pytest.approx(0.4)  # {0} against 0..3
    assert _f1(0, 2, 2) == 0.0  # {0, 1} against {2, 3}


def test_f1_accepts_objects_with_members():
    truth = GroundTruth((frozenset({0, 1}),), n=4)
    report = evaluate([TopicCandidate({0, 1})], truth)
    assert report.top10_f1_curve[0] == (1, 1.0 / TOP_K)


def test_f1_and_nir_reject_empty_sets():
    truth = GroundTruth((frozenset({1}),), n=4)
    with pytest.raises(InputError, match="f1 requires nonempty sets"):
        evaluate([frozenset()], truth)
    with pytest.raises(InputError, match="nonempty"):
        GroundTruth((frozenset(),), n=4)


def test_nir_rejects_empty_first_set():
    # {0} takes the truth topic in the F1 walk (F1 0.5) but not in the NIR
    # walk (NIR 1/3), so only the NIR walk meets the empty detection while
    # a topic is still free
    truth = GroundTruth((frozenset({0, 1, 2}),), n=4)
    with pytest.raises(InputError, match="nir requires nonempty sets"):
        evaluate([frozenset({0}), frozenset()], truth)


def test_non_integer_members_are_rejected_not_truncated():
    with pytest.raises(InputError, match="integer"):
        evaluate([frozenset({1})], GroundTruth((TopicCandidate({1}).members | {2.0},), n=4))
    with pytest.raises(InputError, match="integer"):
        evaluate([frozenset({0, 1.5})], GroundTruth((frozenset({0, 1}),), n=4))
    members = _as_set([np.int64(3), np.int32(1)])
    assert members == {1, 3} and {type(m) for m in members} == {int}


def test_nir_values():
    assert _nir(1, 2, 2) == pytest.approx(1.0 / 3.0)  # {1, 2} against {2, 3}
    assert _nir(2, 2, 2) == 1.0  # {1, 2} against itself
    assert _nir(0, 1, 1) == 0.0  # {1} against {2}


def test_nir_accepts_objects_with_members():
    # NIR 2/3 > 0.5: the one detection is a success
    truth = GroundTruth((frozenset({1, 2, 3}),), n=4)
    report = evaluate([TopicCandidate({1, 2})], truth)
    assert report.accuracy_fppt_curve == ((0, 1.0),)


def test_f1_value_is_argument_symmetric():
    # 2|D&G| / (|D| + |G|) does not care which side is which, even though
    # precision and recall individually swap roles
    d, g = frozenset(range(6)), frozenset({0, 1, 2})
    hit = len(d & g)
    precision, recall = hit / len(d), hit / len(g)
    assert (precision, recall) == (0.5, 1.0)
    hit_rev = len(g & d)
    assert (hit_rev / len(g), hit_rev / len(d)) == (1.0, 0.5)
    assert reference_score(_f1, d, g) == reference_score(_f1, g, d) == pytest.approx(2.0 / 3.0)


def test_matching_protocol_is_rank_order_sensitive():
    # the greedy matcher consumes truth topics in detection order, so the
    # same multiset of detections scores differently in different orders
    truth = GroundTruth((frozenset({0, 1, 2}),), n=6)
    coarse_first = [frozenset(range(6)), frozenset({0, 1, 2})]
    exact_first = list(reversed(coarse_first))
    curve_coarse = top10_f1_curve(coarse_first, truth, max_ndt=2)
    curve_exact = top10_f1_curve(exact_first, truth, max_ndt=2)
    assert curve_coarse[-1][1] == pytest.approx((2.0 / 3.0) / 10.0)
    assert curve_exact[-1][1] == pytest.approx(1.0 / 10.0)


@settings(max_examples=100, deadline=None)
@given(nonempty_sets, nonempty_sets)
def test_nir_is_jaccard_and_symmetric(a, b):
    assert reference_score(_nir, a, b) == len(a & b) / len(a | b)
    assert reference_score(_nir, a, b) == reference_score(_nir, b, a)
    assert 0.0 <= reference_score(_nir, a, b) <= 1.0


def test_nir_boundary_half_is_not_a_success():
    det, gt = frozenset({1, 2, 3}), frozenset({2, 3, 4})
    assert reference_score(_nir, det, gt) == 0.5
    truth = GroundTruth((gt,), n=5)
    curve = accuracy_curve([det], truth, max_fppt=1)
    assert curve == [(0, 0.0), (1, 0.0)]


# ------------------------------------------------------------ top-10 F1


def test_perfect_detections_saturate_the_curve():
    truth = GroundTruth(blocks(10), n=100)
    detections = list(blocks(10))
    curve = top10_f1_curve(detections, truth, max_ndt=10)
    assert curve[4] == (5, 0.5)
    assert curve[9] == (10, 1.0)


def test_disjoint_detections_score_zero():
    truth = GroundTruth(blocks(2), n=100)
    detections = [frozenset({50 + k}) for k in range(5)]
    curve = top10_f1_curve(detections, truth, max_ndt=5)
    assert all(y == 0.0 for _, y in curve)


def test_top10_matches_naive_reimplementation():
    rng = np.random.default_rng(50)
    truths = tuple(
        frozenset(rng.choice(40, size=8, replace=False).tolist()) for _ in range(3)
    )
    truth = GroundTruth(truths, n=40)
    detections = [
        frozenset(rng.choice(40, size=int(rng.integers(2, 12)), replace=False).tolist())
        for _ in range(8)
    ]

    used: set[int] = set()
    scores = []
    for det in detections:
        best, best_gi = 0.0, None
        for gi, topic in enumerate(truths):
            if gi in used:
                continue
            hit = len(det & topic)
            if hit == 0:
                continue
            precision, recall = hit / len(det), hit / len(topic)
            score = 2.0 * precision * recall / (precision + recall)
            if score > best:
                best, best_gi = score, gi
        if best_gi is not None:
            used.add(best_gi)
        scores.append(best)
    expected = [
        (ndt, sum(sorted(scores[:ndt], reverse=True)[:10]) / 10.0)
        for ndt in range(1, 9)
    ]

    assert top10_f1_curve(detections, truth, max_ndt=8) == pytest.approx(expected)


def test_staircase_top10_curve():
    detections, truth = staircase_case()
    curve = top10_f1_curve(detections, truth, max_ndt=6)
    assert [x for x, _ in curve] == [1, 2, 3, 4, 5, 6]
    assert [y for _, y in curve] == pytest.approx(
        [0.1, 0.1, 0.18, 0.18, 0.74 / 3.0, 0.74 / 3.0]
    )


def test_top10_curve_is_monotone():
    rng = np.random.default_rng(51)
    truth = GroundTruth(blocks(4), n=60)
    detections = [
        frozenset(rng.choice(60, size=6, replace=False).tolist()) for _ in range(12)
    ]
    curve = top10_f1_curve(detections, truth, max_ndt=12)
    ys = [y for _, y in curve]
    assert all(b >= a for a, b in zip(ys, ys[1:]))
    assert all(0.0 <= y <= 1.0 for y in ys)


def test_top10_input_validation():
    truth = GroundTruth(blocks(1), n=20)
    with pytest.raises(InputError, match="no detections"):
        top10_f1_curve([], truth, max_ndt=3)


# ------------------------------------------------------------ accuracy


def test_perfect_detections_reach_full_accuracy_at_zero_fppt():
    truth = GroundTruth(blocks(3), n=30)
    curve = accuracy_curve(list(blocks(3)), truth)
    assert curve == [(0, 1.0)]


def test_zero_successes_stay_at_zero():
    truth = GroundTruth(blocks(2), n=100)
    detections = [frozenset({90 + k}) for k in range(4)]
    curve = accuracy_curve(detections, truth)
    assert all(y == 0.0 for _, y in curve)
    assert curve[-1][0] == 4


def test_staircase_accuracy_curve():
    detections, truth = staircase_case()
    assert accuracy_curve(detections, truth) == [
        (0, pytest.approx(1.0 / 3.0)),
        (1, 1.0),
    ]
    capped = accuracy_curve(detections, truth, max_fppt=3)
    assert capped == [
        (0, pytest.approx(1.0 / 3.0)),
        (1, 1.0),
        (2, 1.0),
        (3, 1.0),
    ]


def test_accuracy_curve_is_monotone_in_budget():
    rng = np.random.default_rng(52)
    truth = GroundTruth(blocks(4), n=60)
    detections = [
        frozenset(rng.choice(60, size=9, replace=False).tolist()) for _ in range(15)
    ]
    curve = accuracy_curve(detections, truth, max_fppt=8)
    ys = [y for _, y in curve]
    assert all(b >= a for a, b in zip(ys, ys[1:]))
    assert all(0.0 <= y <= 1.0 for y in ys)


def test_accuracy_at_takes_best_within_budget():
    detections, truth = staircase_case()
    report = evaluate(detections, truth, max_fppt=3)
    assert report.accuracy_at(0) == pytest.approx(1.0 / 3.0)
    assert report.accuracy_at(0.9) == pytest.approx(1.0 / 3.0)
    assert report.accuracy_at(1) == 1.0
    assert report.accuracy_at(5) == 1.0


@pytest.mark.parametrize("max_fppt", [-1, -5])
def test_evaluate_refuses_a_negative_fppt_budget(max_fppt):
    # an empty curve would read accuracy 0.0 at every budget
    detections, truth = staircase_case()
    with pytest.raises(InputError, match=f"^max_fppt must be >= 0, got {max_fppt}$"):
        evaluate(detections, truth, max_fppt=max_fppt)
    assert evaluate(detections, truth, max_fppt=0).accuracy_fppt_curve == ((0, pytest.approx(1.0 / 3.0)),)


def test_evaluate_defaults_cover_all_detections():
    detections, truth = staircase_case()
    report = evaluate(detections, truth)
    assert len(report.top10_f1_curve) == 10
    assert report.accuracy_fppt_curve == ((0, pytest.approx(1.0 / 3.0)), (1, 1.0))


# ------------------------------------------------------------ validation, IO


def test_ground_truth_validation():
    with pytest.raises(InputError, match="at least one topic"):
        GroundTruth((), n=5)
    with pytest.raises(InputError, match="nonempty"):
        GroundTruth((frozenset(),), n=5)
    with pytest.raises(InputError, match="out of range"):
        GroundTruth((frozenset({7}),), n=5)
    with pytest.raises(InputError, match="out of range"):
        GroundTruth((frozenset({-1}),), n=5)


def test_load_ground_truth(tmp_path):
    path = tmp_path / "truth.txt"
    path.write_text("# planted\n0 1 2\n\n5 6\n")
    truth = load_ground_truth(path, n=8)
    assert truth.topics == (frozenset({0, 1, 2}), frozenset({5, 6}))
    assert truth.n == 8


def test_write_curve_csv_exact_bytes(tmp_path):
    report = EvaluationReport(((0, 0.5), (1, 1.0)), ())
    f1_path, acc_path = write_curves(report, tmp_path / "run")
    assert (f1_path.name, acc_path.name) == ("run_top10_f1.csv", "run_accuracy.csv")
    assert f1_path.read_text() == "x,y\n0,0.5\n1,1.0\n"
    assert acc_path.read_text() == "x,y\n"


def test_curve_csv_values_parse_back(tmp_path):
    detections, truth = staircase_case()
    report = evaluate(detections, truth, max_fppt=3)
    path = write_curves(report, tmp_path / "run")[0]
    rows = path.read_text().strip().splitlines()[1:]
    parsed = [tuple(float(v) for v in row.split(",")) for row in rows]
    assert parsed == [(x, pytest.approx(y)) for x, y in report.top10_f1_curve]


# ------------------------------------------------------------ reference walk


def reference_match_f1_scores(detections, truth):
    """The F1 matcher the one-walk curves replaced."""
    used = set()
    scores = []
    for det in detections:
        best_f1, best_gi = 0.0, None
        for gi, topic in enumerate(truth.topics):
            if gi in used:
                continue
            score = reference_score(_f1, det, topic)
            if score > best_f1:
                best_f1, best_gi = score, gi
        if best_gi is not None:
            used.add(best_gi)
        scores.append(best_f1)
    return scores


def reference_top10_f1_vs_ndt(detections, truth, max_ndt):
    """Re-sorts every prefix of the scores."""
    scores = reference_match_f1_scores([frozenset(d) for d in detections], truth)
    return [
        (ndt, sum(sorted(scores[:ndt], reverse=True)[:TOP_K]) / TOP_K)
        for ndt in range(1, max_ndt + 1)
    ]


def reference_accuracy_vs_fppt(detections, truth, max_fppt=None):
    """Rescans every point for each integer budget."""
    used = set()
    successes = 0
    false_positives = 0
    points = []
    for det in detections:
        best_nir, best_gi = 0.0, None
        for gi, topic in enumerate(truth.topics):
            if gi in used:
                continue
            score = reference_score(_nir, det, topic)
            if score > best_nir:
                best_nir, best_gi = score, gi
        if best_gi is not None and best_nir > 0.5:
            used.add(best_gi)
            successes += 1
        else:
            false_positives += 1
        points.append(
            (false_positives / max(1, successes), successes / len(truth.topics))
        )
    top = max_fppt if max_fppt is not None else int(math.ceil(points[-1][0]))
    curve = []
    for budget in range(top + 1):
        best = 0.0
        for x, y in points:
            if x <= budget:
                best = max(best, y)
        curve.append((budget, best))
    return curve


# pages 0-11 make overlaps, ties and NIR of exactly 0.5 common; detections
# drawn from a short pool repeat each other
small_sets = st.frozensets(st.integers(0, 11), min_size=1, max_size=6)


@st.composite
def walk_cases(draw):
    truth = GroundTruth(tuple(draw(st.lists(small_sets, min_size=1, max_size=5))), n=12)
    pool = draw(st.lists(small_sets, min_size=1, max_size=6))
    detections = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    walk = len(detections)
    max_fppt = draw(st.one_of(
        st.none(), st.sampled_from([-1, 0, walk + 1]), st.integers(-2, walk + 3)
    ))
    return detections, truth, max_fppt


def assert_same_curve(got, want):
    assert got == want
    assert repr(got) == repr(want)


@settings(max_examples=500, deadline=None)
@given(walk_cases())
# NIR exactly 0.5 is a failure, and the detection behind it consumes nothing
@example((
    [frozenset({1, 2, 3}), frozenset({2, 3, 4})],
    GroundTruth((frozenset({2, 3, 4}),), n=12),
    None,
))
# an all-zero prefix, then duplicates of one detection
@example((
    [frozenset({9}), frozenset({10}), frozenset({0, 1}), frozenset({0, 1})],
    GroundTruth((frozenset({0, 1}), frozenset({0, 1, 2})), n=12),
    0,
))
def test_curves_match_the_reference_walk(case):
    detections, truth, max_fppt = case
    if max_fppt is not None and max_fppt < 0:
        # the reference gives an empty accuracy curve here; evaluate refuses
        with pytest.raises(InputError, match=f"^max_fppt must be >= 0, got {max_fppt}$"):
            evaluate(detections, truth, max_fppt=max_fppt)
        return
    want_f1 = reference_top10_f1_vs_ndt(detections, truth, max(len(detections), TOP_K))
    want_acc = reference_accuracy_vs_fppt(detections, truth, max_fppt)
    report = evaluate(detections, truth, max_fppt=max_fppt)
    assert_same_curve(report.top10_f1_curve, tuple(want_f1))
    assert_same_curve(report.accuracy_fppt_curve, tuple(want_acc))


def reference_match(ranked_detections, truth, score, threshold):
    """The matching walk before it scored pairs from intersection sizes:
    every detection made a set again, and reference_score made both sides
    sets again for each (detection, truth topic) pair."""
    detections = [_as_set(d) for d in ranked_detections]
    if not detections:
        raise InputError("no detections to evaluate")
    used = set()
    matches = []
    for det in detections:
        best, best_gi = 0.0, None
        for gi, topic in enumerate(truth.topics):
            if gi in used:
                continue
            s = score(det, topic)
            if s > best:
                best, best_gi = s, gi
        if best > threshold:
            used.add(best_gi)
        matches.append((best, best > threshold))
    return matches


# the empty set makes detections that both walks reject while a truth topic
# is still free, and that no walk scores once every topic is consumed
maybe_empty_sets = st.one_of(small_sets, st.just(frozenset()))


@settings(max_examples=500, deadline=None)
@given(
    truth=st.lists(small_sets, min_size=1, max_size=5).map(lambda t: GroundTruth(tuple(t), n=12)),
    detections=st.lists(maybe_empty_sets, max_size=20),
)
@example(truth=GroundTruth((frozenset({0}),), n=12), detections=[frozenset({0}), frozenset()])
@example(truth=GroundTruth((frozenset({0}),), n=12), detections=[frozenset(), frozenset({0})])
def test_match_scores_as_the_per_pair_walk(truth, detections):
    for score, threshold in ((_f1, 0.0), (_nir, NIR_SUCCESS_THRESHOLD)):
        try:
            expected = reference_match(detections, truth, partial(reference_score, score), threshold)
        except InputError as exc:
            with pytest.raises(InputError) as got:
                _match(detections, truth, score, threshold)
            assert str(got.value) == str(exc)
            continue
        got = _match(detections, truth, score, threshold)
        assert got == expected
        assert repr(got) == repr(expected)


@pytest.mark.timing
def test_evaluate_time_scales_linearly_in_detections():
    rng = np.random.default_rng(13)
    truth = GroundTruth(blocks(8, size=8), n=100_000)
    sizes = (3000, 6000, 12000)
    # four planted topics lead each list, so the walk has successes; the
    # random 8-page detections after them are false positives, each scored
    # against the four topics left unmatched
    inputs = [
        list(truth.topics[:4])
        + [frozenset(row.tolist()) for row in rng.integers(0, 100_000, (count - 4, 8))]
        for count in sizes
    ]
    times = [np.inf] * len(sizes)
    # best of 3 per size; the sizes take turns so that a slow spell of the
    # machine hits all of them rather than bending the fit
    for _ in range(3):
        for k, detections in enumerate(inputs):
            t0 = time.perf_counter()
            evaluate(detections, truth)
            times[k] = min(times[k], time.perf_counter() - t0)
    slope, r_squared, fit = loglog_fit(sizes, times)
    # re-sorting every prefix and rescanning every point per budget gives a
    # slope near 2
    assert slope <= 1.3, fit
    assert r_squared >= 0.9, fit
