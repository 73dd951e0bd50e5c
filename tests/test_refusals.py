"""Every public stage refuses a bad argument before it does any work: each
test draws a bad argument, makes the stage's expensive callee fail the test
if it is called, and requires the InputError with its whole message."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_from_dense
from hotmine import bundling, evaluation, interestingness, ranking
from hotmine.bundling import CoarseTopic, bundle, nms_dedupe
from hotmine.candidates import TopicCandidate
from hotmine.errors import InputError
from hotmine.evaluation import GroundTruth, evaluate
from hotmine.interestingness import pagerank_stack, similarity_stack, transition_stack
from hotmine.ranking import RankedTopicList, estimate_weights
from hotmine.refining import cut_stack, dissimilarity_stack, greedy_stack


def refused(owner, name, call, message):
    """call() raises InputError with exactly message, without calling
    owner.name."""

    def work(*args, **kwargs):
        pytest.fail(f"{name} ran before the bad argument was refused")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, name, work)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            call()


NOT_INTS = st.one_of(st.floats(allow_nan=False), st.booleans(), st.text(max_size=2), st.none())
NAN, INF = st.just(float("nan")), st.just(float("inf"))
NEGATIVE = st.floats(max_value=0.0, exclude_max=True)
# NaN fails every range check
NOT_POSITIVE_FINITE = st.one_of(st.floats(max_value=0.0), INF, NAN)
OUTSIDE_UNIT = st.one_of(st.floats(max_value=0.0), st.floats(min_value=1.0, exclude_min=True), NAN)


def int_message(name, value, least):
    """check_int's refusal of value."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return f"{name} must be >= {least}, got {value!r}"
    return f"{name} must be an int, got {value!r}"


# ------------------------------------------------------------- bundling

PAGES = [frozenset({0, 1, 2}), frozenset({1, 2, 3}), frozenset({2, 3, 4})]


def ranked():
    return RankedTopicList(items=[TopicCandidate(p, 1.0) for p in PAGES], indices=[0, 1, 2])


@settings(max_examples=100, deadline=None)
@given(window=st.one_of(NOT_INTS, st.integers(max_value=-1)))
def test_bundle_refuses_a_bad_window_before_any_work(window):
    message = int_message("window", window, 0)
    refused(bundling, "heapify", lambda: bundle(ranked(), window=window, tau=0.5), message)


@settings(max_examples=100, deadline=None)
@given(tau=OUTSIDE_UNIT)
def test_bundle_refuses_a_bad_tau_before_any_work(tau):
    refused(bundling, "heapify", lambda: bundle(ranked(), tau=tau), f"tau must lie in (0, 1], got {tau}")


@settings(max_examples=100, deadline=None)
@given(thresh=st.one_of(OUTSIDE_UNIT, st.just(1.0)))
def test_nms_dedupe_refuses_a_bad_threshold_before_any_work(thresh):
    coarse = [CoarseTopic(p, (k,)) for k, p in enumerate(PAGES)]
    message = f"overlap_thresh must lie in (0, 1), got {thresh}"
    refused(bundling, "Counter", lambda: nms_dedupe(coarse, overlap_thresh=thresh), message)


# ------------------------------------------------------------- ranking


def triangle_case():
    graph = graph_from_dense(0.5 * (np.ones((3, 3)) - np.eye(3)))
    return graph, [TopicCandidate(frozenset({0, 1, 2})), TopicCandidate(frozenset({0, 1}))]


@settings(max_examples=100, deadline=None)
@given(max_iter=st.one_of(NOT_INTS, st.integers(max_value=0)))
def test_estimate_weights_refuses_a_bad_cap_before_any_work(max_iter):
    graph, candidates = triangle_case()
    message = int_message("max_iter", max_iter, 1)
    refused(ranking, "_Coverage", lambda: estimate_weights(graph, candidates, max_iter=max_iter), message)


@settings(max_examples=100, deadline=None)
@given(tol=NOT_POSITIVE_FINITE)
def test_estimate_weights_refuses_a_bad_tolerance_before_any_work(tol):
    graph, candidates = triangle_case()
    message = f"tol must be positive and finite, got {tol}"
    refused(ranking, "_Coverage", lambda: estimate_weights(graph, candidates, tol=tol), message)


# ------------------------------------------------------------- stacks


@settings(max_examples=100, deadline=None)
@given(bad=st.sampled_from(["sizes", "low", "high", "unweighted"]), extra=st.integers(0, 3))
def test_similarity_stack_refuses_bad_sources_before_its_fill(bad, extra):
    candidates = [TopicCandidate(frozenset({0, 1, 2}), 0.5), TopicCandidate(frozenset({1, 2, 3}))]
    topics = [CoarseTopic(frozenset({0, 1, 2}), (0,))] * (1 + extra)
    source, message = {
        "sizes": (0, "a similarity stack needs topics of one size"),
        "low": (-1 - extra, f"source index {-1 - extra} outside candidate list"),
        "high": (2 + extra, f"source index {2 + extra} outside candidate list"),
        "unweighted": (1, "candidate 1 has no weight; rank before refining"),
    }[bad]
    members = frozenset({0, 1}) if bad == "sizes" else frozenset({1, 2, 3})
    topics.append(CoarseTopic(members, (0, source)))
    refused(interestingness, "fill_similarity", lambda: similarity_stack(topics, candidates), message)


def symmetric_stack(count, m, seed=0):
    w = np.triu(np.random.default_rng(seed).uniform(0.0, 1.0, (count, m, m)), 1)
    return w + w.transpose(0, 2, 1)


@settings(max_examples=100, deadline=None)
@given(weight=NEGATIVE, at=st.integers(0, 15))
def test_transition_stack_refuses_a_negative_weight_before_dividing(weight, at):
    w = symmetric_stack(1, 4)
    w.ravel()[at] = weight
    message = "reconstructed similarity has a negative weight"
    refused(np, "divide", lambda: transition_stack(w), message)


def stochastic_stack():
    w = symmetric_stack(2, 4)
    return transition_stack(w)


@settings(max_examples=100, deadline=None)
@given(
    bad=st.sampled_from(["alpha", "tol", "max_iter", "shape", "negative"]),
    alpha=st.one_of(NEGATIVE, st.floats(min_value=1.0), NAN),
    tol=NOT_POSITIVE_FINITE,
    max_iter=st.one_of(NOT_INTS, st.integers(max_value=0)),
)
def test_pagerank_stack_refuses_bad_controls_before_any_step(bad, alpha, tol, max_iter):
    p = stochastic_stack()
    controls = dict(alpha=0.9, tol=1e-9, max_iter=50)
    if bad == "alpha":
        controls["alpha"], message = alpha, f"alpha must lie in [0, 1), got {alpha}"
    elif bad == "tol":
        controls["tol"], message = tol, f"tol must be positive and finite, got {tol}"
    elif bad == "max_iter":
        controls["max_iter"], message = max_iter, int_message("max_iter", max_iter, 1)
    elif bad == "shape":
        p, message = p[:, :3], "a transition stack must have shape (T, m, m), got (2, 3, 4)"
    else:
        p = p.copy()
        p[1, 2, 0] = -0.25
        message = "transition matrix has a negative entry"
    refused(np, "matmul", lambda: pagerank_stack(p, **controls), message)


@settings(max_examples=100, deadline=None)
@given(bandwidth=NOT_POSITIVE_FINITE)
def test_dissimilarity_stack_refuses_a_bad_bandwidth_before_any_work(bandwidth):
    w = symmetric_stack(2, 4)
    message = f"bandwidth must be a positive real, got {bandwidth}"
    refused(np, "exp", lambda: dissimilarity_stack(w, bandwidth), message)


@settings(max_examples=100, deadline=None)
@given(
    bad=st.sampled_from(["lam", "shape", "score", "dissimilarity"]),
    lam=NOT_POSITIVE_FINITE,
    value=st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)
def test_greedy_stack_refuses_bad_inputs_before_any_step(bad, lam, value):
    pi, d = np.full((2, 4), 0.25), dissimilarity_stack(symmetric_stack(2, 4))
    controls = dict(lam=2.0)
    message = "scores and dissimilarities must be finite"
    if bad == "lam":
        controls["lam"], message = lam, f"lam must be positive and finite, got {lam}"
    elif bad == "shape":
        d, message = d[:, :3], "dissimilarity shape (2, 3, 4) does not match scores of shape (2, 4)"
    elif bad == "score":
        pi[1, 3] = value
    else:
        d[0, 1, 2] = value
    refused(np, "subtract", lambda: greedy_stack(pi, d, **controls), message)


@settings(max_examples=100, deadline=None)
@given(margin=st.one_of(NEGATIVE, INF, NAN))
def test_cut_stack_refuses_a_bad_margin_before_any_work(margin):
    deltas, lengths = np.array([[0.5, 0.25], [0.1, 0.9]]), np.array([2, 1])
    message = f"margin must be >= 0 and finite, got {margin}"
    refused(np, "where", lambda: cut_stack(deltas, lengths, margin), message)


def test_cut_stack_refuses_an_empty_trace_before_any_work():
    deltas, lengths = np.array([[0.5, 0.25], [0.1, 0.9]]), np.array([2, 0])
    refused(np, "where", lambda: cut_stack(deltas, lengths), "cannot cut an empty gain-drop trace")


# ------------------------------------------------------------- evaluation


@settings(max_examples=100, deadline=None)
@given(max_fppt=st.one_of(NOT_INTS, st.integers(max_value=-1)).filter(lambda v: v is not None))
def test_evaluate_refuses_a_bad_budget_before_any_matching(max_fppt):
    # None is no budget at all
    truth = GroundTruth((frozenset({0, 1}), frozenset({2, 3})), n=5)
    message = int_message("max_fppt", max_fppt, 0)
    refused(evaluation, "_match", lambda: evaluate([{0, 1}, {3, 4}], truth, max_fppt=max_fppt), message)
