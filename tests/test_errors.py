"""The one int rule: check_int, and the stage parameters that go through it."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_similarity
from hotmine import pipeline
from hotmine.bundling import bundle
from hotmine.errors import InputError, check_int
from hotmine.evaluation import evaluate
from hotmine.graph import knn_sparsify
from hotmine.interestingness import pagerank_stack
from hotmine.oracle import brute_force_subset, check_monotonicity, check_submodularity
from hotmine.pipeline import PipelineConfig, build_mixed_graph, run_br
from hotmine.ranking import apply_weights, estimate_weights, iterate_weights, rank
from hotmine.synth import SyntheticScenario, generate_synthetic

NUMPY_INTS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def is_int(value) -> bool:
    """Reference: the exact type is a Python int or a numpy integer type, so
    bool and np.bool_ fall outside."""
    return type(value) in (int, *NUMPY_INTS)


def numpy_ints():
    return st.sampled_from(NUMPY_INTS).flatmap(
        lambda t: st.integers(int(np.iinfo(t).min), int(np.iinfo(t).max)).map(t)
    )


@settings(max_examples=400, deadline=None)
@given(
    value=st.one_of(
        st.integers(-(2 ** 70), 2 ** 70),
        numpy_ints(),
        st.booleans(),
        st.booleans().map(np.bool_),
        st.floats(),
        st.integers(-5, 5).map(float),
        st.text(max_size=3),
        st.none(),
    ),
    least=st.sampled_from([-3, 0, 1, 2, 100]),
)
def test_check_int_accepts_exactly_what_the_reference_accepts(value, least):
    if is_int(value) and int(value) >= least:
        got = check_int("x", value, least)
        assert type(got) is int and got == int(value)
        return
    want = f"x must be >= {least}" if is_int(value) else "x must be an int"
    with pytest.raises(InputError) as err:
        check_int("x", value, least)
    assert str(err.value) == f"{want}, got {value!r}"


# ------------------------------------------------------------- synth


def corpus_fields(data):
    matrices = [(m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes()) for m in (data.w_vis, data.w_txt)]
    return matrices, [c.members for c in data.candidates], data.truth


def test_numpy_int_scenario_is_the_python_int_scenario():
    np_scenario = SyntheticScenario(
        np.int64(80), [np.int32(12), np.uint8(10)], fragments_per_topic=np.int16(2),
        fragment_drop=np.uint16(1), fragment_noise=np.uint32(2),
        noise_cluster_size=np.int8(5), noise_cluster_count=np.uint64(2),
    )
    scenario = SyntheticScenario(
        80, (12, 10), fragments_per_topic=2, fragment_drop=1, fragment_noise=2,
        noise_cluster_size=5, noise_cluster_count=2,
    )
    assert np_scenario == scenario
    ints = [getattr(np_scenario, f.name) for f in dataclasses.fields(np_scenario) if f.type == "int"]
    assert all(type(value) is int for value in ints + list(np_scenario.topic_sizes))
    assert corpus_fields(generate_synthetic(np_scenario, seed=np.int64(3))) == corpus_fields(
        generate_synthetic(scenario, seed=3)
    )


@pytest.mark.parametrize("seed", [2.5, True, np.True_, "1", None])
def test_generate_synthetic_refuses_a_seed_that_is_no_int(seed):
    # 2.5 built seed 2's corpus and True seed 1's
    with pytest.raises(InputError, match=f"^seed must be an int, got {seed!r}$"):
        generate_synthetic(SyntheticScenario(30, (10,)), seed=seed)


@pytest.mark.parametrize("kwargs,msg", [
    (dict(n_webpages=True), "^n_webpages must be an int, got True$"),
    (dict(n_webpages=np.True_), r"^n_webpages must be an int, got np\.True_$"),
    (dict(topic_sizes=(True,)), r"^topic_sizes\[0\] must be an int, got True$"),
    (dict(fragments_per_topic=True), "^fragments_per_topic must be an int, got True$"),
    (dict(noise_cluster_count=False), "^noise_cluster_count must be an int, got False$"),
])
def test_scenario_refuses_bools_as_ints(kwargs, msg):
    # n_webpages=True was read as one page
    with pytest.raises(InputError, match=msg):
        SyntheticScenario(**{"n_webpages": 1, "topic_sizes": (1,), "fragments_per_topic": 1, **kwargs})


# ------------------------------------------------------------- evaluation


def small_run():
    data = generate_synthetic(SyntheticScenario(60, (10, 10), fragment_noise=2), seed=5)
    config = PipelineConfig(apply_kernel=False, tau=0.2, knn_txt=20, knn_vis=8)
    return data, config, build_mixed_graph(config, data.w_vis, data.w_txt)


@pytest.mark.parametrize("max_fppt", [2.5, True, "1"])
def test_evaluate_and_run_br_refuse_a_budget_that_is_no_int(max_fppt):
    # 2.5 failed in range() with a bare TypeError, and True was read as 1
    data, config, graph = small_run()
    msg = f"^max_fppt must be an int, got {max_fppt!r}$"
    with pytest.raises(InputError, match=msg):
        evaluate([c.members for c in data.candidates], data.truth, max_fppt=max_fppt)
    with pytest.raises(InputError, match=msg):
        run_br(config, graph, list(data.candidates), truth=data.truth, max_fppt=max_fppt)


@pytest.mark.parametrize("max_fppt,msg", [
    (2.5, "^max_fppt must be an int, got 2.5$"),
    (True, "^max_fppt must be an int, got True$"),
    (-1, "^max_fppt must be >= 0, got -1$"),
])
def test_run_br_refuses_a_bad_budget_before_any_work(monkeypatch, max_fppt, msg):
    # the budget was checked only in evaluate, after fit, bundle and refine
    data, config, graph = small_run()

    def fit(*args, **kwargs):
        pytest.fail("run_br fitted weights before it checked max_fppt")

    monkeypatch.setattr(pipeline, "estimate_weights", fit)
    with pytest.raises(InputError, match=msg):
        run_br(config, graph, list(data.candidates), truth=data.truth, max_fppt=max_fppt)


def test_evaluate_reads_a_numpy_budget_as_its_int():
    data, _, _ = small_run()
    detections = [c.members for c in data.candidates]
    assert evaluate(detections, data.truth, max_fppt=np.int64(2)) == evaluate(detections, data.truth, max_fppt=2)


# ------------------------------------------------------------- oracle


def oracle_instance():
    return np.array([0.5, 0.3, 0.2]), 0.1 * (np.ones((3, 3)) - np.eye(3))


@pytest.mark.parametrize("trials", [2.5, True])
@pytest.mark.parametrize("check", [check_submodularity, check_monotonicity])
def test_oracle_checks_refuse_trials_that_are_no_int(check, trials):
    # 2.5 failed with a bare TypeError; True ran one trial, reported as trials=True
    pi, d = oracle_instance()
    with pytest.raises(InputError, match=f"^trials must be an int, got {trials!r}$"):
        check(pi, d / d.sum(), 1.0, trials=trials)


@pytest.mark.parametrize("seed", [2.5, True])
@pytest.mark.parametrize("check", [check_submodularity, check_monotonicity])
def test_oracle_checks_refuse_a_seed_that_is_no_int(check, seed):
    # 2.5 failed with a bare TypeError from numpy, and True was read as seed 1
    pi, d = oracle_instance()
    with pytest.raises(InputError, match=f"^seed must be an int, got {seed!r}$"):
        check(pi, d / d.sum(), 1.0, trials=3, seed=seed)


def test_oracle_checks_read_numpy_trials_as_their_int():
    pi, d = oracle_instance()
    report = check_submodularity(pi, d, 1.0, trials=np.int64(7), seed=1)
    assert report == check_submodularity(pi, d, 1.0, trials=7, seed=1)
    assert type(report.trials) is int


@pytest.mark.parametrize("k", [2.5, True])
def test_brute_force_subset_refuses_a_size_that_is_no_int(k):
    pi, d = oracle_instance()
    with pytest.raises(InputError, match=f"^k must be an int, got {k!r}$"):
        brute_force_subset(pi, d, 1.0, k=k)


# ------------------------------------------------- numpy ints at the stages


# each was refused as, say, "k must be an int >= 1, got np.int64(2)"


def arrays(*items):
    return [a.tobytes() for a in items]


def test_knn_sparsify_reads_a_numpy_k_as_its_int():
    matrix = random_similarity(np.random.default_rng(0), 12)
    want, got = knn_sparsify(matrix, 2), knn_sparsify(matrix, np.int64(2))
    assert arrays(got.indptr, got.indices, got.data) == arrays(want.indptr, want.indices, want.data)


def test_iterate_weights_reads_a_numpy_cap_as_its_int():
    data, _, graph = small_run()
    want = list(iterate_weights(graph, list(data.candidates), max_iter=10))
    got = list(iterate_weights(graph, list(data.candidates), max_iter=np.int64(10)))
    assert arrays(*got) == arrays(*want)


def test_bundle_reads_a_numpy_window_as_its_int():
    data, _, graph = small_run()
    cands = list(data.candidates)
    apply_weights(cands, estimate_weights(graph, cands))
    ranked = rank(cands)
    assert bundle(ranked, window=np.int64(5), tau=0.2) == bundle(ranked, window=5, tau=0.2)


def test_pagerank_stack_reads_a_numpy_cap_as_its_int():
    w = np.random.default_rng(1).uniform(0.0, 1.0, (2, 5, 5))
    p = w / w.sum(axis=-1, keepdims=True)
    assert arrays(*pagerank_stack(p, max_iter=np.int64(50))) == arrays(*pagerank_stack(p, max_iter=50))
