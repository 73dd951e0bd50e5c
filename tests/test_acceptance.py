"""Acceptance suite: one test per shipping criterion, run with pytest -v.

Each test pins the tolerance and (where stated) the time budget of one
criterion. Budgets are measured around the workload itself, not pytest
overhead.
"""

import time
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from conftest import best_times, loglog_fit
from hotmine.bundling import bundle
from hotmine.candidates import TopicCandidate
from hotmine.evaluation import GroundTruth, evaluate
from hotmine.graph import SimilarityGraph
from hotmine.interestingness import TopicGraph, pagerank, transition_matrix
from hotmine.oracle import (
    brute_force_subset,
    check_monotonicity,
    check_submodularity,
    sample_instance,
)
from hotmine.pipeline import PipelineConfig, build_mixed_graph, run_br
from hotmine.ranking import RankedTopicList, _Coverage, iterate_weights
from hotmine.refining import goodness, greedy_select
from hotmine.synth import SyntheticScenario, generate_synthetic


def test_a1_submodularity_holds_over_ten_thousand_trials():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    total = 0
    for i, lam in enumerate((0.5, 1.0, 2.0, 5.0, 0.25)):
        pi, d = sample_instance(rng, 10)
        report = check_submodularity(pi, d, lam=lam, trials=2000, seed=i)
        total += report.trials
        assert report.violations == 0, report.summary()
        assert report.passed
    assert total == 10_000
    assert time.perf_counter() - start < 10.0


def test_a2_monotonicity_holds_in_the_guaranteed_regime():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    total = 0
    for i in range(10):
        pi, d = sample_instance(rng, 12, normalize=True)
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)
        assert d.sum() == pytest.approx(1.0, abs=1e-9)
        lam = 2.0 if i % 2 == 0 else 3.0
        report = check_monotonicity(pi, d, lam=lam, trials=1000, seed=i)
        total += report.trials
        assert report.violations == 0, report.summary()
    assert total == 10_000
    assert time.perf_counter() - start < 10.0


def test_a3_greedy_meets_constant_factor_of_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    bound = 1.0 - 1.0 / np.e
    for _ in range(200):
        n = int(rng.integers(6, 13))
        pi, d = sample_instance(rng, n, normalize=True)
        lam = float(rng.uniform(2.0, 5.0))
        order = greedy_select(pi, d, lam=lam).selection_order
        for k in range(1, n + 1):
            greedy_val = goodness(order[:k], pi, d, lam=lam)
            _, best = brute_force_subset(pi, d, lam=lam, k=k)
            assert greedy_val >= bound * best - 1e-9
    assert time.perf_counter() - start < 60.0


def test_a4_gain_drops_stay_in_unit_interval():
    rng = np.random.default_rng(4)
    violations = 0
    seen = 0
    for _ in range(200):
        n = int(rng.integers(4, 16))
        pi, d = sample_instance(rng, n, normalize=True)
        lam = float(rng.uniform(2.0, 4.0))
        for delta in greedy_select(pi, d, lam=lam).deltas:
            seen += 1
            if not 0.0 <= delta <= 1.0:
                violations += 1
    assert seen > 0
    assert violations == 0


def test_a5_pagerank_matches_dense_solve_within_budget():
    rng = np.random.default_rng(5)
    alpha = 0.9
    for t in range(100):
        m = int(rng.integers(20, 94))
        w = rng.uniform(0.0, 1.0, (m, m))
        w = np.triu(w, 1)
        w = w + w.T
        if t % 7 == 3:
            # isolated node exercises the dangling-row fix
            w[0, :] = 0.0
            w[:, 0] = 0.0
        p = transition_matrix(TopicGraph(tuple(range(m)), w))
        result = pagerank(p, alpha=alpha, tol=1e-9, max_iter=50)
        assert result.iterations <= 50
        exact = np.linalg.solve(
            np.eye(m) - alpha * p.T, np.full(m, (1.0 - alpha) / m)
        )
        assert float(np.abs(result.pi - exact).sum()) <= 1e-8
        assert result.pi.sum() == pytest.approx(1.0, abs=1e-9)


def test_a6_deconvolution_matches_grid_search_per_coordinate():
    rng = np.random.default_rng(6)
    step = 1e-3
    u = np.arange(0.0, 2.0 + step / 2, step)
    m1, m2 = np.meshgrid(u, u, indexing="ij")
    worst = 0.0
    for _ in range(50):
        r1 = int(rng.integers(4, 8))
        r2 = min(int(rng.integers(2, 5)), r1 - 1)
        c1, c2 = frozenset(range(0, r1)), frozenset(range(r2, 10))
        assert c1 & c2
        vals = np.zeros((12, 12))
        for i, j in combinations(range(10), 2):
            if rng.uniform() < 0.8:
                vals[i, j] = vals[j, i] = float(rng.uniform())
        graph = SimilarityGraph(vals, kind="mixed")
        cands = [TopicCandidate(c1), TopicCandidate(c2)]

        cov = _Coverage(graph, cands)
        lls = []
        mu = None
        for mu in iterate_weights(graph, cands, max_iter=2000, tol=1e-10):
            lls.append(cov.log_likelihood(mu))
        assert mu is not None
        assert all(b >= a - 1e-9 for a, b in zip(lls, lls[1:]))

        only1 = [p for p in combinations(sorted(c1), 2) if not set(p) <= c2]
        only2 = [p for p in combinations(sorted(c2), 2) if not set(p) <= c1]
        both = [
            p
            for p in combinations(range(10), 2)
            if set(p) <= c1 and set(p) <= c2
        ]
        s1 = sum(vals[p] for p in only1)
        s2 = sum(vals[p] for p in only2)
        sb = sum(vals[p] for p in both)
        with np.errstate(divide="ignore", invalid="ignore"):
            ll = (
                np.where(s1 > 0, s1 * np.log(m1), 0.0)
                + np.where(s2 > 0, s2 * np.log(m2), 0.0)
                + np.where(sb > 0, sb * np.log(m1 + m2), 0.0)
                - len(only1) * m1
                - len(only2) * m2
                - len(both) * (m1 + m2)
            )
        ll = np.where(np.isnan(ll), -np.inf, ll)
        k = np.unravel_index(int(np.argmax(ll)), ll.shape)
        worst = max(worst, abs(mu[0] - u[k[0]]), abs(mu[1] - u[k[1]]))
    assert worst <= 1e-3


def test_a7_full_pipeline_beats_its_ablations_in_heavy_noise():
    start = time.perf_counter()
    scenario = SyntheticScenario(
        n_webpages=1500,
        topic_sizes=(20, 20, 20),
        fragments_per_topic=3,
        fragment_drop=4,
        fragment_noise=14,
        noise_cluster_size=12,
        noise_cluster_count=20,
    )
    assert 1.0 - scenario.planted_total / scenario.n_webpages >= 0.95
    data = generate_synthetic(scenario, seed=0)
    config = PipelineConfig(apply_kernel=False, tau=0.2)
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    cands = list(data.candidates)

    full = run_br(config, graph, cands, truth=data.truth, stop_after="refine")
    rank_only = run_br(config, graph, cands, truth=data.truth, stop_after="rank")
    no_refine = run_br(config, graph, cands, truth=data.truth, stop_after="bundle")

    detections = [det.members for det in full.detections]
    for topic in data.truth.topics:
        best = max(
            2.0 * len(d & topic) / (len(d) + len(topic)) for d in detections
        )
        assert best >= 0.9

    assert full.report is not None
    assert rank_only.report is not None and no_refine.report is not None
    br_acc = full.report.accuracy_at(5)
    assert br_acc > rank_only.report.accuracy_at(5)
    assert br_acc > no_refine.report.accuracy_at(5)
    assert time.perf_counter() - start < 120.0


@pytest.mark.timing
def test_a8_bundling_time_scales_linearly_in_candidates():
    rng = np.random.default_rng(11)
    sizes = (1000, 2000, 4000)
    calls = []
    for count in sizes:
        items = [
            TopicCandidate(
                frozenset(rng.choice(100_000, size=8, replace=False).tolist())
            )
            for _ in range(count)
        ]
        ranked = RankedTopicList(items=items, indices=list(range(count)))
        calls.append(partial(bundle, ranked, window=50, tau=0.4))
    times = best_times(calls)  # best of 3 per size, the sizes taking turns
    slope, r_squared, fit = loglog_fit(sizes, times)
    assert 0.75 <= slope <= 1.3, fit
    assert r_squared >= 0.95, fit


def test_a9_hand_computed_staircase_is_exact():
    truth = GroundTruth(
        (
            frozenset(range(0, 10)),
            frozenset(range(10, 20)),
            frozenset(range(20, 30)),
        ),
        n=36,
    )
    detections = [
        frozenset(range(0, 10)),          # perfect match of topic 0
        frozenset(range(30, 36)),         # pure junk
        frozenset(range(10, 18)) | {30, 31},  # 8/10 of topic 1 plus junk
        frozenset(range(0, 10)),          # duplicate, topic 0 already taken
        frozenset(range(20, 25)),         # half of topic 2: F1 2/3, NIR 0.5
        frozenset(range(20, 30)) | {30, 31, 32},  # topic 2 plus junk
    ]
    report = evaluate(detections, truth, max_fppt=3)

    # the curve runs to 10 detections; past the sixth it stays flat
    expected_f1 = (
        (1, 1.0 / 10.0),
        (2, 1.0 / 10.0),
        (3, 1.8 / 10.0),
        (4, 1.8 / 10.0),
        *((ndt, (1.0 + 0.8 + 2.0 / 3.0) / 10.0) for ndt in range(5, 11)),
    )
    assert len(report.top10_f1_curve) == 10
    for (ndt, got), (ndt_exp, want) in zip(report.top10_f1_curve, expected_f1):
        assert ndt == ndt_exp
        assert got == pytest.approx(want, abs=1e-12)

    expected_acc = ((0, 1.0 / 3.0), (1, 1.0), (2, 1.0), (3, 1.0))
    assert len(report.accuracy_fppt_curve) == 4
    for (x, got), (x_exp, want) in zip(report.accuracy_fppt_curve, expected_acc):
        assert x == x_exp
        assert got == pytest.approx(want, abs=1e-12)
