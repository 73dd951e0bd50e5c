"""Brute-force subset search and randomized property checks."""

import numpy as np
import pytest

from hotmine.errors import InputError
from hotmine.oracle import (
    PropertyReport,
    brute_force_subset,
    check_monotonicity,
    check_submodularity,
    sample_instance,
)
from hotmine.refining import goodness, greedy_select


def flat_instance():
    pi = np.array([0.5, 0.3, 0.2])
    d = 0.1 * (np.ones((3, 3)) - np.eye(3))
    return pi, d


# ----------------------------------------------------------- brute force


def test_brute_force_empty_subset():
    pi, d = flat_instance()
    assert brute_force_subset(pi, d, lam=2.0, k=0) == ((), 0.0)


def test_brute_force_full_subset_matches_goodness():
    pi, d = flat_instance()
    subset, value = brute_force_subset(pi, d, lam=2.0, k=3)
    assert subset == (0, 1, 2)
    assert value == pytest.approx(1.938, abs=1e-12)
    assert value == pytest.approx(goodness([0, 1, 2], pi, d, lam=2.0), abs=1e-12)


def test_brute_force_ties_are_lexicographic():
    pi = np.full(3, 1.0 / 3.0)
    subset, value = brute_force_subset(pi, np.zeros((3, 3)), lam=2.0, k=1)
    assert subset == (0,)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_brute_force_beats_every_other_subset():
    rng = np.random.default_rng(30)
    pi, d = sample_instance(rng, 6)
    from itertools import combinations

    for k in range(7):
        _, best = brute_force_subset(pi, d, lam=2.0, k=k)
        for subset in combinations(range(6), k):
            assert best >= goodness(subset, pi, d, lam=2.0) - 1e-12


def test_brute_force_dominates_greedy_prefixes():
    rng = np.random.default_rng(31)
    pi, d = sample_instance(rng, 9)
    refined = greedy_select(pi, d, lam=2.0)
    for k in range(1, 10):
        _, best = brute_force_subset(pi, d, lam=2.0, k=k)
        greedy_val = goodness(refined.selection_order[:k], pi, d, lam=2.0)
        assert best >= greedy_val - 1e-9


def test_greedy_guarantee_mid_size():
    rng = np.random.default_rng(32)
    bound = 1.0 - 1.0 / np.e
    for _ in range(10):
        pi, d = sample_instance(rng, 8, normalize=True)
        refined = greedy_select(pi, d, lam=2.0)
        greedy_val = goodness(refined.selection_order[:3], pi, d, lam=2.0)
        _, best = brute_force_subset(pi, d, lam=2.0, k=3)
        assert greedy_val >= bound * best - 1e-9


def test_brute_force_is_deterministic():
    rng = np.random.default_rng(33)
    pi, d = sample_instance(rng, 7)
    first = brute_force_subset(pi, d, lam=1.5, k=4)
    second = brute_force_subset(pi, d, lam=1.5, k=4)
    assert first == second


def test_brute_force_size_guard():
    pi = np.full(21, 1.0 / 21.0)
    with pytest.raises(InputError, match="capped at 20"):
        brute_force_subset(pi, np.zeros((21, 21)), lam=2.0, k=2)


@pytest.mark.parametrize("k", [-1, 4])
def test_brute_force_subset_size_range(k):
    pi, d = flat_instance()
    msg = "^k must be >= 0, got -1$" if k < 0 else "^subset size must satisfy 0 <= k <= n, got 4$"
    with pytest.raises(InputError, match=msg):
        brute_force_subset(pi, d, lam=2.0, k=k)


# ----------------------------------------------------------- instances


def test_sample_instance_shapes_and_ranges():
    rng = np.random.default_rng(34)
    pi, d = sample_instance(rng, 10)
    assert pi.shape == (10,)
    assert d.shape == (10, 10)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(pi >= 0.0)
    np.testing.assert_allclose(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    off = d[~np.eye(10, dtype=bool)]
    assert np.all(off >= np.exp(-0.1) - 1e-12)
    assert np.all(off <= 1.0)


def test_sample_instance_normalized_mass():
    rng = np.random.default_rng(35)
    _, d = sample_instance(rng, 8, normalize=True)
    assert d.sum() == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------- submodularity


def test_submodularity_holds_at_small_lam():
    rng = np.random.default_rng(36)
    pi, d = sample_instance(rng, 8)
    report = check_submodularity(pi, d, lam=0.5, trials=500, seed=0)
    assert report.passed
    assert report.violations == 0
    assert report.min_slack >= 0.0 - 1e-12


def test_submodularity_sweep_is_clean():
    rng = np.random.default_rng(37)
    for lam in (0.25, 1.0, 2.0, 5.0):
        pi, d = sample_instance(rng, 10)
        report = check_submodularity(pi, d, lam=lam, trials=1000, seed=1)
        assert report.passed, report.summary()


def test_submodularity_detects_negative_dissimilarity():
    rng = np.random.default_rng(0)
    pi = rng.dirichlet(np.ones(6))
    d = -(np.ones((6, 6)) - np.eye(6))
    report = check_submodularity(pi, d, lam=1.0, trials=200, seed=1)
    assert not report.passed
    assert report.violations == 200
    assert report.min_slack < -0.4


def test_submodularity_slack_is_lam_independent():
    # the lam term cancels between the two nested gains
    rng = np.random.default_rng(38)
    pi, d = sample_instance(rng, 7)
    r1 = check_submodularity(pi, d, lam=0.5, trials=300, seed=2)
    r2 = check_submodularity(pi, d, lam=5.0, trials=300, seed=2)
    assert r1.min_slack == pytest.approx(r2.min_slack, abs=1e-12)


def test_submodularity_input_validation():
    with pytest.raises(InputError, match="two members"):
        check_submodularity(np.array([1.0]), np.zeros((1, 1)), lam=2.0, trials=10)
    pi, d = flat_instance()
    with pytest.raises(InputError, match="trials"):
        check_submodularity(pi, d, lam=2.0, trials=0)


# ----------------------------------------------------------- monotonicity


def test_monotonicity_empty_augmentation_changes_nothing():
    rng = np.random.default_rng(39)
    pi, d = sample_instance(rng, 6, normalize=True)
    assert goodness([2, 4], pi, d, lam=2.0) == pytest.approx(
        goodness([2, 4] + [], pi, d, lam=2.0), abs=0.0
    )


def test_monotonicity_holds_at_boundary_lam():
    rng = np.random.default_rng(40)
    pi, d = sample_instance(rng, 9, normalize=True)
    report = check_monotonicity(pi, d, lam=2.0, trials=1000, seed=3)
    assert report.passed
    assert report.min_slack >= -1e-12
    assert report.violations == 0


def test_monotonicity_fails_with_concentrated_dissimilarity():
    pi = np.array([0.5, 0.5, 0.0, 0.0])
    d = np.zeros((4, 4))
    d[0, 1] = d[1, 0] = 0.5
    report = check_monotonicity(pi, d, lam=0.1, trials=500, seed=0)
    assert not report.passed
    assert report.violations == 175
    assert report.min_slack == pytest.approx(-0.2, abs=1e-12)


def test_monotonicity_requires_normalized_mass():
    rng = np.random.default_rng(41)
    pi, d = sample_instance(rng, 5)
    with pytest.raises(InputError, match="unit mass"):
        check_monotonicity(pi, d, lam=2.0, trials=10)


def test_monotonicity_input_validation():
    with pytest.raises(InputError, match="two members"):
        check_monotonicity(np.array([1.0]), np.zeros((1, 1)), lam=2.0, trials=10)
    pi = np.array([0.5, 0.5])
    d = np.zeros((2, 2))
    d[0, 1] = d[1, 0] = 0.5
    with pytest.raises(InputError, match="trials"):
        check_monotonicity(pi, d, lam=2.0, trials=0)


def test_property_checks_are_reproducible():
    rng = np.random.default_rng(42)
    pi, d = sample_instance(rng, 8)
    assert check_submodularity(pi, d, lam=2.0, trials=100, seed=7) == \
        check_submodularity(pi, d, lam=2.0, trials=100, seed=7)


# ----------------------------------------------------------- reporting


def test_report_summary_format():
    good = PropertyReport(
        name="submodularity", trials=5, violations=0, min_slack=0.001, passed=True
    )
    assert good.summary() == (
        "submodularity: trials=5 violations=0 min_slack=1.000e-03 -> pass"
    )
    bad = PropertyReport(
        name="monotonicity", trials=9, violations=2, min_slack=-0.25, passed=False
    )
    assert bad.summary().endswith("-> FAIL")
    assert "violations=2" in bad.summary()
