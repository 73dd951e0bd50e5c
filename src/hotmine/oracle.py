"""Brute-force references and property checks for the refinement objective.

Everything here exists to validate the optimization modules from a second,
independent angle: exhaustive subset search against greedy selection, and
randomized probes of the submodularity / monotonicity properties that the
greedy guarantee rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .errors import InputError, check_int
from .refining import dissimilarity_stack, goodness, marginal_gain

BRUTE_FORCE_LIMIT = 20
SLACK_TOL = -1e-12


def brute_force_subset(
    pi: np.ndarray, d, lam: float, k: int
) -> tuple[tuple[int, ...], float]:
    """Exhaustive maximizer of goodness over all subsets of size k.

    Refuses topics larger than 20 members (2^20 subsets is where the fun
    stops). Ties return the lexicographically smallest subset.
    """
    pi = np.asarray(pi, dtype=float)
    dm = np.asarray(d, dtype=float)
    n = len(pi)
    if n > BRUTE_FORCE_LIMIT:
        raise InputError(
            f"brute force is capped at {BRUTE_FORCE_LIMIT} members, got {n}"
        )
    k = check_int("k", k, 0)
    if k > n:
        raise InputError(f"subset size must satisfy 0 <= k <= n, got {k}")
    if k == 0:
        return (), 0.0
    # Precompute the quadratic-form kernel so each subset is one gather.
    q = (pi[:, None] * pi[None, :]) * dm
    best_set: tuple[int, ...] | None = None
    best_val = -np.inf
    for subset in combinations(range(n), k):
        idx = np.asarray(subset)
        val = lam * pi[idx].sum() - q[np.ix_(idx, idx)].sum()
        if val > best_val:
            best_val = float(val)
            best_set = subset
    assert best_set is not None
    return best_set, best_val


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of a randomized property check."""

    name: str
    trials: int
    violations: int
    min_slack: float
    passed: bool

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{self.name}: trials={self.trials} violations={self.violations} "
            f"min_slack={self.min_slack:.3e} -> {verdict}"
        )


def sample_instance(
    rng: np.random.Generator, n: int, normalize: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Draw an on-distribution (pi, D) pair for property checks.

    pi comes from a symmetric Dirichlet; D goes through the same
    reconstructed-similarity -> Gaussian-kernel path the pipeline uses, so
    the probes exercise realistic matrices rather than arbitrary ones.
    normalize rescales D to unit total mass (the monotonicity regime).
    """
    pi = rng.dirichlet(np.ones(n))
    s = rng.uniform(0.0, 1.0, size=(n, n))
    s = (s + s.T) / 2.0
    np.fill_diagonal(s, 0.0)
    d = dissimilarity_stack(s[None])[0]
    if normalize:
        d = d / d.sum()
    return pi, d


def _instance(pi: np.ndarray, d, trials: int, need: str) -> tuple[np.ndarray, np.ndarray, int, int]:
    pi = np.asarray(pi, dtype=float)
    if len(pi) < 2:
        raise InputError(f"need at least two members to {need}")
    return pi, np.asarray(d, dtype=float), len(pi), check_int("trials", trials, 1)


def _probe(
    name: str, trials: int, seed: int, slack: Callable[[np.random.Generator], float]
) -> PropertyReport:
    """Draw slack(rng) trials times; slack below -1e-12 is a violation."""
    rng = np.random.default_rng(check_int("seed", seed, 0))
    slacks = [slack(rng) for _ in range(trials)]
    violations = sum(value < SLACK_TOL for value in slacks)
    return PropertyReport(
        name=name,
        trials=trials,
        violations=violations,
        min_slack=float(min(slacks)),
        passed=violations == 0,
    )


def check_submodularity(
    pi: np.ndarray,
    d,
    lam: float,
    trials: int,
    seed: int = 0,
) -> PropertyReport:
    """Probe Delta(x | P1) >= Delta(x | P2) for random nested P1 within P2.

    Slack below -1e-12 counts as a violation; the report carries the worst
    slack seen so a failure is reproducible and quantified.
    """
    pi, dm, n, trials = _instance(pi, d, trials, "nest subsets")

    def slack(rng: np.random.Generator) -> float:
        x = int(rng.integers(n))
        rest = [i for i in range(n) if i != x]
        size2 = int(rng.integers(1, len(rest) + 1))
        p2 = list(rng.choice(rest, size=size2, replace=False))
        size1 = int(rng.integers(0, size2))  # proper subset
        p1 = list(rng.choice(p2, size=size1, replace=False)) if size1 else []
        return marginal_gain(x, p1, pi, dm, lam) - marginal_gain(x, p2, pi, dm, lam)

    return _probe("submodularity", trials, seed, slack)


def check_monotonicity(
    pi: np.ndarray,
    d,
    lam: float,
    trials: int,
    seed: int = 0,
) -> PropertyReport:
    """Probe goodness(P2 | P1) >= goodness(P2) for random disjoint sets.

    Requires D normalized to unit total mass; that plus lam >= 2 is the
    regime where the property provably holds, but smaller lam is accepted
    so the check can demonstrate where the property breaks.
    """
    pi, dm, n, trials = _instance(pi, d, trials, "split")
    total = float(dm.sum())
    if abs(total - 1.0) > 1e-8:
        raise InputError(
            f"monotonicity check needs D normalized to unit mass, got {total:.6f}"
        )
    nodes = np.arange(n)

    def slack(rng: np.random.Generator) -> float:
        perm = rng.permutation(nodes)
        size2 = int(rng.integers(1, n))
        size1 = int(rng.integers(0, n - size2 + 1))
        p2 = list(perm[:size2])
        p1 = list(perm[size2 : size2 + size1])
        return goodness(p1 + p2, pi, dm, lam) - goodness(p2, pi, dm, lam)

    return _probe("monotonicity", trials, seed, slack)
