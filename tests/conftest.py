"""Shared helpers for the test suite."""

import numpy as np
import scipy.sparse as sp

from hotmine.graph import SimilarityGraph, SimilarityMatrix


def graph_from_dense(values, kind: str = "mixed") -> SimilarityGraph:
    """Build a graph straight from a dense symmetric array."""
    return SimilarityGraph(sp.csr_matrix(np.asarray(values, dtype=float)), kind=kind)


def random_similarity(rng: np.random.Generator, n: int, density: float = 1.0) -> SimilarityMatrix:
    """Random symmetric similarity matrix with zero diagonal."""
    vals = rng.uniform(0.0, 1.0, (n, n))
    if density < 1.0:
        vals = vals * (rng.uniform(0.0, 1.0, (n, n)) < density)
    vals = np.triu(vals, 1)
    return SimilarityMatrix(vals + vals.T)


def loglog_fit(sizes, times) -> tuple[float, float]:
    """Slope and R^2 of the least-squares line through (log size, log time).

    The fit is printed, so `pytest -rP` shows it for passing runs too.
    """
    xs, ys = np.log(np.asarray(sizes, float)), np.log(np.asarray(times, float))
    slope, intercept = np.polyfit(xs, ys, 1)
    ss_res = float(np.sum((ys - (slope * xs + intercept)) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    print(f"log-log fit: slope {slope:.3f}, R^2 {r_squared:.4f}, sizes {list(sizes)}")
    return float(slope), r_squared
