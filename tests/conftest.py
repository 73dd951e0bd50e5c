"""Shared helpers for the test suite."""

import contextlib
import gc
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from hotmine.cli import main
from hotmine.graph import SimilarityGraph, SimilarityMatrix


@pytest.fixture()
def corpus(tmp_path):
    """Small generated corpus on disk, shared by the CLI and pin tests."""
    out = tmp_path / "data"
    rc = main([
        "synth",
        "--n", "60",
        "--topic-sizes", "10,10",
        "--fragments", "3",
        "--fragment-noise", "2",
        "--seed", "5",
        "--out-dir", str(out),
    ])
    assert rc == 0
    return out


@contextlib.contextmanager
def fed_fifo(path: Path, text: str):
    """A FIFO at path that a thread fills with text (under 64 KiB, a pipe's
    buffer) once a reader opens it."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,))
    writer.start()
    try:
        yield path
    finally:
        # lets a writer that no reader met finish, and be joined
        unblock = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        writer.join(timeout=10)
        os.close(unblock)
    assert not writer.is_alive(), f"the writer of {path} did not finish"


def graph_from_dense(values, kind: str = "mixed") -> SimilarityGraph:
    """Build a graph straight from a dense symmetric array."""
    return SimilarityGraph(np.asarray(values, dtype=float), kind=kind)


def random_similarity(rng: np.random.Generator, n: int, density: float = 1.0) -> SimilarityMatrix:
    """Random symmetric similarity matrix with zero diagonal."""
    vals = rng.uniform(0.0, 1.0, (n, n))
    if density < 1.0:
        vals = vals * (rng.uniform(0.0, 1.0, (n, n)) < density)
    vals = np.triu(vals, 1)
    return SimilarityMatrix(vals + vals.T)


def best_times(calls, repeats: int = 3) -> list[float]:
    """Best wall time of each call over `repeats` rounds. The calls take
    turns, so that a slow spell of the machine hits all of them rather than
    bending a fit, and the cyclic GC is paused while timing, as timeit does."""
    times = [np.inf] * len(calls)
    gc.collect()
    gc.disable()
    try:
        for _ in range(repeats):
            for k, call in enumerate(calls):
                t0 = time.perf_counter()
                call()
                times[k] = min(times[k], time.perf_counter() - t0)
    finally:
        gc.enable()
    return times


def loglog_fit(sizes, times) -> tuple[float, float, str]:
    """Slope and R^2 of the least-squares line through (log size, log time),
    and a line naming the sizes, times, slope and R^2 for an assertion
    message.

    The line is printed too, so `pytest -rP` shows it for passing runs.
    """
    xs, ys = np.log(np.asarray(sizes, float)), np.log(np.asarray(times, float))
    slope, intercept = np.polyfit(xs, ys, 1)
    ss_res = float(np.sum((ys - (slope * xs + intercept)) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    fit = (
        f"log-log fit: sizes {list(sizes)}, times [{', '.join(f'{t:.4g}' for t in times)}], "
        f"slope {slope:.3f}, R^2 {r_squared:.4f}"
    )
    print(fit)
    return float(slope), r_squared, fit
