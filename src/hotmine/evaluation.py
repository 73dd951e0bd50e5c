"""Detection quality metrics against ground-truth topics.

Two complementary views:

* top-10 F1 versus the number of detected topics (NDT): detections are
  matched to ground truth greedily in rank order, each truth topic
  consumable once, and the curve reports the mean of the ten best F1
  scores among the first NDT detections (fixed denominator 10, so the
  curve is monotone and tops out at 1.0 for ten perfect detections).

* accuracy versus false positives per topic (FPPT): walking the ranked
  list, a detection succeeds when its intersection ratio against some
  still unmatched truth topic exceeds 0.5 strictly; accuracy is successes
  over the truth count and FPPT is false positives so far per success.

Each curve takes one matching walk over the ranked list (F1 or NIR as the
score) and one pass over its results, so evaluation costs detections x
truth topics. evaluate turns each detection into a set once, and the walks
score a (detection, truth topic) pair from one intersection size.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from itertools import accumulate
from operator import neg
from pathlib import Path
from typing import Sequence

from .candidates import index_set, load_candidates
from .errors import InputError, check_int

NIR_SUCCESS_THRESHOLD = 0.5
TOP_K = 10


@dataclass(frozen=True)
class GroundTruth:
    """Annotated hot topics for one collection of n webpages."""

    topics: tuple[frozenset[int], ...]
    n: int

    def __post_init__(self) -> None:
        if not self.topics:
            raise InputError("ground truth must contain at least one topic")
        for topic in self.topics:
            if not topic:
                raise InputError("ground-truth topic must be nonempty")
            if min(topic) < 0 or max(topic) >= self.n:
                raise InputError("ground-truth index out of range")


@dataclass(frozen=True)
class EvaluationReport:
    top10_f1_curve: tuple[tuple[int, float], ...]
    accuracy_fppt_curve: tuple[tuple[int, float], ...]

    def accuracy_at(self, fppt: float) -> float:
        return max((y for x, y in self.accuracy_fppt_curve if x <= fppt), default=0.0)


def _as_set(obj) -> frozenset[int]:
    return index_set(getattr(obj, "members", obj))


def _f1(hit: int, size: int, other: int) -> float:
    if hit == 0:
        return 0.0
    precision = hit / size
    recall = hit / other
    return 2.0 * precision * recall / (precision + recall)


def _nir(hit: int, size: int, other: int) -> float:
    return hit / (size + other - hit)  # |D & G| / |D | G|


def _match(
    detections: list[frozenset[int]], truth: GroundTruth, score, threshold: float
) -> list[tuple[float, bool]]:
    """Greedy rank-order matching: (best score, consumed) per detection.

    detections are member sets already; score is _f1 or _nir of the
    intersection and the two sizes. Each detection is scored against the
    still unmatched truth topics; only a strictly higher score replaces
    the best so far, so ties go to the lower index. The best topic is
    consumed only if its score exceeds threshold; otherwise the detection
    leaves every topic free.
    """
    if not detections:
        raise InputError("no detections to evaluate")
    free = [(topic, len(topic)) for topic in map(_as_set, truth.topics)]
    name = "f1" if score is _f1 else "nir"
    matches: list[tuple[float, bool]] = []
    for det in detections:
        best, best_at, size = 0.0, None, len(det)
        if not size and free:
            raise InputError(f"{name} requires nonempty sets")
        for at, (topic, other) in enumerate(free):
            s = score(len(det & topic), size, other)
            if s > best:
                best, best_at = s, at
        if best > threshold:
            del free[best_at]
        matches.append((best, best > threshold))
    return matches


def _top10_f1_vs_ndt(detections: list[frozenset[int]], truth: GroundTruth) -> list[tuple[int, float]]:
    """Curve of mean top-10 F1 for each detection-count cutoff 1..NDT, where
    NDT is the detection count but at least 10."""
    scores = [s for s, _ in _match(detections, truth, _f1, 0.0)]
    # the <= TOP_K best scores so far, kept and summed in descending order:
    # the same floats as sorting every prefix
    top: list[float] = []
    curve: list[tuple[int, float]] = []
    for ndt in range(1, max(len(scores), TOP_K) + 1):
        if ndt <= len(scores):
            insort(top, scores[ndt - 1], key=neg)
            del top[TOP_K:]
        curve.append((ndt, sum(top) / TOP_K))
    return curve


def _accuracy_vs_fppt(
    detections: list[frozenset[int]], truth: GroundTruth, max_fppt: int | None
) -> list[tuple[int, float]]:
    """Accuracy at integer FPPT budgets, best achievable within each budget.

    A detection is successful when its intersection ratio against the best
    still unmatched truth topic exceeds 0.5 strictly; anything else is a
    false positive. Failed detections consume no truth topic.
    """
    matches = _match(detections, truth, _nir, NIR_SUCCESS_THRESHOLD)
    # a point at FPPT x fits an integer budget b exactly when ceil(x) <= b:
    # keep the best accuracy per ceil(x), then take a running max over b
    successes, fppt, best = 0, 0.0, {}
    for k, (_, consumed) in enumerate(matches, start=1):
        successes += consumed
        fppt = (k - successes) / max(1, successes)
        bucket = math.ceil(fppt)
        best[bucket] = max(best.get(bucket, 0.0), successes / len(truth.topics))
    top = max_fppt if max_fppt is not None else math.ceil(fppt)
    return list(enumerate(accumulate((best.get(b, 0.0) for b in range(top + 1)), max)))


def evaluate(
    ranked_detections: Sequence, truth: GroundTruth, max_fppt: int | None = None
) -> EvaluationReport:
    """Bundle both curves into a report; each detection becomes a set once."""
    if max_fppt is not None:
        max_fppt = check_int("max_fppt", max_fppt, 0)
    detections = list(map(_as_set, ranked_detections))
    return EvaluationReport(
        top10_f1_curve=tuple(_top10_f1_vs_ndt(detections, truth)),
        accuracy_fppt_curve=tuple(_accuracy_vs_fppt(detections, truth, max_fppt)),
    )


def load_ground_truth(path: str | Path, n: int) -> GroundTruth:
    """Ground truth shares the candidate file format."""
    topics = load_candidates(path, n=n)
    return GroundTruth(tuple(t.members for t in topics), n=n)


def write_curves(report: EvaluationReport, stem: str | Path) -> list[Path]:
    """Write both curves as `<stem>_top10_f1.csv` and `<stem>_accuracy.csv`:
    an `x,y` header, then one `repr(x),repr(y)` line per point."""
    stem = Path(stem)
    curves = {"_top10_f1.csv": report.top10_f1_curve, "_accuracy.csv": report.accuracy_fppt_curve}
    paths = [stem.with_name(stem.name + suffix) for suffix in curves]
    for path, curve in zip(paths, curves.values()):
        path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in curve))
    return paths
