"""End-to-end topic mining: rank, bundle, refine, evaluate.

The driver glues the stages together behind one config object:

1. weight every candidate by Poisson deconvolution against the mixed graph
   and sort by interestingness;
2. bundle ranked fragments into coarse topics and suppress near-duplicates;
3. for each coarse topic, rebuild the model similarity over its members,
   score members by damped PageRank, greedily order them by marginal
   goodness gain, and cut at the sharpest relative drop;
4. optionally score the detections against ground truth.

`stop_after` lets callers run the weaker prefixes of the pipeline (rank
only, or rank + bundle) as baselines against the full run. Every stage is
deterministic given the config, so a rerun writes bit-identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .bundling import CoarseTopic, bundle, nms_dedupe
from .candidates import TopicCandidate, save_candidates
from .errors import InputError
from .evaluation import EvaluationReport, GroundTruth, evaluate, write_curves
from .graph import (
    SimilarityGraph,
    SimilarityMatrix,
    gaussian_affinity,
    knn_sparsify,
    mix_graphs,
)
from .interestingness import pagerank, reconstructed_similarity, transition_matrix
from .ranking import apply_weights, estimate_weights, rank
from .refining import apply_cut, dissimilarity, greedy_select

STAGES = ("rank", "bundle", "refine")


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the pipeline in one place.

    sigma2_affinity None means the kernel picks its bandwidth from the
    data; apply_kernel False skips the distance-to-affinity kernel entirely
    for inputs that already are affinities (synthetic data is).
    """

    knn_txt: int = 100
    knn_vis: int = 10
    sigma2_affinity: float | None = None
    apply_kernel: bool = True
    cascade_thresholds: tuple[float, ...] = (0.1, 0.5, 0.9)
    window: int = 100
    tau: float = 0.4
    nms_thresh: float = 0.4
    alpha: float = 0.9
    sigma_dissim: float = 10.0
    lam: float = 2.0
    margin: float = 0.1
    pd_max_iter: int = 500
    pd_tol: float = 1e-6
    pr_tol: float = 1e-9
    pr_max_iter: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "cascade_thresholds", tuple(float(t) for t in self.cascade_thresholds)
        )
        if self.knn_txt < 1 or self.knn_vis < 1:
            raise InputError("knn_txt and knn_vis must be >= 1")
        if self.window < 0:
            raise InputError("window must be >= 0")
        if not (0.0 < self.tau <= 1.0):
            raise InputError(f"tau must lie in (0, 1], got {self.tau}")
        if not (0.0 < self.nms_thresh < 1.0):
            raise InputError(f"nms_thresh must lie in (0, 1), got {self.nms_thresh}")
        if not (0.0 <= self.alpha < 1.0):
            raise InputError(f"alpha must lie in [0, 1), got {self.alpha}")
        if self.sigma_dissim <= 0.0 or self.lam <= 0.0:
            raise InputError("sigma_dissim and lam must be positive")
        if self.margin < 0.0:
            raise InputError("margin must be >= 0")
        if self.pd_max_iter < 1 or self.pr_max_iter < 1:
            raise InputError("iteration caps must be >= 1")
        if self.pd_tol <= 0.0 or self.pr_tol <= 0.0:
            raise InputError("tolerances must be positive")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["cascade_thresholds"] = list(self.cascade_thresholds)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class DetectedTopic:
    """One output topic with its full audit trail.

    pi, selection_order, gains, deltas and cut_index are None for topics
    that bypassed refinement (tiny coarse topics, or runs stopped before
    the refine stage). selection_order holds webpage indices, not
    positions.
    """

    rank: int
    members: frozenset[int]
    coarse_members: frozenset[int]
    sources: tuple[int, ...]
    bypassed: bool
    pi: tuple[float, ...] | None = None
    selection_order: tuple[int, ...] | None = None
    gains: tuple[float, ...] | None = None
    deltas: tuple[float, ...] | None = None
    cut_index: int | None = None


@dataclass
class PipelineResult:
    config: PipelineConfig
    stage: str
    detections: list[DetectedTopic]
    report: EvaluationReport | None


def build_mixed_graph(
    config: PipelineConfig,
    w_vis: SimilarityMatrix | np.ndarray,
    w_txt: SimilarityMatrix | np.ndarray,
) -> SimilarityGraph:
    """Kernel (optional), per-modality kNN sparsify, then average.

    The neighbor counts are clamped to n - 1 so small corpora work with
    the large-corpus defaults.
    """
    sides = []
    for raw, k, kind in ((w_vis, config.knn_vis, "vis"), (w_txt, config.knn_txt, "txt")):
        matrix = raw if isinstance(raw, SimilarityMatrix) else SimilarityMatrix(raw)
        if config.apply_kernel:
            matrix = gaussian_affinity(matrix, sigma2=config.sigma2_affinity)
        sides.append(knn_sparsify(matrix, min(k, matrix.n - 1), kind=kind))
    return mix_graphs(sides[0], sides[1])


def _refine_topic(
    topic: CoarseTopic,
    rank_pos: int,
    candidates: Sequence[TopicCandidate],
    config: PipelineConfig,
    refine: bool,
) -> DetectedTopic:
    if not refine or len(topic.members) <= 2:
        # Stopped before refining, or too small for a gain trace: pass the
        # coarse topic through.
        return DetectedTopic(
            rank=rank_pos,
            members=topic.members,
            coarse_members=topic.members,
            sources=topic.sources,
            bypassed=True,
        )
    tg = reconstructed_similarity(topic, candidates)
    scores = pagerank(
        transition_matrix(tg),
        alpha=config.alpha,
        tol=config.pr_tol,
        max_iter=config.pr_max_iter,
    )
    d = dissimilarity(tg, bandwidth=config.sigma_dissim)
    refined = apply_cut(
        greedy_select(scores.pi, d, lam=config.lam), margin=config.margin
    )
    assert refined.members is not None and refined.cut_index is not None
    return DetectedTopic(
        rank=rank_pos,
        members=frozenset(tg.nodes[i] for i in refined.members),
        coarse_members=topic.members,
        sources=topic.sources,
        bypassed=False,
        pi=tuple(float(v) for v in scores.pi),
        selection_order=tuple(tg.nodes[i] for i in refined.selection_order),
        gains=tuple(refined.gains),
        deltas=tuple(refined.deltas),
        cut_index=refined.cut_index,
    )


def run_br(
    config: PipelineConfig,
    graph: SimilarityGraph,
    candidates: Sequence[TopicCandidate],
    truth: GroundTruth | None = None,
    stop_after: str = "refine",
    max_fppt: int | None = None,
) -> PipelineResult:
    """Run the pipeline on a prebuilt graph and candidate list.

    Ranking annotates every candidate in place with its fitted weight and
    interestingness. With stop_after="rank" each ranked candidate becomes
    a single-source topic.
    """
    if stop_after not in STAGES:
        raise InputError(f"stop_after must be one of {STAGES}, got {stop_after!r}")
    weights = estimate_weights(
        graph, candidates, max_iter=config.pd_max_iter, tol=config.pd_tol
    )
    apply_weights(candidates, weights)
    ranked = rank(candidates)
    if stop_after == "rank":
        coarse = [
            CoarseTopic(item.members, (ranked.indices[pos],), pos)
            for pos, item in enumerate(ranked.items)
        ]
    else:
        coarse = nms_dedupe(
            bundle(ranked, window=config.window, tau=config.tau),
            overlap_thresh=config.nms_thresh,
        )
    refine = stop_after == "refine"
    detections = [
        _refine_topic(topic, pos, candidates, config, refine)
        for pos, topic in enumerate(coarse)
    ]
    report = None if truth is None else evaluate(detections, truth, max_fppt=max_fppt)
    return PipelineResult(
        config=config, stage=stop_after, detections=detections, report=report
    )


def write_detections(result: PipelineResult, path: str | Path) -> None:
    """Refined topics in the candidate line format, rank order."""
    save_candidates(result.detections, path, header=[f"stage: {result.stage}"])


def provenance_dict(result: PipelineResult) -> dict:
    """Everything about a run except wall-clock timings.

    Timings are deliberately left out so rerunning the same config on the
    same inputs produces byte-identical provenance.
    """
    return {
        "config": result.config.to_dict(),
        "stage": result.stage,
        "detections": [
            {
                "rank": det.rank,
                "members": sorted(det.members),
                "coarse_members": sorted(det.coarse_members),
                "sources": list(det.sources),
                "bypassed": det.bypassed,
                "pi": list(det.pi) if det.pi is not None else None,
                "selection_order": (
                    list(det.selection_order)
                    if det.selection_order is not None
                    else None
                ),
                "gains": list(det.gains) if det.gains is not None else None,
                "deltas": list(det.deltas) if det.deltas is not None else None,
                "cut_index": det.cut_index,
            }
            for det in result.detections
        ],
    }


def write_provenance(result: PipelineResult, path: str | Path) -> None:
    payload = json.dumps(provenance_dict(result), indent=2, sort_keys=True)
    Path(path).write_text(payload + "\n")


def write_report(result: PipelineResult, stem: str | Path) -> list[Path]:
    """Write the two metric curves as CSV next to the given stem."""
    if result.report is None:
        raise InputError("run had no ground truth, no report to write")
    return write_curves(result.report, stem)
