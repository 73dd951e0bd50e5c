"""End-to-end topic mining: graph, rank, bundle, refine, evaluate.

The driver glues the stages together behind one config object:

0. build each modality's kNN graph (optional kernel, then kNN) and mix
   the two. From files, a forked child builds the textual graph while this
   process builds the visual one, so each process holds one modality's
   matrix, and the child sends back only its kNN graph;
1. weight every candidate by Poisson deconvolution against the mixed graph
   and sort by interestingness;
2. bundle ranked fragments into coarse topics and suppress near-duplicates;
3. for each coarse topic, rebuild the model similarity over its members,
   score members by damped PageRank, greedily order them by marginal
   goodness gain, and cut at the sharpest relative drop. Topics are refined
   in stacks of equal size: one vectorized pass per (size, chunk), a few
   Python steps per source candidate, and one record per topic, O(members)
   to fill; a topic that passes through gets its record and no other. A
   stack holds at most two (T, m, m) arrays of at most STACK_FLOATS floats
   at once;
4. optionally score the detections against ground truth.

`stop_after` lets callers run the weaker prefixes of the pipeline (rank
only, or rank + bundle) as baselines against the full run. Every stage is
deterministic given the config, so a rerun writes bit-identical outputs.
"""

from __future__ import annotations

import json
import os
import pickle
from dataclasses import Field, asdict, dataclass, fields
from math import inf
from operator import attrgetter
from pathlib import Path
from typing import Any, BinaryIO, Sequence

import numpy as np

from . import bundling, interestingness, ranking, refining
from .bundling import CoarseTopic, bundle, nms_dedupe
from .candidates import TopicCandidate, checked_thresholds, save_candidates
from .errors import InputError, check_int
from .evaluation import EvaluationReport, GroundTruth, evaluate, write_curves
from .graph import (
    SimilarityGraph, SimilarityMatrix, gaussian_affinity, knn_sparsify, load_similarity, mix_graphs
)
from .interestingness import pagerank_stack, similarity_stack, transition_stack
from .ranking import apply_weights, estimate_weights, rank
from .refining import cut_stack, dissimilarity_stack, greedy_stack

STAGES = ("rank", "bundle", "refine")

# Largest (T, m, m) array one refine stack may hold: 8 MiB of floats. A
# stack holds at most two such arrays at once, so refine needs about
# 2 x 8 MiB beyond its inputs. A topic above it is refined as a stack of one.
STACK_FLOATS = 2 ** 20


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
    window: int = bundling.DEFAULT_WINDOW
    tau: float = bundling.DEFAULT_TAU
    nms_thresh: float = bundling.DEFAULT_NMS_THRESH
    alpha: float = interestingness.DEFAULT_DAMPING
    sigma_dissim: float = refining.DEFAULT_BANDWIDTH
    lam: float = refining.DEFAULT_TRADEOFF
    margin: float = refining.DEFAULT_MARGIN
    pd_max_iter: int = ranking.DEFAULT_MAX_ITER
    pd_tol: float = ranking.DEFAULT_TOL
    pr_tol: float = interestingness.DEFAULT_PR_TOL
    pr_max_iter: int = interestingness.DEFAULT_PR_MAX_ITER
    seed: int = 0

    def __post_init__(self) -> None:
        """Types (see _is_a), then ranges; only the thresholds are converted."""
        for field in fields(self):
            value, kind = getattr(self, field.name), field_type(field)
            if not (value is None is field.default or _is_a(value, kind)):
                expected = _JSON_TYPES[kind] + (" or null" if field.default is None else "")
                got = json.dumps(value, default=repr)
                raise InputError(f"config key {field.name} must be {expected}, got {got}")
        object.__setattr__(self, "cascade_thresholds", checked_thresholds(self.cascade_thresholds))
        for name in ("knn_txt", "knn_vis", "window", "pd_max_iter", "pr_max_iter", "seed"):
            check_int(name, getattr(self, name), 0 if name in ("window", "seed") else 1)
        if not (0.0 < self.tau <= 1.0):
            raise InputError(f"tau must lie in (0, 1], got {self.tau}")
        if not (0.0 < self.nms_thresh < 1.0):
            raise InputError(f"nms_thresh must lie in (0, 1), got {self.nms_thresh}")
        if not (0.0 <= self.alpha < 1.0):
            raise InputError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not (0.0 < self.sigma_dissim < inf and 0.0 < self.lam < inf):
            raise InputError("sigma_dissim and lam must be positive and finite")
        if not 0.0 <= self.margin < inf:
            raise InputError(f"margin must be >= 0 and finite, got {self.margin}")
        if not (0.0 < self.pd_tol < inf and 0.0 < self.pr_tol < inf):
            raise InputError("tolerances must be positive and finite")
        if self.sigma2_affinity is not None and not 0.0 < self.sigma2_affinity < inf:
            raise InputError(f"sigma2_affinity must be positive and finite, got {self.sigma2_affinity}")

    def to_dict(self) -> dict:
        return {**asdict(self), "cascade_thresholds": list(self.cascade_thresholds)}

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        """Unknown keys are refused; values are checked as any config's are."""
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


_JSON_TYPES = {bool: "a bool", tuple: "a list of numbers", int: "an int", float: "a number"}


def field_type(field: Field) -> type:
    """A config field's type, read from its class default: bool, tuple (of
    numbers), int or float. A None default stands for a float or null."""
    return float if field.default is None else type(field.default)


def _is_a(value, kind: type) -> bool:
    """An int passes for a float, a bool only for a bool, and a tuple is a
    list of numbers."""
    if kind is tuple:
        return isinstance(value, (list, tuple)) and all(_is_a(v, float) for v in value)
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


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
    config: PipelineConfig, w_vis: SimilarityMatrix, w_txt: SimilarityMatrix
) -> SimilarityGraph:
    """Kernel (optional), per-modality kNN sparsify, then average.

    Matrices of different sizes, or of fewer than 2 pages, are refused
    before any graph work. The neighbor counts are clamped to n - 1 so small
    corpora work with the large-corpus defaults.
    """
    _check_sizes(w_vis.n, w_txt.n)
    return mix_graphs(_modality_graph(config, w_vis, "vis"), _modality_graph(config, w_txt, "txt"))


def _check_sizes(n_vis: int, n_txt: int) -> None:
    if n_vis != n_txt:
        raise InputError(f"similarity matrices disagree on size: {n_vis} vs {n_txt}")
    if n_vis < 2:
        raise InputError(f"a graph needs at least 2 pages, got n={n_vis}")


def _modality_graph(config: PipelineConfig, matrix: SimilarityMatrix, kind: str) -> SimilarityGraph:
    """One modality's kNN graph: the kernel if the config applies it, then
    kNN with the modality's neighbor count (knn_vis or knn_txt)."""
    if config.apply_kernel:
        matrix = gaussian_affinity(matrix, sigma2=config.sigma2_affinity)
    return knn_sparsify(matrix, min(getattr(config, f"knn_{kind}"), matrix.n - 1), kind=kind)


def build_mixed_graph_from_files(config: PipelineConfig, vis: str | Path, txt: str | Path) -> SimilarityGraph:
    """build_mixed_graph(config, load_similarity(vis), load_similarity(txt)).

    The parses and kNN builds hold the GIL, so a forked child loads txt and
    builds its graph while this process does vis's; each process holds one
    matrix. The child runs no BLAS. It pickles back its matrix's n, then its
    kNN graph, each array read straight into its buffer; in place of either
    goes the exception it raised. Errors come in the serial order: vis's
    load, txt's load, the sizes, then vis's graph and txt's graph; the sizes
    are checked before this process starts any graph work. The child is
    always reaped, and killed first if this process raises. Without
    os.fork, the two sides are built one after the other.
    """
    if not hasattr(os, "fork"):
        return build_mixed_graph(config, load_similarity(vis), load_similarity(txt))
    import signal

    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as out:
                _send_txt_side(out, config, txt)
            code = 0
        finally:
            os._exit(code)  # never return into the caller's stack
    os.close(write_end)
    try:
        with open(read_end, "rb") as feed:
            w_vis = load_similarity(vis)
            got = _receive(feed)  # txt's n, its load error, or None
            if type(got) is int:
                _check_sizes(w_vis.n, got)
                g_vis = _modality_graph(config, w_vis, "vis")
                del w_vis
                got = _receive(feed)  # txt's graph, its graph error, or None
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    if isinstance(got, BaseException):
        raise got
    if got is None:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise InputError(f"{txt}: the process parsing it ended without a result ({how})")
    return mix_graphs(g_vis, got)


def _send_txt_side(out: BinaryIO, config: PipelineConfig, txt: str | Path) -> None:
    """Pickle to out load_similarity(txt)'s n, flushed at once, then txt's
    kNN graph; the exception a step raises replaces its result and ends the
    stream. Protocol 5 writes each array's bytes as they lie in memory."""
    try:
        w_txt = load_similarity(txt)
        pickle.dump(w_txt.n, out, protocol=5)
        out.flush()  # the reader checks the sizes while the kNN runs
        result: Any = _modality_graph(config, w_txt, "txt")
    except BaseException as exc:  # raised again by the reader
        result = exc
    pickle.dump(result, out, protocol=5)


def _receive(feed: BinaryIO) -> Any:
    """The next object _send_txt_side wrote to feed; None if the stream
    ends early."""
    try:
        return pickle.load(feed)
    except (EOFError, pickle.UnpicklingError):
        return None


def _refine_topics(
    coarse: Sequence[CoarseTopic],
    candidates: Sequence[TopicCandidate],
    config: PipelineConfig,
    refine: bool,
) -> list[DetectedTopic]:
    """One detection per coarse topic, in rank order; topics of more than two
    members are refined in stacks of equal size, the rest pass through."""
    out: list = [None] * len(coarse)
    sizes: dict[int, list[int]] = {}
    for pos, topic in enumerate(coarse):
        if refine and len(topic.members) > 2:
            sizes.setdefault(len(topic.members), []).append(pos)
        else:
            out[pos] = DetectedTopic(pos, topic.members, topic.members, topic.sources, True)
    for m, positions in sizes.items():
        step = max(1, STACK_FLOATS // (m * m))
        for chunk in (positions[lo : lo + step] for lo in range(0, len(positions), step)):
            nodes, w = similarity_stack([coarse[pos] for pos in chunk], candidates)
            pi, _ = pagerank_stack(transition_stack(w), config.alpha, config.pr_tol, config.pr_max_iter)
            d = dissimilarity_stack(w, config.sigma_dissim)
            order, gains, deltas, lengths = greedy_stack(pi, d, config.lam)
            del w, d  # so that the next stack starts with none of this one's arrays
            cuts = cut_stack(deltas, lengths, config.margin).tolist()
            picked = np.take_along_axis(nodes, order, axis=1).tolist()
            rows = zip(chunk, picked, cuts, pi.tolist(), gains.tolist(), deltas.tolist(), lengths)
            for pos, sel, cut, p, g, dl, length in rows:
                topic = coarse[pos]
                out[pos] = DetectedTopic(
                    pos, frozenset(sel[: cut + 1]), topic.members, topic.sources, False,
                    tuple(p), tuple(sel), tuple(g), tuple(dl[:length]), cut,
                )
    return out


def run_br(
    config: PipelineConfig,
    graph: SimilarityGraph,
    candidates: Sequence[TopicCandidate],
    truth: GroundTruth | None = None,
    stop_after: str = "refine",
    max_fppt: int | None = None,
) -> PipelineResult:
    """Run the pipeline on a prebuilt graph and candidate list.

    Ranking annotates every candidate in place with its fitted weight.
    With stop_after="rank" each ranked candidate becomes a single-source
    topic.
    """
    if stop_after not in STAGES:
        raise InputError(f"stop_after must be one of {STAGES}, got {stop_after!r}")
    if max_fppt is not None:
        max_fppt = check_int("max_fppt", max_fppt, 0)
    weights = estimate_weights(
        graph, candidates, max_iter=config.pd_max_iter, tol=config.pd_tol
    )
    apply_weights(candidates, weights)
    ranked = rank(candidates)
    if stop_after == "rank":
        coarse = [
            CoarseTopic(item.members, (ranked.indices[pos],))
            for pos, item in enumerate(ranked.items)
        ]
    else:
        coarse = nms_dedupe(
            bundle(ranked, window=config.window, tau=config.tau),
            overlap_thresh=config.nms_thresh,
        )
    detections = _refine_topics(coarse, candidates, config, stop_after == "refine")
    report = None if truth is None else evaluate(detections, truth, max_fppt=max_fppt)
    return PipelineResult(
        config=config, stage=stop_after, detections=detections, report=report
    )


def write_detections(result: PipelineResult, path: str | Path) -> None:
    """Refined topics in the candidate line format, rank order."""
    save_candidates(result.detections, path, header=[f"stage: {result.stage}"])


def write_provenance(result: PipelineResult, path: str | Path) -> None:
    """Write the config, the stage and every detection's fields, but no
    wall-clock timings, so a rerun on the same inputs writes the same bytes:
    those of json.dumps(record, indent=2, sort_keys=True) + "\\n". Each
    detection fills one positional template, as json.dumps with an indent
    never uses its C encoder. The pieces go to the file unjoined, so the
    record is never held whole as one string."""
    config = json.dumps(result.config.to_dict(), indent=2, sort_keys=True).replace("\n", "\n  ")
    parts = [f'{{\n  "config": {config},\n  "detections": [']
    for det in result.detections:
        parts.append(",\n    " if len(parts) > 1 else "\n    ")
        parts.append(_DETECTION.format(*map(_field, _FIELDS(det))))
    parts.append("\n  ]" if result.detections else "]")
    parts.append(f',\n  "stage": {json.dumps(result.stage)}\n}}\n')
    with Path(path).open("w") as out:
        out.writelines(parts)


_NAMES = sorted(f.name for f in fields(DetectedTopic))
_FIELDS = attrgetter(*_NAMES)
# a detection as json.dumps(indent=2, sort_keys=True) writes it in the record
_DETECTION = "{{\n" + ",\n".join(
    f"      {json.dumps(name)}: {{{k}}}" for k, name in enumerate(_NAMES)
) + "\n    }}"
_SCALARS = {None: "null", False: "false", True: "true"}
_INT, _FLOAT = {int}, {float}


def _field(value) -> str:
    """A detection field as _DETECTION holds it, frozensets as sorted lists.
    An int, a bool or None is spelled directly. A list of ints or of floats
    is joined through int.__repr__ or float.__repr__, as json.dumps does,
    NaN and Infinity spelled as JSON spells them; anything else, a numpy
    int among them, goes to json.dumps, which also raises TypeError on a
    numpy int."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool or value is None:
        return _SCALARS[value]
    if not isinstance(value, (frozenset, tuple)):
        return json.dumps(value)
    items = sorted(value) if isinstance(value, frozenset) else value
    kinds = set(map(type, items))
    if kinds == _INT:
        row = ",\n        ".join(map(int.__repr__, items))
    elif kinds == _FLOAT:
        row = ",\n        ".join(map(float.__repr__, items))
        if "n" in row:  # only inf and nan spell an n
            row = row.replace("inf", "Infinity").replace("nan", "NaN")
    else:
        return json.dumps(list(items), indent=2).replace("\n", "\n      ")
    return f"[\n        {row}\n      ]"


def write_report(result: PipelineResult, stem: str | Path) -> list[Path]:
    """Write the two metric curves as CSV next to the given stem."""
    if result.report is None:
        raise InputError("run had no ground truth, no report to write")
    return write_curves(result.report, stem)
