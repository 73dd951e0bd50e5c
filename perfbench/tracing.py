"""Traced pass: the `hotmine run` pipeline replayed in-process with spans.

`traced_run` calls the same public functions `hotmine.cli._cmd_run` reaches
through `run_br_from_matrices`, in the same order and with the same
arguments, and records a span around each call. It writes its outputs with
the package's own writers, so the benchmark can require them to be
byte-identical to the CLI's: that is what makes the per-layer numbers
describe the computation the end-to-end numbers time.

Spans are kept in memory; `Tracer.dump` writes them out when the run ends.
Per-topic spans nest under the refine span, so a span's self time is its
duration minus the time its children cover.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from hotmine.bundling import bundle, nms_dedupe
from hotmine.candidates import load_candidates
from hotmine.evaluation import evaluate, load_ground_truth
from hotmine.graph import gaussian_affinity, knn_sparsify, load_similarity, mix_graphs
from hotmine.interestingness import pagerank, reconstructed_similarity, transition_matrix
from hotmine.pipeline import (
    DetectedTopic,
    PipelineConfig,
    PipelineResult,
    write_detections,
    write_provenance,
    write_report,
)
from hotmine.ranking import apply_weights, estimate_weights, iterate_weights, rank
from hotmine.refining import apply_cut, dissimilarity, greedy_select

# Span names whose summed durations are reported as `<name>_s`.
TIMED_SPANS = (
    "graph.load",
    "graph.kernel",
    "graph.knn",
    "graph.mix",
    "candidates.load",
    "ranking.fit",
    "ranking.rank",
    "bundling.bundle",
    "bundling.nms",
    "interestingness.similarity",
    "interestingness.pagerank",
    "refining.dissimilarity",
    "refining.greedy",
    "evaluation.evaluate",
    "pipeline.write",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """In-memory span recorder; spans nest by the order they are opened."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else None)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus child durations."""
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
            if s.parent is not None:
                parent = self.spans[s.parent].name
                out[parent] -= s.end - s.start
        return out

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _refine_topic(tracer, topic, rank_pos, candidates, config, layer) -> DetectedTopic:
    """`hotmine.pipeline._refine_topic`, with a span around each call."""
    if len(topic.members) <= 2:
        layer["refining.bypassed"] += 1
        return DetectedTopic(
            rank=rank_pos,
            members=topic.members,
            coarse_members=topic.members,
            sources=topic.sources,
            bypassed=True,
        )
    layer["interestingness.topics"] += 1
    layer["interestingness.max_members"] = max(
        layer["interestingness.max_members"], len(topic.members)
    )
    with tracer.span("interestingness.similarity"):
        tg = reconstructed_similarity(topic, candidates)
        p = transition_matrix(tg)
    with tracer.span("interestingness.pagerank"):
        scores = pagerank(p, alpha=config.alpha, tol=config.pr_tol, max_iter=config.pr_max_iter)
    layer["interestingness.pagerank_iterations"] += scores.iterations
    with tracer.span("refining.dissimilarity"):
        d = dissimilarity(tg, bandwidth=config.sigma_dissim)
    with tracer.span("refining.greedy"):
        refined = apply_cut(greedy_select(scores.pi, d, lam=config.lam), margin=config.margin)
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


def _nms_pairs(coarse, kept) -> int:
    """Comparisons the NMS scan may make: per topic, the count kept so far."""
    pairs, next_kept = 0, 0
    for topic in coarse:
        pairs += next_kept
        if next_kept < len(kept) and kept[next_kept] == topic:
            next_kept += 1
    return pairs


def _covered_counts(graph, candidates) -> tuple[int, int]:
    """Distinct pairs inside some candidate, and the graph edges among them."""
    sizes = [c.size for c in candidates]
    rows = np.repeat(np.arange(len(candidates)), sizes)
    cols = np.concatenate([c.sorted_members() for c in candidates])
    incidence = sp.csr_matrix(
        (np.ones(len(cols)), (rows, cols)), shape=(len(candidates), graph.n)
    )
    covered = sp.triu(incidence.T @ incidence, k=1).tocsr()
    edges = sp.triu(graph.adjacency, k=1).tocsr()
    return int(covered.nnz), int(edges.multiply(covered).count_nonzero())


def traced_run(
    config: PipelineConfig, inputs: dict[str, Path], prefix: Path, tracer: Tracer
) -> dict[str, float]:
    """Run the pipeline with spans; write outputs next to prefix.

    Returns the per-layer layer and memory readings; timings stay in the
    tracer.
    """
    layer = {
        "refining.bypassed": 0,
        "interestingness.topics": 0,
        "interestingness.max_members": 0,
        "interestingness.pagerank_iterations": 0,
    }
    with tracer.span("run"):
        with tracer.span("graph.load"):
            w_vis = load_similarity(inputs["vis"])
        with tracer.span("graph.load"):
            w_txt = load_similarity(inputs["txt"])
        with tracer.span("candidates.load"):
            cands = load_candidates(inputs["candidates"], n=w_vis.n)
            truth = load_ground_truth(inputs["truth"], n=w_vis.n)

        sides = []
        for matrix, k, kind in ((w_vis, config.knn_vis, "vis"), (w_txt, config.knn_txt, "txt")):
            if config.apply_kernel:
                with tracer.span("graph.kernel"):
                    matrix = gaussian_affinity(matrix, sigma2=config.sigma2_affinity)
            with tracer.span("graph.knn"):
                sides.append(knn_sparsify(matrix, min(k, matrix.n - 1), kind=kind))
        with tracer.span("graph.mix"):
            graph = mix_graphs(sides[0], sides[1])
        layer["graph.rss_mb"] = _maxrss_mib()

        with tracer.span("ranking.fit"):
            weights = estimate_weights(
                graph, cands, max_iter=config.pd_max_iter, tol=config.pd_tol
            )
        with tracer.span("ranking.rank"):
            apply_weights(cands, weights)
            ranked = rank(cands)
        layer["ranking.rss_mb"] = _maxrss_mib()

        with tracer.span("bundling.bundle"):
            bundled = bundle(ranked, window=config.window, tau=config.tau)
        with tracer.span("bundling.nms"):
            coarse = nms_dedupe(bundled, overlap_thresh=config.nms_thresh)

        with tracer.span("refining.refine"):
            detections = []
            for pos, topic in enumerate(coarse):
                with tracer.span("refining.topic"):
                    detections.append(_refine_topic(tracer, topic, pos, cands, config, layer))
        layer["refining.rss_mb"] = _maxrss_mib()

        with tracer.span("evaluation.evaluate"):
            report = evaluate(detections, truth)
        result = PipelineResult(
            config=config, stage="refine", detections=detections, report=report
        )
        with tracer.span("pipeline.write"):
            write_detections(result, prefix.with_name(prefix.name + "_topics.txt"))
            write_provenance(result, prefix.with_name(prefix.name + "_provenance.json"))
            write_report(result, prefix)

    # Outside the run span: a second fit, drained step by step, counts the
    # iterations and times the first update (coverage build plus one
    # multiplicative step). The counts describe the timed fit only if it
    # ends where estimate_weights ended; the caller checks that.
    iterations, start = 0, time.perf_counter()
    for drained in iterate_weights(graph, cands, max_iter=config.pd_max_iter, tol=config.pd_tol):
        if iterations == 0:
            layer["ranking.first_update_s"] = time.perf_counter() - start
        iterations += 1
    layer["ranking.same_weights"] = bool(np.array_equal(drained, weights))

    pairs, edges = _covered_counts(graph, cands)
    layer.update(
        {
            "graph.edges": graph.edge_count,
            "candidates.count": len(cands),
            "candidates.members": sum(c.size for c in cands),
            "ranking.iterations": iterations,
            "ranking.capped": int(iterations >= config.pd_max_iter),
            "ranking.covered_pairs": pairs,
            "ranking.covered_edges": edges,
            "ranking.edge_fraction": edges / pairs,
            "bundling.coarse": len(bundled),
            "bundling.kept": len(coarse),
            "bundling.nms_pairs": _nms_pairs(bundled, coarse),
        }
    )
    return layer
