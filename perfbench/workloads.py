"""Benchmark workloads: synthetic corpora that each stress one pipeline stage.

Every workload is built with the package's own `generate_synthetic` and
`save_similarity` from a seed, then reshaped on the benchmark side (distance
transform, top-k thinning, extra noise fragments) so that one stage
dominates the run:

* dense-corpus: the a7 scenario written as dense distance files; parsing
  the triplet files dominates, and it is the only workload that runs the
  distance-to-affinity kernel.
* big-topics: four 600-page topics; the Poisson deconvolution over millions
  of covered pairs dominates, and refine works on topics of 600+ members.
* noise-flood: 3000 extra tiny noise fragments survive bundling as separate
  coarse topics, so the quadratic NMS scan dominates and refine pays its
  fixed per-topic cost thousands of times.

Each has a toy-size smoke variant (n = 200) that exercises the same code
paths in seconds.

Run as a script to generate one workload's four input files into a
directory; it prints one JSON line with the generation and write times:

    PYTHONPATH=src python3 perfbench/workloads.py dense-corpus 0 OUT_DIR [--smoke]
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hotmine.candidates import TopicCandidate, save_candidates
from hotmine.graph import SimilarityMatrix, save_similarity
from hotmine.synth import SyntheticScenario, generate_synthetic

INPUT_FILES = ("vis.sim", "txt.sim", "candidates.txt", "truth.txt")


@dataclass(frozen=True)
class Workload:
    """One generated corpus and the `hotmine run` flags it is run with.

    distance: write every nonzero similarity s as the distance 1 - s and
    run with the kernel on; otherwise the kernel is off.
    top_k: keep only each page's top_k strongest similarities per modality
    (symmetrized by union); None keeps the dense files.
    extra_fragments: count of extra candidates of 3 to 8 noise pages each,
    drawn from the seed.
    """

    name: str
    scenario: dict
    distance: bool = False
    top_k: int | None = None
    extra_fragments: int = 0

    @property
    def config(self) -> dict:
        """PipelineConfig keys that differ from the defaults."""
        return {"tau": 0.2, "apply_kernel": self.distance}

    def cli_flags(self) -> list[str]:
        return ["--tau", "0.2"] + ([] if self.distance else ["--no-apply-kernel"])


def _shape(n, topic_sizes, fragments, drop, noise, clusters) -> dict:
    return dict(
        n_webpages=n,
        topic_sizes=topic_sizes,
        fragments_per_topic=fragments,
        fragment_drop=drop,
        fragment_noise=noise,
        noise_cluster_size=12,
        noise_cluster_count=clusters,
    )


WORKLOADS = {
    "dense-corpus": Workload(
        "dense-corpus", _shape(1500, (20, 20, 20), 3, 4, 14, 20), distance=True
    ),
    "big-topics": Workload(
        "big-topics", _shape(5000, (600,) * 4, 6, 60, 10, 20), top_k=30
    ),
    "noise-flood": Workload(
        "noise-flood",
        _shape(3000, (20,) * 8, 3, 4, 14, 40),
        top_k=30,
        extra_fragments=3000,
    ),
}

SMOKE = {
    "dense-corpus": Workload(
        "dense-corpus", _shape(200, (20, 20), 3, 4, 6, 4), distance=True
    ),
    "big-topics": Workload(
        "big-topics", _shape(200, (40, 40), 6, 4, 2, 4), top_k=30
    ),
    "noise-flood": Workload(
        "noise-flood", _shape(200, (20, 20), 3, 4, 6, 4), top_k=30, extra_fragments=100
    ),
}


def _top_k_union(values, k: int):
    """Keep each row's k largest entries, symmetrized by union."""
    keep = np.zeros(values.shape, dtype=bool)
    top = np.argpartition(-values, k - 1, axis=1)[:, :k]
    np.put_along_axis(keep, top, True, axis=1)
    keep |= keep.T
    return np.where(keep, values, 0.0)


def generate(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write the workload's four input files; return generation timings."""
    scenario = SyntheticScenario(**workload.scenario)
    start = time.perf_counter()
    data = generate_synthetic(scenario, seed=seed)
    generate_s = time.perf_counter() - start

    candidates = list(data.candidates)
    if workload.extra_fragments:
        # A stream of its own, so the planted part stays what
        # generate_synthetic makes from the same seed.
        rng = np.random.default_rng([seed, 1])
        pool = np.arange(scenario.planted_total, scenario.n_webpages)
        for size in rng.integers(3, 9, size=workload.extra_fragments):
            members = rng.choice(pool, size=int(size), replace=False)
            candidates.append(TopicCandidate(frozenset(members.tolist())))

    matrices = []
    for side in (data.w_vis, data.w_txt):
        values = side.values
        if workload.top_k is not None:
            values = _top_k_union(values, workload.top_k)
        if workload.distance:
            values = np.where(values > 0.0, 1.0 - values, 0.0)
        matrices.append(SimilarityMatrix(values))

    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    for matrix, name in zip(matrices, INPUT_FILES[:2]):
        save_similarity(matrix, out_dir / name)
    write_s = time.perf_counter() - start
    save_candidates(candidates, out_dir / "candidates.txt")
    save_candidates(data.truth.topics, out_dir / "truth.txt")
    return {"generate_s": generate_s, "write_s": write_s}


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4) or (len(argv) == 4 and argv[3] != "--smoke"):
        print("usage: workloads.py NAME SEED OUT_DIR [--smoke]", file=sys.stderr)
        return 1
    name, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    table = SMOKE if len(argv) == 4 else WORKLOADS
    print(json.dumps(generate(table[name], seed, out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
