"""End-to-end pipeline: config plumbing, staging, recovery, determinism."""

import hashlib
import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hotmine import pipeline
from hotmine.candidates import TopicCandidate, save_candidates
from hotmine.cli import main
from hotmine.errors import InputError
from hotmine.graph import (
    SimilarityMatrix, gaussian_affinity, knn_sparsify, mix_graphs, save_similarity
)
from hotmine.pipeline import (
    STAGES,
    DetectedTopic,
    PipelineConfig,
    PipelineResult,
    build_mixed_graph,
    run_br,
    write_detections,
    write_provenance,
    write_report,
)
from hotmine.synth import SyntheticScenario, generate_synthetic


def two_topic_case():
    """Shattered two-topic corpus with heavy noise and decoy clusters."""
    scenario = SyntheticScenario(
        n_webpages=200,
        topic_sizes=(18, 18),
        fragments_per_topic=3,
        fragment_drop=3,
        fragment_noise=6,
        noise_cluster_size=10,
        noise_cluster_count=4,
    )
    data = generate_synthetic(scenario, seed=1)
    config = PipelineConfig(apply_kernel=False, tau=0.2, knn_txt=40, knn_vis=10)
    return data, config


def passthrough_case():
    """Clean partition fragments, window 0: bundling must change nothing."""
    scenario = SyntheticScenario(
        n_webpages=60, topic_sizes=(12, 12), fragments_per_topic=3
    )
    data = generate_synthetic(scenario, seed=2)
    config = PipelineConfig(apply_kernel=False, window=0, knn_txt=20, knn_vis=8)
    return data, config


# ------------------------------------------------------------- config


def test_config_defaults():
    config = PipelineConfig()
    assert config.knn_txt == 100
    assert config.knn_vis == 10
    assert config.sigma2_affinity is None
    assert config.apply_kernel is True
    assert config.cascade_thresholds == (0.1, 0.5, 0.9)
    assert config.window == 100
    assert config.tau == 0.4
    assert config.nms_thresh == 0.4
    assert config.alpha == 0.9
    assert config.sigma_dissim == 10.0
    assert config.lam == 2.0
    assert config.margin == 0.1
    assert config.pd_max_iter == 500
    assert config.pr_max_iter == 200
    assert config.seed == 0


@pytest.mark.parametrize("kwargs,msg", [
    (dict(knn_txt=0), "knn_txt"),
    # ids pinned to the earlier wording, so the test names do not move
    pytest.param(dict(knn_vis=-1), "^knn_vis must be >= 1, got -1$", id="kwargs1-knn_txt and knn_vis"),
    (dict(window=-2), "window"),
    (dict(tau=0.0), "tau"),
    (dict(tau=1.5), "tau"),
    (dict(nms_thresh=1.0), "nms_thresh"),
    (dict(alpha=1.0), "alpha"),
    (dict(sigma_dissim=0.0), "positive"),
    (dict(lam=-1.0), "positive"),
    (dict(margin=-0.5), "margin"),
    pytest.param(dict(pd_max_iter=0), "^pd_max_iter must be >= 1, got 0$", id="kwargs10-iteration caps"),
    pytest.param(dict(pr_max_iter=0), "^pr_max_iter must be >= 1, got 0$", id="kwargs11-iteration caps"),
    (dict(pd_tol=0.0), "tolerances"),
    (dict(pr_tol=-1e-9), "tolerances"),
    (dict(lam=float("nan")), "positive"),
    (dict(lam=float("inf")), "positive"),
    (dict(sigma_dissim=float("nan")), "positive"),
    (dict(sigma_dissim=float("inf")), "positive"),
    (dict(margin=float("nan")), "margin"),
    (dict(margin=float("inf")), "margin"),
    (dict(pd_tol=float("nan")), "tolerances"),
    (dict(pr_tol=float("inf")), "tolerances"),
    (dict(sigma2_affinity=float("nan")), "sigma2_affinity"),
    (dict(sigma2_affinity=float("-inf")), "sigma2_affinity"),
    (dict(sigma2_affinity=0.0), "^sigma2_affinity must be positive and finite, got 0.0$"),
    (dict(sigma2_affinity=-1), "^sigma2_affinity must be positive and finite, got -1$"),
    (dict(cascade_thresholds=(0.2, float("nan"))), r"^thresholds must lie strictly inside \(0, 1\)$"),
    (dict(cascade_thresholds=(0.2, float("inf"))), r"^thresholds must lie strictly inside \(0, 1\)$"),
    (dict(cascade_thresholds=(1.0,)), r"^thresholds must lie strictly inside \(0, 1\)$"),
    (dict(cascade_thresholds=(0.5, 0.2)), "^thresholds must be strictly increasing$"),
    (dict(cascade_thresholds=(0.5, 0.5)), "^thresholds must be strictly increasing$"),
    (dict(cascade_thresholds=()), "^at least one threshold is required$"),
    # the JSON type of each field, checked before any range, as in a file
    (dict(window=2.5), "^config key window must be an int, got 2.5$"),
    (dict(tau="0.2"), '^config key tau must be a number, got "0.2"$'),
    (dict(tau=True), "^config key tau must be a number, got true$"),
    (dict(apply_kernel="no"), '^config key apply_kernel must be a bool, got "no"$'),
    (dict(knn_txt=True), "^config key knn_txt must be an int, got true$"),
    (dict(knn_vis=np.int64(5)), "^config key knn_vis must be an int"),  # json.dumps refuses it
    (dict(knn_txt=0, lam="x"), '^config key lam must be a number, got "x"$'),
    (dict(seed=-1), "^seed must be >= 0, got -1$"),
])
def test_config_validation(kwargs, msg):
    with pytest.raises(InputError, match=msg):
        PipelineConfig(**kwargs)


@pytest.mark.parametrize("build", [
    lambda data: PipelineConfig(**data),
    PipelineConfig.from_dict,  # a config file
    lambda data: replace(PipelineConfig(), **data),  # the CLI's flags
], ids=["kwargs", "file", "replace"])
@pytest.mark.parametrize("kwargs,msg", [
    (dict(window=2.5), "config key window must be an int, got 2.5"),
    (dict(cascade_thresholds=[0.2, float("nan")]), "thresholds must lie strictly inside (0, 1)"),
    (dict(sigma2_affinity=-1.0), "sigma2_affinity must be positive and finite, got -1.0"),
    (dict(tau=0), "tau must lie in (0, 1], got 0"),
])
def test_every_way_of_building_a_config_takes_the_same_checks(build, kwargs, msg):
    with pytest.raises(InputError) as exc:
        build(kwargs)
    assert str(exc.value) == msg


def test_config_dict_round_trip():
    config = PipelineConfig(tau=0.25, window=7, cascade_thresholds=(0.2, 0.6))
    data = config.to_dict()
    assert data["cascade_thresholds"] == [0.2, 0.6]
    assert json.loads(json.dumps(data)) == data
    assert PipelineConfig.from_dict(data) == config


def test_config_rejects_unknown_keys():
    with pytest.raises(InputError, match="unknown config keys"):
        PipelineConfig.from_dict({"tau": 0.3, "bogus": 1})


def test_readme_config_table_matches_pipeline_config():
    # each row of the README "Configuration" table names one or more keys in
    # backticks, and their defaults as a comma-separated JSON list
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys, defaults = [], []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            keys += re.findall(r"`(\w+)`", cells[0])
            defaults += json.loads("[" + cells[1].replace("`", "") + "]")
            assert len(keys) == len(defaults), line
    assert sorted(keys) == sorted(f.name for f in fields(PipelineConfig))
    assert dict(zip(keys, defaults)) == PipelineConfig().to_dict()


def test_config_from_dict_keeps_values_as_given():
    # ints pass for floats and null for the optional bandwidth; nothing is
    # converted, so provenance echoes the file
    data = {"tau": 1, "sigma2_affinity": None, "cascade_thresholds": [0.25, 0.5]}
    config = PipelineConfig.from_dict(data)
    assert type(config.tau) is int and config.sigma2_affinity is None
    assert PipelineConfig.from_dict({"sigma2_affinity": 2}).sigma2_affinity == 2


def test_build_mixed_graph_clamps_neighbor_counts():
    scenario = SyntheticScenario(n_webpages=6, topic_sizes=(3,))
    data = generate_synthetic(scenario, seed=0)
    # defaults ask for 100 text neighbors; 6 pages only have 5
    graph = build_mixed_graph(PipelineConfig(apply_kernel=False), data.w_vis, data.w_txt)
    assert graph.n == 6
    assert graph.edge_count <= 15


def random_similarity(rng, n):
    """A symmetric n x n matrix with about 60% of its pairs stored, pair
    (0, 1) among them: the kernel's data-driven bandwidth needs one."""
    upper = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.6), 1)
    upper[0, 1] = max(upper[0, 1], 0.5)
    return SimilarityMatrix(upper + upper.T)


def csr_bytes(graph):
    return graph.n, graph.kind, [(a.dtype.str, a.tobytes()) for a in (graph.indptr, graph.indices, graph.data)]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    sigma2=st.one_of(st.none(), st.floats(0.01, 4.0)),
    knn_vis=st.integers(1, 15),
    knn_txt=st.integers(1, 15),
)
@example(n=9, seed=0, sigma2=None, knn_vis=3, knn_txt=20)
@example(n=9, seed=1, sigma2=0.25, knn_vis=20, knn_txt=3)
def test_build_mixed_graph_kernel_branch_is_kernel_then_knn_then_mix(n, seed, sigma2, knn_vis, knn_txt):
    rng = np.random.default_rng(seed)
    w_vis, w_txt = random_similarity(rng, n), random_similarity(rng, n)
    config = PipelineConfig(knn_vis=knn_vis, knn_txt=knn_txt, sigma2_affinity=sigma2)
    assert config.apply_kernel  # the default
    sides = [
        knn_sparsify(gaussian_affinity(w, sigma2), min(k, n - 1), kind)
        for w, k, kind in ((w_vis, knn_vis, "vis"), (w_txt, knn_txt, "txt"))
    ]
    assert csr_bytes(build_mixed_graph(config, w_vis, w_txt)) == csr_bytes(mix_graphs(*sides))


def test_build_mixed_graph_refuses_sizes_that_disagree_before_any_graph_work(monkeypatch):
    def no_graph_work(*args, **kwargs):
        raise AssertionError("graph work on matrices of different sizes")

    monkeypatch.setattr(pipeline, "gaussian_affinity", no_graph_work)
    monkeypatch.setattr(pipeline, "knn_sparsify", no_graph_work)
    big = generate_synthetic(SyntheticScenario(n_webpages=60, topic_sizes=(10,)), seed=0).w_vis
    small = generate_synthetic(SyntheticScenario(n_webpages=3, topic_sizes=(3,)), seed=0).w_txt
    for w_vis, w_txt, sizes in ((big, small, "60 vs 3"), (small, big, "3 vs 60")):
        with pytest.raises(InputError, match=f"similarity matrices disagree on size: {sizes}$"):
            build_mixed_graph(PipelineConfig(), w_vis, w_txt)


@pytest.mark.parametrize("apply_kernel", [True, False])
def test_build_mixed_graph_refuses_a_one_page_corpus_before_any_graph_work(monkeypatch, apply_kernel):
    # the clamped neighbor count would be 0, a k the caller never passed
    def no_graph_work(*args, **kwargs):
        raise AssertionError("graph work on a one-page corpus")

    monkeypatch.setattr(pipeline, "gaussian_affinity", no_graph_work)
    monkeypatch.setattr(pipeline, "knn_sparsify", no_graph_work)
    one = SimilarityMatrix(np.zeros((1, 1)))
    with pytest.raises(InputError, match="^a graph needs at least 2 pages, got n=1$"):
        build_mixed_graph(PipelineConfig(apply_kernel=apply_kernel), one, one)


# ------------------------------------------------------------- staging


def test_window_zero_passes_fragments_through():
    data, config = passthrough_case()
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    result = run_br(config, graph, list(data.candidates))
    assert result.stage == "refine"
    assert len(result.detections) == 6
    fragment_sets = {c.members for c in data.candidates}
    for det in result.detections:
        assert det.coarse_members in fragment_sets
        assert det.members <= det.coarse_members
        assert len(det.sources) == 1
        assert len(det.coarse_members) == 4
    assert [det.rank for det in result.detections] == list(range(6))


def test_stop_after_controls_depth():
    data, config = passthrough_case()
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    cands = list(data.candidates)

    ranked = run_br(config, graph, cands, stop_after="rank")
    assert ranked.stage == "rank"
    assert len(ranked.detections) == len(cands)
    assert all(det.bypassed for det in ranked.detections)
    assert all(det.gains is None and det.pi is None for det in ranked.detections)

    bundled = run_br(config, graph, cands, stop_after="bundle")
    assert bundled.stage == "bundle"
    assert all(det.bypassed for det in bundled.detections)

    refined = run_br(config, graph, cands, stop_after="refine")
    assert any(not det.bypassed for det in refined.detections)
    for det in refined.detections:
        if not det.bypassed:
            assert det.gains is not None and det.pi is not None
            assert det.cut_index == len(det.members) - 1
            assert len(det.pi) == len(det.coarse_members)


def test_stop_after_rejects_unknown_stage():
    data, config = passthrough_case()
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    with pytest.raises(InputError, match="stop_after"):
        run_br(config, graph, list(data.candidates), stop_after="polish")


def test_tiny_coarse_topics_bypass_refinement():
    data, config = passthrough_case()
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    extra = list(data.candidates) + [TopicCandidate({58, 59})]
    result = run_br(config, graph, extra)
    two_page = [d for d in result.detections if d.coarse_members == {58, 59}]
    assert len(two_page) == 1
    assert two_page[0].bypassed
    assert two_page[0].members == frozenset({58, 59})
    assert two_page[0].pi is None


def test_rank_stage_orders_by_interestingness():
    data, config = passthrough_case()
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    cands = list(data.candidates)
    result = run_br(config, graph, cands, stop_after="rank")
    scores = [c.weight * c.size for c in cands]
    expected = sorted(range(len(cands)), key=lambda k: (-scores[k], k))
    assert [det.sources[0] for det in result.detections] == expected


# ------------------------------------------------------------- recovery


def test_two_planted_topics_recovered():
    data, config = two_topic_case()
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    result = run_br(config, graph, list(data.candidates), truth=data.truth)
    assert result.report is not None
    detections = [det.members for det in result.detections]
    for topic in data.truth.topics:
        best = max(
            2 * len(d & topic) / (len(d) + len(topic)) for d in detections
        )
        assert best >= 0.9
    assert result.report.accuracy_at(5) == 1.0


def test_refined_members_subset_of_coarse():
    data, config = two_topic_case()
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    result = run_br(config, graph, list(data.candidates))
    for det in result.detections:
        assert det.members
        assert det.members <= det.coarse_members


def test_rerun_is_bit_identical(tmp_path):
    data, config = two_topic_case()

    def run_once(tag):
        graph = build_mixed_graph(config, data.w_vis, data.w_txt)
        result = run_br(config, graph, list(data.candidates))
        topics = tmp_path / f"{tag}_topics.txt"
        prov = tmp_path / f"{tag}_provenance.json"
        write_detections(result, topics)
        write_provenance(result, prov)
        return topics.read_bytes(), prov.read_bytes()

    assert run_once("a") == run_once("b")


# sha256 of write_provenance for the rank-, bundle- and refine-stage runs of
# two_topic_case. The prefix stages share the refine path's bypass, so these
# bytes must not move when that path changes. Recorded on x86-64 Linux with
# numpy 2.4 and scipy 1.17; another BLAS or CPU may round the refine floats
# differently, so a mismatch elsewhere needs a look before a re-record.
PINNED_PROVENANCE = {
    "rank": "77cd25be5065385c6d354ecafcd0937048dc8335f1c9e719d490b89e2db2e85a",
    "bundle": "4474a2bf8d971f095d942af7a656a3a346b2747eb346c8043559f6276e2ace59",
    "refine": "77344944fea3291ce8e42ce5c7191deccf9ad6e0f74df25637a1c9464fe9dfa6",
}
# sha256 of the file `hotmine candidates` writes from the corpus fixture's
# mixed graph, at the default threshold ladder and at a 4-step ladder where
# components repeat; recorded with scipy's connected_components, before the
# numpy labelling replaced it.
PINNED_CANDIDATES = {
    "default": "6f7f7aac0f3b5cedeab7a61d7ba72e088436f9af62f5acee4210d65440a0626c",
    "0.02,0.04,0.06,0.08": "b3703777ea1c7e07f0df28c420a27772331f3e72a9b16eb95fe6cd1197d526bd",
}
# sha256 of write_detections for the refine-stage run of two_topic_case, and
# of save_similarity for both matrices of passthrough_case's corpus; same
# platform as above.
PINNED_REFINE_TOPICS = "b4948dacb6fd5f3dc7ef3122a7594156570a97cea0fb08f4e94b3dd0a76d0260"
PINNED_SIMILARITY = {
    "vis": "e210d550d66086620489053103183d487a3b8410b7ed45e6e228743fc8f7d282",
    "txt": "2a06455d096319e92f2d52d21c876f52be1a7d01172845e8ca71ace61419b7c9",
}
# sha256 of the four files `hotmine run` writes for many_small_topics_case;
# recorded before refine, evaluation and provenance paid their per-topic
# costs once; same platform as above.
PINNED_MANY_SMALL_TOPICS = {
    "_topics.txt": "336f9b380c08d21e3134c76c05b42ac7fc2db7340c2f87a18694dc97d22cf734",
    "_provenance.json": "854c3c61e42cc62ea8b29e144fb84ff2b6294120c1ecf24365f0a2e4183cf3de",
    "_top10_f1.csv": "8fd295f4eefdc9f05703825be054d9bd7dc96b9490de5c123347d8eb570a49e9",
    "_accuracy.csv": "eaded2d4fe1e596adb8125abbd4ae86619959fa09b2cb33700365bef990f8337",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("stage", ["rank", "bundle"])
def test_prefix_stage_provenance_is_pinned(tmp_path, stage):
    data, config = two_topic_case()
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    result = run_br(config, graph, list(data.candidates), stop_after=stage)
    path = tmp_path / "provenance.json"
    write_provenance(result, path)
    assert sha256(path) == PINNED_PROVENANCE[stage]


def test_refine_stage_outputs_are_pinned(tmp_path):
    data, config = two_topic_case()
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    result = run_br(config, graph, list(data.candidates))
    write_detections(result, tmp_path / "topics.txt")
    write_provenance(result, tmp_path / "provenance.json")
    assert sha256(tmp_path / "topics.txt") == PINNED_REFINE_TOPICS
    assert sha256(tmp_path / "provenance.json") == PINNED_PROVENANCE["refine"]


@pytest.mark.parametrize("ladder", sorted(PINNED_CANDIDATES))
def test_cascade_candidate_bytes_are_pinned(corpus, tmp_path, ladder):
    graph, out = tmp_path / "mixed.graph", tmp_path / "candidates.txt"
    sides = ["--vis", str(corpus / "vis.sim"), "--txt", str(corpus / "txt.sim")]
    flags = ["--no-apply-kernel", "--knn-txt", "20", "--knn-vis", "8", "--tau", "0.2"]
    assert main(["graph", *sides, "--out", str(graph), *flags]) == 0
    ladder_flags = [] if ladder == "default" else ["--cascade-thresholds", ladder]
    assert main(["candidates", "--graph", str(graph), "--out", str(out), *ladder_flags]) == 0
    assert sha256(out) == PINNED_CANDIDATES[ladder]


def many_small_topics_case(out):
    """A toy noise flood: two shattered planted topics in 200 pages, and 100
    extra fragments of 3 to 8 noise pages each, which mostly survive
    bundling as topics of their own. Writes the four input files."""
    scenario = SyntheticScenario(
        n_webpages=200, topic_sizes=(20, 20), fragments_per_topic=3, fragment_drop=4,
        fragment_noise=6, noise_cluster_size=12, noise_cluster_count=4,
    )
    data = generate_synthetic(scenario, seed=3)
    rng = np.random.default_rng([3, 1])
    pool = np.arange(scenario.planted_total, scenario.n_webpages)
    extra = [
        TopicCandidate(frozenset(rng.choice(pool, size=int(size), replace=False).tolist()))
        for size in rng.integers(3, 9, size=100)
    ]
    out.mkdir()
    save_similarity(data.w_vis, out / "vis.sim")
    save_similarity(data.w_txt, out / "txt.sim")
    save_candidates(list(data.candidates) + extra, out / "candidates.txt")
    save_candidates(data.truth.topics, out / "truth.txt")
    return out


def test_many_small_topics_run_is_pinned(tmp_path, capsys):
    inputs = many_small_topics_case(tmp_path / "inputs")
    prefix = tmp_path / "run"
    assert main([
        "run", "--vis", str(inputs / "vis.sim"), "--txt", str(inputs / "txt.sim"),
        "--candidates", str(inputs / "candidates.txt"), "--truth", str(inputs / "truth.txt"),
        "--out-prefix", str(prefix), "--tau", "0.2", "--no-apply-kernel",
    ]) == 0
    # most detections are small refined topics, in stacks of six sizes
    detections = json.loads((tmp_path / "run_provenance.json").read_text())["detections"]
    small = [d for d in detections if 3 <= len(d["coarse_members"]) <= 8 and not d["bypassed"]]
    assert len(small) > len(detections) / 2
    for suffix, digest in PINNED_MANY_SMALL_TOPICS.items():
        assert sha256(tmp_path / f"run{suffix}") == digest, suffix


def test_synthetic_similarity_bytes_are_pinned(tmp_path):
    data, _ = passthrough_case()
    for side, matrix in (("vis", data.w_vis), ("txt", data.w_txt)):
        save_similarity(matrix, tmp_path / f"{side}.sim")
        assert sha256(tmp_path / f"{side}.sim") == PINNED_SIMILARITY[side]


# ------------------------------------------------------------- outputs


def test_write_detections_header_and_rows(tmp_path):
    data, config = passthrough_case()
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    result = run_br(config, graph, list(data.candidates))
    path = tmp_path / "topics.txt"
    write_detections(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# stage: refine"
    assert len(lines) == 1 + len(result.detections)
    first = frozenset(int(tok) for tok in lines[1].split())
    assert first == result.detections[0].members


def provenance_dict(result):
    """The record write_provenance writes: the config, the stage and one dict
    of DetectedTopic fields per detection, without wall-clock timings."""
    return {
        "config": result.config.to_dict(),
        "stage": result.stage,
        "detections": [
            {f.name: _jsonable(getattr(det, f.name)) for f in fields(det)}
            for det in result.detections
        ],
    }


def _jsonable(value):
    """Member sets as sorted lists, tuples as lists, anything else as is."""
    if isinstance(value, frozenset):
        return sorted(value)
    return list(value) if isinstance(value, tuple) else value


def reference_provenance(result):
    """The bytes of the record through json.dumps."""
    return (json.dumps(provenance_dict(result), indent=2, sort_keys=True) + "\n").encode()


def test_provenance_is_json_with_config(tmp_path):
    data, config = passthrough_case()
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    result = run_br(config, graph, list(data.candidates))
    path = tmp_path / "provenance.json"
    write_provenance(result, path)
    loaded = json.loads(path.read_text())
    assert PipelineConfig.from_dict(loaded["config"]) == config
    assert loaded["stage"] == "refine"
    assert len(loaded["detections"]) == len(result.detections)
    assert "timings" not in loaded
    assert provenance_dict(result) == loaded


@pytest.mark.parametrize("stage", STAGES)
def test_provenance_bytes_match_json_dumps_at_every_stage(tmp_path, stage):
    data, config = two_topic_case()
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    result = run_br(config, graph, list(data.candidates), stop_after=stage)
    write_provenance(result, tmp_path / "provenance.json")
    assert (tmp_path / "provenance.json").read_bytes() == reference_provenance(result)


pages = st.frozensets(st.integers(0, 10**6))
indices = st.lists(st.integers(-5, 10**6), max_size=4).map(tuple)
traces = st.one_of(st.none(), st.lists(st.floats(), max_size=4).map(tuple))
detections = st.builds(
    DetectedTopic,
    rank=st.integers(0, 10**4),
    members=pages,
    coarse_members=pages,
    sources=indices,
    bypassed=st.booleans(),
    pi=traces,
    selection_order=st.one_of(st.none(), indices),
    gains=traces,
    deltas=traces,
    cut_index=st.one_of(st.none(), st.integers(-1, 10**4)),
)
configs = st.builds(
    PipelineConfig,
    window=st.integers(0, 500),
    tau=st.one_of(st.just(1), st.floats(0.0, 1.0, exclude_min=True)),
    sigma2_affinity=st.one_of(st.none(), st.integers(1, 9), st.floats(1e-300, 1e300)),
    apply_kernel=st.booleans(),
    cascade_thresholds=st.lists(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=3, unique=True
    ).map(lambda ladder: tuple(sorted(ladder))),
)
BYPASSED = DetectedTopic(0, frozenset({4, 2}), frozenset({4, 2, 9}), (3, 1), True)
NONFINITE = replace(
    BYPASSED, bypassed=False, pi=(float("nan"), 0.5), selection_order=(), gains=(float("inf"),),
    deltas=(float("-inf"), -0.0, 1e-310), cut_index=0,
)


@settings(max_examples=300, deadline=None)
@given(configs, st.sampled_from(STAGES), st.lists(detections, max_size=5))
@example(PipelineConfig(), "rank", [])
@example(PipelineConfig(cascade_thresholds=(0.5,)), "bundle", [BYPASSED])
@example(PipelineConfig(sigma2_affinity=2.5), "refine", [NONFINITE, BYPASSED])
@example(PipelineConfig(), "refine", [replace(NONFINITE, pi=(1, 0.5, True), gains=(2,), deltas=(0.5, -1))])
def test_provenance_bytes_match_json_dumps(tmp_path_factory, config, stage, dets):
    result = PipelineResult(config, stage, dets, None)
    path = tmp_path_factory.mktemp("provenance") / "provenance.json"
    write_provenance(result, path)
    assert path.read_bytes() == reference_provenance(result)


@pytest.mark.parametrize("change", [
    dict(members=frozenset({np.int64(3)})),
    dict(members=frozenset({1, np.int64(3)})),
    dict(sources=(0, np.int64(1))),
    dict(rank=np.int64(0)),
    dict(cut_index=np.int32(2)),
])
def test_provenance_rejects_numpy_ints_as_json_dumps_does(tmp_path, change):
    result = PipelineResult(PipelineConfig(), "refine", [replace(BYPASSED, **change)], None)
    with pytest.raises(TypeError):
        reference_provenance(result)
    with pytest.raises(TypeError):
        write_provenance(result, tmp_path / "provenance.json")


def test_write_report_requires_truth(tmp_path):
    data, config = passthrough_case()
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    result = run_br(config, graph, list(data.candidates))
    with pytest.raises(InputError, match="no report"):
        write_report(result, tmp_path / "out")


def test_write_report_emits_both_curves(tmp_path):
    data, config = two_topic_case()
    graph = build_mixed_graph(config, data.w_vis, data.w_txt)
    result = run_br(config, graph, list(data.candidates), truth=data.truth)
    paths = write_report(result, tmp_path / "run")
    assert [p.name for p in paths] == ["run_top10_f1.csv", "run_accuracy.csv"]
    for p in paths:
        lines = p.read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) > 1
