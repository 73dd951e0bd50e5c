"""Command-line interface: stage chain, config plumbing, exit codes."""

import contextlib
import dataclasses
import hashlib
import json
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hotmine
from conftest import fed_fifo, graph_from_dense
from hotmine import cli, graph, pipeline
from hotmine.candidates import TopicCandidate, save_candidates
from hotmine.cli import _parse, main
from hotmine.errors import ConvergenceError, InputError
from hotmine.evaluation import TOP_K, GroundTruth
from hotmine.graph import (
    gaussian_affinity, knn_sparsify, load_similarity, mix_graphs, save_similarity
)
from hotmine.pipeline import PipelineConfig
from hotmine.ranking import RankedTopicList
from hotmine.synth import SyntheticScenario
from test_bundling import reference_bundle, reference_nms
from test_evaluation import reference_accuracy_vs_fppt, reference_top10_f1_vs_ndt
from test_graph import reference_gaussian_affinity, reference_knn_sparsify, reference_load_similarity
from test_pipeline import reference_provenance
from test_ranking import reference_fit
from test_refine_stacks import reference_detections

COMMON = ["--no-apply-kernel", "--knn-txt", "20", "--knn-vis", "8", "--tau", "0.2"]

# sha256 of the files `hotmine rank` and `hotmine bundle` write for the
# corpus fixture; both stages run through run_br, so a change in its wiring
# shows here first.
PINNED_STAGE_FILES = {
    "rank": "7a85e86adfec1e06b882118be91a45dba0da90014fbddc2fb59c9225198ba8b2",
    "bundle": "611547de04562964385905ff0b4271adc36ced410e8403982cd31c96290b4fc0",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_synth_writes_all_four_files(corpus):
    for name in ("vis.sim", "txt.sim", "candidates.txt", "truth.txt"):
        assert (corpus / name).is_file()
    truth_rows = [
        line
        for line in (corpus / "truth.txt").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert truth_rows == [
        " ".join(str(i) for i in range(0, 10)),
        " ".join(str(i) for i in range(10, 20)),
    ]


def test_stage_chain_runs_clean(corpus, tmp_path, capsys):
    graph = tmp_path / "mixed.graph"
    rc = main([
        "graph",
        "--vis", str(corpus / "vis.sim"),
        "--txt", str(corpus / "txt.sim"),
        "--out", str(graph),
        *COMMON,
    ])
    assert rc == 0
    assert graph.is_file()
    assert "60 nodes" in capsys.readouterr().out

    cascade = tmp_path / "cascade.txt"
    rc = main(["candidates", "--graph", str(graph), "--out", str(cascade), *COMMON])
    assert rc == 0
    rows = [
        line
        for line in cascade.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert rows

    ranked = tmp_path / "ranked.txt"
    rc = main([
        "rank",
        "--graph", str(graph),
        "--candidates", str(corpus / "candidates.txt"),
        "--out", str(ranked),
        *COMMON,
    ])
    assert rc == 0
    header = [
        line for line in ranked.read_text().splitlines() if line.startswith("#")
    ]
    assert header and "interestingness=" in header[0]
    assert sha256(ranked) == PINNED_STAGE_FILES["rank"]

    coarse = tmp_path / "coarse.txt"
    rc = main([
        "bundle",
        "--graph", str(graph),
        "--candidates", str(corpus / "candidates.txt"),
        "--out", str(coarse),
        *COMMON,
    ])
    assert rc == 0
    assert sha256(coarse) == PINNED_STAGE_FILES["bundle"]


def test_run_with_config_file_and_flag_override(corpus, tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"tau": 0.9, "apply_kernel": False}))
    prefix = tmp_path / "out"
    rc = main([
        "--config", str(config_file),
        "run",
        "--vis", str(corpus / "vis.sim"),
        "--txt", str(corpus / "txt.sim"),
        "--candidates", str(corpus / "candidates.txt"),
        "--truth", str(corpus / "truth.txt"),
        "--out-prefix", str(prefix),
        "--knn-txt", "20",
        "--knn-vis", "8",
        "--tau", "0.2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accuracy at FPPT<=5:" in out

    for suffix in ("_topics.txt", "_provenance.json", "_top10_f1.csv", "_accuracy.csv"):
        assert (tmp_path / f"out{suffix}").is_file()

    prov = json.loads((tmp_path / "out_provenance.json").read_text())
    # the flag wins over the config file, which wins over the default
    assert prov["config"]["tau"] == 0.2
    assert prov["config"]["apply_kernel"] is False
    assert prov["config"]["knn_txt"] == 20
    assert prov["stage"] == "refine"


def test_graph_applies_the_kernel_unless_told_not_to(corpus, tmp_path):
    out, want = tmp_path / "kernel.graph", tmp_path / "want.graph"
    vis, txt = corpus / "vis.sim", corpus / "txt.sim"
    argv = ["graph", "--vis", str(vis), "--txt", str(txt), "--out", str(out)]
    assert main([*argv, "--knn-txt", "20", "--knn-vis", "8"]) == 0
    sides = [
        knn_sparsify(gaussian_affinity(load_similarity(path)), k, kind)
        for path, k, kind in ((vis, 8, "vis"), (txt, 20, "txt"))
    ]
    save_similarity(mix_graphs(*sides), want)
    assert out.read_bytes() == want.read_bytes()


def test_refine_on_prebuilt_graph(corpus, tmp_path):
    graph = tmp_path / "mixed.graph"
    assert main([
        "graph",
        "--vis", str(corpus / "vis.sim"),
        "--txt", str(corpus / "txt.sim"),
        "--out", str(graph),
        *COMMON,
    ]) == 0
    prefix = tmp_path / "refined"
    rc = main([
        "refine",
        "--graph", str(graph),
        "--candidates", str(corpus / "candidates.txt"),
        "--out-prefix", str(prefix),
        *COMMON,
    ])
    assert rc == 0
    topics = (tmp_path / "refined_topics.txt").read_text().splitlines()
    assert topics[0] == "# stage: refine"
    assert not (tmp_path / "refined_top10_f1.csv").exists()


def test_eval_standalone(corpus, tmp_path, capsys):
    prefix = tmp_path / "scores"
    rc = main([
        "eval",
        "--detections", str(corpus / "truth.txt"),
        "--truth", str(corpus / "truth.txt"),
        "--n", "60",
        "--out-prefix", str(prefix),
    ])
    assert rc == 0
    assert "accuracy at FPPT<=5: 1.0000" in capsys.readouterr().out
    assert (tmp_path / "scores_top10_f1.csv").is_file()
    assert (tmp_path / "scores_accuracy.csv").is_file()


def test_oracle_subcommand_reports_passes(capsys):
    rc = main([
        "oracle", "--trials", "50", "--nodes", "6", "--instances", "2",
        "--oracle-seed", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "submodularity:" in out
    assert "monotonicity:" in out
    assert "12/12 checks passed" in out
    assert "FAIL" not in out


# one non-default value per PipelineConfig field, as argv and as parsed
FLAG_VALUES = {
    "knn_txt": (["--knn-txt", "7"], 7),
    "knn_vis": (["--knn-vis", "3"], 3),
    "sigma2_affinity": (["--sigma2-affinity", "0.25"], 0.25),
    "apply_kernel": (["--no-apply-kernel"], False),
    "cascade_thresholds": (["--cascade-thresholds", "0.2,0.7"], (0.2, 0.7)),
    "window": (["--window", "5"], 5),
    "tau": (["--tau", "0.3"], 0.3),
    "nms_thresh": (["--nms-thresh", "0.6"], 0.6),
    "alpha": (["--alpha", "0.5"], 0.5),
    "sigma_dissim": (["--sigma-dissim", "3.5"], 3.5),
    "lam": (["--lam", "2.5"], 2.5),
    "margin": (["--margin", "0.2"], 0.2),
    "pd_max_iter": (["--pd-max-iter", "50"], 50),
    "pd_tol": (["--pd-tol", "1e-4"], 1e-4),
    "pr_tol": (["--pr-tol", "1e-7"], 1e-7),
    "pr_max_iter": (["--pr-max-iter", "30"], 30),
    "seed": (["--seed", "9"], 9),
}


# the required arguments of each subcommand that takes config flags
COMMAND_ARGV = {
    "synth": ["--n", "60", "--topic-sizes", "10", "--out-dir", "d"],
    "graph": ["--vis", "v.sim", "--txt", "t.sim", "--out", "g.txt"],
    "candidates": ["--graph", "g.txt", "--out", "c.txt"],
    "rank": ["--graph", "g.txt", "--candidates", "c.txt", "--out", "r.txt"],
    "bundle": ["--graph", "g.txt", "--candidates", "c.txt", "--out", "b.txt"],
    "refine": ["--graph", "g.txt", "--candidates", "c.txt", "--out-prefix", "p"],
    "run": ["--vis", "v.sim", "--txt", "t.sim", "--candidates", "c.txt", "--out-prefix", "p"],
}


def config_file(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def parse_config(*flags, config=None, command="graph"):
    """The config `_parse` builds for `command` with these flags, after
    `--config config` when a file is given."""
    head = [] if config is None else ["--config", config]
    args, parsed = _parse([*head, command, *COMMAND_ARGV[command], *flags])
    # the flags end up in the config only, not also in the namespace
    assert not any(hasattr(args, f.name) for f in dataclasses.fields(PipelineConfig))
    return parsed


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PipelineConfig)])
def test_each_config_field_has_a_flag(name):
    argv, value = FLAG_VALUES[name]
    config = parse_config(*argv)
    assert getattr(config, name) == value
    assert type(getattr(config, name)) is type(value)
    assert config == dataclasses.replace(PipelineConfig(), **{name: value})


# one non-default value per SyntheticScenario field, as argv and as built;
# three flags are not spelled as their field
SCENARIO_VALUES = {
    "n_webpages": (["--n", "90"], 90),
    "topic_sizes": (["--topic-sizes", "10,20"], (10, 20)),
    "fragments_per_topic": (["--fragments", "2"], 2),
    "fragment_drop": (["--fragment-drop", "1"], 1),
    "fragment_noise": (["--fragment-noise", "2"], 2),
    "intra_similarity": (["--intra-similarity", "0.7"], 0.7),
    "noise_similarity": (["--noise-similarity", "0.1"], 0.1),
    "jitter": (["--jitter", "0.5"], 0.5),
    "noise_cluster_size": (["--cluster-size", "4"], 4),
    "noise_cluster_count": (["--cluster-count", "3"], 3),
}


@pytest.fixture
def synth_scenario(monkeypatch):
    """The SyntheticScenario `hotmine synth` builds from its required flags
    and these, caught where it reaches generate_synthetic."""
    built = []

    def generate(scenario, seed):
        built.append(scenario)
        raise InputError("caught before generating")

    monkeypatch.setattr(cli, "generate_synthetic", generate)

    def build(*flags):
        assert main(["synth", *COMMAND_ARGV["synth"], *flags]) == 1
        return built.pop()

    return build


# the reprs also compare each value's type: 3 and 3.0 differ there
def test_synth_defaults_are_the_scenario_defaults(synth_scenario):
    assert repr(synth_scenario()) == repr(SyntheticScenario(60, (10,)))


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SyntheticScenario)])
def test_each_scenario_field_has_a_flag(synth_scenario, name):
    argv, value = SCENARIO_VALUES[name]
    want = dataclasses.replace(SyntheticScenario(60, (10,)), **{name: value})
    assert repr(synth_scenario(*argv)) == repr(want)


@pytest.mark.parametrize("jitter", ["inf", "nan", "-0.1"])
def test_synth_refuses_jitter_that_is_negative_or_not_finite(tmp_path, capsys, jitter):
    out = tmp_path / "corpus"
    argv = ["synth", "--n", "30", "--topic-sizes", "10", "--jitter", jitter, "--out-dir", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: jitter must be finite and >= 0"]
    assert captured.out == ""
    assert not out.exists()


def test_flag_types_do_not_follow_config_file_values(tmp_path):
    # a config file may give an int where the field holds a float; the flag
    # still parses a float, and no flag's default changes its type
    file = config_file(tmp_path, {"sigma2_affinity": 2, "apply_kernel": False})
    base = PipelineConfig(sigma2_affinity=2, apply_kernel=False)
    assert parse_config(config=file) == base
    assert parse_config("--sigma2-affinity", "0.5", config=file).sigma2_affinity == 0.5
    assert parse_config("--apply-kernel", config=file).apply_kernel is True


FILE_VALUES = {"tau": 0.9, "apply_kernel": False, "cascade_thresholds": [0.2, 0.6], "seed": 5}
OVERRIDES = (["--tau", "0.3", "--apply-kernel", "--seed", "7"], {"tau": 0.3, "apply_kernel": True, "seed": 7})


@pytest.mark.parametrize("command", list(COMMAND_ARGV))
@pytest.mark.parametrize("file,flags", [
    (None, ([], {})),
    (FILE_VALUES, ([], {})),
    (None, OVERRIDES),
    (FILE_VALUES, OVERRIDES),
], ids=["defaults", "file", "flags", "file-and-flags"])
def test_parse_applies_the_flags_given_over_the_file(tmp_path, command, file, flags):
    argv, values = flags
    path = None if file is None else config_file(tmp_path, file)
    want = dataclasses.replace(PipelineConfig.from_dict(file or {}), **values)
    assert parse_config(*argv, config=path, command=command) == want


def test_wrongly_typed_config_value_exits_one_under_an_overriding_flag(tmp_path, capsys):
    # the file is checked on its own, before any flag is applied
    file = config_file(tmp_path, {"tau": "abc"})
    assert main(["--config", file, "graph", *COMMAND_ARGV["graph"], "--tau", "0.3"]) == 1
    assert capsys.readouterr().err.splitlines() == ['error: config key tau must be a number, got "abc"']


def test_synth_takes_its_seed_from_the_config_file(corpus, tmp_path):
    out = tmp_path / "from_config"
    assert main([
        "--config", config_file(tmp_path, {"seed": 5}),
        "synth",
        "--n", "60",
        "--topic-sizes", "10,10",
        "--fragments", "3",
        "--fragment-noise", "2",
        "--out-dir", str(out),
    ]) == 0
    # the corpus fixture passes --seed 5 instead
    for name in ("vis.sim", "txt.sim", "candidates.txt", "truth.txt"):
        assert (out / name).read_bytes() == (corpus / name).read_bytes()


# ------------------------------------------------------------- failures


def test_missing_file_exits_one(tmp_path, capsys):
    rc = main([
        "candidates",
        "--graph", str(tmp_path / "nope.graph"),
        "--out", str(tmp_path / "out.txt"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_config_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["--config", str(bad), "oracle", "--trials", "1"])
    assert rc == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_config_file_holding_no_object_exits_one(tmp_path, capsys):
    bad = tmp_path / "list.json"
    bad.write_text("[1, 2]")
    assert main(["--config", str(bad), "oracle", "--trials", "1"]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: config file {bad} must hold a JSON object"]


def test_unknown_config_key_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"taau": 0.4}))
    rc = main(["--config", str(bad), "oracle", "--trials", "1"])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize("value,expected", [
    ('{"tau": "abc"}', 'tau must be a number, got "abc"'),
    ('{"window": null}', "window must be an int, got null"),
    ('{"window": 7.0}', "window must be an int, got 7.0"),
    ('{"knn_txt": true}', "knn_txt must be an int, got true"),
    ('{"alpha": false}', "alpha must be a number, got false"),
    ('{"cascade_thresholds": 5}', "cascade_thresholds must be a list of numbers, got 5"),
    ('{"cascade_thresholds": [0.2, "x"]}', "cascade_thresholds must be a list of numbers"),
    ('{"apply_kernel": "no"}', 'apply_kernel must be a bool, got "no"'),
    ('{"apply_kernel": 0}', "apply_kernel must be a bool, got 0"),
    ('{"sigma2_affinity": "1"}', 'sigma2_affinity must be a number or null, got "1"'),
])
def test_wrongly_typed_config_value_exits_one(tmp_path, capsys, value, expected):
    bad = tmp_path / "bad.json"
    bad.write_text(value)
    rc = main(["--config", str(bad), "oracle", "--trials", "1"])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: config key {expected}")


@pytest.mark.parametrize("argv,expected", [
    (["run", "--tau", "abc"], "hotmine run: argument --tau: invalid float value: 'abc'"),
    (["frobnicate"], "hotmine: argument command: invalid choice: 'frobnicate'"),
    (["run", "--vis", "v.sim"], "hotmine run: the following arguments are required: --txt"),
    (["--config"], "hotmine: argument --config: expected one argument"),
    (["oracle", "--nodes", "-3"], "hotmine oracle: argument --nodes: must be an int >= 2, got '-3'"),
    (
        ["oracle", "--oracle-seed", "-1"],
        "hotmine oracle: argument --oracle-seed: must be an int >= 0, got '-1'",
    ),
    # 0 and 1 nodes passed the parser and failed only once the checks ran
    (["oracle", "--nodes", "0"], "hotmine oracle: argument --nodes: must be an int >= 2, got '0'"),
    (["oracle", "--nodes", "1"], "hotmine oracle: argument --nodes: must be an int >= 2, got '1'"),
    (["oracle", "--instances", "1.5"], "hotmine oracle: argument --instances: must be an int >= 1, got '1.5'"),
])
def test_usage_error_exits_one_with_one_line(capsys, argv, expected):
    # exit 2 is reserved for solvers that hit their iteration cap
    assert main(argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: " + expected)
    assert captured.out == ""


def test_oracle_without_instances_exits_one(capsys):
    assert main(["oracle", "--instances", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: hotmine oracle: argument --instances: must be an int >= 1, got '0'"
    ]
    assert captured.out == ""


@pytest.mark.parametrize("flags,expected", [
    (["--cascade-thresholds", "nan,inf"], "thresholds must lie strictly inside (0, 1)"),
    (["--cascade-thresholds", "0.5,0.2"], "thresholds must be strictly increasing"),
    (["--sigma2-affinity", "-1"], "sigma2_affinity must be positive and finite, got -1.0"),
    (["--sigma2-affinity", "0", "--apply-kernel"], "sigma2_affinity must be positive and finite, got 0.0"),
    (["--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_out_of_range_config_flag_exits_one_before_any_output(corpus, tmp_path, capsys, flags, expected):
    # COMMON turns the kernel off: a bad bandwidth is refused all the same
    assert main(run_args(corpus, tmp_path, *flags)) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {expected}"]
    assert captured.out == ""
    assert list(tmp_path.glob("out*")) == []


def readme_quick_start():
    """The README quick start's commands, each as hotmine's argv."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Quick start\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()]


def refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_readme_quick_start_writes_strict_json(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_quick_start()
    assert [argv[0] for argv in commands] == ["synth", "run"]
    for argv in commands:
        assert main(argv) == 0
    assert "accuracy at FPPT<=5: 1.0000" in capsys.readouterr().out
    text = (tmp_path / "corpus" / "run_provenance.json").read_text()
    record = json.loads(text, parse_constant=refuse_constant)
    assert PipelineConfig.from_dict(record["config"]) == PipelineConfig(
        apply_kernel=False, knn_txt=20, knn_vis=8, tau=0.2
    )


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--out-prefix" in capsys.readouterr().out


def test_bad_flag_value_exits_one(corpus, tmp_path, capsys):
    rc = main([
        "bundle",
        "--graph", str(corpus / "vis.sim"),
        "--candidates", str(corpus / "candidates.txt"),
        "--out", str(tmp_path / "x.txt"),
        "--tau", "0",
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_convergence_failure_exits_two(corpus, tmp_path, capsys):
    graph = tmp_path / "mixed.graph"
    assert main([
        "graph",
        "--vis", str(corpus / "vis.sim"),
        "--txt", str(corpus / "txt.sim"),
        "--out", str(graph),
        *COMMON,
    ]) == 0
    rc = main([
        "refine",
        "--graph", str(graph),
        "--candidates", str(corpus / "candidates.txt"),
        "--out-prefix", str(tmp_path / "never"),
        *COMMON,
        "--pr-tol", "1e-18",
        "--pr-max-iter", "2",
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def run_args(corpus, tmp_path, *extra):
    return [
        "run",
        "--vis", str(corpus / "vis.sim"),
        "--txt", str(corpus / "txt.sim"),
        "--candidates", str(corpus / "candidates.txt"),
        "--out-prefix", str(tmp_path / "out"),
        *COMMON,
        *extra,
    ]


def test_deconvolution_cap_exits_two(corpus, tmp_path, capsys):
    rc = main(run_args(corpus, tmp_path, "--pd-max-iter", "1"))
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: weight estimation did not converge")
    assert not (tmp_path / "out_topics.txt").exists()


def test_oversized_similarity_header_exits_one(corpus, tmp_path, capsys):
    huge = tmp_path / "huge.sim"
    huge.write_text(f"{2**31} 1\n0 1 0.5\n")
    args = run_args(corpus, tmp_path)
    args[args.index("--vis") + 1] = str(huge)
    rc = main(args)
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "does not fit in memory" in err[0]


def test_bad_body_from_a_pipe_exits_one(corpus, tmp_path, capsys):
    # the body cannot be read again to find its bad line
    with fed_fifo(tmp_path / "vis.sim", "3 2\n0 1 0.5\n0 1 0.5\n") as fifo:
        rc = main(["graph", "--vis", str(fifo), "--txt", str(corpus / "txt.sim"), "--out", str(tmp_path / "g.graph")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: {fifo}: ") and "cannot be read again to locate the bad line" in err[0]
    assert not (tmp_path / "g.graph").exists()


# The txt file is parsed in a forked child while run or graph parses vis.
BAD_BODY = "3 2\n0 1 0.5\n0 1 0.5\n"


def serial_error(path) -> str:
    """The error line for path's own load_similarity error."""
    with pytest.raises((InputError, OSError)) as caught:
        load_similarity(path)
    return f"error: {caught.value}"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("case", ["bad-file", "bad-fifo", "missing", "both-bad"])
def test_similarity_errors_keep_the_serial_line_and_reap_the_child(corpus, tmp_path, capsys, case):
    vis, txt = tmp_path / "vis.sim", tmp_path / "txt.sim"
    args = run_args(corpus, tmp_path)
    args[args.index("--txt") + 1] = str(txt)
    with contextlib.ExitStack() as stack:
        if case == "bad-fifo":
            stack.enter_context(fed_fifo(txt, BAD_BODY))
            expected = f"error: {txt}: malformed triplet body; the input cannot be read again to locate the bad line"
        else:
            if case != "missing":
                txt.write_text(BAD_BODY)
            expected = serial_error(txt)
        if case == "both-bad":  # vis is parsed first in the serial order
            vis.write_text("3 1\n0 1 1.5\n")
            args[args.index("--vis") + 1] = str(vis)
            expected = serial_error(vis)
        assert main(args) == 1
    assert capsys.readouterr().err.splitlines() == [expected]
    assert not (tmp_path / "out_topics.txt").exists()
    assert_no_child_left()


def test_a_txt_child_that_dies_exits_one_and_is_reaped(corpus, tmp_path, capsys, monkeypatch):
    txt, parent = str(corpus / "txt.sim"), os.getpid()
    load = pipeline.load_similarity

    def die_on_txt(path):
        if str(path) == txt and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return load(path)

    monkeypatch.setattr(pipeline, "load_similarity", die_on_txt)
    assert main(run_args(corpus, tmp_path)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {txt}: the process parsing it ended without a result (killed by signal 9)"]
    assert_no_child_left()


def test_a_txt_child_killed_after_sending_n_exits_one_and_is_reaped(corpus, tmp_path, capsys, monkeypatch):
    # the child dies in its kNN, after it has sent n; this process has by
    # then checked the sizes and built the vis graph
    txt, parent, built = corpus / "txt.sim", os.getpid(), []
    knn = pipeline.knn_sparsify

    def die_in_the_child(matrix, k, kind):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        built.append(kind)
        return knn(matrix, k, kind=kind)

    monkeypatch.setattr(pipeline, "knn_sparsify", die_in_the_child)
    assert main(run_args(corpus, tmp_path)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {txt}: the process parsing it ended without a result (killed by signal 9)"]
    assert built == ["vis"]
    assert not (tmp_path / "out_topics.txt").exists()
    assert_no_child_left()


# A body of 0.0 triplets stores no edge, so with the kernel on and sigma2
# left to the data, its graph fails: the error comes after every load check.
NO_EDGE_BODY = "60 2\n0 1 0.0\n2 3 0.0\n"
SIGMA2_ERROR = "error: cannot infer sigma2 from a matrix with no nonzero entries"


@pytest.mark.parametrize("command", ["run", "graph"])
@pytest.mark.parametrize("vis_case", ["valid", "bad-load", "size"])
def test_a_txt_graph_error_comes_only_after_every_vis_and_size_check(corpus, tmp_path, capsys, command, vis_case):
    txt = tmp_path / "txt.sim"
    txt.write_text(NO_EDGE_BODY)
    args = run_args(corpus, tmp_path, "--apply-kernel")
    if command == "graph":
        args = ["graph", *args[1:5], "--out", str(tmp_path / "g.graph"), "--apply-kernel"]
    args[args.index("--txt") + 1] = str(txt)
    expected = SIGMA2_ERROR
    if vis_case != "valid":
        vis = tmp_path / "vis.sim"
        vis.write_text("60 1\n0 1 1.5\n" if vis_case == "bad-load" else "3 1\n0 1 0.5\n")
        args[args.index("--vis") + 1] = str(vis)
        expected = serial_error(vis) if vis_case == "bad-load" else "error: similarity matrices disagree on size: 3 vs 60"
    assert main(args) == 1
    assert capsys.readouterr().err.splitlines() == [expected]
    assert not (tmp_path / "g.graph").exists() and not (tmp_path / "out_topics.txt").exists()
    assert_no_child_left()


@pytest.mark.parametrize("bad", [("txt",), ("vis", "txt")], ids=["txt", "both"])
def test_when_both_graphs_fail_the_vis_error_wins(corpus, tmp_path, capsys, monkeypatch, bad):
    # Both graph errors read the same, so the kernel names the process that
    # raised: vis's graph is built here, txt's in the child.
    parent, kernel = os.getpid(), pipeline.gaussian_affinity

    def tagged(matrix, sigma2=None):
        try:
            return kernel(matrix, sigma2=sigma2)
        except InputError as exc:
            raise InputError(f"{exc} [{'main' if os.getpid() == parent else 'child'}]") from None

    monkeypatch.setattr(pipeline, "gaussian_affinity", tagged)
    args = run_args(corpus, tmp_path, "--apply-kernel")
    for name in bad:
        (tmp_path / f"{name}.sim").write_text(NO_EDGE_BODY)
        args[args.index(f"--{name}") + 1] = str(tmp_path / f"{name}.sim")
    assert main(args) == 1
    where = "main" if "vis" in bad else "child"
    assert capsys.readouterr().err.splitlines() == [f"{SIGMA2_ERROR} [{where}]"]
    assert not (tmp_path / "out_topics.txt").exists()
    assert_no_child_left()


def test_a_txt_child_out_of_address_space_exits_one_with_the_serial_line(corpus, tmp_path):
    # The address space is capped at 2 GiB, so the 16 GiB count array fails
    # at once in the child. Never run this without the cap.
    wide = tmp_path / "wide.sim"
    wide.write_text(f"{2**31 - 1} 1\n0 1 0.5\n")
    argv = run_args(corpus, tmp_path)
    argv[argv.index("--txt") + 1] = str(wide)
    code = (
        "import os, resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
        f"from hotmine.cli import main; rc = main({argv!r})\n"
        "try:\n    os.waitpid(-1, os.WNOHANG)\nexcept ChildProcessError:\n    sys.exit(rc)\nsys.exit(99)"
    )
    out = child_run(code, check=False)
    assert out.returncode == 1, out.stderr
    assert out.stderr.splitlines() == [f"error: {wide}: the matrix does not fit in memory"]


@pytest.mark.parametrize("command", ["run", "graph"])
def test_similarity_sizes_disagree_before_any_graph_work(corpus, tmp_path, capsys, monkeypatch, command):
    def no_graph_work(*args, **kwargs):
        raise AssertionError("built a graph from matrices of different sizes")

    monkeypatch.setattr(pipeline, "gaussian_affinity", no_graph_work)
    monkeypatch.setattr(pipeline, "knn_sparsify", no_graph_work)
    small = tmp_path / "small.sim"
    small.write_text("3 1\n0 1 0.5\n")
    args = run_args(corpus, tmp_path)
    if command == "graph":
        args = ["graph", *args[1:5], "--out", str(tmp_path / "g.graph"), *COMMON]
    args[args.index("--txt") + 1] = str(small)
    assert main(args) == 1
    assert capsys.readouterr().err.splitlines() == ["error: similarity matrices disagree on size: 60 vs 3"]
    assert not (tmp_path / "g.graph").exists() and not (tmp_path / "out_topics.txt").exists()
    assert_no_child_left()


@pytest.mark.parametrize("command", ["run", "graph"])
def test_a_one_page_corpus_is_refused_with_one_line(tmp_path, capsys, command):
    one = tmp_path / "one.sim"
    one.write_text("1 0\n")
    save_candidates([TopicCandidate({0})], tmp_path / "candidates.txt")
    inputs = sorted(tmp_path.iterdir())
    args = [command, "--vis", str(one), "--txt", str(one)]
    if command == "run":
        args += ["--candidates", str(tmp_path / "candidates.txt"), "--out-prefix", str(tmp_path / "out")]
    else:
        args += ["--out", str(tmp_path / "g.graph")]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: a graph needs at least 2 pages, got n=1"]
    assert captured.out == ""
    assert sorted(tmp_path.iterdir()) == inputs
    assert_no_child_left()


@pytest.mark.parametrize("flag", ["--vis", "--candidates", "--config"])
def test_non_utf8_input_exits_one(corpus, tmp_path, capsys, flag):
    args = run_args(corpus, tmp_path)
    if flag == "--config":
        source = tmp_path / "config.json"
        source.write_text('{"tau": 0.2}\n')
        args = ["--config", str(source), *args]  # a top-level flag, before the command
    else:
        source = Path(args[args.index(flag) + 1])
    bad = tmp_path / f"bad{source.suffix}"
    raw = source.read_bytes()
    bad.write_bytes(raw[:4] + b"\xff" + raw[4:])
    args[args.index(flag) + 1] = str(bad)
    assert main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and str(bad) in err[0]
    assert not (tmp_path / "out_topics.txt").exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def child_run(code, check=True, **env):
    src = str(Path(hotmine.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, **env}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=check, timeout=300
    )


def child_output(code):
    return child_run(code).stdout.strip().splitlines()


def test_every_command_runs_with_scipy_blocked(corpus, tmp_path):
    # a None in sys.modules makes any import of scipy raise ImportError
    graph, truth = str(tmp_path / "mixed.graph"), str(corpus / "truth.txt")
    sides = ["--vis", str(corpus / "vis.sim"), "--txt", str(corpus / "txt.sim")]
    inputs = ["--graph", graph, "--candidates", str(corpus / "candidates.txt")]
    commands = [
        ["synth", "--n", "60", "--topic-sizes", "10,10", "--out-dir", str(tmp_path / "synth")],
        ["graph", *sides, "--out", graph, *COMMON],
        ["candidates", "--graph", graph, "--out", str(tmp_path / "cascade.txt"), *COMMON],
        ["rank", *inputs, "--out", str(tmp_path / "ranked.txt"), *COMMON],
        ["bundle", *inputs, "--out", str(tmp_path / "coarse.txt"), *COMMON],
        ["refine", *inputs, "--truth", truth, "--out-prefix", str(tmp_path / "refined"), *COMMON],
        ["run", *sides, "--candidates", str(corpus / "candidates.txt"), "--truth", truth,
         "--out-prefix", str(tmp_path / "run"), *COMMON],
        ["eval", "--detections", truth, "--truth", truth, "--n", "60", "--out-prefix", str(tmp_path / "eval")],
        ["oracle", "--trials", "5", "--instances", "1"],
    ]
    code = f"import sys; sys.modules['scipy'] = None; from hotmine.cli import main; print([main(a) for a in {commands!r}])"
    assert child_output(code)[-1] == str([0] * len(commands))
    assert (tmp_path / "cascade.txt").read_text() and (tmp_path / "run_topics.txt").is_file()


@pytest.mark.parametrize("kernel", [False, True], ids=["raw", "kernel"])
def test_run_path_imports_no_scipy(corpus, tmp_path, kernel):
    args = [
        "run",
        "--vis", str(corpus / "vis.sim"),
        "--txt", str(corpus / "txt.sim"),
        "--candidates", str(corpus / "candidates.txt"),
        "--truth", str(corpus / "truth.txt"),
        "--out-prefix", str(tmp_path / "out"),
        *(COMMON[1:] if kernel else COMMON),  # COMMON[0] turns the kernel off
    ]
    # numpy.ma is a lazy import of numpy's own, as np.unique without indices
    # makes it on numpy 2.4: 11-17 ms of every run
    code = (
        f"import sys; from hotmine.cli import main; print(main({args!r})); print({LOADED_SCIPY}); "
        "print('numpy.ma' in sys.modules)"
    )
    assert child_output(code)[-3:] == ["0", "[]", "False"]
    assert (tmp_path / "out_topics.txt").is_file()


def test_run_forks_safely_under_any_blas_thread_count(corpus, tmp_path):
    # the txt child is forked after OpenBLAS has started its threads
    provenance = []
    for threads in ("1", "2"):
        args = run_args(corpus, tmp_path)
        args[args.index("--out-prefix") + 1] = str(tmp_path / f"blas{threads}")
        code = f"import sys; from hotmine.cli import main; sys.exit(main({args!r}))"
        out = child_run(code, check=False, OPENBLAS_NUM_THREADS=threads)
        assert out.returncode == 0, out.stderr
        provenance.append((tmp_path / f"blas{threads}_provenance.json").read_bytes())
    assert provenance[0] == provenance[1]


@pytest.mark.parametrize("command", ["refine", "run", "eval"])
def test_negative_max_fppt_exits_one(capsys, command):
    assert main([command, "--max-fppt", "-1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"error: hotmine {command}: argument --max-fppt: must be an int >= 0, got '-1'"
    ]


def test_eval_max_fppt_zero_is_accepted_and_negative_writes_nothing(corpus, tmp_path, capsys):
    def scores(prefix, max_fppt):
        return main([
            "eval",
            "--detections", str(corpus / "truth.txt"),
            "--truth", str(corpus / "truth.txt"),
            "--n", "60",
            "--out-prefix", str(tmp_path / prefix),
            "--max-fppt", max_fppt,
        ])

    assert scores("zero", "0") == 0
    assert (tmp_path / "zero_accuracy.csv").is_file()
    assert scores("negative", "-1") == 1
    assert not (tmp_path / "negative_accuracy.csv").exists()


def oversized_argv(tmp_path, command):
    if command == "synth":  # a dense 3M x 3M matrix: 65.5 TiB
        return ["synth", "--n", "3000000", "--topic-sizes", "5", "--out-dir", str(tmp_path / "synth")]
    # one candidate of all pages on a 200k-node path: 149 GiB of covered pairs
    n = 200_000
    graph, cands = tmp_path / "path.graph", tmp_path / "one.txt"
    graph.write_text("\n".join([f"{n} {n - 1}", *map("{} {} 0.5".format, range(n - 1), range(1, n))]) + "\n")
    cands.write_text(" ".join(map(str, range(n))) + "\n")
    return ["rank", "--graph", str(graph), "--candidates", str(cands), "--out", str(tmp_path / "r.txt")]


@pytest.mark.parametrize("command", ["synth", "rank"])
def test_work_that_does_not_fit_in_memory_exits_one(tmp_path, command):
    # The child's address space is capped at 2 GiB, so the oversized request
    # fails at once. Never run these without the cap: under overcommit the
    # request may be granted, and touching it invites the OOM killer.
    argv = oversized_argv(tmp_path, command)
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31)); "
        f"from hotmine.cli import main; sys.exit(main({argv!r}))"
    )
    out = child_run(code, check=False)
    assert out.returncode == 1, out.stderr
    assert "Traceback" not in out.stderr
    err = out.stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: hotmine {command}: out of memory (Unable to allocate ")


# ------------------------------------------------ refine against the references
# The stage references of the other test modules, composed into one pipeline:
# the pair-enumerating fit, a plain sort, the union-set bundle scan, the
# all-pairs suppression, the per-topic refine and the per-budget curves. What
# they give is written in the documented file formats.


def reference_refine_files(g, member_sets, truth_sets, config, max_fppt):
    """The bytes `hotmine refine` writes, by file suffix."""
    candidates = [TopicCandidate(members) for members in member_sets]
    fit, _ = reference_fit(g, candidates, config.pd_max_iter + 1, config.pd_tol)
    if len(fit) > config.pd_max_iter:
        raise ConvergenceError("weight estimation did not converge")
    for cand, weight in zip(candidates, fit[-1]):
        cand.weight = float(weight)
    order = sorted(range(len(candidates)), key=lambda k: (-candidates[k].weight * candidates[k].size, k))
    ranked = RankedTopicList([candidates[k] for k in order], order)
    coarse = reference_nms(reference_bundle(ranked, config.window, config.tau), config.nms_thresh)
    detections = reference_detections(coarse, candidates, config)
    sets = [det.members for det in detections]
    truth = GroundTruth(tuple(truth_sets), n=g.n)
    curves = {
        "_top10_f1.csv": reference_top10_f1_vs_ndt(sets, truth, max(len(sets), TOP_K)),
        "_accuracy.csv": reference_accuracy_vs_fppt(sets, truth, max_fppt),
    }
    topics = ["# stage: refine", *(" ".join(map(str, sorted(members))) for members in sets)]
    result = SimpleNamespace(config=config, stage="refine", detections=detections)
    return {
        "_topics.txt": ("\n".join(topics) + "\n").encode(),
        "_provenance.json": reference_provenance(result),
        **{suffix: ("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in curve)).encode() for suffix, curve in curves.items()},
    }


@st.composite
def refine_cases(draw):
    """A graph on at most 30 pages, candidates, truth, config keys and an
    FPPT budget."""
    n = draw(st.integers(3, 30))
    weight = st.floats(0.01, 1.0) | st.sampled_from([0.25, 0.5, 1.0, 0.0])
    values = np.zeros((n, n))
    values[np.triu_indices(n, 1)] = draw(st.lists(weight, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    pages = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n)
    pairs = st.frozensets(st.integers(0, n - 1), min_size=2, max_size=n)
    keys = dict(
        window=draw(st.integers(0, 12)),
        tau=draw(st.sampled_from([0.2, 0.4, 1.0]) | st.floats(0.05, 1.0)),
        nms_thresh=draw(st.sampled_from([0.4, 0.5]) | st.floats(0.05, 0.95)),
        lam=draw(st.sampled_from([2.0, 0.5]) | st.floats(0.1, 10.0)),
        margin=draw(st.sampled_from([0.1, 0.0]) | st.floats(0.0, 1.0)),
    )
    return (
        values + values.T,
        draw(st.lists(pairs, min_size=1, max_size=10)) + draw(st.lists(pages, max_size=2)),
        draw(st.lists(pages, min_size=1, max_size=4)),
        keys,
        draw(st.none() | st.integers(0, 4)),
    )


@settings(max_examples=60, deadline=None)
@given(case=refine_cases())
def test_refine_writes_what_the_composed_references_write(tmp_path_factory, case):
    values, member_sets, truth_sets, keys, max_fppt = case
    directory = tmp_path_factory.mktemp("refine")
    g = graph_from_dense(values)
    save_similarity(g, directory / "mixed.graph")
    save_candidates(member_sets, directory / "candidates.txt")
    save_candidates(truth_sets, directory / "truth.txt")
    argv = [
        "refine",
        "--graph", str(directory / "mixed.graph"),
        "--candidates", str(directory / "candidates.txt"),
        "--truth", str(directory / "truth.txt"),
        "--out-prefix", str(directory / "out"),
        *(f"--{name.replace('_', '-')}={value!r}" for name, value in keys.items()),
        *([] if max_fppt is None else ["--max-fppt", str(max_fppt)]),
    ]
    try:
        want = reference_refine_files(g, member_sets, truth_sets, PipelineConfig(**keys), max_fppt)
    except (InputError, ConvergenceError) as exc:
        assert main(argv) == (2 if isinstance(exc, ConvergenceError) else 1)
        return
    assert main(argv) == 0
    for suffix, data in want.items():
        assert (directory / ("out" + suffix)).read_bytes() == data, suffix


# ------------------------------------------------- run against the references
# The graph half in front of the same composition: the line-by-line dense
# loader, the dense kernel, the full-row kNN and a dense mix.


def reference_run_files(vis, txt, member_sets, truth_sets, config, max_fppt):
    """The bytes `hotmine run` writes, by file suffix."""
    values = [reference_load_similarity(path) for path in (vis, txt)]
    n = len(values[0])
    if len(values[1]) != n or n < 2:
        raise InputError("no graph")
    sides = []
    for dense, k in zip(values, (config.knn_vis, config.knn_txt)):
        if config.apply_kernel:
            dense = reference_gaussian_affinity(dense, config.sigma2_affinity)
        sides.append(reference_knn_sparsify(dense, min(k, n - 1)).toarray())
    g = graph_from_dense((sides[0] + sides[1]) * 0.5)
    return reference_refine_files(g, member_sets, truth_sets, config, max_fppt)


def triplet_text(n, entries) -> str:
    """A triplet file of the drawn (i, j, value) entries, in drawn order."""
    return "".join([f"{n} {len(entries)}\n", *(f"{i} {j} {v!r}\n" for i, j, v in entries)])


@st.composite
def run_cases(draw):
    """Two similarity files on at most 30 pages (now and then of different
    sizes), candidates, truth, the graph config keys and an FPPT budget."""
    n = draw(st.integers(2, 30))
    sizes = (n, n if draw(st.integers(0, 19)) else draw(st.integers(1, 30)))
    value = st.floats(0.01, 1.0) | st.sampled_from([0.25, 0.5, 1.0, 0.0])
    texts = []
    for size in sizes:
        upper = [(i, j) for i in range(size) for j in range(i + 1, size)]
        pairs = draw(st.lists(st.sampled_from(upper), unique=True, max_size=len(upper))) if upper else []
        texts.append(triplet_text(size, [(i, j, draw(value)) for i, j in pairs]))
    pages = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=n)
    pairs = st.frozensets(st.integers(0, n - 1), min_size=2, max_size=n)
    keys = dict(
        knn_vis=draw(st.integers(1, 35)),
        knn_txt=draw(st.integers(1, 35)),
        apply_kernel=draw(st.booleans()),
        sigma2_affinity=draw(st.none() | st.sampled_from([0.3, 1.0]) | st.floats(0.01, 4.0)),
    )
    return (
        texts,
        draw(st.lists(pairs, min_size=1, max_size=10)) + draw(st.lists(pages, max_size=2)),
        draw(st.lists(pages, min_size=1, max_size=4)),
        keys,
        draw(st.none() | st.integers(0, 4)),
    )


@settings(max_examples=60, deadline=None)
@given(case=run_cases())
def test_run_writes_what_the_composed_references_write(tmp_path_factory, case):
    texts, member_sets, truth_sets, keys, max_fppt = case
    directory = tmp_path_factory.mktemp("run")
    vis, txt = directory / "vis.sim", directory / "txt.sim"
    vis.write_text(texts[0])
    txt.write_text(texts[1])
    save_candidates(member_sets, directory / "candidates.txt")
    save_candidates(truth_sets, directory / "truth.txt")
    argv = [
        "run",
        "--vis", str(vis),
        "--txt", str(txt),
        "--candidates", str(directory / "candidates.txt"),
        "--truth", str(directory / "truth.txt"),
        "--out-prefix", str(directory / "out"),
        "--knn-vis", str(keys["knn_vis"]),
        "--knn-txt", str(keys["knn_txt"]),
        "--apply-kernel" if keys["apply_kernel"] else "--no-apply-kernel",
        *([] if keys["sigma2_affinity"] is None else [f"--sigma2-affinity={keys['sigma2_affinity']!r}"]),
        *([] if max_fppt is None else ["--max-fppt", str(max_fppt)]),
    ]
    try:
        want = reference_run_files(vis, txt, member_sets, truth_sets, PipelineConfig(**keys), max_fppt)
    except (InputError, ConvergenceError) as exc:
        assert main(argv) == (2 if isinstance(exc, ConvergenceError) else 1)
        assert_no_child_left()
        return
    assert main(argv) == 0
    assert_no_child_left()
    for suffix, data in want.items():
        assert (directory / ("out" + suffix)).read_bytes() == data, suffix
