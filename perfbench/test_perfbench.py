"""Tests of the benchmark itself, on the toy-size workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_checks_outputs_and_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}

    work = BENCH / ".work" / f"{workload}-smoke"
    record = json.loads((work / "result.json").read_text())
    # expected.json holds seed 0 of every smoke variant, made from these
    # inputs; on its own platform a digest mismatch would have failed above.
    assert record["reference"] in ("same platform", "other platform")
    if trace:
        spans = json.loads((work / "trace.json").read_text())
        assert {s["name"] for s in spans} >= {"run", "graph.load", "ranking.fit", "refining.topic"}
        assert not record["solver_capped"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "dense-corpus", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checker_names_each_failed_check(tmp_path):
    prefix = tmp_path / "cli"
    truth = [frozenset({0, 1, 2}), frozenset({5, 6})]

    def write_outputs(topics: str) -> None:
        run.output(prefix, "_topics.txt").write_text(topics)
        run.output(prefix, "_provenance.json").write_text("{}\n")
        run.output(prefix, "_top10_f1.csv").write_text("x,y\n1,0.2\n")
        run.output(prefix, "_accuracy.csv").write_text("x,y\n0,0.5\n5,1.0\n6,1.0\n")

    def child(code: int = 0, log: str = "") -> run.Child:
        return run.Child(wall_s=1.0, cpu_s=1.0, code=code, rss_mb=10.0, log=log)

    write_outputs("# stage: refine\n0 1 2\n5 6\n")
    checker = run.Checker(truth, expected=None)
    failures, figures = checker.check(child(log="ok\n"), prefix)
    assert failures == []
    assert figures["min_topic_f1"] == 1.0 and figures["acc_fppt5"] == 1.0

    write_outputs("# stage: refine\n0 1 2\n5 7 8 9\n")
    failures, figures = checker.check(child(2, "error: capped\n"), prefix)
    assert failures == ["exit-code-2", "error-line", "topics-rerun", "f1-floor"]
    assert figures["min_topic_f1"] == pytest.approx(1 / 3)

    reference = {"topics": "0" * 64, "provenance": "0" * 64}
    stale = run.Checker(truth, expected=reference)
    failures, _ = stale.check(child(), prefix)
    assert failures == ["topics-digest", "provenance-digest", "f1-floor"]
    assert stale.warnings == []

    # A reference from another platform: mismatches are named warnings.
    foreign = run.Checker(truth, expected=reference, strict=False)
    failures, _ = foreign.check(child(), prefix)
    assert failures == ["f1-floor"]
    assert foreign.warnings == ["topics-digest", "provenance-digest"]

    run.output(prefix, "_accuracy.csv").unlink()
    failures, _ = checker.check(child(), prefix)
    assert failures == ["missing_accuracy.csv"]
