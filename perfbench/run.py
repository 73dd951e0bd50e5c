"""End-to-end and per-layer benchmark of `hotmine run`.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run:

1. generates the workload's four input files from the seed in a child
   process, so that the benchmark process's own peak RSS stays clean, and
   fingerprints them;
2. times children that only import `hotmine.cli` (`setup_s`);
3. with `--trace 0`, runs untraced `hotmine run` children one at a time
   until `--seconds` have passed, timing each from spawn to exit and
   reading its peak RSS from `os.wait4` (`run_s`, `peak_rss_mb`);
4. with `--trace 1`, runs one CLI child, then replays the pipeline
   in-process with spans (perfbench/tracing.py) and requires the replay's
   outputs to be byte-identical to the child's.

The speed of the same code on a shared machine drifts by tens of percent
within minutes, so the benchmark runs fixed yardstick work
(perfbench/yardstick.py) in a child before and after every CLI child.
`run_s` and `setup_s` are wall times scaled to a machine on which the
yardstick takes YARDSTICK_NOMINAL_S: each CLI child by the mean of its two
neighbouring yardstick runs, the set-up children by the run's median.
The raw wall times are kept in the full record.

Every CLI child's outputs are checked: exit code 0, no `error:` line, all
four files written, the same digests as the first child of the run and as
the reference in perfbench/expected.json (when it holds this workload and
seed, made from the same inputs), and every planted topic found with
F1 >= 0.9. A failed check counts the child as failed and is printed by
name. A digest that differs from a reference recorded on another platform
is printed by name as a warning instead (see `reference_outputs`).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
A summary goes to standard error. The full record (environment, input
fingerprints, every sample, failures, span self times) is written to
perfbench/.work/<label>/result.json and the spans to trace.json there.

`--smoke` runs the toy-size variant of a workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"

SETUP_SPAWNS = 5
# Times are reported in nominal seconds: wall time scaled by
# YARDSTICK_NOMINAL_S / (wall time of yardstick.py measured alongside). On
# the 2-core machine the benchmark was defined on, yardstick.py takes about
# this long, so nominal and wall seconds agree there on an average day.
YARDSTICK_NOMINAL_S = 1.3
F1_FLOOR = 0.9  # acceptance criterion a7's floor
TIME_LIMIT_S = 170.0  # children still running this long after start are killed
# One BLAS thread: the pipeline's only BLAS calls are small PageRank
# mat-vecs, and idle BLAS threads spinning on a shared 2-core box add noise.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI = "from hotmine.cli import main_entry; main_entry()"
OUTPUTS = ("_topics.txt", "_provenance.json", "_top10_f1.csv", "_accuracy.csv")


@dataclass
class Child:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    code: int
    rss_mb: float
    log: str


def spawn(cmd: list[str], log_path: Path, deadline: float) -> Child:
    """Run one child to completion, timed from spawn to exit; a child still
    running at the deadline is killed."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(max(0.0, deadline - start), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Child(wall, cpu, proc.returncode, usage.ru_maxrss / 1024.0, log_path.read_text())


def yardstick(work: Path, deadline: float) -> float:
    """Wall time of one run of the fixed yardstick work, in a child."""
    child = spawn([sys.executable, str(BENCH_DIR / "yardstick.py")], work / "yardstick.log", deadline)
    if child.code != 0:
        raise RuntimeError(f"the yardstick work failed:\n{child.log}")
    return child.wall_s


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output(prefix: Path, suffix: str) -> Path:
    return prefix.with_name(prefix.name + suffix)


def read_sets(path: Path) -> list[frozenset[int]]:
    """Member sets of a candidate-format file, '#' lines skipped."""
    lines = path.read_text().splitlines()
    return [frozenset(map(int, ln.split())) for ln in lines if ln.strip() and not ln.startswith("#")]


def min_topic_f1(detections: list[frozenset[int]], truth: list[frozenset[int]]) -> float:
    """For each planted topic the best F1 of any detection; the minimum."""
    return min(
        max((2.0 * len(d & t) / (len(d) + len(t)) for d in detections), default=0.0)
        for t in truth
    )


def accuracy_at_5(path: Path) -> float:
    """Accuracy at FPPT <= 5 from the run's `_accuracy.csv` report."""
    rows = [ln.split(",") for ln in path.read_text().splitlines()[1:]]
    return max((float(y) for x, y in rows if float(x) <= 5), default=0.0)


class Checker:
    """Output checks applied to every CLI child of one workload and seed."""

    def __init__(self, truth: list[frozenset[int]], expected: dict | None, strict: bool = True):
        self.truth = truth
        self.expected = expected  # reference output digests, if any
        self.strict = strict  # False: a reference mismatch is only a warning
        self.first: dict | None = None  # digests of the run's first child
        self.warnings: list[str] = []

    def check(self, child: Child, prefix: Path) -> tuple[list[str], dict]:
        """Names of the failed checks, and the child's quality figures."""
        failures = []
        if child.code != 0:
            failures.append(f"exit-code-{child.code}")
        if any(line.startswith("error:") for line in child.log.splitlines()):
            failures.append("error-line")
        missing = [s for s in OUTPUTS if not output(prefix, s).is_file()]
        failures.extend(f"missing{s}" for s in missing)
        if missing:
            return failures, {}
        digests = {
            "topics": sha256(output(prefix, "_topics.txt")),
            "provenance": sha256(output(prefix, "_provenance.json")),
        }
        for key, value in digests.items():
            if self.expected is not None and self.expected[key] != value:
                if self.strict:
                    failures.append(f"{key}-digest")
                elif f"{key}-digest" not in self.warnings:
                    self.warnings.append(f"{key}-digest")
                    print(f"warning: {key}-digest: differs from the reference, which was "
                          "recorded on another platform", file=sys.stderr)
            if self.first is not None and self.first[key] != value:
                failures.append(f"{key}-rerun")
        self.first = self.first or digests
        figures = {
            "min_topic_f1": min_topic_f1(read_sets(output(prefix, "_topics.txt")), self.truth),
            "acc_fppt5": accuracy_at_5(output(prefix, "_accuracy.csv")),
            "digests": digests,
        }
        if figures["min_topic_f1"] < F1_FLOOR:
            failures.append("f1-floor")
        return failures, figures


def environment() -> dict:
    import numpy
    import scipy

    cpu = {}
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            key, _, value = line.partition(":")
            cpu.setdefault(key.strip(), value.strip())
    features = hashlib.sha256(cpu.get("flags", "").encode()).hexdigest()[:12]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "ram_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "load": "one benchmark process running one child at a time",
        # What floating-point results may depend on.
        "platform": f"{platform.machine()} {cpu.get('model name', '?')} features {features} "
                    f"numpy {numpy.__version__} scipy {scipy.__version__}",
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy-size variant (n = 200)")
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    deadline = started + TIME_LIMIT_S
    args = parse_args(argv)
    if not (SRC / "hotmine" / "cli.py").is_file():
        return fail(f"no hotmine source under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # Children and the traced pass alike: the checkout's source, and BLAS
    # threads pinned before numpy is first imported.
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    import hotmine

    if Path(hotmine.__file__).resolve().parent != (SRC / "hotmine").resolve():
        return fail(f"imported hotmine from {hotmine.__file__}, not from {SRC}")
    from workloads import INPUT_FILES, SMOKE, WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    label = workload.name + ("-smoke" if args.smoke else "")
    work = BENCH_DIR / ".work" / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": label, "seed": args.seed, "environment": environment()}

    # 1. Inputs, fingerprinted and compared with the reference.
    inputs_dir = work / "inputs"
    gen_cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), workload.name, str(args.seed), str(inputs_dir)]
    gen = spawn(gen_cmd + (["--smoke"] if args.smoke else []), work / "generate.log", deadline)
    if gen.code != 0:
        return fail(f"input generation failed:\n{gen.log}")
    synth = json.loads(gen.log.strip().splitlines()[-1])
    inputs = {name: inputs_dir / name for name in INPUT_FILES}
    fingerprints = {name: sha256(path) for name, path in inputs.items()}
    expected, reference = reference_outputs(label, args.seed, fingerprints, record["environment"]["platform"])
    record.update(inputs=fingerprints, reference=reference)
    checker = Checker(read_sets(inputs["truth.txt"]), expected, strict=reference == "same platform")

    # 2. Set-up: interpreter start plus importing the CLI's dependencies.
    # The generating child has already warmed the file cache.
    setup = []
    for _ in range(SETUP_SPAWNS):
        child = spawn([sys.executable, "-c", "import hotmine.cli"], work / "setup.log", deadline)
        if child.code != 0:
            return fail(f"importing hotmine.cli failed:\n{child.log}")
        setup.append(child.wall_s)

    # 3. Untraced CLI children, one at a time.
    prefix = work / "cli"
    cli_cmd = [sys.executable, "-c", CLI, "run", "--vis", str(inputs["vis.sim"]),
               "--txt", str(inputs["txt.sim"]), "--candidates", str(inputs["candidates.txt"]),
               "--truth", str(inputs["truth.txt"]), "--out-prefix", str(prefix), *workload.cli_flags()]
    runs, failures, figures = [], [], {}
    measure_start = time.perf_counter()
    sticks = [yardstick(work, deadline)]
    while True:
        for suffix in OUTPUTS:
            output(prefix, suffix).unlink(missing_ok=True)
        child = spawn(cli_cmd, work / "cli.log", deadline)
        sticks.append(yardstick(work, deadline))
        failed, figures = checker.check(child, prefix)
        runs.append({
            "run_s": child.wall_s * YARDSTICK_NOMINAL_S / statistics.mean(sticks[-2:]),
            "wall_s": child.wall_s,
            "cpu_s": child.cpu_s,
            "peak_rss_mb": child.rss_mb,
            "failures": failed,
        })
        failures.extend(failed)
        elapsed = time.perf_counter() - measure_start
        if args.trace or failed or elapsed >= args.seconds or time.perf_counter() > deadline:
            break
    attempted = len(runs)
    failed_runs = sum(1 for r in runs if r["failures"])
    ok = [r for r in runs if not r["failures"]] or runs
    record.update(runs=runs, setup_wall_s=setup, yardstick_s=sticks, synth=synth,
                  outputs=figures.get("digests"), warnings=checker.warnings)
    metrics = {
        "run_s": statistics.median(r["run_s"] for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "setup_s": statistics.median(setup) * YARDSTICK_NOMINAL_S / statistics.median(sticks),
        "acc_fppt5": figures.get("acc_fppt5", 0.0),
        "min_topic_f1": figures.get("min_topic_f1", 0.0),
        "ok_ratio": (attempted - failed_runs) / attempted,
    }

    # 4. Traced pass, in this process.
    if args.trace:
        metrics, mismatched = traced_pass(workload, inputs, work, record)
        attempted += 1
        if mismatched:
            failed_runs += 1
            failures.extend(f"trace-equivalence{s}" for s in mismatched)
        metrics.update({
            "synth.generate_s": synth["generate_s"],
            "synth.write_s": synth["write_s"],
            # Wall times throughout, all taken within this run.
            "trace.overhead_ratio": (metrics["trace.total_s"] + statistics.median(setup)) / runs[0]["wall_s"],
        })

    names = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in metrics]
    if missing:
        return fail(f"no value for the metrics {missing}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed_runs,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    record.update(failures=failures, result=result, elapsed_s=time.perf_counter() - started)
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    summarize(record, metrics)
    print(json.dumps(result))
    return 0


def traced_pass(workload, inputs: dict, work: Path, record: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the in-process traced pass, and the outputs in
    which it differs from the CLI child's."""
    from tracing import TIMED_SPANS, Tracer, traced_run

    from hotmine.pipeline import PipelineConfig

    tracer = Tracer()
    traced = work / "traced"
    paths = {name.split(".")[0]: path for name, path in inputs.items()}
    layer = traced_run(PipelineConfig(**workload.config), paths, traced, tracer)
    tracer.dump(work / "trace.json")
    layer.update({f"{name}_s": tracer.total(name) for name in TIMED_SPANS})
    layer["trace.total_s"] = tracer.total("run")
    sims = [inputs["vis.sim"], inputs["txt.sim"]]
    layer["graph.input_lines"] = sum(p.read_bytes().count(b"\n") for p in sims)
    layer["graph.input_mb"] = sum(p.stat().st_size for p in sims) / 2**20
    layer["pipeline.provenance_kb"] = output(traced, "_provenance.json").stat().st_size / 1024
    mismatched = [
        suffix for suffix in ("_topics.txt", "_provenance.json")
        if not output(work / "cli", suffix).is_file()
        or output(work / "cli", suffix).read_bytes() != output(traced, suffix).read_bytes()
    ]
    if not layer.pop("ranking.same_weights"):
        mismatched.append("-iterate-weights")
    self_times = tracer.self_times()
    record.update(
        self_times=self_times,
        largest_self_time=max(self_times, key=self_times.get),
        solver_capped=bool(layer["ranking.capped"]),
    )
    if layer["ranking.capped"]:
        # `hotmine run` exits 0 even when the fit stops at its cap, so the
        # benchmark cannot learn this from the CLI child's exit code.
        print(f"warning: {record['workload']}: solver-cap: the ranking fit stopped at "
              f"pd_max_iter ({layer['ranking.iterations']} iterations)", file=sys.stderr)
    return layer, mismatched


def reference_outputs(label: str, seed: int, inputs: dict, platform: str) -> tuple[dict | None, str]:
    """The reference output digests to compare with, if any, and whether
    they were recorded on this platform.

    Outputs are compared only when the inputs match the reference's. A
    mismatch fails the run on the reference's own platform; on another
    platform it is a warning, because BLAS kernels chosen per CPU may
    round differently although the program did not change.
    """
    table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    entry = table.get(label, {}).get(str(seed))
    if entry is None:
        return None, "none"
    if entry["inputs"] != inputs:
        changed = sorted(k for k in inputs if entry["inputs"].get(k) != inputs[k])
        print(f"warning: inputs of {label} seed {seed} differ from the reference "
              f"({', '.join(changed)}); output digests are not compared", file=sys.stderr)
        return None, "inputs changed"
    return entry["outputs"], "same platform" if entry["platform"] == platform else "other platform"


def summarize(record: dict, metrics: dict) -> None:
    env = record["environment"]
    lines = [
        f"{record['workload']} seed {record['seed']}: {len(record['runs'])} CLI run(s); "
        f"reference digests: {record['reference']}",
        f"  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, nproc {env['nproc']}, "
        f"RAM {env['ram_total_mb']:.0f} MiB, BLAS threads {env['blas_threads']}",
    ]
    lines += [f"  {k} = {v:.6g}" for k, v in metrics.items()]
    if "largest_self_time" in record:
        lines.append(f"  largest self time: {record['largest_self_time']}")
    if record["warnings"]:
        lines.append(f"  warnings: {', '.join(record['warnings'])}")
    if record["failures"]:
        lines.append(f"  FAILED checks: {', '.join(record['failures'])}")
    print("\n".join(lines), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
