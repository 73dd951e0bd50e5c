"""Command-line front end.

One subcommand per pipeline stage plus end-to-end drivers:

    hotmine synth       generate a synthetic corpus with ground truth
    hotmine graph       kernel + kNN + mix two similarity matrices
    hotmine candidates  threshold-cascade candidates from a graph
    hotmine rank        weight and rank candidates
    hotmine bundle      rank, then bundle into coarse topics
    hotmine refine      full pipeline on a prebuilt graph
    hotmine run         full pipeline from raw matrices
    hotmine eval        score a detections file against ground truth
    hotmine oracle      property checks on random instances

Every pipeline knob is a flag; `--config FILE` loads a JSON object with
the same keys, and the flags given override it (`_parse`, the one place argv
is read). Exit codes: 0 success, 1 bad input, usage, work that does not fit
in memory or a failed oracle check, 2 convergence failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .candidates import cascade_candidates, load_candidates, save_candidates
from .errors import ConvergenceError, InputError, check_int
from .evaluation import EvaluationReport, evaluate, load_ground_truth, write_curves
from .graph import load_graph, save_similarity
from .oracle import check_monotonicity, check_submodularity, sample_instance
from .pipeline import (
    STAGES,
    PipelineConfig,
    build_mixed_graph_from_files,
    field_type,
    run_br,
    write_detections,
    write_provenance,
)
from .synth import SyntheticScenario, generate_synthetic


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InputError (exit 1); exit 2 means non-convergence."""

    def error(self, message: str) -> NoReturn:
        raise InputError(f"{self.prog}: {message}")


def _load_config_file(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except UnicodeDecodeError as exc:
        raise InputError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    return data


def _config_flags() -> argparse.ArgumentParser:
    """One flag per PipelineConfig field, typed by the field's class default,
    as a parent parser. A flag has no default: only the flags given reach
    the namespace."""
    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group("pipeline config", argument_default=argparse.SUPPRESS)
    for field in dataclasses.fields(PipelineConfig):
        flag, kind = "--" + field.name.replace("_", "-"), field_type(field)
        if kind is bool:
            g.add_argument(flag, action=argparse.BooleanOptionalAction)
        elif kind is tuple:
            g.add_argument(flag, type=_list_of(float), metavar="T1,T2,...")
        else:
            g.add_argument(flag, type=kind)
    return parent


def _list_of(kind: type):
    """argparse type for a comma-separated list of `kind` values."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(",") if part.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"bad {kind.__name__} list {text!r}"
            ) from exc

    return parse


def _int_at_least(least: int):
    """argparse type for an int >= least, as errors.check_int rules it."""

    def parse(text: str) -> int:
        with contextlib.suppress(ValueError):  # InputError is a ValueError
            return check_int("value", int(text), least)
        raise argparse.ArgumentTypeError(f"must be an int >= {least}, got {text!r}")

    return parse


# synth flags not spelled as their SyntheticScenario field
_SYNTH_FLAGS = {
    "fragments_per_topic": "--fragments",
    "noise_cluster_size": "--cluster-size",
    "noise_cluster_count": "--cluster-count",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hotmine",
        description="Mine hot topics from webpage similarity graphs.",
    )
    parser.add_argument("--version", action="version", version=f"hotmine {__version__}")
    parser.add_argument(
        "--config",
        metavar="FILE",
        help="JSON file with PipelineConfig keys; flags override it",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flag sets that several subcommands share, as parent parsers
    config = _config_flags()
    raw = argparse.ArgumentParser(add_help=False)
    raw.add_argument("--vis", required=True, help="visual similarity file")
    raw.add_argument("--txt", required=True, help="textual similarity file")
    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("--graph", required=True)
    cands = argparse.ArgumentParser(add_help=False)
    cands.add_argument("--candidates", required=True)
    tail = argparse.ArgumentParser(add_help=False)
    tail.add_argument("--truth", help="optional ground-truth file")
    tail.add_argument("--out-prefix", required=True)
    tail.add_argument("--stop-after", choices=STAGES, default="refine")
    tail.add_argument("--max-fppt", type=_int_at_least(0), default=None)

    p = sub.add_parser("synth", parents=[config], help="generate a synthetic corpus")
    p.add_argument("--n", dest="n_webpages", type=int, required=True, help="total webpage count")
    p.add_argument("--topic-sizes", type=_list_of(int), required=True, metavar="S1,S2,...")
    for field in dataclasses.fields(SyntheticScenario):
        if field.default is not dataclasses.MISSING:
            flag = _SYNTH_FLAGS.get(field.name, "--" + field.name.replace("_", "-"))
            p.add_argument(flag, dest=field.name, type=field_type(field), default=field.default)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("graph", parents=[raw, config], help="build the mixed kNN graph")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("candidates", parents=[graph, config], help="cascade candidates from a graph")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_candidates)

    p = sub.add_parser("rank", parents=[graph, cands, config], help="weight and rank candidates")
    p.add_argument("--out", required=True, help="ranked candidate file")
    p.set_defaults(handler=_cmd_rank)

    p = sub.add_parser("bundle", parents=[graph, cands, config], help="rank and bundle into coarse topics")
    p.add_argument("--out", required=True, help="coarse topic file")
    p.set_defaults(handler=_cmd_bundle)

    p = sub.add_parser(
        "refine", parents=[graph, cands, tail, config], help="full pipeline on a prebuilt graph"
    )
    p.set_defaults(handler=_cmd_refine)

    p = sub.add_parser("run", parents=[raw, cands, tail, config], help="full pipeline from raw matrices")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("eval", help="score detections against ground truth")
    p.add_argument("--detections", required=True, help="file in rank order")
    p.add_argument("--truth", required=True)
    p.add_argument("--n", type=int, required=True, help="total webpage count")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--max-fppt", type=_int_at_least(0), default=None)
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("oracle", help="run property checks on random instances")
    p.add_argument("--trials", type=int, default=1000, help="trials per check")
    p.add_argument("--nodes", type=_int_at_least(2), default=8, help="instance size")
    p.add_argument("--instances", type=_int_at_least(1), default=5)
    p.add_argument("--oracle-seed", type=_int_at_least(0), default=0)
    p.set_defaults(handler=_cmd_oracle)
    return parser


def _parse(argv: list[str]) -> tuple[argparse.Namespace, PipelineConfig]:
    """The parsed argv, without config flags, and the config: the --config
    file's values checked on their own, then the flags given applied."""
    args = _build_parser().parse_args(argv)
    config = PipelineConfig.from_dict(_load_config_file(args.config) if args.config else {})
    names = [field.name for field in dataclasses.fields(PipelineConfig)]
    flags = {name: vars(args).pop(name) for name in names if name in vars(args)}
    return args, dataclasses.replace(config, **flags)


def _cmd_synth(args: argparse.Namespace, config: PipelineConfig) -> int:
    fields = dataclasses.fields(SyntheticScenario)
    scenario = SyntheticScenario(**{field.name: getattr(args, field.name) for field in fields})
    data = generate_synthetic(scenario, seed=config.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_similarity(data.w_vis, out / "vis.sim")
    save_similarity(data.w_txt, out / "txt.sim")
    save_candidates(data.candidates, out / "candidates.txt")
    save_candidates(data.truth.topics, out / "truth.txt")
    for name in ("vis.sim", "txt.sim", "candidates.txt", "truth.txt"):
        print(out / name)
    return 0


def _cmd_graph(args: argparse.Namespace, config: PipelineConfig) -> int:
    graph = build_mixed_graph_from_files(config, args.vis, args.txt)
    save_similarity(graph, args.out)
    print(f"{args.out}: {graph.n} nodes, {graph.edge_count} edges")
    return 0


def _cmd_candidates(args: argparse.Namespace, config: PipelineConfig) -> int:
    graph = load_graph(args.graph)
    cands = cascade_candidates(graph, thresholds=config.cascade_thresholds)
    save_candidates(cands, args.out)
    print(f"{args.out}: {len(cands)} candidates")
    return 0


def _load_graph_inputs(args: argparse.Namespace):
    graph = load_graph(args.graph)
    return graph, load_candidates(args.candidates, n=graph.n)


def _cmd_rank(args: argparse.Namespace, config: PipelineConfig) -> int:
    graph, cands = _load_graph_inputs(args)
    result = run_br(config, graph, cands, stop_after="rank")
    ranked = [cands[det.sources[0]] for det in result.detections]
    header = [
        f"rank {pos}: interestingness={item.interestingness!r} "
        f"weight={item.weight!r} size={item.size}"
        for pos, item in enumerate(ranked)
    ]
    save_candidates(ranked, args.out, header=header)
    print(f"{args.out}: {len(ranked)} candidates ranked")
    return 0


def _cmd_bundle(args: argparse.Namespace, config: PipelineConfig) -> int:
    graph, cands = _load_graph_inputs(args)
    result = run_br(config, graph, cands, stop_after="bundle")
    save_candidates(result.detections, args.out)
    print(f"{args.out}: {len(result.detections)} coarse topics")
    return 0


def _emit_report(report: EvaluationReport, stem: Path) -> None:
    for path in write_curves(report, stem):
        print(path)
    print(f"accuracy at FPPT<=5: {report.accuracy_at(5):.4f}")


def _run_and_write(args: argparse.Namespace, config: PipelineConfig, graph, cands) -> int:
    """Shared tail of refine and run: truth, run_br, outputs, report."""
    truth = load_ground_truth(args.truth, n=graph.n) if args.truth else None
    result = run_br(
        config, graph, cands, truth=truth, stop_after=args.stop_after, max_fppt=args.max_fppt
    )
    prefix = Path(args.out_prefix)
    topics = prefix.with_name(prefix.name + "_topics.txt")
    provenance = prefix.with_name(prefix.name + "_provenance.json")
    write_detections(result, topics)
    write_provenance(result, provenance)
    print(topics)
    print(provenance)
    if result.report is not None:
        _emit_report(result.report, prefix)
    return 0


def _cmd_refine(args: argparse.Namespace, config: PipelineConfig) -> int:
    graph, cands = _load_graph_inputs(args)
    return _run_and_write(args, config, graph, cands)


def _cmd_run(args: argparse.Namespace, config: PipelineConfig) -> int:
    graph = build_mixed_graph_from_files(config, args.vis, args.txt)
    return _run_and_write(args, config, graph, load_candidates(args.candidates, n=graph.n))


def _cmd_eval(args: argparse.Namespace, config: PipelineConfig) -> int:
    detections = load_candidates(args.detections, n=args.n)
    truth = load_ground_truth(args.truth, n=args.n)
    report = evaluate(detections, truth, max_fppt=args.max_fppt)
    _emit_report(report, Path(args.out_prefix))
    return 0


def _cmd_oracle(args: argparse.Namespace, config: PipelineConfig) -> int:
    rng = np.random.default_rng(args.oracle_seed)
    reports = []
    for seed in range(args.oracle_seed, args.oracle_seed + args.instances):
        pi, d = sample_instance(rng, args.nodes)
        for lam in (0.5, 1.0, 2.0, 5.0):
            reports.append(check_submodularity(pi, d, lam, args.trials, seed))
        pi, d = sample_instance(rng, args.nodes, normalize=True)
        for lam in (2.0, 3.0):
            reports.append(check_monotonicity(pi, d, lam, args.trials, seed))
    for report in reports:
        print(report.summary())
    failed = sum(not report.passed for report in reports)
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    try:
        args, config = _parse(sys.argv[1:] if argv is None else argv)
        try:
            return args.handler(args, config)
        except MemoryError as exc:
            raise InputError(f"hotmine {args.command}: out of memory ({exc})") from exc
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
