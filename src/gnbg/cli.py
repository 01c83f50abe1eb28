"""Command-line surface: instance generation, evaluation, experiments,
grids, and self-checks.

Exit codes: 0 success, 1 usage error, 2 data or validation error.  The
GNBG_SEED environment variable supplies the default seed when no --seed
flag is given.  All outputs are deterministic for fixed inputs, and each
JSON output is one line (``instance_io._json_text``).
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

import numpy as np

from . import generators
from .core import classify, dominated_components, evaluate, evaluate_batch
from .generators import ScenarioConfig, suite_instance
from .harness import (
    DEFAULT_BUDGET,
    DEFAULT_RUNS,
    DEFAULT_THRESHOLD,
    ExperimentSpec,
    run_experiment,
    sweep,
)
from .instance_io import (
    InstanceFormatError,
    _json_float,
    _json_text,
    csv_report_text,
    dump_instance,
    export_grid,
    load_instance,
    load_points,
    report_to_dict,
)
from .optimizers import SEARCHES, OptimizerConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _default_seed() -> int:
    raw = os.environ.get("GNBG_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise _UsageError(f"GNBG_SEED must be an integer, got {raw!r}") from None


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _number_list(flag: str, raw: str, kind) -> list:
    """Parse a comma-separated flag value; a malformed one is a usage error."""
    try:
        return [kind(v) for v in raw.split(",")]
    except ValueError:
        raise _UsageError(f"{flag} must be a comma-separated list, got {raw!r}") from None


# --scenario name -> instance at one knob value
_SCENARIOS = {
    "linearity": lambda value, cfg, args: generators.gen_linearity(value, cfg),
    "conditioning": lambda value, cfg, args: generators.gen_conditioning(value, cfg=cfg),
    "interaction": lambda value, cfg, args: generators.gen_interaction(p_prob=value, cfg=cfg),
    "multimodal": lambda value, cfg, args: generators.gen_multimodal(value, args.omega, cfg),
    "multicomponent": lambda value, cfg, args: generators.gen_multicomponent(value, cfg),
}


def _scenario_instance(name: str, value: float, args) -> "generators.ProblemInstance":
    return _SCENARIOS[name](value, ScenarioConfig(dim=args.dim, seed=args.seed), args)


def _add_scenario_flags(p):
    p.add_argument("--scenario", required=True, choices=list(_SCENARIOS))
    p.add_argument("--dim", type=int, default=generators.DEFAULT_DIM)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--omega", type=float, default=0.0,
                   help="shared frequency for the multimodal scenario")


def _add_protocol_flags(p, with_seed=True):
    p.add_argument("--optimizer", required=True, choices=list(SEARCHES))
    p.add_argument("--runs", type=int, default=DEFAULT_RUNS)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--milestones", type=str, default=None,
                   help="comma-separated FE milestones")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.add_argument("--population", type=int, default=OptimizerConfig.population)
    if with_seed:
        p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--csv", type=str, default=None, help="write the CSV report here")
    p.add_argument("--json", type=str, default=None, help="write the full JSON report here")


@cache  # parse_args keeps no state in the parser, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="gnbg")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit one scenario instance as JSON")
    _add_scenario_flags(p)
    p.add_argument("--value", type=float, required=True,
                   help="the scenario's knob value (lambda, condition number, ...)")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("suite", help="emit suite instances f1..f24")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", type=int)
    group.add_argument("--all", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None,
                   help="file for --id, directory for --all")

    p = sub.add_parser("evaluate", help="evaluate an instance at stored points")
    p.add_argument("--instance", required=True)
    p.add_argument("--point", required=True,
                   help="file with a JSON array (or rows of numbers, one point per line)")

    p = sub.add_parser("run", help="run one aggregated experiment")
    p.add_argument("--instance", type=str, default=None)
    p.add_argument("--suite", type=int, default=None)
    p.add_argument("--instance-seed", type=int, default=0)
    _add_protocol_flags(p)

    p = sub.add_parser("sweep", help="run an experiment per knob value")
    _add_scenario_flags(p)
    p.add_argument("--values", type=str, required=True,
                   help="comma-separated knob values")
    _add_protocol_flags(p, with_seed=False)

    p = sub.add_parser("grid", help="export a 2-D slice of the landscape")
    p.add_argument("--instance", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--fixed", type=str, default=None,
                   help="file with the pinned coordinates (default: optimum)")
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("classify", help="print an instance's characteristics")
    p.add_argument("--instance", required=True)

    p = sub.add_parser("verify", help="self-check an instance document")
    p.add_argument("--instance", required=True)
    return parser


def _cmd_generate(args) -> int:
    instance = _scenario_instance(args.scenario, args.value, args)
    _write_out(dump_instance(instance), args.out)
    return EXIT_OK


def _cmd_suite(args) -> int:
    if args.all:
        if args.out is None:
            raise _UsageError("--all requires --out DIRECTORY")
        os.makedirs(args.out, exist_ok=True)
        for k in range(1, generators.SUITE_SIZE + 1):
            path = os.path.join(args.out, f"f{k}.gnbg.json")
            _write_out(dump_instance(suite_instance(k, args.seed)), path)
        return EXIT_OK
    _write_out(dump_instance(suite_instance(args.id, args.seed)), args.out)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    instance = load_instance(_read(args.instance))
    points = load_points(_read(args.point), instance.dim, args.point)
    for value in evaluate_batch(instance, points).tolist():
        sys.stdout.write(repr(value) + "\n")
    return EXIT_OK


def _spec(args, instance, knob=None) -> ExperimentSpec:
    """The experiment the protocol flags describe."""
    return ExperimentSpec(
        instance=instance,
        optimizer=OptimizerConfig(kind=args.optimizer, seed=args.seed, population=args.population),
        runs=args.runs,
        budget=args.budget,
        milestones=(None if args.milestones is None
                    else _number_list("--milestones", args.milestones, int)),
        threshold=args.threshold,
        knob=knob,
    )


def _emit_reports(args, reports) -> None:
    _write_out(csv_report_text(reports), args.csv)
    if args.json is not None:
        _write_out(_json_text([report_to_dict(r) for r in reports]), args.json)


def _cmd_run(args) -> int:
    if (args.instance is None) == (args.suite is None):
        raise _UsageError("exactly one of --instance / --suite is required")
    if args.instance is not None:
        instance = load_instance(_read(args.instance))
    else:
        instance = suite_instance(args.suite, args.instance_seed)
    _emit_reports(args, [run_experiment(_spec(args, instance), workers=args.workers)])
    return EXIT_OK


def _cmd_sweep(args) -> int:
    values = _number_list("--values", args.values, float)
    specs = [_spec(args, _scenario_instance(args.scenario, v, args), v) for v in values]
    _emit_reports(args, sweep(specs, workers=args.workers))
    return EXIT_OK


def _cmd_grid(args) -> int:
    instance = load_instance(_read(args.instance))
    if args.fixed is not None:
        fixed, *more = load_points(_read(args.fixed), instance.dim, args.fixed)
        if more:
            raise InstanceFormatError(f"{args.fixed}: expected one point, got {1 + len(more)}")
    else:
        fixed = instance.optimum_position
    doc = export_grid(instance, args.i, args.j, args.resolution, fixed)
    _write_out(_json_text(doc), args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    record = classify(load_instance(_read(args.instance)))
    for entry in (record, *record["components"]):  # an overflowed ratio is null
        entry["condition_number"] = _json_float(entry["condition_number"])
    sys.stdout.write(_json_text(record))
    return EXIT_OK


def _cmd_verify(args) -> int:
    text = _read(args.instance)
    instance = load_instance(text)
    problems = []
    gap = evaluate(instance, instance.optimum_position) - instance.optimum_value
    if not abs(gap) <= 1e-9:
        problems.append(f"optimum mismatch: f(m*) - sigma* = {gap:.3e}")
    if instance.optimum_index in dominated_components(instance):
        problems.append("optimum component is dominated")
    canonical = dump_instance(instance)
    # load_instance is a pure function of its text: when the dump gives back
    # the bytes read, re-parsing it rebuilds this instance bit for bit, and
    # the probes could not differ.  A lossy dump or parse changes the bytes.
    if canonical != text:
        reparsed = load_instance(canonical)
        rng = np.random.default_rng(0)
        probes = rng.uniform(instance.lower, instance.upper, size=(100, instance.dim))
        a, b = evaluate_batch(instance, probes), evaluate_batch(reparsed, probes)
        if not np.array_equal(a, b):  # JSON round-trips binary64 exactly
            problems.append("round-trip evaluation mismatch")
    if problems:
        for line in problems:
            sys.stderr.write(f"verify: {line}\n")
        return EXIT_DATA
    sys.stdout.write("ok\n")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "suite": _cmd_suite,
    "evaluate": _cmd_evaluate,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "grid": _cmd_grid,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) is None:  # a command with --seed, not given
            args.seed = _default_seed()
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"gnbg: {exc}\n")
        return EXIT_USAGE
    except (InstanceFormatError, ValueError, OSError) as exc:
        sys.stderr.write(f"gnbg: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
