"""The benchmark's workloads: what one round runs, how its outputs are
checked, and the end-to-end figures the rounds of a run yield.

A round is a fixed amount of work made from the workload seed, and every
round of a run repeats the same work.  Each figure is computed from the best
(shortest) time of every unit over the run's rounds: the speed of a shared
machine can change by a factor of two for seconds at a time, and a unit's
best time is the estimate such slow phases move least.  Slow phases longer
than a run are mostly taken out by scaling each unit's time to reference
seconds (``stats.SpeedProbe``) before the best is taken.  Output checks run
after a round's timer stops.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import gnbg
import gnbg.cli
from gnbg.optimizers import DEFAULT_THRESHOLD

from stats import median, protocol_core_h, ratio, tail

KINDS = ("ps", "pso", "de")


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


@dataclass
class Unit:
    """One timed unit of work: an optimizer run or a CLI command.

    ``key`` names the unit within a round; ``group`` is the (function,
    optimizer) pair or the command it belongs to.
    """

    key: str
    group: str
    kind: str | None
    seconds: float
    fe: int = 0
    stopped_at_threshold: bool = False
    start: float = 0.0  # perf_counter() when the unit began


@dataclass
class Round:
    wall_s: float
    units: list[Unit]
    failures: list[str]  # one entry per failed unit
    scale: float = 1.0  # reference seconds per second of this host; 1 when not probed


def _scaled(rnd: Round, probe) -> Round:
    """Scale each unit's time to reference seconds by the host speed around
    it, when the round was probed."""
    if probe is not None:
        rnd.scale = probe.scale()
        for u in rnd.units:
            u.seconds *= probe.scale(u.start, u.start + u.seconds)
    return rnd


def best_units(rounds: list[Round]) -> list[Unit]:
    """Each unit's fastest repetition over the rounds."""
    best: dict[str, Unit] = {}
    for rnd in rounds:
        for u in rnd.units:
            if u.key not in best or u.seconds < best[u.key].seconds:
                best[u.key] = u
    return list(best.values())


def check_run(instance, history, result, budget: int, threshold: float) -> list[str]:
    """Invariants every fixed-budget run must satisfy, whatever its RNG stream."""
    problems = []
    if not result.fe_used <= budget:
        problems.append(f"fe_used {result.fe_used} exceeds the budget {budget}")
    if not result.best_error >= 0:
        problems.append(f"best_error {result.best_error!r} is negative")
    if gnbg.evaluate(instance, result.best_position) != result.best_value:
        problems.append("evaluate(best_position) differs from best_value")
    if result.success != (result.best_error <= threshold):
        problems.append("success disagrees with best_error <= threshold")
    if not result.success and result.fe_used < budget:
        problems.append(f"stopped at {result.fe_used} FE, before the budget, without success")
    errors = [err for _, err in history]
    if any(b > a for a, b in zip(errors, errors[1:])):
        problems.append("best-error history increases")
    return problems


def _null_span(_name):
    return contextlib.nullcontext()


class OptimizerLoop:
    """Fixed-budget runs of every optimizer on suite functions, called
    in-process through ``run_optimizer`` with a fresh evaluator each."""

    def __init__(self, name: str, functions, budget: int, repeats: int):
        self.name = name
        self.functions = tuple(functions)
        self.budget = budget
        self.repeats = repeats

    def setup(self, seed: int, span=_null_span) -> None:
        self.seed = seed
        self.instances = {}
        for fid in self.functions:
            with span("generators.suite_instance"):
                self.instances[fid] = gnbg.suite_instance(fid, seed)

    def round(self, span=_null_span, evaluator=gnbg.BudgetedEvaluator, probe=None) -> Round:
        units, done, failures = [], [], []
        t0 = perf_counter()
        for fid, inst in self.instances.items():
            for k, kind in enumerate(KINDS):
                for rep in range(self.repeats):
                    if probe is not None:
                        probe.poll()
                    cfg = gnbg.OptimizerConfig(kind=kind, seed=derived_seed(self.seed, fid, k, rep))
                    ev = evaluator(inst, self.budget)
                    group = f"f{fid}/{kind}"
                    key = f"{group}/{rep}"
                    a = perf_counter()
                    try:
                        with span("optimizers." + kind):
                            res = gnbg.run_optimizer(ev, cfg)
                    except Exception as exc:  # a failed run is counted, not fatal
                        units.append(Unit(key, group, kind, perf_counter() - a, start=a))
                        failures.append(f"{key} raised {exc!r}")
                        continue
                    units.append(
                        Unit(key, group, kind, perf_counter() - a, res.fe_used, res.success, a)
                    )
                    done.append((key, inst, ev.history, res))
        wall = perf_counter() - t0
        for key, inst, history, res in done:
            try:
                problems = check_run(inst, history, res, self.budget, DEFAULT_THRESHOLD)
            except Exception as exc:
                problems = [f"check raised {exc!r}"]
            if problems:
                failures.append(f"{key}: " + "; ".join(problems))
        return _scaled(Round(wall, units, failures), probe)

    def figures(self, rounds: list[Round]) -> dict:
        units = best_units(rounds)
        seconds, fes = {}, {}
        for u in units:
            seconds[u.group] = seconds.get(u.group, 0.0) + u.seconds
            fes[u.group] = fes.get(u.group, 0) + u.fe
        us_per_fe = {g: 1e6 * ratio(seconds[g], fes[g]) for g in seconds}
        fe_per_s = ratio(sum(fes.values()), sum(seconds.values()))
        return _common_figures(units, fe_per_s, protocol_core_h(us_per_fe))


class DeskPipeline:
    """The desk-scale command-line flow, run in-process through
    ``gnbg.cli.main`` with its output captured."""

    name = "desk-pipeline"
    GRID_FUNCTIONS = (1, 9, 24)  # cheap, mid and expensive to evaluate
    GRID_RESOLUTION = 41
    SWEEP_VALUES = (0.25, 0.5, 0.75, 1.0)
    SWEEP_OPTIMIZER = "ps"
    SWEEP_RUNS = 8
    SWEEP_BUDGET = 2000

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.workers = min(2, len(os.sched_getaffinity(0)))

    def setup(self, seed: int, span=_null_span) -> None:
        self.seed = seed

    def sweep_argv(self, out: str, workers: int) -> list[str]:
        return [
            "sweep", "--scenario", "linearity",
            "--values", ",".join(str(v) for v in self.SWEEP_VALUES),
            "--optimizer", self.SWEEP_OPTIMIZER, "--runs", str(self.SWEEP_RUNS),
            "--budget", str(self.SWEEP_BUDGET), "--seed", str(self.seed),
            "--workers", str(workers),
            "--csv", os.path.join(out, "sweep.csv"), "--json", os.path.join(out, "sweep.json"),
        ]

    def commands(self, out: str) -> list[tuple[str, list[str]]]:
        files = [os.path.join(out, f"f{k}.gnbg.json") for k in range(1, 25)]
        cmds = [("suite", ["suite", "--all", "--seed", str(self.seed), "--out", out])]
        cmds += [("verify", ["verify", "--instance", f]) for f in files]
        cmds += [("classify", ["classify", "--instance", f]) for f in files]
        cmds += [
            ("grid", ["grid", "--instance", files[k - 1], "--i", "0", "--j", "1",
                      "--resolution", str(self.GRID_RESOLUTION),
                      "--out", os.path.join(out, f"grid{k}.json")])
            for k in self.GRID_FUNCTIONS
        ]
        cmds.append(("sweep", self.sweep_argv(out, self.workers)))
        return cmds

    def round(self, span=_null_span, evaluator=None, probe=None) -> Round:
        out = tempfile.mkdtemp(prefix="desk-", dir=self.workdir)
        try:
            units, outputs = [], []
            t0 = perf_counter()
            for i, (cmd, argv) in enumerate(self.commands(out)):
                if probe is not None:
                    probe.poll()
                a = perf_counter()
                with span("cli." + cmd):
                    code, stdout, stderr = run_cli(argv)
                units.append(Unit(f"{i}:{cmd}", cmd, None, perf_counter() - a, start=a))
                outputs.append((cmd, argv, code, stdout, stderr))
            wall = perf_counter() - t0
            failures = []
            for (cmd, argv, code, stdout, stderr), unit in zip(outputs, units):
                try:
                    problems = self._check(cmd, argv, code, stdout, stderr, out)
                    if cmd == "sweep" and not problems:
                        unit.fe = _sweep_fe(out)
                except Exception as exc:
                    problems = [f"check raised {exc!r}"]
                if problems:
                    failures.append(f"gnbg {' '.join(argv[:3])}: " + "; ".join(problems))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return _scaled(Round(wall, units, failures), probe)

    def _check(self, cmd, argv, code, stdout, stderr, out) -> list[str]:
        if code != 0:
            return [f"exit code {code}: {stderr.strip()}"]
        if cmd == "suite":
            missing = [k for k in range(1, 25) if not os.path.isfile(os.path.join(out, f"f{k}.gnbg.json"))]
            return [f"missing instance files {missing}"] if missing else []
        if cmd == "verify":
            return [] if stdout == "ok\n" else [f"printed {stdout!r}, not ok"]
        if cmd == "classify":
            record = json.loads(stdout)
            return [] if record["num_components"] >= 1 else ["no components"]
        if cmd == "grid":
            with open(argv[argv.index("--instance") + 1]) as fh:
                floor = gnbg.load_instance(fh.read()).optimum_value
            with open(argv[argv.index("--out") + 1]) as fh:
                values = np.array(json.load(fh)["values"], dtype=float)
            problems = []
            if values.shape != (self.GRID_RESOLUTION,) * 2:
                problems.append(f"grid shape {values.shape}")
            if not np.all(values >= floor):
                problems.append("grid value below the optimum value")
            return problems
        return self._check_sweep(out)

    def _check_sweep(self, out) -> list[str]:
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = list(csv.reader(fh))[1:]
        problems = []
        if [float(row[0]) for row in rows] != list(self.SWEEP_VALUES):
            problems.append(f"CSV has {len(rows)} rows, not one per knob value")
        with open(os.path.join(out, "sweep.json")) as fh:
            reports = json.load(fh)
        for report in reports:
            for run in report["run_results"]:
                if not run["fe_used"] <= self.SWEEP_BUDGET or not run["best_error"] >= 0:
                    problems.append(f"knob {report['knob']}: run outside budget or below optimum")
                if run["success"] != (run["best_error"] <= DEFAULT_THRESHOLD):
                    problems.append(f"knob {report['knob']}: success disagrees with best_error")
        return problems

    @staticmethod
    def sweep_seconds(rnd: Round) -> float:
        return next(u.seconds for u in rnd.units if u.group == "sweep")

    def figures(self, rounds: list[Round]) -> dict:
        units = best_units(rounds)
        sweep = next(u for u in units if u.group == "sweep")
        core_us_per_fe = 1e6 * self.workers * ratio(sweep.seconds, sweep.fe)
        pairs = {(v, self.SWEEP_OPTIMIZER): core_us_per_fe for v in self.SWEEP_VALUES}
        return _common_figures(units, ratio(sweep.fe, sweep.seconds), protocol_core_h(pairs))

    def serial_sweep_s(self, repeats: int = 3) -> float:
        """Best wall time of the round's sweep runs executed on one process."""
        best = float("inf")
        for _ in range(repeats):
            out = tempfile.mkdtemp(prefix="serial-", dir=self.workdir)
            try:
                a = perf_counter()
                code, _, stderr = run_cli(self.sweep_argv(out, 1))
                best = min(best, perf_counter() - a)
            finally:
                shutil.rmtree(out, ignore_errors=True)
            if code != 0:
                raise RuntimeError(f"serial sweep exited {code}: {stderr.strip()}")
        return best


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``gnbg`` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gnbg.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _sweep_fe(out: str) -> int:
    with open(os.path.join(out, "sweep.json")) as fh:
        reports = json.load(fh)
    return sum(run["fe_used"] for report in reports for run in report["run_results"])


def _common_figures(units: list[Unit], fe_per_s: float, core_h: float) -> dict:
    ms = [1e3 * u.seconds for u in units]
    tail_ms, rank, count = tail(ms)
    return {
        "wall_s": sum(u.seconds for u in units),
        "fe_per_s": fe_per_s,
        "protocol_core_h": core_h,
        "run_ms.p50": median(ms),
        "run_ms.tail": tail_ms,
        "_tail_rank": rank,
        "_tail_count": count,
    }


def make(name: str, workdir: str):
    if name == "suite-protocol":
        return OptimizerLoop(name, range(1, 25), budget=1000, repeats=1)
    if name == "unimodal-loop":
        return OptimizerLoop(name, range(1, 7), budget=2500, repeats=3)
    if name == "desk-pipeline":
        return DeskPipeline(workdir)
    raise ValueError(f"unknown workload {name!r}")
