"""Benchmark of the gnbg package: end-to-end figures per workload, or
per-layer figures from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite-protocol --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process

The workloads and the metric names and units are declared in BENCHMARK.json
at the root.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it say how the
figures were taken and record the environment.  Exits 2 when the checkout
has no gnbg package to measure, 3 when a self-test of the benchmark fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread per process, set before numpy loads, so the benchmark and
# its pool workers never run more threads than there are CPUs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5


def _parse(argv, workloads):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", choices=[*workloads, "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one set-up in this process and print it")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def _setup_probe(name: str, seed: int) -> None:
    t0 = perf_counter()
    import workloads

    workloads.make(name, str(OUT)).setup(seed)
    print(perf_counter() - t0)


def _setup_probe_seconds(name: str, seed: int) -> float:
    """One set-up (imports plus inputs) timed in a fresh process."""
    done = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _repeat(step, seconds: float) -> list:
    """Call ``step()`` while the next call is expected to end within
    ``seconds``; always at least once."""
    results, t0 = [], perf_counter()
    while True:
        a = perf_counter()
        results.append(step())
        if perf_counter() - t0 + (perf_counter() - a) > seconds:
            return results


def _end_to_end(wl, seed, seconds):
    from stats import SpeedProbe, median

    # Set-up probes are spread between rounds so that one slow phase of the
    # machine does not hold all of them; their time is not in the rounds.
    setup = []

    def step():
        rnd = wl.round(probe=SpeedProbe())
        if len(setup) < SETUP_SAMPLES:
            setup.append(_setup_probe_seconds(wl.name, seed))
        return rnd

    wl.setup(seed)
    rounds = _repeat(step, seconds)
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_probe_seconds(wl.name, seed))
    figures = wl.figures(rounds)
    metrics = {key: value for key, value in figures.items() if not key.startswith("_")}
    scales = [rnd.scale for rnd in rounds]
    metrics["setup_s"] = median(setup) * median(scales)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rank, count = figures["_tail_rank"], figures["_tail_count"]
    notes = [
        f"setup_s: median of {len(setup)} fresh processes {['%.4f' % s for s in setup]} host s",
        f"{len(rounds)} rounds of the same work; each unit's best time over the rounds",
        f"times in reference seconds, each unit scaled by the host speed around it;"
        f" round scales {['%.4f' % s for s in scales]}",
        f"run_ms.tail: rank {rank} of {count} units (p{100 * rank / count:.1f})",
    ]
    return rounds, metrics, notes


def _traced(wl, seed, seconds, trace_path, env):
    import spans
    import workloads

    tracer = spans.Tracer()
    with tracer.installed():
        wl.setup(seed, tracer.span)
    setup_calls = {name: info["calls"] for name, info in tracer.summary().items()}
    traced_evaluator = tracer.evaluator_class()

    def pair():
        reference = wl.round()
        with tracer.installed():
            traced = wl.round(tracer.span, traced_evaluator)
        return reference, traced

    pairs = _repeat(pair, seconds)
    reference = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    efficiency = 0.0
    if isinstance(wl, workloads.DeskPipeline):
        pooled = min(wl.sweep_seconds(rnd) for rnd in reference)
        efficiency = wl.serial_sweep_s() / (wl.workers * pooled)
    overhead = min(r.wall_s for r in traced) / min(r.wall_s for r in reference) - 1
    metrics = layer_metrics(tracer, setup_calls, traced, efficiency, overhead)
    tracer.write(trace_path, {"workload": wl.name, "env": env})
    notes = [
        f"{len(pairs)} traced rounds, each paired with an untraced round of the same work",
        "counts are per set-up plus one traced round, whatever the number of rounds",
        f"{spans.NO_WORKER_SPANS}; harness.* metrics are taken from the parent process",
        f"spans written to {trace_path.relative_to(ROOT)}",
    ]
    return reference + traced, metrics, notes


def layer_metrics(tracer, setup_calls: dict, traced, efficiency: float, overhead: float) -> dict:
    from stats import ratio
    from workloads import KINDS, DeskPipeline

    summary = tracer.summary()

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def per_call_ms(name):
        return 1e3 * ratio(total(name), calls(name))

    # Counts must not grow with the number of rounds that fit in the run, so
    # they are reported for the set-up plus one round; every round repeats
    # the same work.
    def per_round(name):
        once = setup_calls.get(name, 0)
        return once + (calls(name) - once) / len(traced)

    units = [u for rnd in traced for u in rnd.units]
    fe = {k: sum(u.fe for u in units if u.kind == k) for k in KINDS}
    all_fe = sum(fe.values())
    ev, tf, rot = "core.evaluate", "transform.apply_transform", "rotation.rotation_from_theta"
    call, best = "core.BudgetedEvaluator.__call__", "core.BudgetedEvaluator.best_error"
    evaluate_in_call = summary.get(call, {}).get("children_s", {}).get(ev, 0.0)
    grid_points = calls("instance_io.export_grid") * DeskPipeline.GRID_RESOLUTION**2
    m = {
        "core.evaluate.calls": per_round(ev),
        "core.evaluate.self_us": 1e6 * ratio(own(ev), calls(ev)),
        "core.evaluate.busy_share": ratio(total(ev), sum(rnd.wall_s for rnd in traced)),
        "core.evaluate.computed_flops": ratio(tracer.flops, calls(ev)),
        "transform.apply_transform.calls": per_round(tf),
        "transform.apply_transform.us": 1e6 * ratio(total(tf), calls(tf)),
        "transform.apply_transform.identity_share": ratio(tracer.identity_transforms, calls(tf)),
        "core.BudgetedEvaluator.bookkeeping_us": 1e6 * ratio(total(call) - evaluate_in_call, all_fe),
        "core.BudgetedEvaluator.best_error_us": 1e6 * ratio(total(best), all_fe),
    }
    for k in KINDS:
        m[f"optimizers.{k}.self_us_per_fe"] = 1e6 * ratio(own("optimizers." + k), fe[k])
        m[f"optimizers.{k}.fe"] = fe[k] / len(traced)
        m[f"optimizers.{k}.threshold_stops"] = sum(
            u.stopped_at_threshold for u in units if u.kind == k
        ) / len(traced)
    m["generators.suite_instance.ms"] = per_call_ms("generators.suite_instance")
    m["rotation.rotation_from_theta.calls"] = per_round(rot)
    m["rotation.rotation_from_theta.us"] = 1e3 * per_call_ms(rot)
    for fn in ("dump_instance", "load_instance", "write_csv_report"):
        m[f"instance_io.{fn}.ms"] = per_call_ms("instance_io." + fn)
    m["instance_io.export_grid.us_per_point"] = 1e6 * ratio(total("instance_io.export_grid"), grid_points)
    for cmd in ("suite", "verify", "classify", "grid", "sweep"):
        m[f"cli.{cmd}.ms"] = per_call_ms("cli." + cmd)
    m["harness.sweep.wall_s"] = ratio(total("harness.sweep"), calls("harness.sweep"))
    m["harness.parallel_efficiency"] = efficiency
    m["trace.overhead_share"] = overhead
    return m


def run_workload(name: str, args, spec: dict) -> dict:
    import stats
    import workloads

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(name, str(OUT))
    env = stats.environment(ROOT, args.seed, BLAS_THREADS)
    if args.trace:
        declared = spec["per_layer"]
        trace_path = OUT / f"trace-{name}-seed{args.seed}.npz"
        rounds, metrics, notes = _traced(wl, args.seed, args.seconds, trace_path, env)
    else:
        declared = spec["end_to_end"]
        rounds, metrics, notes = _end_to_end(wl, args.seed, args.seconds)
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    attempted = sum(len(rnd.units) for rnd in rounds)
    failures = [msg for rnd in rounds for msg in rnd.failures]
    print(f"perfbench {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("  env " + json.dumps(env))
    for note in notes:
        print("  " + note)
    for key, unit in units.items():
        print(f"  {key:42s} {metrics[key]:.6g} {unit}")
    print(f"  {'failed_frac':42s} {len(failures) / attempted:.6g} ({len(failures)} of {attempted} units)")
    for msg in failures[:20]:
        print("  FAILED " + msg, file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    args = _parse(argv, names)
    if not (SRC / "gnbg" / "__init__.py").is_file():
        print(f"perfbench: no gnbg package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    import selftest

    failed = selftest.run()
    if failed:
        print("perfbench: self-test failed: " + "; ".join(failed), file=sys.stderr)
        return 3

    chosen = names if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args, spec) for name in chosen}
    if len(results) == 1:
        result = results[chosen[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}:{key}": value
                for name, r in results.items()
                for key, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
