"""Before/after benchmark pairs: a parent revision against this checkout.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_<n>.json \
        --seed 41 --workload all --seconds 36

The parent revision is extracted with ``git archive`` into a temporary
directory, which is removed afterwards; the change is this checkout's
working tree.  Each tree
runs its own, unmodified ``perfbench/run.py``, with every argument not named
here passed through unchanged, so perfbench's defaults stay its own.  Pair i
of the ``PAIRS`` pairs runs both trees with seed ``--seed + i``, the parent
first in even pairs and the change first in odd ones, so a slow phase of the
machine does not fall on one side only.

A perfbench run that exits non-zero ends the pairs: the JSON written then
holds the pairs completed before it and, under ``failure``, that run's
side, seed, exit code and last lines of stderr, which are also printed,
and the script exits 1.

Otherwise the JSON written holds every run's metrics and ``failed`` count, each
metric's median per side with the parent's interquartile range, the number
of pairs the change won (by each metric's better direction in
BENCHMARK.json), three verdicts per metric, and the Python and numpy
versions and CPU count, and ``src_lines``, the lines of each ``src/gnbg/*.py``
module in each tree, and their ``total``, as ``wc -l`` counts them.  The
verdicts:

- ``gain_resolved``: the change won at least 9 of 10 pairs, and its median
  beats the parent's by more than the parent's interquartile range;
- ``regressed``: the change's median is worse than the parent's by more than
  the metric's ``bound`` in BENCHMARK.json, relative to the parent's median;
- ``unresolved``: the parent's interquartile range is wider than that bound
  times the parent's median, so the runs spread too widely to tell a change
  of the bound's size, unless every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the fewest alternating pairs that can support a claimed gain, and the
# share of them the change must win
PAIRS = 10
GAIN_SHARE = 0.9
# the lines of a failed run's stderr kept in the record
STDERR_LINES = 20


def run_bench(tree: Path, bench_args: list[str], seed: int) -> dict:
    """One run of ``tree``'s perfbench: its ``failed`` count and metric
    values, or, when it exits non-zero, its exit code and last lines of
    stderr."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *bench_args, "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode:
        return {"seed": seed, "exit_code": done.returncode,
                "stderr_tail": done.stderr.splitlines()[-STDERR_LINES:]}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {key: m["value"] for key, m in result["metrics"].items()}
    return {"seed": seed, "failed": result["failed"], "attempted": result["attempted"],
            "metrics": metrics}


def run_pairs(parent_tree: Path, change_tree: Path, bench_args: list[str], first_seed: int):
    """The parent's and the change's runs of up to ``PAIRS`` alternating
    pairs, and the first run that failed, with its side, or None.  A failed
    run ends the pairs, and only the pairs completed before it are kept."""
    trees = {"parent": parent_tree, "change": change_tree}
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        seed = first_seed + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            run = run_bench(trees[side], bench_args, seed)
            if "exit_code" in run:
                return runs["parent"][:i], runs["change"][:i], {"side": side, **run}
            runs[side].append(run)
            print(f"pair {i} {side}: failed {run['failed']}", file=sys.stderr)
    return runs["parent"], runs["change"], None


def src_lines(tree: Path) -> dict:
    """Newlines in each of ``tree``'s ``src/gnbg/*.py`` by file name, and
    their ``total``: the counts of ``wc -l``."""
    lines = {path.name: path.read_bytes().count(b"\n")
             for path in sorted((tree / "src" / "gnbg").glob("*.py"))}
    return {**lines, "total": sum(lines.values())}


def medians(runs: list[dict]) -> dict:
    """Each metric's median over ``runs``."""
    return {key: statistics.median(run["metrics"][key] for run in runs)
            for key in runs[0]["metrics"]}


def iqrs(runs: list[dict]) -> dict:
    """Each metric's interquartile range over ``runs`` (inclusive quartiles)."""
    out = {}
    for key in runs[0]["metrics"]:
        q1, _, q3 = statistics.quantiles([run["metrics"][key] for run in runs], n=4,
                                         method="inclusive")
        out[key] = q3 - q1
    return out


def assemble(parent: list[dict], change: list[dict], declared: dict, info: dict) -> dict:
    """The record of ``parent`` and ``change`` runs paired by index.

    ``declared`` maps a metric name to its BENCHMARK.json entry, of which
    "better" ("lower" or "higher") and "bound" are read; a metric key may
    carry a workload prefix (``suite-protocol:fe_per_s``).  A pair counts as
    won when the change's value is strictly better.
    """
    median = {"parent": medians(parent), "change": medians(change)}
    parent_iqr = iqrs(parent)
    wins, gain, regressed, unresolved = {}, {}, {}, {}
    for key in parent[0]["metrics"]:
        metric = declared[key.rsplit(":", 1)[-1]]
        sign = 1 if metric["better"] == "higher" else -1
        wins[key] = sum(sign * (c["metrics"][key] - p["metrics"][key]) > 0
                        for p, c in zip(parent, change))
        was, now = median["parent"][key], median["change"][key]
        gain[key] = (wins[key] >= GAIN_SHARE * len(parent)
                     and sign * (now - was) > parent_iqr[key])
        regressed[key] = sign * (was - now) > metric["bound"] * abs(was)
        separated = (min(sign * c["metrics"][key] for c in change)
                     > max(sign * p["metrics"][key] for p in parent))
        unresolved[key] = parent_iqr[key] > metric["bound"] * abs(was) and not separated
    return {
        **info,
        "pairs": [{"parent": p, "change": c} for p, c in zip(parent, change)],
        "failed": {"parent": sum(r["failed"] for r in parent),
                   "change": sum(r["failed"] for r in change)},
        "median": median,
        "parent_iqr": parent_iqr,
        "change_wins": wins,
        "gain_resolved": gain,
        "regressed": regressed,
        "unresolved": unresolved,
    }


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="tools/bench_pairs.py", allow_abbrev=False)
    p.add_argument("--parent", required=True, help="git revision to compare against")
    p.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    p.add_argument("--out", required=True, help="JSON file to write")
    args, bench_args = p.parse_known_args(argv)

    import numpy

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    info = {
        "perfbench_args": bench_args,
        "parent": _git("rev-parse", args.parent),
        "change": _git("describe", "--always", "--dirty", "--abbrev=40"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "parent"
        tree.mkdir()
        archive = subprocess.run(["git", "archive", info["parent"]], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        info["src_lines"] = {"parent": src_lines(tree), "change": src_lines(ROOT)}
        parent, change, failure = run_pairs(tree, ROOT, bench_args, args.seed)
    if failure is not None:
        pairs = [{"parent": p, "change": c} for p, c in zip(parent, change)]
        Path(args.out).write_text(json.dumps({**info, "pairs": pairs, "failure": failure},
                                             indent=2) + "\n")
        print(f"perfbench failed on the {failure['side']} side, seed {failure['seed']}, "
              f"exit code {failure['exit_code']}, after {len(pairs)} complete pairs; "
              f"its last stderr lines:", file=sys.stderr)
        for line in failure["stderr_tail"]:
            print(f"  {line}", file=sys.stderr)
        return 1
    record = assemble(parent, change, declared, info)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    lines = record["src_lines"]
    for name in sorted(lines["parent"].keys() | lines["change"].keys(),
                       key=lambda name: (name == "total", name)):
        print(f"src_lines {name:16s} {lines['parent'].get(name, 0)} -> "
              f"{lines['change'].get(name, 0)}")
    for key in record["change_wins"]:
        print(f"{key:36s} {record['median']['parent'][key]:.6g} -> "
              f"{record['median']['change'][key]:.6g}  won {record['change_wins'][key]}/{PAIRS}"
              f"  gain_resolved={record['gain_resolved'][key]}"
              f"  regressed={record['regressed'][key]}"
              f"  unresolved={record['unresolved'][key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
