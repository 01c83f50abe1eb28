"""Before/after benchmark pairs: a parent revision against this checkout.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_<n>.json \
        --seed 41 --workload all --seconds 36

The parent revision is checked out in a temporary git worktree, which is
removed afterwards; the change is this checkout's working tree.  Each tree
runs its own, unmodified ``perfbench/run.py``, with every argument not named
here passed through unchanged, so perfbench's defaults stay its own.  Pair i
of the ``PAIRS`` pairs runs both trees with seed ``--seed + i``, the parent
first in even pairs and the change first in odd ones, so a slow phase of the
machine does not fall on one side only.

The JSON written holds every run's metrics and ``failed`` count, each
metric's median per side with the parent's interquartile range, the number
of pairs the change won (by each metric's better direction in
BENCHMARK.json), and the Python and numpy versions and CPU count.
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
# the fewest alternating pairs that can support a claimed gain
PAIRS = 10


def run_bench(tree: Path, bench_args: list[str], seed: int) -> dict:
    """One run of ``tree``'s perfbench: its ``failed`` count and metric values."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *bench_args, "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = {key: m["value"] for key, m in result["metrics"].items()}
    return {"seed": seed, "failed": result["failed"], "attempted": result["attempted"],
            "metrics": metrics}


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


def assemble(parent: list[dict], change: list[dict], better: dict, info: dict) -> dict:
    """The record of ``parent`` and ``change`` runs paired by index.

    ``better`` maps a metric name to "lower" or "higher"; a metric key may
    carry a workload prefix (``suite-protocol:fe_per_s``).  A pair counts as
    won when the change's value is strictly better.
    """
    wins = {}
    for key in parent[0]["metrics"]:
        sign = 1 if better[key.rsplit(":", 1)[-1]] == "higher" else -1
        wins[key] = sum(sign * (c["metrics"][key] - p["metrics"][key]) > 0
                        for p, c in zip(parent, change))
    return {
        **info,
        "pairs": [{"parent": p, "change": c} for p, c in zip(parent, change)],
        "failed": {"parent": sum(r["failed"] for r in parent),
                   "change": sum(r["failed"] for r in change)},
        "median": {"parent": medians(parent), "change": medians(change)},
        "parent_iqr": iqrs(parent),
        "change_wins": wins,
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
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    info = {
        "perfbench_args": bench_args,
        "parent": _git("rev-parse", args.parent),
        "change": _git("describe", "--always", "--dirty", "--abbrev=40"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
    }
    parent, change = [], []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "parent"
        _git("worktree", "add", "--detach", str(tree), info["parent"])
        try:
            for i in range(PAIRS):
                seed = args.seed + i
                order = [(tree, parent), (ROOT, change)]
                for where, runs in order if i % 2 == 0 else order[::-1]:
                    runs.append(run_bench(where, bench_args, seed))
                    print(f"pair {i} {'parent' if runs is parent else 'change'}: "
                          f"failed {runs[-1]['failed']}", file=sys.stderr)
        finally:
            _git("worktree", "remove", "--force", str(tree))
    record = assemble(parent, change, better, info)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    for key in record["change_wins"]:
        print(f"{key:36s} {record['median']['parent'][key]:.6g} -> "
              f"{record['median']['change'][key]:.6g}  won {record['change_wins'][key]}/{PAIRS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
