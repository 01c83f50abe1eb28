"""The arithmetic and record of tools/bench_pairs.py; running the benchmark
itself is not tested here."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _run(seed, failed=0, **metrics):
    return {"seed": seed, "failed": failed, "attempted": 72, "metrics": metrics}


def test_medians_odd_and_even():
    runs = [_run(1, fe_per_s=3.0, wall_s=9.0), _run(2, fe_per_s=1.0, wall_s=7.0),
            _run(3, fe_per_s=2.0, wall_s=8.0)]
    assert bench_pairs.medians(runs) == {"fe_per_s": 2.0, "wall_s": 8.0}
    assert bench_pairs.medians(runs + [_run(4, fe_per_s=10.0, wall_s=1.0)]) == {
        "fe_per_s": 2.5, "wall_s": 7.5,
    }


def test_iqr_inclusive_quartiles():
    runs = [_run(s, x=float(v)) for s, v in enumerate([1, 2, 3, 4, 5])]
    assert bench_pairs.iqrs(runs) == {"x": 2.0}


def test_assemble_counts_wins_by_direction():
    parent = [_run(1, fe_per_s=100.0, wall_s=2.0), _run(2, fe_per_s=100.0, wall_s=2.0),
              _run(3, fe_per_s=100.0, wall_s=2.0, failed=1)]
    change = [_run(1, fe_per_s=110.0, wall_s=1.0), _run(2, fe_per_s=90.0, wall_s=2.0),
              _run(3, fe_per_s=100.0, wall_s=3.0)]
    better = {"fe_per_s": "higher", "wall_s": "lower"}
    record = bench_pairs.assemble(parent, change, better, {"workload": "w", "numpy": "x"})
    assert record["workload"] == "w" and record["numpy"] == "x"
    assert record["change_wins"] == {"fe_per_s": 1, "wall_s": 1}  # ties are not wins
    assert record["failed"] == {"parent": 1, "change": 0}
    assert record["median"] == {
        "parent": {"fe_per_s": 100.0, "wall_s": 2.0},
        "change": {"fe_per_s": 100.0, "wall_s": 2.0},
    }
    assert record["parent_iqr"] == {"fe_per_s": 0.0, "wall_s": 0.0}
    assert [pair["parent"]["seed"] for pair in record["pairs"]] == [1, 2, 3]
    assert record["pairs"][0]["change"] is change[0]
    assert json.loads(json.dumps(record)) == record


def test_assemble_reads_direction_after_workload_prefix():
    parent = [_run(1, **{"a:fe_per_s": 1.0, "b:wall_s": 1.0})] * 2
    change = [_run(1, **{"a:fe_per_s": 2.0, "b:wall_s": 2.0})] * 2
    record = bench_pairs.assemble(parent, change, {"fe_per_s": "higher", "wall_s": "lower"}, {})
    assert record["change_wins"] == {"a:fe_per_s": 2, "b:wall_s": 0}
