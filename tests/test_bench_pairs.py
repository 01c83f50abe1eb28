"""The arithmetic and record of tools/bench_pairs.py, and its record of a
failed run, against a fake perfbench; the real benchmark is not run here."""

import importlib.util
import json
import subprocess
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


# the better direction and bound of each metric, as BENCHMARK.json declares them
DECLARED = {
    "fe_per_s": {"name": "fe_per_s", "better": "higher", "bound": 0.25},
    "wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25},
    "peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
}


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
    record = bench_pairs.assemble(parent, change, DECLARED, {"workload": "w", "numpy": "x"})
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
    record = bench_pairs.assemble(parent, change, DECLARED, {})
    assert record["change_wins"] == {"a:fe_per_s": 2, "b:wall_s": 0}
    assert record["gain_resolved"] == {"a:fe_per_s": True, "b:wall_s": False}
    assert record["regressed"] == {"a:fe_per_s": False, "b:wall_s": True}


def _pairs(key, parent_values, change_values):
    return ([_run(s, **{key: v}) for s, v in enumerate(parent_values)],
            [_run(s, **{key: v}) for s, v in enumerate(change_values)])


def _verdicts(key, parent_values, change_values):
    record = bench_pairs.assemble(*_pairs(key, parent_values, change_values), DECLARED, {})
    return record["gain_resolved"][key], record["regressed"][key]


PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]  # median 14.5, IQR 4.5


def test_gain_needs_nine_of_ten_wins_and_a_median_past_the_iqr():
    assert _verdicts("d:wall_s", PARENT, [v - 5.0 for v in PARENT]) == (True, False)
    # past the IQR in the median, but one pair lost and one tied: 8/10
    lost = [v - 5.0 for v in PARENT[:8]] + [PARENT[8] + 1.0, PARENT[9]]
    assert _verdicts("d:wall_s", PARENT, lost) == (False, False)
    # every pair won, but the median moves by the IQR only, not past it
    assert _verdicts("d:wall_s", PARENT, [v - 4.5 for v in PARENT]) == (False, False)
    # higher is better for fe_per_s: the same shift down is a loss
    assert _verdicts("d:fe_per_s", PARENT, [v - 5.0 for v in PARENT]) == (False, True)


def test_ties_are_neither_gain_nor_regression():
    assert _verdicts("d:wall_s", PARENT, PARENT) == (False, False)
    assert _verdicts("d:fe_per_s", [5.0] * 10, [5.0] * 10) == (False, False)


def test_regression_is_relative_to_the_parent_median_and_the_declared_bound():
    # wall_s bound 0.25 of the 14.5 median: 3.625 worse is the edge
    assert _verdicts("d:wall_s", PARENT, [v + 3.5 for v in PARENT]) == (False, False)
    assert _verdicts("d:wall_s", PARENT, [v + 3.75 for v in PARENT]) == (False, True)
    # peak_rss_mb's bound is 0.1
    assert _verdicts("d:peak_rss_mb", PARENT, [v + 1.5 for v in PARENT]) == (False, True)
    # a negative parent median: the bound is taken on its magnitude
    assert _verdicts("d:wall_s", [-v for v in PARENT], [-v + 3.75 for v in PARENT]) == (False, True)


def _unresolved(key, parent_values, change_values):
    record = bench_pairs.assemble(*_pairs(key, parent_values, change_values), DECLARED, {})
    return record["unresolved"][key]


def test_unresolved_when_the_parent_iqr_is_wider_than_the_bound():
    # wall_s: IQR 4.5 against 0.25 of the 14.5 median, 3.625
    assert _unresolved("d:wall_s", PARENT, PARENT)
    assert _unresolved("d:wall_s", PARENT, [v - 5.0 for v in PARENT])
    # unless every change run beats every parent run (here all below 10.0)
    assert not _unresolved("d:wall_s", PARENT, [v - 10.0 for v in PARENT])
    # fe_per_s is higher-better: all above 19.0 separates, all below does not
    assert not _unresolved("d:fe_per_s", PARENT, [v + 10.0 for v in PARENT])
    assert _unresolved("d:fe_per_s", PARENT, [v - 10.0 for v in PARENT])
    # a parent IQR within the bound resolves (IQR 0.45 of the 14.5 median)
    tight = [14.0 + v / 10.0 for v in range(10)]
    assert not _unresolved("d:wall_s", tight, tight)
    # peak_rss_mb's bound is 0.1: 1.45 of the 14.5 median
    assert _unresolved("d:peak_rss_mb", PARENT, PARENT)
    assert not _unresolved("d:peak_rss_mb", [v / 4.0 + 11.0 for v in PARENT], PARENT)


def test_src_lines_counts_the_package_modules_as_wc_does(tmp_path):
    package = tmp_path / "src" / "gnbg"
    (package / "schemas").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3\nw = 4")  # wc counts newlines: 1
    (package / "schemas" / "c.py").write_text("skipped\n")  # not in src/gnbg/*.py
    (package / "notes.txt").write_text("skipped\n")
    assert bench_pairs.src_lines(tmp_path) == {"a.py": 3, "b.py": 1, "total": 4}



# a perfbench that fails on its third call: the change side of pair 1, which
# runs the change first
_FAKE_PERFBENCH = """\
import json, sys
from pathlib import Path
calls = Path({calls!r})
n = int(calls.read_text()) + 1 if calls.exists() else 1
calls.write_text(str(n))
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if n == 3:
    print("warming up", file=sys.stderr)
    sys.exit("perfbench: workload w crashed at seed %d" % seed)
print("a progress line")
print(json.dumps({{"failed": 0, "attempted": 72, "metrics": {{"w:wall_s": {{"value": n}}}}}}))
"""


def test_a_failed_run_keeps_the_completed_pairs(tmp_path, monkeypatch, capsys):
    """The pairs before a failed run are written, with the failure, which is
    printed too, and the script exits non-zero."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(
        _FAKE_PERFBENCH.format(calls=str(tmp_path / "calls")))
    (repo / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [DECLARED["wall_s"]]}))
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "fake"]):
        subprocess.run(git + args, cwd=repo, check=True)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    out = tmp_path / "bench.json"

    assert bench_pairs.main(["--parent", "HEAD", "--out", str(out), "--seed", "5"]) == 1
    record = json.loads(out.read_text())
    assert record["pairs"] == [{"parent": _run(5, **{"w:wall_s": 1}),
                                "change": _run(5, **{"w:wall_s": 2})}]
    assert record["failure"] == {
        "side": "change", "seed": 6, "exit_code": 1,
        "stderr_tail": ["warming up", "perfbench: workload w crashed at seed 6"],
    }
    err = capsys.readouterr().err
    assert "perfbench failed on the change side, seed 6, exit code 1" in err
    assert "  perfbench: workload w crashed at seed 6" in err
