"""The public names, the attributes the traced benchmark run patches, and
the benchmark's own self-tests.

``perfbench/spans.py`` wraps module attributes by name; if one of them is
deleted or renamed, ``perfbench/run.py --trace 1`` breaks.  This test fails
first.  If the CLI stops calling one of them through that name, its traced
metric silently reads 0; the desk commands below call each one.
``perfbench/selftest.py`` runs optimizers through the API the benchmark
calls, so a change that breaks that API fails here too.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import gnbg

# (module, attribute) pairs that perfbench/spans.py replaces with timing wrappers
TRACED = [
    ("gnbg.core", "evaluate"),
    ("gnbg.core", "apply_transform"),
    ("gnbg.core", "rotation_from_theta"),
    ("gnbg.cli", "evaluate"),
    ("gnbg.cli", "suite_instance"),
    ("gnbg.cli", "dump_instance"),
    ("gnbg.cli", "load_instance"),
    ("gnbg.cli", "export_grid"),
    ("gnbg.cli", "sweep"),
    ("gnbg.instance_io", "write_csv_report"),
    ("gnbg.optimizers", "DEFAULT_THRESHOLD"),
]


@pytest.mark.parametrize("name", gnbg.__all__)
def test_public_name_resolves(name):
    assert getattr(gnbg, name) is not None


@pytest.mark.parametrize("module,attr", TRACED, ids=[f"{m}.{a}" for m, a in TRACED])
def test_traced_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr)


def test_desk_commands_call_every_traced_cli_name(tmp_path, monkeypatch, capsys):
    """``suite``, ``verify``, ``grid`` and ``sweep --csv`` call each name the
    traced desk round wraps in ``gnbg.cli`` and ``gnbg.instance_io``."""
    from gnbg.cli import main

    calls = {}
    for module, attr in TRACED:
        if module in ("gnbg.cli", "gnbg.instance_io"):
            fn = getattr(importlib.import_module(module), attr)

            def counted(*args, _fn=fn, _key=f"{module}.{attr}", **kwargs):
                calls[_key] += 1
                return _fn(*args, **kwargs)

            calls[f"{module}.{attr}"] = 0
            monkeypatch.setattr(f"{module}.{attr}", counted)
    doc = str(tmp_path / "f1.gnbg.json")
    for argv in (
        ["suite", "--id", "1", "--seed", "0", "--out", doc],
        ["verify", "--instance", doc],
        ["grid", "--instance", doc, "--i", "0", "--j", "1", "--resolution", "3",
         "--out", str(tmp_path / "grid.json")],
        ["sweep", "--scenario", "linearity", "--values", "1.0,2.0", "--dim", "2",
         "--optimizer", "ps", "--runs", "1", "--budget", "10", "--milestones", "10",
         "--seed", "0", "--csv", str(tmp_path / "sweep.csv")],
    ):
        assert main(argv) == 0, capsys.readouterr().err
    assert [key for key, n in calls.items() if n == 0] == []


def test_benchmark_self_tests_pass():
    selftest = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"
    proc = subprocess.run([sys.executable, str(selftest)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-tests: ok" in proc.stdout


def test_default_threshold_is_one_constant():
    from gnbg import harness, optimizers

    assert harness.DEFAULT_THRESHOLD is optimizers.DEFAULT_THRESHOLD
