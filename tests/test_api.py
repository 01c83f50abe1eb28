"""The public names, the attributes the traced benchmark run patches, and
the benchmark's own self-tests.

``perfbench/spans.py`` wraps module attributes by name; if one of them is
deleted or renamed, ``perfbench/run.py --trace 1`` breaks.  This test fails
first.  ``perfbench/selftest.py`` runs optimizers through the API the
benchmark calls, so a change that breaks that API fails here too.
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


def test_benchmark_self_tests_pass():
    selftest = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"
    proc = subprocess.run([sys.executable, str(selftest)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-tests: ok" in proc.stdout


def test_default_threshold_is_one_constant():
    from gnbg import harness, optimizers

    assert harness.DEFAULT_THRESHOLD is optimizers.DEFAULT_THRESHOLD
