"""Tests for the repeated-run experiment protocol and aggregation."""

import concurrent.futures
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gnbg
from gnbg.generators import ScenarioConfig, gen_linearity
from gnbg.harness import ExperimentSpec, run_experiment, sweep
from gnbg.optimizers import OptimizerConfig


def _spec(**kwargs):
    defaults = dict(
        instance=gen_linearity(1.0),
        optimizer=OptimizerConfig(kind="ps"),
        runs=3,
        budget=30_000,
        milestones=(10_000, 30_000),
        base_seed=0,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestExperimentSpec:
    def test_milestone_beyond_budget_rejected(self):
        with pytest.raises(ValueError):
            _spec(budget=5_000)

    def test_non_increasing_milestones_rejected(self):
        with pytest.raises(ValueError):
            _spec(milestones=(10_000, 10_000), budget=30_000)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            _spec(threshold=float("nan"))

    @pytest.mark.parametrize("milestones", [(0, 10_000), (-5, 10_000)])
    def test_nonpositive_milestone_rejected(self, milestones):
        with pytest.raises(ValueError, match="milestones must be >= 1"):
            _spec(milestones=milestones)

    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError):
            _spec(runs=0)


class TestRunExperiment:
    def test_ps_succeeds_on_sphere(self):
        report = run_experiment(_spec())
        assert report.success_rate == 100.0
        assert report.mean_fe_success is not None
        assert report.mean_fe_success <= 30_000
        assert len(report.run_results) == 3

    def test_single_run_budget_equals_population(self):
        spec = _spec(
            optimizer=OptimizerConfig(kind="de", population=100),
            runs=1, budget=100, milestones=(100,),
        )
        report = run_experiment(spec)
        run = report.run_results[0]
        # the only milestone falls right at the end of initialization
        assert run.error_at(100) == run.best_error

    def test_deterministic_reports(self):
        a = run_experiment(_spec())
        b = run_experiment(_spec())
        assert a.mean_errors == b.mean_errors
        assert a.std_errors == b.std_errors
        assert a.mean_fe_success == b.mean_fe_success

    def test_aggregation_statistics(self):
        report = run_experiment(_spec())
        for m in (10_000, 30_000):
            errs = np.array([r.error_at(m) for r in report.run_results])
            assert report.mean_errors[m] == pytest.approx(float(np.mean(errs)))
            assert report.std_errors[m] == pytest.approx(float(np.std(errs, ddof=1)))
        fes = [r.fe_to_success for r in report.run_results if r.success]
        assert report.mean_fe_success == pytest.approx(float(np.mean(fes)))

    def test_no_success_reports_none(self):
        spec = _spec(budget=200, milestones=(200,), runs=2)
        report = run_experiment(spec)
        assert report.success_rate == 0.0
        assert report.mean_fe_success is None

    def test_workers_do_not_change_result(self):
        serial = run_experiment(_spec())
        parallel = run_experiment(_spec(), workers=3)
        assert serial.mean_errors == parallel.mean_errors
        assert serial.mean_fe_success == parallel.mean_fe_success
        ms = serial.milestones
        for a, b in zip(serial.run_results, parallel.run_results, strict=True):
            assert a.history == b.history
            assert [a.error_at(m) for m in ms] == [b.error_at(m) for m in ms]


class TestSweep:
    def test_empty_values_give_empty_reports(self):
        assert sweep(_spec(), [], lambda v: gen_linearity(v)) == []

    def test_one_report_per_value(self):
        reports = sweep(
            _spec(budget=40_000, milestones=(40_000,)),
            [0.75, 1.0],
            lambda v: gen_linearity(v, ScenarioConfig()),
        )
        assert [r.knob for r in reports] == [0.75, 1.0]
        assert all(r.success_rate == 100.0 for r in reports)

    def test_one_pool_for_all_values(self, monkeypatch):
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        template = _spec(runs=2, budget=3_000, milestones=(3_000,))
        values = [0.5, 1.0, 2.0]
        parallel = sweep(template, values, gen_linearity, workers=2)
        assert len(pools) == 1
        serial = sweep(template, values, gen_linearity)

        def runs(reports):
            return [
                (r.knob, [(x.best_value, x.fe_used, x.fe_to_success) for x in r.run_results])
                for r in reports
            ]

        assert runs(parallel) == runs(serial)
        alone = run_experiment(replace(template, instance=gen_linearity(1.0), knob=1.0))
        assert runs([alone]) == runs(parallel)[1:2]


def test_import_leaves_the_process_pool_unloaded():
    """The pool module costs import time; only a run with workers > 1 loads it."""
    src = str(Path(gnbg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, gnbg, gnbg.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
