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
from gnbg.core import BudgetedEvaluator
from gnbg.generators import ScenarioConfig, gen_linearity, suite_instance
from gnbg.harness import ExperimentSpec, run_experiment, sweep
from gnbg.optimizers import OptimizerConfig, run_optimizer


def _spec(**kwargs):
    defaults = dict(
        instance=gen_linearity(1.0),
        optimizer=OptimizerConfig(kind="ps"),
        runs=3,
        budget=30_000,
        milestones=(10_000, 30_000),
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

    def test_default_milestones_fit_the_budget(self):
        """The protocol's milestones that fit the budget, or the budget alone."""
        inst, cfg = gen_linearity(1.0), OptimizerConfig()
        assert ExperimentSpec(inst, cfg, budget=1000).milestones == (1000,)
        assert ExperimentSpec(inst, cfg, budget=300_000).milestones == (100_000, 250_000)
        assert ExperimentSpec(inst, cfg).milestones == (100_000, 250_000, 500_000)


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

    def test_runs_take_seeds_from_the_optimizer_config(self):
        """Run i of a spec is the run of seed ``optimizer.seed + i``."""
        spec = _spec(optimizer=OptimizerConfig(kind="ps", seed=5), runs=2,
                     budget=3_000, milestones=(3_000,))
        expected = [
            run_optimizer(BudgetedEvaluator(spec.instance, spec.budget),
                          OptimizerConfig(kind="ps", seed=seed))
            for seed in (5, 6)
        ]
        assert _runs([run_experiment(spec)]) == [(None, _outcomes(expected))]
        seed_zero = replace(spec, optimizer=OptimizerConfig(kind="ps"))
        assert _runs([run_experiment(seed_zero)]) != [(None, _outcomes(expected))]


class TestSweep:
    def test_empty_values_give_empty_reports(self):
        assert sweep([]) == []

    def test_one_report_per_value(self):
        reports = sweep([
            _spec(instance=gen_linearity(v, ScenarioConfig()), budget=40_000,
                  milestones=(40_000,), knob=v)
            for v in [0.75, 1.0]
        ])
        assert [r.knob for r in reports] == [0.75, 1.0]
        assert all(r.success_rate == 100.0 for r in reports)

    def test_one_pool_for_all_values(self, monkeypatch):
        """Mixed specs run through one sweep as each runs alone: in spec
        order, serially at 1 worker and in one pool at 2."""
        pools = []

        class CountingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        specs = [
            _spec(instance=suite_instance(1, 0), optimizer=OptimizerConfig(kind="ps", seed=3),
                  runs=2, budget=2_000, milestones=(2_000,)),
            _spec(instance=suite_instance(2, 0), optimizer=OptimizerConfig(kind="de", seed=1),
                  runs=3, budget=1_000, milestones=(500, 1_000)),
            _spec(instance=gen_linearity(0.5, ScenarioConfig(dim=5)), knob=0.5,
                  optimizer=OptimizerConfig(kind="pso", seed=8, population=20),
                  runs=2, budget=1_500, milestones=(1_500,)),
        ]
        alone = [run_experiment(spec) for spec in specs]
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        for workers, pools_made in ((1, 0), (2, 1)):
            pools.clear()
            reports = sweep(specs, workers=workers)
            assert len(pools) == pools_made
            assert _runs(reports) == _runs(alone)
            assert [(r.mean_errors, r.std_errors) for r in reports] == [
                (r.mean_errors, r.std_errors) for r in alone
            ]


def _outcomes(results):
    return [(x.best_value, x.fe_used, x.fe_to_success, x.history) for x in results]


def _runs(reports):
    return [(r.knob, _outcomes(r.run_results)) for r in reports]


def test_import_leaves_the_process_pool_unloaded():
    """The pool module costs import time; only a run with workers > 1 loads it."""
    src = str(Path(gnbg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, gnbg, gnbg.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
