"""Acceptance gate: twelve end-to-end criteria, one test per criterion.

Each test prints a single ``acceptance N (name): PASS`` or ``... FAIL``
line (visible with ``pytest -s`` or in captured output on failure).  The
heavier criteria run at desk scale: fewer repetitions than a full study,
same budgets and thresholds.
"""

import functools

import numpy as np
import pytest

from gnbg.core import (
    BudgetedEvaluator,
    Component,
    ProblemInstance,
    dominated_components,
    evaluate,
)
from gnbg.generators import (
    SUITE_SIZE,
    ScenarioConfig,
    gen_conditioning,
    gen_interaction,
    gen_linearity,
    gen_multicomponent,
    gen_multimodal,
    suite_instance,
)
from gnbg.harness import ExperimentSpec, run_experiment, sweep
from gnbg.instance_io import dump_instance, parse_instance, serialize_instance
from gnbg.optimizers import OptimizerConfig
from gnbg.rotation import ThetaSpec, orthogonality_error, random_theta, rotation_from_theta
from gnbg.transform import TransformParams


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"acceptance {number} ({name}): FAIL")
                raise
            print(f"acceptance {number} ({name}): PASS")

        return wrapper

    return decorate


def _experiment(instance, kind, runs, budget, seed=0):
    spec = ExperimentSpec(
        instance=instance,
        optimizer=OptimizerConfig(kind=kind, seed=seed),
        runs=runs,
        budget=budget,
        milestones=(budget,),
    )
    return run_experiment(spec)


@criterion(1, "sphere and ellipsoid equivalence")
def test_sphere_ellipsoid_equivalence():
    d = 30
    sphere = gen_linearity(1.0)
    h = 10.0 ** (6 * np.arange(d) / (d - 1))
    ellipsoid = ProblemInstance(
        d, np.full(d, -100.0), np.full(d, 100.0),
        (Component(np.zeros(d), 0.0, h),),
    )
    rng = np.random.default_rng(0)
    for x in rng.uniform(-100, 100, size=(1000, d)):
        assert abs(evaluate(sphere, x) - float(np.sum(x**2))) <= 1e-9
        expected = float(np.sum(h * x**2))
        assert abs(evaluate(ellipsoid, x) - expected) <= 1e-12 * expected


@criterion(2, "rotation orthogonality")
def test_rotation_orthogonality():
    for d in (2, 8, 30):
        for s in range(100):
            rng = np.random.default_rng([d, s])
            spec = random_theta(d, rng.uniform(0.2, 1.0), rng)
            assert orthogonality_error(rotation_from_theta(spec)) <= 1e-10


@criterion(3, "optimum exactness")
def test_optimum_exactness():
    instances = [suite_instance(k, seed=0) for k in range(1, SUITE_SIZE + 1)]
    for s in range(10):
        cfg = ScenarioConfig(seed=s)
        instances += [
            gen_linearity(0.1 + 0.3 * s, cfg),
            gen_conditioning(10.0**s, cfg=cfg),
            gen_interaction(p_prob=0.1 * s, cfg=cfg),
            gen_multimodal(0.1 * s, 5.0 * s, cfg),
            gen_multicomponent(s + 1, cfg),
        ]
    assert len(instances) == SUITE_SIZE + 50
    for inst in instances:
        assert inst.optimum_index not in dominated_components(inst)
        gap = evaluate(inst, inst.optimum_position) - inst.optimum_value
        assert abs(gap) <= 1e-9


def _zoomed_minimizer(fn, lo, hi, points=401, margin=10, rounds=8):
    """Global 1-D minimizer by repeated grid refinement.

    The slice is log-periodically rugged near its minimizer, so each zoom
    keeps a margin of grid cells around the best sample; the margin exceeds
    the transform's worst-case distortion factor, which guarantees the true
    minimizer stays inside the bracket while it shrinks geometrically.
    """
    for _ in range(rounds):
        grid = np.linspace(lo, hi, points)
        best = int(np.argmin([fn(t) for t in grid]))
        lo = grid[max(best - margin, 0)]
        hi = grid[min(best + margin, points - 1)]
    return (lo + hi) / 2


@criterion(4, "coordinate-wise optimizability")
def test_coordinate_wise_optimizability():
    d = 3
    rng = np.random.default_rng(4)
    center = rng.uniform(-50, 50, size=d)
    comp = Component(
        center, 0.0, rng.uniform(1, 10, size=d), lam=0.25,
        transform=TransformParams((0.5, 0.5), (10, 10, 10, 10)),
    )
    inst = ProblemInstance(d, np.full(d, -100.0), np.full(d, 100.0), (comp,))
    for i in range(d):
        for _ in range(5):
            # settings stay near the center: farther out, the slice valley
            # sits on an offset so large that float64 cannot resolve the
            # minimum location to 1e-6 at all
            x = center + rng.uniform(-2, 2, size=d)

            def slice_fn(t, i=i, x=x):
                y = x.copy()
                y[i] = t
                return evaluate(inst, y)

            t_star = _zoomed_minimizer(slice_fn, -100.0, 100.0)
            assert abs(t_star - center[i]) <= 1e-6


@criterion(5, "separability probe")
def test_separability_probe():
    d = 5
    rng = np.random.default_rng(5)
    h = np.array([1.0, 100.0, 3.0, 7.0, 20.0])
    separable = ProblemInstance(
        d, np.full(d, -100.0), np.full(d, 100.0),
        (Component(np.zeros(d), 0.0, h),),
    )
    rotated = ProblemInstance(
        d, np.full(d, -100.0), np.full(d, 100.0),
        (Component(np.zeros(d), 0.0, h, theta=ThetaSpec.from_triples(d, [(1, 2, np.pi / 4)])),),
    )
    x = rng.uniform(-50, 50, size=d)
    delta = 0.5

    def cross_term(inst, i, j):
        ei, ej = np.zeros(d), np.zeros(d)
        ei[i], ej[j] = delta, delta
        return abs(
            evaluate(inst, x + ei + ej) - evaluate(inst, x + ei)
            - evaluate(inst, x + ej) + evaluate(inst, x)
        )

    def diag_term(inst, i):
        ei = np.zeros(d)
        ei[i] = delta
        return abs(
            evaluate(inst, x + 2 * ei) - 2 * evaluate(inst, x + ei) + evaluate(inst, x)
        )

    # scale: the largest per-coordinate curvature, so thresholds track the
    # quadratic's own magnitude rather than the offset value of f
    scale = max(diag_term(separable, i) for i in range(d))
    for i in range(d):
        for j in range(i + 1, d):
            assert cross_term(separable, i, j) <= 1e-6 * scale
    rotated_scale = max(diag_term(rotated, i) for i in range(d))
    assert cross_term(rotated, 0, 1) > 1e-2 * rotated_scale


@criterion(6, "pattern search linearity sweep")
def test_ps_linearity_sweep():
    reports = sweep([
        ExperimentSpec(
            instance=gen_linearity(v),
            optimizer=OptimizerConfig(kind="ps", seed=0),
            runs=11,
            budget=100_000,
            milestones=(100_000,),
            knob=v,
        )
        for v in [0.25, 0.5, 0.75, 1.0]
    ])
    fes = [r.mean_fe_success for r in reports]
    for r in reports:
        assert r.success_rate == 100.0
    assert all(b <= a for a, b in zip(fes, fes[1:]))
    assert 15_000 <= fes[-1] <= 60_000


@criterion(7, "differential evolution stalls on sharp basins")
def test_de_sublinear_failure():
    report = _experiment(gen_linearity(0.1), "de", runs=5, budget=500_000)
    assert report.success_rate == 0.0
    assert 1e-7 <= report.mean_errors[500_000] <= 1e-4


@criterion(8, "pattern search conditioning trend")
def test_ps_conditioning_trend():
    reports = sweep([
        ExperimentSpec(
            instance=gen_conditioning(v),
            optimizer=OptimizerConfig(kind="ps", seed=0),
            runs=5,
            budget=100_000,
            milestones=(100_000,),
            knob=v,
        )
        for v in [1.0, 1e3, 1e7]
    ])
    fes = [r.mean_fe_success for r in reports]
    assert all(fe is not None for fe in fes)
    assert fes[0] < fes[1] < fes[2]


@criterion(9, "differential evolution trapped by multimodality")
def test_de_multimodal_trap():
    report = _experiment(gen_multimodal(1.0, 5.0), "de", runs=5, budget=200_000)
    assert report.success_rate == 0.0
    assert report.mean_errors[200_000] > 100.0


@criterion(10, "multi-component deception")
def test_multicomponent_deception():
    kwargs = dict(sigma_range=(0.0, 0.5), h_range=(0.001, 0.1))
    cfg = ScenarioConfig(seed=3)
    single = _experiment(gen_multicomponent(1, cfg, **kwargs), "de", runs=5, budget=100_000)
    five = _experiment(gen_multicomponent(5, cfg, **kwargs), "de", runs=5, budget=100_000)
    assert single.success_rate == 100.0
    assert five.success_rate <= 20.0


@criterion(11, "determinism")
def test_determinism():
    for k in range(1, SUITE_SIZE + 1):
        assert dump_instance(suite_instance(k, seed=11)) == dump_instance(
            suite_instance(k, seed=11)
        )
    spec = ExperimentSpec(
        instance=gen_linearity(1.0),
        optimizer=OptimizerConfig(kind="ps", seed=7),
        runs=3,
        budget=30_000,
        milestones=(30_000,),
    )
    a, b = run_experiment(spec), run_experiment(spec)
    assert a.mean_errors == b.mean_errors
    assert a.mean_fe_success == b.mean_fe_success
    for ra, rb in zip(a.run_results, b.run_results):
        assert ra.best_value == rb.best_value
        assert np.array_equal(ra.best_position, rb.best_position)


@criterion(12, "serialization round trip")
def test_round_trip():
    rng = np.random.default_rng(12)
    for k in range(1, SUITE_SIZE + 1):
        inst = suite_instance(k, seed=0)
        again = parse_instance(serialize_instance(inst))
        for x in rng.uniform(-100, 100, size=(1000, 30)):
            a, b = evaluate(inst, x), evaluate(again, x)
            assert abs(a - b) <= 1e-15 * max(1.0, abs(a))
