"""Golden corpus: stored instance hashes, evaluation values, short
optimizer runs, four long ones and the bytes of two CLI reports, compared
exactly.

The corpus pins behaviour to stored bits, so a refactor that changes any
instance byte, any evaluation bit, any RNG draw or any FE charge fails here.
A golden value may change only with a stated reason.  Regenerate with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import pathlib
import sys
import tempfile
from functools import partial

import numpy as np
import pytest

from gnbg import cli, generators
from gnbg.core import BudgetedEvaluator, evaluate
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
from gnbg.instance_io import dump_instance, load_instance
from gnbg.optimizers import DEFAULT_THRESHOLD, OptimizerConfig, run_optimizer

CORPUS = pathlib.Path(__file__).parent / "golden" / "corpus.json"

INSTANCE_SEEDS = (0, 11, 2**40 + 3)  # the last needs the 64-bit seed mask
POINTS = 64
RUN_FUNCTIONS = (1, 2, 9, 16, 24)
RUN_KINDS = ("ps", "pso", "de")
RUN_BUDGET = 2_000
RUN_MILESTONES = (500, 1_000, 2_000)
RUN_SEED = 3
# thresholds each run reaches part-way through its budget, so the stop at
# the threshold FE (mid-poll, mid-swarm, mid-generation) is pinned too
THRESHOLD_RUNS = (
    (1, "ps", 1e3), (1, "pso", 2e4), (1, "de", 6e4),
    (24, "ps", 225.0), (24, "pso", 190.0), (24, "de", 210.0),
)
# runs far past RUN_BUDGET (instance seed 0, run seed 1): PS on f7 and f16
# makes its last fresh row at 26,464 and 29,241 FE, so each pins a stalled
# tail (f16 ends in component 2's basin); PSO and DE on f24 pin screened
# batches late in a run
LONG_RUNS = ((7, "ps", 60_000), (16, "ps", 60_000), (24, "pso", 20_000), (24, "de", 20_000))
LONG_RUN_SEED = 1
SCENARIO_CFG = ScenarioConfig(seed=7)


def _conditioning_beta_02(cfg):
    """The corpus pins one conditioning scenario under Beta(0.2, 0.2)
    instead of the generator's ALPHA_BETA, so the Beta shape reaches the
    draw and the provenance."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators, "ALPHA_BETA", (0.2, 0.2))
        return gen_conditioning(1e6, cfg)


SCENARIOS = {
    "linearity/0.1": lambda cfg: gen_linearity(0.1, cfg),
    "linearity/1.5": lambda cfg: gen_linearity(1.5, cfg),
    "conditioning/1000.0": lambda cfg: gen_conditioning(1e3, cfg=cfg),
    "conditioning/1000000.0": _conditioning_beta_02,
    "interaction/0.3": lambda cfg: gen_interaction(p_prob=0.3, cfg=cfg),
    "interaction/angle-0.7": lambda cfg: gen_interaction(fixed_angle=0.7, cfg=cfg),
    "multimodal/0.2-20.0": lambda cfg: gen_multimodal(0.2, 20.0, cfg),
    "multimodal/0.5-50.0": lambda cfg: gen_multimodal(0.5, 50.0, cfg),
    "multicomponent/3": lambda cfg: gen_multicomponent(3, cfg),
    "multicomponent/10": lambda cfg: gen_multicomponent(10, cfg, center_range=(-50.0, 50.0)),
}


# CLI commands whose CSV and --json report bytes are pinned: a sweep through
# the process pool, whose results come back pickled, and a run with milestones
REPORT_COMMANDS = {
    "sweep-linearity-ps": "sweep --scenario linearity --values 0.25,0.5,0.75,1.0"
    " --optimizer ps --runs 8 --budget 2000 --seed 3 --workers 2",
    "run-f24-de": "run --suite 24 --optimizer de --runs 3 --budget 3000"
    " --milestones 500,1000,3000 --seed 1",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fixed_points(instance, k: int, s: int) -> np.ndarray:
    """The optimum, points near every component center at scales 1 .. 1e-7,
    and uniform points in the box; fixed by (k, s)."""
    rng = np.random.default_rng([k, s, POINTS])
    d, comps = instance.dim, instance.components
    near = [
        comps[j % len(comps)].center + 10.0 ** -(j % 8) * rng.standard_normal(d)
        for j in range(16)
    ]
    uniform = rng.uniform(instance.lower, instance.upper, size=(POINTS - 17, d))
    return np.vstack([instance.optimum_position[None, :], near, uniform])


def instance_record(k: int, s: int) -> dict:
    instance = suite_instance(k, s)
    points = fixed_points(instance, k, s)
    return {
        "sha256": _sha(dump_instance(instance).encode()),
        "points_sha256": _sha(points.tobytes()),
        "values": [float(evaluate(instance, x)).hex() for x in points],
    }


def scenario_record(name: str) -> str:
    return _sha(dump_instance(SCENARIOS[name](SCENARIO_CFG)).encode())


def run_record(
    k: int, kind: str, threshold: float = DEFAULT_THRESHOLD, budget: int = RUN_BUDGET,
    seed: int = RUN_SEED,
) -> dict:
    evaluator = BudgetedEvaluator(suite_instance(k, 0), budget)
    cfg = OptimizerConfig(kind=kind, seed=seed)
    result = run_optimizer(evaluator, cfg, threshold)
    history = ";".join(f"{fe}:{float(err).hex()}" for fe, err in result.history)
    return {
        "best_value": float(result.best_value).hex(),
        "best_error": float(result.best_error).hex(),
        "best_position_sha256": _sha(np.asarray(result.best_position, dtype=float).tobytes()),
        "fe_used": result.fe_used,
        "fe_to_success": result.fe_to_success,
        "success": result.success,
        "milestone_errors": {str(m): result.error_at(m).hex() for m in RUN_MILESTONES},
        "history_len": len(result.history),
        "history_sha256": _sha(history.encode()),
    }


def long_run_record(k: int, kind: str, budget: int) -> dict:
    return run_record(k, kind, budget=budget, seed=LONG_RUN_SEED)


def report_record(name: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        csv, js = pathlib.Path(tmp, "report.csv"), pathlib.Path(tmp, "report.json")
        argv = REPORT_COMMANDS[name].split() + ["--csv", str(csv), "--json", str(js)]
        assert cli.main(argv) == 0
        return {"csv_sha256": _sha(csv.read_bytes()), "json_sha256": _sha(js.read_bytes())}


INSTANCE_KEYS = [(k, s) for s in INSTANCE_SEEDS for k in range(1, SUITE_SIZE + 1)]
RUN_KEYS = [(k, kind, DEFAULT_THRESHOLD) for k in RUN_FUNCTIONS for kind in RUN_KINDS]
RUN_KEYS += list(THRESHOLD_RUNS)


def _long_key(k: int, kind: str, budget: int) -> str:
    return f"f{k}/{kind}/{budget}fe-seed{LONG_RUN_SEED}"


def build_corpus() -> dict:
    return {
        "instances": {f"f{k}/s{s}": instance_record(k, s) for k, s in INSTANCE_KEYS},
        "reports": {name: report_record(name) for name in REPORT_COMMANDS},
        "runs": {f"f{k}/{kind}/{t!r}": run_record(k, kind, t) for k, kind, t in RUN_KEYS}
        | {_long_key(*key): long_run_record(*key) for key in LONG_RUNS},
        "scenarios": {name: scenario_record(name) for name in SCENARIOS},
    }


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


@pytest.mark.parametrize("k,s", INSTANCE_KEYS, ids=[f"f{k}-s{s}" for k, s in INSTANCE_KEYS])
def test_instance_and_values(corpus, k, s):
    assert instance_record(k, s) == corpus["instances"][f"f{k}/s{s}"]


@pytest.mark.parametrize(
    "k,kind,threshold", RUN_KEYS, ids=[f"f{k}-{kind}-{t!r}" for k, kind, t in RUN_KEYS]
)
def test_run(corpus, k, kind, threshold):
    assert run_record(k, kind, threshold) == corpus["runs"][f"f{k}/{kind}/{threshold!r}"]


@pytest.mark.parametrize(
    "k,kind,budget", LONG_RUNS, ids=[f"f{k}-{kind}-{budget}fe" for k, kind, budget in LONG_RUNS]
)
def test_long_run(corpus, k, kind, budget):
    assert long_run_record(k, kind, budget) == corpus["runs"][_long_key(k, kind, budget)]


@pytest.mark.parametrize(
    "k,kind,threshold", THRESHOLD_RUNS, ids=[f"f{k}-{kind}-{t!r}" for k, kind, t in THRESHOLD_RUNS]
)
def test_threshold_run_stops_part_way(corpus, k, kind, threshold):
    record = corpus["runs"][f"f{k}/{kind}/{threshold!r}"]
    assert record["success"] and record["fe_used"] < RUN_BUDGET
    if kind == "de":  # after the initial population, mid-generation
        n = OptimizerConfig(kind=kind).population
        assert (record["fe_used"] - n) % n != 0


@pytest.mark.parametrize("name", SCENARIOS)
def test_scenario_instance(corpus, name):
    assert scenario_record(name) == corpus["scenarios"][name]


@pytest.mark.parametrize("name", REPORT_COMMANDS)
def test_report_bytes(corpus, name):
    assert report_record(name) == corpus["reports"][name]


DOCUMENTS = {f"f{k}-s{s}": partial(suite_instance, k, s) for k, s in INSTANCE_KEYS}
DOCUMENTS.update({name: partial(make, SCENARIO_CFG) for name, make in SCENARIOS.items()})


@pytest.mark.parametrize("name", DOCUMENTS)
def test_document_redumps_to_its_own_bytes(name):
    """``gnbg verify`` skips its probe comparison for a document that
    re-dumps to the bytes it was read from; every generated document must."""
    text = dump_instance(DOCUMENTS[name]())
    assert dump_instance(load_instance(text)) == text


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(build_corpus(), indent=1, sort_keys=True) + "\n")
