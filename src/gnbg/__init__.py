"""GNBG: a configurable generator of box-constrained continuous
minimization problems, with baseline optimizers and an experiment harness."""

from .core import (
    BudgetedEvaluator,
    BudgetExhaustedError,
    Component,
    ProblemInstance,
    classify,
    dominated_components,
    evaluate,
    evaluate_batch,
)
from .generators import (
    ScenarioConfig,
    gen_conditioning,
    gen_interaction,
    gen_linearity,
    gen_multicomponent,
    gen_multimodal,
    suite_instance,
)
from .harness import ExperimentReport, ExperimentSpec, run_experiment, sweep
from .instance_io import (
    InstanceFormatError,
    dump_instance,
    export_grid,
    load_instance,
    parse_instance,
    serialize_instance,
)
from .optimizers import OptimizerConfig, RunResult, run_optimizer
from .rotation import ThetaSpec, orthogonality_error, random_theta, rotation_from_theta
from .transform import TransformParams, apply_transform

__version__ = "0.1.0"

__all__ = [
    "BudgetedEvaluator",
    "BudgetExhaustedError",
    "Component",
    "ExperimentReport",
    "ExperimentSpec",
    "InstanceFormatError",
    "OptimizerConfig",
    "ProblemInstance",
    "RunResult",
    "ScenarioConfig",
    "ThetaSpec",
    "TransformParams",
    "apply_transform",
    "classify",
    "dominated_components",
    "dump_instance",
    "evaluate",
    "evaluate_batch",
    "export_grid",
    "gen_conditioning",
    "gen_interaction",
    "gen_linearity",
    "gen_multicomponent",
    "gen_multimodal",
    "load_instance",
    "orthogonality_error",
    "parse_instance",
    "random_theta",
    "rotation_from_theta",
    "run_experiment",
    "run_optimizer",
    "serialize_instance",
    "suite_instance",
    "sweep",
]
