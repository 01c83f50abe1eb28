"""Bad input fails early: each constructor, the document parser, the grid
export and the command line reject what they cannot use, with the
documented exception or exit code and a message naming the fault."""

import io
import json
import re

import numpy as np
import pytest

from gnbg.cli import main
from gnbg.core import BOUND_LIMIT, BudgetedEvaluator, Component, ProblemInstance
from gnbg.generators import (
    ScenarioConfig,
    gen_conditioning,
    gen_interaction,
    gen_linearity,
    gen_multicomponent,
    gen_multimodal,
    suite_instance,
)
from gnbg.harness import ExperimentSpec, run_experiment, sweep
from gnbg.instance_io import (
    InstanceFormatError,
    _json_text,
    csv_report_text,
    dump_instance,
    export_grid,
    parse_instance,
    report_to_dict,
    serialize_instance,
    write_csv_report,
)
from gnbg.optimizers import OptimizerConfig
from gnbg.rotation import ThetaSpec, random_theta


def _sphere(d=2, bound=100.0, theta=None):
    comp = Component(np.zeros(d), 0.0, np.ones(d), theta=theta)
    return ProblemInstance(d, np.full(d, -bound), np.full(d, bound), (comp,))


_BEYOND_THE_LIMIT = r"bounds must be finite and within \+-2\*\*1000 \(1\.072e\+301\)"


class TestCliUsage:
    def test_invalid_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("GNBG_SEED", "x")
        assert main(["suite", "--id", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "GNBG_SEED must be an integer, got 'x'" in captured.err

    def test_invalid_env_seed_is_reported_before_the_instance_is_read(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GNBG_SEED", "x")
        missing = str(tmp_path / "missing.gnbg.json")
        assert main(["run", "--instance", missing, "--optimizer", "ps"]) == 1
        assert "GNBG_SEED" in capsys.readouterr().err

    def test_env_seed_is_not_read_by_commands_without_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GNBG_SEED", "x")
        path = tmp_path / "sphere.gnbg.json"
        path.write_text(json.dumps(serialize_instance(_sphere())))
        assert main(["verify", "--instance", str(path)]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_suite_all_without_out_is_usage_error(self, capsys):
        assert main(["suite", "--all", "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--all requires --out DIRECTORY" in captured.err

    @pytest.mark.parametrize("source", [
        [],
        ["--instance", "f1.gnbg.json", "--suite", "1"],
    ], ids=["neither", "both"])
    def test_run_takes_exactly_one_source(self, capsys, source):
        assert main(["run", *source, "--optimizer", "ps", "--runs", "1", "--budget", "10"]) == 1
        assert "exactly one of --instance / --suite is required" in capsys.readouterr().err


class TestBoxLimit:
    """Boxes that are finite but reach beyond +-2**1000 are data errors on
    load: before, each failed only partway through a command."""

    def _document(self, tmp_path, bound, **sphere):
        """A document of a sphere at 0 whose box is +-``bound``, which no
        instance can hold: its bounds are replaced after serializing."""
        doc = serialize_instance(_sphere(**sphere))
        d = doc["dim"]
        doc["bounds"] = {"lower": [-bound] * d, "upper": [bound] * d}
        path = tmp_path / "wide.gnbg.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def _assert_rejected(self, capsys):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search("gnbg: document: " + _BEYOND_THE_LIMIT, captured.err)

    def test_pso_run_in_a_box_near_float_range(self, tmp_path, capsys):
        """A 20k-FE PSO run in a +-6e307 box overflowed its velocity and died
        with 'transform input must be finite'."""
        path = self._document(tmp_path, 6e307)
        assert main(["run", "--instance", path, "--optimizer", "pso", "--runs", "1",
                     "--budget", "20000", "--seed", "0"]) == 2
        self._assert_rejected(capsys)

    def test_evaluate_of_a_rotated_sphere_in_a_box_near_float_range(self, tmp_path, capsys):
        """In a +-8e307 box, R(x - m) at the in-box corner 8e307 sign(R[0])
        overflowed, and evaluate raised 'transform input must be finite'."""
        theta = random_theta(30, 1.0, np.random.default_rng(0))
        corner = 8e307 * np.sign(_sphere(d=30, theta=theta).components[0].rotation[0])
        path = self._document(tmp_path, 8e307, d=30, theta=theta)
        point = tmp_path / "corner.json"
        point.write_text(json.dumps(corner.tolist()))
        assert main(["evaluate", "--instance", path, "--point", str(point)]) == 2
        self._assert_rejected(capsys)


class TestComponent:
    @pytest.mark.parametrize("center", [0.0, [[0.0, 0.0]], []], ids=["0-d", "2-d", "empty"])
    def test_center_not_a_nonempty_vector(self, center):
        with pytest.raises(ValueError, match="center must be a nonempty 1-D vector"):
            Component(center, 0.0, np.ones(2))

    def test_h_diag_of_wrong_shape(self):
        with pytest.raises(ValueError, match=r"h_diag must have shape \(2,\), got \(3,\)"):
            Component(np.zeros(2), 0.0, np.ones(3))

    def test_theta_of_other_dimension(self):
        theta = ThetaSpec.from_triples(3, [(1, 2, 0.5)])
        with pytest.raises(ValueError, match="theta dimension does not match center"):
            Component(np.zeros(2), 0.0, np.ones(2), theta=theta)

    def test_rotation_of_wrong_shape(self):
        with pytest.raises(ValueError, match=r"rotation must have shape \(2, 2\)"):
            Component(np.zeros(2), 0.0, np.ones(2), rotation=np.eye(3))


class TestProblemInstance:
    def test_bounds_of_wrong_shape(self):
        comp = Component(np.zeros(2), 0.0, np.ones(2))
        with pytest.raises(ValueError, match=r"bounds must have shape \(2,\)"):
            ProblemInstance(2, np.full(3, -1.0), np.full(2, 1.0), (comp,))

    def test_no_components(self):
        with pytest.raises(ValueError, match="at least one component required"):
            ProblemInstance(2, np.full(2, -1.0), np.full(2, 1.0), ())

    def test_component_of_other_dimension(self):
        comp = Component(np.zeros(3), 0.0, np.ones(3))
        with pytest.raises(ValueError, match="component 0 has dim 3, expected 2"):
            ProblemInstance(2, np.full(2, -1.0), np.full(2, 1.0), (comp,))

    def test_width_must_be_finite(self):
        """Every bound lies within +-2**1000, which keeps the width finite:
        the limit itself is accepted; the next float beyond it, on either
        side, and a box whose width overflows are rejected."""
        assert _sphere(bound=BOUND_LIMIT).upper[0] == BOUND_LIMIT == 2.0**1000
        beyond = np.nextafter(BOUND_LIMIT, np.inf)
        comp = Component(np.zeros(2), 0.0, np.ones(2))
        for build in (lambda: _sphere(bound=beyond), lambda: _sphere(bound=1.7e308),
                      lambda: ProblemInstance(2, np.array([-1.0, -beyond]), np.ones(2), (comp,)),
                      lambda: ProblemInstance(2, -np.ones(2), np.array([beyond, 1.0]), (comp,))):
            with pytest.raises(ValueError, match=_BEYOND_THE_LIMIT):
                build()


class TestConstructors:
    @pytest.mark.parametrize("build, message", [
        (lambda: ScenarioConfig(dim=0), "dim must be >= 1, got 0"),
        (lambda: ExperimentSpec(_sphere(), OptimizerConfig(), budget=0), "budget must be >= 1, got 0"),
        (lambda: BudgetedEvaluator(_sphere(), max_fe=0), "max_fe must be >= 1, got 0"),
        (lambda: OptimizerConfig(population=0), "population must be >= 1, got 0"),
        (lambda: ThetaSpec(0, np.zeros((0, 0))), "dim must be >= 1, got 0"),
        (lambda: ThetaSpec(2, np.zeros((3, 3))), r"angles must have shape \(2, 2\), got \(3, 3\)"),
    ], ids=["ScenarioConfig", "ExperimentSpec", "BudgetedEvaluator", "OptimizerConfig",
            "ThetaSpec-dim", "ThetaSpec-angles"])
    def test_rejects(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


def _spec(**fields):
    return ExperimentSpec(_sphere(), OptimizerConfig(), **fields)


# every count a configuration sets: (its name in messages, a build from one
# value of it, and the count read back from what was built)
COUNTS = {
    "OptimizerConfig.seed": ("seed", lambda v: OptimizerConfig(seed=v), lambda c: c.seed),
    "OptimizerConfig.population": (
        "population", lambda v: OptimizerConfig(population=v), lambda c: c.population),
    "ExperimentSpec.runs": ("runs", lambda v: _spec(runs=v), lambda s: s.runs),
    "ExperimentSpec.budget": ("budget", lambda v: _spec(budget=v), lambda s: s.budget),
    "ExperimentSpec.milestones": (
        "milestones", lambda v: _spec(milestones=(v,)), lambda s: s.milestones[0]),
    "BudgetedEvaluator.max_fe": (
        "max_fe", lambda v: BudgetedEvaluator(_sphere(), max_fe=v), lambda e: e.max_fe),
    "ScenarioConfig.dim": ("dim", lambda v: ScenarioConfig(dim=v), lambda c: c.dim),
    "ScenarioConfig.seed": ("seed", lambda v: ScenarioConfig(seed=v), lambda c: c.seed),
    "sweep.workers": ("workers", lambda v: sweep([_spec(runs=1, budget=3)], workers=v),
                      lambda reports: reports[0].run_results[0].fe_used),
    "gen_multicomponent.o": ("number of components", lambda v: gen_multicomponent(v),
                             lambda inst: inst.provenance["knobs"]["o"]),
    "export_grid.i": ("i", lambda v: export_grid(_sphere(4), v, 0, 2, np.zeros(4)),
                      lambda doc: doc["axis"][0]),
    "export_grid.j": ("j", lambda v: export_grid(_sphere(4), 0, v, 2, np.zeros(4)),
                      lambda doc: doc["axis"][1]),
    "export_grid.resolution": (
        "resolution", lambda v: export_grid(_sphere(), 0, 1, v, np.zeros(2)),
        lambda doc: doc["resolution"]),
    "suite_instance.index": ("suite index", lambda v: suite_instance(v),
                             lambda inst: inst.provenance["knobs"]["index"]),
}


class TestCounts:
    """Every count is a whole number, checked when its configuration is
    built: an int, a numpy integer or a float with no fraction, stored as
    the int it names."""

    @pytest.mark.parametrize("value", [1.5, 2.5, 10.7, np.nan, np.inf, "3"],
                             ids=["1.5", "2.5", "10.7", "nan", "inf", "str"])
    @pytest.mark.parametrize("field", COUNTS)
    def test_rejects_what_is_not_a_whole_number(self, field, value):
        name, build, _ = COUNTS[field]
        with pytest.raises(ValueError, match=f"^{name} must be a whole number, got {value}$"):
            build(value)

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float32(3.0)],
                             ids=["int", "float", "int64", "float32"])
    @pytest.mark.parametrize("field", COUNTS)
    def test_stores_a_whole_number_as_an_int(self, field, value):
        _, build, read = COUNTS[field]
        count = read(build(value))
        assert count == 3 and type(count) is int

    @pytest.mark.parametrize("field", COUNTS)
    def test_rejects_a_bool(self, field):
        name, build, _ = COUNTS[field]
        with pytest.raises(ValueError, match=f"^{name} must be a whole number, got True$"):
            build(True)

    def test_integral_float_budget_writes_the_same_reports(self):
        """The budget 1e3 is the budget 1000: the same milestones, keys and bytes."""
        def reports(budget):
            report = run_experiment(_spec(runs=2, budget=budget))
            return csv_report_text([report]), _json_text([report_to_dict(report)])

        assert reports(1e3) == reports(1000)
        assert '"1000": ' in reports(1e3)[1]

    def test_fractional_instance_seed_is_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="^seed must be a whole number, got 1.5$"):
            gen_linearity(0.5, ScenarioConfig(dim=2, seed=1.5))
        with pytest.raises(ValueError, match="^seed must be a whole number, got 1.5$"):
            suite_instance(1, seed=1.5)

    def test_negative_instance_seed_is_accepted(self):
        assert ScenarioConfig(seed=-1).seed == -1
        assert dump_instance(suite_instance(3, seed=-1.0)) == dump_instance(suite_instance(3, -1))

    def test_range_messages_are_kept(self):
        with pytest.raises(ValueError, match=r"^suite index must be in \[1, 24\], got 0$"):
            suite_instance(0.0)
        with pytest.raises(ValueError, match=r"^axis indices must be distinct and in \[0, 2\)"):
            export_grid(_sphere(), 1.0, 1, 3, np.zeros(2))
        with pytest.raises(ValueError, match="^milestones must be >= 1, got 0$"):
            _spec(milestones=(0.0, 10))


class TestFieldsThatAreNotCounts:
    """A field that is not a count rejects a value of the wrong type with a
    ValueError naming it, a numeric string included."""

    def test_kind_not_a_string(self):
        with pytest.raises(ValueError, match=r"^unknown optimizer kind \['ps'\]$"):
            OptimizerConfig(kind=["ps"])

    @pytest.mark.parametrize("value", ["x", "1e-8", None, True])
    def test_threshold_not_a_real_number(self, value):
        message = f"^threshold must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            _spec(threshold=value)

    def test_milestones_not_a_sequence(self):
        with pytest.raises(ValueError, match="^milestones must be a sequence of counts, got 5$"):
            _spec(milestones=5)

    @pytest.mark.parametrize("value", ["x", "0.5"])
    def test_lambda_not_a_real_number(self, value):
        with pytest.raises(ValueError, match=f"^lambda must be a real number, got '{value}'$"):
            gen_linearity(value)

    @pytest.mark.parametrize("value", ["x", "0.5", True, None, float("nan")])
    @pytest.mark.parametrize("knob,build", [
        ("condition number", lambda v, cfg: gen_conditioning(v, cfg)),
        ("p_prob", lambda v, cfg: gen_interaction(p_prob=v, cfg=cfg)),
        ("fixed_angle", lambda v, cfg: gen_interaction(fixed_angle=v, cfg=cfg)),
        ("mu", lambda v, cfg: gen_multimodal(v, 1.0, cfg)),
        ("omega", lambda v, cfg: gen_multimodal(0.5, v, cfg)),
    ], ids=["cond", "p_prob", "fixed_angle", "mu", "omega"])
    def test_scenario_knob_not_a_real_number(self, knob, build, value):
        """A scenario knob of the wrong type, or NaN, is a ValueError naming
        it (None for an interaction knob is the knob not given)."""
        with pytest.raises(ValueError, match=knob):
            build(value, ScenarioConfig(dim=2))

    @pytest.mark.parametrize("cond", [0.5, float("inf")])
    def test_condition_number_must_be_finite_and_at_least_one(self, cond):
        message = f"^condition number must be finite and >= 1, got {cond}$"
        with pytest.raises(ValueError, match=message):
            gen_conditioning(cond, ScenarioConfig(dim=2))

    def test_sigma_not_a_real_number(self):
        with pytest.raises(ValueError, match="^sigma must be a real number, got '0'$"):
            Component(np.zeros(2), "0", np.ones(2))


class TestParseInstance:
    def _doc(self):
        return serialize_instance(_sphere())

    def test_document_not_an_object(self):
        with pytest.raises(InstanceFormatError, match="document: expected a JSON object"):
            parse_instance([self._doc()])

    def test_component_not_an_object(self):
        doc = self._doc()
        doc["components"] = [[]]
        with pytest.raises(InstanceFormatError, match=r"components\[0\]: expected a JSON object"):
            parse_instance(doc)

    def test_dim_zero(self):
        doc = self._doc()
        doc["dim"] = 0
        with pytest.raises(InstanceFormatError, match="document.dim: must be >= 1"):
            parse_instance(doc)

    def test_instance_fault_is_named_as_the_document(self):
        doc = self._doc()
        doc["components"][0]["m"] = [150.0, 0.0]
        with pytest.raises(InstanceFormatError,
                           match="document: component 0 center lies outside the bounds"):
            parse_instance(doc)


class TestExportGrid:
    def test_resolution_one(self):
        with pytest.raises(ValueError, match="resolution must be >= 2, got 1"):
            export_grid(_sphere(), 0, 1, 1, np.zeros(2))

    def test_fixed_of_wrong_shape(self):
        with pytest.raises(ValueError, match=r"fixed must have shape \(2,\)"):
            export_grid(_sphere(), 0, 1, 3, np.zeros(3))


def test_csv_report_of_no_reports_writes_nothing():
    stream = io.StringIO()
    write_csv_report([], stream)
    assert stream.getvalue() == ""
