"""Bad input fails early: each constructor, the document parser, the grid
export and the command line reject what they cannot use, with the
documented exception or exit code and a message naming the fault."""

import io
import json

import numpy as np
import pytest

from gnbg.cli import main
from gnbg.core import BudgetedEvaluator, Component, ProblemInstance
from gnbg.generators import ScenarioConfig
from gnbg.harness import ExperimentSpec
from gnbg.instance_io import (
    InstanceFormatError,
    export_grid,
    parse_instance,
    serialize_instance,
    write_csv_report,
)
from gnbg.optimizers import OptimizerConfig
from gnbg.rotation import ThetaSpec


def _sphere(d=2, bound=100.0):
    comp = Component(np.zeros(d), 0.0, np.ones(d))
    return ProblemInstance(d, np.full(d, -bound), np.full(d, bound), (comp,))


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
        """A box is accepted while upper - lower stays below float's largest
        value, 1.7977e308, and rejected once that width overflows."""
        assert _sphere(bound=8.98e307).upper[0] == 8.98e307  # width 1.796e308
        with pytest.raises(ValueError, match="bounds width upper - lower must be finite"):
            _sphere(bound=8.99e307)  # width 1.798e308 > 1.7977e308


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
