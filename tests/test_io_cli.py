"""Tests for serialization, grid export, report emission, and the CLI."""

import csv
import json
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel import _two_far_basins, random_instances

from gnbg import cli
from gnbg.cli import _build_parser, main
from gnbg.core import Component, ProblemInstance, evaluate, evaluate_batch
from gnbg.generators import ScenarioConfig, gen_linearity, suite_instance
from gnbg.harness import ExperimentSpec, run_experiment, sweep
from gnbg.instance_io import (
    InstanceFormatError,
    csv_report_text,
    dump_instance,
    export_grid,
    load_instance,
    parse_instance,
    report_to_dict,
    serialize_instance,
)
from gnbg.optimizers import OptimizerConfig
from gnbg.rotation import ThetaSpec, random_theta
from gnbg.transform import TransformParams


def _schema(name):
    text = resources.files("gnbg.schemas").joinpath(name).read_text()
    return json.loads(text)


def _strict_json(text):
    """``json.loads`` that rejects the non-standard ``Infinity`` and ``NaN``."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def _sphere_2d():
    comp = Component(np.zeros(2), 0.0, np.ones(2))
    return ProblemInstance(2, np.full(2, -100.0), np.full(2, 100.0), (comp,))


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.just("<list>")  # the placeholder dump_instance swaps for lists
)
_PROVENANCE = st.none() | st.fixed_dictionaries({
    "generator": st.text(max_size=8),
    "knobs": st.recursive(
        _JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=10,
    ),
    "seed": st.integers(0, 2**32 - 1),
})


@st.composite
def stored_instances(draw):
    """Instances as documents hold them: sparse or dense theta, the dense
    rotation escape, active transforms and provenance with nested knobs."""
    d = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    components = []
    for _ in range(draw(st.integers(1, 4))):
        theta, rotation = None, None
        kind = draw(st.sampled_from(["theta", "rotation", "none"]))
        if kind == "theta":
            theta = random_theta(d, draw(st.floats(0.0, 1.0)), rng)
        elif kind == "rotation":
            rotation = np.linalg.qr(rng.standard_normal((d, d)))[0]
        transform = TransformParams()
        if draw(st.booleans()):
            transform = TransformParams(tuple(rng.uniform(0.05, 1.0, 2)), tuple(rng.uniform(0.0, 60.0, 4)))
        components.append(Component(
            center=rng.uniform(-80, 80, d),
            sigma=draw(st.floats(-1e3, 1e3)),
            h_diag=10.0 ** rng.uniform(-3, 3, d),
            lam=draw(st.sampled_from([1.0, 0.25, 1.7])),
            transform=transform,
            theta=theta,
            rotation=rotation,
        ))
    return ProblemInstance(d, np.full(d, -100.0), np.full(d, 100.0), tuple(components),
                           draw(_PROVENANCE))


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(stored_instances())
    def test_dump_is_json_dumps_byte_for_byte(self, inst):
        assert dump_instance(inst) == json.dumps(serialize_instance(inst), indent=2) + "\n"

    def test_suite_instance_round_trips(self):
        inst = suite_instance(14, seed=0)
        again = parse_instance(serialize_instance(inst))
        rng = np.random.default_rng(0)
        for x in rng.uniform(-100, 100, size=(1000, 30)):
            a, b = evaluate(inst, x), evaluate(again, x)
            assert abs(a - b) <= 1e-15 * max(1.0, abs(a))

    def test_dense_rotation_escape_field(self):
        theta = random_theta(4, 1.0, np.random.default_rng(2))
        from gnbg.rotation import rotation_from_theta

        comp = Component(
            np.zeros(4), -1.0, np.arange(1.0, 5.0), rotation=rotation_from_theta(theta)
        )
        inst = ProblemInstance(4, np.full(4, -10.0), np.full(4, 10.0), (comp,))
        doc = serialize_instance(inst)
        assert "rotation" in doc["components"][0]
        again = parse_instance(doc)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        assert evaluate(again, x) == evaluate(inst, x)

    def test_text_round_trip(self):
        inst = suite_instance(5, seed=3)
        again = load_instance(dump_instance(inst))
        x = np.full(30, 7.5)
        assert evaluate(again, x) == evaluate(inst, x)

    @settings(max_examples=100, deadline=None)
    @given(random_instances())
    def test_reserializes_to_identical_bytes(self, case):
        inst, X = case
        text = dump_instance(inst)
        again = load_instance(text)
        assert dump_instance(again) == text
        assert np.array_equal(evaluate_batch(again, X), evaluate_batch(inst, X))

    def test_documents_satisfy_schema(self):
        schema = _schema("instance.schema.json")
        for k in (1, 12, 21):
            jsonschema.validate(serialize_instance(suite_instance(k, seed=0)), schema)

    def test_schema_bounds_lie_within_the_box_limit(self):
        schema = _schema("instance.schema.json")
        doc = serialize_instance(_sphere_2d())
        doc["bounds"] = {"lower": [-2.0**1000] * 2, "upper": [2.0**1000] * 2}
        jsonschema.validate(doc, schema)
        for side, sign in (("lower", -1.0), ("upper", 1.0)):
            beyond = dict(doc["bounds"], **{side: [sign * np.nextafter(2.0**1000, np.inf)] * 2})
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(dict(doc, bounds=beyond), schema)


class TestParseErrors:
    def _doc(self):
        return serialize_instance(_sphere_2d())

    def test_nonpositive_h_named(self):
        doc = self._doc()
        doc["components"][0]["h_diag"][1] = 0.0
        with pytest.raises(InstanceFormatError, match="h_diag"):
            parse_instance(doc)

    def test_bad_theta_pair_named(self):
        doc = self._doc()
        doc["components"][0]["theta"] = [{"p": 2, "q": 2, "angle": 0.5}]
        with pytest.raises(InstanceFormatError, match="theta"):
            parse_instance(doc)

    def test_version_mismatch(self):
        doc = self._doc()
        doc["format_version"] = "2.0"
        with pytest.raises(InstanceFormatError, match="format_version"):
            parse_instance(doc)

    def test_missing_field_named(self):
        doc = self._doc()
        del doc["components"][0]["sigma"]
        with pytest.raises(InstanceFormatError, match="sigma"):
            parse_instance(doc)

    def test_invalid_json_text(self):
        with pytest.raises(InstanceFormatError):
            load_instance("{not json")

    @pytest.mark.parametrize("row,message", [
        (5, "unexpected type int"),
        ([0.0, "x"], "non-numeric element"),
        ([0.0], "expected 2 elements, got 1"),
    ], ids=["not-a-list", "non-numeric", "short"])
    def test_bad_rotation_row_named(self, row, message):
        doc = self._doc()
        doc["components"][0]["rotation"] = [[1.0, 0.0], row]
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(doc)
        assert str(exc.value) == f"components[0].rotation[1]: {message}"


class TestThetaOrRotation:
    """A component holds its angles or a dense rotation, never both: a
    document stores only one, so both would not survive a round trip."""

    def test_component_rejects_both(self):
        theta = random_theta(3, 1.0, np.random.default_rng(0))
        rotation = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))[0]
        with pytest.raises(ValueError, match="theta and rotation are mutually exclusive"):
            Component(np.zeros(3), 0.0, np.ones(3), theta=theta, rotation=rotation)

    def test_component_rejects_both_with_identity_theta(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            Component(np.zeros(2), 0.0, np.ones(2), theta=ThetaSpec(2, np.zeros((2, 2))),
                      rotation=np.eye(2))

    def test_document_with_both_named(self):
        doc = serialize_instance(_sphere_3d())
        doc["components"][0]["theta"] = [{"p": 1, "q": 2, "angle": 0.5}]
        doc["components"][0]["rotation"] = np.eye(3).tolist()
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(doc)
        assert str(exc.value) == "components[0]: theta and rotation are mutually exclusive"


class TestThetaEntryErrors:
    """A malformed theta entry after a well-formed one is named by its index
    with the per-entry message, whether or not valid entries follow it."""

    @pytest.mark.parametrize("bad,message", [
        ([1, 3, 0.5], "components[0].theta[1]: expected a JSON object"),
        ({"p": 1, "angle": 0.5}, "components[0].theta[1]: missing field 'q'"),
        ({"p": 1, "q": 3, "angle": "1.0"}, "components[0].theta[1].angle: unexpected type str"),
        ({"p": 1.0, "q": 3, "angle": 0.5}, "components[0].theta[1].p: unexpected type float"),
        ({"p": 1, "q": True, "angle": 0.5}, "components[0].theta[1].q: unexpected type bool"),
    ], ids=["non-object", "missing-q", "string-angle", "float-p", "bool-q"])
    @pytest.mark.parametrize("after", [[], [{"p": 2, "q": 3, "angle": 0.25}]], ids=["last", "then-valid"])
    def test_message_names_the_entry(self, bad, message, after):
        doc = serialize_instance(_sphere_3d())
        doc["components"][0]["theta"] = [{"p": 1, "q": 2, "angle": 0.5}, bad, *after]
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(doc)
        assert str(exc.value) == message

    @pytest.mark.parametrize("angles", [(0.5, 0.25), (0.0, 0.5)], ids=["nonzero", "zero-first"])
    def test_repeated_pair_named(self, angles):
        doc = serialize_instance(_sphere_3d())
        doc["components"][0]["theta"] = [
            {"p": 1, "q": 3, "angle": angles[0]},
            {"p": 2, "q": 3, "angle": 0.75},
            {"p": 1, "q": 3, "angle": angles[1]},
        ]
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(doc)
        assert str(exc.value) == "components[0]: repeated theta pair (p=1, q=3)"

    def test_verify_exits_2_naming_a_repeated_pair(self, tmp_path, capsys):
        doc = serialize_instance(suite_instance(22, seed=0))
        theta = doc["components"][1]["theta"]
        theta.append(dict(theta[0], angle=theta[0]["angle"] / 2))
        path = tmp_path / "dup.gnbg.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        p, q = theta[0]["p"], theta[0]["q"]
        assert f"components[1]: repeated theta pair (p={p}, q={q})" in captured.err

    def test_int_angle_after_float_angles_is_read_as_float(self):
        doc = serialize_instance(_sphere_3d())
        doc["components"][0]["theta"] = [{"p": 1, "q": 2, "angle": 0.5}, {"p": 2, "q": 3, "angle": 1}]
        triples = parse_instance(doc).components[0].theta.to_triples()
        assert triples == [(1, 2, 0.5), (2, 3, 1.0)]
        assert type(triples[1][2]) is float


def _sphere_3d():
    comp = Component(np.zeros(3), 0.0, np.ones(3))
    return ProblemInstance(3, np.full(3, -100.0), np.full(3, 100.0), (comp,))


def _set_sigma(doc):
    doc["components"][0]["sigma"] = float("nan")


def _set_angle(doc):
    doc["components"][0]["theta"] = [{"p": 1, "q": 2, "angle": float("nan")}]


def _set_center(doc):
    doc["components"][0]["m"][1] = float("nan")


def _set_rotation(doc):
    doc["components"][0]["rotation"] = [[float("nan")] * 2] * 2


def _set_bounds(doc):
    doc["bounds"]["lower"][0] = float("-inf")


class TestNonFiniteRejected:
    """Non-finite values that JSON admits (NaN, Infinity) are rejected when
    the instance is built, with the field named, not at evaluation."""

    @pytest.mark.parametrize("mutate,field", [
        (_set_sigma, "sigma"),
        (_set_angle, "theta"),
        # the element rule names the field by its file key
        pytest.param(_set_center, "components[0].m", id="_set_center-center"),
        (_set_rotation, "rotation"),
        (_set_bounds, "bounds"),
    ])
    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_cli_exits_2_naming_the_field(self, tmp_path, capsys, mutate, field, command):
        doc = serialize_instance(_sphere_2d())
        mutate(doc)
        path = tmp_path / "bad.gnbg.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert field in captured.err

    @pytest.mark.parametrize("build", [
        lambda: Component(np.array([0.0, np.nan]), 0.0, np.ones(2)),
        lambda: Component(np.zeros(2), np.nan, np.ones(2)),
        lambda: Component(np.zeros(2), 0.0, np.ones(2), lam=np.inf),
        lambda: Component(np.zeros(2), 0.0, np.ones(2), rotation=np.full((2, 2), np.nan)),
        lambda: ThetaSpec.from_triples(2, [(1, 2, np.nan)]),
        lambda: ProblemInstance(
            2, np.array([-np.inf, -1.0]), np.ones(2), (Component(np.zeros(2), 0.0, np.ones(2)),)
        ),
    ], ids=["center", "sigma", "lambda", "rotation", "angle", "bounds"])
    def test_constructors_reject(self, build):
        with pytest.raises(ValueError, match="finite|orthogonal"):
            build()


def _theta_triple(p=1, q=2, angle=0.5):
    def mutate(doc):
        doc["components"][0]["theta"] = [{"p": p, "q": q, "angle": angle}]
    return mutate


def _set_field(key, value):
    def mutate(doc):
        doc["components"][0][key] = value
    return mutate


def _set_dim(doc):
    doc["dim"] = True


def _set_center_element(doc):
    doc["components"][0]["m"][0] = True


def _set_h_element(doc):
    doc["components"][0]["h_diag"][1] = "1.5"


class TestBooleansRejected:
    """JSON true/false is not a number: bool subclasses int in Python, so a
    boolean must be turned away by name wherever an int or float is read
    (and a numeric string wherever a vector element is)."""

    @pytest.mark.parametrize("mutate,message", [
        (_set_dim, "document.dim: unexpected type bool"),
        (_theta_triple(p=True), "theta[0].p: unexpected type bool"),
        (_theta_triple(q=True), "theta[0].q: unexpected type bool"),
        (_theta_triple(angle=False), "theta[0].angle: unexpected type bool"),
        (_set_field("sigma", True), "components[0].sigma: unexpected type bool"),
        (_set_field("lambda", True), "components[0].lambda: unexpected type bool"),
        (_set_center_element, "components[0].m: non-numeric element"),
        (_set_h_element, "components[0].h_diag: non-numeric element"),
    ], ids=["dim", "p", "q", "angle", "sigma", "lambda", "m", "h_diag-string"])
    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_cli_exits_2_naming_the_field(self, tmp_path, capsys, mutate, message, command):
        doc = serialize_instance(_sphere_2d())
        mutate(doc)
        path = tmp_path / "bad.gnbg.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_integers_still_accepted(self):
        doc = serialize_instance(_sphere_2d())
        _theta_triple(angle=1)(doc)
        doc["components"][0]["sigma"] = 3
        doc["components"][0]["m"] = [1, 2]
        inst = parse_instance(doc)
        assert inst.components[0].sigma == 3.0
        assert inst.optimum_position.tolist() == [1.0, 2.0]


class TestOutOfRangeRejected:
    """A JSON integer beyond float range is a data error naming the field."""

    @pytest.mark.parametrize("mutate,message", [
        (_set_field("sigma", 10**400), "components[0].sigma: number out of float range"),
        (_set_field("lambda", 10**400), "components[0].lambda: number out of float range"),
        (_theta_triple(angle=-(10**400)), "theta[0].angle: number out of float range"),
        (_set_field("m", [10**400, 0]), "components[0].m: element out of float range"),
    ], ids=["sigma", "lambda", "angle", "m"])
    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_cli_exits_2_naming_the_field(self, tmp_path, capsys, mutate, message, command):
        doc = serialize_instance(_sphere_2d())
        mutate(doc)
        path = tmp_path / "huge.gnbg.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestPointFiles:
    """Point files hold numbers only; errors name the file and the row."""

    @pytest.mark.parametrize("text,message", [
        ("1 2\n3\n", "row 2: expected 2 elements, got 1"),
        ("[[1, 2], [3]]", "row 2: expected 2 elements, got 1"),
        ('{"a": 1}', "row 1: non-numeric element"),
        ('["1", true]', "row 1: non-numeric element"),
        ("[[1, 2], [3, true]]", "row 2: non-numeric element"),
        ("[[1, 2], [3, [4]]]", "row 2: non-numeric element"),
        ("[1, null]", "row 1: non-numeric element"),
        ("1 2\n3 x\n", "row 2: non-numeric element"),
        (f"[1, {10**400}]", "row 1: element out of float range"),
        ("[1, 2, 3]", "row 1: expected 2 elements, got 3"),
        ("0 0\n1e400 0\n", "row 2: non-finite element"),
        ("nan 0", "row 1: non-finite element"),
        ("inf 1", "row 1: non-finite element"),
        ("[NaN, 0]", "row 1: non-finite element"),
        ("[[0, 0], [1e400, 0]]", "row 2: non-finite element"),
    ], ids=["ragged-text", "ragged-json", "object", "string-and-bool", "bool-in-row",
            "nested", "null", "text-token", "int-overflow", "one-point-too-long",
            "text-overflow", "text-nan", "text-inf", "json-nan", "json-overflow"])
    def test_evaluate_rejects(self, tmp_path, capsys, text, message):
        path = tmp_path / "inst.gnbg.json"
        path.write_text(dump_instance(_sphere_2d()))
        point = tmp_path / "points.txt"
        point.write_text(text)
        assert main(["evaluate", "--instance", str(path), "--point", str(point)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{point}: {message}" in captured.err


class TestExportGrid:
    def test_corner_value_matches_arithmetic(self):
        doc = export_grid(_sphere_2d(), 0, 1, 3, np.zeros(2))
        assert doc["values"][0][0] == 20000.0  # f(-100, -100)
        assert doc["values"][2][2] == 20000.0

    def test_batch_grid_equals_pointwise(self):
        inst = suite_instance(22, seed=0)
        fixed = np.random.default_rng(0).uniform(-100, 100, inst.dim)
        doc = export_grid(inst, 3, 7, 9, fixed)
        xi = np.linspace(-100, 100, 9)
        x = fixed.copy()
        for r, a in enumerate(xi):
            for c, b in enumerate(xi):
                x[3], x[7] = a, b
                assert doc["values"][r][c] == evaluate(inst, x)

    def test_center_node_hits_sigma(self):
        doc = export_grid(_sphere_2d(), 0, 1, 3, np.zeros(2))
        assert doc["values"][1][1] == 0.0

    def test_resolution_two_gives_corners(self):
        doc = export_grid(_sphere_2d(), 0, 1, 2, np.zeros(2))
        assert np.shape(doc["values"]) == (2, 2)
        assert all(v == 20000.0 for row in doc["values"] for v in row)

    def test_schema_valid(self):
        doc = export_grid(_sphere_2d(), 0, 1, 4, np.zeros(2))
        jsonschema.validate(doc, _schema("grid.schema.json"))

    def test_bad_axes_rejected(self):
        with pytest.raises(ValueError):
            export_grid(_sphere_2d(), 1, 1, 3, np.zeros(2))
        with pytest.raises(ValueError):
            export_grid(_sphere_2d(), 0, 5, 3, np.zeros(2))


class TestCsvReport:
    def _report(self, budget=20_000):
        spec = ExperimentSpec(
            instance=gen_linearity(1.0),
            optimizer=OptimizerConfig(kind="ps"),
            runs=2,
            budget=budget,
            milestones=(budget // 2, budget),
            knob=1.0,
        )
        return run_experiment(spec)

    def test_column_layout(self):
        text = csv_report_text([self._report()])
        header = text.splitlines()[0].split(",")
        assert header == [
            "knob", "mean_err_m1", "std_err_m1", "mean_err_m2", "std_err_m2",
            "mean_fe_success", "success_rate",
        ]

    def test_failure_renders_dashes(self):
        text = csv_report_text([self._report(budget=200)])
        row = text.splitlines()[1].split(",")
        assert row[-2] == "--"
        assert row[-1] == "0.0"

    def test_string_knob_is_written_as_it_is(self):
        """``ExperimentSpec.knob`` may be a string: the CSV and the JSON
        record both carry it unchanged."""
        instance = gen_linearity(1.0, ScenarioConfig(dim=2))
        reports = sweep([ExperimentSpec(instance, OptimizerConfig(kind="ps"), runs=1, budget=50, knob=v)
                         for v in ["a", "b"]])
        assert [row.split(",")[0] for row in csv_report_text(reports).splitlines()[1:]] == ["a", "b"]
        records = json.loads(json.dumps([report_to_dict(r) for r in reports], allow_nan=False))
        assert [r["knob"] for r in records] == ["a", "b"]


class TestCli:
    def test_suite_byte_identical(self, capsys):
        assert main(["suite", "--id", "1", "--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert main(["suite", "--id", "1", "--seed", "42"]) == 0
        assert capsys.readouterr().out == first

    def test_generate_and_classify(self, tmp_path, capsys):
        out = tmp_path / "inst.gnbg.json"
        code = main(["generate", "--scenario", "linearity", "--value", "0.5",
                     "--seed", "0", "--out", str(out)])
        assert code == 0
        assert main(["classify", "--instance", str(out)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["basin_linearity"] == "linear"

    def test_evaluate_at_center_prints_sigma(self, tmp_path, capsys):
        inst = suite_instance(1, seed=0)
        path = tmp_path / "f1.gnbg.json"
        path.write_text(dump_instance(inst))
        point = tmp_path / "point.json"
        point.write_text(json.dumps(inst.optimum_position.tolist()))
        assert main(["evaluate", "--instance", str(path), "--point", str(point)]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == inst.optimum_value

    def test_evaluate_many_points_prints_each_value(self, tmp_path, capsys):
        inst = suite_instance(24, seed=0)
        path = tmp_path / "f24.gnbg.json"
        path.write_text(dump_instance(inst))
        X = np.random.default_rng(5).uniform(inst.lower, inst.upper, size=(7, inst.dim))
        X[3] = inst.optimum_position
        point = tmp_path / "points.json"
        point.write_text(json.dumps(X.tolist()))
        assert main(["evaluate", "--instance", str(path), "--point", str(point)]) == 0
        expected = "".join(repr(evaluate(inst, x)) + "\n" for x in X)
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("sep", [" ", ", "])
    def test_evaluate_rows_file_is_one_point_per_line(self, tmp_path, capsys, sep):
        inst = suite_instance(1, seed=0)
        path = tmp_path / "f1.gnbg.json"
        path.write_text(dump_instance(inst))
        X = np.random.default_rng(6).uniform(inst.lower, inst.upper, size=(2, inst.dim))
        point = tmp_path / "points.txt"
        point.write_text("\n".join(sep.join(map(repr, x)) for x in X.tolist()) + "\n\n")
        assert main(["evaluate", "--instance", str(path), "--point", str(point)]) == 0
        assert capsys.readouterr().out.splitlines() == [repr(evaluate(inst, x)) for x in X]
        point.write_text(sep.join(map(repr, X[1].tolist())))  # one line, no newline
        assert main(["evaluate", "--instance", str(path), "--point", str(point)]) == 0
        assert capsys.readouterr().out == repr(evaluate(inst, X[1])) + "\n"

    @pytest.mark.parametrize("text,values", [("3", ["9.0"]), ("3\n-1\n", ["9.0", "1.0"])],
                             ids=["json-number", "rows"])
    def test_evaluate_one_coordinate_points(self, tmp_path, capsys, text, values):
        comp = Component(np.zeros(1), 0.0, np.ones(1))
        path = tmp_path / "line.gnbg.json"
        inst = ProblemInstance(1, np.full(1, -5.0), np.full(1, 5.0), (comp,))
        path.write_text(dump_instance(inst))
        point = tmp_path / "points.txt"
        point.write_text(text)
        assert main(["evaluate", "--instance", str(path), "--point", str(point)]) == 0
        assert capsys.readouterr().out.splitlines() == values

    def test_conditioning_above_one_at_one_dimension_is_data_error(self, capsys):
        assert main(["generate", "--scenario", "conditioning", "--value", "10",
                     "--dim", "1"]) == 2
        assert "condition number 1" in capsys.readouterr().err
        assert main(["generate", "--scenario", "conditioning", "--value", "1",
                     "--dim", "1"]) == 0

    @pytest.mark.parametrize("value", ["2.5", "inf", "nan"])
    def test_fractional_component_count_is_data_error(self, capsys, value):
        assert main(["generate", "--scenario", "multicomponent", "--value", value,
                     "--dim", "2"]) == 2
        assert f"whole number, got {float(value)}" in capsys.readouterr().err
        assert main(["sweep", "--scenario", "multicomponent", "--values", f"2,{value}",
                     "--dim", "2", "--optimizer", "ps", "--runs", "1", "--budget", "10",
                     "--milestones", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"whole number, got {float(value)}" in captured.err

    def test_fractional_component_count_message(self, capsys):
        """The generator's own count check names the fault, as the CLI's did."""
        assert main(["generate", "--scenario", "multicomponent", "--value", "2.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gnbg: number of components must be a whole number, got 2.5\n"

    def test_pso_swarm_larger_than_the_budget_runs_in_the_pool(self, tmp_path, capsys):
        """The default swarm of 100 on a budget of 50: each run charges its
        first 50 particles and ends, in a pool worker too."""
        out = tmp_path / "r.json"
        assert main(["run", "--suite", "1", "--optimizer", "pso", "--budget", "50",
                     "--runs", "2", "--workers", "2", "--json", str(out)]) == 0
        capsys.readouterr()
        [report] = json.loads(out.read_text())
        assert [r["fe_used"] for r in report["run_results"]] == [50, 50]

    def test_nan_threshold_is_data_error(self, capsys):
        assert main(["run", "--suite", "1", "--optimizer", "ps", "--runs", "1",
                     "--budget", "50", "--milestones", "50", "--threshold", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold" in captured.err

    def _overflowing_sphere(self, tmp_path):
        """A valid document whose every FE overflows to inf: a sphere at 0 in
        a +-1e200 box, so a run never improves and keeps no position."""
        box, comp = np.full(2, 1e200), Component(np.zeros(2), 0.0, np.ones(2))
        path = tmp_path / "big.gnbg.json"
        path.write_text(dump_instance(ProblemInstance(2, -box, box, (comp,))))
        return str(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_run_without_a_finite_value_writes_null_position(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["run", "--instance", self._overflowing_sphere(tmp_path), "--optimizer",
                     "ps", "--runs", "1", "--budget", "50", "--json", str(out)]) == 0
        text = out.read_text()
        assert '"best_position": null' in text and '"success": false' in text
        (run,) = json.loads(text)[0]["run_results"]
        assert (run["best_position"], run["success"], run["fe_used"]) == (None, False, 50)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_runs_in_pool_workers_print_no_warning(self, tmp_path, capfd):
        out = tmp_path / "out.json"
        assert main(["run", "--instance", self._overflowing_sphere(tmp_path), "--optimizer",
                     "ps", "--runs", "2", "--budget", "50", "--workers", "2",
                     "--json", str(out)]) == 0
        assert "Warning" not in capfd.readouterr().err
        runs = json.loads(out.read_text())[0]["run_results"]
        assert [(r["best_position"], r["fe_used"]) for r in runs] == [(None, 50)] * 2

    def test_json_report_is_strict_json(self, tmp_path, capsys):
        """Errors no run brought below inf, and their NaN spread, are null."""
        out = tmp_path / "out.json"
        assert main(["run", "--instance", self._overflowing_sphere(tmp_path), "--optimizer",
                     "ps", "--runs", "2", "--budget", "50", "--json", str(out)]) == 0
        (report,) = _strict_json(out.read_text())
        assert set(report["mean_errors"].values()) == set(report["std_errors"].values()) == {None}
        for run in report["run_results"]:
            assert (run["best_value"], run["best_error"]) == (None, None)
            assert set(run["milestone_errors"].values()) == {None}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_report_of_errors_whose_sum_overflows_is_finite(self, tmp_path, capfd):
        """Six finite errors up to 1.5e308 overflow a direct sum; their mean
        and spread are computed on the errors scaled by a power of two."""
        comp = Component(np.zeros(1), 0.0, np.array([1.7e8]))
        path = tmp_path / "wide.gnbg.json"
        path.write_text(dump_instance(ProblemInstance(1, np.zeros(1), np.full(1, 1e150), (comp,))))
        csv_out, json_out = tmp_path / "r.csv", tmp_path / "r.json"
        assert main(["run", "--instance", str(path), "--optimizer", "ps", "--runs", "6",
                     "--budget", "1", "--seed", "0", "--json", str(json_out),
                     "--csv", str(csv_out)]) == 0
        assert capfd.readouterr().err == ""
        (report,) = _strict_json(json_out.read_text())
        errs = np.array([run["best_error"] for run in report["run_results"]])
        assert np.sum(errs / 4) > np.finfo(float).max / 4  # the direct sum overflows
        exponent = np.frexp(np.max(errs))[1]
        scaled = np.ldexp(errs, -exponent)
        expected = [np.ldexp(np.mean(scaled), exponent), np.ldexp(np.std(scaled, ddof=1), exponent)]
        (row,) = list(csv.DictReader(csv_out.read_text().splitlines()))
        assert [float(row["mean_err_m1"]), float(row["std_err_m1"])] == expected
        assert all(np.isfinite(expected))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_of_overflowing_values_is_strict_json(self, tmp_path, capfd):
        """Grid values that overflow are null, with no warning printed."""
        out = tmp_path / "grid.json"
        assert main(["grid", "--instance", self._overflowing_sphere(tmp_path), "--i", "0",
                     "--j", "1", "--resolution", "3", "--out", str(out)]) == 0
        assert "Warning" not in capfd.readouterr().err
        doc = _strict_json(out.read_text())
        jsonschema.validate(doc, _schema("grid.schema.json"))
        assert doc["values"] == [[None] * 3, [None, 0.0, None], [None] * 3]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_classify_of_overflowing_condition_number_is_strict_json(self, tmp_path, capfd):
        """max h / min h beyond float's range is null, with no warning."""
        comp = Component(np.zeros(2), 0.0, np.array([1e300, 1e-300]))
        box = np.full(2, 100.0)
        path = tmp_path / "ill.gnbg.json"
        path.write_text(dump_instance(ProblemInstance(2, -box, box, (comp,))))
        assert main(["classify", "--instance", str(path)]) == 0
        out, err = capfd.readouterr()
        assert "Warning" not in err
        record = _strict_json(out)
        assert record["condition_number"] is None
        assert record["components"][0]["condition_number"] is None
        assert comp.condition_number == np.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_evaluate_and_verify_of_overflowing_values_are_quiet(self, tmp_path, capfd):
        """Values that overflow away from either centre print as inf, and
        verify's domination check evaluates them, with no warning."""
        path, point = tmp_path / "far.gnbg.json", tmp_path / "point.json"
        path.write_text(dump_instance(_two_far_basins()))
        point.write_text("[1e200, -1e200]")
        assert main(["evaluate", "--instance", str(path), "--point", str(point)]) == 0
        assert capfd.readouterr() == ("inf\n", "")
        assert main(["verify", "--instance", str(path)]) == 0
        assert capfd.readouterr() == ("ok\n", "")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["run", "--optimizer", "ps", "--runs", "1", "--budget", "10"],
        ["verify"],
        ["grid", "--i", "0", "--j", "1", "--resolution", "3"],
    ], ids=["run", "verify", "grid"])
    def test_box_whose_width_overflows_is_data_error(self, tmp_path, capsys, argv):
        """A box of +-2**1000 is run, verified and gridded; one whose bounds
        reach the next float beyond, or +-1.7e308 (finite, but its width is
        not), is rejected on load, before a run draws in it or verify probes
        it."""
        doc = serialize_instance(_sphere_2d())
        path = tmp_path / "wide.gnbg.json"
        for bound, code in [(2.0**1000, 0), (np.nextafter(2.0**1000, np.inf), 2), (1.7e308, 2)]:
            doc["bounds"] = {"lower": [-bound] * 2, "upper": [bound] * 2}
            path.write_text(json.dumps(doc))  # compact, so verify would probe it
            assert main([*argv, "--instance", str(path)]) == code
            captured = capsys.readouterr()
            if code:
                assert captured.out == ""
                assert "gnbg: document: bounds must be finite and within +-2**1000 (1.072e+301)" in captured.err

    def _overflowing_power(self, tmp_path):
        """A valid document whose lam = 1.5 power overflows away from its
        centre: the quadratic form is finite, its power is not."""
        comp = Component(np.zeros(2), 0.0, np.full(2, 1e250), lam=1.5)
        box = np.full(2, 100.0)
        path = tmp_path / "power.gnbg.json"
        path.write_text(dump_instance(ProblemInstance(2, -box, box, (comp,))))
        return str(path)

    def test_evaluate_overflowing_power_prints_inf(self, tmp_path, capsys):
        point = tmp_path / "point.json"
        point.write_text("[[50, 50], [0, 0]]")
        assert main(["evaluate", "--instance", self._overflowing_power(tmp_path),
                     "--point", str(point)]) == 0
        assert capsys.readouterr().out == "inf\n0.0\n"

    def test_run_on_overflowing_power_reports_inf(self, tmp_path, capsys):
        assert main(["run", "--instance", self._overflowing_power(tmp_path), "--optimizer",
                     "ps", "--runs", "1", "--budget", "50", "--milestones", "50"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert row.split(",")[1] == "inf"

    def test_inf_threshold_is_data_error(self, tmp_path, capsys):
        assert main(["run", "--instance", self._overflowing_sphere(tmp_path), "--optimizer",
                     "ps", "--runs", "1", "--budget", "50", "--threshold", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "threshold" in captured.err

    def test_sweep_json_report_matches_csv(self, tmp_path, capsys):
        csv_path, json_path = tmp_path / "report.csv", tmp_path / "report.json"
        assert main(["sweep", "--scenario", "linearity", "--values", "1.0,0.5,0.75",
                     "--optimizer", "ps", "--runs", "3", "--budget", "400",
                     "--milestones", "100,400", "--threshold", "1e4", "--seed", "0",
                     "--csv", str(csv_path), "--json", str(json_path)]) == 0
        rows = list(csv.DictReader(csv_path.read_text().splitlines()))
        records = json.loads(json_path.read_text())
        assert [str(r["knob"]) for r in records] == [row["knob"] for row in rows]
        assert [row["knob"] for row in rows] == ["1.0", "0.5", "0.75"]
        for record, row in zip(records, rows):
            runs = record["run_results"]
            assert len(runs) == record["runs"] == 3
            assert all(run["fe_used"] <= 400 for run in runs)
            successes = [run["success"] for run in runs]
            assert record["success_rate"] == 100.0 * sum(successes) / len(successes)
            assert float(row["success_rate"]) == record["success_rate"]
            for n, m in enumerate(record["milestones"], 1):
                mean = np.mean([run["milestone_errors"][str(m)] for run in runs])
                assert float(row[f"mean_err_m{n}"]) == record["mean_errors"][str(m)] == mean

    def test_run_emits_csv(self, capsys):
        code = main(["run", "--suite", "1", "--optimizer", "de", "--runs", "2",
                     "--budget", "2000", "--milestones", "2000", "--seed", "0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("knob,mean_err_m1")
        assert len(lines) == 2

    @pytest.mark.parametrize("argv,env", [
        (["run", "--suite", "1", "--optimizer", "ps", "--seed", "-1"], None),
        (["sweep", "--scenario", "linearity", "--values", "1.0", "--optimizer", "ps",
          "--seed", "-2"], None),
        (["run", "--suite", "1", "--optimizer", "ps"], "-1"),
    ], ids=["run", "sweep", "env"])
    def test_negative_seed_is_data_error_naming_the_seed(self, capsys, monkeypatch, argv, env):
        """The seed is checked when the spec is built, before any run."""
        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli, "sweep", lambda *a, **k: calls.append(a))
        if env is not None:
            monkeypatch.setenv("GNBG_SEED", env)
        assert main(argv + ["--runs", "1", "--budget", "10", "--milestones", "10"]) == 2
        assert calls == []
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_negative_suite_seed_still_accepted(self, capsys):
        assert main(["suite", "--id", "1", "--seed", "-1"]) == 0
        assert capsys.readouterr().out

    def test_small_de_population_is_data_error(self, capsys):
        code = main(["run", "--suite", "1", "--optimizer", "de", "--population", "3",
                     "--workers", "2", "--runs", "2", "--budget", "10", "--milestones", "10"])
        assert code == 2
        assert "population must be >= 4 for DE, got 3" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["run", "--suite", "1"],
        ["sweep", "--scenario", "linearity", "--values", "1.0", "--seed", "0"],
    ], ids=["run", "sweep"])
    def test_workers_below_one_is_data_error(self, capsys, argv, workers):
        code = main(argv + ["--optimizer", "ps", "--runs", "2", "--budget", "50",
                            "--milestones", "50", "--workers", workers])
        assert code == 2
        assert f"workers must be >= 1, got {workers}" in capsys.readouterr().err

    def test_sweep_emits_row_per_value(self, capsys):
        code = main(["sweep", "--scenario", "linearity", "--values", "0.75,1.0",
                     "--optimizer", "ps", "--runs", "2", "--budget", "20000",
                     "--milestones", "20000", "--seed", "0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0.75"

    def test_sweep_builds_each_instance_once(self, capsys, monkeypatch):
        import gnbg.generators

        built = []
        real = gnbg.generators.gen_linearity

        def counting(value, cfg):
            built.append(value)
            return real(value, cfg)

        monkeypatch.setattr(gnbg.generators, "gen_linearity", counting)
        assert main(["sweep", "--scenario", "linearity", "--values", "0.5,1.0",
                     "--optimizer", "ps", "--runs", "1", "--budget", "50",
                     "--milestones", "50", "--seed", "0"]) == 0
        assert built == [0.5, 1.0]
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_grid_fixed_file_holds_one_point(self, tmp_path, capsys):
        path = tmp_path / "inst.gnbg.json"
        path.write_text(dump_instance(_sphere_2d()))
        fixed = tmp_path / "fixed.txt"
        fixed.write_text("1 2\n3 4\n")
        argv = ["grid", "--instance", str(path), "--i", "0", "--j", "1",
                "--resolution", "2", "--fixed", str(fixed)]
        assert main(argv) == 2
        assert f"{fixed}: expected one point, got 2" in capsys.readouterr().err
        fixed.write_text("1 2\n")
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["fixed"] == [1.0, 2.0]

    def test_grid_command(self, tmp_path, capsys):
        path = tmp_path / "inst.gnbg.json"
        assert main(["generate", "--scenario", "linearity", "--value", "1.0",
                     "--dim", "2", "--seed", "0", "--out", str(path)]) == 0
        assert main(["grid", "--instance", str(path), "--i", "0", "--j", "1",
                     "--resolution", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["values"][0][0] == 20000.0

    def test_verify_ok(self, tmp_path, capsys):
        path = tmp_path / "inst.gnbg.json"
        path.write_text(dump_instance(suite_instance(2, seed=0)))
        assert main(["verify", "--instance", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def _count_loads(self, monkeypatch):
        import gnbg.cli

        calls = []

        def counted(text):
            calls.append(text)
            return load_instance(text)

        monkeypatch.setattr(gnbg.cli, "load_instance", counted)
        return calls

    def test_verify_parses_a_canonical_document_once(self, tmp_path, capsys, monkeypatch):
        assert main(["suite", "--id", "5", "--seed", "0", "--out", str(tmp_path / "f5.json")]) == 0
        calls = self._count_loads(monkeypatch)
        assert main(["verify", "--instance", str(tmp_path / "f5.json")]) == 0
        assert capsys.readouterr().out == "ok\n"
        assert len(calls) == 1

    @pytest.mark.parametrize("how", ["compact", "int-for-float"])
    def test_verify_probes_a_non_canonical_document(self, tmp_path, capsys, monkeypatch, how):
        doc = serialize_instance(suite_instance(5, seed=0))
        text = json.dumps(doc)
        if how == "int-for-float":
            doc["bounds"]["lower"][0] = -100
            text = json.dumps(doc, indent=2) + "\n"
        path = tmp_path / "inst.gnbg.json"
        path.write_text(text)
        calls = self._count_loads(monkeypatch)
        assert main(["verify", "--instance", str(path)]) == 0
        assert capsys.readouterr().out == "ok\n"
        assert len(calls) == 2 and calls[0] == text

    def test_verify_requires_an_exact_round_trip(self, tmp_path, capsys, monkeypatch):
        """A document that reloads one ulp away is a mismatch, even where the
        value is far below any relative tolerance."""
        import gnbg.cli

        def one_ulp_off(instance):
            doc = serialize_instance(instance)
            doc["components"][0]["sigma"] = float(np.nextafter(instance.components[0].sigma, np.inf))
            return json.dumps(doc)

        # the floor dominates every value, so one ulp of it shows in each
        flat = Component(np.zeros(2), 1.0, np.full(2, 1e-30))
        path = tmp_path / "inst.gnbg.json"
        path.write_text(dump_instance(ProblemInstance(2, np.full(2, -100.0), np.full(2, 100.0), (flat,))))
        monkeypatch.setattr(gnbg.cli, "dump_instance", one_ulp_off)
        assert main(["verify", "--instance", str(path)]) == 2
        assert "round-trip evaluation mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("fault, line", [
        ("evaluate", "verify: optimum mismatch: f(m*) - sigma* = 1.000e+00"),
        ("dominated_components", "verify: optimum component is dominated"),
    ])
    def test_verify_reports_a_faulty_kernel(self, tmp_path, capsys, monkeypatch, fault, line):
        """On a valid instance f(m*) = sigma* and the optimum is undominated by
        construction, so only a faulty kernel, simulated here, fails them."""
        import gnbg.cli

        faults = {"evaluate": lambda inst, x: inst.optimum_value + 1.0,
                  "dominated_components": lambda inst: [inst.optimum_index]}
        monkeypatch.setattr(gnbg.cli, fault, faults[fault])
        path = tmp_path / "inst.gnbg.json"
        path.write_text(dump_instance(suite_instance(2, seed=0)))
        assert main(["verify", "--instance", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["classify"]) == 1

    @pytest.mark.parametrize("flags", [
        ["--milestones", "10,x"],
        ["--milestones", "0.5"],
    ])
    def test_malformed_milestones_are_usage_error(self, flags, capsys):
        argv = ["run", "--suite", "1", "--optimizer", "ps", "--runs", "1", "--budget", "20"]
        assert main(argv + flags) == 1
        assert "--milestones" in capsys.readouterr().err

    def test_malformed_values_are_usage_error(self, capsys):
        assert main(["sweep", "--scenario", "linearity", "--values", "0.5,x",
                     "--optimizer", "ps", "--runs", "1", "--budget", "20"]) == 1
        assert "--values" in capsys.readouterr().err

    def test_zero_milestone_is_rejected(self, capsys):
        assert main(["run", "--suite", "1", "--optimizer", "ps", "--runs", "1",
                     "--budget", "20", "--milestones", "0,10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "milestones must be >= 1" in captured.err

    def test_bad_instance_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.gnbg.json"
        path.write_text("{}")
        assert main(["classify", "--instance", str(path)]) == 2

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GNBG_SEED", "42")
        assert main(["suite", "--id", "3"]) == 0
        from_env = capsys.readouterr().out
        monkeypatch.delenv("GNBG_SEED")
        assert main(["suite", "--id", "3", "--seed", "42"]) == 0
        assert capsys.readouterr().out == from_env

    def test_consecutive_calls_parse_on_their_own(self, capsys, monkeypatch):
        """One parser serves every call in a process: no call's flags or
        usage error reach the next, and each call reads GNBG_SEED."""
        monkeypatch.setenv("GNBG_SEED", "7")
        assert main(["suite", "--id", "2", "--seed", "42"]) == 0
        explicit = capsys.readouterr().out
        assert main(["suite", "--id", "2", "--bogus"]) == 1
        assert "--bogus" in capsys.readouterr().err
        assert main(["suite", "--id", "2"]) == 0
        from_env = capsys.readouterr().out
        assert from_env != explicit
        monkeypatch.setenv("GNBG_SEED", "42")
        assert main(["suite", "--id", "2"]) == 0
        assert capsys.readouterr().out == explicit
        monkeypatch.delenv("GNBG_SEED")
        assert main(["suite", "--id", "2", "--seed", "7"]) == 0
        assert capsys.readouterr().out == from_env
        assert _build_parser() is _build_parser()

    def test_suite_all_writes_files(self, tmp_path):
        code = main(["suite", "--all", "--seed", "0", "--out", str(tmp_path / "suite")])
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "suite").iterdir())
        assert len(names) == 24
        assert "f1.gnbg.json" in names
