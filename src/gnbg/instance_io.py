"""Instance serialization, point files, grid export, and report emission.

Instances persist as JSON documents (``*.gnbg.json``) holding every symbol
needed to rebuild the landscape exactly: interaction angles are stored
sparsely as 1-indexed (p, q, angle) triples, with a dense ``rotation``
escape field for orthogonal matrices that were never expressed as angles.
Floats rely on Python's shortest-repr JSON encoding, which round-trips
binary64 exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import chain
from operator import itemgetter

import numpy as np

from .core import Component, ProblemInstance, _count, evaluate_batch
from .harness import ExperimentReport
from .rotation import ThetaSpec, compose
from .transform import TransformParams

FORMAT_VERSION = "1.0"
GRID_FORMAT_VERSION = "1.0"


class InstanceFormatError(ValueError):
    """Malformed or invalid instance document; message names the field."""


def serialize_instance(instance: ProblemInstance) -> dict:
    doc = _document(instance)
    for record in doc["components"]:
        record["theta"] = [{"p": p, "q": q, "angle": angle} for p, q, angle in record["theta"]]
    return doc


def _document(instance: ProblemInstance) -> dict:
    """``serialize_instance``'s document, with each theta list as its
    (p, q, angle) tuples."""
    components = []
    for comp in instance.components:
        record = {
            "sigma": comp.sigma,
            "m": comp.center.tolist(),
            "h_diag": comp.h_diag.tolist(),
            "lambda": comp.lam,
            "mu": list(comp.transform.mu),
            "omega": list(comp.transform.omega),
            "theta": comp.theta.to_triples() if comp.theta else [],
        }
        if comp.theta is None and comp.rotation is not None:
            record["rotation"] = comp.rotation.tolist()
        components.append(record)
    doc = {
        "format_version": FORMAT_VERSION,
        "dim": instance.dim,
        "bounds": {"lower": instance.lower.tolist(), "upper": instance.upper.tolist()},
        "components": components,
    }
    if instance.provenance is not None:
        doc["provenance"] = instance.provenance
    return doc


def _require(doc, key, types, where):
    if key not in doc:
        raise InstanceFormatError(f"{where}: missing field {key!r}")
    value = doc[key]
    # no field is a boolean, and JSON true/false must not pass as 1/0
    if isinstance(value, bool) or not isinstance(value, types):
        raise InstanceFormatError(f"{where}.{key}: unexpected type {type(value).__name__}")
    return value


def _number(doc, key, where) -> float:
    try:
        return float(_require(doc, key, (int, float), where))
    except OverflowError:  # a JSON integer beyond float range
        raise InstanceFormatError(f"{where}.{key}: number out of float range") from None


def _floats(raw: list, dim: int, where: str) -> np.ndarray:
    """``dim`` numbers from a JSON list: the one rule for every number a file holds."""
    if not isinstance(raw, list):
        raise InstanceFormatError(f"{where}: unexpected type {type(raw).__name__}")
    try:
        if {bool, str} & set(map(type, raw)):  # float() would take true and "1.5"
            raise TypeError
        values = np.array([float(v) for v in raw])
    except OverflowError:
        raise InstanceFormatError(f"{where}: element out of float range") from None
    except (TypeError, ValueError):
        raise InstanceFormatError(f"{where}: non-numeric element") from None
    if not np.isfinite(values).all():  # JSON NaN, text nan/inf, or 1e400 read as inf
        raise InstanceFormatError(f"{where}: non-finite element")
    if len(values) != dim:
        raise InstanceFormatError(f"{where}: expected {dim} elements, got {len(values)}")
    return values


def _vector(doc, key, dim, where):
    return _floats(_require(doc, key, list, where), dim, f"{where}.{key}")


_TRIPLE = itemgetter("p", "q", "angle")


def _theta_triples(entries: list, where: str) -> list[tuple]:
    """(p, q, angle) of each entry of a theta list.

    A list whose entries are all objects with an int ``p`` and ``q`` and a
    float ``angle`` is taken whole.  Otherwise the entries are checked one
    by one: an error names the first entry at fault, and an int angle is
    read as a float.
    """
    try:
        triples = list(map(_TRIPLE, entries))
    except (TypeError, KeyError):  # an entry not an object, or missing a field
        pass
    else:
        ps, qs, angles = zip(*triples) if triples else ((), (), ())
        # exact types: no bool passes as an int, and no int angle skips float()
        if set(map(type, ps + qs)) <= {int} and set(map(type, angles)) <= {float}:
            return triples
    triples = []
    for t, entry in enumerate(entries):
        tw = f"{where}.theta[{t}]"
        if not isinstance(entry, dict):
            raise InstanceFormatError(f"{tw}: expected a JSON object")
        p = _require(entry, "p", int, tw)
        q = _require(entry, "q", int, tw)
        angle = _number(entry, "angle", tw)
        triples.append((p, q, angle))
    return triples


def parse_instance(doc: dict) -> ProblemInstance:
    """Rebuild an instance from its document; errors name the bad field.

    The parser checks structure and types; the constructors check values,
    and their errors are re-raised with the path of the field at fault.
    Every component's fields are parsed before any rotation is composed, so
    a field fault in a later component is reported before a value fault,
    such as lost orthogonality, in an earlier one.
    """
    if not isinstance(doc, dict):
        raise InstanceFormatError("document: expected a JSON object")
    version = _require(doc, "format_version", str, "document")
    if version.split(".")[0] != FORMAT_VERSION.split(".")[0]:
        raise InstanceFormatError(
            f"document.format_version: {version!r} not compatible with {FORMAT_VERSION!r}"
        )
    dim = _require(doc, "dim", int, "document")
    if dim < 1:
        raise InstanceFormatError("document.dim: must be >= 1")
    bounds = _require(doc, "bounds", dict, "document")
    lower = _vector(bounds, "lower", dim, "bounds")
    upper = _vector(bounds, "upper", dim, "bounds")
    raw_components = _require(doc, "components", list, "document")

    parsed = []
    for k, raw in enumerate(raw_components):
        where = f"components[{k}]"
        if not isinstance(raw, dict):
            raise InstanceFormatError(f"{where}: expected a JSON object")
        sigma = _number(raw, "sigma", where)
        center = _vector(raw, "m", dim, where)
        h_diag = _vector(raw, "h_diag", dim, where)
        lam = _number(raw, "lambda", where)
        mu = _vector(raw, "mu", 2, where)
        omega = _vector(raw, "omega", 4, where)
        triples = _theta_triples(_require(raw, "theta", list, where), where)
        rotation = None
        if "rotation" in raw:
            rows = _require(raw, "rotation", list, where)
            rotation = np.array([_floats(r, dim, f"{where}.rotation[{i}]") for i, r in enumerate(rows)])
        try:
            transform = TransformParams(tuple(mu), tuple(omega))
            theta = ThetaSpec.from_triples(dim, triples) if triples else None
        except ValueError as exc:
            raise InstanceFormatError(f"{where}: {exc}") from None
        parsed.append((where, theta, (center, sigma, h_diag, lam, transform, theta, rotation)))

    # every component's rotation in one wavefront; each Component checks its own
    compose([theta for _, theta, _ in parsed])
    components = []
    for where, _, args in parsed:
        try:
            components.append(Component(*args))
        except (ValueError, ArithmeticError) as exc:
            raise InstanceFormatError(f"{where}: {exc}") from None

    try:
        return ProblemInstance(dim, lower, upper, tuple(components), doc.get("provenance"))
    except ValueError as exc:
        raise InstanceFormatError(f"document: {exc}") from None


# One theta entry as ``json.dumps(indent=2)`` writes it in a document: %d
# and %r are what json writes for an int and a finite float, and ThetaSpec
# angles are finite.
_THETA_ENTRY = '{\n          "p": %d,\n          "q": %d,\n          "angle": %r\n        }'
_SLOT = "<list>"


def _list_text(items, depth: int) -> str:
    """A list as ``json.dumps(indent=2)`` writes it ``depth`` levels deep,
    given the texts of its items."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def _field_text(key: str, value: list, depth: int) -> str:
    """A list field as ``json.dumps(indent=2)`` writes it ``depth`` levels deep.

    Every float a document holds is finite (the constructors check), and
    json writes a finite float as its repr.
    """
    if key == "theta":  # a component's (p, q, angle) tuples, three levels deep
        return _list_text([_THETA_ENTRY] * len(value), depth) % tuple(chain.from_iterable(value))
    if key == "rotation":
        return _list_text([_list_text(list(map(repr, row)), depth + 1) for row in value], depth)
    return _list_text(list(map(repr, value)), depth)


def dump_instance(instance: ProblemInstance) -> str:
    """The document's text: ``json.dumps(serialize_instance(instance),
    indent=2)`` and a newline, byte for byte.

    json's indenting encoder runs in Python, so every list is rendered here
    with one join (the theta lists with one template each) and put in place
    of a placeholder string.
    """
    doc = _document(instance)
    lists = []
    for record, depth in [(doc["bounds"], 2), *((r, 3) for r in doc["components"])]:
        for key, value in record.items():
            if isinstance(value, list):
                lists.append(_field_text(key, value, depth))
                record[key] = _SLOT
    # bounds and components precede provenance, so the first len(lists)
    # placeholders are the lists, in order, whatever strings provenance holds
    pieces = json.dumps(doc, indent=2).split(json.dumps(_SLOT), len(lists))
    return "".join(chain.from_iterable(zip(pieces, lists))) + pieces[-1] + "\n"


def load_instance(text: str) -> ProblemInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"document: invalid JSON ({exc})") from None
    return parse_instance(doc)


def load_points(text: str, dim: int, where: str) -> np.ndarray:
    """Points of ``dim`` coordinates from a JSON array of rows, one JSON array
    or number, or text with one point per line; errors name ``where`` and the row."""
    try:
        rows = json.loads(text)
    except json.JSONDecodeError:
        rows, lines = [], [line for line in text.splitlines() if line.strip()]
        for i, line in enumerate(lines, 1):
            try:
                rows.append([float(tok) for tok in line.replace(",", " ").split()])
            except ValueError:
                raise InstanceFormatError(f"{where}: row {i}: non-numeric element") from None
    if not isinstance(rows, list):
        rows = [[rows]]
    elif not rows or not all(isinstance(row, list) for row in rows):
        rows = [rows]
    return np.array([_floats(row, dim, f"{where}: row {i}") for i, row in enumerate(rows, 1)])


def export_grid(
    instance: ProblemInstance, i: int, j: int, resolution: int, fixed: np.ndarray
) -> dict:
    """Row-major grid of objective values over the (x_i, x_j) plane.

    Rows sweep x_i from lower to upper, columns sweep x_j; the remaining
    coordinates are pinned to ``fixed``.  A value that overflows is
    ``None`` (``null``), as in ``report_to_dict``.
    """
    d = instance.dim
    i, j = _count("i", i), _count("j", j)
    if not (0 <= i < d and 0 <= j < d) or i == j:
        raise ValueError(f"axis indices must be distinct and in [0, {d}), got ({i}, {j})")
    resolution = _count("resolution", resolution, 2)
    fixed = np.asarray(fixed, dtype=float)
    if fixed.shape != (d,):
        raise ValueError(f"fixed must have shape ({d},)")
    xi = np.linspace(instance.lower[i], instance.upper[i], resolution)
    xj = np.linspace(instance.lower[j], instance.upper[j], resolution)
    points = np.tile(fixed, (resolution * resolution, 1))
    points[:, i] = np.repeat(xi, resolution)
    points[:, j] = np.tile(xj, resolution)
    values = evaluate_batch(instance, points).reshape(resolution, resolution).tolist()
    return {
        "format_version": GRID_FORMAT_VERSION,
        "axis": [i, j],
        "fixed": fixed.tolist(),
        "resolution": resolution,
        "values": [[_json_float(v) for v in row] for row in values],
    }


def _fmt(value) -> str:
    return "--" if value is None else repr(float(value))


def write_csv_report(reports: list[ExperimentReport], stream) -> None:
    """One row per knob value; columns mirror the milestone table layout."""
    if not reports:
        return
    milestones = reports[0].milestones
    header = ["knob"]
    for n in range(1, len(milestones) + 1):
        header += [f"mean_err_m{n}", f"std_err_m{n}"]
    header += ["mean_fe_success", "success_rate"]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for report in reports:
        row = ["" if report.knob is None else str(report.knob)]
        for m in report.milestones:
            row += [repr(report.mean_errors[m]), repr(report.std_errors[m])]
        row += [_fmt(report.mean_fe_success), repr(report.success_rate)]
        writer.writerow(row)


def csv_report_text(reports: list[ExperimentReport]) -> str:
    buf = io.StringIO()
    write_csv_report(reports, buf)
    return buf.getvalue()


def _json_float(value):
    """A value for a JSON document: ``None`` (``null``) for a float that is
    not finite, since ``inf`` and NaN are not JSON; any other value as it is."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def report_to_dict(report: ExperimentReport) -> dict:
    """JSON-ready record: the aggregates, and each run's best value, error and
    position, FE used, milestone errors, FE to success and success.  A
    non-finite float (an error no run brought below inf, or its NaN spread)
    is ``None``."""
    return {
        "knob": _json_float(report.knob),
        "runs": report.runs,
        "milestones": list(report.milestones),
        "mean_errors": {str(m): _json_float(report.mean_errors[m]) for m in report.milestones},
        "std_errors": {str(m): _json_float(report.std_errors[m]) for m in report.milestones},
        "mean_fe_success": _json_float(report.mean_fe_success),
        "success_rate": report.success_rate,
        "run_results": [
            {
                "best_value": _json_float(r.best_value),
                "best_error": _json_float(r.best_error),
                "best_position": None if r.best_position is None else r.best_position.tolist(),
                "fe_used": r.fe_used,
                "milestone_errors": {str(m): _json_float(r.error_at(m)) for m in report.milestones},
                "fe_to_success": r.fe_to_success,
                "success": r.success,
            }
            for r in report.run_results
        ],
    }
