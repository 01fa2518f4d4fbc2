"""Scenario files: strict JSON in, canonical JSON out.

A scenario bundles the flux model, the topology, boundary reservoirs,
and run parameters.  Parsing is strict: unknown fields are rejected and
every complaint carries the path of the offending field.  Every refusal
is an InvalidInputError, whose .errors lists one line per problem.  That
one error family lives in network.py, the lowest module that checks
caller input, and the network, SimConfig, Simulator and the benchmark
raise it too.  A scenario is refused as one of three kinds:
ScenarioSyntaxError (not JSON at all), ScenarioSchemaError (JSON that
does not fit the schema, config values included),
NetworkValidationError (well-formed scenario whose network breaks an
invariant, as Simulator(net) reports it too).

The package's scenario.schema.json is the only description of a
scenario: parse_scenario checks the JSON against it, filling in its
defaults, and then hands the fields straight to the dataclasses.
"""

from __future__ import annotations

import dataclasses
import json
import math
from importlib import resources

from .flux import FluxModel
from .network import Arc, BoundaryCondition, InvalidInputError, Junction, Network, NetworkValidationError
from .simulate import SimConfig

__all__ = [
    "InvalidInputError",
    "ScenarioSyntaxError",
    "ScenarioSchemaError",
    "NetworkValidationError",
    "parse_scenario",
    "write_scenario",
]


class ScenarioSyntaxError(InvalidInputError):
    """The text is not valid JSON."""


class ScenarioSchemaError(InvalidInputError):
    """Valid JSON that does not match the scenario schema."""


_ANNOTATIONS = frozenset({"$schema", "title", "description"})
_KEYWORDS = frozenset(
    "type enum minimum maximum exclusiveMinimum minItems items properties required "
    "additionalProperties default".split()
)
# a bool is never a number or an integer, though Python says it is an int
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}


def _audit(schema: dict, where: str = "#") -> dict:
    """Refuse any keyword _check does not implement; return the schema.

    Checked once at import, so the schema cannot promise a check that
    the parser silently skips.
    """
    unknown = sorted(schema.keys() - _KEYWORDS - _ANNOTATIONS)
    if unknown:
        raise ValueError(f"scenario schema {where}: unsupported keyword(s) {unknown}")
    if schema.get("type") not in (None, *_TYPES):
        raise ValueError(f"scenario schema {where}: unsupported type {schema['type']!r}")
    if not isinstance(schema.get("additionalProperties", True), bool):
        raise ValueError(f"scenario schema {where}: additionalProperties must be a boolean")
    for name, sub in schema.get("properties", {}).items():
        _audit(sub, f"{where}/properties/{name}")
    if "items" in schema:
        _audit(schema["items"], f"{where}/items")
    return schema


_SCHEMA = _audit(
    json.loads(resources.files(__package__).joinpath("scenario.schema.json").read_text())
)


def _check(value, schema: dict, path: str, errors: list[str]):
    """Check value against schema, appending 'path: message' complaints.

    Returns a fresh copy with defaults filled in and every number a
    finite float; the copy is only meaningful when nothing was appended.
    """
    where = path or "scenario"
    kind = schema.get("type")
    if kind is not None and not _TYPES[kind](value):
        got = next((name for name, test in _TYPES.items() if test(value)), "null")
        errors.append(f"{where}: expected type {kind}, got {got}")
        return value
    if kind == "number":
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            errors.append(f"{where}: expected a finite number")
            return value
    if "enum" in schema and not any(
        value == option and isinstance(value, bool) == isinstance(option, bool)
        for option in schema["enum"]
    ):
        errors.append(f"{where}: must be one of {schema['enum']}")
        return value
    if _TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{where}: must be >= {schema['minimum']}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            errors.append(f"{where}: must be > {schema['exclusiveMinimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{where}: must be <= {schema['maximum']}")
        return value

    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append(f"{where}: needs at least {schema['minItems']} item(s)")
        items = schema.get("items", {})
        return [_check(item, items, f"{path}[{i}]", errors) for i, item in enumerate(value)]
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        prefix = f"{path}." if path else ""
        out = {}
        for key, item in value.items():
            if key in properties:
                out[key] = _check(item, properties[key], prefix + key, errors)
            elif schema.get("additionalProperties", True):
                out[key] = item
            else:
                errors.append(f"{prefix}{key}: unknown field")
        for key, sub in properties.items():
            if key in value:
                continue
            if key in schema.get("required", ()):
                errors.append(f"{prefix}{key}: missing required field")
            elif "default" in sub:
                out[key] = _check(sub["default"], sub, prefix + key, errors)
        return out
    return value


def _reject_constant(name: str):
    raise ScenarioSyntaxError([f"{name} is not valid JSON; numbers must be finite"])


def parse_scenario(text: str) -> tuple[Network, SimConfig]:
    """Parse and validate scenario text into a network and run config."""
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(
            [f"line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc
    except RecursionError as exc:
        raise ScenarioSyntaxError(["nesting too deep"]) from exc

    errors: list[str] = []
    data = _check(data, _SCHEMA, "", errors)
    if not errors:
        # the one shape rule JSON Schema cannot state
        errors = [
            f"junctions[{i}].distribution: rows must be of equal length"
            for i, junc in enumerate(data["junctions"])
            if len({len(row) for row in junc["distribution"]}) > 1
        ]
    if errors:
        raise ScenarioSchemaError(errors)
    # the schema refuses every config SimConfig would
    config = SimConfig(**data["config"])
    net = Network(
        model=FluxModel(**data["flux_model"]),
        arcs=[Arc(**arc) for arc in data["arcs"]],
        junctions=[Junction(**junc) for junc in data["junctions"]],
        boundary_conditions=[
            BoundaryCondition(arc_id=bc.pop("arc"), **bc) for bc in data["boundary_conditions"]
        ],
    )
    report = net.validate()
    if report:
        raise NetworkValidationError(report)
    return net, config


def write_scenario(net: Network, config: SimConfig | None = None) -> str:
    """Canonical scenario text; parse(write(parse(x))) == parse(x)."""
    config = config or SimConfig()
    payload = {
        "flux_model": {"v_max": net.model.v_max, "rho_max": net.model.rho_max},
        "arcs": [
            {"id": a.id, "a": a.a, "b": a.b, "n_cells": a.n_cells, "kind": a.kind}
            for a in net.arcs
        ],
        "junctions": [],
        "boundary_conditions": [
            {"arc": bc.arc_id, "rho_bar": bc.rho_bar, "tracer_in": bc.tracer_in}
            for bc in net.boundary_conditions
        ],
        "config": dataclasses.asdict(config),
    }
    for junc in net.junctions:
        entry = {
            "id": junc.id,
            "incoming": list(junc.incoming),
            "outgoing": list(junc.outgoing),
            "distribution": junc.distribution.tolist(),
            "priority": junc.priority.tolist(),
            "coefficient_mode": junc.coefficient_mode,
        }
        if junc.coefficient_mode == "dynamic":
            entry["exit_arc"] = junc.exit_arc
            entry["exit_tracer"] = junc.exit_tracer
        payload["junctions"].append(entry)
    return json.dumps(payload, indent=2) + "\n"
