"""Scenario files: strict JSON in, canonical JSON out.

A scenario bundles the flux model, the topology, boundary reservoirs,
and run parameters.  Parsing is strict: unknown fields are rejected and
every complaint carries the path of the offending field.  Three failure
classes are distinguished so callers can map them to exit codes:
ScenarioSyntaxError (not JSON at all), ScenarioSchemaError (JSON that
does not fit the schema), NetworkValidationError (well-formed scenario
whose network breaks an invariant).  The machine-readable schema ships
in docs/scenario.schema.json.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .flux import FluxModel
from .network import ARC_KINDS, Arc, BoundaryCondition, Junction, Network
from .simulate import SimConfig

__all__ = [
    "ScenarioError",
    "ScenarioSyntaxError",
    "ScenarioSchemaError",
    "NetworkValidationError",
    "parse_scenario",
    "write_scenario",
]


class ScenarioError(ValueError):
    """Base class; .errors lists one message per problem."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class ScenarioSyntaxError(ScenarioError):
    """The text is not valid JSON."""


class ScenarioSchemaError(ScenarioError):
    """Valid JSON that does not match the scenario schema."""


class NetworkValidationError(ScenarioError):
    """Schema-valid scenario whose network violates an invariant."""


class _Walker:
    """Strict dict walker collecting 'path: message' complaints."""

    def __init__(self):
        self.errors: list[str] = []

    def complain(self, path: str, message: str):
        self.errors.append(f"{path}: {message}")

    def obj(self, value, path) -> dict:
        if not isinstance(value, dict):
            self.complain(path, f"expected an object, got {type(value).__name__}")
            return {}
        return value

    def take(self, data: dict, path: str, known: dict, required: tuple[str, ...]):
        for key in data:
            if key not in known:
                self.complain(f"{path}.{key}" if path else key, "unknown field")
        out = {}
        for key, default in known.items():
            if key in data:
                out[key] = data[key]
            elif key in required:
                self.complain(f"{path}.{key}" if path else key, "missing required field")
                out[key] = None
            else:
                out[key] = default
        return out

    def number(self, value, path, default=0.0):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        if value is not None:
            self.complain(path, f"expected a number, got {value!r}")
        return default

    def integer(self, value, path, default=0):
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if value is not None:
            self.complain(path, f"expected an integer, got {value!r}")
        return default

    def string(self, value, path, default=""):
        if isinstance(value, str):
            return value
        if value is not None:
            self.complain(path, f"expected a string, got {value!r}")
        return default

    def boolean(self, value, path, default=False):
        if isinstance(value, bool):
            return value
        if value is not None:
            self.complain(path, f"expected a boolean, got {value!r}")
        return default

    def string_list(self, value, path):
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            if value is not None:
                self.complain(path, "expected a list of strings")
            return []
        return list(value)

    def number_list(self, value, path):
        ok = isinstance(value, list) and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in value
        )
        if not ok:
            if value is not None:
                self.complain(path, "expected a list of numbers")
            return []
        return [float(v) for v in value]

    def matrix(self, value, path):
        if not isinstance(value, list) or not value:
            if value is not None:
                self.complain(path, "expected a non-empty list of rows")
            return [[1.0]]
        rows = [self.number_list(row, f"{path}[{i}]") for i, row in enumerate(value)]
        width = len(rows[0])
        if any(len(r) != width for r in rows) or width == 0:
            self.complain(path, "rows must be non-empty and of equal length")
            return [[1.0]]
        return rows


def parse_scenario(text: str) -> tuple[Network, SimConfig]:
    """Parse and validate scenario text into a network and run config."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioSyntaxError(
            [f"line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        ) from exc

    w = _Walker()
    top = w.take(
        w.obj(data, "scenario"),
        "",
        {
            "flux_model": {},
            "arcs": [],
            "junctions": [],
            "boundary_conditions": [],
            "config": {},
        },
        required=("arcs",),
    )

    fm = w.take(
        w.obj(top["flux_model"], "flux_model"),
        "flux_model",
        {"v_max": 1.0, "rho_max": 1.0},
        required=(),
    )
    v_max = w.number(fm["v_max"], "flux_model.v_max", 1.0)
    rho_max = w.number(fm["rho_max"], "flux_model.rho_max", 1.0)
    if v_max <= 0.0:
        w.complain("flux_model.v_max", "must be positive")
        v_max = 1.0
    if rho_max <= 0.0:
        w.complain("flux_model.rho_max", "must be positive")
        rho_max = 1.0

    arcs = []
    raw_arcs = top["arcs"] if isinstance(top["arcs"], list) else []
    if not isinstance(top["arcs"], list):
        w.complain("arcs", "expected a list")
    if not raw_arcs:
        w.complain("arcs", "at least one arc is required")
    for i, raw in enumerate(raw_arcs):
        path = f"arcs[{i}]"
        fields = w.take(
            w.obj(raw, path),
            path,
            {"id": "", "a": 0.0, "b": 1.0, "n_cells": 1, "kind": "generic"},
            required=("id", "n_cells"),
        )
        kind = w.string(fields["kind"], f"{path}.kind", "generic")
        if kind not in ARC_KINDS:
            w.complain(f"{path}.kind", f"must be one of {sorted(ARC_KINDS)}")
            kind = "generic"
        n_cells = w.integer(fields["n_cells"], f"{path}.n_cells", 1)
        if n_cells < 1:
            w.complain(f"{path}.n_cells", "must be a positive integer")
            n_cells = 1
        arcs.append(
            Arc(
                id=w.string(fields["id"], f"{path}.id"),
                a=w.number(fields["a"], f"{path}.a", 0.0),
                b=w.number(fields["b"], f"{path}.b", 1.0),
                n_cells=n_cells,
                kind=kind,
            )
        )

    junctions = []
    raw_junctions = top["junctions"] if isinstance(top["junctions"], list) else []
    if not isinstance(top["junctions"], list):
        w.complain("junctions", "expected a list")
    for i, raw in enumerate(raw_junctions):
        path = f"junctions[{i}]"
        fields = w.take(
            w.obj(raw, path),
            path,
            {
                "id": "",
                "incoming": [],
                "outgoing": [],
                "distribution": None,
                "priority": None,
                "coefficient_mode": "static",
                "exit_arc": None,
                "exit_tracer": 1.0,
            },
            required=("id", "incoming", "outgoing", "distribution"),
        )
        incoming = w.string_list(fields["incoming"], f"{path}.incoming")
        outgoing = w.string_list(fields["outgoing"], f"{path}.outgoing")
        mode = w.string(fields["coefficient_mode"], f"{path}.coefficient_mode", "static")
        if mode not in ("static", "dynamic"):
            w.complain(f"{path}.coefficient_mode", "must be 'static' or 'dynamic'")
            mode = "static"
        exit_arc = fields["exit_arc"]
        if exit_arc is not None:
            exit_arc = w.string(exit_arc, f"{path}.exit_arc")
        priority = fields["priority"]
        if priority is not None:
            priority = np.asarray(w.number_list(priority, f"{path}.priority"))
        junctions.append(
            Junction(
                id=w.string(fields["id"], f"{path}.id"),
                incoming=incoming,
                outgoing=outgoing,
                distribution=np.asarray(w.matrix(fields["distribution"], f"{path}.distribution")),
                priority=priority,
                coefficient_mode=mode,
                exit_arc=exit_arc,
                exit_tracer=w.number(fields["exit_tracer"], f"{path}.exit_tracer", 1.0),
            )
        )

    bcs = []
    raw_bcs = top["boundary_conditions"] if isinstance(top["boundary_conditions"], list) else []
    if not isinstance(top["boundary_conditions"], list):
        w.complain("boundary_conditions", "expected a list")
    for i, raw in enumerate(raw_bcs):
        path = f"boundary_conditions[{i}]"
        fields = w.take(
            w.obj(raw, path),
            path,
            {"arc": "", "rho_bar": 0.0, "tracer_in": 0.5},
            required=("arc", "rho_bar"),
        )
        bcs.append(
            BoundaryCondition(
                arc_id=w.string(fields["arc"], f"{path}.arc"),
                rho_bar=w.number(fields["rho_bar"], f"{path}.rho_bar"),
                tracer_in=w.number(fields["tracer_in"], f"{path}.tracer_in", 0.5),
            )
        )

    # every config field is optional; its SimConfig default fills in
    defaults = dataclasses.asdict(SimConfig())
    cfg_fields = w.take(w.obj(top["config"], "config"), "config", defaults, required=())
    readers = {float: w.number, str: w.string, bool: w.boolean}
    config_kwargs = {
        name: readers[type(default)](cfg_fields[name], f"config.{name}", default)
        for name, default in defaults.items()
    }
    if config_kwargs["coefficient_mode"] not in ("network", "static"):
        w.complain("config.coefficient_mode", "must be 'network' or 'static'")
        config_kwargs["coefficient_mode"] = defaults["coefficient_mode"]

    if w.errors:
        raise ScenarioSchemaError(w.errors)
    try:
        config = SimConfig(**config_kwargs)
    except ValueError as exc:
        raise ScenarioSchemaError([f"config: {exc}"]) from exc

    net = Network(
        model=FluxModel(v_max=v_max, rho_max=rho_max),
        arcs=arcs,
        junctions=junctions,
        boundary_conditions=bcs,
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
