import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from tagflow import scenario
from tagflow.flux import FluxModel
from tagflow.network import Arc, BoundaryCondition, Junction, build_roundabout
from tagflow.scenario import (
    NetworkValidationError,
    ScenarioSchemaError,
    ScenarioSyntaxError,
    parse_scenario,
    write_scenario,
)
from tagflow.simulate import SimConfig


@pytest.fixture
def roundabout_text():
    net = build_roundabout(0.5, 0.5, 0.1127, 0.1127, cells_per_arc=50)
    return write_scenario(net, SimConfig(t_end=40.0))


def test_roundabout_scenario_round_trips(roundabout_text):
    net, config = parse_scenario(roundabout_text)
    assert len(net.arcs) == 8
    assert len(net.junctions) == 4
    assert config.t_end == 40.0
    assert net.validate() == []


def test_parse_write_parse_is_stable(roundabout_text):
    net1, cfg1 = parse_scenario(roundabout_text)
    net2, cfg2 = parse_scenario(write_scenario(net1, cfg1))
    assert cfg1 == cfg2
    assert write_scenario(net1, cfg1) == write_scenario(net2, cfg2)
    for a1, a2 in zip(net1.arcs, net2.arcs):
        assert (a1.id, a1.a, a1.b, a1.n_cells, a1.kind) == (a2.id, a2.a, a2.b, a2.n_cells, a2.kind)
    for j1, j2 in zip(net1.junctions, net2.junctions):
        assert j1.id == j2.id
        assert j1.incoming == j2.incoming and j1.outgoing == j2.outgoing
        np.testing.assert_array_equal(j1.distribution, j2.distribution)
        np.testing.assert_array_equal(j1.priority, j2.priority)
        assert (j1.coefficient_mode, j1.exit_arc, j1.exit_tracer) == (
            j2.coefficient_mode,
            j2.exit_arc,
            j2.exit_tracer,
        )
    for b1, b2 in zip(net1.boundary_conditions, net2.boundary_conditions):
        assert (b1.arc_id, b1.rho_bar, b1.tracer_in) == (b2.arc_id, b2.rho_bar, b2.tracer_in)


def test_empty_file_is_a_syntax_error():
    with pytest.raises(ScenarioSyntaxError) as info:
        parse_scenario("")
    assert "line 1" in info.value.errors[0]


def test_broken_json_reports_location():
    with pytest.raises(ScenarioSyntaxError) as info:
        parse_scenario('{"arcs": [,]}')
    assert any("line 1" in e for e in info.value.errors)


def test_unknown_field_rejected(roundabout_text):
    data = json.loads(roundabout_text)
    data["surprise"] = 1
    data["arcs"][0]["color"] = "red"
    with pytest.raises(ScenarioSchemaError) as info:
        parse_scenario(json.dumps(data))
    assert any(e.startswith("surprise:") for e in info.value.errors)
    assert any(e.startswith("arcs[0].color:") for e in info.value.errors)


def test_schema_errors_name_field_paths(roundabout_text):
    data = json.loads(roundabout_text)
    data["arcs"][2]["n_cells"] = 0
    data["junctions"][1]["coefficient_mode"] = "sometimes"
    with pytest.raises(ScenarioSchemaError) as info:
        parse_scenario(json.dumps(data))
    assert any(e.startswith("arcs[2].n_cells:") for e in info.value.errors)
    assert any(e.startswith("junctions[1].coefficient_mode:") for e in info.value.errors)


def test_missing_required_field_reported():
    with pytest.raises(ScenarioSchemaError) as info:
        parse_scenario('{"arcs": [{"a": 0.0}]}')
    assert any("arcs[0].id: missing required field" in e for e in info.value.errors)
    assert any("arcs[0].n_cells: missing required field" in e for e in info.value.errors)


def test_bad_column_mass_is_network_invalid_not_schema(roundabout_text):
    data = json.loads(roundabout_text)
    data["junctions"][1]["distribution"] = [[0.5], [0.4]]
    with pytest.raises(NetworkValidationError) as info:
        parse_scenario(json.dumps(data))
    assert any("J2" in e and "mass 0.9" in e for e in info.value.errors)


def test_dangling_arc_reference_is_network_invalid(roundabout_text):
    data = json.loads(roundabout_text)
    data["junctions"][0]["incoming"] = ["S1", "GHOST"]
    with pytest.raises(NetworkValidationError) as info:
        parse_scenario(json.dumps(data))
    assert any("dangling" in e for e in info.value.errors)


def test_config_domain_errors_are_schema_errors(roundabout_text):
    # every value SimConfig refuses, so parse_scenario needs no guard of its own
    for field, value in [
        ("cfl_number", 0),
        ("cfl_number", 1.5),
        ("t_end", 0),
        ("sample_interval", 0),
        ("equilibrium_window", 0),
        ("equilibrium_tol", 0),
        ("coefficient_mode", "sometimes"),
    ]:
        data = json.loads(roundabout_text)
        data["config"][field] = value
        with pytest.raises(ScenarioSchemaError) as excinfo:
            parse_scenario(json.dumps(data))
        assert len(excinfo.value.errors) == 1, field
        assert excinfo.value.errors[0].startswith(f"config.{field}:"), field


def test_bundled_roundabout_scenario_parses():
    bundled = Path(__file__).parent.parent / "demos" / "roundabout.json"
    net, config = parse_scenario(bundled.read_text())
    assert len(net.arcs) == 8
    assert net.validate() == []
    assert config.coefficient_mode == "network"


def test_minimal_scenario_defaults():
    text = json.dumps(
        {
            "arcs": [{"id": "A", "n_cells": 10}],
            "boundary_conditions": [{"arc": "A", "rho_bar": 0.2}],
        }
    )
    net, config = parse_scenario(text)
    assert net.model.v_max == 1.0
    assert net.arcs[0].kind == "generic"
    assert config.cfl_number == 0.5
    assert net.validate() == []


@pytest.mark.parametrize(
    "section, cls",
    [
        ("flux_model", FluxModel),
        ("arcs", Arc),
        ("junctions", Junction),
        ("boundary_conditions", BoundaryCondition),
        ("config", SimConfig),
    ],
)
def test_schema_properties_are_the_init_fields(section, cls):
    schema = json.loads((Path(__file__).parent.parent / "src" / "tagflow" / "scenario.schema.json").read_text())
    spec = schema["properties"][section]
    properties = spec.get("items", spec)["properties"]
    fields = [f for f in dataclasses.fields(cls) if f.init]
    # the one key that is not its attribute's name
    assert [{"arc": "arc_id"}.get(key, key) for key in properties] == [f.name for f in fields]
    # a default the schema leaves out is None, as for Junction.priority
    for key, f in zip(properties, fields):
        if f.default is not dataclasses.MISSING:
            assert properties[key].get("default") == f.default, key


BUNDLED = json.loads((Path(__file__).parent.parent / "demos" / "roundabout.json").read_text())


def _bundled_with(*edits):
    """The bundled scenario's text with each (path, JSON literal) edit made;
    a literal of None drops the field."""
    data = json.loads(json.dumps(BUNDLED))
    literals = {}
    for path, literal in edits:
        node = data
        for key in path[:-1]:
            node = node[key]
        if literal is None:
            del node[path[-1]]
        else:
            node[path[-1]] = f"@{len(literals)}@"
            literals[f'"@{len(literals)}@"'] = literal
    text = json.dumps(data)
    for sentinel, literal in literals.items():
        text = text.replace(sentinel, literal)
    return text


def test_static_junction_exit_fields_survive_a_round_trip():
    text = _bundled_with((("junctions", 0, "exit_arc"), '"S1C"'), (("junctions", 0, "exit_tracer"), "0"))
    net, config = parse_scenario(text)
    junc = net.junctions[0]
    assert (junc.coefficient_mode, junc.exit_arc, junc.exit_tracer) == ("static", "S1C", 0.0)
    again = parse_scenario(write_scenario(net, config))[0].junctions[0]
    assert (again.exit_arc, again.exit_tracer) == ("S1C", 0.0)


def _with_float32_start(net):
    net.arcs[0] = dataclasses.replace(net.arcs[0], a=np.float32(0.0))
    return net


@pytest.mark.parametrize(
    "net",
    [
        build_roundabout(0.5, 0.5, 0.1, 0.1, cells_per_arc=np.int64(8)),
        _with_float32_start(build_roundabout(0.5, 0.5, 0.1, 0.1, cells_per_arc=8)),
    ],
    ids=["int64-cells", "float32-start"],
)
def test_numpy_scalar_fields_are_written_as_numbers(net):
    assert net.validate() == []
    text = write_scenario(net)
    again, config = parse_scenario(text)
    assert again.validate() == []
    assert write_scenario(again, config) == text


NUMBER_FIELDS = {
    "flux_model.v_max": ("flux_model", "v_max"),
    "config.t_end": ("config", "t_end"),
    "boundary_conditions[0].rho_bar": ("boundary_conditions", 0, "rho_bar"),
    "junctions[1].distribution[0][0]": ("junctions", 1, "distribution", 0, 0),
}


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
def test_non_finite_constants_are_syntax_errors(constant, field):
    with pytest.raises(ScenarioSyntaxError) as info:
        parse_scenario(_bundled_with((NUMBER_FIELDS[field], constant)))
    assert info.value.errors[0].startswith(constant)


@pytest.mark.parametrize(
    "literal", ["1e400", "-1e400", pytest.param("1" + "0" * 400, id="401-digit-integer")]
)
@pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
def test_overflowing_literal_is_a_schema_error_at_its_path(literal, field):
    with pytest.raises(ScenarioSchemaError) as info:
        parse_scenario(_bundled_with((NUMBER_FIELDS[field], literal)))
    assert info.value.errors == [f"{field}: expected a finite number"]


def test_deep_nesting_is_a_syntax_error():
    with pytest.raises(ScenarioSyntaxError):
        parse_scenario("[" * 100_000 + "]" * 100_000)


# inputs the schema refuses that the network check used to see, or
# that used to be accepted
@pytest.mark.parametrize(
    "path, literal",
    [
        (("junctions", 1, "distribution", 0, 0), "-0.5"),
        (("junctions", 0, "priority", 0), "1.5"),
        (("junctions", 1, "exit_tracer"), "0.5"),
        (("junctions", 1, "exit_tracer"), "true"),
        (("boundary_conditions", 0, "rho_bar"), "-0.1"),
        (("junctions", 1, "incoming"), "[]"),
        (("junctions", 0, "priority"), "null"),
        (("junctions", 1, "exit_arc"), "null"),
        (("junctions", 1, "distribution", 1), "[]"),
        (("flux_model", "v_max"), "true"),
        (("arcs", 0, "n_cells"), "50.0"),
    ],
)
def test_schema_refusals_name_the_field(path, literal):
    field = ".".join(f"[{k}]" if isinstance(k, int) else k for k in path).replace(".[", "[")
    with pytest.raises(ScenarioSchemaError) as info:
        parse_scenario(_bundled_with((path, literal)))
    assert [e for e in info.value.errors if e.startswith(f"{field}:")], info.value.errors


def test_ragged_distribution_is_a_schema_error():
    with pytest.raises(ScenarioSchemaError) as info:
        parse_scenario(_bundled_with((("junctions", 1, "distribution"), "[[0.5], [0.25, 0.25]]")))
    assert info.value.errors == ["junctions[1].distribution: rows must be of equal length"]


def test_scenario_must_be_an_object():
    with pytest.raises(ScenarioSchemaError) as info:
        parse_scenario("[]")
    assert info.value.errors == ["scenario: expected type object, got array"]


def test_schema_defaults_fill_absent_fields():
    net, config = parse_scenario(
        _bundled_with(
            (("flux_model",), None),
            (("config",), None),
            (("arcs", 0, "a"), None),
            (("junctions", 1, "exit_tracer"), None),
        )
    )
    assert net.model == FluxModel()
    assert config == SimConfig()
    assert net.arcs[0].a == 0.0
    assert net.junctions[1].exit_tracer == 1.0


def test_unimplemented_schema_keyword_is_refused():
    with pytest.raises(ValueError, match="pattern"):
        scenario._audit({"type": "object", "properties": {"id": {"type": "string", "pattern": "^S"}}})
    with pytest.raises(ValueError, match="type"):
        scenario._audit({"type": ["string", "null"]})
    with pytest.raises(ValueError, match="additionalProperties"):
        scenario._audit({"additionalProperties": {"type": "string"}})
