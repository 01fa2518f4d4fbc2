"""Fuzz the exit-code contract of `tagflow validate` and `tagflow scenario`.

Mutations of the bundled roundabout scenario (dropped fields, fields
retyped to a string, a bool, a list, null or any float including nan
and +-inf, perturbed numbers) must end in exit code 0 or 2, with no
exception escaping main.  So must any value of the roundabout options,
and a refusal is one stderr line with nothing on stdout.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tagflow.cli import EXIT_INVALID_INPUT, EXIT_OK, main

BUNDLED = json.loads((Path(__file__).parent.parent / "demos" / "roundabout.json").read_text())


def _paths(node, prefix=()):
    """Every key or index path below node, containers included."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _lookup(data, path):
    for key in path:
        data = data[key]
    return data


PATHS = list(_paths(BUNDLED))
NUMBER_PATHS = [p for p in PATHS if _is_number(_lookup(BUNDLED, p))]

retyped = st.one_of(
    st.text(max_size=4),
    st.booleans(),
    st.lists(st.integers(-2, 2), max_size=2),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
)
mutations = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(PATHS), st.just("drop"), st.none()),
        st.tuples(st.sampled_from(PATHS), st.just("retype"), retyped),
        st.tuples(
            st.sampled_from(NUMBER_PATHS),
            st.just("perturb"),
            st.one_of(st.integers(-3, 3), st.floats(-2.0, 2.0)),
        ),
    ),
    min_size=1,
    max_size=3,
)


def _has(node, key):
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


def _mutate(data, path, action, value):
    """Apply one mutation; skip it if an earlier one removed its target."""
    *parents, last = path
    for key in parents:
        if not _has(data, key):
            return
        data = data[key]
    if not _has(data, last):
        return
    if action == "drop":
        del data[last]
    elif action == "retype":
        data[last] = value
    elif _is_number(data[last]):
        data[last] = data[last] + value


@pytest.fixture(scope="module")
def scenario_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scenario.json"


@settings(max_examples=200, deadline=None, database=None)
@example(mutations=[(("flux_model", "v_max"), "retype", float("nan"))])
@example(mutations=[(("config", "t_end"), "retype", float("inf"))])
@example(mutations=[(("junctions", 1, "distribution", 0, 0), "retype", float("nan"))])
@given(mutations=mutations)
def test_validate_exit_code_contract(scenario_path, mutations):
    data = json.loads(json.dumps(BUNDLED))
    for mutation in mutations:
        _mutate(data, *mutation)
    scenario_path.write_text(json.dumps(data))
    assert main(["validate", str(scenario_path)]) in (EXIT_OK, EXIT_INVALID_INPUT)


# argparse reads "--alpha -inf" as a missing argument, so each option is passed as --opt=value
numbers = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr), st.just("1e400"))
roundabout_options = st.fixed_dictionaries(
    {},
    optional={
        "alpha": numbers,
        "beta": numbers,
        "rho1": numbers,
        "rho2": numbers,
        "cells": st.integers(-3, 10**21).map(str),
    },
)


@settings(max_examples=300, deadline=None, database=None)
@example(options={"alpha": "-inf"})
@example(options={"rho1": "1e400"})
@example(options={"cells": str(10**21)})
@given(options=roundabout_options)
def test_scenario_options_exit_code_contract(options):
    argv = ["scenario"] + [f"--{name}={value}" for name, value in options.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_INVALID_INPUT)
    if code == EXIT_INVALID_INPUT:
        assert len(err.getvalue().splitlines()) == 1
        assert out.getvalue() == ""
