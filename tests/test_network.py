import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tagflow.flux import FluxModel
from tagflow.network import (
    Arc,
    BoundaryCondition,
    Junction,
    Network,
    UndefinedCoefficientsError,
    build_roundabout,
    check_low_flow,
    equilibrium_coefficients,
    equilibrium_fluxes,
    initial_coefficients,
)

from helpers import random_network

UNIT = FluxModel()


def commodity_routing(alpha, beta, f1, f2):
    """Independent oracle: sum path flows for the four origin/exit classes."""
    paths = {
        ("S1", "S3"): (alpha * f1, ["S1", "S1C", "S3"]),
        ("S1", "S4"): ((1 - alpha) * f1, ["S1", "S1C", "S2C", "S3C", "S4"]),
        ("S2", "S4"): (beta * f2, ["S2", "S3C", "S4"]),
        ("S2", "S3"): ((1 - beta) * f2, ["S2", "S3C", "S4C", "S1C", "S3"]),
    }
    totals: dict[str, float] = {}
    for flow, path in paths.values():
        for arc in path:
            totals[arc] = totals.get(arc, 0.0) + flow
    return totals


def test_roundabout_shape_and_validity():
    net = build_roundabout(0.5, 0.5, 0.1127, 0.1127, cells_per_arc=50)
    assert len(net.arcs) == 8
    assert len(net.junctions) == 4
    assert net.validate() == []
    np.testing.assert_allclose(net.junction("J2").distribution[:, 0], [0.5, 0.5])


def test_roundabout_directed_circle_exists():
    net = build_roundabout(0.3, 0.7, 0.05, 0.05)
    hops = {"S1C": "S2C", "S2C": "S3C", "S3C": "S4C", "S4C": "S1C"}
    for src, dst in hops.items():
        down = net.downstream_junction(src)
        assert down is not None
        assert dst in net.junction(down).outgoing


def test_roundabout_degenerate_split():
    net = build_roundabout(1.0, 1.0, 0.1, 0.1)
    np.testing.assert_allclose(net.junction("J2").distribution[:, 0], [1.0, 0.0])
    assert net.validate() == []


def test_roundabout_entry_junctions_prioritize_circle():
    net = build_roundabout(0.5, 0.5, 0.1, 0.1)
    j1 = net.junction("J1")
    assert j1.incoming == ["S1", "S4C"]
    np.testing.assert_allclose(j1.priority, [0.0, 1.0])


def test_roundabout_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_roundabout(-0.1, 0.5, 0.1, 0.1)
    with pytest.raises(ValueError):
        build_roundabout(0.5, 0.5, 0.9, 0.1)  # above sigma
    with pytest.raises(ValueError):
        build_roundabout(0.5, 0.5, 0.1, 0.1, cells_per_arc=0)


def test_initial_coefficients():
    coeffs = initial_coefficients(0.5, 0.5)
    np.testing.assert_allclose(coeffs["J2"], [0.5, 0.5])
    np.testing.assert_allclose(coeffs["J4"], [0.5, 0.5])
    coeffs = initial_coefficients(0.3, 0.8)
    np.testing.assert_allclose(coeffs["J2"], [0.3, 0.7])
    np.testing.assert_allclose(coeffs["J4"], [0.8, 0.2])


def test_initial_coefficients_sum_to_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        coeffs = initial_coefficients(rng.uniform(), rng.uniform())
        for pair in coeffs.values():
            assert pair.sum() == pytest.approx(1.0, abs=1e-15)


def test_equilibrium_coefficients_symmetric_case():
    coeffs = equilibrium_coefficients(0.5, 0.5, 0.1, 0.1)
    np.testing.assert_allclose(coeffs["J2"], [2 / 3, 1 / 3], atol=1e-15)
    np.testing.assert_allclose(coeffs["J4"], [2 / 3, 1 / 3], atol=1e-15)


def test_equilibrium_coefficients_no_through_traffic():
    coeffs = equilibrium_coefficients(1.0, 1.0, 0.07, 0.19)
    np.testing.assert_allclose(coeffs["J2"], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(coeffs["J4"], [1.0, 0.0], atol=1e-15)


def test_equilibrium_coefficients_zero_flux_guard():
    with pytest.raises(UndefinedCoefficientsError):
        equilibrium_coefficients(0.5, 1.0, 0.0, 0.1)


def test_equilibrium_coefficients_limit_recovers_initial():
    # as the recirculated share vanishes the splits fall back to first-arrival
    alpha, beta = 0.4, 0.9
    for f2 in (1e-3, 1e-6, 1e-9):
        coeffs = equilibrium_coefficients(alpha, beta, 0.1, f2)
        np.testing.assert_allclose(coeffs["J2"], [alpha, 1 - alpha], atol=2e-2 * f2 / 1e-3)


def test_equilibrium_fluxes_example():
    fluxes = equilibrium_fluxes(0.5, 0.5, 0.1, 0.1)
    expected = {
        "S1C": 0.15,
        "S2C": 0.05,
        "S3C": 0.15,
        "S4C": 0.05,
        "S3": 0.1,
        "S4": 0.1,
    }
    for arc, value in expected.items():
        assert fluxes[arc] == pytest.approx(value, abs=1e-15)


def test_equilibrium_fluxes_match_commodity_routing():
    rng = np.random.default_rng(42)
    for _ in range(50):
        alpha, beta = rng.uniform(), rng.uniform()
        f1, f2 = rng.uniform(0, 0.12), rng.uniform(0, 0.12)
        fluxes = equilibrium_fluxes(alpha, beta, f1, f2)
        oracle = commodity_routing(alpha, beta, f1, f2)
        for arc, value in oracle.items():
            assert fluxes[arc] == pytest.approx(value, abs=1e-12)


def test_equilibrium_fluxes_zero_inflow_and_global_conservation():
    fluxes = equilibrium_fluxes(0.3, 0.8, 0.0, 0.0)
    assert all(v == 0.0 for v in fluxes.values())
    rng = np.random.default_rng(1)
    for _ in range(20):
        alpha, beta, f1, f2 = rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()
        fluxes = equilibrium_fluxes(alpha, beta, f1, f2)
        assert fluxes["S3"] + fluxes["S4"] == pytest.approx(f1 + f2, abs=1e-12)


def test_equilibrium_fluxes_reject_a_negative_entry_flux():
    with pytest.raises(ValueError, match="entry fluxes must be non-negative"):
        equilibrium_fluxes(0.5, 0.5, 0.1, -0.1)


def test_equilibrium_coefficients_consistent_with_fluxes():
    rng = np.random.default_rng(9)
    for _ in range(30):
        alpha, beta = rng.uniform(), rng.uniform()
        f1, f2 = rng.uniform(0.01, 0.12), rng.uniform(0.01, 0.12)
        fluxes = equilibrium_fluxes(alpha, beta, f1, f2)
        coeffs = equilibrium_coefficients(alpha, beta, f1, f2)
        arriving = fluxes["S1C"]
        assert coeffs["J2"][0] * arriving == pytest.approx(fluxes["S3"], abs=1e-12)
        assert coeffs["J2"][1] * arriving == pytest.approx(fluxes["S2C"], abs=1e-12)
        arriving = fluxes["S3C"]
        assert coeffs["J4"][0] * arriving == pytest.approx(fluxes["S4"], abs=1e-12)
        assert coeffs["J4"][1] * arriving == pytest.approx(fluxes["S4C"], abs=1e-12)


def test_check_low_flow():
    assert check_low_flow(UNIT, 0.1, 0.1)
    assert not check_low_flow(UNIT, 0.16, 0.16)
    assert check_low_flow(UNIT, 0.25, 0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_validate_reports_non_finite_numbers(bad):
    net = build_roundabout(0.5, 0.5, 0.1, 0.1)
    net.arc("S1").b = bad
    net.arc("S2").a, net.arc("S2").b = -1e308, 1e308  # finite ends, length overflows
    net.junction("J2").distribution = np.array([[bad], [0.5]])
    net.junction("J1").priority = np.array([bad, 1.0])
    report = net.validate()
    assert f"arc S1: a=0.0, b={bad} give no finite length" in report
    assert "arc S2: a=-1e+308, b=1e+308 give no finite length" in report
    assert "junction J2: non-finite distribution entry" in report
    assert "junction J1: non-finite priority weight" in report


@pytest.mark.parametrize("counts", [(10**20,), (2**62, 2**62), (2**61,)])
def test_validate_reports_too_many_cells(counts):
    # two arcs of 2**62 cells overflow a 64-bit sum; 2**61 cells fit an
    # index but not a float array's byte count
    net = build_roundabout(0.5, 0.5, 0.1, 0.1)
    for arc, n in zip(net.arcs, counts):
        arc.n_cells = n
    total = sum(a.n_cells for a in net.arcs)
    assert f"network has {total} cells, more than an array can index" in net.validate()


def test_validate_rejects_double_use_of_an_arc():
    arcs = [
        Arc("A", 0.0, 1.0, 5, "external_in"),
        Arc("B", 0.0, 1.0, 5, "external_out"),
        Arc("C", 0.0, 1.0, 5, "external_out"),
    ]
    junctions = [
        Junction("J1", ["A"], ["B"], [[1.0]]),
        Junction("J2", ["A"], ["C"], [[1.0]]),
    ]
    net = Network(UNIT, arcs, junctions, [BoundaryCondition("A", 0.1)])
    assert net.validate() == ["arc A: consumed by 2 junctions"]


def test_validate_survives_a_junction_without_incoming_arcs():
    net = build_roundabout(0.5, 0.5, 0.1, 0.1)
    net.junction("J2").incoming = []
    net.junction("J2").distribution = np.zeros((2, 0))
    net.junction("J2").priority = np.zeros(0)
    report = net.validate()
    assert any("needs at least one incoming" in msg for msg in report)
    # the arc ends are judged, and answered, from the edited lists
    assert "arc S1C: circle arc must connect two junctions" in report
    assert net.downstream_junction("S1C") is None


def test_lookups_read_the_live_lists():
    net = build_roundabout(0.5, 0.5, 0.1, 0.1)
    assert vars(net).keys() == {"model", "arcs", "junctions", "boundary_conditions"}
    arc_ids = [a.id for a in net.arcs] + ["S9"]
    junction_ids = [j.id for j in net.junctions] + ["J5", "J9"]

    def first(items, item_id):
        matches = [item for item in items if item.id == item_id]
        return matches[0] if matches else None

    def check():
        fed = [a for j in net.junctions for a in j.outgoing]
        drained = [a for j in net.junctions for a in j.incoming]
        for arc_id in arc_ids:
            expected = first(net.arcs, arc_id)
            if expected is None:
                with pytest.raises(KeyError):
                    net.arc(arc_id)
            else:
                assert net.arc(arc_id) is expected
            producers = [j.id for j in net.junctions if arc_id in j.outgoing]
            consumers = [j.id for j in net.junctions if arc_id in j.incoming]
            assert net.upstream_junction(arc_id) == (producers[0] if producers else None)
            assert net.downstream_junction(arc_id) == (consumers[0] if consumers else None)
        for junction_id in junction_ids:
            expected = first(net.junctions, junction_id)
            if expected is None:
                with pytest.raises(KeyError):
                    net.junction(junction_id)
            else:
                assert net.junction(junction_id) is expected
        assert net.source_arc_ids == [a.id for a in net.arcs if a.id not in fed]
        assert net.sink_arc_ids == [a.id for a in net.arcs if a.id not in drained]

    check()
    net.junction("J2").incoming = []
    check()
    assert net.downstream_junction("S1C") is None and "S1C" in net.sink_arc_ids
    net.arcs = [a for a in net.arcs if a.id != "S4"]
    check()
    with pytest.raises(KeyError):
        net.arc("S4")
    net.junctions.append(Junction("J5", ["S3"], ["S1"], [[1.0]]))
    check()
    assert net.upstream_junction("S1") == "J5" and "S3" not in net.sink_arc_ids
    # a duplicate id resolves to its first occurrence
    first_s2, first_j1 = net.arc("S2"), net.junction("J1")
    net.arcs.append(Arc("S2", 0.0, 2.0, 3, "generic"))
    net.junctions.append(Junction("J1", ["S2"], ["S4C"], [[1.0]]))
    check()
    assert net.arc("S2") is first_s2 and net.junction("J1") is first_j1
    assert net.downstream_junction("S2") == "J3" and net.upstream_junction("S4C") == "J4"
    assert vars(net).keys() == {"model", "arcs", "junctions", "boundary_conditions"}


_KINDS = {"in": "external_in", "out": "external_out", "gen": "generic"}


def _arcs(spec):
    """'A:in B:out' -> unit arcs of two cells with those ids and kinds."""
    words = (word.split(":") for word in spec.split())
    return [Arc(arc_id, 0.0, 1.0, 2, _KINDS.get(kind, kind)) for arc_id, kind in words]


def _net(arcs, junctions, bcs=("A",)):
    """arcs as an _arcs spec or a list; a bare arc id in bcs is fed at 0.1."""
    arcs = _arcs(arcs) if isinstance(arcs, str) else arcs
    bcs = [bc if isinstance(bc, BoundaryCondition) else BoundaryCondition(bc, 0.1) for bc in bcs]
    return Network(UNIT, arcs, junctions, bcs)


def _line(arcs="A:in B:out", bcs=("A",), **fields):
    """A -J-> B, fed at A; fields go to the junction."""
    return _net(arcs, [Junction("J", ["A"], ["B"], **{"distribution": [[1.0]], **fields})], bcs)


def _arc_a(**attrs):
    """_line with the given attributes of arc A."""
    a, b = _arcs("A:in B:out")
    return _line([replace(a, **attrs), b])


def _split(**fields):
    """A -J-> B and C, fed at A."""
    junction = Junction("J", ["A"], ["B", "C"], **{"distribution": [[0.5], [0.5]], **fields})
    return _net("A:in B:out C:out", [junction])


def _merge(**fields):
    """A and B -J-> C, both fed."""
    junction = Junction("J", ["A", "B"], ["C"], **{"distribution": [[1.0, 1.0]], **fields})
    return _net("A:in B:in C:out", [junction], ("A", "B"))


def _pair(arcs, first, second, bcs=("A",), names=("J", "K")):
    """Two one-to-one junctions, each given as (incoming, outgoing)."""
    junctions = [Junction(name, [a], [b], [[1.0]]) for name, (a, b) in zip(names, (first, second))]
    return _net(arcs, junctions, bcs)


def _roundabout_j2(distribution):
    """The roundabout with junction J2's distribution replaced after construction."""
    net = build_roundabout(0.5, 0.5, 0.1, 0.1)
    net.junction("J2").distribution = np.array(distribution)
    return net


def _several_faults():
    arcs = _arcs("A:in A:out B:ramp C:gen C,D:gen")
    arcs[2].n_cells = 0
    arcs[3].a = 2.0
    junctions = [
        Junction("J", ["A", "B"], ["C", "MISSING"], [[1.5, 1.0], [-0.6, 0.5]], priority=[0.7, 0.2]),
        Junction("K", ["C"], ["A", "C"], [[0.5], [0.5]], coefficient_mode="dynamic", exit_arc="B"),
        Junction("J", [], ["C,D"], [[1.0]]),
    ]
    bcs = [BoundaryCondition("C", 2.0, -0.5), BoundaryCondition("C", 0.1), BoundaryCondition("Z", 0.1)]
    return _net(arcs, junctions, bcs)


_VALIDATE_CASES = {
    "valid": (_line, []),
    "duplicate-arc": (lambda: _line("A:in B:out B:out"), ["arc B: duplicate id"]),
    "arc-id-csv": (
        lambda: _net('A:in B"1:out', [Junction("J", ["A"], ['B"1'], [[1.0]])]),
        ["arc 'B\"1': id holds a comma, quote or line break"],
    ),
    "infinite-length": (lambda: _arc_a(b=math.inf), ["arc A: a=0.0, b=inf give no finite length"]),
    "empty-arc": (lambda: _arc_a(a=1.0), ["arc A: b=1.0 must exceed a=1.0"]),
    "no-cells": (lambda: _arc_a(n_cells=0), ["arc A: n_cells must be >= 1"]),
    "unknown-kind": (lambda: _line("A:ramp B:out"), ["arc A: unknown kind 'ramp'"]),
    "no-arcs": (lambda: _net([], [], ()), ["network has no arcs"]),
    "too-many-cells": (
        lambda: _arc_a(n_cells=2**62),
        [f"network has {2**62 + 2} cells, more than an array can index"],
    ),
    "duplicate-junction": (
        lambda: _pair("A:in B:gen C:out", ("A", "B"), ("B", "C"), names=("J", "J")),
        ["junction J: duplicate id"],
    ),
    "junction-id-csv": (
        lambda: _net("A:in B:out", [Junction("J\n", ["A"], ["B"], [[1.0]])]),
        ["junction 'J\\n': id holds a comma, quote or line break"],
    ),
    "dangling": (
        lambda: _net("A:in B:out", [Junction("J", ["A"], ["B", "Z"], [[0.5], [0.5]])]),
        ["junction J: dangling reference to arc Z"],
    ),
    "dangling-only-outgoing": (
        lambda: _net("A:in", [Junction("J", ["A"], ["MISSING"], [[1.0]])]),
        ["junction J: dangling reference to arc MISSING"],
    ),
    "arc-twice": (
        lambda: _net("A:in B:out", [Junction("J", ["A", "A"], ["B"], [[1.0, 1.0]])]),
        ["junction J: an arc appears twice", "arc A: consumed by 2 junctions"],
    ),
    "no-outgoing": (
        lambda: _net("A:in", [Junction("J", ["A"], [], np.zeros((0, 1)))]),
        [
            "junction J: needs at least one incoming and one outgoing arc",
            "junction J: distribution column 0 mass 0 != 1",
        ],
    ),
    "distribution-shape": (
        lambda: _line(distribution=[[0.5, 0.5]]),
        ["junction J: distribution shape (1, 2) does not match (1, 1)"],
    ),
    "non-finite-entry": (
        lambda: _split(distribution=[[math.nan], [0.5]]),
        ["junction J: non-finite distribution entry"],
    ),
    "negative-entry": (
        lambda: _split(distribution=[[1.5], [-0.5]]),
        ["junction J: negative distribution entry"],
    ),
    "column-mass": (
        lambda: _merge(distribution=[[1.0, 0.25]]),
        ["junction J: distribution column 1 mass 0.25 != 1"],
    ),
    "roundabout-column-mass": (
        lambda: _roundabout_j2([[0.5], [0.4]]),
        ["junction J2: distribution column 0 mass 0.9 != 1"],
    ),
    "priority-length": (lambda: _merge(priority=[1.0]), ["junction J: priority length != incoming arcs"]),
    "non-finite-priority": (
        lambda: _merge(priority=[math.inf, 0.0]),
        ["junction J: non-finite priority weight"],
    ),
    "priority-range": (lambda: _merge(priority=[1.5, -0.5]), ["junction J: priority weights outside [0, 1]"]),
    "priority-sum": (lambda: _merge(priority=[0.5, 0.4]), ["junction J: priority weights must sum to 1"]),
    "coefficient-mode": (
        lambda: _line(coefficient_mode="adaptive"),
        ["junction J: unknown coefficient_mode 'adaptive'"],
    ),
    "dynamic-shape": (
        lambda: _line(coefficient_mode="dynamic", exit_arc="B"),
        ["junction J: dynamic mode requires 1 incoming and 2 outgoing arcs"],
    ),
    "exit-arc": (
        lambda: _split(coefficient_mode="dynamic", exit_arc="A"),
        ["junction J: exit_arc must name one of its outgoing arcs"],
    ),
    "exit-tracer": (
        lambda: _split(coefficient_mode="dynamic", exit_arc="B", exit_tracer=0.5),
        ["junction J: exit_tracer must be 0 or 1"],
    ),
    "consumed-twice": (
        lambda: _pair("A:in B:out C:out", ("A", "B"), ("A", "C")),
        ["arc A: consumed by 2 junctions"],
    ),
    "produced-twice": (
        lambda: _pair("A:in B:in C:out", ("A", "C"), ("B", "C"), ("A", "B")),
        ["arc C: produced by 2 junctions"],
    ),
    "two-boundary-conditions": (lambda: _line(bcs=("A", "A")), ["arc A: multiple boundary conditions"]),
    "boundary-condition-missing-arc": (
        lambda: _line(bcs=("A", "Z")),
        ["boundary condition references missing arc Z"],
    ),
    "boundary-condition-not-source": (
        lambda: _line(bcs=("A", "B")),
        ["arc B: boundary condition on a non-source arc"],
    ),
    "rho-bar": (
        lambda: _line(bcs=[BoundaryCondition("A", 1.5)]),
        ["arc A: rho_bar 1.5 outside [0, 1.0]"],
    ),
    "tracer-in": (
        lambda: _line(bcs=[BoundaryCondition("A", 0.1, 2.0)]),
        ["arc A: tracer_in 2.0 outside [0, 1]"],
    ),
    "no-inflow": (lambda: _line(bcs=()), ["arc A: no upstream junction and no boundary condition"]),
    "lone-arc-no-inflow": (
        lambda: _net("A:gen", [], ()),
        ["arc A: no upstream junction and no boundary condition"],
    ),
    "external-in-fed": (lambda: _line("A:in B:in"), ["arc B: external_in but fed by a junction"]),
    "external-out-consumed": (
        lambda: _line("A:out B:out"),
        ["arc A: external_out but consumed by a junction"],
    ),
    "circle-end": (lambda: _line("A:in B:circle"), ["arc B: circle arc must connect two junctions"]),
    "two-components": (
        lambda: _net("A:gen B:gen", [], ("A", "B")),
        ["graph is not connected (2 components)"],
    ),
    "three-components": (
        lambda: _pair("A:in B:out C:in D:out E:gen", ("A", "B"), ("C", "D"), ("A", "C", "E")),
        ["graph is not connected (3 components)"],
    ),
    "several-faults": (
        _several_faults,
        [
            "arc A: duplicate id",
            "arc B: n_cells must be >= 1",
            "arc B: unknown kind 'ramp'",
            "arc C: b=1.0 must exceed a=2.0",
            "arc 'C,D': id holds a comma, quote or line break",
            "junction J: dangling reference to arc MISSING",
            "junction J: negative distribution entry",
            "junction J: distribution column 0 mass 0.9 != 1",
            "junction J: distribution column 1 mass 1.5 != 1",
            "junction J: priority weights must sum to 1",
            "junction K: an arc appears twice",
            "junction K: exit_arc must name one of its outgoing arcs",
            "junction J: duplicate id",
            "junction J: needs at least one incoming and one outgoing arc",
            "junction J: distribution shape (1, 1) does not match (1, 0)",
            "arc C: produced by 2 junctions",
            "arc C: boundary condition on a non-source arc",
            "arc C: rho_bar 2.0 outside [0, 1.0]",
            "arc C: tracer_in -0.5 outside [0, 1]",
            "arc C: multiple boundary conditions",
            "arc C: boundary condition on a non-source arc",
            "boundary condition references missing arc Z",
            "arc A: external_in but fed by a junction",
            "arc A: external_out but consumed by a junction",
            "arc B: no upstream junction and no boundary condition",
            # no connectivity line: the two junctions named J count as
            # one node, which joins C,D to the other arcs
        ],
    ),
}


@pytest.mark.parametrize("build, expected", _VALIDATE_CASES.values(), ids=_VALIDATE_CASES.keys())
def test_validate_reports_each_fault_in_order(build, expected):
    assert build().validate() == expected


def test_random_networks_validate_and_have_stochastic_columns():
    rng = np.random.default_rng(123)
    for _ in range(25):
        net = random_network(rng)
        assert net.validate() == []
        for junc in net.junctions:
            np.testing.assert_allclose(
                junc.distribution.sum(axis=0), 1.0, atol=1e-9
            )


_TOPOLOGIES = """
import json
import numpy as np
from helpers import random_network
rng = np.random.default_rng(7)
nets = [random_network(rng) for _ in range(50)]
print(json.dumps([[(j.incoming, j.outgoing) for j in n.junctions] for n in nets]))
"""


def test_random_networks_do_not_depend_on_the_hash_seed():
    # acceptance criterion 3 draws these 50 networks; str hashing is
    # salted per process, so two processes with different salts must
    # still build the same junctions
    tests_dir = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests_dir.parent / "src"), str(tests_dir)])
    topologies = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", _TOPOLOGIES],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        topologies.append(json.loads(done.stdout))
    assert topologies[0] == topologies[1]
