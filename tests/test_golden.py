"""Golden outputs: the engine's results pinned bit for bit.

A change to the step that is meant to be pure speed must leave every
hash below as it is.  A change that moves a result on purpose updates
the hash and says why.
"""

import dataclasses
import hashlib
from pathlib import Path

import numpy as np
import pytest

from tagflow import junctions
from tagflow.bench import build_diamond_chain
from tagflow.output import write_timeseries
from tagflow.scenario import parse_scenario
from tagflow.simulate import Simulator

from tagflow.flux import FluxModel

from helpers import (
    hub_network,
    ladder_network,
    mixed_kind_network,
    ring_network,
    single_arc_network,
    topic_network,
)

ROUNDABOUT = Path(__file__).parent.parent / "demos" / "roundabout.json"

# the bundled roundabout to t = 20: the first arrivals at t = 1.28 and
# the transient that follows them
ROUNDABOUT_CSV_SHA256 = {
    "fluxes": "ab3e37cc888a397fb475c848f44d5f27c3cf2fa62966ce38aa64597b26dae5ae",
    "coefficients": "f535914e5a6da99202dc8e1ed89c058011688c0d74772aee6b66de2be3ba0c23",
    "densities": "7d63e9eb16688aba4a451e6450d96b3c4cfaa6731dd6b03eb9abfeccfda3cd46",
}
# the same run with every split frozen at its initial value, the
# coefficient mode of `tagflow roundabout --static`
ROUNDABOUT_STATIC_CSV_SHA256 = {
    "fluxes": "aca06c3766a9fd97ea1afae0b83023cf00072486adc5f6f9d32b95847dcd7d9d",
    "coefficients": "4897177246eeeb4adcc1b8c0b6873849116fab8900c46edc5081653341fe4219",
    "densities": "f96f95cdb139678e3c4353636a67e5ffc4d5971c85ae50a20fbf93c29af25b0f",
}
# the bundled roundabout to its own t_end = 100: every state from step
# 8646 on equals the one before it bit for bit
ROUNDABOUT_T100_CSV_SHA256 = {
    "fluxes": "ad7170224f29e21484440cc04c9deefa228bc7d6b0791128bca880c523d4c795",
    "coefficients": "dffda5e98ba78d837737b7fd7f64827da13ca7bc3dadbff380f39c4b4a98c5cc",
    "densities": "7a1bc10f644df8161df2801c1c01ba230ac1a0f4b0a80b567f6cf6847794a557",
}
# rho.tobytes() (and phi.tobytes() and exit_splits.tobytes() where there
# is a tracer) after 200 steps (or STEPS[name]) from densities seeded on
# [0, rho_max].  hub, ladder, mixed-slope's phi and topics were
# re-recorded, by at most 8.9e-16 in a cell, when each routed flux
# became a sequential sum in its row's priority order: numpy's einsum,
# used before, sums 3 or more incoming arcs in another order
STATE_SHA256 = {
    "diamond-chain": {"rho": "e59d20f0278e3e77d2fcae7a5f3d3f052c517936f110d2a7c8e8f928874bc105"},
    "one-cell-arcs": {"rho": "50412d031258c92677ba6f74f971fe2fd2312ec03bfd529962f00024804d3584"},
    "one-cell": {"rho": "e2a83cf6ccc2fa4647968c68d4d816a25a807cb95faca5456461b7d57f83d594"},
    "mixed": {
        "rho": "db7fb27caa5c13be9f31c8b66aa5bc5d50aabce5c28759738eda0c89fe3d370b",
        "phi": "04b4db5f854297ff9c562732527119506769c9a14254f0b58120f7fa745eba9b",
        "exit_splits": "9228428ba831594cc07d6a871aea67d0973efd7acae90a9c87db4a4a6ffd5300",
    },
    "ring": {"rho": "2110e26cc6145e5dc43802ee22af002378d306e260596c9eef4b5235b002c332"},
    "hub": {"rho": "9f1c4e8567606f9b42cc873586676e004322c230e09e1f78599bef038f493081"},
    "ladder": {"rho": "0844a729e653f87517458051db5b10a20ec98e2a04e5325629b81d8a4f1e7e3e"},
    "mixed-slope": {
        "rho": "c82ad4196ae7705cef87c82bb85f222a173ebc8e4fe2c4279fcf171282dc9bba",
        "phi": "20e9c719f08a91292e80de4352f4dde2be4f5e8b3bb3acd9a6f4048cd475100c",
        "exit_splits": "0b2da2ec1eccae41f0083ffe06c6a7cee5be399cab2a9e484de911b6498ba4ca",
    },
    "topics": {"rho": "33e706ef6119524d7bf7f73b48d928d68d84f80b36cfd4fed69451f8413c70fe"},
}
NETWORKS = {
    "diamond-chain": lambda: build_diamond_chain(40, 5),
    # every arc one cell: an arc's first face and its end bracket one cell
    "one-cell-arcs": lambda: build_diamond_chain(40, 1),
    # one cell that is both source and sink
    "one-cell": lambda: single_arc_network(FluxModel(), 1, 0.3),
    "mixed": mixed_kind_network,
    # no reservoir and no outlet
    "ring": ring_network,
    # one general junction; every other table row is a reservoir or a sink arc
    "hub": lambda: hub_network(6, 3, seed=5),
    # seven general junctions of every shape from 2x2 to 3x3, the
    # generic-grid workload's shapes
    "ladder": lambda: ladder_network((2, 2, 3, 2, 3, 3, 2, 2)),
    # slope v_max / rho_max != 1 and rho_max != 1, with a dynamic exit
    "mixed-slope": lambda: mixed_kind_network(FluxModel(0.7, 0.3)),
    # hubs: a 23-wide merge and general rows up to 22x3 beside 1x2 to
    # 1x3 diverges, every kind at its own width
    "topics": lambda: topic_network(60, 3, seed=7),
}
# a lone cell settles on its reservoir's density within 200 steps, so it
# is pinned while it still moves
STEPS = {"one-cell": 20}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def roundabout_csv_hashes(
    out_dir: Path, coefficient_mode: str = "network", t_end: float = 20.0
) -> dict[str, str]:
    net, config = parse_scenario(ROUNDABOUT.read_text())
    config = dataclasses.replace(config, t_end=t_end, coefficient_mode=coefficient_mode)
    result = Simulator(net).run(config)
    paths = write_timeseries(result, out_dir)
    return {name: _sha256(paths[name].read_bytes()) for name in ROUNDABOUT_CSV_SHA256}


def stepped_state_hashes(name: str, steps: int = 200, seed: int = 7) -> dict[str, str]:
    sim = Simulator(NETWORKS[name]())
    state = sim.init_state()
    rng = np.random.default_rng(seed)
    state.rho[:] = rng.uniform(0.0, sim.model.rho_max, sim.total_cells)
    if state.phi is not None:
        state.phi[:] = rng.uniform(0.0, 1.0, sim.total_cells)
    dt = sim.stable_dt(0.5)
    for _ in range(steps):
        state = sim.step(state, dt)
    arrays = {"rho": state.rho, "phi": state.phi, "exit_splits": state.exit_splits}
    return {key: _sha256(arrays[key].tobytes()) for key in STATE_SHA256[name]}


def test_roundabout_csvs_are_bit_identical(tmp_path):
    assert roundabout_csv_hashes(tmp_path) == ROUNDABOUT_CSV_SHA256


def test_static_roundabout_csvs_are_bit_identical(tmp_path):
    assert roundabout_csv_hashes(tmp_path, "static") == ROUNDABOUT_STATIC_CSV_SHA256


def test_roundabout_csvs_past_its_fixed_point_are_bit_identical(tmp_path):
    assert roundabout_csv_hashes(tmp_path, t_end=100.0) == ROUNDABOUT_T100_CSV_SHA256


@pytest.mark.parametrize("name", sorted(STATE_SHA256))
def test_stepped_state_is_bit_identical(name):
    assert stepped_state_hashes(name, STEPS.get(name, 200)) == STATE_SHA256[name]


# rho.tobytes() of the golden ladder fed at a tenth of its reservoir
# densities, 200 steps from empty; re-recorded with the routing order
# above, by at most 3.5e-18 in a cell
FREE_FLOW_LADDER_SHA256 = "628dd67bf8faa186354ac335c37c782adc0a26cfa92e9a9005a150525a34a189"


def test_free_flow_ladder_never_climbs(monkeypatch):
    # the entries carry 0.095 at most between them, so every arc stays in
    # free flow and every general junction's demands fit its supplies
    def climb(*args):
        raise AssertionError("a free-flow junction reached the simplex")

    monkeypatch.setattr(junctions, "_climb", climb)
    net = NETWORKS["ladder"]()
    net.boundary_conditions = [
        dataclasses.replace(bc, rho_bar=bc.rho_bar / 10) for bc in net.boundary_conditions
    ]
    sim = Simulator(net)
    state = sim.init_state()
    dt = sim.stable_dt(0.5)
    for _ in range(200):
        state = sim.step(state, dt)
    assert state.rho.min() > 0.0
    assert _sha256(state.rho.tobytes()) == FREE_FLOW_LADDER_SHA256
