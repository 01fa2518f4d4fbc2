import math
import tracemalloc

import numpy as np
import pytest

from tagflow import junctions
from tagflow.flux import DENSITY_TOL, FluxModel
from tagflow.junctions import KERNELS, classify, priority_order
from tagflow.network import (
    Arc,
    BoundaryCondition,
    InvalidInputError,
    Junction,
    Network,
    NetworkValidationError,
    build_roundabout,
    equilibrium_coefficients,
    equilibrium_fluxes,
)
from tagflow.simulate import (
    EPS_FLUX,
    FluxSnapshot,
    SimConfig,
    SimulationError,
    Simulator,
    detect_equilibrium,
    dynamic_exit_coefficients,
)

from tagflow.bench import build_diamond_chain

from helpers import (
    hub_network,
    ladder_network,
    mixed_kind_network,
    random_network,
    reference_run,
    riemann_l1_error,
    ring_network,
    single_arc_network,
    topic_network,
)
from test_network import _VALIDATE_CASES

UNIT = FluxModel()
RHO_BAR_01 = (1.0 - math.sqrt(0.6)) / 2.0  # unit-model density with flux 0.1


@pytest.fixture(scope="module")
def roundabout_run():
    net = build_roundabout(0.5, 0.5, RHO_BAR_01, RHO_BAR_01, cells_per_arc=50)
    return Simulator(net).run(SimConfig(t_end=100.0))


def test_init_state_empty_with_first_arrival_splits():
    net = build_roundabout(0.5, 0.5, 0.1, 0.1)
    sim = Simulator(net)
    state = sim.init_state()
    assert state.time == 0.0
    assert state.step_count == 0
    assert sim.total_mass(state) == 0.0
    np.testing.assert_allclose(state.exit_splits[0], [0.5, 0.5])
    assert state.phi is not None
    assert np.all((state.phi >= 0.0) & (state.phi <= 1.0))
    assert np.all(state.rho == 0.0)


def test_init_state_skips_tracer_on_static_networks():
    rng = np.random.default_rng(0)
    state = Simulator(random_network(rng)).init_state()
    assert state.phi is None


def test_stable_dt_formula():
    net = single_arc_network(UNIT, 50, 0.1)  # dx = 0.02
    sim = Simulator(net)
    assert sim.stable_dt(0.5) == pytest.approx(0.01, abs=1e-15)
    assert sim.stable_dt(1.0) == pytest.approx(0.02, abs=1e-15)
    halved = Simulator(single_arc_network(UNIT, 100, 0.1))
    assert halved.stable_dt(0.5) == pytest.approx(0.005, abs=1e-15)
    with pytest.raises(ValueError):
        sim.stable_dt(0.0)
    # the bound holds whatever the state: a full jam steps at cfl 1
    jam = sim.init_state()
    jam.rho[:] = UNIT.rho_max
    assert sim.step(jam, sim.stable_dt(1.0)).rho.max() <= UNIT.rho_max


def test_step_rejects_cfl_violation():
    net = single_arc_network(UNIT, 50, 0.1)
    sim = Simulator(net)
    with pytest.raises(SimulationError):
        sim.step(sim.init_state(), 0.03)
    with pytest.raises(ValueError):
        sim.step(sim.init_state(), -0.01)


def test_empty_state_zero_inflow_is_fixed_point():
    net = single_arc_network(UNIT, 40, 0.0)
    sim = Simulator(net)
    state = sim.init_state()
    for _ in range(20):
        state = sim.step(state, sim.stable_dt(0.5))
    assert np.all(state.rho == 0.0)
    assert sim.total_mass(state) == 0.0


def test_uniform_profile_is_stationary():
    net = single_arc_network(UNIT, 40, 0.2)
    sim = Simulator(net)
    state = sim.init_state()
    state.rho[:] = 0.2
    out = sim.step(state, sim.stable_dt(0.5))
    np.testing.assert_array_equal(out.rho, state.rho)


def test_step_does_not_mutate_input_state():
    net = single_arc_network(UNIT, 40, 0.3)
    sim = Simulator(net)
    state = sim.init_state()
    before = state.rho.copy()
    sim.step(state, sim.stable_dt(0.5))
    np.testing.assert_array_equal(state.rho, before)
    assert state.time == 0.0


def test_riemann_rarefaction_accuracy_and_convergence():
    err_200 = riemann_l1_error(UNIT, 0.8, 0.2, 0.5, 200, 0.2)
    assert err_200 <= 0.01
    err_400 = riemann_l1_error(UNIT, 0.8, 0.2, 0.5, 400, 0.2)
    assert err_200 / err_400 >= 1.5


def test_riemann_shock_convergence():
    # rho_max = 2 keeps the 0.2|0.8 shock moving (chord speed 0.5)
    model = FluxModel(v_max=1.0, rho_max=2.0)
    err_200 = riemann_l1_error(model, 0.2, 0.8, 0.4, 200, 0.2)
    err_400 = riemann_l1_error(model, 0.2, 0.8, 0.4, 400, 0.2)
    assert err_200 / err_400 >= 1.8


def test_dynamic_exit_coefficients_first_arrival_value():
    net = build_roundabout(0.3, 0.5, 0.1, 0.1)
    j2 = net.junction("J2")
    column = dynamic_exit_coefficients(j2, 0.05, 0.3, np.array([0.9, 0.1]))
    np.testing.assert_allclose(column, [0.3, 0.7], atol=1e-15)


def test_dynamic_exit_coefficients_equilibrium_composition():
    alpha, beta, f1, f2 = 0.4, 0.7, 0.09, 0.05
    net = build_roundabout(alpha, beta, 0.1, 0.06)
    phi_eq = (alpha * f1 + (1 - beta) * f2) / (f1 + (1 - beta) * f2)
    column = dynamic_exit_coefficients(net.junction("J2"), 0.1, phi_eq, np.array([0.5, 0.5]))
    expected = equilibrium_coefficients(alpha, beta, f1, f2)["J2"]
    np.testing.assert_allclose(column, expected, atol=1e-15)
    # J4 exits the unmarked class: complement of the arriving tracer
    phi_4 = (1 - beta) * f2 / ((1 - alpha) * f1 + f2)
    column = dynamic_exit_coefficients(net.junction("J4"), 0.1, phi_4, np.array([0.5, 0.5]))
    np.testing.assert_allclose(column, equilibrium_coefficients(alpha, beta, f1, f2)["J4"], atol=1e-15)


def test_dynamic_exit_coefficients_gate_keeps_current():
    net = build_roundabout(0.3, 0.5, 0.1, 0.1)
    current = np.array([0.42, 0.58])
    column = dynamic_exit_coefficients(net.junction("J2"), EPS_FLUX / 10, 0.9, current)
    np.testing.assert_array_equal(column, current)


def test_dynamic_exit_coefficients_rejects_non_exit_junction():
    net = build_roundabout(0.3, 0.5, 0.1, 0.1)
    with pytest.raises(ValueError):
        dynamic_exit_coefficients(net.junction("J1"), 0.1, 0.5, np.array([1.0]))


def test_dynamic_exit_coefficients_rejects_two_incoming_arcs():
    j2 = build_roundabout(0.3, 0.5, 0.1, 0.1).junction("J2")
    j2.incoming = ["S1C", "S1"]
    with pytest.raises(ValueError, match="junction J2 must have 1 incoming and 2 outgoing arcs"):
        dynamic_exit_coefficients(j2, 0.1, 0.5, np.array([0.5, 0.5]))


def test_sim_config_rejects_an_unknown_coefficient_mode():
    with pytest.raises(InvalidInputError, match="coefficient_mode must be 'network' or 'static'"):
        SimConfig(coefficient_mode="x")


def test_roundabout_converges_to_equilibrium(roundabout_run):
    res = roundabout_run
    assert res.equilibrium_time is not None
    expected = equilibrium_fluxes(0.5, 0.5, 0.1, 0.1)
    for arc in ("S1C", "S2C", "S3C", "S4C", "S3", "S4"):
        got = res.summary["final_fluxes"][arc]
        assert got == pytest.approx(expected[arc], rel=0.01)
    np.testing.assert_allclose(res.coefficients["J2"][-1][:, 0], [2 / 3, 1 / 3], rtol=0.01)
    np.testing.assert_allclose(res.coefficients["J4"][-1][:, 0], [2 / 3, 1 / 3], rtol=0.01)


def test_roundabout_coefficient_trajectory_endpoints(roundabout_run):
    res = roundabout_run
    for jid in ("J2", "J4"):
        t_first, column = res.first_arrival_coefficients[jid]
        assert t_first > 0.0
        np.testing.assert_allclose(column, [0.5, 0.5], atol=1e-9)
    # trajectory starts at the first-arrival split and ends at equilibrium
    assert res.coefficients["J2"][0][0, 0] == pytest.approx(0.5, abs=1e-12)
    assert res.coefficients["J2"][-1][0, 0] == pytest.approx(2 / 3, rel=1e-3)


def test_roundabout_mass_residual_small(roundabout_run):
    assert roundabout_run.summary["mass_residual"] <= 1e-10


def test_coefficient_columns_sum_to_one_throughout(roundabout_run):
    for series in roundabout_run.coefficients.values():
        sums = series.sum(axis=1)  # (n_samples, n_in)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_asymmetric_roundabout_matches_closed_form():
    alpha, beta, rho1, rho2 = 0.3, 0.7, 0.08, 0.13
    f1, f2 = UNIT.flux(rho1), UNIT.flux(rho2)
    net = build_roundabout(alpha, beta, rho1, rho2, cells_per_arc=40)
    res = Simulator(net).run(SimConfig(t_end=120.0))
    assert res.equilibrium_time is not None
    expected_flux = equilibrium_fluxes(alpha, beta, f1, f2)
    for arc, value in expected_flux.items():
        assert res.summary["final_fluxes"][arc] == pytest.approx(value, abs=1e-10)
    expected_coeff = equilibrium_coefficients(alpha, beta, f1, f2)
    np.testing.assert_allclose(res.coefficients["J2"][-1][:, 0], expected_coeff["J2"], atol=1e-6)
    np.testing.assert_allclose(res.coefficients["J4"][-1][:, 0], expected_coeff["J4"], atol=1e-6)


def test_congested_roundabout_is_stable_and_conservative():
    # inflow far above what the circle can absorb: entries throttle,
    # circle arcs saturate at capacity, mass stays balanced
    net = build_roundabout(0.5, 0.5, 0.45, 0.45, cells_per_arc=30)
    res = Simulator(net).run(SimConfig(t_end=150.0))
    assert res.summary["mass_residual"] <= 1e-10
    assert res.equilibrium_time is not None
    assert res.summary["final_fluxes"]["S1C"] == pytest.approx(UNIT.capacity, rel=1e-3)
    assert res.summary["final_fluxes"]["S3"] + res.summary["final_fluxes"]["S4"] < 2 * UNIT.flux(0.45)


def test_tracer_through_generic_junction_stays_conservative():
    # a 2-in/2-out junction has no vectorized class; route tracer-labelled
    # mass through it into a dynamic exit and check the invariants hold
    arcs = [
        Arc("A", 0.0, 1.0, 8, "external_in"),
        Arc("B", 0.0, 1.0, 8, "external_in"),
        Arc("M1", 0.0, 1.0, 8, "generic"),
        Arc("M2", 0.0, 1.0, 8, "external_out"),
        Arc("E1", 0.0, 1.0, 8, "external_out"),
        Arc("E2", 0.0, 1.0, 8, "external_out"),
    ]
    junctions = [
        Junction(
            "Jgen",
            ["A", "B"],
            ["M1", "M2"],
            [[0.7, 0.4], [0.3, 0.6]],
            priority=[0.5, 0.5],
        ),
        Junction(
            "Jexit",
            ["M1"],
            ["E1", "E2"],
            [[0.5], [0.5]],
            coefficient_mode="dynamic",
            exit_arc="E1",
            exit_tracer=1.0,
        ),
    ]
    bcs = [
        BoundaryCondition("A", 0.15, tracer_in=1.0),
        BoundaryCondition("B", 0.1, tracer_in=0.0),
    ]
    net = Network(UNIT, arcs, junctions, bcs)
    sim = Simulator(net)
    assert net.validate() == []
    state = sim.init_state()
    dt = sim.stable_dt(0.5)
    for _ in range(400):
        snap = sim.compute_fluxes(state)
        before = sim.total_mass(state)
        state = sim.apply(state, snap, dt)
        residual = abs(
            sim.total_mass(state) - before - dt * (snap.inflow_total - snap.outflow_total)
        )
        assert residual <= 1e-10
        assert np.all((state.phi >= 0.0) & (state.phi <= 1.0))
    # at steady state the mixture on M1 is the flux-weighted inflow blend
    fa, fb = UNIT.flux(0.15), UNIT.flux(0.1)
    expected_mix = 0.7 * fa / (0.7 * fa + 0.4 * fb)
    np.testing.assert_allclose(sim.cells(state.phi, "M1"), expected_mix, atol=1e-9)


def test_static_mode_freezes_coefficients():
    net = build_roundabout(0.5, 0.5, RHO_BAR_01, RHO_BAR_01, cells_per_arc=20)
    res = Simulator(net).run(SimConfig(t_end=30.0, coefficient_mode="static"))
    np.testing.assert_array_equal(res.coefficients["J2"][-1], res.coefficients["J2"][0])
    # frozen first-arrival splits do not reproduce the adaptive steady state
    assert res.summary["final_fluxes"]["S3"] != pytest.approx(0.1, rel=1e-3)


def test_static_routing_is_one_read_only_view_per_junction():
    net = build_roundabout(0.5, 0.5, RHO_BAR_01, RHO_BAR_01, cells_per_arc=10)
    res = Simulator(net).run(SimConfig(t_end=2.0))
    n_samples = len(res.times)
    for junc in net.junctions:
        entry = res.coefficients[junc.id]
        assert entry.shape == (n_samples, *junc.distribution.shape)
        if junc.coefficient_mode == "dynamic":
            assert entry.flags.writeable
        else:
            assert entry.strides[0] == 0
            assert not entry.flags.writeable
            np.testing.assert_array_equal(entry[-1], junc.distribution)
    assert {j.coefficient_mode for j in net.junctions} == {"dynamic", "static"}


def test_run_reads_each_junction_routing_back_from_its_group():
    # hubs of every width class: each group has its own row stride
    net = topic_network(60, 3)
    res = Simulator(net).run(SimConfig(t_end=0.5))
    for junc in net.junctions:
        assert res.junction_arcs[junc.id] == (junc.incoming, junc.outgoing)
        expected = junc.distribution
        if classify(expected) == "merge":
            expected = np.ones_like(expected)
        assert res.coefficients[junc.id][-1].tobytes() == expected.tobytes(), junc.id


def test_zero_inflow_run_detects_immediate_equilibrium():
    net = build_roundabout(0.5, 0.5, 0.0, 0.0, cells_per_arc=10)
    res = Simulator(net).run(SimConfig(t_end=10.0))
    assert res.equilibrium_time == 0.0
    assert np.all(res.arc_fluxes == 0.0)
    assert res.summary["mass_residual"] == 0.0


def test_per_step_conservation_roundabout():
    net = build_roundabout(0.5, 0.5, RHO_BAR_01, RHO_BAR_01, cells_per_arc=30)
    sim = Simulator(net)
    state = sim.init_state()
    dt = sim.stable_dt(0.5)
    for _ in range(300):
        snap = sim.compute_fluxes(state)
        mass_before = sim.total_mass(state)
        state = sim.apply(state, snap, dt)
        residual = abs(
            sim.total_mass(state)
            - mass_before
            - dt * (snap.inflow_total - snap.outflow_total)
        )
        assert residual <= 1e-10
        for value in sim.junction_balance_residuals(snap).values():
            assert value <= 1e-14


def test_per_step_conservation_random_networks():
    rng = np.random.default_rng(2024)
    for _ in range(8):
        net = random_network(rng)
        sim = Simulator(net)
        state = sim.init_state()
        dt = sim.stable_dt(0.5)
        for _ in range(40):
            snap = sim.compute_fluxes(state)
            mass_before = sim.total_mass(state)
            state = sim.apply(state, snap, dt)
            residual = abs(
                sim.total_mass(state)
                - mass_before
                - dt * (snap.inflow_total - snap.outflow_total)
            )
            assert residual <= 1e-10
            for value in sim.junction_balance_residuals(snap).values():
                assert value <= 1e-14


# layouts whose interface numbering is easy to get wrong: random arc
# lengths, a tracer, arcs of one cell, and one cell that is both ends
NUMBERING_NETWORKS = {
    **{f"random-{seed}": lambda seed=seed: random_network(np.random.default_rng(seed)) for seed in range(4)},
    "roundabout": lambda: build_roundabout(0.4, 0.6, 0.1, 0.1, cells_per_arc=10),
    "one-cell-arcs": lambda: build_diamond_chain(40, 1),
    "one-cell": lambda: single_arc_network(UNIT, 1, 0.3),
}


@pytest.mark.parametrize("name", sorted(NUMBERING_NETWORKS))
def test_interface_c_is_the_left_face_of_cell_c(name):
    sim = Simulator(NUMBERING_NETWORKS[name]())
    state = sim.init_state()
    rng = np.random.default_rng(11)
    state.rho[:] = rng.uniform(0.0, UNIT.rho_max, sim.total_cells)
    if state.phi is not None:
        state.phi[:] = rng.uniform(0.0, 1.0, sim.total_cells)
    snap = sim.compute_fluxes(state)
    F = snap.fluxes
    assert F.shape == (sim.total_ifaces,)

    inner = np.ones(sim.total_cells, dtype=bool)
    inner[sim.arc_first_iface] = False
    c = np.flatnonzero(inner)
    assert np.array_equal(F[c], np.minimum(UNIT.demand(state.rho[c - 1]), UNIT.supply(state.rho[c])))

    # an independent update from each arc's faces, left to right
    dt = sim.stable_dt(0.5)
    rho = []
    for k in range(len(sim.arc_ids)):
        lo, hi = sim.cell_offsets[k], sim.cell_offsets[k + 1]
        faces = np.concatenate([[F[sim.arc_first_iface[k]]], F[lo + 1 : hi], [F[sim.arc_last_iface[k]]]])
        rho.append(state.rho[lo:hi] - (dt / sim.dx[k]) * (faces[1:] - faces[:-1]))
    expected = np.minimum(np.maximum(np.concatenate(rho), 0.0), UNIT.rho_max)
    assert np.array_equal(sim.apply(state, snap, dt).rho, expected)


def test_maximum_principle_on_congested_feed():
    # inflow at sigma, mid-arc jam: densities must stay within [0, rho_max]
    net = single_arc_network(UNIT, 60, 0.5)
    sim = Simulator(net)
    state = sim.init_state()
    state.rho[20:40] = 1.0
    dt = sim.stable_dt(1.0)
    for _ in range(200):
        state = sim.step(state, dt)
        assert state.rho.min() >= 0.0
        assert state.rho.max() <= 1.0


def test_a_jammed_cell_admits_no_negative_flux():
    for model in (UNIT, FluxModel(0.7, 0.3), FluxModel(1.3, 2.7), FluxModel(2.0, 3.0), FluxModel(0.9, 0.1)):
        assert model.supply(model.rho_max) == 0.0
        assert model.flux(model.rho_max) == 0.0
        assert model.demand_and_supply(np.array([model.rho_max]))[1][0] == 0.0
        # the last five cells of the arc stand at jam density
        sim = Simulator(single_arc_network(model, 10, 0.4 * model.rho_max))
        state = sim.init_state()
        state.rho[5:] = model.rho_max
        assert sim.compute_fluxes(state).fluxes.min() >= 0.0


def test_tracer_stays_in_bounds_during_transient(roundabout_run):
    tracer = roundabout_run.tracer
    assert tracer is not None
    assert tracer.min() >= 0.0
    assert tracer.max() <= 1.0


def test_detect_equilibrium_constant_series():
    times = np.linspace(0.0, 10.0, 21)
    fluxes = np.full((21, 3), 0.2)
    assert detect_equilibrium(times, fluxes, window=2.0, tol=1e-3) == 0.0


def test_detect_equilibrium_after_ramp():
    times = np.linspace(0.0, 20.0, 81)
    series = np.minimum(times / 5.0, 1.0)  # settles at t = 5
    T = detect_equilibrium(times, series[:, None], window=4.0, tol=1e-3)
    assert T is not None
    assert 4.9 <= T <= 6.0


def test_detect_equilibrium_oscillation_returns_none():
    times = np.linspace(0.0, 20.0, 201)
    series = 1.0 + 0.5 * np.sin(times)
    assert detect_equilibrium(times, series[:, None], window=5.0, tol=1e-3) is None


def test_detect_equilibrium_rejects_empty():
    with pytest.raises(ValueError):
        detect_equilibrium(np.array([]), np.zeros((0, 2)), 1.0, 1e-3)
    with pytest.raises(ValueError):
        detect_equilibrium(np.array([0.0]), np.zeros((1, 2)), 0.0, 1e-3)


def test_run_samples_are_regular_and_complete():
    net = single_arc_network(UNIT, 20, 0.2)
    res = Simulator(net).run(SimConfig(t_end=3.0, sample_interval=1.0))
    np.testing.assert_allclose(res.times, [0.0, 1.0, 2.0, 3.0], atol=1e-6)
    assert res.density is not None
    assert res.density.shape == (4, 20)


def exit_listed_second_roundabout(cells_per_arc):
    """Roundabout whose J2 lists its exit arc second; J4 exits the
    unmarked class (exit_tracer 0) as in every roundabout."""
    net = build_roundabout(0.4, 0.6, 0.1, 0.12, cells_per_arc)
    j2 = net.junction("J2")
    swapped = Junction(
        "J2",
        j2.incoming,
        j2.outgoing[::-1],
        j2.distribution[::-1],
        coefficient_mode="dynamic",
        exit_arc=j2.exit_arc,
        exit_tracer=j2.exit_tracer,
    )
    junctions = [swapped if j.id == "J2" else j for j in net.junctions]
    return Network(net.model, net.arcs, junctions, net.boundary_conditions)


def test_exit_splits_follow_the_scalar_rule_bitwise():
    net = exit_listed_second_roundabout(10)
    assert net.junction("J2").outgoing.index("S3") == 1
    assert net.junction("J4").exit_tracer == 0.0
    # the mixed network's exit shares its group, padded to three outlets,
    # with a 1->3 diverge
    for net, dynamic_ids in ((net, ["J2", "J4"]), (mixed_kind_network(), ["Jexit"])):
        sim = Simulator(net)
        dynamic = [j for j in net.junctions if j.coefficient_mode == "dynamic"]
        assert [j.id for j in dynamic] == dynamic_ids
        state = sim.init_state()
        dt = sim.stable_dt(0.5)
        gated = updated = 0
        for _ in range(300):
            snap = sim.compute_fluxes(state)
            new = sim.step(state, dt)
            for row, junc in enumerate(dynamic):
                arriving = snap.fluxes[sim.arc_last_iface[sim.arc_ids.index(junc.incoming[0])]]
                donor = sim.cells(state.phi, junc.incoming[0])[-1]
                expected = dynamic_exit_coefficients(junc, arriving, donor, state.exit_splits[row])
                assert new.exit_splits[row].tobytes() == expected.tobytes()
                if arriving < EPS_FLUX:
                    gated += 1
                else:
                    updated += 1
            state = new
        assert gated > 0 and updated > 0
        # both classes leave: the splits moved away from their first-arrival value
        assert not np.array_equal(state.exit_splits, sim.init_state().exit_splits)


@pytest.mark.parametrize("inplace", [False, True], ids=["copy", "inplace"])
@pytest.mark.parametrize("name", ["roundabout", "mixed"])
def test_compute_fluxes_then_apply_is_one_step(name, inplace):
    """Phase 1 then phase 2 by hand is step, bit for bit, splits included."""
    roundabout = name == "roundabout"
    if roundabout:
        net = build_roundabout(0.5, 0.5, RHO_BAR_01, RHO_BAR_01, cells_per_arc=10)
    else:
        net = mixed_kind_network()
    sim = Simulator(net)
    stepped = sim.init_state()
    if not roundabout:  # run starts empty, so only the mixed network is seeded
        rng = np.random.default_rng(7)
        stepped.rho[:] = rng.uniform(0.0, 1.0, sim.total_cells)
        stepped.phi[:] = rng.uniform(0.0, 1.0, sim.total_cells)
    hand = stepped.copy()
    dt = sim.stable_dt(0.5)
    steps = 600
    for _ in range(steps):
        stepped = sim.step(stepped, dt)
        snap = sim.compute_fluxes(hand)
        applied = sim.apply(hand, snap, dt, inplace=inplace)
        assert (applied is hand) == inplace
        hand = applied
        for key in ("rho", "phi", "exit_splits"):
            assert getattr(hand, key).tobytes() == getattr(stepped, key).tobytes()
    # the splits moved away from their initial value
    assert not np.array_equal(hand.exit_splits, sim.init_state().exit_splits)
    if roundabout:
        res = sim.run(SimConfig(t_end=steps * dt))
        assert res.summary["steps"] == steps
        dynamic = [j.id for j in net.junctions if j.coefficient_mode == "dynamic"]
        assert dynamic == ["J2", "J4"]
        for row, jid in enumerate(dynamic):
            assert res.coefficients[jid][-1, :, 0].tobytes() == hand.exit_splits[row].tobytes()


def test_exit_listed_second_reaches_the_closed_form():
    alpha, beta, rho1, rho2 = 0.4, 0.6, 0.1, 0.12
    res = Simulator(exit_listed_second_roundabout(20)).run(SimConfig(t_end=80.0))
    f1, f2 = UNIT.flux(rho1), UNIT.flux(rho2)
    expected = equilibrium_coefficients(alpha, beta, f1, f2)
    # J2's column is in outgoing order (S2C, S3): the closed form reversed
    np.testing.assert_allclose(res.coefficients["J2"][-1][:, 0], expected["J2"][::-1], atol=1e-6)
    np.testing.assert_allclose(res.coefficients["J4"][-1][:, 0], expected["J4"], atol=1e-6)
    for arc, value in equilibrium_fluxes(alpha, beta, f1, f2).items():
        assert res.summary["final_fluxes"][arc] == pytest.approx(value, abs=1e-8)


@pytest.mark.parametrize("t_end, interval", [(100.0, 0.25), (5.1, 0.25), (3.0, 0.1), (2.0, 0.3)])
def test_sample_times_lie_exactly_on_the_grid(t_end, interval, request):
    # dt = 0.01 divides every interval, so each sample falls on a step end
    if (t_end, interval) == (100.0, 0.25):
        # exactly the run of the roundabout_run fixture
        assert SimConfig().sample_interval == interval
        res = request.getfixturevalue("roundabout_run")
    else:
        net = build_roundabout(0.5, 0.5, RHO_BAR_01, RHO_BAR_01, cells_per_arc=50)
        res = Simulator(net).run(SimConfig(t_end=t_end, sample_interval=interval))
    n = math.floor(t_end / interval + 1e-9) + 1
    grid = [j * interval for j in range(n)]
    if abs(grid[-1] - t_end) <= 1e-9:
        grid[-1] = t_end
    else:
        grid.append(t_end)
    assert res.times.tolist() == grid
    assert res.summary["t_end"] == t_end
    for t_first, _ in res.first_arrival_coefficients.values():
        assert t_first == round(t_first / 0.01) * 0.01


def test_off_grid_samples_carry_their_own_time():
    # dt = 0.01 does not divide 0.015: each sample is the first step end
    # at or after j * 0.015, and says so
    net = build_roundabout(0.5, 0.5, RHO_BAR_01, RHO_BAR_01, cells_per_arc=50)
    res = Simulator(net).run(SimConfig(t_end=0.1, sample_interval=0.015))
    np.testing.assert_allclose(res.times, [0.0, 0.02, 0.03, 0.05, 0.06, 0.08, 0.09, 0.1], atol=1e-15)


@pytest.mark.parametrize("steps", [1, 7, 1000, 5000])
def test_run_takes_exactly_the_steps_that_fit(steps):
    sim = Simulator(build_diamond_chain(4, 3))
    dt = sim.stable_dt(0.5)
    res = sim.run(SimConfig(t_end=steps * dt, record_profiles=False))
    assert res.summary["steps"] == steps
    assert res.summary["t_end"] == steps * dt
    assert res.times[-1] == steps * dt


def test_off_grid_t_end_takes_one_short_last_step():
    sim = Simulator(build_diamond_chain(4, 3))
    dt = sim.stable_dt(0.5)
    res = sim.run(SimConfig(t_end=10.5 * dt, record_profiles=False))
    assert res.summary["steps"] == 11
    assert res.summary["t_end"] == 10.5 * dt
    assert res.summary["mass_residual"] <= 1e-12


def _small_roundabout():
    # 3 cells per arc, dt = 1/6: the dynamic run stands still from
    # t = 205 and the static one from t = 194.5
    return build_roundabout(0.5, 0.5, RHO_BAR_01, RHO_BAR_01, cells_per_arc=3)


# name -> (network, config, whether the run reaches a still state)
REPLAY_CASES = {
    "still": (_small_roundabout, SimConfig(t_end=300.0), True),
    "off-grid": (_small_roundabout, SimConfig(t_end=299.9), True),
    "static": (_small_roundabout, SimConfig(t_end=300.0, coefficient_mode="static"), True),
    "no-profiles": (_small_roundabout, SimConfig(t_end=300.0, record_profiles=False), True),
    "every-step-sampled": (_small_roundabout, SimConfig(t_end=300.0, sample_interval=0.1), True),
    "no-tracer": (lambda: single_arc_network(UNIT, 10, 0.3), SimConfig(t_end=20.0), True),
    "still-from-the-start": (ring_network, SimConfig(t_end=20.0), True),
    "moving": (_small_roundabout, SimConfig(t_end=30.0), False),
    # the history's row bound: an interval longer than the run (2 samples),
    # one short step (dt is 1/6), an interval on neither grid (430 samples)
    "interval-past-the-end": (_small_roundabout, SimConfig(t_end=30.0, sample_interval=50.0), False),
    "one-short-step": (_small_roundabout, SimConfig(t_end=0.1), False),
    "off-both-grids": (_small_roundabout, SimConfig(t_end=299.9, sample_interval=0.7), True),
}


def _run_bits(res):
    """Everything a run reports but its clock readings, arrays as bytes."""
    arrays = {"times": res.times, "arc_fluxes": res.arc_fluxes, "density": res.density, "tracer": res.tracer}
    arrays.update({f"coefficients {j}": m for j, m in res.coefficients.items()})
    arrays.update({f"first arrival {j}": c for j, (_, c) in res.first_arrival_coefficients.items()})
    bits = {k: None if a is None else (a.shape, a.tobytes()) for k, a in arrays.items()}
    bits["first arrival times"] = {j: t for j, (t, _) in res.first_arrival_coefficients.items()}
    bits["layout"] = (res.arc_ids, res.cells_per_arc, res.junction_arcs, res.equilibrium_time)
    clock = ("wall_time_s", "cell_updates_per_s", "fixed_point_time")
    bits["summary"] = {k: v for k, v in res.summary.items() if k not in clock}
    return bits


@pytest.mark.parametrize("name", list(REPLAY_CASES))
def test_run_replays_a_still_state_bit_for_bit(name, monkeypatch):
    make, config, settles = REPLAY_CASES[name]
    want = reference_run(Simulator(make()), config)

    calls = []
    compute = Simulator.compute_fluxes
    monkeypatch.setattr(Simulator, "compute_fluxes", lambda self, state: calls.append(1) or compute(self, state))
    sim = Simulator(make())
    got = sim.run(config)
    assert _run_bits(got) == _run_bits(want)

    fixed = got.summary["fixed_point_time"]
    steps = got.summary["steps"]
    assert (fixed is not None) == settles
    if fixed is None:
        computed = steps
    else:
        # the state at that sample and every later one is the same
        j = got.times.tolist().index(fixed)
        assert np.all(want.arc_fluxes[j:] == want.arc_fluxes[j])
        if want.density is not None:
            assert np.all(want.density[j:] == want.density[j])
        # only the steps up to the one that proved it and a short last
        # step are computed
        dt = sim.stable_dt(config.cfl_number)
        short = config.t_end != steps * dt
        computed = round(fixed / dt) + 1 + short
    # and once more for the closing sample
    assert len(calls) == computed + 1


def test_run_holds_its_history_once():
    # the profiles are most of a recorded run's memory: a run that held a
    # second copy of them at any moment would peak near twice their size
    sim = Simulator(build_roundabout(0.5, 0.5, 0.05, 0.05))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        res = sim.run(SimConfig(t_end=100.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (res.density.nbytes + res.tracer.nbytes)


def test_merge_within_column_tolerance_skips_the_lp(monkeypatch):
    def no_general(*args):
        raise AssertionError("a merge within the column tolerance reached the general kernel")

    # the Simulator looks its kernels up once, so patch before building it
    monkeypatch.setitem(KERNELS, "general", no_general)
    net = Network(
        model=UNIT,
        arcs=[
            Arc("A", 0.0, 1.0, 5, "external_in"),
            Arc("B", 0.0, 1.0, 5, "external_in"),
            Arc("C", 0.0, 1.0, 5, "external_out"),
        ],
        junctions=[Junction("J", ["A", "B"], ["C"], [[1.0 - 5e-10, 1.0 - 5e-10]])],
        boundary_conditions=[BoundaryCondition("A", 0.3), BoundaryCondition("B", 0.3)],
    )
    assert net.validate() == []
    sim = Simulator(net)
    state = sim.init_state()
    for _ in range(10):
        state = sim.step(state, sim.stable_dt(0.5))
    assert sim.total_mass(state) > 0.0


def test_general_junctions_skip_the_lp():
    # seven general junctions of every shape from 2x2 to 3x3, so that
    # most shapes occur more than once in the general rows
    net = ladder_network((2, 2, 3, 2, 3, 3, 2, 2))
    sim = Simulator(net)
    state = sim.init_state()
    for _ in range(80):
        snap = sim.compute_fluxes(state)
        state = sim.apply(state, snap, sim.stable_dt(0.5))
        assert max(sim.junction_balance_residuals(snap).values()) <= 1e-14
    assert np.all(sim.arc_boundary_fluxes(snap) > 0.0)


def test_every_in_degree_steps_without_the_lp():
    networks = (
        # a 2x4 and a 4x2 general junction, padded to one 4x4 group, and
        # a 16x4 one in a group of its own
        hub_network(16, 4, seed=5, upstream=ladder_network((2, 4, 2))),
        # every kind, each group padded to its widest junction
        mixed_kind_network(),
    )
    for net in networks:
        sim = Simulator(net)
        column = {arc_id: k for k, arc_id in enumerate(sim.arc_ids)}
        dynamic = [j.id for j in net.junctions if j.coefficient_mode == "dynamic"]
        state = sim.init_state()
        for _ in range(40):
            snap = sim.compute_fluxes(state)
            assert max(sim.junction_balance_residuals(snap).values()) <= 1e-14
            # the padding changes no junction's answer, not even in the last bit
            demand, supply = sim.model.demand_and_supply(state.rho)
            for junc in net.junctions:
                order = priority_order(junc.priority)
                ranked = [junc.incoming[i] for i in order]
                routing = junc.distribution
                if junc.id in dynamic:
                    routing = state.exit_splits[dynamic.index(junc.id)][:, None]
                alone = KERNELS[classify(junc.distribution)](
                    np.array([[sim.cells(demand, a)[-1] for a in ranked]]),
                    np.array([[sim.cells(supply, a)[0] for a in junc.outgoing]]),
                    routing[None][:, :, order],
                )
                admitted = sim.arc_boundary_fluxes(snap)[[column[a] for a in ranked]]
                assert np.array_equal(admitted, alone[0]), junc.id
                # and each outlet receives its routed share
                received = snap.fluxes[[sim.arc_first_iface[column[a]] for a in junc.outgoing]]
                np.testing.assert_allclose(received, routing[:, order] @ alone[0], rtol=0.0, atol=1e-15)
            state = sim.step(state, sim.stable_dt(0.5))


@pytest.mark.parametrize(
    "network",
    [mixed_kind_network, lambda: build_diamond_chain(40, 3), lambda: hub_network(3, 2)],
    ids=["mixed", "diamond-chain", "hub"],
)
def test_each_kind_is_solved_in_one_call_per_step(monkeypatch, network):
    calls = dict.fromkeys(KERNELS, 0)

    def counted(kind, kernel):
        def wrapper(*args):
            calls[kind] += 1
            return kernel(*args)

        return wrapper

    for kind, kernel in list(KERNELS.items()):
        monkeypatch.setitem(KERNELS, kind, counted(kind, kernel))
    net = network()
    present = {classify(j.distribution) for j in net.junctions}
    # a reservoir or a sink arc is a one-in/one-out row, solved with the diverges
    if net.source_arc_ids or net.sink_arc_ids:
        present.add("diverge")
    sim = Simulator(net)
    state = sim.init_state()
    for _ in range(25):
        state = sim.step(state, sim.stable_dt(0.5))
    assert calls == {kind: 25 if kind in present else 0 for kind in KERNELS}


def _tracer_mass_residuals(sim, net, steps):
    """|change of sum(rho * phi * dx) - dt * (tracer in - tracer out)| per step."""
    sources = [
        sim.arc_first_iface[k] for k, a in enumerate(net.arcs) if net.upstream_junction(a.id) is None
    ]
    sinks = [
        sim.arc_last_iface[k] for k, a in enumerate(net.arcs) if net.downstream_junction(a.id) is None
    ]
    state = sim.init_state()
    dt = sim.stable_dt(0.5)
    residuals = []
    for _ in range(steps):
        snap = sim.compute_fluxes(state)  # step recomputes the same, read-only
        before = np.sum(state.rho * state.phi * sim.dx_cell)
        state = sim.step(state, dt)
        after = np.sum(state.rho * state.phi * sim.dx_cell)
        boundary = dt * (snap.tracer_fluxes[sources].sum() - snap.tracer_fluxes[sinks].sum())
        residuals.append(abs(after - before - boundary))
    return np.array(residuals)


def test_run_reports_the_network_it_stepped():
    config = SimConfig(t_end=2.0)
    net = build_diamond_chain(4, 5)
    sim = Simulator(net)
    # the engine copied its routing when it was built, so this edit
    # changes neither the run nor its report
    net.junction("split0").distribution = np.array([[0.9], [0.1]])
    result = sim.run(config)
    np.testing.assert_array_equal(result.coefficients["split0"][-1], [[0.6], [0.4]])
    fresh = Simulator(build_diamond_chain(4, 5)).run(config)
    np.testing.assert_array_equal(result.arc_fluxes, fresh.arc_fluxes)
    assert result.junction_arcs == fresh.junction_arcs
    assert result.cells_per_arc == fresh.cells_per_arc


def test_initial_splits_are_copied_when_built():
    net = build_roundabout(0.5, 0.5, 0.1, 0.1, cells_per_arc=5)
    sim = Simulator(net)
    net.junction("J2").distribution = np.array([[0.9], [0.1]])
    np.testing.assert_array_equal(sim.init_state().exit_splits, [[0.5, 0.5], [0.5, 0.5]])
    result = sim.run(SimConfig(t_end=1.0, coefficient_mode="static"))
    np.testing.assert_array_equal(result.coefficients["J2"][:, :, 0], np.full((result.times.size, 2), 0.5))


def test_cell_centers_are_copied_when_built():
    net = build_diamond_chain(4, 5)
    sim = Simulator(net)
    net.arc("T0").b = 2.0
    np.testing.assert_allclose(sim.cell_centers("T0"), [0.1, 0.3, 0.5, 0.7, 0.9], rtol=0, atol=1e-15)


@pytest.mark.parametrize(
    "network",
    [mixed_kind_network, lambda: hub_network(16, 4, seed=5, upstream=ladder_network((2, 4, 2)))],
    ids=["mixed", "hub"],
)
def test_run_reports_each_junction_in_network_order(network):
    # priorities reorder the table's columns; the report puts them back
    net = network()
    result = Simulator(net).run(SimConfig(t_end=0.5))
    assert result.cells_per_arc == {a.id: a.n_cells for a in net.arcs}
    for junc in net.junctions:
        assert result.junction_arcs[junc.id] == (junc.incoming, junc.outgoing)
        if junc.coefficient_mode != "dynamic":
            matrices = result.coefficients[junc.id]
            assert matrices.shape == (result.times.size, *junc.distribution.shape)
            assert np.array_equal(matrices, np.broadcast_to(junc.distribution, matrices.shape)), junc.id


def test_tracer_mass_conserved_per_step_on_the_roundabout():
    net = build_roundabout(0.5, 0.5, RHO_BAR_01, RHO_BAR_01, cells_per_arc=30)
    assert _tracer_mass_residuals(Simulator(net), net, 600).max() <= 1e-12


def _exit_into_general():
    """A dynamic exit feeds a 2x2 general junction whose outlets merge
    into one arc of lower capacity, so the general junction runs both
    free and supply-bound."""
    arcs = [
        Arc("A", 0.0, 1.0, 8, "external_in"),
        Arc("B", 0.0, 1.0, 8, "external_in"),
        Arc("E", 0.0, 1.0, 8, "external_out"),
        Arc("M", 0.0, 1.0, 8, "generic"),
        Arc("O1", 0.0, 1.0, 8, "generic"),
        Arc("O2", 0.0, 1.0, 8, "generic"),
        Arc("Z", 0.0, 1.0, 8, "external_out"),
    ]
    junctions = [
        Junction(
            "Jexit",
            ["A"],
            ["E", "M"],
            [[0.5], [0.5]],
            coefficient_mode="dynamic",
            exit_arc="E",
            exit_tracer=1.0,
        ),
        Junction("Jgen", ["M", "B"], ["O1", "O2"], [[0.7, 0.4], [0.3, 0.6]], priority=[0.3, 0.7]),
        Junction("Jmerge", ["O1", "O2"], ["Z"], [[1.0, 1.0]]),
    ]
    bcs = [
        BoundaryCondition("A", 0.4, tracer_in=0.6),
        BoundaryCondition("B", 0.45, tracer_in=0.3),
    ]
    return Network(UNIT, arcs, junctions, bcs)


def test_tracer_mass_conserved_per_step_through_a_general_junction():
    # and through every kind at once, the exit's row padded to three outlets
    for net in (_exit_into_general(), mixed_kind_network()):
        assert net.validate() == []
        assert _tracer_mass_residuals(Simulator(net), net, 600).max() <= 1e-12


def test_tracer_mass_conserved_per_step_through_a_padded_general_group():
    # the exit's and the merge's outlets feed a 4x3 hub, whose width class
    # the 2x2 junction shares, so tracer crosses that group's padding
    net = hub_network(4, 3, seed=2, upstream=_exit_into_general())
    sim = Simulator(net)
    assert _tracer_mass_residuals(sim, net, 300).max() <= 1e-12
    # no padded write lands on a real interface: the entry of arc A, the
    # first arc, keeps its reservoir's tracer flux
    state = sim.init_state()
    for _ in range(100):
        state = sim.step(state, sim.stable_dt(0.5))
    snap = sim.compute_fluxes(state)
    entry = sim.arc_first_iface[sim.arc_ids.index("A")]
    assert snap.tracer_fluxes[entry] == snap.fluxes[entry] * 0.6 > 0.0


def _snapshot(fluxes, tracer_fluxes=None, exit_splits=None):
    return FluxSnapshot(fluxes, tracer_fluxes, exit_splits, inflow_total=0.0, outflow_total=0.0)


@pytest.mark.parametrize("model", [UNIT, FluxModel(0.7, 0.3)], ids=["unit", "sloped"])
def test_one_sided_density_clip_equals_the_two_sided_clip(model):
    # one arc of four cells and dt / dx = 0.5 exactly: cell 0 lands on
    # rho_max, cell 1 is -0.0 with no divergence, and, the second time,
    # cell 2 lands just above rho_max within DENSITY_TOL; the first time
    # the upper clip is skipped
    top = model.rho_max
    sim = Simulator(single_arc_network(model, 4, 0.0))
    dt = sim.dx[0] / 2.0  # apply leaves the CFL bound to step
    fluxes = np.array([0.25, 0.0, 0.0, 0.0, 0.25])
    for above in (False, True):
        state = sim.init_state()
        state.rho[:] = [top - 0.125, -0.0, top + 2e-13 if above else top / 2, 0.25]
        unclipped = state.rho - np.diff(fluxes) * 0.5
        assert unclipped[0] == top and np.signbit(unclipped[1])
        assert (top < unclipped[2] <= top + DENSITY_TOL) == above
        new = sim.apply(state, _snapshot(fluxes), dt)
        assert new.rho.tobytes() == np.minimum(np.maximum(unclipped, 0.0), top).tobytes()
        assert new.rho[0] == top and not np.signbit(new.rho[1])


def test_one_sided_tracer_clip_equals_the_two_sided_clip():
    # no flux anywhere and every cell at density 0.5, so each cell's
    # unclipped tracer is its own: exactly 1, -0.0, and, the second
    # time, just above 1 within the tracer slack
    sim = Simulator(mixed_kind_network())
    zeros = np.zeros(sim.total_ifaces)
    for above in (False, True):
        state = sim.init_state()
        state.rho[:] = 0.5
        state.phi[:3] = [1.0, -0.0, 1.0 + 1e-10 if above else 0.25]
        snap = _snapshot(zeros, zeros, state.exit_splits.copy())
        new = sim.apply(state, snap, sim.stable_dt(0.5))
        assert new.rho.tobytes() == state.rho.tobytes()
        assert new.phi.tobytes() == np.minimum(np.maximum(state.phi, 0.0), 1.0).tobytes()
        assert new.phi[0] == 1.0 and not np.signbit(new.phi[1])


def _count_kernel_rows(monkeypatch):
    calls = []
    for name, kernel in junctions.KERNELS.items():

        def counted(demands, supplies, routing, name=name, kernel=kernel):
            calls.append((name, demands.shape, supplies.shape, routing.shape))
            return kernel(demands, supplies, routing)

        monkeypatch.setitem(junctions.KERNELS, name, counted)
    return calls


def test_diamond_chain_table_is_two_groups_without_padded_in_slots(monkeypatch):
    calls = _count_kernel_rows(monkeypatch)
    sim = Simulator(build_diamond_chain(2000, 25))
    # 667 1->2 splits, the reservoir's and the sink's 1->1 rows, 667
    # 2->1 merges: 2003 in-slots, none of them padding, where one table
    # of 1336 rows padded to two incoming arcs would hold 2672
    assert sim._in_cell.size == 669 + 2 * 667 == 2003
    assert not np.any(sim._in_cell == sim.total_cells)
    assert sim._out_cell.size == 2 * 669 + 667
    state = sim.init_state()
    for step in range(1, 4):
        state = sim.step(state, sim.stable_dt(0.5))
        assert calls == [
            ("diverge", (669, 1), (669, 2), (669, 2, 1)),
            ("merge", (667, 2), (667, 1), (667, 1, 2)),
        ] * step


@pytest.mark.parametrize(
    "network, per_step",
    [
        ("diamond-chain", 1),
        ("topics", 1),
        ("roundabout", 2),
        ("mixed", 2),
    ],
)
def test_each_step_routes_in_one_call_per_flux(monkeypatch, network, per_step):
    # bulk, then tracer where there is one, whatever the number of groups
    net = {
        "diamond-chain": lambda: build_diamond_chain(40, 5),
        "topics": lambda: topic_network(60, 3),
        "roundabout": lambda: build_roundabout(0.5, 0.5, RHO_BAR_01, RHO_BAR_01),
        "mixed": mixed_kind_network,
    }[network]()
    calls = []
    route = Simulator._route

    def counted(self, per_in):
        calls.append(per_in is self._gamma)
        return route(self, per_in)

    monkeypatch.setattr(Simulator, "_route", counted)
    sim = Simulator(net)
    assert len(sim._groups) >= 2
    state = sim.init_state()
    for _ in range(3):
        state = sim.step(state, sim.stable_dt(0.5))
    assert calls == [True, False][:per_step] * 3


@pytest.mark.parametrize("network", ["roundabout", "hub"])
def test_general_solves_only_where_a_junction_is_general(monkeypatch, network):
    # the roundabout's entries are merges and its exits diverges, so a
    # run never calls general, nor the simplex behind it; a loaded hub
    # calls both
    net = {
        "roundabout": lambda: build_roundabout(0.5, 0.5, RHO_BAR_01, RHO_BAR_01, cells_per_arc=5),
        "hub": lambda: hub_network(16, 4),
    }[network]()
    calls = {"general": 0, "_simplex": 0}

    def counted(name, kernel):
        def wrapper(*args):
            calls[name] += 1
            return kernel(*args)

        return wrapper

    monkeypatch.setitem(KERNELS, "general", counted("general", KERNELS["general"]))
    monkeypatch.setattr(junctions, "_simplex", counted("_simplex", junctions._simplex))
    Simulator(net).run(SimConfig(t_end=20.0))
    if network == "roundabout":
        assert calls == {"general": 0, "_simplex": 0}
    else:
        assert min(calls.values()) > 0


def _table_bytes(sim):
    in_slots = (sim._in_cell, sim._in_iface, sim._d, sim._gamma)
    out_slots = (sim._out_cell, sim._out_iface, sim._s)
    entries = (sim._routing, sim._e_r, sim._e_in, sim._e_out)
    return sum(a.nbytes for a in in_slots + out_slots + entries)


@pytest.mark.parametrize("n_topics", [60, 240])
def test_topic_table_grows_with_its_real_slots(n_topics):
    net = topic_network(n_topics, 3)
    sim = Simulator(net)
    # reservoir and sink rows are one-in, one-out
    ends = len(net.source_arc_ids) + len(net.sink_arc_ids)
    rows = len(net.junctions) + ends
    real_in = sum(len(j.incoming) for j in net.junctions) + ends
    real_out = sum(len(j.outgoing) for j in net.junctions) + ends
    real_routing = sum(j.distribution.size for j in net.junctions) + ends
    widest_in = max(len(j.incoming) for j in net.junctions)
    widest_out = max(len(j.outgoing) for j in net.junctions)
    assert widest_in > 20
    # 8-byte entries: four arrays per in-slot, three per out-slot, and per
    # routing entry its coefficient and its three indices; padding at most
    # doubles that
    real_bytes = 8 * (4 * real_in + 3 * real_out + 4 * real_routing)
    assert _table_bytes(sim) <= 2 * real_bytes
    assert sim._in_cell.size <= 2 * real_in
    # one table padded to its widest row would hold this many
    assert 10 * sim._routing.size < rows * widest_out * widest_in


ROUTED_NETWORKS = {
    "topics": lambda: topic_network(60, 3, seed=7),
    # a 20-in hub alone, then the same hub beside a 30-in hub in the
    # same width class, where its row is padded to 30
    "hub-alone": lambda: hub_network(20, 3, seed=1),
    "hub-beside": lambda: hub_network(30, 3, seed=2, upstream=hub_network(20, 3, seed=1, prefix="A")),
}


@pytest.mark.parametrize("name", sorted(ROUTED_NETWORKS))
def test_routed_flux_is_the_sequential_sum_in_priority_order(name):
    # every outgoing first-face flux is acc = 0.0; acc += r * g over the
    # junction's incoming arcs in priority order, read off the snapshot's
    # admitted fluxes, whatever the row's group or padding
    net = ROUTED_NETWORKS[name]()
    sim = Simulator(net)
    state = sim.init_state()
    state.rho[:] = np.random.default_rng(7).uniform(0.0, 1.0, sim.total_cells)
    # a few steps into the transient, where every kind of row is busy
    for _ in range(5):
        state = sim.step(state, sim.stable_dt(0.5))
    fluxes = sim.compute_fluxes(state).fluxes.tolist()
    arc = {arc_id: k for k, arc_id in enumerate(sim.arc_ids)}
    widest = 0
    for j in net.junctions:
        order = priority_order(j.priority)
        merge = classify(j.distribution) == "merge"
        admitted = [fluxes[sim.total_cells + arc[a]] for a in j.incoming]
        for o, out_arc in enumerate(j.outgoing):
            acc = 0.0
            for i in order:
                acc += (1.0 if merge else float(j.distribution[o, i])) * admitted[i]
            assert fluxes[sim.arc_first_iface[arc[out_arc]]] == acc, (j.id, out_arc)
        widest = max(widest, len(j.incoming))
    assert widest >= 20


def _tied_network():
    """Junctions with tied, partly tied and zero priority weights, joined
    in a chain: each junction's outgoing arcs are the next one's first
    incoming arcs, reservoirs feed the rest, and the last drains.  Merges
    and hubs span several width classes of n_in and of n_out, and some
    distribution entries are zero."""
    rng = np.random.default_rng(5)
    tiers = rng.integers(1, 4, 20)  # weights from {1, 2, 3}: many ties
    specs = [
        (3, 2, None),  # the uniform default: every weight tied
        (4, 1, None),  # a merge, every weight tied
        (4, 3, [0.25, 0.25, 0.5, 0.0]),
        (6, 6, [0.0, 0.0, 0.5, 0.0, 0.5, 0.0]),  # tied zero weights
        (12, 2, tiers[:12] / tiers[:12].sum()),
        (20, 1, tiers / tiers.sum()),  # a merge of width class 17-32
        (1, 6, None),  # a diverge of width class 5-8
        (24, 9, None),
    ]
    arcs, junctions, bcs, feed = [], [], [], []
    for n, (n_in, n_out, priority) in enumerate(specs):
        fresh = [f"R{n}_{k}" for k in range(n_in - len(feed))]
        arcs += [Arc(a, 0.0, 1.0, 2, "external_in") for a in fresh]
        bcs += [BoundaryCondition(a, 0.1) for a in fresh]
        outs = [f"A{n}_{k}" for k in range(n_out)]
        arcs += [Arc(a, 0.0, 1.0, 2, "generic") for a in outs]
        columns = rng.uniform(0.1, 1.0, (n_out, n_in)) * (rng.random((n_out, n_in)) < 0.7)
        columns[0] += columns.sum(axis=0) == 0.0  # no column of zeros
        # a merge's entries lie within the column tolerance of 1, not at it
        merge = 1.0 + 5e-10 * np.resize([-1.0, 1.0, 0.0], (1, n_in))
        distribution = merge if n_out == 1 else columns / columns.sum(axis=0)
        junctions.append(Junction(f"J{n}", feed + fresh, outs, distribution, priority=priority))
        feed = outs
    for arc in arcs[-len(feed) :]:
        arc.kind = "external_out"
    return Network(UNIT, arcs, junctions, bcs)


def test_each_row_holds_its_arcs_in_priority_order_and_its_routing_block():
    # every row as the network alone says it should be: its in-slots hold
    # its incoming arcs in priority_order, its group's kernel is the one
    # classify names, and its routing block holds the distribution's
    # columns in that order, exactly 1 on a merge
    net = _tied_network()
    assert net.validate() == []
    sim = Simulator(net)
    arc = {arc_id: k for k, arc_id in enumerate(sim.arc_ids)}
    widths = set()
    for j in net.junctions:
        order = priority_order(j.priority)
        kind = classify(j.distribution)
        n_in, n_out = len(j.incoming), len(j.outgoing)
        # the row starts at the one in-slot of its first arc in priority
        # order; its first routing entry is that in-slot's first, and its
        # stride is its group's width
        (in_at,) = np.flatnonzero(sim._in_cell == sim._arc_last_cell[arc[j.incoming[order[0]]]]).tolist()
        routing_at = int(sim._e_r[np.flatnonzero(sim._e_in == in_at)[0]])
        assert sim._in_cell[in_at : in_at + n_in].tolist() == [
            sim._arc_last_cell[arc[j.incoming[i]]] for i in order
        ], j.id
        (kernel, d, _, routing, _), = [g for g in sim._groups if np.shares_memory(g[1], sim._d[in_at : in_at + 1])]
        assert kernel is KERNELS[kind], j.id
        stride = d.shape[1]
        assert routing.shape[2] == stride
        assert (in_at - (d.ctypes.data - sim._d.ctypes.data) // d.itemsize) % stride == 0, j.id
        widths.add(routing.shape[1:])
        # past its own arcs, its in-slots are padding: the dead cell
        assert np.all(sim._in_cell[in_at + n_in : in_at + stride] == sim.total_cells)
        block = [[sim._routing[routing_at + o * stride + k] for k in range(n_in)] for o in range(n_out)]
        assert block == [[1.0 if kind == "merge" else j.distribution[o, i] for i in order] for o in range(n_out)], j.id
        # its real routing entries, by out-slot, then priority column
        mine = np.flatnonzero((sim._e_in >= in_at) & (sim._e_in < in_at + n_in))
        out_at = sim._e_out[mine[0]]
        cells = [(o, k) for o in range(n_out) for k in range(n_in)]
        assert sim._e_r[mine].tolist() == [routing_at + o * stride + k for o, k in cells]
        assert sim._e_in[mine].tolist() == [in_at + k for _, k in cells]
        assert sim._e_out[mine].tolist() == [out_at + o for o, _ in cells]
        assert sim._out_cell[out_at : out_at + n_out].tolist() == [sim.arc_first_iface[arc[a]] for a in j.outgoing]
    # groups of width classes past 1-4, 5-8 and 9-16, in and out
    assert max(w_out for w_out, _ in widths) > 8 and max(w_in for _, w_in in widths) > 16


def test_run_reports_a_near_1_merge_as_exactly_1():
    # the merges' entries lie at 1 +- 5e-10; the report routes them
    # exactly 1, as the table does, and every other junction by its own
    # distribution, bit for bit
    net = _tied_network()
    result = Simulator(net).run(SimConfig(t_end=0.5))
    merges = 0
    for j in net.junctions:
        assert j.coefficient_mode == "static"
        entry = result.coefficients[j.id]
        if classify(j.distribution) == "merge":
            merges += 1
            assert np.any(j.distribution != 1.0), j.id
            assert np.all(entry == 1.0), j.id
        else:
            assert entry[-1].tobytes() == j.distribution.tobytes(), j.id
    assert merges == 2


def test_the_table_is_built_without_priority_order_or_classify(monkeypatch):
    # the build reads kinds and priority orders off concatenated arrays;
    # solve still names the one junction's kind and order it solves
    calls = {"priority_order": 0, "classify": 0}
    for name in calls:

        def counted(arg, name=name, helper=getattr(junctions, name)):
            calls[name] += 1
            return helper(arg)

        monkeypatch.setattr(junctions, name, counted)
    Simulator(build_diamond_chain(2000, 25))
    Simulator(topic_network(60, 3))
    assert calls == {"priority_order": 0, "classify": 0}
    junctions.solve(junctions.JunctionProblem([0.2, 0.3], [0.25], [[1.0, 1.0]], priority=[0.4, 0.6]))
    assert calls == {"priority_order": 1, "classify": 1}


@pytest.mark.parametrize("network", ["roundabout", "mixed", "topics"])
def test_layout_check_refuses_an_interface_written_twice_or_never(network):
    net = {
        "roundabout": lambda: build_roundabout(0.5, 0.5, RHO_BAR_01, RHO_BAR_01),
        "mixed": mixed_kind_network,
        "topics": lambda: topic_network(60, 3),
    }[network]()
    sim = Simulator(net)
    real = np.flatnonzero(sim._out_iface < sim.total_ifaces)
    for field, slot in (("_out_iface", real[0]), ("_out_iface", real[-1]), ("_in_iface", 0)):
        kept = getattr(sim, field).copy()
        # an arc's first face or end written by a second row, and its own
        # left untouched
        getattr(sim, field)[slot] = getattr(sim, field)[slot - 1] if slot else kept[1]
        with pytest.raises(AssertionError, match="interface not covered exactly once"):
            sim._check_interface_cover()
        setattr(sim, field, kept)
        sim._check_interface_cover()


def test_invariant_breach_fails_loudly():
    net = single_arc_network(UNIT, 20, 0.2)
    sim = Simulator(net)
    state = sim.init_state()
    state.rho[:] = np.linspace(0.0, 0.5, 20)
    snap = sim.compute_fluxes(state)
    with pytest.raises(SimulationError):
        sim.apply(state, snap, 10.0)  # wildly unstable dt


@pytest.mark.parametrize(
    "network, field",
    [("roundabout", "rho"), ("roundabout", "phi"), ("diamond-chain", "rho")],
)
def test_nan_fails_the_step_invariant_checks(network, field):
    # NaN compares false both ways, so a check written as "lo < min or
    # hi > max" lets it through and it spreads a few cells per step
    if network == "roundabout":
        net = build_roundabout(0.5, 0.5, RHO_BAR_01, RHO_BAR_01, cells_per_arc=10)
    else:
        net = build_diamond_chain(4, 3)
    sim = Simulator(net)
    state = sim.init_state()
    dt = sim.stable_dt(0.5)
    for _ in range(200):
        state = sim.step(state, dt)
    cell = int(np.argmax(state.rho))
    assert state.rho[cell] > 0.01
    getattr(state, field)[cell] = np.nan
    snap = sim.compute_fluxes(state)
    with pytest.raises(SimulationError):
        sim.apply(state, snap, dt)


def test_simulator_rejects_invalid_network():
    net = Network(
        model=UNIT,
        arcs=[Arc("A", 0.0, 1.0, 5, "generic")],
        junctions=[Junction("J", ["A"], ["MISSING"], [[1.0]])],
        boundary_conditions=[BoundaryCondition("A", 0.1)],
    )
    with pytest.raises(ValueError):
        Simulator(net)


def test_simulator_reports_an_invalid_network_as_parse_scenario_does():
    net = Network(
        model=UNIT,
        arcs=[Arc("A", 0.0, 1.0, 5, "generic"), Arc("B", 0.0, -1.0, 0, "circle")],
        junctions=[Junction("J", ["A"], ["MISSING"], [[0.5]])],
        boundary_conditions=[BoundaryCondition("A", 0.1)],
    )
    with pytest.raises(NetworkValidationError) as info:
        Simulator(net)
    assert len(info.value.errors) > 1
    assert info.value.errors == net.validate()
    # a Simulator judges its own read of the network, not through
    # validate, and must give every report as validate words it
    for name, (build, expected) in _VALIDATE_CASES.items():
        if expected:
            with pytest.raises(NetworkValidationError) as info:
                Simulator(build())
            assert info.value.errors == expected, name


@pytest.mark.parametrize(
    "field", ["t_end", "cfl_number", "sample_interval", "equilibrium_window", "equilibrium_tol"]
)
def test_simconfig_rejects_nan(field):
    with pytest.raises(ValueError):
        SimConfig(**{field: float("nan")})


def test_simconfig_rejects_infinite_t_end():
    with pytest.raises(ValueError, match="t_end"):
        SimConfig(t_end=float("inf"))
