"""Seeded inputs and timed bodies of the three benchmark workloads.

Each workload has two halves:

* ``make_inputs(seed, workdir)`` builds the seeded input outside any
  timed region.  The seed never reaches tagflow; only the generated
  densities, splits or scenario text do.
* ``execute(tf, inputs, workdir)`` sets up once, as ``tagflow run``
  does, makes the timed calls through tagflow's public API and returns
  the phase timings plus the outputs that ``checks`` verifies.

Calls go through module attributes (``tf.bench.build_diamond_chain``,
``tf.scenario.parse_scenario`` ...) so the wrappers in ``spans`` see
them when a traced run installs them.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

# diamond-chain: build_diamond_chain(2000, 25) gives 667 diamonds,
# 1 + 3 * 667 = 2002 arcs and 50 050 cells.
DIAMOND_ARCS = 2000
DIAMOND_CELLS_PER_ARC = 25
DIAMOND_TOTAL_CELLS = (1 + 3 * ((DIAMOND_ARCS + 1) // 3)) * DIAMOND_CELLS_PER_ARC
DIAMOND_STEPS = 500
DIAMOND_CFL = 0.5

# roundabout: the paper's scenario, run the way `tagflow run` runs it.
ROUNDABOUT_CELLS_PER_ARC = 50
ROUNDABOUT_T_END = 100.0

# generic-grid: the shape is fixed, so the cost per step is too.
# Consecutive layers are joined by one junction taking every arc of
# the first layer in and every arc of the next layer out, which gives
# 2x2, 2x3, 3x2 and 3x3 junctions, all outside the closed-form classes.
GRID_WIDTHS = (2, 2, 3, 2, 3, 3, 2, 2, 3, 2, 2)
GRID_CELLS_PER_ARC = 10
GRID_STEPS = 40
GRID_CFL = 0.5


def _entry_density(flux: float) -> float:
    """Free-flow density of the unit Greenshields model carrying ``flux``."""
    return (1.0 - np.sqrt(1.0 - 4.0 * flux)) / 2.0


# -- diamond-chain ---------------------------------------------------------


def diamond_inputs(seed: int, workdir: Path) -> dict:
    rng = np.random.default_rng(seed)
    return {"rho0": rng.uniform(0.0, 1.0, DIAMOND_TOTAL_CELLS)}


def diamond_execute(tf, inputs: dict, workdir: Path) -> dict:
    t0 = time.perf_counter()
    net = tf.bench.build_diamond_chain(DIAMOND_ARCS, DIAMOND_CELLS_PER_ARC)
    sim = tf.simulate.Simulator(net)
    state = sim.init_state()
    dt = sim.stable_dt(DIAMOND_CFL)
    setup_s = time.perf_counter() - t0

    state.rho[:] = inputs["rho0"]
    rho_start = state.rho.copy()
    # the benchmark's own boundary integral, read at the public interfaces
    source = np.array([sim.arc_first_iface[k] for k, a in enumerate(net.arcs) if a.kind == "external_in"])
    sink = np.array([sim.arc_last_iface[k] for k, a in enumerate(net.arcs) if a.kind == "external_out"])
    boundary_integral = 0.0
    snap = None

    t0 = time.perf_counter()
    for _ in range(DIAMOND_STEPS):
        snap = sim.compute_fluxes(state)
        sim.apply(state, snap, dt, inplace=True)
        F = snap.fluxes
        boundary_integral += dt * (F[source].sum() - F[sink].sum())
    sim_s = time.perf_counter() - t0

    return {
        "setup_s": setup_s,
        "sim_s": sim_s,
        "write_s": 0.0,
        "cells": sim.total_cells,
        "steps": DIAMOND_STEPS,
        "outputs": {
            "net": net,
            "arc_ids": list(sim.arc_ids),
            "arc_first_iface": np.asarray(sim.arc_first_iface),
            "arc_last_iface": np.asarray(sim.arc_last_iface),
            "rho_start": rho_start,
            "rho_end": state.rho.copy(),
            "boundary_integral": boundary_integral,
            "last_fluxes": snap.fluxes.copy(),
            "steps": DIAMOND_STEPS,
        },
    }


# -- roundabout -------------------------------------------------------------


def roundabout_inputs(seed: int, workdir: Path) -> dict:
    """Seeded splits and entry fluxes, written as a scenario file.

    Entry fluxes stay in [0.05, 0.11], so f1 + f2 <= 0.22 is below the
    unit capacity 0.25 and ``check_low_flow`` holds: the circle runs in
    free flow and settles to the closed form by t = 100.
    """
    import tagflow as tf  # input generation only; never timed

    rng = np.random.default_rng(seed)
    alpha, beta = (float(v) for v in rng.uniform(0.3, 0.7, 2))
    f1, f2 = (float(v) for v in rng.uniform(0.05, 0.11, 2))
    net = tf.build_roundabout(
        alpha, beta, _entry_density(f1), _entry_density(f2), ROUNDABOUT_CELLS_PER_ARC
    )
    if not tf.check_low_flow(net.model, f1, f2):
        raise ValueError("generated entry fluxes exceed the low-flow bound")
    path = workdir / "scenario.json"
    path.write_text(tf.write_scenario(net, tf.SimConfig(t_end=ROUNDABOUT_T_END)))
    return {
        "scenario_path": path,
        "alpha": alpha,
        "beta": beta,
        "f1": f1,
        "f2": f2,
    }


def roundabout_execute(tf, inputs: dict, workdir: Path) -> dict:
    """Same calls in the same order as `tagflow run <scenario> --out <dir>`."""
    t0 = time.perf_counter()
    with open(inputs["scenario_path"]) as fh:
        text = fh.read()
    net, config = tf.scenario.parse_scenario(text)
    sim = tf.simulate.Simulator(net)
    setup_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = sim.run(config)
    sim_s = time.perf_counter() - t0

    out_dir = workdir / "out"
    t0 = time.perf_counter()
    paths = tf.output.write_timeseries(result, out_dir)
    write_s = time.perf_counter() - t0

    return {
        "setup_s": setup_s,
        "sim_s": sim_s,
        "write_s": write_s,
        "cells": sim.total_cells,
        "steps": int(result.summary["steps"]),
        "outputs": {
            "result": result,
            "csv_paths": [Path(p) for name, p in sorted(paths.items()) if name != "summary"],
        },
    }


# -- generic-grid -----------------------------------------------------------


def grid_inputs(seed: int, workdir: Path) -> dict:
    """Ladder of generic junctions with seeded splits, priorities, entries."""
    import tagflow as tf  # input generation only; never timed

    rng = np.random.default_rng(seed)
    layers = [[f"L{i}_{k}" for k in range(w)] for i, w in enumerate(GRID_WIDTHS)]
    last = len(layers) - 1
    arcs = [
        tf.Arc(
            id=arc_id,
            a=0.0,
            b=1.0,
            n_cells=GRID_CELLS_PER_ARC,
            kind="external_in" if i == 0 else "external_out" if i == last else "generic",
        )
        for i, layer in enumerate(layers)
        for arc_id in layer
    ]
    junctions = []
    for i in range(last):
        n_in, n_out = len(layers[i]), len(layers[i + 1])
        distribution = rng.uniform(0.1, 1.0, (n_out, n_in))
        distribution /= distribution.sum(axis=0, keepdims=True)
        priority = rng.uniform(0.1, 1.0, n_in)
        priority /= priority.sum()
        junctions.append(
            tf.Junction(
                id=f"G{i}",
                incoming=layers[i],
                outgoing=layers[i + 1],
                distribution=distribution,
                priority=priority,
            )
        )
    bcs = [
        tf.BoundaryCondition(arc_id=arc_id, rho_bar=float(rng.uniform(0.2, 0.5)))
        for arc_id in layers[0]
    ]
    net = tf.Network(model=tf.FluxModel(), arcs=arcs, junctions=junctions, boundary_conditions=bcs)
    dt = GRID_CFL * (1.0 / GRID_CELLS_PER_ARC) / net.model.max_wave_speed
    config = tf.SimConfig(t_end=GRID_STEPS * dt, cfl_number=GRID_CFL, record_profiles=True)
    return {"net": net, "config": config}


def grid_execute(tf, inputs: dict, workdir: Path) -> dict:
    net = inputs["net"]
    t0 = time.perf_counter()
    sim = tf.simulate.Simulator(net)
    setup_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = sim.run(inputs["config"])
    sim_s = time.perf_counter() - t0

    return {
        "setup_s": setup_s,
        "sim_s": sim_s,
        "write_s": 0.0,
        "cells": sim.total_cells,
        "steps": int(result.summary["steps"]),
        "outputs": {"net": net, "result": result},
    }


WORKLOADS = {
    "diamond-chain": (diamond_inputs, diamond_execute),
    "roundabout": (roundabout_inputs, roundabout_execute),
    "generic-grid": (grid_inputs, grid_execute),
}
