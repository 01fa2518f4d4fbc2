"""Shared generators and oracles for the test suite."""

import json
import math
import time as _time
from dataclasses import replace
from pathlib import Path

import numpy as np

from tagflow.flux import FluxModel
from tagflow.junctions import _PIVOT_TOL, JunctionProblem
from tagflow.network import Arc, BoundaryCondition, InvalidInputError, Junction, Network
from tagflow.simulate import (
    EPS_FLUX,
    MAX_STEPS,
    TRACER_PLACEHOLDER,
    FluxSnapshot,
    RunResult,
    SimConfig,
    Simulator,
    detect_equilibrium,
)


def single_arc_network(model: FluxModel, n_cells: int, rho_left: float) -> Network:
    """One arc fed at rho_left with free outflow; used for wave tests."""
    return Network(
        model=model,
        arcs=[Arc("A", 0.0, 1.0, n_cells, "generic")],
        junctions=[],
        boundary_conditions=[BoundaryCondition("A", rho_left)],
    )


def riemann_l1_error(
    model: FluxModel,
    left: float,
    right: float,
    x0: float,
    n_cells: int,
    t_final: float,
) -> float:
    """March two-state initial data and compare against the exact profile.

    Initial data are exact cell averages of the step; the comparison
    samples the exact solution at cell centres over the whole arc.
    """
    sim = Simulator(single_arc_network(model, n_cells, left))
    state = sim.init_state()
    dx = 1.0 / n_cells
    edges = np.linspace(0.0, 1.0, n_cells + 1)
    frac_right = np.clip((edges[1:] - x0) / dx, 0.0, 1.0)
    state.rho[:] = left * (1.0 - frac_right) + right * frac_right
    dt = sim.stable_dt(0.5)
    while state.time < t_final - 1e-12:
        state = sim.step(state, min(dt, t_final - state.time))
    x = sim.cell_centers("A")
    exact = model.riemann_eval(left, right, (x - x0) / t_final)
    return float(np.sum(np.abs(state.rho - exact)) * dx)


def random_junction_problem(rng: np.random.Generator) -> JunctionProblem:
    """Random problem with 1..3 incoming and outgoing arcs.

    Distribution columns are stochastic (sum to one) with occasional
    zero entries so constraint elimination gets exercised.
    """
    n_in = int(rng.integers(1, 4))
    n_out = int(rng.integers(1, 4))
    demands = rng.uniform(0.0, 0.25, n_in)
    supplies = rng.uniform(0.0, 0.3, n_out)
    cols = []
    for _ in range(n_in):
        col = rng.uniform(0.1, 1.0, n_out)
        if n_out > 1 and rng.random() < 0.3:
            col[rng.integers(0, n_out)] = 0.0
        cols.append(col / col.sum())
    priority = rng.uniform(0.0, 1.0, n_in)
    priority /= priority.sum()
    return JunctionProblem(
        demands=demands,
        supplies=supplies,
        distribution=np.stack(cols, axis=1),
        priority=priority,
    )


def presolve_fits_reference(demands: np.ndarray, supplies: np.ndarray, routing: np.ndarray) -> np.ndarray:
    """Which rows general answers without the simplex, by a per-arc loop.

    general's presolve as it was first written: one numpy round per
    demanded arc, subtracting each arc's routed demand from what the
    arcs before it left.  A row fits when every arc's room on every
    supply is at least its demand.
    """
    fits = np.ones(demands.shape[0], dtype=bool)
    slack = supplies
    for i in np.flatnonzero(demands.any(axis=0)).tolist():
        rate = routing[:, :, i]
        room = np.empty(rate.shape)
        room.fill(np.inf)
        np.divide(np.maximum(slack, 0.0), rate, out=room, where=rate > _PIVOT_TOL)
        fits &= np.minimum.reduce(room, axis=1) >= demands[:, i]
        slack = slack - demands[:, i, None] * rate
    return fits


def random_network(rng: np.random.Generator, model: FluxModel | None = None) -> Network:
    """Small random layered network that passes validation.

    Sources feed the first junction layer, consecutive layers are wired
    so every junction keeps at least one incoming and one outgoing arc,
    and the last layer drains into sink arcs.  All junctions are static.
    """
    model = model or FluxModel()
    # single root layer keeps the graph connected by construction
    layers = [1] + [int(rng.integers(1, 3)) for _ in range(int(rng.integers(0, 3)))]
    arcs: list[Arc] = []
    junctions: list[Junction] = []
    bcs: list[BoundaryCondition] = []
    incoming: dict[str, list[str]] = {}
    outgoing: dict[str, list[str]] = {}

    def add_arc(kind: str) -> str:
        arc_id = f"A{len(arcs)}"
        arcs.append(
            Arc(id=arc_id, a=0.0, b=1.0, n_cells=int(rng.integers(3, 9)), kind=kind)
        )
        return arc_id

    layer_junctions: list[list[str]] = []
    for li, count in enumerate(layers):
        ids = [f"J{li}_{k}" for k in range(count)]
        layer_junctions.append(ids)
        for jid in ids:
            incoming[jid] = []
            outgoing[jid] = []

    for jid in layer_junctions[0]:
        for _ in range(int(rng.integers(1, 3))):
            arc_id = add_arc("external_in")
            incoming[jid].append(arc_id)
            bcs.append(
                BoundaryCondition(
                    arc_id=arc_id,
                    rho_bar=float(rng.uniform(0.0, model.sigma)),
                )
            )

    for li in range(len(layers) - 1):
        nxt = layer_junctions[li + 1]
        for jid in layer_junctions[li]:
            # an insertion-ordered dedupe: a set would iterate in
            # PYTHONHASHSEED order and change the topology per process
            targets = dict.fromkeys(nxt[int(rng.integers(0, len(nxt)))] for _ in range(2))
            for tgt in targets:
                arc_id = add_arc("generic")
                outgoing[jid].append(arc_id)
                incoming[tgt].append(arc_id)
        # make sure nobody in the next layer starves
        for tgt in nxt:
            if not incoming[tgt]:
                src = layer_junctions[li][int(rng.integers(0, len(layer_junctions[li])))]
                arc_id = add_arc("generic")
                outgoing[src].append(arc_id)
                incoming[tgt].append(arc_id)

    for jid in layer_junctions[-1]:
        for _ in range(int(rng.integers(1, 3))):
            arc_id = add_arc("external_out")
            outgoing[jid].append(arc_id)

    for ids in layer_junctions:
        for jid in ids:
            n_in, n_out = len(incoming[jid]), len(outgoing[jid])
            cols = []
            for _ in range(n_in):
                col = rng.uniform(0.1, 1.0, n_out)
                cols.append(col / col.sum())
            priority = rng.uniform(0.1, 1.0, n_in)
            junctions.append(
                Junction(
                    id=jid,
                    incoming=incoming[jid],
                    outgoing=outgoing[jid],
                    distribution=np.stack(cols, axis=1),
                    priority=priority / priority.sum(),
                )
            )

    return Network(model=model, arcs=arcs, junctions=junctions, boundary_conditions=bcs)


def hub_network(
    n_in: int, n_out: int, seed: int = 0, upstream: Network | None = None, prefix: str = ""
) -> Network:
    """One static junction taking n_in arcs into n_out draining arcs.

    The hub's incoming arcs are fed by reservoirs; with an upstream
    network, that network's draining arcs feed the hub instead, as its
    first incoming arcs, and the result holds both.  Routing columns,
    priorities and entry densities (0.2 to 0.5) are seeded, so a hub
    with several times more entries than outlets is supply-bound.  The
    prefix goes before the hub's own arc and junction ids, so that a
    hub can feed another built from the same recipe.
    """
    rng = np.random.default_rng(seed)
    arcs = [] if upstream is None else [replace(a) for a in upstream.arcs]
    fed = [a for a in arcs if a.kind == "external_out"]
    for arc in fed:
        arc.kind = "generic"
    sources = [f"{prefix}H{k}" for k in range(n_in - len(fed))]
    outs = [f"{prefix}Q{k}" for k in range(n_out)]
    arcs += [Arc(a, 0.0, 1.0, 5, "external_in") for a in sources]
    arcs += [Arc(a, 0.0, 1.0, 5, "external_out") for a in outs]
    distribution = rng.uniform(0.1, 1.0, (n_out, n_in))
    priority = rng.uniform(0.1, 1.0, n_in)
    hub = Junction(
        f"{prefix}HUB",
        [a.id for a in fed] + sources,
        outs,
        distribution / distribution.sum(axis=0),
        priority=priority / priority.sum(),
    )
    return Network(
        model=FluxModel() if upstream is None else upstream.model,
        arcs=arcs,
        junctions=([] if upstream is None else list(upstream.junctions)) + [hub],
        boundary_conditions=([] if upstream is None else list(upstream.boundary_conditions))
        + [BoundaryCondition(a, float(rng.uniform(0.2, 0.5))) for a in sources],
    )


def ladder_network(widths, seed=0) -> Network:
    """Arc layers of the given widths; each pair of neighbouring layers
    is joined by one static junction taking every arc of the first
    layer in and every arc of the second out."""
    rng = np.random.default_rng(seed)
    layers = [[f"L{i}_{k}" for k in range(w)] for i, w in enumerate(widths)]
    last = len(layers) - 1
    kinds = ["external_in"] + ["generic"] * (last - 1) + ["external_out"]
    arcs = [Arc(arc_id, 0.0, 1.0, 5, kinds[i]) for i, layer in enumerate(layers) for arc_id in layer]
    junctions = []
    for i in range(last):
        distribution = rng.uniform(0.1, 1.0, (len(layers[i + 1]), len(layers[i])))
        priority = rng.uniform(0.1, 1.0, len(layers[i]))
        junctions.append(
            Junction(
                f"G{i}",
                layers[i],
                layers[i + 1],
                distribution / distribution.sum(axis=0),
                priority=priority / priority.sum(),
            )
        )
    bcs = [BoundaryCondition(a, float(rng.uniform(0.2, 0.5))) for a in layers[0]]
    return Network(FluxModel(), arcs, junctions, bcs)


def mixed_kind_network(model: FluxModel | None = None) -> Network:
    """Every junction kind in one table: three reservoirs feed a dynamic
    exit (1->2) and a static 1->3 diverge, which share the diverge rows;
    a 2->1 and a 3->1 merge, which share the merge rows; and a 2x3
    general junction.  The 3->1 merge takes more than one arc can carry,
    so it backs up into the diverge in front of it.  The exit lists its exit
    arc second and lets the unmarked class leave.  The reservoir
    densities are fractions of the model's rho_max."""
    model = model or FluxModel()
    kinds = {"A": "external_in", "B": "external_in", "C": "external_in"}
    kinds.update({a: "external_out" for a in ("E", "Z1", "Z2", "Z3")})
    arcs = [
        Arc(a, 0.0, 1.0, 6, kinds.get(a, "generic"))
        for a in ("A", "B", "C", "E", "M", "P", "Q", "S", "T", "U", "Z1", "Z2", "Z3")
    ]
    junctions = [
        Junction(
            "Jexit",
            ["A"],
            ["M", "E"],
            [[0.5], [0.5]],
            coefficient_mode="dynamic",
            exit_arc="E",
            exit_tracer=0.0,
        ),
        Junction("Jdiv3", ["B"], ["P", "Q", "S"], [[0.2], [0.5], [0.3]]),
        Junction("Jmerge2", ["M", "P"], ["T"], [[1.0, 1.0]], priority=[0.4, 0.6]),
        Junction("Jmerge3", ["Q", "S", "C"], ["U"], [[1.0, 1.0, 1.0]], priority=[0.2, 0.5, 0.3]),
        Junction(
            "Jgen",
            ["T", "U"],
            ["Z1", "Z2", "Z3"],
            [[0.5, 0.2], [0.3, 0.3], [0.2, 0.5]],
            priority=[0.7, 0.3],
        ),
    ]
    bcs = [
        BoundaryCondition("A", 0.3 * model.rho_max, tracer_in=0.6),
        BoundaryCondition("B", 0.45 * model.rho_max, tracer_in=0.2),
        BoundaryCondition("C", 0.1 * model.rho_max, tracer_in=0.9),
    ]
    return Network(model=model, arcs=arcs, junctions=junctions, boundary_conditions=bcs)


def topic_network(n_topics: int, cells_per_arc: int, seed: int = 7) -> Network:
    """Topics grown by preferential attachment, one junction per topic.

    Topic t > 0 links to min(2, t) distinct older topics, each drawn
    with probability proportional to its in-degree + 1, so the oldest
    topics become hubs with wide incoming rows.  Every topic also has a
    reservoir-fed arc, at a density uniform on [0.05, 0.3], and a
    draining arc.  Routing columns and priorities are Dirichlet draws.
    Topic 0 has no out-link, so it is a merge; a topic nobody links to
    is a diverge, and the rest are general junctions.
    """
    rng = np.random.default_rng(seed)
    in_degree = np.zeros(n_topics)
    links = []  # (from, to)
    for t in range(1, n_topics):
        weight = in_degree[:t] + 1.0
        for u in rng.choice(t, size=min(2, t), replace=False, p=weight / weight.sum()).tolist():
            links.append((t, u))
            in_degree[u] += 1
    arcs = [Arc(f"in{t}", 0.0, 1.0, cells_per_arc, "external_in") for t in range(n_topics)]
    arcs += [Arc(f"out{t}", 0.0, 1.0, cells_per_arc, "external_out") for t in range(n_topics)]
    arcs += [Arc(f"L{t}_{u}", 0.0, 1.0, cells_per_arc, "generic") for t, u in links]
    incoming = [[f"in{t}"] for t in range(n_topics)]
    outgoing = [[] for _ in range(n_topics)]
    for t, u in links:
        outgoing[t].append(f"L{t}_{u}")
        incoming[u].append(f"L{t}_{u}")
    junctions = []
    for t in range(n_topics):
        outgoing[t].append(f"out{t}")
        n_in, n_out = len(incoming[t]), len(outgoing[t])
        junctions.append(
            Junction(
                f"T{t}",
                incoming[t],
                outgoing[t],
                rng.dirichlet(np.ones(n_out), size=n_in).T,
                priority=rng.dirichlet(np.ones(n_in)),
            )
        )
    bcs = [BoundaryCondition(f"in{t}", float(rng.uniform(0.05, 0.3))) for t in range(n_topics)]
    return Network(FluxModel(), arcs, junctions, bcs)


def ring_network() -> Network:
    """A closed ring of three arcs and three one-in/one-out junctions:
    no reservoir feeds it and no outlet drains it, so its mass only
    circulates."""
    arcs = [Arc(a, 0.0, 1.0, n, "circle") for a, n in (("R0", 4), ("R1", 5), ("R2", 6))]
    junctions = [Junction(f"K{k}", [f"R{k}"], [f"R{(k + 1) % 3}"], [[1.0]]) for k in range(3)]
    return Network(model=FluxModel(), arcs=arcs, junctions=junctions, boundary_conditions=[])


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def reference_write_timeseries(result: RunResult, destination: str | Path) -> dict[str, Path]:
    """Row-at-a-time CSV writer: the oracle for output.write_timeseries.

    One f-string and one `_fmt` call per row, in the file's row order.
    """
    dest = Path(destination)
    dest.mkdir(parents=True, exist_ok=True)

    order = sorted(range(len(result.arc_ids)), key=lambda k: result.arc_ids[k])
    paths = {
        "fluxes": dest / "fluxes.csv",
        "coefficients": dest / "coefficients.csv",
        "summary": dest / "summary.json",
    }

    if result.density is not None:
        paths["densities"] = dest / "densities.csv"
        offsets = np.concatenate(
            [[0], np.cumsum([result.cells_per_arc[a] for a in result.arc_ids])]
        )
        with open(paths["densities"], "w", newline="") as fh:
            fh.write("time,arc_id,cell,density,tracer\n")
            for ti, t in enumerate(result.times):
                time_txt = _fmt(t)
                for k in order:
                    arc_id = result.arc_ids[k]
                    rho = result.density[ti, offsets[k] : offsets[k + 1]]
                    if result.tracer is not None:
                        phi = result.tracer[ti, offsets[k] : offsets[k + 1]]
                    else:
                        phi = np.full(rho.shape, TRACER_PLACEHOLDER)
                    for cell, (r, p) in enumerate(zip(rho, phi)):
                        fh.write(f"{time_txt},{arc_id},{cell},{_fmt(r)},{_fmt(p)}\n")

    with open(paths["fluxes"], "w", newline="") as fh:
        fh.write("time,arc_id,flux\n")
        for ti, t in enumerate(result.times):
            time_txt = _fmt(t)
            for k in order:
                fh.write(f"{time_txt},{result.arc_ids[k]},{_fmt(result.arc_fluxes[ti, k])}\n")

    with open(paths["coefficients"], "w", newline="") as fh:
        fh.write("time,junction_id,from_arc,to_arc,coefficient\n")
        junction_ids = sorted(result.coefficients)
        for ti, t in enumerate(result.times):
            time_txt = _fmt(t)
            for jid in junction_ids:
                matrix = result.coefficients[jid][ti]
                incoming, outgoing = result.junction_arcs[jid]
                for col, src in enumerate(incoming):
                    for row, dst in enumerate(outgoing):
                        fh.write(
                            f"{time_txt},{jid},{src},{dst},{_fmt(matrix[row, col])}\n"
                        )

    summary = dict(result.summary)
    summary["first_arrival_coefficients"] = {
        jid: {"time": t, "column": column.tolist()}
        for jid, (t, column) in sorted(result.first_arrival_coefficients.items())
    }
    with open(paths["summary"], "w", newline="") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def reference_run(self: Simulator, config: SimConfig) -> RunResult:
    """Simulator.run without the replay of still states.

    Every step calls compute_fluxes and apply, and the body is otherwise
    Simulator.run's line for line, so tests can hold run to it bit for
    bit.  It must not follow later edits of run.
    """
    dt = self.stable_dt(config.cfl_number)
    if not dt * MAX_STEPS >= config.t_end:  # also when dt underflowed to 0
        raise InvalidInputError(
            f"cannot run: t_end={config.t_end:g} needs more than {MAX_STEPS} steps of dt={dt:.3g}"
        )
    eps = 1e-9 * dt
    n_steps = max(1, math.ceil(config.t_end / dt - 1e-9))
    last_dt = config.t_end - (n_steps - 1) * dt  # short when t_end is off the step grid
    last_dt = dt if last_dt >= dt - eps else last_dt
    update = config.coefficient_mode != "static"
    state = self.init_state()
    initial_splits = state.exit_splits.copy()

    times: list[float] = []
    flux_rows: list[np.ndarray] = []
    split_rows: list[np.ndarray] = []
    density_rows: list[np.ndarray] = []
    tracer_rows: list[np.ndarray] = []
    arrived = np.zeros(len(self._dyn_ids), dtype=bool)
    arrival_time = np.zeros(arrived.size)
    arrival_split = np.zeros((arrived.size, 2))
    waiting = update and arrived.size > 0

    mass_start = self.total_mass(state)
    boundary_integral = 0.0
    next_sample = 0  # j of the next sample time j * sample_interval
    wall_start = _time.perf_counter()

    def record(snap: FluxSnapshot, t: float):
        times.append(t)
        flux_rows.append(self.arc_boundary_fluxes(snap))
        split_rows.append(state.exit_splits.copy())
        if config.record_profiles:
            density_rows.append(state.rho.copy())
            if state.phi is not None:
                tracer_rows.append(state.phi.copy())

    for k in range(n_steps):
        snap = self.compute_fluxes(state)
        due = next_sample * config.sample_interval
        if state.time >= due - eps:
            record(snap, due if state.time <= due + eps else state.time)
            next_sample = math.floor((state.time + eps) / config.sample_interval) + 1
        last = k == n_steps - 1
        step_dt = last_dt if last else dt
        self.apply(state, snap, step_dt, inplace=True)
        if not update:
            state.exit_splits[:] = initial_splits
        state.time = config.t_end if last else (k + 1) * dt
        if waiting:
            new = ~arrived & (snap.fluxes[self._dyn_in_iface] >= EPS_FLUX)
            arrival_time[new] = state.time
            arrival_split[new] = state.exit_splits[new]
            arrived |= new
            waiting = not arrived.all()
        boundary_integral += step_dt * (snap.inflow_total - snap.outflow_total)
    record(self.compute_fluxes(state), state.time)

    wall = _time.perf_counter() - wall_start
    mass_residual = abs(self.total_mass(state) - mass_start - boundary_integral)

    times_arr = np.asarray(times)
    flux_arr = np.asarray(flux_rows)
    equilibrium_time = detect_equilibrium(
        times_arr, flux_arr, config.equilibrium_window, config.equilibrium_tol
    )
    final_fluxes = {
        arc_id: float(flux_arr[-1, k]) for k, arc_id in enumerate(self.arc_ids)
    }
    junction_arcs, coefficients = self._stepped_junctions(len(times))
    splits = np.asarray(split_rows)
    for k, jid in enumerate(self._dyn_ids):
        coefficients[jid] = splits[:, k, :, None].copy()
    first_arrival = {
        jid: (float(arrival_time[k]), arrival_split[k].copy())
        for k, jid in enumerate(self._dyn_ids)
        if arrived[k]
    }
    summary = {
        "t_end": state.time,
        "steps": state.step_count,
        "cells": self.total_cells,
        "equilibrium_time": equilibrium_time,
        "final_fluxes": final_fluxes,
        "mass_residual": mass_residual,
        "wall_time_s": wall,
        "cell_updates_per_s": state.step_count * self.total_cells / wall
        if wall > 0
        else float("inf"),
    }
    return RunResult(
        arc_ids=list(self.arc_ids),
        cells_per_arc=dict(zip(self.arc_ids, self.n_cells.tolist())),
        junction_arcs=junction_arcs,
        times=times_arr,
        arc_fluxes=flux_arr,
        coefficients=coefficients,
        density=np.asarray(density_rows) if density_rows else None,
        tracer=np.asarray(tracer_rows) if tracer_rows else None,
        first_arrival_coefficients=first_arrival,
        equilibrium_time=equilibrium_time,
        summary=summary,
    )
