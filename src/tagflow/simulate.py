"""Time-stepping engine for tag flow on a network.

First-order finite-volume updates per arc, demand/supply coupling at
junctions, reservoir inflows, absorbing outflows, destination-tracer
transport, and steady-state detection.

Every step has two phases.  Phase 1, Simulator.compute_fluxes, is
read-only: one flux per cell interface is computed, using the interface
rule inside arcs and the junction allocation at every arc end, and each
dynamic exit's next split is read off the composition that crosses it.
Interface c is cell c's left face and total_cells + k the end of arc k.
Phase 2, Simulator.apply, applies the conservative update to every
cell, transports tracer mass with the donor-cell value of each flux,
and installs the new exit splits.  Nothing in phase 2 feeds back into
phase 1 of the same step, so cell updates are order-free.
Simulator.step is the two phases in turn.

The state is arrays only: density and tracer per cell, one exit split
per dynamic junction.  Every arc end is a row of one junction table,
solved by one kernel call per kind: a reservoir's row admits
min(reservoir demand, first-cell supply) into its source arc, and a
sink arc sends its last cell's demand to an outlet of infinite supply.
Simulator.run is the one time loop.

The tracer phi is the fraction of a cell's mass bound for the marked
exit class.  At a dynamic exit junction the bulk split follows the
current exit split while the tracer mass is sorted: the class that
departs here leaves first, any overflow stays on the circle.  Junctions
with several incoming arcs mix tracer in proportion to granted flux.
Cells lighter than EPS_MASS hold the neutral placeholder 0.5 and never
contribute to mixtures.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass

import numpy as np

from . import junctions as _junctions
from .flux import DENSITY_TOL, FluxModel
from .network import BoundaryCondition, InvalidInputError, Junction, Network, NetworkValidationError

__all__ = [
    "EPS_FLUX",
    "EPS_MASS",
    "MAX_STEPS",
    "TRACER_PLACEHOLDER",
    "SimulationError",
    "SimConfig",
    "SimState",
    "FluxSnapshot",
    "RunResult",
    "Simulator",
    "detect_equilibrium",
    "dynamic_exit_coefficients",
]

# Cell mass below which the tracer is considered undefined.
EPS_MASS = 1e-12
# Arriving flux below which dynamic coefficients are left unchanged.
EPS_FLUX = 1e-12
TRACER_PLACEHOLDER = 0.5
# Most time steps one run may take.  Simulator.run refuses a longer run
# before its first step: at tens of microseconds per step or more, 10^8
# steps already take hours, and a tiny arc or a huge t_end can ask for
# more steps than the clock can count.
MAX_STEPS = 10**8

_TRACER_SLACK = 1e-9


class SimulationError(RuntimeError):
    """An invariant broke beyond numerical tolerance; state is suspect."""


@dataclass
class SimConfig:
    """Run parameters.

    coefficient_mode "network" honours each junction's own mode;
    "static" freezes every split at its initial value.  A run samples
    every sample_interval and at t_end.
    """

    t_end: float = 100.0
    cfl_number: float = 0.5
    sample_interval: float = 0.25
    equilibrium_window: float = 10.0
    equilibrium_tol: float = 1e-3
    coefficient_mode: str = "network"
    record_profiles: bool = True

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0.0 < self.cfl_number <= 1.0:
            raise InvalidInputError("cfl_number must lie in (0, 1]")
        if not 0.0 < self.t_end < np.inf:
            raise InvalidInputError("t_end must be positive and finite")
        if not self.sample_interval > 0.0:
            raise InvalidInputError("sample_interval must be positive")
        if not (self.equilibrium_window > 0.0 and self.equilibrium_tol > 0.0):
            raise InvalidInputError("equilibrium window and tolerance must be positive")
        if self.coefficient_mode not in ("network", "static"):
            raise InvalidInputError("coefficient_mode must be 'network' or 'static'")


@dataclass
class SimState:
    """Mutable per-cell state: clock, densities, tracer, current exit splits.

    rho and phi are flat arrays over all cells in arc order (phi is None
    on networks without dynamic junctions).  exit_splits is (n_dynamic,
    2): one row per dynamic junction in network order, its columns in
    that junction's outgoing order; apply installs the splits phase 1
    computed.  Static splits live on the network.
    """

    time: float
    step_count: int
    rho: np.ndarray
    phi: np.ndarray | None
    exit_splits: np.ndarray

    def copy(self) -> "SimState":
        return SimState(
            time=self.time,
            step_count=self.step_count,
            rho=self.rho.copy(),
            phi=None if self.phi is None else self.phi.copy(),
            exit_splits=self.exit_splits.copy(),
        )


@dataclass
class FluxSnapshot:
    """Phase-1 output: one bulk (and tracer) flux per cell interface.

    Interface c is cell c's left face, total_cells + k the end of arc k.
    Where there is a tracer, exit_splits holds the dynamic exit splits
    after this step: each row follows what crossed its exit, or keeps
    the state's split when less than EPS_FLUX arrived.
    """

    fluxes: np.ndarray
    tracer_fluxes: np.ndarray | None
    exit_splits: np.ndarray | None
    inflow_total: float
    outflow_total: float


@dataclass
class RunResult:
    """Sampled trajectory of a run plus summary figures."""

    arc_ids: list[str]
    cells_per_arc: dict[str, int]
    junction_arcs: dict[str, tuple[list[str], list[str]]]  # id -> (incoming, outgoing)
    times: np.ndarray
    arc_fluxes: np.ndarray  # (n_samples, n_arcs), downstream interface
    # junction -> (n_samples, n_out, n_in); a static junction's entry is a
    # read-only view of its one matrix
    coefficients: dict[str, np.ndarray]
    density: np.ndarray | None  # (n_samples, total_cells)
    tracer: np.ndarray | None
    first_arrival_coefficients: dict[str, tuple[float, np.ndarray]]
    equilibrium_time: float | None
    summary: dict


def dynamic_exit_coefficients(
    junction: Junction,
    arriving_flux: float,
    arriving_tracer: float,
    current: np.ndarray,
) -> np.ndarray:
    """Split column for a dynamic exit junction given what arrives.

    The share sent to the external exit is the arriving fraction of the
    class that departs there; the rest keeps circulating.  Arrivals
    below EPS_FLUX carry no information, so the current column persists.
    """
    if junction.coefficient_mode != "dynamic" or junction.exit_arc is None:
        raise ValueError(f"junction {junction.id} is not a dynamic exit junction")
    if len(junction.incoming) != 1 or len(junction.outgoing) != 2:
        raise ValueError(f"junction {junction.id} must have 1 incoming and 2 outgoing arcs")
    if arriving_flux < EPS_FLUX:
        return np.asarray(current, dtype=float).reshape(2).copy()
    phi = min(max(float(arriving_tracer), 0.0), 1.0)
    to_exit = phi if junction.exit_tracer == 1.0 else 1.0 - phi
    exit_idx = junction.outgoing.index(junction.exit_arc)
    column = np.empty(2)
    column[exit_idx] = to_exit
    column[1 - exit_idx] = 1.0 - to_exit
    return column


def detect_equilibrium(
    times: np.ndarray,
    fluxes: np.ndarray,
    window: float,
    tol: float,
) -> float | None:
    """Earliest sample time after which every arc flux stays settled.

    Settled means within relative tol of that arc's mean over the final
    window of the series (an absolute floor of 1e-12 guards arcs whose
    mean is zero).  Returns None when even the tail violates that.
    """
    times = np.asarray(times, dtype=float)
    fluxes = np.asarray(fluxes, dtype=float)
    if times.size == 0 or fluxes.size == 0:
        raise ValueError("empty flux series")
    if window <= 0.0:
        raise ValueError("window must be positive")
    tail = times >= times[-1] - window
    means = fluxes[tail].mean(axis=0)
    scale = np.maximum(np.abs(means), 1e-12)
    ok = np.all(np.abs(fluxes - means) <= tol * scale, axis=1)
    if not ok[-1]:
        return None
    # earliest index from which ok holds through the end
    bad = np.nonzero(~ok)[0]
    first = 0 if bad.size == 0 else bad[-1] + 1
    return float(times[first])


def _state_bytes(state: SimState) -> list[bytes]:
    """The state's arrays as raw bytes, equal exactly when their bits are.

    So -0.0 differs from 0.0, and NaN equals the same NaN.
    """
    return [a.tobytes() for a in (state.rho, state.phi, state.exit_splits) if a is not None]


class Simulator:
    """Stepping engine bound to one validated network.

    Construction flattens all arcs into one cell array and stacks every
    junction, reservoir and sink end as one row of one table, padded to
    the widest row and sorted by kind.  A step solves each kind's rows
    in one call to its kernel in junctions.KERNELS, then routes bulk and
    tracer flux by the same formula for every row.  Instances hold no
    per-run state and may be shared across runs, but one SimState must
    only ever be advanced by one thread at a time.  A Simulator keeps no
    network: the cell layout, the junction ids, the table and the
    initial splits are copied when it is built, and states, steps, cell
    centres and run results read only those copies, so a later edit of
    the network changes none of them.

    Work buffers: demand and supply over the cells and the table's
    slots, and the cells' flux differences; only a network with a tracer
    adds the clipped tracer, over the cells and slots too.
    """

    def __init__(self, net: Network):
        report = net.validate()
        if report:
            raise NetworkValidationError(report)
        self.model: FluxModel = net.model

        arcs = net.arcs
        self.arc_ids = [a.id for a in arcs]
        self._arc_index = {a: i for i, a in enumerate(self.arc_ids)}
        n_cells = np.array([a.n_cells for a in arcs], dtype=np.intp)
        self.n_cells = n_cells
        self.cell_offsets = np.concatenate([[0], np.cumsum(n_cells)])
        self.total_cells = int(self.cell_offsets[-1])
        self._arc_a = np.array([a.a for a in arcs])
        self.dx = np.array([a.dx for a in arcs])
        self.dx_cell = np.repeat(self.dx, n_cells)

        # interface c is cell c's left face; total_cells + k ends arc k
        self.total_ifaces = self.total_cells + len(arcs)
        self.arc_first_iface = self.cell_offsets[:-1]
        self._arc_last_cell = self.cell_offsets[1:] - 1
        self.arc_last_iface = self.total_cells + np.arange(len(arcs), dtype=np.intp)

        reservoirs = self._build_junction_table(net)
        self._check_interface_cover()

        # work buffers for the hot path; these make compute_fluxes/apply
        # non-reentrant, so a Simulator must not step from two threads
        # the cells and the dead cell, then the reservoirs and the outlet
        head = np.zeros(self.total_cells + 1)
        self._D = np.concatenate([head, [self.model.demand(bc.rho_bar) for bc in reservoirs], [0.0]])
        self._S = np.concatenate([head, np.zeros(len(reservoirs)), [np.inf]])
        tracer = [bc.tracer_in for bc in reservoirs]
        self._phi = np.concatenate([head, tracer, [0.0]]) if self._dyn_ids else None
        self._work = np.empty(self.total_cells)
        self._lam_cache: tuple[float | None, np.ndarray | None] = (None, None)

    # -- layout ------------------------------------------------------------

    def _build_junction_table(self, net: Network) -> list[BoundaryCondition]:
        """Stack every arc end as one row of the junction table.

        After the network's junctions comes a one-in/one-out row, with
        routing [[1.0]], from each reservoir into its source arc and from
        each sink arc into the outlet.  Past the cells, demand, supply and
        tracer hold the slots those rows read: the dead cell total_cells,
        a slot per reservoir in arc order, then the outlet, whose supply
        is infinite.  On a slot's side a row has the scratch interface
        total_ifaces, which no cell reads.  Returns the reservoirs'
        boundary conditions, whose demand and tracer fill their slots.

        Rows are sorted by kind, stably, so each kind is one contiguous
        row range and the dynamic exits keep network order, the row
        order of exit_splits.  in_cell and in_iface are (J, n_in) with
        incoming arcs in priority order, out_cell and out_iface are
        (J, n_out), and routing is (J, n_out, n_in), zero in the padding
        and exactly 1 on a merge's row.  Padding points at the dead cell,
        whose demand, supply and tracer stay 0, and the scratch interface.
        """
        idx = self._arc_index
        net_juncs = net.junctions
        sources = [idx[a] for a in net.source_arc_ids]
        sinks = [idx[a] for a in net.sink_arc_ids]
        # arc n_arcs + s stands for slot total_cells + s
        n_arcs = len(self.arc_ids)
        outlet = n_arcs + 1 + len(sources)
        ends = [([n_arcs + 1 + r], [k]) for r, k in enumerate(sources)] + [([k], [outlet]) for k in sinks]
        incoming = [[idx[a] for a in j.incoming] for j in net_juncs] + [i for i, _ in ends]
        outgoing = [[idx[a] for a in j.outgoing] for j in net_juncs] + [o for _, o in ends]
        distributions = [j.distribution for j in net_juncs] + [np.ones((1, 1))] * len(ends)
        orders = [_junctions.priority_order(j.priority) for j in net_juncs] + [[0]] * len(ends)

        kinds = list(_junctions.KERNELS)
        kind = np.array([kinds.index(_junctions.classify(d)) for d in distributions], np.intp)
        rows = np.argsort(kind, kind="stable").tolist()
        n_in = np.array([len(incoming[r]) for r in rows], dtype=np.intp)
        n_out = np.array([len(outgoing[r]) for r in rows], dtype=np.intp)
        in_slot = np.arange(n_in.max(initial=1)) < n_in[:, None]
        out_slot = np.arange(n_out.max(initial=1)) < n_out[:, None]

        in_arcs = np.full(in_slot.shape, n_arcs, dtype=np.intp)
        # each row's incoming arcs, and its routing columns below, in priority order
        in_arcs[in_slot] = [incoming[r][i] for r in rows for i in orders[r]]
        out_arcs = np.full(out_slot.shape, n_arcs, dtype=np.intp)
        out_arcs[out_slot] = [a for r in rows for a in outgoing[r]]
        slots = self.total_cells + np.arange(len(sources) + 2)
        scratch = np.full(slots.size, self.total_ifaces)
        self._in_cell = np.concatenate([self._arc_last_cell, slots])[in_arcs]
        self._in_iface = np.concatenate([self.arc_last_iface, scratch])[in_arcs]
        self._out_cell = np.concatenate([self.arc_first_iface, slots])[out_arcs]
        self._out_iface = np.concatenate([self.arc_first_iface, scratch])[out_arcs]

        # every valid network has a row: an arc is fed by a junction or a reservoir
        routing = self._routing = np.zeros(out_slot.shape + in_slot.shape[1:])
        real = out_slot[:, :, None] & in_slot[:, None, :]
        # plain floats: a permuted array per junction would raise peak memory
        routing[real] = [row[i] for r in rows for row in distributions[r].tolist() for i in orders[r]]
        merges = kind[rows] == kinds.index("merge")
        routing[merges, 0] = in_slot[merges]
        self._gamma = np.zeros(in_slot.shape)

        # one kernel call per kind present, at that kind's own width
        stops = np.cumsum(np.bincount(kind, minlength=len(kinds))).tolist()
        self._kinds = [
            (slice(start, stop), _junctions.KERNELS[name], n_in[start:stop].max(), n_out[start:stop].max())
            for name, start, stop in zip(kinds, [0] + stops, stops)
            if stop > start
        ]
        # the boundary totals sum in arc order
        self._inflow_iface = self.arc_first_iface[sources]
        self._outflow_iface = self.arc_last_iface[sinks]
        # the balance check and a run's junction arcs read each junction's
        # own arc lists, in network order, not the table
        self._junction_ids = [j.id for j in net_juncs]
        self._balance_in = self.arc_last_iface[[idx[a] for j in net_juncs for a in j.incoming]]
        self._balance_out = self.arc_first_iface[[idx[a] for j in net_juncs for a in j.outgoing]]
        self._balance_at = [
            np.cumsum([0] + [len(j.incoming) for j in net_juncs])[:-1],
            np.cumsum([0] + [len(j.outgoing) for j in net_juncs])[:-1],
        ]

        # dynamic exits (one in, two out) are diverge rows; _dyn_split
        # holds the flat indices of routing[dyn, :2, 0], their splits
        mode = [j.coefficient_mode for j in net_juncs] + [None] * len(ends)
        dyn = np.flatnonzero([mode[r] == "dynamic" for r in rows])
        self._dyn_split = np.ravel_multi_index((dyn[:, None], [0, 1], 0), self._routing.shape)
        # the initial splits, copied before the first step overwrites them
        self._dyn_initial = self._routing.flat[self._dyn_split]
        dynamic = [net_juncs[rows[p]] for p in dyn]
        self._dyn_ids = [j.id for j in dynamic]
        exit_col = np.array([j.outgoing.index(j.exit_arc) for j in dynamic], dtype=np.intp)
        self._dyn_exit_mask = exit_col[:, None] == [0, 1]
        self._dyn_takes_marked = np.array([j.exit_tracer == 1.0 for j in dynamic], dtype=bool)
        self._dyn_in_cell = self._in_cell[dyn, 0]
        self._dyn_in_iface = self._in_iface[dyn, 0]
        self._dyn_exit_iface = self._out_iface[dyn, exit_col]
        self._dyn_other_iface = self._out_iface[dyn, 1 - exit_col]
        bc_by_arc = {bc.arc_id: bc for bc in net.boundary_conditions}
        return [bc_by_arc[self.arc_ids[k]] for k in sources]

    def _check_interface_cover(self):
        # the interior write F[1:n] then the table's first faces and ends
        cover = np.zeros(self.total_ifaces + 1, dtype=int)
        cover[1 : self.total_cells] = 1
        cover[self.arc_first_iface] = 0
        for arr in (self._in_iface, self._out_iface):
            np.add.at(cover, arr, 1)
        if not np.all(cover[:-1] == 1):
            raise AssertionError("internal layout error: interface not covered exactly once")

    # -- state -------------------------------------------------------------

    def init_state(self) -> SimState:
        """Empty network at t = 0 with the junctions' initial splits."""
        phi = np.full(self.total_cells, TRACER_PLACEHOLDER) if self._dyn_ids else None
        return SimState(
            time=0.0,
            step_count=0,
            rho=np.zeros(self.total_cells),
            phi=phi,
            exit_splits=self._dyn_initial.copy(),
        )

    def cells(self, state_array: np.ndarray, arc_id: str) -> np.ndarray:
        """Writable view of one arc's slice of a flat cell array."""
        k = self._arc_index[arc_id]
        return state_array[self.cell_offsets[k] : self.cell_offsets[k + 1]]

    def cell_centers(self, arc_id: str) -> np.ndarray:
        k = self._arc_index[arc_id]
        return self._arc_a[k] + (np.arange(self.n_cells[k]) + 0.5) * self.dx[k]

    def total_mass(self, state: SimState) -> float:
        return float(np.sum(state.rho * self.dx_cell))

    def stable_dt(self, cfl_number: float = 0.5) -> float:
        """cfl * min cell width / max wave speed."""
        if not 0.0 < cfl_number <= 1.0:
            raise ValueError("cfl_number must lie in (0, 1]")
        return cfl_number * float(np.min(self.dx)) / self.model.max_wave_speed

    # -- phase 1 -----------------------------------------------------------

    def compute_fluxes(self, state: SimState) -> FluxSnapshot:
        """One bulk flux (and tracer flux) per interface; read-only."""
        n = self.total_cells
        demand, supply = self.model.demand_and_supply(
            state.rho, out_demand=self._D[:n], out_supply=self._S[:n], check=False
        )
        # the last slot is the scratch interface; every left face gets the
        # interior rule, and the table overwrites each arc's first face
        F = np.empty(self.total_ifaces + 1)
        np.minimum(demand[:-1], supply[1:], out=F[1:n])

        # one kernel call per kind, then one routing formula for every row
        routing = self._routing
        routing.flat[self._dyn_split] = state.exit_splits
        d = self._D[self._in_cell]
        s = self._S[self._out_cell]
        gamma = self._gamma  # its padding columns stay 0
        for rows, kernel, n_in, n_out in self._kinds:
            gamma[rows, :n_in] = kernel(d[rows, :n_in], s[rows, :n_out], routing[rows, :n_out, :n_in])
        F[self._in_iface] = gamma
        F[self._out_iface] = np.einsum("bji,bi->bj", routing, gamma)

        Fphi = splits = None
        if state.phi is not None:
            Fphi = self._tracer_fluxes(state, F)[:-1]
            # the next splits follow the clipped donor tracer that crossed
            # each dynamic exit, by the rule of dynamic_exit_coefficients
            donor = self._phi[self._dyn_in_cell]
            to_exit = np.where(self._dyn_takes_marked, donor, 1.0 - donor)[:, None]
            fresh = np.where(self._dyn_exit_mask, to_exit, 1.0 - to_exit)
            arrived = F[self._dyn_in_iface] >= EPS_FLUX
            splits = np.where(arrived[:, None], fresh, state.exit_splits)
        return FluxSnapshot(
            fluxes=F[:-1],
            tracer_fluxes=Fphi,
            exit_splits=splits,
            inflow_total=float(np.add.reduce(F[self._inflow_iface])),
            outflow_total=float(np.add.reduce(F[self._outflow_iface])),
        )

    def _tracer_fluxes(self, state: SimState, F: np.ndarray) -> np.ndarray:
        """Tracer mass flux per interface, the scratch interface last.

        Bulk flux times donor value: flow never runs backwards, so the
        donor inside an arc is the cell on the left.  A table row takes
        its admitted flux _gamma (F is scratch on a reservoir's side)
        times the tracer of each incoming cell or slot.  Rows mix in
        proportion to routed flux; dynamic exits then sort by destination.
        """
        n = self.total_cells
        phi = self._phi
        cells = phi[:n]
        np.minimum(np.maximum(state.phi, 0.0, out=cells), 1.0, out=cells)
        Fphi = np.empty(self.total_ifaces + 1)
        np.multiply(F[1:n], cells[:-1], out=Fphi[1:n])

        per_in = self._gamma * phi[self._in_cell]
        Fphi[self._in_iface] = per_in
        Fphi[self._out_iface] = np.minimum(np.einsum("bji,bi->bj", self._routing, per_in), F[self._out_iface])

        m = F[self._dyn_in_iface] * phi[self._dyn_in_cell]
        bulk_exit = F[self._dyn_exit_iface]
        unmarked = F[self._dyn_in_iface] - m
        to_exit = np.where(
            self._dyn_takes_marked,
            np.minimum(m, bulk_exit),
            np.maximum(bulk_exit - unmarked, 0.0),
        )
        to_exit = np.minimum(to_exit, m)
        Fphi[self._dyn_exit_iface] = to_exit
        Fphi[self._dyn_other_iface] = np.minimum(m - to_exit, F[self._dyn_other_iface])
        return Fphi

    # -- phase 2 -----------------------------------------------------------

    def _lambda(self, dt: float) -> np.ndarray:
        key, arr = self._lam_cache
        if key != dt:
            arr = dt / self.dx_cell
            self._lam_cache = (dt, arr)
        return arr

    def apply(self, state: SimState, snap: FluxSnapshot, dt: float, inplace: bool = False) -> SimState:
        """Phase 2: advance state by dt using a snapshot of its fluxes.

        Cell c lies between faces c and c + 1, except an arc's last cell,
        whose right face is its arc's end: the flux divergence is one
        contiguous difference, then one per arc.  The snapshot's exit
        splits replace the state's.  Works in the cell buffer every
        network has; the tracer update allocates its own.  NaN fails both
        range checks; a failed tracer check leaves state half updated.
        """
        out = state if inplace else state.copy()
        lam = self._lambda(dt)
        n, last = self.total_cells, self._arc_last_cell

        F = snap.fluxes
        rho_new = np.subtract(F[1 : n + 1], F[:n], out=self._work)
        rho_new[last] = F[n:] - F[last]
        np.multiply(rho_new, lam, out=rho_new)
        np.subtract(out.rho, rho_new, out=rho_new)

        lo, hi = np.minimum.reduce(rho_new), np.maximum.reduce(rho_new)
        if not (lo >= -DENSITY_TOL and hi <= self.model.rho_max + DENSITY_TOL):
            raise SimulationError(
                f"density left [0, {self.model.rho_max}] at t={state.time:.6g} "
                f"(range [{lo:.3e}, {hi:.3e}]); check the CFL number"
            )

        if out.phi is not None:
            Fphi = snap.tracer_fluxes
            mu = Fphi[1 : n + 1] - Fphi[:n]
            mu[last] = Fphi[n:] - Fphi[last]
            np.multiply(mu, lam, out=mu)
            np.subtract(out.rho * out.phi, mu, out=mu)
        np.minimum(np.maximum(rho_new, 0.0, out=out.rho), self.model.rho_max, out=out.rho)
        if out.phi is not None:
            heavy = out.rho > EPS_MASS
            out.phi[:] = TRACER_PLACEHOLDER
            np.divide(mu, out.rho, out=out.phi, where=heavy)
            # the placeholder lies inside [0, 1], so light cells never
            # change the verdict; a full reduction is 3x faster than where=
            lo, hi = np.minimum.reduce(out.phi), np.maximum.reduce(out.phi)
            if not (lo >= -_TRACER_SLACK and hi <= 1.0 + _TRACER_SLACK):
                raise SimulationError(
                    f"tracer left [0, 1] at t={state.time:.6g} (range [{lo:.3e}, {hi:.3e}])"
                )
            np.minimum(np.maximum(out.phi, 0.0, out=out.phi), 1.0, out=out.phi)
        if snap.exit_splits is not None:
            out.exit_splits[:] = snap.exit_splits

        out.time = state.time + dt
        out.step_count = state.step_count + 1
        return out

    def step(self, state: SimState, dt: float) -> SimState:
        """One two-phase step, compute_fluxes then apply; returns a new state.

        dt must respect the CFL bound stable_dt(1.0).
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if dt > self.stable_dt(1.0) * (1.0 + 1e-12):
            raise SimulationError(
                f"dt={dt:.6g} violates the CFL bound {self.stable_dt(1.0):.6g}"
            )
        return self.apply(state, self.compute_fluxes(state), dt)

    # -- diagnostics ---------------------------------------------------------

    def junction_balance_residuals(self, snap: FluxSnapshot) -> dict[str, float]:
        """Per-junction |sum incoming - sum outgoing| boundary flux."""
        inflow = np.add.reduceat(snap.fluxes[self._balance_in], self._balance_at[0])
        outflow = np.add.reduceat(snap.fluxes[self._balance_out], self._balance_at[1])
        return dict(zip(self._junction_ids, np.abs(inflow - outflow).tolist()))

    def arc_boundary_fluxes(self, snap: FluxSnapshot) -> np.ndarray:
        """Downstream interface flux of every arc, in arc order."""
        return snap.fluxes[self.arc_last_iface]

    def _stepped_junctions(self, n_samples: int) -> tuple[dict, dict]:
        """Each junction's (incoming, outgoing) arc ids and routing as stepped.

        Both come from the balance check's arc lists and the junction
        table, not from the network.  A routing matrix is one read-only
        view broadcast over the n_samples samples, (n_samples, n_out,
        n_in), its columns back in network order; a dynamic junction's
        entry is its current split, which run replaces.
        """
        # each junction's arcs: arc k ends at interface total_cells + k
        # and starts at the first face of its cells
        ins = self._balance_in - self.total_cells
        outs = np.searchsorted(self.arc_first_iface, self._balance_out)
        # the table row, and the column in priority order, of each incoming arc
        at = np.empty(len(self.arc_ids) + 1, dtype=np.intp)
        at[self._in_iface.ravel() - self.total_cells] = np.arange(self._in_iface.size)
        row, col = np.divmod(at[ins], self._in_iface.shape[1])
        columns = self._routing[row, :, col]
        ids, ins, outs = self.arc_ids, ins.tolist(), outs.tolist()
        in_at = self._balance_at[0].tolist() + [len(ins)]
        out_at = self._balance_at[1].tolist() + [len(outs)]
        arcs, coefficients = {}, {}
        for k, jid in enumerate(self._junction_ids):
            a, b, c, d = in_at[k], in_at[k + 1], out_at[k], out_at[k + 1]
            arcs[jid] = ([ids[i] for i in ins[a:b]], [ids[o] for o in outs[c:d]])
            coefficients[jid] = np.broadcast_to(columns[a:b, : d - c].T, (n_samples, d - c, b - a))
        return arcs, coefficients

    # -- driver --------------------------------------------------------------

    def run(self, config: SimConfig) -> RunResult:
        """March to t_end, sampling states, fluxes, splits on the way.

        The clock counts steps, times within 1e-9 dt being equal: step k
        ends at (k + 1) * dt, the last at t_end.  Sample j is the first
        state at or after j * sample_interval, and carries that time
        when a step ends there.  A run of more than MAX_STEPS steps is
        refused with an InvalidInputError before the first step.

        compute_fluxes reads only the state: the reservoir slots and the
        tables are fixed when the Simulator is built, and every work
        buffer is rewritten from the state each step.  With dt fixed, a
        full step that leaves rho, phi and the exit splits (in static
        mode once the initial splits are put back) bit for bit as they
        were returns that same snapshot and state forever after.  The
        step that follows each sample is checked for this; once it
        holds, every later full step reuses the last snapshot and keeps
        only its bookkeeping: the clock, the samples, the arrival check,
        the boundary integral and the step count.  A short last step is
        computed.  summary["fixed_point_time"] is the time of that
        sample, or None.  A boundary condition that varies in time
        breaks the premise and must end the replay.
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
        fixed_point_time = None  # of the first sample a full step left as it was
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
            last = k == n_steps - 1
            step_dt = last_dt if last else dt
            replay = fixed_point_time is not None and step_dt == dt
            if not replay:
                snap = self.compute_fluxes(state)
            due = next_sample * config.sample_interval
            sampled = state.time >= due - eps
            if sampled:
                record(snap, due if state.time <= due + eps else state.time)
                next_sample = math.floor((state.time + eps) / config.sample_interval) + 1
            if replay:
                state.step_count += 1
            else:
                held = _state_bytes(state) if sampled and step_dt == dt else None
                self.apply(state, snap, step_dt, inplace=True)
                if not update:
                    state.exit_splits[:] = initial_splits
                if held is not None and _state_bytes(state) == held:
                    fixed_point_time = times[-1]
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
            "fixed_point_time": fixed_point_time,
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

