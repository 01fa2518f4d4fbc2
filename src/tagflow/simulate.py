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
solved by one kernel call per group: a reservoir's row admits
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
    """Sampled trajectory of a run plus summary figures.

    times, arc_fluxes, density and tracer are the filled leading rows of
    the arrays run allocated before its first step, views with no copy.
    """

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
    junction, reservoir and sink end as one row of one table, in groups
    of one kind and width class, each padded only to its own widest row.
    A step gathers every group's slots in one call, solves each group in
    one call to its kind's kernel in junctions.KERNELS, routes the bulk
    flux, and then the tracer's, in one call over every row's real
    routing entries, and scatters every group's fluxes in one call.
    Instances hold no per-run state and may be shared across runs, but
    one SimState must only ever be advanced by one thread at a time.  A
    Simulator keeps no network: the cell layout, the junctions' ids,
    arcs and distributions, the table and the initial splits are copied
    when it is built, and states, steps, cell centres and run results
    read only those copies, so a later edit of the network changes none
    of them.

    Work buffers: demand and supply over the cells and the reservoir
    and outlet slots, the table's gathered demands and supplies and
    admitted fluxes, and the cells' flux differences; only a network with
    a tracer adds the clipped tracer, over the cells and slots.
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
        rho_bar = np.array([bc.rho_bar for bc in reservoirs])
        self._D = np.concatenate([head, self.model.demand(rho_bar), [0.0]])
        self._S = np.concatenate([head, np.zeros(len(reservoirs)), [np.inf]])
        tracer = [bc.tracer_in for bc in reservoirs]
        self._phi = np.concatenate([head, tracer, [0.0]]) if self._dyn_ids else None
        self._work = np.empty(self.total_cells)
        self._dx_cells = float(self.dx[0]) if np.all(self.dx == self.dx[0]) else self.dx_cell

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

        Rows are grouped by kind and, within a kind, by the width class
        of their n_in and of their n_out (widths 1 to 4, then each power
        of two up to the next), each group in network order.  A group of
        B rows is padded to its own widest row, (n_in, n_out), at most
        twice as wide as any of its rows past width 4, so the table grows
        with its real slots.  in_cell and in_iface are flat, B * n_in
        entries per group, each row's incoming arcs in priority order;
        out_cell and out_iface hold B * n_out per group, and routing B *
        n_out * n_in, zero in the padding and exactly 1 on a merge's row.
        Each group reads its entries as contiguous (B, n_in), (B, n_out)
        and (B, n_out, n_in) views.  Padding points at the dead cell,
        whose demand, supply and tracer stay 0, and the scratch interface.
        The real routing entries, a row's own arcs, are listed once by row,
        out-slot, then priority column: e_r, e_in and e_out hold each
        one's flat routing index, in-slot and out-slot, which _route reads.
        The dynamic exits are diverge rows; exit_splits lists them in
        network order.

        The build reads every junction's arcs, widths, priorities and
        distribution once, into flat arrays, and then makes the same
        numpy calls whatever the number of rows or groups.  Two stable
        sorts, by -priority and then by row, put each row's incoming arcs
        in priority order with position breaking ties, as priority_order
        does.  A row's kind comes from its widths: one incoming arc makes
        a diverge, and otherwise one outgoing arc a merge, whose entries
        validate has checked to lie within the column tolerance of 1, as
        classify requires, and are set to exactly 1.  Every real routing
        entry is then placed from its row's offsets, with its value taken
        from the distribution; the balance check and a run's report slice
        the junctions' arcs and distribution in network order, not the table.
        """
        idx = self._arc_index
        net_juncs = net.junctions
        n_arcs, n_juncs = len(self.arc_ids), len(net_juncs)
        # every junction's arcs, widths, priorities and distribution, read
        # in one pass
        incoming = [idx[a] for j in net_juncs for a in j.incoming]
        outgoing = [idx[a] for j in net_juncs for a in j.outgoing]
        # sources are fed by no junction and sinks drain into none; arc
        # n_arcs stands for the dead cell and n_arcs + 1 + s for slot
        # total_cells + s, so a reservoir's row runs from its slot into its
        # source arc, and a sink's row from its arc into the outlet
        fed, drained = set(outgoing), set(incoming)
        sources = [k for k in range(n_arcs) if k not in fed]
        sinks = [k for k in range(n_arcs) if k not in drained]
        outlet = n_arcs + 1 + len(sources)
        in_arc = np.array(incoming + list(range(n_arcs + 1, outlet)) + sinks, dtype=np.intp)
        out_arc = np.array(outgoing + sources + [outlet] * len(sinks), dtype=np.intp)
        one = [1] * (len(sources) + len(sinks))  # per reservoir and sink row
        n_in = [len(j.incoming) for j in net_juncs] + one
        n_out = [len(j.outgoing) for j in net_juncs] + one
        widest = max(n_in + n_out)
        counts = np.array([n_in, n_out, [i * o for i, o in zip(n_in, n_out)]], dtype=np.intp)
        priority = np.concatenate([j.priority for j in net_juncs] + [one], dtype=float)
        distribution = np.concatenate([j.distribution for j in net_juncs] + [one], axis=None, dtype=float)
        widths = counts[:2]
        n_rows = len(n_in)
        # by row in network order: its first incoming arc, outgoing arc
        # and distribution entry
        at = counts.cumsum(axis=1) - counts
        # each row's incoming arcs in priority order, position breaking
        # ties: a lexsort by row, then -priority, as two stable sorts
        order = (-priority).argsort(kind="stable")
        order = order[np.arange(n_rows).repeat(counts[0])[order].argsort(kind="stable")]

        # each row's kind, an index into kinds: 0 with one incoming arc,
        # else 1 with one outgoing arc, else 2
        kinds = ["diverge", "merge", "general"]
        many_in, many_out = np.minimum(widths, 2) - 1
        kind = many_in * (1 + many_out)
        # a merge routes exactly 1.0 from each incoming arc; the table and
        # the run's report both read it from here
        distribution[(kind == kinds.index("merge")).repeat(counts[2])] = 1.0
        # width classes: 1 to 4, 5 to 8, 9 to 16, ..., counted by the bounds below a width
        width_class = np.zeros(widths.shape, dtype=np.intp)
        bound = 4
        while bound < widest:
            width_class += widths > bound
            bound *= 2
        group = (kind * 64 + width_class[0]) * 64 + width_class[1]  # classes stay below 64
        # every valid network has a row: an arc is fed by a junction or a reservoir
        rows = group.argsort(kind="stable")
        keys = group[rows]
        # a group starts where the sorted key changes
        starts = [0, *((keys[1:] != keys[:-1]).nonzero()[0] + 1).tolist()]
        sizes = [b - a for a, b in zip(starts, starts[1:] + [n_rows])]
        # by row in table order: its widths and real routing entries, and
        # its group's widths, those of the group's widest row
        t_counts = counts[:, rows]
        t_in, t_size = t_counts[0], t_counts[2]
        pad = np.maximum.reduceat(t_counts[:2], starts, axis=1)
        pad_in, pad_out = pad.repeat(sizes, axis=1)
        # and its first in-slot, out-slot, routing entry and real routing
        # entry; then all that its entries read of it
        slots = np.array([pad_in, pad_out, pad_in * pad_out, t_size])
        ends = slots.cumsum(axis=1)
        first = ends - slots
        n_in_slots, n_out_slots, n_entries, _ = ends[:, -1].tolist()
        per_row = np.concatenate([first[:3], [pad_in, first[3], t_in], at[:, rows]])
        # each real routing entry, by row, out-slot o, then priority column k
        first_in, first_out, first_r, stride, entry_at, w_in, arc_at, arc_out_at, dist_at = per_row.repeat(t_size, axis=1)
        j = np.arange(entry_at.size) - entry_at
        o = j // w_in
        ow = o * w_in
        k = j - ow
        self._e_in = first_in + k
        self._e_out = first_out + o
        self._e_r = first_r + o * stride + k
        # the incoming arc, among all rows', that is its row's k-th
        ranked = order[arc_at + k]
        self._routing = np.zeros(n_entries)
        self._routing[self._e_r] = distribution[dist_at - arc_at + ow + ranked]
        # the entries of out-slot 0 name every in-slot once, and those of
        # priority column 0 every out-slot; padding is the dead cell
        in_arcs = np.full(n_in_slots, n_arcs, dtype=np.intp)
        lead = o == 0
        in_arcs[self._e_in[lead]] = in_arc[ranked[lead]]
        out_arcs = np.full(n_out_slots, n_arcs, dtype=np.intp)
        lead = k == 0
        out_arcs[self._e_out[lead]] = out_arc[(arc_out_at + o)[lead]]
        # by row in network order: its first in-slot, out-slot and routing
        # entry, and the stride of its routing rows; the dynamic exits read it
        base = np.empty((4, n_rows), dtype=np.intp)
        base[:, rows] = per_row[:4]

        # past the cells: the dead cell, a slot per reservoir, the outlet
        tail = self.total_cells + np.arange(len(sources) + 2)
        scratch = np.full(tail.size, self.total_ifaces)
        self._in_cell = np.concatenate([self._arc_last_cell, tail])[in_arcs]
        self._in_iface = np.concatenate([self.arc_last_iface, scratch])[in_arcs]
        self._out_cell = np.concatenate([self.arc_first_iface, tail])[out_arcs]
        self._out_iface = np.concatenate([self.arc_first_iface, scratch])[out_arcs]
        # the boundary totals sum in arc order
        self._inflow_iface = self.arc_first_iface[sources]
        self._outflow_iface = self.arc_last_iface[sinks]
        # the balance check and a run's report read each junction's own
        # arcs and distribution, in network order, not the table: its first
        # incoming arc, outgoing arc and distribution entry, and how many
        # (a ring has no reservoir or sink rows after its junctions')
        self._junction_ids = [j.id for j in net_juncs]
        self._junction_in, self._junction_out = in_arc[: len(incoming)], out_arc[: len(outgoing)]
        self._junction_at, self._junction_counts = at[:, :n_juncs], counts[:, :n_juncs]
        self._junction_dist = distribution[: counts[2, :n_juncs].sum()].copy()

        # dynamic exits (one in, two out) are diverge rows, in network
        # order; _dyn_split holds the flat indices of their splits in routing
        dyn = [k for k, j in enumerate(net_juncs) if j.coefficient_mode == "dynamic"]
        dynamic = [net_juncs[k] for k in dyn]
        in_at, out_at, routing_at, stride = base[:, dyn]
        self._dyn_split = routing_at[:, None] + stride[:, None] * np.arange(2)
        # the initial splits, copied before the first step overwrites them
        self._dyn_initial = self._routing[self._dyn_split]
        self._dyn_ids = [j.id for j in dynamic]
        exit_col = np.array([j.outgoing.index(j.exit_arc) for j in dynamic], dtype=np.intp)
        self._dyn_exit_mask = exit_col[:, None] == [0, 1]
        self._dyn_takes_marked = np.array([j.exit_tracer == 1.0 for j in dynamic], dtype=bool)
        self._dyn_in_cell = self._in_cell[in_at]
        self._dyn_in_iface = self._in_iface[in_at]
        self._dyn_exit_iface = self._out_iface[out_at + exit_col]
        self._dyn_other_iface = self._out_iface[out_at + 1 - exit_col]

        # the slots each step gathers and solves; a group reads and writes
        # contiguous views
        self._d, self._gamma = np.empty(n_in_slots), np.empty(n_in_slots)
        self._s = np.empty(n_out_slots)
        self._groups = []
        for g, b, w_in, w_out, i, o, r in zip(keys[starts].tolist(), sizes, *pad.tolist(), *first[:3, starts].tolist()):
            ins, outs = slice(i, i + b * w_in), slice(o, o + b * w_out)
            routing = self._routing[r : r + b * w_out * w_in].reshape(b, w_out, w_in)
            d, gamma = self._d[ins].reshape(b, w_in), self._gamma[ins].reshape(b, w_in)
            s = self._s[outs].reshape(b, w_out)
            self._groups.append((_junctions.KERNELS[kinds[g // 64**2]], d, s, routing, gamma))
        bc_by_arc = {bc.arc_id: bc for bc in net.boundary_conditions}
        return [bc_by_arc[self.arc_ids[k]] for k in sources]

    def _check_interface_cover(self):
        # every interface is written once: the interior rule writes each
        # cell's left face but an arc's first, the table those and the ends
        cover = np.bincount(np.concatenate([self._in_iface, self._out_iface]), minlength=self.total_ifaces + 1)
        cover[1 : self.total_cells] += 1
        cover[self.arc_first_iface[1:]] -= 1
        if np.count_nonzero(cover[:-1] != 1):
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

        # one gather, a kernel call per group, one routing, one scatter;
        # take's clip mode skips a bounds check the layout makes needless
        self._routing[self._dyn_split] = state.exit_splits
        self._D.take(self._in_cell, out=self._d, mode="clip")
        self._S.take(self._out_cell, out=self._s, mode="clip")
        for kernel, d, s, routing, gamma in self._groups:
            gamma[...] = kernel(d, s, routing)
        F[self._in_iface] = self._gamma
        F[self._out_iface] = self._route(self._gamma)

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

    def _route(self, per_in: np.ndarray) -> np.ndarray:
        """Flux per out-slot: routing times per_in over the real entries.

        An out-slot adds its row's incoming arcs one at a time, in priority
        order from 0.0, so its bits do not depend on the row's group or
        padding.  A padded out-slot gets 0.
        """
        w = self._routing.take(self._e_r, mode="clip")
        np.multiply(w, per_in.take(self._e_in, mode="clip"), out=w)
        return np.bincount(self._e_out, weights=w, minlength=self._s.size)

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

        per_in = self._gamma * phi.take(self._in_cell, mode="clip")
        Fphi[self._in_iface] = per_in
        Fphi[self._out_iface] = np.minimum(self._route(per_in), F[self._out_iface])

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
        lam = dt / self._dx_cells  # one float when every arc has the same dx
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
        # the upper clip can only change a value above rho_max, and -0.0
        # comes out +0.0 from the lower one
        np.maximum(rho_new, 0.0, out=out.rho)
        if hi > self.model.rho_max:
            np.minimum(out.rho, self.model.rho_max, out=out.rho)
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
            np.maximum(out.phi, 0.0, out=out.phi)
            if hi > 1.0:
                np.minimum(out.phi, 1.0, out=out.phi)
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
        inflow = np.add.reduceat(snap.fluxes[self.arc_last_iface[self._junction_in]], self._junction_at[0])
        outflow = np.add.reduceat(snap.fluxes[self.arc_first_iface[self._junction_out]], self._junction_at[1])
        return dict(zip(self._junction_ids, np.abs(inflow - outflow).tolist()))

    def arc_boundary_fluxes(self, snap: FluxSnapshot) -> np.ndarray:
        """Downstream interface flux of every arc, in arc order."""
        return snap.fluxes[self.arc_last_iface]

    def _stepped_junctions(self, n_samples: int) -> tuple[dict, dict]:
        """Each junction's (incoming, outgoing) arc ids and routing as stepped.

        Both are slices of the network-order copies the build kept, not
        of the network.  A routing matrix is one read-only view broadcast
        over the n_samples samples, (n_samples, n_out, n_in), exactly 1 on
        a merge; a dynamic junction's entry is its initial split, which
        run replaces.
        """
        ids, ins, outs = self.arc_ids, self._junction_in.tolist(), self._junction_out.tolist()
        rows = zip(self._junction_ids, *self._junction_at.tolist(), *self._junction_counts.tolist())
        # one broadcast for all junctions: numpy's per-call cost dwarfs a slice
        samples = np.broadcast_to(self._junction_dist, (n_samples, self._junction_dist.size))
        arcs, coefficients = {}, {}
        for jid, a, b, e, n_in, n_out, size in rows:
            arcs[jid] = ([ids[i] for i in ins[a : a + n_in]], [ids[o] for o in outs[b : b + n_out]])
            coefficients[jid] = samples[:, e : e + size].reshape(n_samples, n_out, n_in)
        return arcs, coefficients

    # -- driver --------------------------------------------------------------

    def run(self, config: SimConfig) -> RunResult:
        """March to t_end, sampling states, fluxes, splits on the way.

        The clock counts steps, times within 1e-9 dt being equal: step k
        ends at (k + 1) * dt, the last at t_end.  Sample j is the first
        state at or after j * sample_interval, and carries that time
        when a step ends there.  A run of more than MAX_STEPS steps is
        refused with an InvalidInputError before the first step.

        The history is allocated once, before the first step, with a row
        for every sample the run can take: at most one per step and one
        per sample time, plus the closing sample.  Each sample is written
        into its own row, rows never written are never touched, and the
        result holds the filled leading rows.

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

        # at most one sample per step and one per sample time, plus the closing one
        rows = min(n_steps, math.floor((config.t_end + eps) / config.sample_interval) + 1) + 1
        times = np.empty(rows)
        flux_rows = np.empty((rows, len(self.arc_ids)))
        split_rows = np.empty((rows, *state.exit_splits.shape))
        density_rows = np.empty((rows, state.rho.size)) if config.record_profiles else None
        tracer_rows = None if density_rows is None or state.phi is None else np.empty((rows, state.phi.size))
        n_samples = 0
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
            nonlocal n_samples
            times[n_samples] = t
            flux_rows[n_samples] = self.arc_boundary_fluxes(snap)
            split_rows[n_samples] = state.exit_splits
            if density_rows is not None:
                density_rows[n_samples] = state.rho
            if tracer_rows is not None:
                tracer_rows[n_samples] = state.phi
            n_samples += 1

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
                    state.exit_splits[:] = self._dyn_initial
                if held is not None and _state_bytes(state) == held:
                    fixed_point_time = float(times[n_samples - 1])
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

        times, flux_rows, split_rows = times[:n_samples], flux_rows[:n_samples], split_rows[:n_samples]
        equilibrium_time = detect_equilibrium(
            times, flux_rows, config.equilibrium_window, config.equilibrium_tol
        )
        final_fluxes = {
            arc_id: float(flux_rows[-1, k]) for k, arc_id in enumerate(self.arc_ids)
        }
        junction_arcs, coefficients = self._stepped_junctions(n_samples)
        for k, jid in enumerate(self._dyn_ids):
            coefficients[jid] = split_rows[:, k, :, None].copy()
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
            times=times,
            arc_fluxes=flux_rows,
            coefficients=coefficients,
            density=None if density_rows is None else density_rows[:n_samples],
            tracer=None if tracer_rows is None else tracer_rows[:n_samples],
            first_arrival_coefficients=first_arrival,
            equilibrium_time=equilibrium_time,
            summary=summary,
        )

