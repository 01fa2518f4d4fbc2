"""Time-stepping engine for tag flow on a network.

First-order finite-volume updates per arc, demand/supply coupling at
junctions, reservoir inflows, absorbing outflows, destination-tracer
transport, and steady-state detection.

Every step has two phases.  Phase 1 is read-only: one flux per cell
interface is computed, using the interface rule inside arcs, the
junction allocation at arc ends, min(reservoir demand, first-cell
supply) at sources and the last cell's demand at sinks.  Phase 2 applies
the conservative update to every cell, transports tracer mass with the
donor-cell value of each flux, and refreshes the dynamic exit splits
from the composition that actually arrived.  Nothing in phase 2 feeds
back into phase 1 of the same step, so cell updates are order-free.

The state is arrays only: density and tracer per cell, one exit split
per dynamic junction.  Simulator.run is the one time loop.

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
from .flux import FluxModel
from .network import Junction, Network

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

_DENSITY_SLACK = 1e-12
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
            raise ValueError("cfl_number must lie in (0, 1]")
        if not 0.0 < self.t_end < np.inf:
            raise ValueError("t_end must be positive and finite")
        if not self.sample_interval > 0.0:
            raise ValueError("sample_interval must be positive")
        if not (self.equilibrium_window > 0.0 and self.equilibrium_tol > 0.0):
            raise ValueError("equilibrium window and tolerance must be positive")
        if self.coefficient_mode not in ("network", "static"):
            raise ValueError("coefficient_mode must be 'network' or 'static'")


@dataclass
class SimState:
    """Mutable per-cell state: clock, densities, tracer, current exit splits.

    rho and phi are flat arrays over all cells in arc order (phi is None
    on networks without dynamic junctions).  exit_splits is (n_dynamic,
    2): one row per dynamic junction in network order, its columns in
    that junction's outgoing order.  Static splits live on the network.
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
    """Phase-1 output: one bulk (and tracer) flux per cell interface."""

    fluxes: np.ndarray
    tracer_fluxes: np.ndarray | None
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
    coefficients: dict[str, np.ndarray]  # junction -> (n_samples, n_out, n_in)
    density: np.ndarray | None  # (n_samples, total_cells)
    tracer: np.ndarray | None
    first_arrival_coefficients: dict[str, tuple[float, np.ndarray]]
    equilibrium_time: float | None
    summary: dict

    def flux_of(self, arc_id: str) -> np.ndarray:
        return self.arc_fluxes[:, self.arc_ids.index(arc_id)]


@dataclass
class _JunctionGroup:
    """Junctions stacked one per row: diverges and merges of one
    (n_in, n_out), or every general junction.

    The cell and interface arrays are (B, n_in) and (B, n_out), with
    incoming columns in priority order.  The general group is padded to
    its widest junction; in_real and out_real are True at the real arcs,
    and the padding points at arc 0, so it must be masked out of every
    write.  split is the current (B, n_out) routing of a diverge group;
    its row dynamic[k] is exit_splits[k].  Dynamic junctions are all
    one-in, two-out diverges, so they share one group, the only one
    whose dynamic is not None.  distribution is the (B, n_out, n_in)
    routing of the general group, in priority order and zero in the
    padding.
    """

    kind: str
    in_cell: np.ndarray
    in_iface: np.ndarray
    out_cell: np.ndarray
    out_iface: np.ndarray
    in_real: np.ndarray
    out_real: np.ndarray
    split: np.ndarray | None = None
    dynamic: np.ndarray | None = None
    distribution: np.ndarray | None = None


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


class Simulator:
    """Stepping engine bound to one validated network.

    Construction flattens all arcs into one cell array and stacks
    junctions into groups, each solved in one batched call per step:
    diverges and merges of one (n_in, n_out) by junctions.diverge and
    junctions.merge in closed form, and every general junction, padded
    to the widest, by one junctions.general simplex.  Instances hold no
    per-run state and may be shared across runs, but one SimState must
    only ever be advanced by one thread at a time.
    """

    def __init__(self, net: Network):
        report = net.validate()
        if report:
            raise ValueError("invalid network: " + "; ".join(report))
        self.net = net
        self.model: FluxModel = net.model

        arcs = net.arcs
        self.arc_ids = [a.id for a in arcs]
        self._arc_index = {a: i for i, a in enumerate(self.arc_ids)}
        n_cells = np.array([a.n_cells for a in arcs], dtype=np.intp)
        self.n_cells = n_cells
        self.cell_offsets = np.concatenate([[0], np.cumsum(n_cells)])
        self.total_cells = int(self.cell_offsets[-1])
        self.dx = np.array([a.dx for a in arcs])
        self.dx_cell = np.repeat(self.dx, n_cells)

        arc_of_cell = np.repeat(np.arange(len(arcs), dtype=np.intp), n_cells)
        # interfaces of arc k occupy [cell_offsets[k] + k, ... + n_cells[k]]
        self._left_iface = np.arange(self.total_cells, dtype=np.intp) + arc_of_cell
        self._right_iface = self._left_iface + 1
        self.total_ifaces = self.total_cells + len(arcs)

        interior = np.nonzero(arc_of_cell[:-1] == arc_of_cell[1:])[0]
        self._int_left_cell = interior
        self._int_right_cell = interior + 1
        self._int_iface = self._right_iface[interior]

        first_cell = self.cell_offsets[:-1]
        last_cell = self.cell_offsets[1:] - 1
        self.arc_first_iface = self._left_iface[first_cell]
        self.arc_last_iface = self._right_iface[last_cell]
        self._arc_first_cell = first_cell
        self._arc_last_cell = last_cell

        self._build_boundaries()
        self._build_junction_classes()
        self.tracer_enabled = any(j.coefficient_mode == "dynamic" for j in net.junctions)
        self._check_interface_cover()

        # work buffers for the hot path; these make compute_fluxes/apply
        # non-reentrant, so a Simulator must not step from two threads
        self._D = np.empty(self.total_cells)
        self._S = np.empty(self.total_cells)
        self._adj = np.empty(max(self.total_cells - 1, 0))
        self._iface_diff = np.empty(max(self.total_ifaces - 1, 0))
        self._work = np.empty(self.total_cells)
        self._lam_cache: tuple[float | None, np.ndarray | None] = (None, None)

    # -- layout ------------------------------------------------------------

    def _build_boundaries(self):
        src, snk = [], []
        for k, arc in enumerate(self.net.arcs):
            if self.net.upstream_junction(arc.id) is None:
                src.append(k)
            if self.net.downstream_junction(arc.id) is None:
                snk.append(k)
        src = np.array(src, dtype=np.intp)
        snk = np.array(snk, dtype=np.intp)
        self._src_cell = self._arc_first_cell[src]
        self._src_iface = self.arc_first_iface[src]
        self._snk_cell = self._arc_last_cell[snk]
        self._snk_iface = self.arc_last_iface[snk]
        caps, tracers = [], []
        for k in src:
            bc = self.net.bc_for(self.net.arcs[k].id)
            caps.append(self.model.demand(bc.rho_bar))
            tracers.append(bc.tracer_in)
        self._src_cap = np.array(caps)
        self._src_tracer = np.array(tracers)

    def _build_junction_classes(self):
        idx = self._arc_index
        members: dict[tuple[str, int, int], list] = {}
        self._diagnostics = []
        for junc in self.net.junctions:
            in_arcs = [idx[a] for a in junc.incoming]
            out_arcs = [idx[a] for a in junc.outgoing]
            self._diagnostics.append(
                (junc.id, self.arc_last_iface[in_arcs], self.arc_first_iface[out_arcs])
            )
            kind = _junctions.classify(junc.distribution)
            if kind != "diverge":
                in_arcs = [in_arcs[i] for i in _junctions.priority_order(junc.priority)]
            # one simplex call solves general junctions of every shape
            key = (kind, 0, 0) if kind == "general" else (kind, len(in_arcs), len(out_arcs))
            members.setdefault(key, []).append((junc, in_arcs, out_arcs))

        def padded(lists):
            """(B, widest) arc indices, padded with arc 0, and the real-arc mask."""
            lengths = [len(arcs) for arcs in lists]
            width = max(lengths)
            table = np.array([arcs + [0] * (width - len(arcs)) for arcs in lists], dtype=np.intp)
            return table, np.arange(width) < np.array(lengths)[:, None]

        self._groups: list[_JunctionGroup] = []
        for (kind, _, _), rows in members.items():
            juncs = [j for j, _, _ in rows]
            ins, in_real = padded([i for _, i, _ in rows])
            outs, out_real = padded([o for _, _, o in rows])
            group = _JunctionGroup(
                kind=kind,
                in_cell=self._arc_last_cell[ins],
                in_iface=self.arc_last_iface[ins],
                out_cell=self._arc_first_cell[outs],
                out_iface=self.arc_first_iface[outs],
                in_real=in_real,
                out_real=out_real,
            )
            if kind == "diverge":
                group.split = np.stack([j.distribution[:, 0] for j in juncs])
                rows = [row for row, j in enumerate(juncs) if j.coefficient_mode == "dynamic"]
                if rows:
                    group.dynamic = np.array(rows, dtype=np.intp)
            elif kind == "general":
                group.distribution = np.zeros((len(juncs), outs.shape[1], ins.shape[1]))
                for row, j in enumerate(juncs):
                    n_out, n_in = j.distribution.shape
                    order = _junctions.priority_order(j.priority)
                    group.distribution[row, :n_out, :n_in] = j.distribution[:, order]
            self._groups.append(group)

        # dynamic exits (one in, two out), flat: entry, exit and other outlet
        dyn = [j for j in self.net.junctions if j.coefficient_mode == "dynamic"]

        def arcs(pick):
            return np.array([idx[pick(j)] for j in dyn], dtype=np.intp)

        entry = arcs(lambda j: j.incoming[0])
        self._dyn_junctions = dyn
        self._dyn_in_cell = self._arc_last_cell[entry]
        self._dyn_in_iface = self.arc_last_iface[entry]
        self._dyn_exit_iface = self.arc_first_iface[arcs(lambda j: j.exit_arc)]
        self._dyn_other_iface = self.arc_first_iface[
            arcs(lambda j: j.outgoing[1 - j.outgoing.index(j.exit_arc)])
        ]
        self._dyn_exit_col = np.array([j.outgoing.index(j.exit_arc) for j in dyn], dtype=np.intp)
        self._dyn_takes_marked = np.array([j.exit_tracer == 1.0 for j in dyn], dtype=bool)

    def _check_interface_cover(self):
        cover = np.zeros(self.total_ifaces, dtype=int)
        for arr in (self._int_iface, self._src_iface, self._snk_iface):
            np.add.at(cover, arr, 1)
        for g in self._groups:
            np.add.at(cover, g.in_iface[g.in_real], 1)
            np.add.at(cover, g.out_iface[g.out_real], 1)
        if not np.all(cover == 1):
            raise AssertionError("internal layout error: interface not covered exactly once")

    # -- state -------------------------------------------------------------

    def init_state(self) -> SimState:
        """Empty network at t = 0 with the junctions' initial splits."""
        phi = np.full(self.total_cells, TRACER_PLACEHOLDER) if self.tracer_enabled else None
        return SimState(
            time=0.0,
            step_count=0,
            rho=np.zeros(self.total_cells),
            phi=phi,
            exit_splits=np.array(
                [j.distribution[:, 0] for j in self._dyn_junctions]
            ).reshape(-1, 2),
        )

    def cells(self, state_array: np.ndarray, arc_id: str) -> np.ndarray:
        """Writable view of one arc's slice of a flat cell array."""
        k = self._arc_index[arc_id]
        return state_array[self.cell_offsets[k] : self.cell_offsets[k + 1]]

    def cell_centers(self, arc_id: str) -> np.ndarray:
        arc = self.net.arc(arc_id)
        return arc.a + (np.arange(arc.n_cells) + 0.5) * arc.dx

    def total_mass(self, state: SimState) -> float:
        return float(np.sum(state.rho * self.dx_cell))

    def stable_dt(self, cfl_number: float = 0.5) -> float:
        """cfl * min cell width / max wave speed."""
        if not 0.0 < cfl_number <= 1.0:
            raise ValueError("cfl_number must lie in (0, 1]")
        if self.total_cells == 0:
            raise ValueError("network has no cells")
        return cfl_number * float(np.min(self.dx)) / self.model.max_wave_speed

    # -- phase 1 -----------------------------------------------------------

    def compute_fluxes(self, state: SimState) -> FluxSnapshot:
        """One bulk flux (and tracer flux) per interface; read-only."""
        rho = state.rho
        demand, supply = self.model.demand_and_supply(
            rho, out_demand=self._D, out_supply=self._S, check=False
        )
        F = np.empty(self.total_ifaces)

        if self.total_cells > 1:
            adjacent = np.minimum(demand[:-1], supply[1:], out=self._adj)
            F[self._int_iface] = adjacent[self._int_left_cell]
        F[self._src_iface] = np.minimum(self._src_cap, supply[self._src_cell])
        F[self._snk_iface] = demand[self._snk_cell]

        for g in self._groups:
            d = demand[g.in_cell]
            s = supply[g.out_cell]
            if g.kind == "diverge":
                if g.dynamic is not None:
                    g.split[g.dynamic] = state.exit_splits
                gamma = _junctions.diverge(d[:, 0], s, g.split)
                F[g.in_iface[:, 0]] = gamma
                F[g.out_iface] = g.split * gamma[:, None]
            elif g.kind == "merge":
                gamma = _junctions.merge(d, s[:, 0])
                F[g.in_iface] = gamma
                F[g.out_iface[:, 0]] = gamma.sum(axis=1)
            else:
                # zero demand keeps the padding out of the simplex
                gamma = _junctions.general(d * g.in_real, s, g.distribution)
                F[g.in_iface[g.in_real]] = gamma[g.in_real]
                routed = np.einsum("bji,bi->bj", g.distribution, gamma)
                F[g.out_iface[g.out_real]] = routed[g.out_real]

        Fphi = self._tracer_fluxes(state, F) if state.phi is not None else None
        return FluxSnapshot(
            fluxes=F,
            tracer_fluxes=Fphi,
            inflow_total=float(np.sum(F[self._src_iface])),
            outflow_total=float(np.sum(F[self._snk_iface])),
        )

    def _tracer_fluxes(self, state: SimState, F: np.ndarray) -> np.ndarray:
        """Tracer mass flux per interface; bulk flux times donor value.

        Flow never runs backwards, so the donor of every in-arc
        interface is the cell (or reservoir, or junction mixture) on its
        left.
        """
        phi = np.clip(state.phi, 0.0, 1.0)
        Fphi = np.empty(self.total_ifaces)
        Fphi[self._int_iface] = F[self._int_iface] * phi[self._int_left_cell]
        Fphi[self._src_iface] = F[self._src_iface] * self._src_tracer
        Fphi[self._snk_iface] = F[self._snk_iface] * phi[self._snk_cell]

        for g in self._groups:
            per_in = F[g.in_iface] * phi[g.in_cell]
            if g.kind == "diverge":
                Fphi[g.in_iface] = per_in
                # static splits mix; dynamic exits sort by destination below
                Fphi[g.out_iface] = g.split * per_in
            elif g.kind == "merge":
                Fphi[g.in_iface] = per_in
                Fphi[g.out_iface[:, 0]] = per_in.sum(axis=1)
            else:
                # padded columns carry garbage, but their routing is zero
                Fphi[g.in_iface[g.in_real]] = per_in[g.in_real]
                mixed = np.minimum(np.einsum("bji,bi->bj", g.distribution, per_in), F[g.out_iface])
                Fphi[g.out_iface[g.out_real]] = mixed[g.out_real]

        if self._dyn_junctions:
            m = F[self._dyn_in_iface] * phi[self._dyn_in_cell]
            bulk_exit = F[self._dyn_exit_iface]
            unmarked = F[self._dyn_in_iface] - m
            to_exit = np.where(
                self._dyn_takes_marked,
                np.minimum(m, bulk_exit),
                np.maximum(bulk_exit - np.minimum(unmarked, bulk_exit), 0.0),
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
        """Advance state by dt using precomputed fluxes."""
        out = state if inplace else state.copy()
        lam = self._lambda(dt)
        F = snap.fluxes

        # consecutive interfaces bracket each cell, so the per-cell flux
        # divergence is a contiguous diff followed by one gather
        np.subtract(F[1:], F[:-1], out=self._iface_diff)
        rho_new = np.take(self._iface_diff, self._left_iface, out=self._work)
        np.multiply(rho_new, lam, out=rho_new)
        np.subtract(out.rho, rho_new, out=rho_new)

        lo, hi = float(np.min(rho_new)), float(np.max(rho_new))
        if lo < -_DENSITY_SLACK or hi > self.model.rho_max + _DENSITY_SLACK:
            raise SimulationError(
                f"density left [0, {self.model.rho_max}] at t={state.time:.6g} "
                f"(range [{lo:.3e}, {hi:.3e}]); check the CFL number"
            )

        if out.phi is not None:
            Fphi = snap.tracer_fluxes
            mu = out.rho * out.phi
            mu -= lam * (Fphi[self._right_iface] - Fphi[self._left_iface])
            np.clip(rho_new, 0.0, self.model.rho_max, out=out.rho)
            heavy = out.rho > EPS_MASS
            phi_new = np.full_like(mu, TRACER_PLACEHOLDER)
            np.divide(mu, out.rho, out=phi_new, where=heavy)
            if heavy.any():
                worst_lo = float(np.min(phi_new[heavy]))
                worst_hi = float(np.max(phi_new[heavy]))
                if worst_lo < -_TRACER_SLACK or worst_hi > 1.0 + _TRACER_SLACK:
                    raise SimulationError(
                        f"tracer left [0, 1] at t={state.time:.6g} "
                        f"(range [{worst_lo:.3e}, {worst_hi:.3e}])"
                    )
            np.clip(phi_new, 0.0, 1.0, out=out.phi)
        else:
            np.clip(rho_new, 0.0, self.model.rho_max, out=out.rho)

        out.time = state.time + dt
        out.step_count = state.step_count + 1
        return out

    def _advance(self, state: SimState, snap: FluxSnapshot, dt: float, update_coefficients: bool):
        """Phase 2 in place: apply snap, then refresh the dynamic exit splits.

        The splits follow the tracer the donor cells held before the
        update, which is what crossed the exit interfaces this step, by
        the rule of dynamic_exit_coefficients applied to every row at once.
        """
        if not (update_coefficients and state.phi is not None):
            self.apply(state, snap, dt, inplace=True)
            return
        donor = np.minimum(np.maximum(state.phi[self._dyn_in_cell], 0.0), 1.0)
        self.apply(state, snap, dt, inplace=True)
        rows = np.nonzero(snap.fluxes[self._dyn_in_iface] >= EPS_FLUX)[0]
        to_exit = np.where(self._dyn_takes_marked, donor, 1.0 - donor)[rows]
        exit_col = self._dyn_exit_col[rows]
        state.exit_splits[rows, exit_col] = to_exit
        state.exit_splits[rows, 1 - exit_col] = 1.0 - to_exit

    def step(self, state: SimState, dt: float) -> SimState:
        """One two-phase step; returns a new state.

        dt must respect the CFL bound stable_dt(1.0).
        """
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        if dt > self.stable_dt(1.0) * (1.0 + 1e-12):
            raise SimulationError(
                f"dt={dt:.6g} violates the CFL bound {self.stable_dt(1.0):.6g}"
            )
        snap = self.compute_fluxes(state)
        new = state.copy()
        self._advance(new, snap, dt, True)
        return new

    # -- diagnostics ---------------------------------------------------------

    def junction_balance_residuals(self, snap: FluxSnapshot) -> dict[str, float]:
        """Per-junction |sum incoming - sum outgoing| boundary flux."""
        F = snap.fluxes
        return {
            jid: abs(float(F[in_ifaces].sum() - F[out_ifaces].sum()))
            for jid, in_ifaces, out_ifaces in self._diagnostics
        }

    def arc_boundary_fluxes(self, snap: FluxSnapshot) -> np.ndarray:
        """Downstream interface flux of every arc, in arc order."""
        return snap.fluxes[self.arc_last_iface]

    # -- driver --------------------------------------------------------------

    def run(self, config: SimConfig) -> RunResult:
        """March to t_end, sampling states, fluxes, splits on the way.

        The clock counts steps, times within 1e-9 dt being equal: step k
        ends at (k + 1) * dt, the last at t_end.  Sample j is the first
        state at or after j * sample_interval, and carries that time
        when a step ends there.  A run of more than MAX_STEPS steps is
        refused with a ValueError before the first step.
        """
        dt = self.stable_dt(config.cfl_number)
        if not dt * MAX_STEPS >= config.t_end:  # also when dt underflowed to 0
            raise ValueError(
                f"t_end={config.t_end:g} needs more than {MAX_STEPS} steps of dt={dt:.3g}"
            )
        eps = 1e-9 * dt
        n_steps = max(1, math.ceil(config.t_end / dt - 1e-9))
        last_dt = config.t_end - (n_steps - 1) * dt  # short when t_end is off the step grid
        last_dt = dt if last_dt >= dt - eps else last_dt
        update = config.coefficient_mode != "static"
        state = self.init_state()

        times: list[float] = []
        flux_rows: list[np.ndarray] = []
        split_rows: list[np.ndarray] = []
        density_rows: list[np.ndarray] = []
        tracer_rows: list[np.ndarray] = []
        arrived = np.zeros(len(self._dyn_junctions), dtype=bool)
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
            self._advance(state, snap, step_dt, update)
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
        splits = np.asarray(split_rows)
        coefficients = {
            j.id: np.repeat(j.distribution[None], len(times), axis=0) for j in self.net.junctions
        }
        for k, junc in enumerate(self._dyn_junctions):
            coefficients[junc.id] = splits[:, k, :, None].copy()
        first_arrival = {
            junc.id: (float(arrival_time[k]), arrival_split[k].copy())
            for k, junc in enumerate(self._dyn_junctions)
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
            cells_per_arc={a.id: a.n_cells for a in self.net.arcs},
            junction_arcs={
                j.id: (list(j.incoming), list(j.outgoing)) for j in self.net.junctions
            },
            times=times_arr,
            arc_fluxes=flux_arr,
            coefficients=coefficients,
            density=np.asarray(density_rows) if density_rows else None,
            tracer=np.asarray(tracer_rows) if tracer_rows else None,
            first_arrival_coefficients=first_arrival,
            equilibrium_time=equilibrium_time,
            summary=summary,
        )

