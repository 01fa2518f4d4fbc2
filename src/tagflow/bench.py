"""Synthetic scaling benchmark: a chain of diamonds.

Each diamond is trunk -> split junction -> two parallel arcs -> merge
junction -> next trunk, giving a mix of one-to-two and two-to-one
junctions whose count grows linearly with the requested arc count.  The
first trunk is fed by a constant reservoir, the last drains freely.
The topology is synthetic so the arc count scales freely and reported
numbers are comparable across machines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flux import FluxModel
from .network import Arc, BoundaryCondition, InvalidInputError, Junction, Network
from .simulate import SimConfig, Simulator

__all__ = ["BenchReport", "build_diamond_chain", "run_bench"]


@dataclass
class BenchReport:
    requested_arcs: int
    n_arcs: int
    n_junctions: int
    cells_per_arc: int
    total_cells: int
    steps: int
    dt: float
    wall_time_s: float
    cell_updates_per_s: float
    mass_residual: float
    mass_tolerance: float

    @property
    def conservation_ok(self) -> bool:
        return self.mass_residual <= self.mass_tolerance


def build_diamond_chain(n_arcs: int, cells_per_arc: int) -> Network:
    """Chain of diamonds with at least n_arcs arcs (3 per diamond + 1)."""
    if n_arcs < 1 or cells_per_arc < 1:
        raise InvalidInputError("arc and cell counts must be positive")
    model = FluxModel()
    n_diamonds = max(1, (n_arcs - 1 + 2) // 3)  # round up to cover the request

    def arc(arc_id: str, kind: str = "generic") -> Arc:
        return Arc(id=arc_id, a=0.0, b=1.0, n_cells=cells_per_arc, kind=kind)

    arcs = [arc("T0", "external_in")]
    junctions = []
    for k in range(n_diamonds):
        up, down, trunk = f"U{k}", f"D{k}", f"T{k + 1}"
        last = k == n_diamonds - 1
        arcs.append(arc(up))
        arcs.append(arc(down))
        arcs.append(arc(trunk, "external_out" if last else "generic"))
        junctions.append(
            Junction(
                id=f"split{k}",
                incoming=[f"T{k}"],
                outgoing=[up, down],
                distribution=[[0.6], [0.4]],
            )
        )
        junctions.append(
            Junction(
                id=f"merge{k}",
                incoming=[up, down],
                outgoing=[trunk],
                distribution=[[1.0, 1.0]],
                priority=[0.7, 0.3],
            )
        )
    bcs = [BoundaryCondition(arc_id="T0", rho_bar=0.3 * model.sigma)]
    return Network(model=model, arcs=arcs, junctions=junctions, boundary_conditions=bcs)


def run_bench(n_arcs: int, cells_per_arc: int, steps: int) -> BenchReport:
    """Run the chain for the requested steps through Simulator.run.

    t_end is steps * dt, so the run takes exactly that many steps, with
    no profiles recorded.  Wall time covers the run's stepping loop
    only, not network construction.  The conservation tolerance scales
    with accumulated round-off, max(1e-10, 1e-15 * cells * steps).
    """
    if steps < 1:
        raise InvalidInputError("steps must be positive")
    net = build_diamond_chain(n_arcs, cells_per_arc)
    sim = Simulator(net)
    dt = sim.stable_dt(0.5)
    summary = sim.run(SimConfig(t_end=steps * dt, cfl_number=0.5, record_profiles=False)).summary
    total_cells = summary["cells"]
    return BenchReport(
        requested_arcs=n_arcs,
        n_arcs=len(net.arcs),
        n_junctions=len(net.junctions),
        cells_per_arc=cells_per_arc,
        total_cells=total_cells,
        steps=summary["steps"],
        dt=dt,
        wall_time_s=summary["wall_time_s"],
        cell_updates_per_s=summary["cell_updates_per_s"],
        mass_residual=summary["mass_residual"],
        mass_tolerance=max(1e-10, 1e-15 * total_cells * steps),
    )
