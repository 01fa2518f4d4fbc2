"""Output checks, independent of the code they check.

Every check returns a list of failure messages; an empty list means
the output passed.  The arithmetic here (cell masses, Greenshields
demand and supply, junction sums) is the benchmark's own.  The only
tagflow functions used are the reference answers the acceptance
criteria name: the roundabout's closed form and the brute-force
junction oracle.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

JUNCTION_BALANCE_TOL = 1e-14  # per junction, at the last step
EQUILIBRIUM_REL_TOL = 0.01  # acceptance criterion 1
ORACLE_GAP_TOL = 2e-3  # acceptance criterion 4
MASS_RESIDUAL_TOL = 1e-10


def mass_tolerance(cells: int, steps: int) -> float:
    """Round-off allowance of `run_bench`: max(1e-10, 1e-15 * cells * steps)."""
    return max(1e-10, 1e-15 * cells * steps)


def _cell_widths(net) -> np.ndarray:
    return np.concatenate([np.full(a.n_cells, (a.b - a.a) / a.n_cells) for a in net.arcs])


def _demand_supply(rho: np.ndarray, v_max: float, rho_max: float):
    """Greenshields demand and supply, written out from the definition."""
    sigma = rho_max / 2.0

    def flow(r):
        return v_max * r * (1.0 - r / rho_max)

    return flow(np.minimum(rho, sigma)), flow(np.maximum(rho, sigma))


def check_diamond(out: dict) -> list[str]:
    errors = []
    net = out["net"]
    widths = _cell_widths(net)
    if widths.size != out["rho_end"].size:
        return [f"cell count {out['rho_end'].size} does not match the network's {widths.size}"]
    mass_start = float(np.sum(out["rho_start"] * widths))
    mass_end = float(np.sum(out["rho_end"] * widths))
    residual = abs(mass_end - mass_start - out["boundary_integral"])
    tol = mass_tolerance(widths.size, out["steps"])
    if not residual <= tol:
        errors.append(f"mass residual {residual:.3e} exceeds {tol:.3e}")

    index = {arc_id: k for k, arc_id in enumerate(out["arc_ids"])}
    F = out["last_fluxes"]
    worst = 0.0
    for junc in net.junctions:
        inflow = sum(F[out["arc_last_iface"][index[a]]] for a in junc.incoming)
        outflow = sum(F[out["arc_first_iface"][index[a]]] for a in junc.outgoing)
        worst = max(worst, abs(inflow - outflow))
    if not worst <= JUNCTION_BALANCE_TOL:
        errors.append(f"junction balance {worst:.3e} exceeds {JUNCTION_BALANCE_TOL:.0e}")
    return errors


def check_roundabout(out: dict, inputs: dict, tf) -> list[str]:
    errors = []
    result = out["result"]
    alpha, beta, f1, f2 = (inputs[k] for k in ("alpha", "beta", "f1", "f2"))
    if result.equilibrium_time is None:
        errors.append("no equilibrium detected by t_end")
    expected = tf.equilibrium_fluxes(alpha, beta, f1, f2)
    for arc_id, want in sorted(expected.items()):
        got = result.summary["final_fluxes"][arc_id]
        if not abs(got - want) <= EQUILIBRIUM_REL_TOL * want:
            errors.append(f"final flux of {arc_id} is {got:.6g}, closed form {want:.6g}")
    for jid, want in sorted(tf.equilibrium_coefficients(alpha, beta, f1, f2).items()):
        got = np.asarray(result.coefficients[jid][-1]).reshape(-1)
        if got.shape != want.shape or not np.all(np.abs(got - want) <= EQUILIBRIUM_REL_TOL * want):
            errors.append(f"final split of {jid} is {got.tolist()}, closed form {want.tolist()}")
    return errors


def check_grid(out: dict, tf) -> list[str]:
    errors = []
    net, result = out["net"], out["result"]
    mass_residual = result.summary["mass_residual"]
    if not mass_residual <= MASS_RESIDUAL_TOL:
        errors.append(f"mass residual {mass_residual:.3e} exceeds {MASS_RESIDUAL_TOL:.0e}")

    offsets = np.concatenate([[0], np.cumsum([a.n_cells for a in net.arcs])])
    position = {a.id: k for k, a in enumerate(net.arcs)}
    column = {arc_id: k for k, arc_id in enumerate(result.arc_ids)}
    demand, supply = _demand_supply(result.density[-1], net.model.v_max, net.model.rho_max)
    for junc in net.junctions:
        problem = tf.JunctionProblem(
            demands=[demand[offsets[position[a] + 1] - 1] for a in junc.incoming],
            supplies=[supply[offsets[position[a]]] for a in junc.outgoing],
            distribution=junc.distribution,
            priority=junc.priority,
        )
        best = tf.brute_force_solve(problem, 1e-3).objective
        admitted = float(sum(result.arc_fluxes[-1, column[a]] for a in junc.incoming))
        if not abs(admitted - best) <= ORACLE_GAP_TOL:
            errors.append(f"junction {junc.id} admits {admitted:.6g}, oracle {best:.6g}")
    return errors


def csv_digest(paths: list[Path]) -> tuple[str, int, int]:
    """sha256 over the CSV files in order, total bytes, data rows."""
    digest = hashlib.sha256()
    size = rows = 0
    for path in paths:
        digest.update(path.name.encode() + b"\0")
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
                size += len(chunk)
                rows += chunk.count(b"\n")
        rows -= 1  # header
    return digest.hexdigest(), size, rows
