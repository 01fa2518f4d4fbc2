"""Per-node flux allocation.

Each junction step solves: maximize the total flux admitted from the
incoming arcs subject to per-arc demand caps, routing of the admitted
flux through the distribution matrix, and per-outgoing-arc supply caps.
Among multiple maximizers the right-of-way weights pick the point that
serves incoming arcs greedily in descending priority (waterfilling).

Two junction kinds have closed forms (Coclite, Garavello & Piccoli,
SIAM J. Math. Anal. 36, 2005): a diverge (one incoming arc) admits the
largest flux every routed share fits, and a merge (one outgoing arc
taking every incoming arc whole) waterfills the shared supply in
priority order.  Anything else is "general": general solves its linear
program (Garavello & Piccoli, Traffic Flow on Networks, AIMS 2006),
lexicographically in priority order, whatever the junction's degree:
rows that fit by the replayed rounds, the rest by a batched simplex.

classify names a junction's kind and KERNELS maps it to its kernel.
Every kernel solves a batch of B junctions of its kind at once:
kernel(demands (B, n_in), supplies (B, n_out), routing (B, n_out,
n_in)) -> admitted flux (B, n_in), incoming columns in priority order.
An incoming arc with zero demand, or an outgoing one with a zero
routing row, changes no junction's answer, so junctions may be padded.
brute_force_solve is a reference oracle for the tests and demos; no
simulation calls it.  linprog stays only as a trace target of the
benchmark's perfbench/spans.py and perfbench/selftest.py; nothing calls
it, and it goes when the benchmark drops its LP metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import _COLUMN_TOL

__all__ = [
    "JunctionProblem",
    "JunctionFluxSolution",
    "KERNELS",
    "classify",
    "diverge",
    "general",
    "merge",
    "priority_order",
    "solve",
    "brute_force_solve",
]

# Slack when testing grid points for feasibility.
_FEAS_TOL = 1e-12
# Slack separating ties: of the objective in the brute-force search, of
# the reduced costs in the simplex of general.
_TIE_TOL = 1e-9
# Tableau entries this small are zero in the simplex's ratio test.
_PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class JunctionProblem:
    """Demands per incoming arc, supplies per outgoing arc, routing matrix.

    distribution[j, i] is the fraction of arc i's admitted flux sent to
    outgoing arc j.  priority orders incoming arcs when the maximizer is
    not unique; ties fall back to list position.
    """

    demands: np.ndarray
    supplies: np.ndarray
    distribution: np.ndarray
    priority: np.ndarray | None = None

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.demands, dtype=float))
        s = np.atleast_1d(np.asarray(self.supplies, dtype=float))
        a = np.atleast_2d(np.asarray(self.distribution, dtype=float))
        if d.size == 0 or s.size == 0:
            raise ValueError("a junction needs at least one incoming and one outgoing arc")
        p = self.priority
        p = np.full(d.shape, 1.0 / d.size) if p is None else np.atleast_1d(np.asarray(p, dtype=float))
        object.__setattr__(self, "demands", d)
        object.__setattr__(self, "supplies", s)
        object.__setattr__(self, "distribution", a)
        object.__setattr__(self, "priority", p)
        if a.shape != (s.size, d.size):
            raise ValueError(
                f"distribution shape {a.shape} does not match "
                f"{s.size} outgoing x {d.size} incoming"
            )
        if p.shape != d.shape:
            raise ValueError("priority length does not match incoming arcs")
        for name, arr in (("demands", d), ("supplies", s), ("distribution", a)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
            if np.any(arr < 0.0):
                raise ValueError(f"{name} must be non-negative")

    @property
    def n_in(self) -> int:
        return self.demands.size

    @property
    def n_out(self) -> int:
        return self.supplies.size


@dataclass(frozen=True)
class JunctionFluxSolution:
    gamma_in: np.ndarray
    gamma_out: np.ndarray

    @property
    def objective(self) -> float:
        return float(np.sum(self.gamma_in))


def priority_order(priority: np.ndarray) -> list[int]:
    """Incoming-arc indices in descending priority, position breaking ties."""
    return sorted(range(len(priority)), key=lambda i: (-priority[i], i))


def classify(distribution: np.ndarray) -> str:
    """"diverge", "merge" or "general" for an (n_out, n_in) distribution.

    A merge row must equal 1 within the network's column tolerance, so
    every row Network.validate accepts for a merge takes the closed form.
    """
    n_out, n_in = distribution.shape
    if n_in == 1:
        return "diverge"
    # over a Python list: numpy's per-call cost dwarfs a one-row test
    if n_out == 1 and all(abs(v - 1.0) <= _COLUMN_TOL for v in distribution.ravel().tolist()):
        return "merge"
    return "general"


def diverge(demands: np.ndarray, supplies: np.ndarray, routing: np.ndarray) -> np.ndarray:
    """Admitted flux (B, 1) of B one-in junctions.

    Each junction admits the largest flux whose routed shares fit every
    supply; outgoing arcs with a zero share impose no cap.
    """
    split = routing[:, :, 0]
    limit = np.empty(supplies.shape)  # and fill: np.full is a Python wrapper
    limit.fill(np.inf)
    np.divide(supplies, split, out=limit, where=split > 0.0)
    # one column at a time: numpy reduces a short row far slower
    admitted = np.minimum(demands[:, 0], limit[:, 0])
    for j in range(1, limit.shape[1]):
        np.minimum(admitted, limit[:, j], out=admitted)
    return admitted[:, None]


def merge(demands: np.ndarray, supplies: np.ndarray, routing: np.ndarray) -> np.ndarray:
    """Admitted flux (B, n_in) of B merges.

    The shared supply supplies[:, 0] is waterfilled: each incoming arc
    takes what it demands of what the arcs before it left.  A merge's
    routing row is 1 within the column tolerance, so routing is not read.
    """
    gamma = np.empty(demands.shape)
    remaining = supplies[:, 0]
    for i in range(demands.shape[1]):
        gamma[:, i] = np.minimum(demands[:, i], np.maximum(remaining, 0.0))
        remaining = remaining - gamma[:, i]
    return gamma


def general(demands: np.ndarray, supplies: np.ndarray, routing: np.ndarray) -> np.ndarray:
    """Admitted flux (B, n_in) of B general junctions.

    Rows that fit are answered by the replayed rounds; the rest climb.
    Stage one of _simplex lifts each arc in turn to its demand without a
    pivot while its routed shares fit what the arcs before it left of
    every supply.  Replaying its floating-point operations (a presolve:
    Andersen & Andersen, Math. Prog. 71, 1995) finds the rows that fit
    all the way; only the others climb, as a batch of their own.

    What each supply has left before each arc is one cumulative sum
    over [supplies, (-d_0) r_0, (-d_1) r_1, ...].  It adds in arc order,
    (-d) r is -(d r) and a + (-b) is a - b in IEEE 754, so every slack
    has the bits of stage one's.  An arc with zero demand subtracts
    nothing and always fits, so it changes no decision.  The presolve
    is a fixed set of numpy calls whatever the width, on arrays laid
    out (arc, outgoing arc, junction): every short axis is an outer
    loop over B contiguous junctions.
    """
    rate = routing.T
    left = np.empty(rate.shape)
    left[0] = supplies.T
    np.multiply(np.negative(demands.T[:-1, None]), rate[:-1], out=left[1:])
    np.add.accumulate(left, axis=0, out=left)
    room = np.empty(rate.shape)
    room.fill(np.inf)
    np.divide(np.maximum(left, 0.0, out=left), rate, out=room, where=rate > _PIVOT_TOL)
    fits = (room >= demands.T[:, None]).all(axis=(0, 1))
    # to the bit what _simplex returns for a row that fits, -0.0 included
    gamma = np.minimum(np.maximum(demands, 0.0), demands)
    if not fits.all():
        gamma[~fits] = _simplex(demands[~fits], supplies[~fits], routing[~fits])
    return gamma


def _simplex(demands: np.ndarray, supplies: np.ndarray, routing: np.ndarray) -> np.ndarray:
    """general's answer for B junctions, by a lexicographic simplex.

    A bounded-variable primal simplex (Chvatal, Linear Programming,
    1983, ch. 8) solves every junction in lockstep from the origin,
    which is always feasible: 0 <= gamma <= d are bounds, and
    A gamma + w = s, with slacks w >= 0, are the n_out rows of each
    junction's tableau.  Stage one maximizes the total; its basis is
    all slacks, of cost 0, so its reduced costs are the costs.  Each
    later stage fixes every nonbasic variable of nonzero reduced cost,
    keeping the earlier optima, and maximizes the next incoming arc in
    priority order.  Only a free variable enters, and none is freed
    again: once no junction has one, no stage left can move anything.
    Bland's rule picks the entering and leaving variables, so no stage
    cycles.  Each junction's answer is its own, whatever the batch.
    """
    n_batch, n_in = demands.shape
    n_out = supplies.shape[1]
    n_var = n_in + n_out
    upper = np.empty((n_batch, n_var))
    upper[:, :n_in] = demands
    upper[:, n_in:] = np.inf
    value = np.zeros((n_batch, n_var))
    value[:, n_in:] = supplies
    # rows B^-1 [A I], then the reduced costs of the current stage
    tableau = np.zeros((n_batch, n_out + 1, n_var))
    tableau[:, :n_out, :n_in] = routing
    tableau[:, np.arange(n_out), np.arange(n_in, n_var)] = 1.0
    basis = np.zeros((n_batch, n_out), dtype=np.intp) + np.arange(n_in, n_var)
    # nonbasic and not fixed, the variables that may enter: at first the arcs
    free = upper < np.inf
    reduced = tableau[:, n_out]
    reduced[:, :n_in] = 1.0
    _climb(tableau, basis, free, value, upper)
    # then each arc in turn; one no junction demands anything of
    # (padding, say) never moves, so its stage would change nothing
    for i in np.flatnonzero(demands.any(axis=0)).tolist():
        free &= np.abs(reduced) <= _TIE_TOL
        if not free.any():
            break
        reduced[:] = np.arange(n_var) == i
        for k in range(n_out):
            reduced -= (basis[:, k, None] == i) * tableau[:, k]
        _climb(tableau, basis, free, value, upper)
    return np.clip(value[:, :n_in], 0.0, demands)


def _climb(tableau, basis, free, value, upper) -> None:
    """Pivot each junction until its cost row has no improving move, in place.

    A nonbasic variable sits at a bound, and a free one may enter when
    its reduced cost beyond _TIE_TOL points away from that bound.  It
    moves until a basic variable reaches a bound, which then leaves the
    basis, or until it reaches its own other bound.
    """
    n_out = basis.shape[1]
    n_var = value.shape[1]
    reduced = tableau[:, n_out]
    while True:
        up = free & (reduced > _TIE_TOL) & (value < upper)
        moves = up | (free & (reduced < -_TIE_TOL) & (value > 0.0))
        rows = np.flatnonzero(moves.any(axis=1))
        if rows.size == 0:
            return
        enter = moves[rows].argmax(axis=1)  # Bland: the lowest index
        sign = np.where(up[rows, enter], 1.0, -1.0)
        # how fast each basic variable falls as the entering one moves
        rate = sign[:, None] * tableau[rows, :n_out, enter]
        held = basis[rows]
        current = value[rows[:, None], held]
        top = upper[rows[:, None], held]
        room = np.full(rate.shape, np.inf)
        np.divide(np.maximum(current, 0.0), rate, out=room, where=rate > _PIVOT_TOL)
        np.divide(np.maximum(top - current, 0.0), -rate, out=room, where=rate < -_PIVOT_TOL)
        step = room.min(axis=1)
        span = upper[rows, enter]
        pivot = step < span  # else the entering variable reaches its other bound first
        step = np.minimum(step, span)
        value[rows[:, None], held] = current - step[:, None] * rate
        value[rows, enter] += sign * step
        if not pivot.any():
            continue
        rows, enter, held, room, rate, top, step = (
            a[pivot] for a in (rows, enter, held, room, rate, top, step)
        )
        r = np.arange(rows.size)
        # Bland: of the rows that bind first, the one whose basic
        # variable has the lowest index leaves, exactly at its bound
        leave = np.where(room == step[:, None], held, n_var).argmin(axis=1)
        gone = held[r, leave]
        value[rows, gone] = np.where(rate[r, leave] > 0.0, 0.0, top[r, leave])
        free[rows, gone] = True
        free[rows, enter] = False
        basis[rows, leave] = enter
        sub = tableau[rows]
        pivot_row = sub[r, leave] / sub[r, leave, enter][:, None]
        sub -= sub[r, :, enter][:, :, None] * pivot_row[:, None, :]
        sub[r, leave] = pivot_row
        tableau[rows] = sub


KERNELS = {"diverge": diverge, "merge": merge, "general": general}


def solve(p: JunctionProblem) -> JunctionFluxSolution:
    """Optimal junction allocation with priority tie-breaking.

    gamma_in, the kernel's answer as a simulation step takes it,
    maximizes total admitted flux over {0 <= gamma <= demands,
    distribution @ gamma <= supplies}, the supplies to rounding;
    gamma_out is the routed image, so the node balance sum(gamma_in) ==
    sum(gamma_out) holds whenever the distribution columns sum to one.
    """
    order = priority_order(p.priority)
    kernel = KERNELS[classify(p.distribution)]
    gamma = np.empty(p.n_in)
    gamma[order] = kernel(p.demands[None, order], p.supplies[None], p.distribution[None][:, :, order])[0]
    return JunctionFluxSolution(gamma_in=gamma, gamma_out=p.distribution @ gamma)


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on first call.

    Kept only as a trace target of perfbench/spans.py and
    perfbench/selftest.py until the benchmark drops its LP metrics;
    nothing calls it, so neither a simulation nor the tests import scipy.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _axis_grid(d: float, step: float) -> np.ndarray:
    """0, step, 2 step, ... below d, then d itself."""
    pts = np.arange(0.0, d, step)
    return np.append(pts[pts < d], d)


def brute_force_solve(p: JunctionProblem, grid_step: float = 1e-3) -> JunctionFluxSolution:
    """Testing oracle: enumerate grid allocations, no optimization theory.

    All but the last incoming arc run over a uniform grid of [0, d_i]
    (demand endpoint included); for each combination the last arc gets
    its largest admissible flux outright, which by monotonicity of the
    objective dominates every grid choice on that axis.  Near-optimal
    ties are resolved priority-lexicographically.  Limited to three
    incoming arcs; the enumeration is exponential.
    """
    if p.n_in > 3:
        raise ValueError("brute force supports at most 3 incoming arcs")
    if grid_step <= 0.0:
        raise ValueError("grid_step must be positive")

    last = p.n_in - 1
    if p.n_in == 1:
        heads = np.zeros((1, 0))
    else:
        axes = [_axis_grid(d, grid_step) for d in p.demands[:last]]
        mesh = np.meshgrid(*axes, indexing="ij")
        heads = np.stack([m.ravel() for m in mesh], axis=1)

    a_head = p.distribution[:, :last]
    col = p.distribution[:, last]
    loads = heads @ a_head.T  # (n_candidates, n_out)

    feasible = np.ones(len(heads), dtype=bool)
    zero_rows = col == 0.0
    if np.any(zero_rows):
        feasible &= np.all(loads[:, zero_rows] <= p.supplies[zero_rows] + _FEAS_TOL, axis=1)

    tails = np.full(len(heads), p.demands[last])
    pos_rows = np.nonzero(col > 0.0)[0]
    for j in pos_rows:
        tails = np.minimum(tails, (p.supplies[j] - loads[:, j]) / col[j])
    feasible &= tails >= -_FEAS_TOL
    tails = np.maximum(tails, 0.0)

    totals = heads.sum(axis=1) + tails
    totals[~feasible] = -np.inf
    best = totals.max()
    ties = np.nonzero(totals >= best - _TIE_TOL)[0]

    order = priority_order(p.priority)
    candidates = np.column_stack([heads, tails])[ties]
    gamma = candidates[max(range(len(ties)), key=lambda k: tuple(candidates[k, order]))]
    return JunctionFluxSolution(gamma_in=gamma, gamma_out=p.distribution @ gamma)
