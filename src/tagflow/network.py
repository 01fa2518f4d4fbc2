"""Network topology: arcs, junctions, boundary data, and the roundabout.

An arc is a 1D interval split into uniform cells; flow runs from a to b.
Junctions connect arc ends and carry a column-stochastic distribution
matrix (column i says where incoming arc i's flux goes) plus right-of-way
weights over the incoming arcs.  Exit junctions of a roundabout may be
marked dynamic: their split toward the external exit is then driven by
the destination tracer during simulation instead of staying fixed.

build_roundabout assembles the two-entry/two-exit circle:

    S1 --J1--> S1C --J2--> S2C --J3--> S3C --J4--> S4C --(back to J1)
                  \\-> S3      S2 -/        \\-> S4

A fraction alpha of the flow entering at S1 leaves at S3 (the rest at
S4); a fraction beta of the flow entering at S2 leaves at S4 (the rest
at S3).  The closed-form steady state of that routing is available from
equilibrium_fluxes / equilibrium_coefficients and is what a dynamic run
converges to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .flux import FluxModel

__all__ = [
    "ARC_KINDS",
    "Arc",
    "Junction",
    "BoundaryCondition",
    "Network",
    "InvalidInputError",
    "NetworkValidationError",
    "UndefinedCoefficientsError",
    "build_roundabout",
    "initial_coefficients",
    "equilibrium_coefficients",
    "equilibrium_fluxes",
    "check_low_flow",
]

ARC_KINDS = ("external_in", "external_out", "circle", "generic")

_COLUMN_TOL = 1e-9
# Most cell interfaces (cells plus arcs) whose float64 array numpy can
# address; past it, array construction fails with an error other than
# MemoryError.
_MAX_INTERFACES = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
# Characters an id may not hold: the CSV output writes ids unquoted.
_CSV_SPECIAL = frozenset(',"\r\n')
# Closes each list of arrays to concatenate, so an empty list concatenates.
_NO_ENTRIES = np.zeros(0)


class InvalidInputError(ValueError):
    """Input the caller can correct; .errors lists one message per problem."""

    def __init__(self, errors):
        self.errors = [errors] if isinstance(errors, str) else list(errors)
        super().__init__("; ".join(self.errors))


class NetworkValidationError(InvalidInputError):
    """A network that violates an invariant; .errors is its validate() report."""


class UndefinedCoefficientsError(ValueError):
    """Equilibrium split is 0/0: no flux ever reaches the exit junction."""


@dataclass
class Arc:
    """One directed edge: interval [a, b] split into n_cells uniform cells."""

    id: str
    a: float
    b: float
    n_cells: int
    kind: str = "generic"

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.n_cells


@dataclass
class Junction:
    """Node joining incoming and outgoing arcs.

    distribution[j, i]: fraction of incoming arc i's flux routed to
    outgoing arc j; every column must sum to one.  priority weights the
    incoming arcs when the flux-allocation optimum is not unique
    (defaults to uniform).  Dynamic junctions must have exactly one
    incoming and two outgoing arcs; exit_arc names the outgoing arc that
    leaves the network and exit_tracer the tracer value (0 or 1) of the
    destination class that departs there.
    """

    id: str
    incoming: list[str]
    outgoing: list[str]
    distribution: np.ndarray
    priority: np.ndarray | None = None
    coefficient_mode: str = "static"
    exit_arc: str | None = None
    exit_tracer: float = 1.0

    def __post_init__(self):
        self.incoming = list(self.incoming)
        self.outgoing = list(self.outgoing)
        self.distribution = np.atleast_2d(np.asarray(self.distribution, dtype=float))
        if self.priority is None:
            self.priority = [1.0 / max(len(self.incoming), 1)] * len(self.incoming)
        self.priority = np.atleast_1d(np.asarray(self.priority, dtype=float))


@dataclass
class BoundaryCondition:
    """Constant-density reservoir feeding a source arc.

    tracer_in is the destination-tracer value carried by injected mass;
    it only matters on networks with dynamic junctions.
    """

    arc_id: str
    rho_bar: float
    tracer_in: float = 0.5


@dataclass
class Network:
    """Topology plus the flux model.

    Holds its four fields and nothing derived from them: every lookup
    reads the lists as they stand, so an edit is answered at once.  A
    duplicate id resolves to its first occurrence.
    """

    model: FluxModel
    arcs: list[Arc]
    junctions: list[Junction]
    boundary_conditions: list[BoundaryCondition] = field(default_factory=list)

    def arc(self, arc_id: str) -> Arc:
        return _first(self.arcs, arc_id)

    def junction(self, junction_id: str) -> Junction:
        return _first(self.junctions, junction_id)

    def upstream_junction(self, arc_id: str) -> str | None:
        return next((j.id for j in self.junctions if arc_id in j.outgoing), None)

    def downstream_junction(self, arc_id: str) -> str | None:
        return next((j.id for j in self.junctions if arc_id in j.incoming), None)

    @property
    def source_arc_ids(self) -> list[str]:
        """Arcs fed by a boundary reservoir (no upstream junction)."""
        fed = {arc_id for j in self.junctions for arc_id in j.outgoing}
        return [a.id for a in self.arcs if a.id not in fed]

    @property
    def sink_arc_ids(self) -> list[str]:
        """Arcs with free outflow (no downstream junction)."""
        drained = {arc_id for j in self.junctions for arc_id in j.incoming}
        return [a.id for a in self.arcs if a.id not in drained]

    def validate(self) -> list[str]:
        """Return the list of violated invariants; empty means valid.

        Every junction's numbers, its distribution's shape, entries and
        column masses and its priority's length, entries and sum, are
        judged first, in one pass over all junctions (_number_faults).
        Only a junction that fails there runs the code that words its
        faults, so each report keeps its text and its place.  The ids,
        the arc references and the connectivity are checked arc by arc
        and junction by junction.
        """
        errors: list[str] = []
        position: dict[str, int] = {}  # arc id -> index of its first arc
        for k, arc in enumerate(self.arcs):
            if position.setdefault(arc.id, k) != k:
                errors.append(f"arc {arc.id}: duplicate id")
            if not _CSV_SPECIAL.isdisjoint(arc.id):
                errors.append(f"arc {arc.id!r}: id holds a comma, quote or line break")
            if not math.isfinite(arc.b - arc.a):  # also NaN or infinite ends
                errors.append(f"arc {arc.id}: a={arc.a}, b={arc.b} give no finite length")
            elif not arc.b > arc.a:
                errors.append(f"arc {arc.id}: b={arc.b} must exceed a={arc.a}")
            if arc.n_cells < 1:
                errors.append(f"arc {arc.id}: n_cells must be >= 1")
            if arc.kind not in ARC_KINDS:
                errors.append(f"arc {arc.id}: unknown kind {arc.kind!r}")
        if not self.arcs:
            errors.append("network has no arcs")
        total_cells = sum(int(arc.n_cells) for arc in self.arcs)  # Python ints never overflow
        if total_cells + len(self.arcs) > _MAX_INTERFACES:
            errors.append(f"network has {total_cells} cells, more than an array can index")

        # connectivity: union-find over arc positions, ignoring direction;
        # each junction id joins its arcs to the first arc it named
        parent = list(range(len(self.arcs)))

        def find(k: int) -> int:
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        seen_j: set[str] = set()
        anchor: dict[str, int] = {}
        used_as_in: dict[str, int] = {}
        used_as_out: dict[str, int] = {}
        for junc, faulty in zip(self.junctions, _number_faults(self.junctions)):
            if junc.id in seen_j:
                errors.append(f"junction {junc.id}: duplicate id")
            seen_j.add(junc.id)
            if not _CSV_SPECIAL.isdisjoint(junc.id):
                errors.append(f"junction {junc.id!r}: id holds a comma, quote or line break")
            for arc_ids, used in ((junc.incoming, used_as_in), (junc.outgoing, used_as_out)):
                for arc_id in arc_ids:
                    used[arc_id] = used.get(arc_id, 0) + 1
                    k = position.get(arc_id)
                    if k is None:
                        errors.append(f"junction {junc.id}: dangling reference to arc {arc_id}")
                    else:
                        parent[find(k)] = find(anchor.setdefault(junc.id, k))
            n_in, n_out = len(junc.incoming), len(junc.outgoing)
            if len(set(junc.incoming + junc.outgoing)) != n_in + n_out:
                errors.append(f"junction {junc.id}: an arc appears twice")
            if not n_in or not n_out:
                errors.append(f"junction {junc.id}: needs at least one incoming and one outgoing arc")

            if faulty:
                if junc.distribution.shape != (n_out, n_in):
                    errors.append(
                        f"junction {junc.id}: distribution shape {junc.distribution.shape} "
                        f"does not match ({n_out}, {n_in})"
                    )
                else:
                    entries = [x for row in junc.distribution.tolist() for x in row]
                    if not all(map(math.isfinite, entries)):
                        errors.append(f"junction {junc.id}: non-finite distribution entry")
                    else:
                        if min(entries, default=0.0) < 0.0:
                            errors.append(f"junction {junc.id}: negative distribution entry")
                        for i in range(n_in):
                            total = sum(entries[i::n_in])  # column i, in row order
                            if abs(total - 1.0) > _COLUMN_TOL:
                                errors.append(
                                    f"junction {junc.id}: distribution column {i} mass {total:g} != 1"
                                )
                weights = junc.priority.tolist()
                if junc.priority.shape != (n_in,):
                    errors.append(f"junction {junc.id}: priority length != incoming arcs")
                elif not all(map(math.isfinite, weights)):
                    errors.append(f"junction {junc.id}: non-finite priority weight")
                elif n_in:
                    if min(weights) < -1e-12 or max(weights) > 1.0 + 1e-12:
                        errors.append(f"junction {junc.id}: priority weights outside [0, 1]")
                    if abs(sum(weights) - 1.0) > _COLUMN_TOL:
                        errors.append(f"junction {junc.id}: priority weights must sum to 1")

            if junc.coefficient_mode not in ("static", "dynamic"):
                errors.append(f"junction {junc.id}: unknown coefficient_mode {junc.coefficient_mode!r}")
            if junc.coefficient_mode == "dynamic":
                if n_in != 1 or n_out != 2:
                    errors.append(f"junction {junc.id}: dynamic mode requires 1 incoming and 2 outgoing arcs")
                if junc.exit_arc not in junc.outgoing:
                    errors.append(f"junction {junc.id}: exit_arc must name one of its outgoing arcs")
                if junc.exit_tracer not in (0.0, 1.0):
                    errors.append(f"junction {junc.id}: exit_tracer must be 0 or 1")

        for arc_id, count in used_as_in.items():
            if count > 1:
                errors.append(f"arc {arc_id}: consumed by {count} junctions")
        for arc_id, count in used_as_out.items():
            if count > 1:
                errors.append(f"arc {arc_id}: produced by {count} junctions")

        bc_arcs: set[str] = set()
        for bc in self.boundary_conditions:
            if bc.arc_id in bc_arcs:
                errors.append(f"arc {bc.arc_id}: multiple boundary conditions")
            bc_arcs.add(bc.arc_id)
            if bc.arc_id not in position:
                errors.append(f"boundary condition references missing arc {bc.arc_id}")
                continue
            if bc.arc_id in used_as_out:
                errors.append(f"arc {bc.arc_id}: boundary condition on a non-source arc")
            if not 0.0 <= bc.rho_bar <= self.model.rho_max:
                errors.append(f"arc {bc.arc_id}: rho_bar {bc.rho_bar} outside [0, {self.model.rho_max}]")
            if not 0.0 <= bc.tracer_in <= 1.0:
                errors.append(f"arc {bc.arc_id}: tracer_in {bc.tracer_in} outside [0, 1]")

        for arc in self.arcs:
            has_up = arc.id in used_as_out
            has_down = arc.id in used_as_in
            if not has_up and arc.id not in bc_arcs:
                errors.append(f"arc {arc.id}: no upstream junction and no boundary condition")
            if arc.kind == "external_in" and has_up:
                errors.append(f"arc {arc.id}: external_in but fed by a junction")
            if arc.kind == "external_out" and has_down:
                errors.append(f"arc {arc.id}: external_out but consumed by a junction")
            if arc.kind == "circle" and not (has_up and has_down):
                errors.append(f"arc {arc.id}: circle arc must connect two junctions")

        components = len({find(k) for k in position.values()})
        if components > 1:
            errors.append(f"graph is not connected ({components} components)")
        return errors


def _number_faults(junctions: list[Junction]) -> list[bool]:
    """Whether each junction's distribution or priority may fail a check of validate.

    Judges every junction's numbers in one pass over their concatenated
    entries.  A junction fails when its distribution's shape or its
    priority's length is wrong, when an entry of either is NaN or lies
    outside [0, 1 + 1e-12], or when a column's mass or the priority's
    sum is off 1 by more than _COLUMN_TOL.  That takes in every junction
    validate reports a number of, and a few it passes: a priority weight
    in [-1e-12, 0), a distribution entry just above 1, a priority of no
    weights.  bincount adds its weights in order, so a column's mass is
    summed in row order and a priority's weights one by one from 0, as
    validate sums them: a sum at 1 within a rounding of the tolerance
    gets the same verdict.
    """
    n_in = [len(j.incoming) for j in junctions]
    n_out = [len(j.outgoing) for j in junctions]
    faulty = [j.distribution.shape != (o, i) or j.priority.shape != (i,) for j, o, i in zip(junctions, n_out, n_in)]
    # each junction's distribution column by column, each column in row
    # order, then its priority: segments that must each sum to 1
    arrays = [a for j, bad in zip(junctions, faulty) if not bad for a in (j.distribution.T, j.priority)]
    values = np.concatenate(arrays + [_NO_ENTRIES], axis=None, dtype=float)
    lengths = [n for o, i, bad in zip(n_out, n_in, faulty) if not bad for n in [o] * i + [i]]
    owner = [k for k, (i, bad) in enumerate(zip(n_in, faulty)) if not bad for _ in range(i + 1)]
    # an entry outside [0, 1 + 1e-12], or NaN, counts as 2, which puts
    # its segment's sum off 1
    values[~(np.minimum(values, 1.0 + 1e-12 - values) >= 0.0)] = 2.0
    off = np.bincount(np.arange(len(lengths)).repeat(lengths), weights=values, minlength=len(lengths)) - 1.0
    for s in (np.abs(off) > _COLUMN_TOL).nonzero()[0].tolist():
        faulty[owner[s]] = True
    return faulty


def _first(items: list, item_id: str):
    """The first of items whose id is item_id; KeyError when none is."""
    for item in items:
        if item.id == item_id:
            return item
    raise KeyError(item_id)


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise InvalidInputError(f"{name} must lie in [0, 1], got {value}")


def build_roundabout(
    alpha: float,
    beta: float,
    rho_bar_1: float,
    rho_bar_2: float,
    cells_per_arc: int = 50,
) -> Network:
    """Two-entry/two-exit circle with dynamic exit splits.

    Entry junctions give absolute right of way to the circulating arc.
    Exit junctions start from the first-arrival splits (alpha toward S3,
    beta toward S4) in dynamic mode, so a simulation adapts them as
    recirculated flow shows up.  The network starts empty; entries S1
    and S2 are fed at the given constant densities, which must stay in
    the free-flow range [0, sigma].
    """
    model = FluxModel()
    _check_fraction("alpha", alpha)
    _check_fraction("beta", beta)
    for name, rho in (("rho_bar_1", rho_bar_1), ("rho_bar_2", rho_bar_2)):
        if not 0.0 <= rho <= model.sigma:
            raise InvalidInputError(f"{name} must lie in [0, sigma={model.sigma}], got {rho}")
    if cells_per_arc < 1:
        raise InvalidInputError("cells_per_arc must be >= 1")

    def arc(arc_id: str, kind: str) -> Arc:
        return Arc(id=arc_id, a=0.0, b=1.0, n_cells=cells_per_arc, kind=kind)

    arcs = [
        arc("S1", "external_in"),
        arc("S2", "external_in"),
        arc("S3", "external_out"),
        arc("S4", "external_out"),
        arc("S1C", "circle"),
        arc("S2C", "circle"),
        arc("S3C", "circle"),
        arc("S4C", "circle"),
    ]
    junctions = [
        Junction(
            id="J1",
            incoming=["S1", "S4C"],
            outgoing=["S1C"],
            distribution=[[1.0, 1.0]],
            priority=[0.0, 1.0],  # circulating flow first
        ),
        Junction(
            id="J2",
            incoming=["S1C"],
            outgoing=["S3", "S2C"],
            distribution=[[alpha], [1.0 - alpha]],
            coefficient_mode="dynamic",
            exit_arc="S3",
            exit_tracer=1.0,
        ),
        Junction(
            id="J3",
            incoming=["S2", "S2C"],
            outgoing=["S3C"],
            distribution=[[1.0, 1.0]],
            priority=[0.0, 1.0],
        ),
        Junction(
            id="J4",
            incoming=["S3C"],
            outgoing=["S4", "S4C"],
            distribution=[[beta], [1.0 - beta]],
            coefficient_mode="dynamic",
            exit_arc="S4",
            exit_tracer=0.0,
        ),
    ]
    bcs = [
        # injected mass is labelled with its S3-bound fraction
        BoundaryCondition(arc_id="S1", rho_bar=rho_bar_1, tracer_in=alpha),
        BoundaryCondition(arc_id="S2", rho_bar=rho_bar_2, tracer_in=1.0 - beta),
    ]
    return Network(model=model, arcs=arcs, junctions=junctions, boundary_conditions=bcs)


def initial_coefficients(alpha: float, beta: float) -> dict[str, np.ndarray]:
    """Exit splits before any recirculated flow arrives.

    All flow reaching J2 came from S1, so a fraction alpha exits at S3;
    all flow reaching J4 came from S2, so a fraction beta exits at S4.
    """
    _check_fraction("alpha", alpha)
    _check_fraction("beta", beta)
    return {
        "J2": np.array([alpha, 1.0 - alpha]),
        "J4": np.array([beta, 1.0 - beta]),
    }


def equilibrium_coefficients(
    alpha: float, beta: float, f1: float, f2: float
) -> dict[str, np.ndarray]:
    """Steady-state exit splits for entry fluxes f1 (S1) and f2 (S2).

    At J2 the arriving flux mixes the S1 inflow with the (1-beta)*f2 of
    S2-origin flow that passed J4 and is bound for S3; the S3 share is
    the S3-bound fraction of that mixture.  Symmetrically at J4.
    """
    _check_fraction("alpha", alpha)
    _check_fraction("beta", beta)
    den_2 = f1 + (1.0 - beta) * f2
    den_4 = (1.0 - alpha) * f1 + f2
    if den_2 <= 0.0 or den_4 <= 0.0:
        raise UndefinedCoefficientsError(
            "no flux reaches an exit junction; splits are undefined"
        )
    return {
        "J2": np.array(
            [(alpha * f1 + (1.0 - beta) * f2) / den_2, (1.0 - alpha) * f1 / den_2]
        ),
        "J4": np.array(
            [((1.0 - alpha) * f1 + beta * f2) / den_4, (1.0 - beta) * f2 / den_4]
        ),
    }


def equilibrium_fluxes(
    alpha: float, beta: float, f1: float, f2: float
) -> dict[str, float]:
    """Steady per-arc fluxes implied by conservation of the two inflows."""
    _check_fraction("alpha", alpha)
    _check_fraction("beta", beta)
    if f1 < 0.0 or f2 < 0.0:
        raise ValueError("entry fluxes must be non-negative")
    return {
        "S1": f1,
        "S2": f2,
        "S1C": f1 + (1.0 - beta) * f2,
        "S2C": (1.0 - alpha) * f1,
        "S3C": f2 + (1.0 - alpha) * f1,
        "S4C": (1.0 - beta) * f2,
        "S3": alpha * f1 + (1.0 - beta) * f2,
        "S4": (1.0 - alpha) * f1 + beta * f2,
    }


def check_low_flow(model: FluxModel, f1: float, f2: float) -> bool:
    """True when the combined entry flow fits within one arc's capacity.

    Sufficient condition for the circle to absorb both entries without
    queueing: f1 + f2 <= capacity.
    """
    return f1 + f2 <= model.capacity
