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
import operator
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, filterfalse, repeat
from operator import attrgetter

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
        if self.priority is None:
            self.priority = [1.0 / max(len(self.incoming), 1)] * len(self.incoming)
        # one numpy call each, as np.atleast_2d / np.atleast_1d of
        # np.asarray(.., dtype=float): a float array is kept, not copied,
        # and a reshape only adds the leading axes those would add
        distribution = np.asarray(self.distribution, dtype=float)
        self.distribution = distribution if distribution.ndim > 1 else distribution.reshape(1, -1)
        priority = np.asarray(self.priority, dtype=float)
        self.priority = priority if priority.ndim else priority.reshape(1)


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

        The network is read once (_Flat): every arc's fields, and every
        junction's arcs, as positions, and widths into flat lists, and
        every junction's distribution, row by row, and priority into one
        array.  It is judged from that read in one pass, a group of rules
        at a time for the whole network: ids, references, widths, modes,
        boundary conditions and arc ends with set, dict and map calls,
        every junction's numbers with one np.bincount over the array,
        and connectivity with a union-find over the junctions that share
        an arc.  Only a group that fails runs the code that words its
        faults, and the junctions' only for the junctions that fail, so
        each report keeps its text and its place; a valid network runs
        none of it.  A Simulator judges its own read the same way.
        """
        return _Flat(self).faults()


_SHAPE = attrgetter("shape")
_MODES = ("static", "dynamic")


def _holds_csv_special(ids) -> bool:
    """Whether some id holds a character the CSV output cannot write unquoted."""
    text = "".join(ids)
    return any(c in text for c in _CSV_SPECIAL)


def _is_count(n) -> bool:
    """Whether n is an integer, a numpy one too, and not a bool."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


class _Flat:
    """A network read once into flat lists and one array.

    Per arc, in order: arc_ids, a, n_cells, kinds, and lengths, each
    b - a; position maps an id to its first arc.  Per junction, in
    order: junction_ids, ins and outs (its incoming and outgoing
    lists), n_in, n_out, distributions, priorities, modes, exit_arcs and
    exit_tracers; dynamic lists the dynamic ones.  numbers holds every
    junction's distribution entries, row by row, then every junction's
    priority weights.  incoming holds every junction's incoming arcs,
    junction by junction, as positions, None for an id no arc has;
    likewise outgoing.  sources and sinks list, in order, the arcs no
    junction produces and those none consumes.  Per boundary condition:
    bc_arc_ids, rho_bar, tracer_in.
    Network.validate judges these (faults), and a Simulator judges them
    and builds its table from them, so it reads each junction once.
    """

    def __init__(self, net: Network):
        self.net = net
        # a field at a time: a tuple per item would wake the cyclic GC
        arcs, juncs, bcs = net.arcs, net.junctions, net.boundary_conditions
        self.arc_ids, self.a, self.n_cells = [a.id for a in arcs], [a.a for a in arcs], [a.n_cells for a in arcs]
        self.lengths, self.kinds = [a.b - a.a for a in arcs], [a.kind for a in arcs]
        # read backwards, so that a duplicate id keeps its first position
        self.position = dict(zip(reversed(self.arc_ids), range(len(arcs) - 1, -1, -1)))
        self.junction_ids = [j.id for j in juncs]
        self.ins, self.outs = [j.incoming for j in juncs], [j.outgoing for j in juncs]
        self.distributions, self.priorities = [j.distribution for j in juncs], [j.priority for j in juncs]
        self.modes, self.exit_arcs = [j.coefficient_mode for j in juncs], [j.exit_arc for j in juncs]
        self.exit_tracers = [j.exit_tracer for j in juncs]
        self.n_in, self.n_out = list(map(len, self.ins)), list(map(len, self.outs))
        self.numbers = np.concatenate(self.distributions + self.priorities + [_NO_ENTRIES], axis=None, dtype=float)
        self.dynamic = list(compress(count(), map(operator.eq, self.modes, repeat("dynamic"))))
        self.incoming = list(map(self.position.get, chain.from_iterable(self.ins)))
        self.outgoing = list(map(self.position.get, chain.from_iterable(self.outs)))
        fed, drained = set(self.outgoing), set(self.incoming)
        self.sources = list(filterfalse(fed.__contains__, range(len(arcs))))
        self.sinks = list(filterfalse(drained.__contains__, range(len(arcs))))
        self.bc_arc_ids, self.rho_bar = [bc.arc_id for bc in bcs], [bc.rho_bar for bc in bcs]
        self.tracer_in = [bc.tracer_in for bc in bcs]

    def faults(self) -> list[str]:
        """The report of Network.validate; see there.

        Each group of rules is judged for the whole network at once;
        only a group that fails runs the function that words it, and
        _junction_faults only for the junctions that fail.
        """
        net, position, n_cells, kinds = self.net, self.position, self.n_cells, self.kinds
        n_arcs = len(self.arc_ids)
        arcs_ok = (
            len(position) == n_arcs
            and not _holds_csv_special(self.arc_ids)
            # NaN or an infinite length makes the sum non-finite
            and math.isfinite(sum(self.lengths))
            and min(self.lengths, default=1.0) > 0.0
            and set(map(type, n_cells)) <= {int}
            and min(n_cells, default=1) >= 1
            and sum(map(kinds.count, ARC_KINDS)) == n_arcs
        )
        errors = [] if arcs_ok else _arc_faults(net.arcs, position)
        if not n_arcs:
            errors.append("network has no arcs")
        # Python ints never overflow
        total_cells = sum(n_cells) if arcs_ok else sum(int(n) for n in n_cells if _is_count(n))
        if total_cells + n_arcs > _MAX_INTERFACES:
            errors.append(f"network has {total_cells} cells, more than an array can index")

        junction_ids = self.junction_ids
        n_juncs = len(junction_ids)
        # by position, the junction that consumes and the one that
        # produces each arc (the last, where several do); None keys a
        # dangling id
        owner_in = chain.from_iterable(map(repeat, range(n_juncs), self.n_in))
        owner_out = chain.from_iterable(map(repeat, range(n_juncs), self.n_out))
        consumer, producer = dict(zip(self.incoming, owner_in)), dict(zip(self.outgoing, owner_out))
        first = dict(zip(reversed(junction_ids), range(n_juncs - 1, -1, -1)))
        # two ids are never one position, but every dangling one is None
        once = len(consumer) == len(self.incoming) and len(producer) == len(self.outgoing)
        # every arc a junction names is one arc, consumed and produced at
        # most once, and every junction id is one junction's
        plain = once and None not in consumer and None not in producer and len(first) == n_juncs
        # a junction with no incoming or no outgoing arc fails the number
        # check below: its priority has no weights, or its columns no entries
        junctions_ok = (
            plain
            and not _holds_csv_special(junction_ids)
            # so an arc appears twice in a junction only as its own
            # incoming and outgoing arc
            and not any(map(operator.eq, map(consumer.get, producer), producer.values()))
            and sum(map(self.modes.count, _MODES)) == n_juncs
            and all(
                (self.n_in[k], self.n_out[k]) == (1, 2)
                and self.exit_arcs[k] in self.outs[k]
                and self.exit_tracers[k] in (0.0, 1.0)
                for k in self.dynamic
            )
        )
        # every junction's numbers in one pass over numbers: each
        # distribution's entries, row by row, add into a segment per
        # column, and each priority's into one, segments that must each
        # sum to 1.  A junction fails when its distribution's shape or its
        # priority's length is wrong, when an entry of either is NaN or
        # lies outside [0, 1 + 1e-12], or when a segment's sum is off 1 by
        # more than _COLUMN_TOL.  That takes in every junction
        # _junction_faults reports a number of, and a few it passes: a
        # priority weight in [-1e-12, 0), a distribution entry just above
        # 1, a priority of no weights.  bincount adds its weights in order,
        # so a column's mass is summed in row order and a priority's
        # weights one by one from 0, as _junction_faults sums them: a sum
        # at 1 within a rounding of the tolerance gets the same verdict.
        cols, rows, lens = self.n_in, self.n_out, self.n_in
        faulty = set()
        # compared one by one: a list of shapes would wake the cyclic GC
        if not (
            all(map(operator.eq, map(_SHAPE, self.distributions), zip(self.n_out, self.n_in)))
            and all(map(operator.eq, map(_SHAPE, self.priorities), zip(self.n_in)))
        ):
            # a misshapen junction fails outright; its entries are summed
            # as one column, so that every entry has a segment
            cols, rows, lens = list(cols), list(rows), list(lens)
            for k, (d, p) in enumerate(zip(self.distributions, self.priorities)):
                if d.shape != (self.n_out[k], self.n_in[k]) or p.shape != (self.n_in[k],):
                    faulty.add(k)
                    cols[k], rows[k], lens[k] = 1, d.size, p.size
        # each entry's segment, in the order of numbers: a distribution's
        # columns in turn, once per row, then one segment per priority past
        # all the columns.  By row of every distribution: its width, and
        # how far its entries' places in numbers run past their segments
        col_at = list(accumulate(cols, initial=0))
        n_cols = col_at[-1]
        width = np.array(cols, dtype=np.intp).repeat(rows)
        shift = width.cumsum() - width - np.array(col_at[:-1], dtype=np.intp).repeat(rows)
        entries = np.arange(len(self.numbers) - sum(lens)) - shift.repeat(width)
        segment = np.concatenate([entries, np.arange(n_cols, n_cols + n_juncs).repeat(lens)])
        # an entry outside [0, 1 + 1e-12], or NaN, counts as 2, which puts
        # its segment's sum off 1
        values = self.numbers.copy()
        values[~(np.minimum(values, 1.0 + 1e-12 - values) >= 0.0)] = 2.0
        off = np.bincount(segment, weights=values, minlength=n_cols + n_juncs) - 1.0
        bad = (np.abs(off) > _COLUMN_TOL).nonzero()[0].tolist()
        if bad:
            # the columns come first, junction by junction
            faulty.update(bisect_right(col_at, s) - 1 if s < n_cols else s - n_cols for s in bad)

        # a junction that fails there is worded, or every junction when
        # another of their rules fails
        for k in sorted(faulty) if junctions_ok else range(n_juncs):
            errors += _junction_faults(net.junctions[k], first[junction_ids[k]] != k, position, k in faulty)
        if not once:
            errors += _use_faults(chain.from_iterable(self.ins), chain.from_iterable(self.outs))

        # boundary conditions and arc ends by position; a missing arc is None
        rho_max = net.model.rho_max
        bc_arcs = list(map(position.get, self.bc_arc_ids))
        sourced = set(bc_arcs)
        bcs_ok = (
            None not in sourced
            and len(sourced) == len(bc_arcs)
            and producer.keys().isdisjoint(sourced)
            # each comparison is False on NaN
            and all(map(operator.le, repeat(0.0), self.rho_bar))
            and all(map(operator.ge, repeat(rho_max), self.rho_bar))
            and all(map(operator.le, repeat(0.0), self.tracer_in))
            and all(map(operator.ge, repeat(1.0), self.tracer_in))
        )
        if not bcs_ok:
            errors += _boundary_faults(net.boundary_conditions, position, producer, rho_max)
        # a duplicate arc is fed by no junction and no boundary condition,
        # so sources holds it and the first test fails
        ends_ok = (
            sourced.issuperset(self.sources)
            and list(map(kinds.__getitem__, self.sources)).count("external_in") == kinds.count("external_in")
            and list(map(kinds.__getitem__, self.sinks)).count("external_out") == kinds.count("external_out")
            and "circle" not in map(kinds.__getitem__, chain(self.sources, self.sinks))
        )
        if not ends_ok:
            errors += _end_faults(net.arcs, position, producer, consumer, sourced)

        components = _components(self, first, plain, consumer, producer)
        if components > 1:
            errors.append(f"graph is not connected ({components} components)")
        return errors


def _components(flat: _Flat, first: dict, plain: bool, consumer: dict, producer: dict) -> int:
    """How many parts the network falls into, ignoring direction.

    The junctions that name one arc are joined, all junctions of one id
    count as one (first maps an id to its first junction), and an arc no
    junction names is a part of its own.  In a plain network, one whose
    arcs each have at most one consumer and one producer and whose
    junction ids are each one junction's, an arc joins its producer and
    its consumer (producer and consumer map a position to them);
    otherwise each junction that names an arc is joined to the first
    that does.  A union-find over the junctions, halving each path it
    climbs.

    Every valid network is plain; the second way, which would count a
    plain network too, runs only for a network another rule already
    fails.  The first way joins the linked arcs with one set
    intersection instead of a pass over every arc entry: on
    topic_network(8000, 2) (tests/helpers.py) it takes 4.0 ms against
    10.8 ms on a 2-CPU host, a tenth of validate there.
    """
    if plain:
        linked = list(consumer.keys() & producer.keys())
        pairs = zip(map(producer.__getitem__, linked), map(consumer.__getitem__, linked))
        named = list(compress(count(), map(operator.or_, flat.n_in, flat.n_out)))
        unnamed = len(flat.position) - len(consumer) - len(producer) + len(linked)
    else:
        arcs = flat.incoming + flat.outgoing
        # by entry of arcs, the first junction of its junction's id
        group = list(map(first.__getitem__, flat.junction_ids))
        groups = list(chain.from_iterable(map(repeat, group + group, flat.n_in + flat.n_out)))
        # each named arc's first group; a dangling reference names none
        head = dict(zip(reversed(arcs), reversed(groups)))
        head.pop(None, None)
        heads = list(map(head.get, arcs, groups))
        pairs = compress(zip(groups, heads), map(operator.ne, groups, heads))
        named, unnamed = list(set(head.values())), len(flat.position) - len(head)
    parent = list(range(len(flat.junction_ids)))
    for g, h in pairs:
        while parent[g] != g:
            parent[g] = g = parent[parent[g]]
        while parent[h] != h:
            parent[h] = h = parent[parent[h]]
        parent[g] = h
    return sum(map(operator.eq, map(parent.__getitem__, named), named)) + unnamed


def _arc_faults(arcs: list[Arc], position: dict[str, int]) -> list[str]:
    """The faults of each arc on its own, in arc order."""
    errors = []
    for k, arc in enumerate(arcs):
        if position[arc.id] != k:
            errors.append(f"arc {arc.id}: duplicate id")
        if not _CSV_SPECIAL.isdisjoint(arc.id):
            errors.append(f"arc {arc.id!r}: id holds a comma, quote or line break")
        if not math.isfinite(arc.b - arc.a):  # also NaN or infinite ends
            errors.append(f"arc {arc.id}: a={arc.a}, b={arc.b} give no finite length")
        elif not arc.b > arc.a:
            errors.append(f"arc {arc.id}: b={arc.b} must exceed a={arc.a}")
        if not _is_count(arc.n_cells):
            errors.append(f"arc {arc.id}: n_cells must be an integer, got {arc.n_cells!r}")
        elif arc.n_cells < 1:
            errors.append(f"arc {arc.id}: n_cells must be >= 1")
        if arc.kind not in ARC_KINDS:
            errors.append(f"arc {arc.id}: unknown kind {arc.kind!r}")
    return errors


def _junction_faults(junc: Junction, duplicate: bool, position: dict[str, int], numbers: bool) -> list[str]:
    """The faults of one junction; its numbers only when numbers is set."""
    errors = []
    if duplicate:
        errors.append(f"junction {junc.id}: duplicate id")
    if not _CSV_SPECIAL.isdisjoint(junc.id):
        errors.append(f"junction {junc.id!r}: id holds a comma, quote or line break")
    for arc_id in chain(junc.incoming, junc.outgoing):
        if arc_id not in position:
            errors.append(f"junction {junc.id}: dangling reference to arc {arc_id}")
    n_in, n_out = len(junc.incoming), len(junc.outgoing)
    if len(set(junc.incoming + junc.outgoing)) != n_in + n_out:
        errors.append(f"junction {junc.id}: an arc appears twice")
    if not n_in or not n_out:
        errors.append(f"junction {junc.id}: needs at least one incoming and one outgoing arc")

    if numbers:
        if junc.distribution.shape != (n_out, n_in):
            errors.append(
                f"junction {junc.id}: distribution shape {junc.distribution.shape} does not match ({n_out}, {n_in})"
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
                        errors.append(f"junction {junc.id}: distribution column {i} mass {total:g} != 1")
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

    if junc.coefficient_mode not in _MODES:
        errors.append(f"junction {junc.id}: unknown coefficient_mode {junc.coefficient_mode!r}")
    if junc.coefficient_mode == "dynamic":
        if n_in != 1 or n_out != 2:
            errors.append(f"junction {junc.id}: dynamic mode requires 1 incoming and 2 outgoing arcs")
        if junc.exit_arc not in junc.outgoing:
            errors.append(f"junction {junc.id}: exit_arc must name one of its outgoing arcs")
        if junc.exit_tracer not in (0.0, 1.0):
            errors.append(f"junction {junc.id}: exit_tracer must be 0 or 1")
    return errors


def _use_faults(incoming_ids: Iterable[str], outgoing_ids: Iterable[str]) -> list[str]:
    """Each arc id that more than one junction consumes, then produces."""
    errors = []
    for arc_id, uses in Counter(incoming_ids).items():
        if uses > 1:
            errors.append(f"arc {arc_id}: consumed by {uses} junctions")
    for arc_id, uses in Counter(outgoing_ids).items():
        if uses > 1:
            errors.append(f"arc {arc_id}: produced by {uses} junctions")
    return errors


def _boundary_faults(
    bcs: list[BoundaryCondition], position: dict[str, int], producer: dict[int, int], rho_max: float
) -> list[str]:
    """The faults of each boundary condition, in order."""
    errors = []
    bc_arcs: set[str] = set()
    for bc in bcs:
        if bc.arc_id in bc_arcs:
            errors.append(f"arc {bc.arc_id}: multiple boundary conditions")
        bc_arcs.add(bc.arc_id)
        if bc.arc_id not in position:
            errors.append(f"boundary condition references missing arc {bc.arc_id}")
            continue
        if position[bc.arc_id] in producer:
            errors.append(f"arc {bc.arc_id}: boundary condition on a non-source arc")
        if not 0.0 <= bc.rho_bar <= rho_max:
            errors.append(f"arc {bc.arc_id}: rho_bar {bc.rho_bar} outside [0, {rho_max}]")
        if not 0.0 <= bc.tracer_in <= 1.0:
            errors.append(f"arc {bc.arc_id}: tracer_in {bc.tracer_in} outside [0, 1]")
    return errors


def _end_faults(
    arcs: list[Arc], position: dict[str, int], producer: dict[int, int], consumer: dict[int, int], sourced: set
) -> list[str]:
    """Each arc whose kind its ends, or its lack of inflow, contradict, in arc order."""
    errors = []
    for arc in arcs:
        k = position[arc.id]
        has_up, has_down = k in producer, k in consumer
        if not has_up and k not in sourced:
            errors.append(f"arc {arc.id}: no upstream junction and no boundary condition")
        if arc.kind == "external_in" and has_up:
            errors.append(f"arc {arc.id}: external_in but fed by a junction")
        if arc.kind == "external_out" and has_down:
            errors.append(f"arc {arc.id}: external_out but consumed by a junction")
        if arc.kind == "circle" and not (has_up and has_down):
            errors.append(f"arc {arc.id}: circle arc must connect two junctions")
    return errors


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
