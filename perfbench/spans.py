"""Layer spans recorded from outside the program.

A traced run wraps public functions of tagflow's modules; each call
records one span (name, start, end, parent) in memory.  The spans are
summarised, and dumped to a file, only after the workload finished.
Nothing under src/ knows about this module.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

# (layer name, module path, attribute path); one row per layer boundary.
# A target missing from the program is skipped, so the trace keeps
# working after a layer loses a function, and is listed in
# Recorder.missing: its 0 calls then mean "not found", not "not called".
TARGETS = (
    ("scenario.parse_scenario", "tagflow.scenario", "parse_scenario"),
    ("network.validate", "tagflow.network", "Network.validate"),
    ("bench.build_diamond_chain", "tagflow.bench", "build_diamond_chain"),
    ("simulate.Simulator", "tagflow.simulate", "Simulator.__init__"),
    ("simulate.compute_fluxes", "tagflow.simulate", "Simulator.compute_fluxes"),
    ("simulate.apply", "tagflow.simulate", "Simulator.apply"),
    ("simulate.run", "tagflow.simulate", "Simulator.run"),
    ("flux.demand_and_supply", "tagflow.flux", "FluxModel.demand_and_supply"),
    ("junctions.solve", "tagflow.junctions", "solve"),
    ("junctions.linprog", "tagflow.junctions", "linprog"),
    ("output.write_timeseries", "tagflow.output", "write_timeseries"),
)


class Recorder:
    """In-memory span list; spans[i] = [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.missing: list[str] = []  # layers whose target was not found

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1])
            open_.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced

    def install(self, modules) -> None:
        """Replace every target by a wrapper; ``modules`` maps name to module."""
        for name, module_name, attr_path in TARGETS:
            owner = modules.get(module_name)
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                self.missing.append(name)
                continue
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": self.spans}))


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer name: calls, inclusive seconds, self seconds.

    A span's self time is its duration minus the durations of its
    direct children; children of one span never overlap, because the
    program is single-threaded and spans nest by call.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name, _, _ in TARGETS}
    for (name, start, end, _), children in zip(spans, child_time):
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - children
    return totals
