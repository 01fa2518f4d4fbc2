"""The benchmark's layer trace must find every function it wraps.

perfbench/spans.py skips a target it cannot find and only counts it in
trace.missing, so a rename in tagflow would silently drop a layer from
the benchmark's trace.  This reads the target table without installing
anything, and checks that the step still calls the targets it times.
"""

import importlib
import importlib.util
from pathlib import Path

from tagflow.bench import build_diamond_chain
from tagflow.flux import FluxModel
from tagflow.simulate import Simulator

from helpers import mixed_kind_network

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, module_name, attr_path in spans.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{layer}: {module_name}.{attr_path}")
    assert missing == []


def test_compute_fluxes_calls_demand_and_supply_once(monkeypatch):
    # the trace times flux.demand_and_supply by wrapping it; were the step
    # to inline its passes, that layer would read 0 with no target missing
    calls = []
    original = FluxModel.demand_and_supply

    def counted(self, *args, **kwargs):
        calls.append(args[0].shape)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(FluxModel, "demand_and_supply", counted)
    for net in (build_diamond_chain(40, 5), mixed_kind_network()):
        sim = Simulator(net)
        state = sim.init_state()
        calls.clear()
        sim.compute_fluxes(state)
        assert calls == [(sim.total_cells,)]
