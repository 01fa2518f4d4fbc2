"""The benchmark's layer trace must find every function it wraps.

perfbench/spans.py skips a target it cannot find and only counts it in
trace.missing, so a rename in tagflow would silently drop a layer from
the benchmark's trace.  This reads the target table without installing
anything.
"""

import importlib
import importlib.util
from pathlib import Path

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
