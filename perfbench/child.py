"""One benchmark iteration in a fresh interpreter.

usage: python3 perfbench/child.py WORKLOAD SEED TRACE WORKDIR

Times ``import tagflow`` before anything else imports numpy, builds
the seeded input, makes the workload's timed calls, records the peak
RSS, then checks the outputs.  Prints one JSON object on stdout.  With
TRACE=1 the layer wrappers are installed after the import and before
the first timed call, and the spans are written to WORKDIR.
"""

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    workload, seed, trace, workdir = sys.argv[1:5]
    seed, trace = int(seed), trace == "1"

    start = time.perf_counter()
    import tagflow

    import_s = time.perf_counter() - start

    from pathlib import Path

    import checks
    import spans
    import workloads

    record = {"ok": False, "errors": [], "import_s": import_s}
    try:
        expected_src = Path(os.environ["PERFBENCH_SRC"]).resolve()
        if expected_src not in Path(tagflow.__file__).resolve().parents:
            raise RuntimeError(f"imported tagflow from {tagflow.__file__}, not from {expected_src}")
        workdir = Path(workdir)
        make_inputs, execute = workloads.WORKLOADS[workload]
        inputs = make_inputs(seed, workdir)

        recorder = spans.Recorder() if trace else None
        if recorder is not None:
            recorder.install(sys.modules)
        timed = execute(tagflow, inputs, workdir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        record.update(
            setup_s=timed["setup_s"],
            sim_s=timed["sim_s"],
            write_s=timed["write_s"],
            total_s=import_s + timed["setup_s"] + timed["sim_s"] + timed["write_s"],
            cells=timed["cells"],
            steps=timed["steps"],
            cell_updates_per_s=timed["cells"] * timed["steps"] / timed["sim_s"],
            peak_rss_mb=peak_rss_mb,
        )

        out = timed["outputs"]
        if workload == "diamond-chain":
            errors = checks.check_diamond(out)
        elif workload == "roundabout":
            errors = checks.check_roundabout(out, inputs, tagflow)
            record["csv_sha256"], record["csv_bytes"], record["csv_rows"] = checks.csv_digest(
                out["csv_paths"]
            )
        else:
            errors = checks.check_grid(out, tagflow)
        record["errors"] = errors

        if recorder is not None:
            record["layers"] = spans.layer_totals(recorder.spans)
            record["missing"] = recorder.missing
            record["traced_wall_s"] = timed["setup_s"] + timed["sim_s"] + timed["write_s"]
            recorder.dump(workdir / "spans.json")
        record["ok"] = not errors
    except Exception:  # a raising run is a failed run; the parent counts it
        record["errors"].append(traceback.format_exc())
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
