"""tagflow benchmark: seeded workloads, end-to-end timings, per-layer trace.

usage: python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a tagflow checkout.  The run is a closed loop:
one fresh interpreter at a time (perfbench/child.py), each doing one
iteration of the workload, for S seconds.  BLAS and
OpenMP pools are pinned to one thread.  Every iteration checks its
outputs; an iteration that raises or fails a check counts as failed.

--trace 0 reports the end-to-end metrics (see END_TO_END for the
statistic).  Before the first iteration and after each one the runner
times a fixed host-speed probe (calibrate.py); timings are reported at
the probe's reference speed.  --trace 1 alternates untraced and traced
iterations and reports the per-layer metrics of the traced ones.  The last line of
stdout is one JSON object; lines above it are for people.  Exit code 0
when every iteration passed, 1 when any failed, 2 when the checkout
or the interpreter cannot run tagflow at all (no result printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
WORKLOADS = ("diamond-chain", "roundabout", "generic-grid")
CHILD_TIMEOUT_S = 120
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}

# The bounded end-to-end metrics: name, unit, statistic over the
# iterations of a run.  On a shared host the speed of identical work
# switches between a fast and a slow level every few tens of
# milliseconds, and the slow share drifts over minutes, so a run's own
# median or minimum moves by 25-45% between runs of the same code.  A
# timing is therefore its sum over the run's iterations divided by the
# sum of the host-speed factors of those iterations (see calibrate.py):
# the mean time per iteration at the probe's reference speed.  The raw
# median and best are printed beside it.  setup_s lasts only 1-2 ms on
# two workloads, so one set-up that a page fault or a collection hit
# would move a mean: it is the median of the iterations' set-ups, each
# divided by its own host-speed factor.
def normalised(values: list[float], hosts: list[float]) -> float:
    return sum(values) / sum(hosts)


def normalised_median(values: list[float], hosts: list[float]) -> float:
    return statistics.median(v / h for v, h in zip(values, hosts))


def normalised_rate(rates: list[float], hosts: list[float]) -> float:
    """Rate of the normalised mean time: work / (sum of times / sum of factors)."""
    return normalised([1.0 / r for r in rates], hosts) ** -1


def median(values: list[float], hosts: list[float]) -> float:
    return statistics.median(values)


END_TO_END = (
    ("import_s", "s", normalised),
    ("setup_s", "s", normalised_median),
    ("sim_s", "s", normalised),
    ("total_s", "s", normalised),
    ("cell_updates_per_s", "1/s", normalised_rate),
    ("peak_rss_mb", "MB", median),
)
# printed for people, not bounded: write_s is 0 outside roundabout and
# fail_ratio is 0 on a correct commit
REPORTED_ONLY = (("write_s", "s", normalised),)

COUNTS = (  # per-layer counts that must repeat exactly between iterations
    "network.validate.calls",
    "simulate.compute_fluxes.calls",
    "simulate.apply.calls",
    "flux.demand_and_supply.calls",
    "junctions.solve.calls",
    "junctions.linprog.calls",
    "output.csv_bytes",
    "output.csv_rows",
)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(root / "src")
    env["PERFBENCH_SRC"] = str(root / "src")
    # bytecode written by the warm-up keeps import_s from timing compilation
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def import_probe(env: dict, work: Path, importtime: bool) -> subprocess.CompletedProcess:
    """`import tagflow` in a fresh interpreter, optionally with -X importtime."""
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import tagflow"]
    return subprocess.run(argv, env=env, cwd=work, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def junctions_import_s(stderr: str) -> float:
    """Cumulative import time of tagflow.junctions from -X importtime output."""
    for line in stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "tagflow.junctions":
            return int(parts[1]) / 1e6
    return 0.0


def run_child(env: dict, work: Path, workload: str, seed: int, trace: bool) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix="iter-", dir=work))
    try:
        argv = [
            sys.executable,
            str(HERE / "child.py"),
            workload,
            str(seed),
            "1" if trace else "0",
            str(workdir),
        ]
        try:
            proc = subprocess.run(
                argv, env=env, cwd=work, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return {"ok": False, "errors": [f"iteration exceeded {CHILD_TIMEOUT_S} s"]}
        lines = proc.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return {"ok": False, "errors": [f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
        if trace and (workdir / "spans.json").exists():
            shutil.copyfile(workdir / "spans.json", work / f"spans-{workload}-{seed}.json")
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def disagree(records: list[dict], what: str, key, problems: list[str]) -> None:
    """Fail every record whose key differs from the most common one."""
    keyed = [(r, key(r)) for r in records]
    values = [k for _, k in keyed if k is not None]
    if len(set(values)) < 2:
        return
    majority = max(set(values), key=values.count)
    for record, value in keyed:
        if value is not None and value != majority:
            record["ok"] = False
            problems.append(f"{what} is {value}, other iterations of this seed give {majority}")


def tail_percentile(values: list[float], higher_is_better: bool) -> str:
    """Worst-side percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    ordered = sorted(values)
    if higher_is_better:
        return f"p{-(-1000 // n)}={ordered[10]:.6g} (n={n})"
    return f"p{100 * (n - 10) // n}={ordered[n - 11]:.6g} (n={n})"


def layer_metrics(record: dict) -> dict[str, float]:
    layers = record["layers"]
    solves = layers["junctions.solve"]["calls"]
    covered = sum(entry["self_s"] for entry in layers.values())
    return {
        "scenario.parse_scenario.s": layers["scenario.parse_scenario"]["s"],
        "network.validate.s": layers["network.validate"]["s"],
        "network.validate.calls": layers["network.validate"]["calls"],
        "bench.build_diamond_chain.s": layers["bench.build_diamond_chain"]["s"],
        "simulate.Simulator.self_s": layers["simulate.Simulator"]["self_s"],
        "simulate.compute_fluxes.self_s": layers["simulate.compute_fluxes"]["self_s"],
        "simulate.compute_fluxes.calls": layers["simulate.compute_fluxes"]["calls"],
        "simulate.apply.self_s": layers["simulate.apply"]["self_s"],
        "simulate.apply.calls": layers["simulate.apply"]["calls"],
        "simulate.run.self_s": layers["simulate.run"]["self_s"],
        "flux.demand_and_supply.self_s": layers["flux.demand_and_supply"]["self_s"],
        "flux.demand_and_supply.calls": layers["flux.demand_and_supply"]["calls"],
        "junctions.solve.self_s": layers["junctions.solve"]["self_s"],
        "junctions.solve.calls": solves,
        "junctions.linprog.s": layers["junctions.linprog"]["s"],
        "junctions.linprog.calls": layers["junctions.linprog"]["calls"],
        "junctions.linprog_per_solve": layers["junctions.linprog"]["calls"] / solves if solves else 0.0,
        "output.write_timeseries.s": layers["output.write_timeseries"]["s"],
        "output.csv_bytes": record.get("csv_bytes", 0),
        "output.csv_rows": record.get("csv_rows", 0),
        "trace.coverage": covered / record["traced_wall_s"],
    }


LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s", "csv_bytes": "bytes", "csv_rows": "count"}


def unit_of(name: str) -> str:
    if name in ("junctions.linprog_per_solve", "trace.overhead", "trace.coverage"):
        return "ratio"
    if name == "trace.missing":
        return "count"
    if name == "import.tagflow.junctions.cum_s":
        return "s"
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


def measure(workload: str, args, env: dict, work: Path) -> dict:
    """One workload for --seconds; prints the human lines, returns the result."""
    records: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    if args.trace:
        probes = [import_probe(env, work, importtime=True).stderr for _ in range(3)]
        import_cum_s = statistics.median(junctions_import_s(p) for p in probes)
    # start another iteration only if it and the probe after it should
    # end within --seconds, so that a run lasts --seconds however long
    # one iteration takes
    probe_before = calibrate.probe()
    while (
        not records
        or (args.trace and not traced)
        or time.perf_counter() - start + statistics.median(durations) <= args.seconds
    ):
        trace_this = bool(args.trace) and len(records) > len(traced)
        began = time.perf_counter()
        record = run_child(env, work, workload, args.seed, trace_this)
        probe_after = calibrate.probe()
        durations.append(time.perf_counter() - began)
        # how much slower than the reference the host ran around this iteration
        record["host"] = (probe_before + probe_after) / 2.0 / calibrate.REFERENCE_S
        probe_before = probe_after
        (traced if trace_this else records).append(record)

    every = records + traced
    problems = [e for r in every for e in r["errors"]]
    # outputs of one seed must not depend on the iteration, nor must the
    # traced call counts; iterations that disagree with the majority fail
    disagree(every, "CSV output", lambda r: r.get("csv_sha256"), problems)
    for name in COUNTS:
        disagree(traced, name, lambda r: layer_metrics(r)[name] if r["ok"] else None, problems)
    failures = [r for r in every if not r["ok"]]
    passed = [r for r in records if r["ok"]]
    passed_traced = [r for r in traced if r["ok"]]

    print(f"workload {workload}, seed {args.seed}, trace {args.trace}: {len(every)} iterations")
    print(f"  fail_ratio = {len(failures) / len(every):.6g} ({len(failures)} of {len(every)} iterations)")
    for message in problems:
        print(f"check failed: {message}", file=sys.stderr)

    metrics: dict[str, dict] = {}
    if args.trace == 0 and passed:
        series = {
            "import_s": [r["import_s"] for r in passed],
            "setup_s": [r["setup_s"] for r in passed],
            "sim_s": [r["sim_s"] for r in passed],
            "write_s": [r["write_s"] for r in passed],
            "total_s": [r["total_s"] for r in passed],
            "cell_updates_per_s": [r["cell_updates_per_s"] for r in passed],
            "peak_rss_mb": [r["peak_rss_mb"] for r in passed],
        }
        hosts = [r["host"] for r in passed]
        print(f"  host speed factor: mean {statistics.fmean(hosts):.4g}, "
              f"min {min(hosts):.4g}, max {max(hosts):.4g} (1 = reference speed)")
        for name, unit, statistic in END_TO_END + REPORTED_ONLY:
            value = statistic(series[name], hosts)
            print(f"  {name} = {value:.6g} {unit} ({statistic.__name__} of {len(series[name])}); "
                  f"raw median {statistics.median(series[name]):.6g}, "
                  f"best {(max if name == 'cell_updates_per_s' else min)(series[name]):.6g}, "
                  f"{tail_percentile(series[name], name == 'cell_updates_per_s')}")
            metrics[name] = {"value": value, "unit": unit}
        del metrics["write_s"]
    elif args.trace == 1 and passed and passed_traced:
        # the layer table of one iteration stays self-consistent; take the
        # fastest, the one the host slowed least
        fastest = min(passed_traced, key=lambda r: r["total_s"])
        values = layer_metrics(fastest)
        values["trace.overhead"] = (
            normalised([r["total_s"] for r in passed_traced], [r["host"] for r in passed_traced])
            / normalised([r["total_s"] for r in passed], [r["host"] for r in passed])
            - 1.0
        )
        values["import.tagflow.junctions.cum_s"] = import_cum_s
        # a layer whose function was not found reads 0 calls; say so
        values["trace.missing"] = len(fastest["missing"])
        for name in fastest["missing"]:
            print(f"  trace: {name} not found in the program; its layer metrics read 0")
        for name, value in values.items():
            print(f"  {name} = {value:.6g} {unit_of(name)}")
            metrics[name] = {"value": value, "unit": unit_of(name)}

    return {"correct": not problems, "attempted": len(every), "failed": len(failures), "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "tagflow" / "__init__.py").is_file():
        print(f"{root} is not a tagflow checkout: src/tagflow is missing", file=sys.stderr)
        return 2
    env = child_env(root)
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)

    # untimed warm-up: compiles bytecode in a fresh checkout and fills the
    # file cache, which a user pays once, not on every run
    warm = import_probe(env, work, importtime=False)
    if warm.returncode != 0:
        print(f"import tagflow failed:\n{warm.stderr}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = measure(args.workload, args, env, work)
    else:
        # every workload in turn, each for --seconds; one line per
        # workload, then one combined line with "<workload>/<metric>" keys
        results = {name: measure(name, args, env, work) for name in WORKLOADS}
        for name, one in results.items():
            print(f"{name}: {json.dumps(one)}")
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
