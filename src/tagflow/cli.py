"""Command line front end.

Exit codes are a stable contract: 0 success, 2 invalid input (bad
arguments, unreadable files, schema or network violations, runs longer
than MAX_STEPS steps), 3 runtime failure (simulation blow-up,
unwritable output, exhausted memory, or any internal error, which
prints one "internal error: ..." line).  main is the one place that
turns an exception into an exit code: input is refused with an
InvalidInputError, and any other exception is a fault of the run or of
the engine.
"""

from __future__ import annotations

import argparse
import math
import sys

from .bench import run_bench
from .network import InvalidInputError, NetworkValidationError, build_roundabout
from .output import write_timeseries
from .scenario import parse_scenario, write_scenario
from .simulate import SimConfig, SimulationError, Simulator

EXIT_OK = 0
EXIT_INVALID_INPUT = 2
EXIT_RUNTIME_FAILURE = 3

# unit-model entry density whose flux is exactly 0.1
_DEFAULT_RHO = (1.0 - math.sqrt(0.6)) / 2.0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagflow",
        description="Macroscopic tag flow on directed networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario file")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--out", required=True, help="output directory for CSV/JSON artifacts")

    p_round = sub.add_parser("roundabout", help="simulate the built-in roundabout")
    _add_roundabout_options(p_round)
    p_round.add_argument("--t-end", type=float, default=100.0, help="simulated time span")
    mode = p_round.add_mutually_exclusive_group()
    mode.add_argument(
        "--dynamic",
        dest="dynamic",
        action="store_true",
        default=True,
        help="adapt exit splits to arriving composition (default)",
    )
    mode.add_argument(
        "--static",
        dest="dynamic",
        action="store_false",
        help="freeze exit splits at their first-arrival values",
    )
    p_round.add_argument("--out", required=True, help="output directory for CSV/JSON artifacts")

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario", help="path to a scenario JSON file")

    p_bench = sub.add_parser("bench", help="run the synthetic scaling benchmark")
    p_bench.add_argument("--arcs", type=int, default=2000, help="approximate arc count")
    p_bench.add_argument("--cells", type=int, default=25, help="cells per arc")
    p_bench.add_argument("--steps", type=int, default=500, help="number of time steps")

    p_show = sub.add_parser("scenario", help="print the roundabout as a scenario file")
    _add_roundabout_options(p_show)
    return parser


def _add_roundabout_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.5, help="S1 share exiting at S3")
    parser.add_argument("--beta", type=float, default=0.5, help="S2 share exiting at S4")
    parser.add_argument("--rho1", type=float, default=_DEFAULT_RHO, help="S1 entry density")
    parser.add_argument("--rho2", type=float, default=_DEFAULT_RHO, help="S2 entry density")
    parser.add_argument("--cells", type=int, default=50, help="cells per arc")


def _build_roundabout(args):
    return build_roundabout(args.alpha, args.beta, args.rho1, args.rho2, args.cells)


def _load_scenario(path: str):
    """The parsed (network, config) of the scenario file at path."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {path}: {exc}") from exc
    return parse_scenario(text)


def _report_run(result) -> None:
    s = result.summary
    print(f"simulated {s['t_end']:g} time units in {s['steps']} steps ({s['cells']} cells)")
    if s["equilibrium_time"] is None:
        print("equilibrium: not detected")
    else:
        print(f"equilibrium: t >= {s['equilibrium_time']:g}")
    if s["fixed_point_time"] is None:
        print("state never stood still")
    else:
        print(f"state still from t = {s['fixed_point_time']:g}")
    print(f"mass balance residual: {s['mass_residual']:.3e}")
    print(f"wall time: {s['wall_time_s']:.3f} s")


def _run_and_write(net, config, out_dir: str) -> int:
    result = Simulator(net).run(config)
    paths = write_timeseries(result, out_dir)
    _report_run(result)
    for name, path in sorted(paths.items()):
        print(f"{name}: {path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    return _run_and_write(*_load_scenario(args.scenario), args.out)


def _cmd_roundabout(args) -> int:
    net = _build_roundabout(args)
    config = SimConfig(t_end=args.t_end, coefficient_mode="network" if args.dynamic else "static")
    return _run_and_write(net, config, args.out)


def _cmd_validate(args) -> int:
    net, _ = _load_scenario(args.scenario)
    print(f"valid: {len(net.arcs)} arcs, {len(net.junctions)} junctions")
    return EXIT_OK


def _cmd_bench(args) -> int:
    report = run_bench(args.arcs, args.cells, args.steps)
    print(
        f"arcs: {report.n_arcs} (requested {report.requested_arcs}), "
        f"junctions: {report.n_junctions}, cells/arc: {report.cells_per_arc}, "
        f"total cells: {report.total_cells}"
    )
    print(f"steps: {report.steps}, dt: {report.dt:g}")
    print(f"wall time: {report.wall_time_s:.3f} s (set-up {report.setup_time_s:.3f} s)")
    print(f"cell updates/s: {report.cell_updates_per_s:.3e}")
    status = "ok" if report.conservation_ok else "VIOLATED"
    print(
        f"mass residual: {report.mass_residual:.3e} "
        f"(tolerance {report.mass_tolerance:.3e}, {status})"
    )
    return EXIT_OK if report.conservation_ok else EXIT_RUNTIME_FAILURE


def _cmd_scenario(args) -> int:
    net = _build_roundabout(args)
    report = net.validate()
    if report:
        raise NetworkValidationError(report)
    sys.stdout.write(write_scenario(net))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "roundabout": _cmd_roundabout,
        "validate": _cmd_validate,
        "bench": _cmd_bench,
        "scenario": _cmd_scenario,
    }
    try:
        return handlers[args.command](args)
    except InvalidInputError as exc:
        for line in exc.errors:
            print(line, file=sys.stderr)
        return EXIT_INVALID_INPUT
    except SimulationError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"cannot write artifacts: {exc}", file=sys.stderr)
    except MemoryError:
        print("ran out of memory", file=sys.stderr)
    except Exception as exc:  # a fault of the engine, not of the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_RUNTIME_FAILURE


if __name__ == "__main__":
    sys.exit(main())
