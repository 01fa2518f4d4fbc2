"""Macroscopic tag flow on directed topic networks.

A scalar conservation law is solved on every arc with a first-order
finite-volume scheme; junctions allocate fluxes by maximizing total
throughput under demand, supply, and routing constraints, with
right-of-way tie-breaking.  A destination tracer drives time-varying
exit splits on roundabout-style networks, whose closed-form steady
state is available for cross-checking.
"""

from .bench import BenchReport, build_diamond_chain, run_bench
from .flux import FluxModel
from .junctions import JunctionFluxSolution, JunctionProblem, brute_force_solve, solve
from .network import (
    Arc,
    BoundaryCondition,
    InvalidInputError,
    Junction,
    Network,
    NetworkValidationError,
    UndefinedCoefficientsError,
    build_roundabout,
    check_low_flow,
    equilibrium_coefficients,
    equilibrium_fluxes,
    initial_coefficients,
)
from .output import write_timeseries
from .scenario import ScenarioSchemaError, ScenarioSyntaxError, parse_scenario, write_scenario
from .simulate import (
    RunResult,
    SimConfig,
    SimState,
    SimulationError,
    Simulator,
    detect_equilibrium,
    dynamic_exit_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "BenchReport",
    "BoundaryCondition",
    "FluxModel",
    "InvalidInputError",
    "Junction",
    "JunctionFluxSolution",
    "JunctionProblem",
    "Network",
    "NetworkValidationError",
    "RunResult",
    "ScenarioSchemaError",
    "ScenarioSyntaxError",
    "SimConfig",
    "SimState",
    "SimulationError",
    "Simulator",
    "UndefinedCoefficientsError",
    "brute_force_solve",
    "build_diamond_chain",
    "build_roundabout",
    "check_low_flow",
    "detect_equilibrium",
    "dynamic_exit_coefficients",
    "equilibrium_coefficients",
    "equilibrium_fluxes",
    "initial_coefficients",
    "parse_scenario",
    "run_bench",
    "solve",
    "write_scenario",
    "write_timeseries",
]
