import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tagflow.cli import EXIT_INVALID_INPUT, EXIT_OK, EXIT_RUNTIME_FAILURE, main
from tagflow.flux import FluxModel
from tagflow.network import Arc, BoundaryCondition, Junction, Network, build_roundabout
from tagflow.scenario import write_scenario
from tagflow.simulate import MAX_STEPS, SimConfig, SimulationError, Simulator

ROOT = Path(__file__).parent.parent
DEMO = str(ROOT / "demos" / "roundabout.json")


@pytest.fixture
def scenario_file(tmp_path):
    net = build_roundabout(0.5, 0.5, 0.1127, 0.1127, cells_per_arc=8)
    path = tmp_path / "scenario.json"
    path.write_text(write_scenario(net, SimConfig(t_end=3.0, sample_interval=1.0)))
    return path


def test_validate_accepts_good_scenario(scenario_file, capsys):
    assert main(["validate", str(scenario_file)]) == EXIT_OK
    assert "valid: 8 arcs, 4 junctions" in capsys.readouterr().out


def test_validate_rejects_bad_scenario(tmp_path, capsys, scenario_file):
    data = json.loads(scenario_file.read_text())
    data["junctions"][1]["distribution"] = [[0.5], [0.4]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(bad)]) == EXIT_INVALID_INPUT
    assert "J2" in capsys.readouterr().err


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
@pytest.mark.parametrize("old_id", ["S1", "J1"])
def test_ids_that_would_break_the_csv_are_invalid_input(
    tmp_path, capsys, scenario_file, old_id, char
):
    # the CSVs write ids unquoted, so one of these would split or end a row
    bad = tmp_path / "bad.json"
    bad.write_text(
        scenario_file.read_text().replace(json.dumps(old_id), json.dumps(f"{old_id}{char}x"))
    )
    out = tmp_path / "out"
    for argv in (["validate", str(bad)], ["run", str(bad), "--out", str(out)]):
        assert main(argv) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "comma, quote or line break" in err
    assert not out.exists()


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/scenario.json"]) == EXIT_INVALID_INPUT
    assert "cannot read" in capsys.readouterr().err


def test_validate_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["validate", str(empty)]) == EXIT_INVALID_INPUT
    assert "line 1" in capsys.readouterr().err


def test_run_writes_artifacts(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(scenario_file), "--out", str(out)]) == EXIT_OK
    assert (out / "densities.csv").exists()
    assert (out / "fluxes.csv").exists()
    assert (out / "coefficients.csv").exists()
    assert (out / "summary.json").exists()
    assert "mass balance residual" in capsys.readouterr().out


def test_run_without_profiles_skips_densities(scenario_file, tmp_path, capsys):
    data = json.loads(scenario_file.read_text())
    data["config"]["record_profiles"] = False
    scenario = tmp_path / "no_profiles.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--out", str(out)]) == EXIT_OK
    assert not (out / "densities.csv").exists()
    for name in ("fluxes.csv", "coefficients.csv", "summary.json"):
        assert (out / name).exists()
    assert "densities" not in capsys.readouterr().out


def test_roundabout_command(tmp_path, capsys):
    out = tmp_path / "round"
    code = main(
        [
            "roundabout",
            "--alpha", "0.5",
            "--beta", "0.5",
            "--cells", "8",
            "--t-end", "3",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    assert (out / "summary.json").exists()
    assert "simulated 3 time units" in capsys.readouterr().out


def test_roundabout_rejects_bad_alpha(tmp_path, capsys):
    code = main(["roundabout", "--alpha", "1.5", "--out", str(tmp_path / "x")])
    assert code == EXIT_INVALID_INPUT
    assert "alpha" in capsys.readouterr().err


def _one_error_line(err):
    """err, once it is checked to be one line and no traceback."""
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    return err


def test_roundabout_rejects_a_nan_t_end(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["roundabout", "--t-end", "nan", "--out", str(out)]) == EXIT_INVALID_INPUT
    assert "t_end" in _one_error_line(capsys.readouterr().err)
    assert not out.exists()


def test_scenario_rejects_bad_alpha(capsys):
    assert main(["scenario", "--alpha", "2"]) == EXIT_INVALID_INPUT
    out, err = capsys.readouterr()
    assert "alpha" in _one_error_line(err)
    assert out == ""


def test_scenario_refuses_a_network_that_validate_would_refuse(capsys):
    # tagflow validate refuses this network, so tagflow scenario must not print it
    assert main(["scenario", "--cells", str(10**21)]) == EXIT_INVALID_INPUT
    out, err = capsys.readouterr()
    assert _one_error_line(err) == "network has 8000000000000000000000 cells, more than an array can index\n"
    assert out == ""


def test_simulation_error_is_runtime_failure(scenario_file, tmp_path, monkeypatch, capsys):
    def blow_up(self, config):
        raise SimulationError("density left [0, rho_max]")

    monkeypatch.setattr(Simulator, "run", blow_up)
    out = tmp_path / "out"
    assert main(["run", str(scenario_file), "--out", str(out)]) == EXIT_RUNTIME_FAILURE
    assert "simulation failed: density left [0, rho_max]" in _one_error_line(capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("fault", [ValueError, KeyError])
def test_an_engine_fault_is_an_internal_error(scenario_file, tmp_path, monkeypatch, capsys, fault):
    # a fault of the engine is not the user's invalid input, whatever its type
    def broken(self, state):
        raise fault("operands could not be broadcast together")

    monkeypatch.setattr(Simulator, "compute_fluxes", broken)
    out = tmp_path / "out"
    assert main(["run", str(scenario_file), "--out", str(out)]) == EXIT_RUNTIME_FAILURE
    err = _one_error_line(capsys.readouterr().err)
    assert err.startswith(f"internal error: {fault.__name__}: ")
    assert not out.exists()


# a CLI process whose engine raises a KeyError on its first step
_BROKEN_ENGINE = """
import sys
from tagflow.cli import main
from tagflow.simulate import Simulator

def broken(self, state):
    raise KeyError("lost")

Simulator.compute_fluxes = broken
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "argv, code",
    [
        (["-m", "tagflow.cli", "validate", DEMO], EXIT_OK),
        (["-m", "tagflow.cli", "validate", "missing.json"], EXIT_INVALID_INPUT),
        (["-c", _BROKEN_ENGINE, "run", DEMO, "--out", "out"], EXIT_RUNTIME_FAILURE),
    ],
    ids=["valid", "missing", "engine-fault"],
)
def test_the_shell_sees_the_exit_code(tmp_path, argv, code):
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == code, done.stderr
    if code != EXIT_OK:
        _one_error_line(done.stderr)
        assert done.stdout == ""
    assert not (tmp_path / "out").exists()


def test_roundabout_reports_its_equilibrium_time(tmp_path, capsys):
    code = main(["roundabout", "--cells", "10", "--t-end", "30", "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert "equilibrium: t >= 12\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "cells, t_end, line",
    [("3", "300", "state still from t = 205\n"), ("10", "30", "state never stood still\n")],
    ids=["still", "moving"],
)
def test_roundabout_reports_when_its_state_stood_still(tmp_path, capsys, cells, t_end, line):
    code = main(["roundabout", "--cells", cells, "--t-end", t_end, "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert line in capsys.readouterr().out


def test_roundabout_static_flag(tmp_path):
    out = tmp_path / "static"
    code = main(
        ["roundabout", "--static", "--cells", "8", "--t-end", "2", "--out", str(out)]
    )
    assert code == EXIT_OK
    coeffs = (out / "coefficients.csv").read_text().splitlines()[1:]
    j2_values = {line.split(",")[4] for line in coeffs if line.split(",")[1] == "J2"}
    assert j2_values == {"0.5"}


def test_run_unwritable_destination_is_runtime_failure(scenario_file, tmp_path, capsys):
    occupied = tmp_path / "occupied"
    occupied.write_text("a plain file where the output directory should go")
    code = main(["run", str(scenario_file), "--out", str(occupied)])
    assert code == EXIT_RUNTIME_FAILURE
    assert "cannot write" in capsys.readouterr().err


def test_four_incoming_arcs_run_without_the_lp(tmp_path, capsys):
    ins = [f"I{k}" for k in range(4)]
    net = Network(
        model=FluxModel(),
        arcs=[Arc(a, 0.0, 1.0, 4, "external_in") for a in ins]
        + [Arc(b, 0.0, 1.0, 4, "external_out") for b in ("O0", "O1")],
        junctions=[
            Junction("J", ins, ["O0", "O1"], [[0.5, 0.25, 0.75, 1.0], [0.5, 0.75, 0.25, 0.0]])
        ],
        boundary_conditions=[BoundaryCondition(a, 0.2) for a in ins],
    )
    scenario = tmp_path / "four_in.json"
    scenario.write_text(write_scenario(net, SimConfig(t_end=1.0, sample_interval=0.5)))
    code = main(["run", str(scenario), "--out", str(tmp_path / "out")])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""


def test_bench_command_reports(capsys):
    assert main(["bench", "--arcs", "10", "--cells", "5", "--steps", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cell updates/s" in out
    assert "mass residual" in out


def test_bench_command_prints_its_set_up_time_beside_the_wall_time(capsys):
    assert main(["bench", "--arcs", "10", "--cells", "5", "--steps", "3"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert any(re.fullmatch(r"wall time: \d+\.\d{3} s \(set-up \d+\.\d{3} s\)", line) for line in lines)


def test_bench_rejects_bad_parameters(capsys):
    assert main(["bench", "--arcs", "0", "--cells", "5", "--steps", "3"]) == EXIT_INVALID_INPUT


def _refused_before_the_first_step(argv, monkeypatch, capsys):
    def no_step(self, state):
        raise AssertionError("a run too long to take took a step")

    monkeypatch.setattr(Simulator, "compute_fluxes", no_step)
    assert main(argv) == EXIT_INVALID_INPUT
    assert f"more than {MAX_STEPS} steps" in _one_error_line(capsys.readouterr().err)


def test_run_refuses_an_arc_too_short_to_finish(scenario_file, tmp_path, monkeypatch, capsys):
    data = json.loads(scenario_file.read_text())
    data["arcs"][0]["a"], data["arcs"][0]["b"] = 0.0, 1e-300
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps(data))
    assert main(["validate", str(tiny)]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "out"
    _refused_before_the_first_step(["run", str(tiny), "--out", str(out)], monkeypatch, capsys)
    assert not out.exists()


def test_roundabout_refuses_a_t_end_too_far_to_reach(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    argv = ["roundabout", "--cells", "8", "--t-end", "1e300", "--out", str(out)]
    _refused_before_the_first_step(argv, monkeypatch, capsys)
    assert not out.exists()


def test_bench_refuses_more_steps_than_a_run_may_take(monkeypatch, capsys):
    argv = ["bench", "--arcs", "4", "--cells", "3", "--steps", str(MAX_STEPS + 1)]
    _refused_before_the_first_step(argv, monkeypatch, capsys)


def test_scenario_command_round_trips(capsys):
    assert main(["scenario", "--cells", "8"]) == EXIT_OK
    text = capsys.readouterr().out
    data = json.loads(text)
    assert len(data["arcs"]) == 8


def test_simulation_out_of_memory_is_runtime_failure(scenario_file, tmp_path, monkeypatch, capsys):
    class Exhausted:
        def __init__(self, net):
            pass

        def run(self, config):
            raise MemoryError

    monkeypatch.setattr("tagflow.cli.Simulator", Exhausted)
    code = main(["run", str(scenario_file), "--out", str(tmp_path / "out")])
    assert code == EXIT_RUNTIME_FAILURE
    _one_error_line(capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("counts", [(10**20,), (2**62, 2**62)])
def test_network_too_large_to_index_is_invalid_input(scenario_file, tmp_path, monkeypatch, capsys, counts):
    def never_built(net):
        raise AssertionError("an oversized network reached the simulator")

    monkeypatch.setattr("tagflow.cli.Simulator", never_built)
    data = json.loads(scenario_file.read_text())
    for arc, n in zip(data["arcs"], counts):
        arc["n_cells"] = n
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(data))
    for argv in (["validate", str(huge)], ["run", str(huge), "--out", str(tmp_path / "out")]):
        assert main(argv) == EXIT_INVALID_INPUT
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [
            f"network has {sum(a['n_cells'] for a in data['arcs'])} cells, "
            "more than an array can index"
        ]
    assert not (tmp_path / "out").exists()


def test_validate_non_utf8_file(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'{"arcs": "\xc0\xff"}')
    assert main(["validate", str(binary)]) == EXIT_INVALID_INPUT
    assert "cannot read" in capsys.readouterr().err
