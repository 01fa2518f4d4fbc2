import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tagflow.bench import build_diamond_chain
from tagflow.network import build_roundabout
from tagflow.output import write_timeseries
from tagflow.scenario import parse_scenario
from tagflow.simulate import RunResult, SimConfig, Simulator

from helpers import reference_write_timeseries, single_arc_network
from tagflow.flux import FluxModel

ROUNDABOUT = Path(__file__).parent.parent / "demos" / "roundabout.json"
CSV_NAMES = ("densities", "fluxes", "coefficients")


def bundled_roundabout(**changes) -> RunResult:
    net, config = parse_scenario(ROUNDABOUT.read_text())
    return Simulator(net).run(dataclasses.replace(config, **changes))


@pytest.fixture(scope="module")
def short_run():
    net = build_roundabout(0.5, 0.5, 0.1127, 0.1127, cells_per_arc=10)
    return Simulator(net).run(SimConfig(t_end=5.0, sample_interval=1.0))


def test_density_header_and_order(short_run, tmp_path):
    paths = write_timeseries(short_run, tmp_path)
    lines = paths["densities"].read_text().splitlines()
    assert lines[0] == "time,arc_id,cell,density,tracer"
    rows = [line.split(",") for line in lines[1:]]
    keys = [(float(r[0]), r[1], int(r[2])) for r in rows]
    assert keys == sorted(keys)
    # 6 samples x 8 arcs x 10 cells
    assert len(rows) == 6 * 8 * 10


def test_identical_runs_are_byte_identical(tmp_path):
    import json

    net = build_roundabout(0.4, 0.6, 0.08, 0.05, cells_per_arc=8)
    cfg = SimConfig(t_end=3.0, sample_interval=0.5)
    res_a = Simulator(net).run(cfg)
    res_b = Simulator(build_roundabout(0.4, 0.6, 0.08, 0.05, cells_per_arc=8)).run(cfg)
    paths_a = write_timeseries(res_a, tmp_path / "a")
    paths_b = write_timeseries(res_b, tmp_path / "b")
    for name in ("densities", "fluxes", "coefficients"):
        assert paths_a[name].read_bytes() == paths_b[name].read_bytes()
    # the summary is deterministic apart from its wall-clock figures
    summaries = []
    for paths in (paths_a, paths_b):
        data = json.loads(paths["summary"].read_text())
        data.pop("wall_time_s")
        data.pop("cell_updates_per_s")
        summaries.append(data)
    assert summaries[0] == summaries[1]


def test_zero_inflow_densities_are_exactly_zero(tmp_path):
    net = single_arc_network(FluxModel(), 5, 0.0)
    res = Simulator(net).run(SimConfig(t_end=1.0, sample_interval=0.5))
    paths = write_timeseries(res, tmp_path)
    for line in paths["densities"].read_text().splitlines()[1:]:
        assert line.split(",")[3] == "0"


def test_seventeen_digit_flux_formatting(short_run, tmp_path):
    paths = write_timeseries(short_run, tmp_path)
    lines = paths["fluxes"].read_text().splitlines()
    assert lines[0] == "time,arc_id,flux"
    values = [line.split(",")[2] for line in lines[1:]]
    # round-trip exactness through the printed representation
    for text in values[:100]:
        assert float(text) == float(f"{float(text):.17g}")


def test_coefficients_table_covers_every_pair(short_run, tmp_path):
    paths = write_timeseries(short_run, tmp_path)
    lines = paths["coefficients"].read_text().splitlines()
    assert lines[0] == "time,junction_id,from_arc,to_arc,coefficient"
    # per sample: J1 2x1=2, J2 1x2=2, J3 2, J4 2 entries
    assert len(lines) - 1 == len(short_run.times) * 8


def test_summary_contains_run_figures(short_run, tmp_path):
    import json

    paths = write_timeseries(short_run, tmp_path)
    summary = json.loads(paths["summary"].read_text())
    assert summary["cells"] == 80
    assert "mass_residual" in summary
    assert "final_fluxes" in summary
    assert set(summary["final_fluxes"]) == set(short_run.arc_ids)
    assert "first_arrival_coefficients" in summary


def test_profile_free_run_writes_all_but_densities(tmp_path):
    net = single_arc_network(FluxModel(), 5, 0.1)
    res = Simulator(net).run(SimConfig(t_end=1.0, record_profiles=False))
    paths = write_timeseries(res, tmp_path)
    assert sorted(paths) == ["coefficients", "fluxes", "summary"]
    assert not (tmp_path / "densities.csv").exists()
    assert len(paths["fluxes"].read_text().splitlines()) == 1 + len(res.times)
    assert paths["summary"].exists()


def test_static_network_tracer_column_is_placeholder(tmp_path):
    net = single_arc_network(FluxModel(), 5, 0.1)
    res = Simulator(net).run(SimConfig(t_end=1.0, sample_interval=0.5))
    paths = write_timeseries(res, tmp_path)
    tracer_values = {
        line.split(",")[4] for line in paths["densities"].read_text().splitlines()[1:]
    }
    assert tracer_values == {"0.5"}


def hand_made_result() -> RunResult:
    """Edge-case floats, and arc ids whose sorted order is not network order."""
    specials = [
        -0.0, 0.0, np.nan, np.copysign(np.nan, -1.0), np.inf, -np.inf, 5e-324, 1e308, 0.1, -0.0
    ]
    arc_ids = ["b", "a10", "a2", "a"]
    cells_per_arc = {"b": 2, "a10": 1, "a2": 3, "a": 2}
    times = np.array([0.0, 0.1, 0.30000000000000004])
    pool = np.array(specials)
    density = np.resize(pool, (3, 8))
    return RunResult(
        arc_ids=arc_ids,
        cells_per_arc=cells_per_arc,
        junction_arcs={"Jz": (["b", "a2"], ["a10"]), "Ja": (["a10"], ["a", "a2"])},
        times=times,
        arc_fluxes=np.resize(pool[::-1], (3, 4)),
        coefficients={
            "Jz": np.resize(np.roll(pool, 3), (3, 1, 2)),
            "Ja": np.broadcast_to(np.array([[-0.0], [5e-324]]), (3, 2, 1)),
        },
        density=density,
        tracer=np.roll(density, 1, axis=1),
        first_arrival_coefficients={},
        equilibrium_time=None,
        summary={},
    )


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: bundled_roundabout(t_end=25.0), id="roundabout"),
        pytest.param(
            lambda: bundled_roundabout(t_end=25.0, coefficient_mode="static"),
            id="roundabout-static",
        ),
        pytest.param(
            lambda: Simulator(build_diamond_chain(40, 5)).run(SimConfig(t_end=2.0)),
            id="tracer-free-chain",
        ),
        pytest.param(
            lambda: bundled_roundabout(t_end=5.0, record_profiles=False), id="no-profiles"
        ),
        pytest.param(hand_made_result, id="hand-made"),
    ],
)
def test_writer_matches_the_row_at_a_time_reference(make, tmp_path):
    result = make()
    got = write_timeseries(result, tmp_path / "new")
    want = reference_write_timeseries(result, tmp_path / "reference")
    assert sorted(got) == sorted(want)
    for name in CSV_NAMES:
        if name in want:
            assert got[name].read_bytes() == want[name].read_bytes(), name


def test_hand_made_result_reaches_every_edge_case(tmp_path):
    paths = write_timeseries(hand_made_result(), tmp_path)
    rows = paths["densities"].read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows[:8]] == ["a"] * 2 + ["a10"] + ["a2"] * 3 + ["b"] * 2
    assert {"-0", "0", "nan", "inf", "-inf", "4.9406564584124654e-324"} <= {
        row.split(",")[3] for row in rows
    }


def _traced_write_peak(result: RunResult, out_dir: Path) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        write_timeseries(result, out_dir)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_writer_memory_does_not_grow_with_the_run(tmp_path):
    short = bundled_roundabout(t_end=25.0)
    long = bundled_roundabout(t_end=100.0)
    short_peak = _traced_write_peak(short, tmp_path / "short")
    long_peak = _traced_write_peak(long, tmp_path / "long")
    assert long_peak <= 1.2 * short_peak
    assert long_peak < long.density.nbytes / 4
