import pytest

from tagflow.network import build_roundabout
from tagflow.output import write_timeseries
from tagflow.simulate import SimConfig, Simulator

from helpers import single_arc_network
from tagflow.flux import FluxModel


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
