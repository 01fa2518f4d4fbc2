import time

import pytest

from tagflow.bench import build_diamond_chain, run_bench
from tagflow.simulate import Simulator


def test_chain_topology_validates():
    net = build_diamond_chain(20, 5)
    assert net.validate() == []
    # 7 diamonds of 3 arcs plus the feed trunk
    assert len(net.arcs) == 22
    assert len(net.junctions) == 14
    Simulator(net)  # layout construction must succeed


def test_bench_reports_its_set_up_time():
    # building the chain and its Simulator, apart from the stepping loop
    report = run_bench(40, 5, 3)
    assert 0.0 < report.setup_time_s < 5.0
    assert 0.0 < report.wall_time_s < 5.0


def test_chain_size_scales_with_request():
    small = build_diamond_chain(4, 5)
    large = build_diamond_chain(40, 5)
    assert len(large.arcs) > len(small.arcs)
    assert len(large.arcs) >= 40


def test_tiny_bench_conserves_mass():
    report = run_bench(1, 10, 1)
    assert report.mass_residual <= 1e-10
    assert report.wall_time_s < 5.0
    assert report.total_cells == report.n_arcs * 10


@pytest.mark.parametrize("steps", [1, 7, 500])
def test_bench_takes_exactly_the_requested_steps(steps):
    report = run_bench(4, 3, steps)
    assert report.steps == steps
    assert report.conservation_ok


def test_bench_rejects_bad_parameters():
    with pytest.raises(ValueError):
        run_bench(0, 10, 1)
    with pytest.raises(ValueError):
        run_bench(10, 10, 0)


def test_bench_cost_scales_linearly_with_steps():
    # warm caches, then compare doubled step counts; allow generous
    # scheduling noise around the x2 linear-cost expectation
    run_bench(120, 10, 40)
    for _ in range(3):
        short = min(run_bench(120, 10, 150).wall_time_s for _ in range(3))
        long = min(run_bench(120, 10, 300).wall_time_s for _ in range(3))
        ratio = long / short
        if 1.4 <= ratio <= 2.6:
            break
        time.sleep(0.1)
    assert 1.4 <= ratio <= 2.6
