import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tagflow.junctions import (
    JunctionFluxSolution,
    JunctionProblem,
    _lp_solve,
    brute_force_solve,
    classify,
    diverge,
    general,
    merge,
    priority_order,
    solve,
)

from helpers import random_junction_problem


def make(demands, supplies, distribution, priority=None):
    return JunctionProblem(
        demands=np.asarray(demands, float),
        supplies=np.asarray(supplies, float),
        distribution=np.asarray(distribution, float),
        priority=None if priority is None else np.asarray(priority, float),
    )


def test_one_in_one_out_is_min_of_demand_and_supply():
    sol = solve(make([0.16], [0.25], [[1.0]]))
    assert sol.gamma_in[0] == pytest.approx(0.16, abs=1e-15)
    assert sol.gamma_out[0] == pytest.approx(0.16, abs=1e-15)


def test_one_in_two_out_binding_supply():
    sol = solve(make([0.2], [0.25, 0.04], [[0.5], [0.5]]))
    assert sol.gamma_in[0] == pytest.approx(0.08, abs=1e-12)
    np.testing.assert_allclose(sol.gamma_out, [0.04, 0.04], atol=1e-12)


def test_two_in_one_out_priority_waterfill():
    sol = solve(make([0.2, 0.2], [0.25], [[1.0, 1.0]], priority=[1.0, 0.0]))
    np.testing.assert_allclose(sol.gamma_in, [0.2, 0.05], atol=1e-12)
    # the same optimum as the oracle, selected by right-of-way
    oracle = brute_force_solve(make([0.2, 0.2], [0.25], [[1.0, 1.0]], [1.0, 0.0]))
    assert sol.objective == pytest.approx(oracle.objective, abs=2e-3)


def test_priority_reversal_flips_the_fill_order():
    sol = solve(make([0.2, 0.2], [0.25], [[1.0, 1.0]], priority=[0.0, 1.0]))
    np.testing.assert_allclose(sol.gamma_in, [0.05, 0.2], atol=1e-12)


def test_priority_tie_breaks_by_list_order():
    sol = solve(make([0.2, 0.2], [0.25], [[1.0, 1.0]], priority=[0.5, 0.5]))
    np.testing.assert_allclose(sol.gamma_in, [0.2, 0.05], atol=1e-12)


def test_zero_demand_and_zero_supply_are_eliminated_not_errors():
    sol = solve(make([0.0, 0.1], [0.25], [[1.0, 1.0]]))
    np.testing.assert_allclose(sol.gamma_in, [0.0, 0.1], atol=1e-15)
    sol = solve(make([0.2], [0.0, 0.0], [[0.5], [0.5]]))
    assert sol.gamma_in[0] == 0.0


def test_zero_distribution_rows_do_not_constrain():
    sol = solve(make([0.2], [0.0, 0.25], [[0.0], [1.0]]))
    assert sol.gamma_in[0] == pytest.approx(0.2, abs=1e-15)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        make([0.1, 0.2], [0.3], [[1.0]])
    with pytest.raises(ValueError):
        make([0.1], [0.3], [[1.0]], priority=[0.5, 0.5])


def test_negative_inputs_raise():
    with pytest.raises(ValueError):
        make([-0.1], [0.3], [[1.0]])
    with pytest.raises(ValueError):
        make([0.1], [-0.3], [[1.0]])
    with pytest.raises(ValueError):
        make([0.1], [0.3], [[-1.0]])


def test_brute_force_one_in_matches_solve_exactly():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n_out = int(rng.integers(1, 4))
        col = rng.uniform(0.1, 1.0, n_out)
        p = make(
            [rng.uniform(0.0, 0.25)],
            rng.uniform(0.0, 0.3, n_out),
            (col / col.sum()).reshape(n_out, 1),
        )
        np.testing.assert_allclose(
            brute_force_solve(p).gamma_in, solve(p).gamma_in, atol=0.0
        )


def test_brute_force_zero_demands_gives_zero():
    p = make([0.0, 0.0], [0.3, 0.1], [[0.5, 0.5], [0.5, 0.5]])
    sol = brute_force_solve(p)
    np.testing.assert_allclose(sol.gamma_in, [0.0, 0.0], atol=0.0)


def test_brute_force_rejects_many_incoming():
    with pytest.raises(ValueError):
        brute_force_solve(
            make([0.1] * 4, [0.3], [[1.0] * 4]), grid_step=0.1
        )


def test_random_two_by_two_within_one_grid_step():
    rng = np.random.default_rng(11)
    for _ in range(40):
        cols = [rng.uniform(0.1, 1.0, 2) for _ in range(2)]
        p = make(
            rng.uniform(0.0, 0.25, 2),
            rng.uniform(0.0, 0.3, 2),
            np.stack([c / c.sum() for c in cols], axis=1),
            priority=[0.6, 0.4],
        )
        step = 1e-3
        assert abs(solve(p).objective - brute_force_solve(p, step).objective) <= step + 1e-9


def test_conservation_on_random_problems():
    rng = np.random.default_rng(3)
    for _ in range(300):
        p = random_junction_problem(rng)
        sol = solve(p)
        assert abs(sol.gamma_in.sum() - sol.gamma_out.sum()) <= 1e-14
        assert np.all(sol.gamma_in >= -1e-15)
        assert np.all(sol.gamma_in <= p.demands + 1e-12)
        assert np.all(p.distribution @ sol.gamma_in <= p.supplies + 1e-9)


def test_objective_monotone_in_supply():
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = random_junction_problem(rng)
        base = solve(p).objective
        supplies = p.supplies.copy()
        supplies[int(rng.integers(0, p.n_out))] += rng.uniform(0.0, 0.2)
        bigger = solve(
            JunctionProblem(p.demands, supplies, p.distribution, p.priority)
        ).objective
        assert bigger >= base - 1e-9


def test_solution_objective_property():
    sol = JunctionFluxSolution(np.array([0.1, 0.2]), np.array([0.3]))
    assert sol.objective == pytest.approx(0.3)


def test_classify_kinds_and_merge_tolerance():
    assert classify(np.array([[1.0]])) == "diverge"
    assert classify(np.array([[0.3], [0.7]])) == "diverge"
    assert classify(np.array([[1.0, 1.0]])) == "merge"
    # a row Network.validate accepts (within 1e-9 of one) is still a merge
    assert classify(np.array([[1.0 - 5e-10, 1.0 - 5e-10]])) == "merge"
    assert classify(np.array([[1.0 - 2e-9, 1.0]])) == "general"
    assert classify(np.array([[0.5, 0.5], [0.5, 0.5]])) == "general"


def test_batched_kernels_match_scalar_loops():
    rng = np.random.default_rng(3)
    demands = rng.uniform(0.0, 0.25, (20, 3))
    supplies = rng.uniform(0.0, 0.3, (20, 3))
    split = rng.uniform(0.0, 1.0, (20, 3))
    split[rng.random((20, 3)) < 0.2] = 0.0
    split[:, 0] += 0.1
    split /= split.sum(axis=1, keepdims=True)
    admitted = diverge(demands[:, 0], supplies, split)
    waterfilled = merge(demands, supplies[:, 0])
    for b in range(20):
        caps = [supplies[b, j] / split[b, j] for j in range(3) if split[b, j] > 0.0]
        assert admitted[b] == min([demands[b, 0]] + caps)
        remaining = supplies[b, 0]
        for i in range(3):
            granted = min(demands[b, i], max(remaining, 0.0))
            assert waterfilled[b, i] == granted
            remaining -= granted


@pytest.mark.parametrize(
    "priority, expected",
    [([0.6, 0.4], [0.125, 0.125]), ([0.4, 0.6], [0.0, 0.25]), ([0.5, 0.5], [0.125, 0.125])],
)
def test_general_two_by_two_scarce_supply_goes_by_right_of_way(priority, expected):
    # both arcs split evenly, so outlet 0 caps the total at 0.25; the
    # arc with right of way takes what it demands, the other the rest
    p = make([0.125, 0.25], [0.125, 0.375], [[0.5, 0.5], [0.5, 0.5]], priority)
    assert classify(p.distribution) == "general"
    np.testing.assert_array_equal(solve(p).gamma_in, expected)


def test_general_two_by_two_throughput_overrides_right_of_way():
    # outlet 0 takes all of arc 0 but half of arc 1, so every unit of
    # arc 0 displaces two of arc 1: the maximum starves arc 0 even
    # though it has right of way
    p = make([0.25, 0.25], [0.125, 0.375], [[1.0, 0.5], [0.0, 0.5]], [0.9, 0.1])
    np.testing.assert_array_equal(solve(p).gamma_in, [0.0, 0.25])


def test_general_two_by_two_vertex_of_both_supplies():
    # the only maximizer is where both supply caps bind
    for priority in ([0.9, 0.1], [0.1, 0.9]):
        p = make([0.25, 0.375], [0.125, 0.25], [[0.5, 0.25], [0.5, 0.75]], priority)
        np.testing.assert_array_equal(solve(p).gamma_in, [0.125, 0.25])


def _general_batch(rng, n_in, n_out, size):
    """size random general problems of one shape.

    A tenth of the demands and supplies and about a quarter of the
    routing entries are zero (each column keeps one nonzero entry and
    sums to one), and priorities take two values, so ties are common.
    """
    demands = rng.uniform(0.0, 0.25, (size, n_in))
    demands[rng.random(demands.shape) < 0.1] = 0.0
    supplies = rng.uniform(0.0, 0.3, (size, n_out))
    supplies[rng.random(supplies.shape) < 0.1] = 0.0
    distribution = rng.uniform(0.1, 1.0, (size, n_out, n_in))
    zero = rng.random(distribution.shape) < 0.25
    kept = rng.integers(0, n_out, (size, n_in))
    zero[np.arange(size)[:, None], kept, np.arange(n_in)] = False
    distribution[zero] = 0.0
    distribution /= distribution.sum(axis=1, keepdims=True)
    priority = rng.integers(1, 3, (size, n_in)).astype(float)
    return demands, supplies, distribution, priority


# _lp_solve pins each settled arc 1e-9 below its value before the next
# stage, so its answer may sit that far, plus rounding, from the vertex
_LP_PIN = 1e-9 + 1e-15


def test_general_kernel_against_the_lp():
    rng = np.random.default_rng(31)
    for n_in, n_out in itertools.product((2, 3), (2, 3)):
        demands, supplies, distribution, priority = _general_batch(rng, n_in, n_out, 2500)
        order = np.array([priority_order(p) for p in priority])
        rows = np.arange(len(order))[:, None]
        ranked_d = demands[rows, order]
        ranked_a = np.take_along_axis(distribution, order[:, None, :], axis=2)
        ranked = general(ranked_d, supplies, ranked_a)
        gamma = np.empty_like(ranked)
        gamma[rows, order] = ranked

        assert np.all(gamma >= 0.0) and np.all(gamma <= demands)
        assert np.all(np.einsum("bji,bi->bj", distribution, gamma) <= supplies + 1e-12)
        for b in range(len(gamma)):
            shape = f"{n_in}x{n_out} problem {b}"
            alone = general(ranked_d[b : b + 1], supplies[b : b + 1], ranked_a[b : b + 1])
            assert np.array_equal(alone[0], ranked[b]), shape
            lp = _lp_solve(
                JunctionProblem(demands[b], supplies[b], distribution[b], priority[b])
            ).gamma_in
            gap = gamma[b].sum() - lp.sum()
            # the LP may give up up to its 1e-8 relaxed-total slack for
            # priority; the vertex never admits less than the LP
            assert -1e-12 <= gap <= 2e-8, shape
            if abs(gap) <= 1e-12:
                assert np.max(np.abs(gamma[b] - lp)) <= _LP_PIN, shape


_ROUNDABOUT_WITHOUT_SCIPY = """
import sys
import tagflow
net = tagflow.build_roundabout(0.5, 0.5, 0.1, 0.1, cells_per_arc=5)
tagflow.Simulator(net).run(tagflow.SimConfig(t_end=2.0))
print("scipy" in sys.modules)
"""


def test_scipy_is_imported_only_for_the_lp():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _ROUNDABOUT_WITHOUT_SCIPY],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert done.stdout.strip() == "False"
