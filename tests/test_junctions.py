import numpy as np
import pytest

from tagflow.junctions import (
    JunctionFluxSolution,
    JunctionProblem,
    brute_force_solve,
    classify,
    diverge,
    merge,
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
