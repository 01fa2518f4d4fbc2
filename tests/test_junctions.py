import hashlib
import itertools
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from tagflow import junctions
from tagflow.junctions import (
    KERNELS,
    JunctionFluxSolution,
    JunctionProblem,
    _axis_grid,
    brute_force_solve,
    classify,
    diverge,
    general,
    merge,
    priority_order,
    solve,
)

from helpers import exact_junction, presolve_fits_reference, random_junction_problem


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
    with pytest.raises(ValueError, match="at least one incoming and one outgoing"):
        make([], [1.0], np.zeros((1, 0)))
    with pytest.raises(ValueError, match="at least one incoming and one outgoing"):
        make([0.1], [], np.zeros((0, 1)))


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


def test_brute_force_rejects_a_step_that_is_not_positive():
    with pytest.raises(ValueError, match="grid_step must be positive"):
        brute_force_solve(make([0.1, 0.1], [0.3], [[1.0, 1.0]]), grid_step=0.0)


def test_problem_rejects_a_nan_demand():
    with pytest.raises(ValueError, match="demands must be finite"):
        make([np.nan], [0.3], [[1.0]])


def test_brute_force_grid_stops_at_the_demand():
    # a grid point of 0.002 past the demand 0.0019, clipped only after
    # the search scored it, would cost 1e-4 of the total
    for d in (0.0019, 0.0016, 0.002, 0.3, 0.0):
        grid = _axis_grid(d, 1e-3)
        assert grid.max() == d and np.all(np.diff(grid) > 0.0)
    p = make([0.0019, 0.5], [0.3], [[1.0, 1.0]], priority=[0.9, 0.1])
    sol = brute_force_solve(p)
    assert sol.objective == pytest.approx(solve(p).objective, abs=1e-15)
    np.testing.assert_allclose(sol.gamma_in, [0.0019, 0.2981], atol=1e-15)


def test_brute_force_keeps_a_junction_a_hair_over_a_zero_supply():
    # the best candidate routes 2e-15 into the zero supply, within the
    # feasibility slack; scaling that out would zero both arcs
    p = make([0.2, 0.2], [0.25, 0.0], [[1.0 - 1e-14, 1.0], [1e-14, 0.0]])
    sol = brute_force_solve(p)
    np.testing.assert_allclose(sol.gamma_in, [0.2, 0.05], atol=1e-14)
    assert sol.objective == pytest.approx(solve(p).objective, abs=1e-14)


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


def test_solve_returns_the_kernel_answer_bitwise():
    # a simulation step takes the batch kernel's answer as it is, with
    # no clip or rescale, and solve gives that same answer
    rng = np.random.default_rng(3)
    for _ in range(2000):
        p = random_junction_problem(rng)
        order = priority_order(p.priority)
        kernel = KERNELS[classify(p.distribution)]
        alone = kernel(p.demands[None, order], p.supplies[None], p.distribution[None][:, :, order])[0]
        np.testing.assert_array_equal(solve(p).gamma_in[order], alone)


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
    admitted = diverge(demands[:, :1], supplies, split[:, :, None])[:, 0]
    waterfilled = merge(demands, supplies[:, :1], np.ones((20, 1, 3)))
    for b in range(20):
        caps = [supplies[b, j] / split[b, j] for j in range(3) if split[b, j] > 0.0]
        assert admitted[b] == min([demands[b, 0]] + caps)
        remaining = supplies[b, 0]
        for i in range(3):
            granted = min(demands[b, i], max(remaining, 0.0))
            assert waterfilled[b, i] == granted
            remaining -= granted


@pytest.fixture
def climbs(monkeypatch):
    """How many times general climbs: once per stage it runs."""
    count = []
    climb = junctions._climb

    def counted(*args):
        count.append(1)
        return climb(*args)

    monkeypatch.setattr(junctions, "_climb", counted)
    return count


@pytest.mark.parametrize(
    "priority, expected",
    [([0.6, 0.4], [0.125, 0.125]), ([0.4, 0.6], [0.0, 0.25]), ([0.5, 0.5], [0.125, 0.125])],
)
def test_general_two_by_two_scarce_supply_goes_by_right_of_way(climbs, priority, expected):
    # both arcs split evenly, so outlet 0 caps the total at 0.25; the
    # arc with right of way takes what it demands, the other the rest,
    # which a stage after the total settles
    p = make([0.125, 0.25], [0.125, 0.375], [[0.5, 0.5], [0.5, 0.5]], priority)
    assert classify(p.distribution) == "general"
    np.testing.assert_array_equal(solve(p).gamma_in, expected)
    assert len(climbs) > 1


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


def test_general_stops_once_nothing_is_free(climbs):
    # the maximizer is unique, so stage one fixes every variable and the
    # two arcs' stages are skipped
    p = make([0.25, 0.375], [0.125, 0.25], [[0.5, 0.25], [0.5, 0.75]], [0.9, 0.1])
    np.testing.assert_array_equal(solve(p).gamma_in, [0.125, 0.25])
    assert len(climbs) == 1


def test_general_climbs_only_for_rows_that_do_not_fit(climbs):
    # both arcs split evenly, so each supply takes exactly what the two
    # arcs route to it: every row fits, and none reaches the simplex
    demands = np.full((50, 2), 0.25)
    supplies = np.full((50, 2), 0.25)
    routing = np.full((50, 2, 2), 0.5)
    np.testing.assert_array_equal(general(demands, supplies, routing), demands)
    assert len(climbs) == 0
    # one supply an ulp short: that row climbs, the others still fit
    supplies[17, 1] = np.nextafter(0.25, 0.0)
    gamma = general(demands, supplies, routing)
    assert len(climbs) >= 1
    assert gamma[17].sum() < 0.5
    np.testing.assert_array_equal(np.delete(gamma, 17, axis=0), np.delete(demands, 17, axis=0))


def test_general_answers_as_the_simplex_alone_bitwise():
    rng = np.random.default_rng(19)
    whole = short = 0
    for n_in, n_out in itertools.product(range(2, 6), range(1, 5)):
        demands, supplies, routing, _ = _general_batch(rng, n_in, n_out, 250)
        demands[rng.random(250) < 0.05] = 0.0
        routing[rng.random(routing.shape) < 0.05] = junctions._PIVOT_TOL
        # supplies of exactly the routed demands summed in order, an ulp
        # short of that, an ulp over it, or drawn at random
        routed = np.zeros(supplies.shape)
        for i in range(n_in):
            routed = routed + demands[:, i, None] * routing[:, :, i]
        pick = rng.integers(0, 4, 250)
        supplies[pick == 0] = routed[pick == 0]
        supplies[pick == 1] = np.nextafter(routed, 0.0)[pick == 1]
        supplies[pick == 2] = np.nextafter(routed, 1.0)[pick == 2]
        gamma = general(demands, supplies, routing)
        alone = junctions._simplex(demands, supplies, routing)
        assert np.array_equal(gamma.view(np.int64), alone.view(np.int64)), f"{n_in}x{n_out}"
        served = np.all(gamma == demands, axis=1)
        whole += served.sum()
        short += (~served).sum()
    # rows that get their demands and rows that do not both occur in numbers
    assert min(whole, short) > 500


def _presolve_edge_batch(rng, n_in, n_out, size):
    """_general_batch's problems at the edges of general's fit test.

    Some arcs no row demands, some demands are -0.0, and one padding
    in-column and out-row route nothing, as the engine pads its groups.
    Rates sit at _PIVOT_TOL or one ulp above it.  Supplies are the
    routed demands summed in arc order, an ulp either side of that,
    infinite, or drawn at random.
    """
    demands, supplies, routing, _ = _general_batch(rng, n_in, n_out, size)
    rate = rng.random(routing.shape)
    routing[rate < 0.05] = junctions._PIVOT_TOL
    routing[(rate >= 0.05) & (rate < 0.1)] = np.nextafter(junctions._PIVOT_TOL, 1.0)
    demands[:, rng.random(n_in) < 0.2] = 0.0
    demands[rng.random(demands.shape) < 0.05] = -0.0
    routed = np.zeros(supplies.shape)
    for i in range(n_in):
        routed = routed + demands[:, i, None] * routing[:, :, i]
    pick = rng.integers(0, 5, supplies.shape)
    supplies[pick == 0] = routed[pick == 0]
    supplies[pick == 1] = np.nextafter(routed, 0.0)[pick == 1]
    supplies[pick == 2] = np.nextafter(routed, np.inf)[pick == 2]
    supplies[pick == 3] = np.inf
    padded = np.zeros((size, n_out + 1, n_in + 1))
    padded[:, :n_out, :n_in] = routing
    return (
        np.concatenate([demands, np.zeros((size, 1))], axis=1),
        np.concatenate([supplies, rng.uniform(0.0, 0.3, (size, 1))], axis=1),
        padded,
    )


def test_general_climbs_for_the_rows_the_per_arc_presolve_sends_on(monkeypatch):
    # only which rows reach the simplex is compared: it takes no
    # infinite supply, so none is solved
    reached = []

    def recorded(demands, supplies, routing):
        reached.append((demands.tobytes(), supplies.tobytes(), routing.tobytes()))
        return np.zeros(demands.shape)

    monkeypatch.setattr(junctions, "_simplex", recorded)
    rng = np.random.default_rng(24)
    fit = climb = 0
    for n_in, n_out in itertools.product(range(1, 9), range(1, 6)):
        batch = _presolve_edge_batch(rng, n_in, n_out, 120)
        fits = presolve_fits_reference(*batch)
        reached.clear()
        general(*batch)
        expected = [] if fits.all() else [tuple(a[~fits].tobytes() for a in batch)]
        assert reached == expected, f"{n_in}x{n_out}"
        fit += fits.sum()
        climb += (~fits).sum()
    # both fates occur in numbers
    assert min(fit, climb) > 1000


def test_general_answers_a_row_that_fits_as_the_simplex_does():
    # zero, -0.0 and subnormal demands fit ample supplies
    demands = np.array([[-0.0, 0.0, 5e-324, 0.25], [0.0, -0.0, 0.125, -0.0]])
    supplies = np.full((2, 3), 1.0)
    routing = np.full((2, 3, 4), 0.25)
    gamma = general(demands, supplies, routing)
    assert gamma.tobytes() == junctions._simplex(demands, supplies, routing).tobytes()
    # the fitted answer's form agrees with the clip it replaced, NaN too
    d = np.array([-0.0, 0.0, 5e-324, 0.25, np.inf, np.nan, -np.nan])
    clipped = np.clip(np.where(d > 0.0, d, 0.0), 0.0, d)
    assert np.minimum(np.maximum(d, 0.0), d).tobytes() == clipped.tobytes()


def test_general_fits_a_hub_row_of_403_arcs_without_a_climb(climbs):
    # dyadic demands and shares, so each supply is exactly what the
    # row routes to it and every slack is exact: both rows fit to the bit
    rng = np.random.default_rng(403)
    demands = rng.integers(1, 64, (2, 403)) / 1024.0
    routing = np.moveaxis(rng.permuted(np.broadcast_to([0.5, 0.25, 0.25], (2, 403, 3)), axis=2), 2, 1)
    supplies = np.einsum("bji,bi->bj", routing, demands)
    np.testing.assert_array_equal(general(demands, supplies, routing), demands)
    assert len(climbs) == 0
    # one supply an ulp short: that row climbs and the other still fits
    supplies[1, 2] = np.nextafter(supplies[1, 2], 0.0)
    gamma = general(demands, supplies, routing)
    assert len(climbs) >= 1
    assert gamma[1].sum() < demands[1].sum()
    assert gamma[0].tobytes() == demands[0].tobytes()


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


def test_exact_oracle_on_hand_solved_problems():
    # a merge waterfills by right of way; a diverge admits what its
    # tightest share allows
    assert exact_junction([F(1, 5), F(1, 5)], [F(1, 4)], [[1, 1]]) == [F(1, 5), F(1, 20)]
    assert exact_junction([F(1, 5)], [F(1, 4), F(1, 25)], [[F(1, 2)], [F(1, 2)]]) == [F(2, 25)]
    # float ties go by right of way.  0.1 + 0.9 is 1 in floats but
    # 1 + 2.8e-17 exactly.  Both supplies bind, so trading arc 0 for arcs
    # 1 and 2 would gain 2.8e-17 of total per unit: a strict preference
    # in exact arithmetic, a tie in the model, where arc 0 takes its
    # demand and the supplies fix the rest
    s0, s1 = F(0.11875), F(0.38125)
    d = F(1, 4)
    g2 = 2 * ((s1 - F(0.9) * d) - (s0 - F(0.1) * d))
    g1 = 2 * (s0 - F(0.1) * d - g2 / 4)
    routing = [[0.1, 0.5, 0.25], [0.9, 0.5, 0.75]]
    assert exact_junction([0.25] * 3, [0.11875, 0.38125], routing) == [d, g1, g2]
    # equal shares of the binding supply, in columns whose exact sums
    # are 1 - 5.6e-17 and 1 + 5.6e-17: dividing each column by its sum
    # would make arc 1 strictly cheaper
    routing = [[0.3, 0.3], [0.7, np.nextafter(0.7, 1.0)]]
    assert exact_junction([0.25, 0.25], [0.03, 0.5], routing) == [F(0.03) / F(0.3), 0]


def _ranked(demands, supplies, distribution, priority):
    """The batch with each problem's columns in its priority order."""
    order = np.array([priority_order(p) for p in priority])
    ranked_d = np.take_along_axis(demands, order, axis=1)
    return ranked_d, supplies, np.take_along_axis(distribution, order[:, None, :], axis=2)


# general rounds in floats on the exact answer's vertex: by up to
# 1.2e-15 on an arc of these problems (an 8x3 one), 2.8e-15 on the worst
# of 40 000 random 8x3 problems
_EXACT_PIN = 4e-15


def _compare_with_the_oracle(demands, supplies, routing):
    """general against exact_junction, arc by arc, columns in priority order."""
    gamma = general(demands, supplies, routing)
    assert np.all(gamma >= 0.0) and np.all(gamma <= demands)
    assert np.all(np.einsum("bji,bi->bj", routing, gamma) <= supplies + 1e-12)
    for b in range(len(gamma)):
        shape = f"{demands.shape[1]}x{supplies.shape[1]} problem {b}"
        alone = general(demands[b : b + 1], supplies[b : b + 1], routing[b : b + 1])
        assert np.array_equal(alone[0], gamma[b]), shape
        exact = np.array(exact_junction(demands[b], supplies[b], routing[b]), dtype=float)
        assert np.max(np.abs(gamma[b] - exact)) <= _EXACT_PIN, shape


def test_general_kernel_against_the_lp():
    rng = np.random.default_rng(31)
    for n_in, n_out in itertools.product((2, 3), (2, 3)):
        _compare_with_the_oracle(*_ranked(*_general_batch(rng, n_in, n_out, 1200)))
    # tie-heavy problems of every shape GENERAL_SHA256 pins, their
    # columns already in priority order
    rng = np.random.default_rng(15)
    for n_in, n_out in itertools.product(range(2, 9), range(1, 6)):
        _compare_with_the_oracle(*_pinned_batch(rng, n_in, n_out, 25, degenerate=True))


def test_general_kernel_against_the_lp_past_three_incoming_arcs():
    rng = np.random.default_rng(31)
    for n_in, n_out in ((4, 2), (8, 3)):
        _compare_with_the_oracle(*_ranked(*_general_batch(rng, n_in, n_out, 500)))


def test_sixteen_incoming_arcs_where_the_lp_refinement_fails():
    # HiGHS called a refinement stage of this problem infeasible, so a
    # floating-point LP reference could check only its total
    _compare_with_the_oracle(*_ranked(*_general_batch(np.random.default_rng(233), 16, 4, 1)))


_DEGENERATE = np.array([0.0, 0.05, 0.1, 0.2, 0.25])
# sha256 of general's answers, tobytes() in turn, over _pinned_batch's
# shapes n_in 2-8 by n_out 1-5 from seed 15
GENERAL_SHA256 = {
    "continuous": "49ed379424730a8ed32536049bd57f688c2560afc2efe148415f7b368b180ca4",
    "degenerate": "3c4a9e525086ced81b6cb76faca157d4f230703f0379341fcbdef6b3408fb0c6",
}


def _pinned_batch(rng, n_in, n_out, size, degenerate):
    """size general problems of one shape, columns in priority order.

    Degenerate problems draw every value from _DEGENERATE, so equal
    reduced costs are common and later stages still have free
    variables; continuous ones zero a tenth of the demands.  Either way
    about a quarter of the routing entries are zero, each column keeps
    one nonzero entry, and every column sums to one.
    """
    if degenerate:
        demands = rng.choice(_DEGENERATE, (size, n_in))
        supplies = rng.choice(_DEGENERATE, (size, n_out))
        distribution = rng.choice(_DEGENERATE[1:], (size, n_out, n_in))
    else:
        demands = rng.uniform(0.0, 0.25, (size, n_in))
        supplies = rng.uniform(0.0, 0.3, (size, n_out))
        distribution = rng.uniform(0.1, 1.0, (size, n_out, n_in))
        demands[rng.random(demands.shape) < 0.1] = 0.0
    zero = rng.random(distribution.shape) < 0.25
    zero[np.arange(size)[:, None], rng.integers(0, n_out, (size, n_in)), np.arange(n_in)] = False
    distribution[zero] = 0.0
    distribution /= distribution.sum(axis=1, keepdims=True)
    return demands, supplies, distribution


@pytest.mark.parametrize("kind", sorted(GENERAL_SHA256))
def test_general_is_bit_identical(kind):
    rng = np.random.default_rng(15)
    digest = hashlib.sha256()
    for n_in, n_out in itertools.product(range(2, 9), range(1, 6)):
        digest.update(general(*_pinned_batch(rng, n_in, n_out, 200, kind == "degenerate")).tobytes())
    assert digest.hexdigest() == GENERAL_SHA256[kind]


_RUNS_WITHOUT_SCIPY = """
import sys
import tagflow
from helpers import hub_network
net = tagflow.build_roundabout(0.5, 0.5, 0.1, 0.1, cells_per_arc=5)
tagflow.Simulator(net).run(tagflow.SimConfig(t_end=2.0))
tagflow.Simulator(hub_network(16, 4)).run(tagflow.SimConfig(t_end=2.0))
print("scipy" in sys.modules)
"""


def test_a_run_never_imports_scipy():
    here = Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, "-c", _RUNS_WITHOUT_SCIPY],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)])),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert done.stdout.strip() == "False"
