import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

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
    linprog,
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


# The LP reference: HiGHS maximizes the total, then each incoming arc
# in priority order with the total held within _TOTAL_SLACK of its best.
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# Throughput the LP oracle may give up, relative to max(1, best
# total), for a better right-of-way outcome.
_TOTAL_SLACK = 1e-8
# the LP pins each settled arc 1e-9 below its value before the next
# stage, so its answer may sit that far, plus rounding, from the optimum
_LP_PIN = 1e-9 + 1e-15


def _finish(p: JunctionProblem, gamma: np.ndarray) -> JunctionFluxSolution:
    gamma = np.clip(gamma, 0.0, p.demands)
    # LP paths work at solver tolerance; scale any hair of supply
    # violation out so gamma_out always respects the caps
    routed = p.distribution @ gamma
    over = routed > p.supplies
    if np.any(over):
        positive = routed[over] > 0.0
        if np.any(positive):
            gamma = gamma * np.min(p.supplies[over][positive] / routed[over][positive])
    return JunctionFluxSolution(gamma_in=gamma, gamma_out=p.distribution @ gamma)


def _block_lp(demands, supplies, distribution, priority):
    """The LP reference's stages for many problems at once, before _finish.

    The problems are the blocks of one block-diagonal LP.  Maximizing
    the sum of all totals maximizes each block's total, and each later
    stage maximizes the sum of every block's arc of that rank, pinning
    it 1e-9 low.  A RuntimeError says that HiGHS failed.
    """
    n, n_in = demands.shape
    routing = sparse.block_diag(list(distribution), format="csr")
    bounds = np.column_stack([np.zeros(n * n_in), demands.ravel()])
    res = linprog(
        -np.ones(n * n_in), A_ub=routing, b_ub=supplies.ravel(), bounds=bounds, options=_LP_OPTIONS
    )
    if not res.success:
        raise RuntimeError(res.message)
    best = res.x.reshape(n, n_in).sum(axis=1)
    a_ub = sparse.vstack([routing, sparse.block_diag([-np.ones((1, n_in))] * n)], format="csr")
    b_ub = np.concatenate([supplies.ravel(), -(best - _TOTAL_SLACK * np.maximum(1.0, best))])
    ranks = np.array([priority_order(p) for p in priority]) + n_in * np.arange(n)[:, None]
    for picked in ranks.T:
        c = np.zeros(n * n_in)
        c[picked] = -1.0
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, options=_LP_OPTIONS)
        if not res.success:
            raise RuntimeError(res.message)
        bounds[picked, 0] = np.maximum(0.0, res.x[picked] - 1e-9)
    return res.x.reshape(n, n_in)


def _lp_oracle(demands, supplies, distribution, priority, chunk=100):
    """The LP reference's gamma_in for every problem, a chunk per block LP.

    HiGHS fails on some large block LPs that it solves one problem at
    a time, so a chunk it fails on is solved one problem at a time.  A
    problem it fails on alone gets a row of NaN.
    """

    def finished(part):
        raw = _block_lp(demands[part], supplies[part], distribution[part], priority[part])
        args = zip(demands[part], supplies[part], distribution[part], priority[part])
        return [_finish(JunctionProblem(*a), g).gamma_in for a, g in zip(args, raw)]

    gamma = np.empty_like(demands)
    for start in range(0, len(demands), chunk):
        try:
            gamma[start : start + chunk] = finished(slice(start, start + chunk))
        except RuntimeError:
            for row in range(start, min(start + chunk, len(demands))):
                try:
                    gamma[row] = finished(slice(row, row + 1))[0]
                except RuntimeError:
                    gamma[row] = np.nan
    return gamma


def _max_total(demands, supplies, distribution):
    """The largest total of one problem, from a single LP."""
    res = linprog(
        -np.ones(demands.size),
        A_ub=distribution,
        b_ub=supplies,
        bounds=np.column_stack([np.zeros(demands.size), demands]),
        options=_LP_OPTIONS,
    )
    assert res.success
    return -res.fun


def _compare_with_the_lp(rng, n_in, n_out, size, pin):
    demands, supplies, distribution, priority = _general_batch(rng, n_in, n_out, size)
    order = np.array([priority_order(p) for p in priority])
    rows = np.arange(len(order))[:, None]
    ranked_d = demands[rows, order]
    ranked_a = np.take_along_axis(distribution, order[:, None, :], axis=2)
    ranked = general(ranked_d, supplies, ranked_a)
    gamma = np.empty_like(ranked)
    gamma[rows, order] = ranked

    assert np.all(gamma >= 0.0) and np.all(gamma <= demands)
    assert np.all(np.einsum("bji,bi->bj", distribution, gamma) <= supplies + 1e-12)
    lp = _lp_oracle(demands, supplies, distribution, priority)
    for b in range(len(gamma)):
        shape = f"{n_in}x{n_out} problem {b}"
        alone = general(ranked_d[b : b + 1], supplies[b : b + 1], ranked_a[b : b + 1])
        assert np.array_equal(alone[0], ranked[b]), shape
        gap = gamma[b].sum() - lp[b].sum()
        # the LP may give up up to its 1e-8 relaxed-total slack for
        # priority; the simplex never admits less than the LP
        if not -1e-12 <= gap <= 2e-8:
            # only where the oracle broke: HiGHS failed (NaN), or _finish
            # scaled a hair of excess over a tiny supply out of every arc
            # and gave up more than the slack; one LP still gives the total
            best = _max_total(demands[b], supplies[b], distribution[b])
            assert not lp[b].sum() >= best - _TOTAL_SLACK * max(1.0, best), shape
            assert abs(gamma[b].sum() - best) <= 1e-12, shape
        elif abs(gap) <= 1e-12:
            assert np.max(np.abs(gamma[b] - lp[b])) <= pin, shape


def test_general_kernel_against_the_lp():
    rng = np.random.default_rng(31)
    for n_in, n_out in itertools.product((2, 3), (2, 3)):
        _compare_with_the_lp(rng, n_in, n_out, 2500, _LP_PIN)


def test_general_kernel_against_the_lp_past_three_incoming_arcs():
    rng = np.random.default_rng(31)
    for n_in, n_out in ((4, 2), (8, 3)):
        # each of the n_in - 1 arcs settled before the last may be
        # pinned 1e-9 low, and a later arc may take up what they leave
        _compare_with_the_lp(rng, n_in, n_out, 500, (n_in - 1) * _LP_PIN)


def test_sixteen_incoming_arcs_where_the_lp_refinement_fails():
    # HiGHS calls a refinement stage of this problem infeasible, so the
    # LP reference fails on it; general must solve it all the same
    demands, supplies, distribution, priority = _general_batch(np.random.default_rng(233), 16, 4, 1)
    order = priority_order(priority[0])
    d, s, a = demands[0, order], supplies[0], distribution[0][:, order]
    gamma = general(d[None], s[None], a[None])[0]
    assert np.all(gamma >= 0.0) and np.all(gamma <= d)
    assert np.all(a @ gamma <= s + 1e-12)
    assert abs(gamma.sum() - _max_total(d, s, a)) <= 1e-12


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
