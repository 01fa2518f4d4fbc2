import numpy as np
import pytest
from hypothesis import given, strategies as st

from tagflow.flux import FluxModel

UNIT = FluxModel(v_max=1.0, rho_max=1.0)

densities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_velocity_examples():
    assert UNIT.velocity(0.0) == 1.0
    assert UNIT.velocity(1.0) == 0.0
    assert FluxModel(v_max=2.0, rho_max=1.0).velocity(0.5) == 1.0


def test_flux_examples():
    assert UNIT.flux(0.0) == 0.0
    assert UNIT.flux(0.5) == 0.25
    assert UNIT.flux(0.2) == pytest.approx(0.16, abs=1e-15)


def test_sigma_and_capacity():
    m = FluxModel(v_max=2.0, rho_max=3.0)
    assert m.sigma == 1.5
    assert m.capacity == pytest.approx(m.flux(m.sigma), abs=1e-15)
    assert 0.0 < m.sigma < m.rho_max


def test_demand_examples():
    assert UNIT.demand(0.2) == pytest.approx(0.16, abs=1e-15)
    assert UNIT.demand(0.8) == 0.25
    assert UNIT.demand(0.5) == 0.25


def test_supply_examples():
    assert UNIT.supply(0.2) == 0.25
    assert UNIT.supply(0.8) == pytest.approx(0.16, abs=1e-15)
    assert UNIT.supply(1.0) == 0.0


def test_godunov_examples():
    assert UNIT.godunov_flux(0.2, 0.2) == pytest.approx(0.16, abs=1e-15)
    # transonic fan through sigma: interface value is the capacity
    assert UNIT.godunov_flux(0.8, 0.2) == 0.25
    # stationary shock: equal fluxes on both sides
    assert UNIT.godunov_flux(0.2, 0.8) == pytest.approx(0.16, abs=1e-15)


def test_godunov_matches_riemann_sampling_on_examples():
    for left, right in [(0.8, 0.2), (0.2, 0.8), (0.3, 0.3)]:
        rho0 = UNIT.riemann_eval(left, right, 0.0)
        assert UNIT.godunov_flux(left, right) == pytest.approx(
            UNIT.flux(rho0), abs=1e-15
        )


def test_riemann_examples():
    assert UNIT.riemann_eval(0.3, 0.3, -2.0) == 0.3
    assert UNIT.riemann_eval(0.3, 0.3, 2.0) == 0.3
    # shock speed 1 - 0.2 - 0.8 = 0; xi = -0.1 lies left of it
    assert UNIT.riemann_eval(0.2, 0.8, -0.1) == 0.2
    # fan value where char_speed(rho) = 1 - 2 rho = 0
    assert UNIT.riemann_eval(0.8, 0.2, 0.0) == 0.5


def test_domain_errors():
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            UNIT.velocity(bad)
        with pytest.raises(ValueError):
            UNIT.flux(bad)
        with pytest.raises(ValueError):
            UNIT.demand(bad)
        with pytest.raises(ValueError):
            UNIT.supply(bad)
    with pytest.raises(ValueError):
        UNIT.godunov_flux(-0.1, 0.5)
    with pytest.raises(ValueError):
        UNIT.riemann_eval(0.5, 1.2, 0.0)


def test_constructor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FluxModel(v_max=0.0)
    with pytest.raises(ValueError):
        FluxModel(rho_max=-1.0)
    with pytest.raises(ValueError):
        FluxModel(v_max=float("nan"))


def test_array_inputs_round_trip():
    # one Greenshields expression: the pointwise methods and the engine's
    # in-place demand_and_supply agree bit for bit, on any model
    for model in (UNIT, FluxModel(1.3, 2.7), FluxModel(2.0, 3.0), FluxModel(0.7, 0.3)):
        rho = np.linspace(0.0, model.rho_max, 1001)
        demand, supply = model.demand_and_supply(rho)
        np.testing.assert_array_equal(model.demand(rho), demand)
        np.testing.assert_array_equal(model.supply(rho), supply)
        np.testing.assert_array_equal(model.flux(rho), rho * model.velocity(rho))
        assert isinstance(model.flux(0.3 * model.rho_max), float)


@pytest.mark.parametrize("model", [UNIT, FluxModel(0.7, 0.3)], ids=["slope-1", "slope-7/3"])
def test_demand_and_supply_of_a_scalar_is_two_floats(model):
    # both slope branches: a slope of exactly 1 skips its multiplications
    for rho in np.linspace(0.0, model.rho_max, 41).tolist() + [model.sigma]:
        for value in (rho, np.float64(rho), np.array(rho)):
            demand, supply = model.demand_and_supply(value)
            assert type(demand) is float and type(supply) is float
            assert np.float64(demand).tobytes() == np.float64(model.demand(rho)).tobytes()
            assert np.float64(supply).tobytes() == np.float64(model.supply(rho)).tobytes()


@pytest.mark.parametrize("model", [UNIT, FluxModel(0.7, 0.3)], ids=["slope-1", "slope-7/3"])
def test_demand_of_an_array_equals_the_scalar_calls_bitwise(model):
    # the Simulator fills every reservoir's demand with one array call
    rng = np.random.default_rng(11)
    rho = np.concatenate([rng.uniform(0.0, model.rho_max, 10**4), [0.0, model.sigma, model.rho_max]])
    scalar = np.array([model.demand(r) for r in rho.tolist()])
    assert model.demand(rho).tobytes() == scalar.tobytes()


@given(rho=densities)
def test_flux_is_density_times_velocity(rho):
    # exact: both sides multiply the same two floats
    assert UNIT.flux(rho) == rho * UNIT.velocity(rho)


@given(rho=densities)
def test_demand_supply_cover_capacity(rho):
    assert UNIT.demand(rho) + UNIT.supply(rho) >= UNIT.capacity - 1e-15


@given(rho=densities)
def test_godunov_of_equal_states_is_flux(rho):
    assert UNIT.godunov_flux(rho, rho) == pytest.approx(UNIT.flux(rho), abs=1e-15)


@given(a=densities, b=densities)
def test_velocity_strictly_decreasing(a, b):
    lo, hi = sorted((a, b))
    if hi - lo > 1e-12:
        assert UNIT.velocity(lo) > UNIT.velocity(hi)


def test_demand_monotone_supply_antitone():
    rho = np.linspace(0.0, 1.0, 201)
    d = UNIT.demand(rho)
    s = UNIT.supply(rho)
    assert np.all(np.diff(d) >= -1e-15)
    assert np.all(np.diff(s) <= 1e-15)


def test_godunov_equals_riemann_interface_flux_on_grid():
    grid = np.linspace(0.0, 1.0, 100)
    for left in grid:
        rho0 = np.array([UNIT.riemann_eval(left, r, 0.0) for r in grid])
        godunov = np.array([UNIT.godunov_flux(left, r) for r in grid])
        np.testing.assert_allclose(godunov, UNIT.flux(rho0), atol=1e-12, rtol=0.0)


def test_riemann_profile_monotone_and_constant_outside_fan():
    xi = np.linspace(-3.0, 3.0, 601)
    for left, right in [(0.1, 0.9), (0.9, 0.1), (0.4, 0.6), (0.7, 0.2)]:
        prof = UNIT.riemann_eval(left, right, xi)
        diffs = np.diff(prof)
        if left < right:
            assert np.all(diffs >= -1e-15)
        else:
            assert np.all(diffs <= 1e-15)
        assert prof.min() >= min(left, right) - 1e-15
        assert prof.max() <= max(left, right) + 1e-15
        # waves travel no faster than the extreme characteristic speeds
        assert prof[0] == left
        assert prof[-1] == right


def test_clamp_density():
    assert UNIT.clamp_density(-5e-13) == 0.0
    assert UNIT.clamp_density(1.0 + 5e-13) == 1.0
    with pytest.raises(ValueError):
        UNIT.clamp_density(-1e-9)


def test_clamp_density_keeps_the_bits_of_np_clip():
    # -0.0 stays -0.0, where np.maximum(-0.0, 0.0) would give +0.0
    rho = np.array([-0.0, 0.0, -1e-13, 1.0 + 1e-13])
    clamped = UNIT.clamp_density(rho)
    assert clamped.tobytes() == np.array([-0.0, 0.0, 0.0, 1.0]).tobytes()
    assert clamped.tobytes() == np.clip(rho, 0.0, 1.0).tobytes()
