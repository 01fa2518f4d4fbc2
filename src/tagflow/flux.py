"""Fundamental diagram and exact Riemann solutions for scalar tag flow.

Density rho is tags per unit arc length, flow is tags per unit time.
Appearance velocity falls linearly from v_max at an empty arc to zero at
the jam density rho_max, so the flow rho * v(rho) is a concave parabola
vanishing at both ends with its single maximum (the arc capacity) at the
critical density sigma = rho_max / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FluxModel", "DENSITY_TOL"]

# Round-off slack accepted (and silently clipped) on density arguments.
DENSITY_TOL = 1e-12


def _like(template, value):
    """Return a float for scalar input, the array itself otherwise."""
    return float(value) if np.ndim(template) == 0 else value


@dataclass(frozen=True)
class FluxModel:
    """Linear-velocity (quadratic-flow) fundamental diagram.

    All densities handed to the methods must lie in [0, rho_max] up to
    DENSITY_TOL; anything further out, or NaN, raises ValueError.  Every
    method accepts scalars or numpy arrays and is pure, so instances are
    safe to share between threads.
    """

    v_max: float = 1.0
    rho_max: float = 1.0
    sigma: float = field(init=False)

    def __post_init__(self):
        if not (self.v_max > 0.0 and np.isfinite(self.v_max)):
            raise ValueError(f"v_max must be positive and finite, got {self.v_max}")
        if not (self.rho_max > 0.0 and np.isfinite(self.rho_max)):
            raise ValueError(f"rho_max must be positive and finite, got {self.rho_max}")
        object.__setattr__(self, "sigma", self.rho_max / 2.0)

    @property
    def capacity(self) -> float:
        """Largest attainable flow, reached exactly at sigma."""
        return self.v_max * self.rho_max / 4.0

    @property
    def max_wave_speed(self) -> float:
        """Bound on |d flux / d rho| over [0, rho_max]; sets the CFL limit."""
        return self.v_max

    def _speed(self, r):
        """Velocity v_max - (v_max / rho_max) * r at clamped densities r.

        The operations are those demand_and_supply performs in place, so
        the two agree bit for bit on every model.
        """
        return r * -(self.v_max / self.rho_max) + self.v_max

    def velocity(self, rho):
        """Appearance velocity v_max * (1 - rho / rho_max)."""
        return _like(rho, self._speed(self.clamp_density(rho)))

    def flux(self, rho):
        """Flow rho * velocity(rho)."""
        r = self.clamp_density(rho)
        return _like(rho, r * self._speed(r))

    def demand(self, rho):
        """Largest flow a cell at this density can send downstream.

        Equals flux(rho) below the critical density and saturates at the
        capacity above it; non-decreasing in rho.
        """
        r = np.minimum(self.clamp_density(rho), self.sigma)
        return _like(rho, r * self._speed(r))

    def supply(self, rho):
        """Largest flow a cell at this density can accept from upstream.

        Capacity below the critical density, flux(rho) above it;
        non-increasing in rho.
        """
        r = np.maximum(self.clamp_density(rho), self.sigma)
        return _like(rho, r * self._speed(r))

    def demand_and_supply(self, rho, out_demand=None, out_supply=None, check=True):
        """Demand and supply of an array in one shot, into buffers.

        The fast path of the stepping engine; check=False skips the
        domain validation for densities the caller already clamped.
        """
        arr = self.clamp_density(rho) if check else np.asarray(rho, dtype=float)
        slope = self.v_max / self.rho_max
        d = np.minimum(arr, self.sigma, out=out_demand)
        s = np.maximum(arr, self.sigma, out=out_supply)
        tmp = np.multiply(d, -slope)
        np.add(tmp, self.v_max, out=tmp)
        np.multiply(d, tmp, out=d)  # flux at min(rho, sigma)
        np.multiply(s, -slope, out=tmp)
        np.add(tmp, self.v_max, out=tmp)
        np.multiply(s, tmp, out=s)  # flux at max(rho, sigma)
        return d, s

    def godunov_flux(self, rho_left, rho_right):
        """Interface flow min(demand(left), supply(right)).

        Equals the flux of the exact self-similar solution of the
        two-state problem sampled at the interface.
        """
        out = np.minimum(self.demand(rho_left), self.supply(rho_right))
        scalar = np.ndim(rho_left) == 0 and np.ndim(rho_right) == 0
        return float(out) if scalar else out

    def char_speed(self, rho):
        """Characteristic speed d flux / d rho = v_max * (1 - 2 rho / rho_max)."""
        r = self.clamp_density(rho)
        return _like(rho, self.v_max * (1.0 - 2.0 * r / self.rho_max))

    def riemann_eval(self, rho_left, rho_right, xi):
        """Entropy solution of the two-state problem at xi = x / t.

        A left state below the right state resolves into a shock moving
        at the chord speed (flux jump over density jump); sampling at
        exactly the shock speed returns the right state.  A left state
        above the right state resolves into a fan whose interior density
        satisfies char_speed(rho) = xi.  Equal states stay constant.
        xi may be a scalar or an array.
        """
        left = float(self.clamp_density(rho_left))
        right = float(self.clamp_density(rho_right))
        x = np.asarray(xi, dtype=float)

        if left == right:
            out = np.full_like(x, left)
        elif left < right:
            s = (self.flux(right) - self.flux(left)) / (right - left)
            out = np.where(x < s, left, right)
        else:
            head = self.char_speed(left)
            tail = self.char_speed(right)
            fan = 0.5 * self.rho_max * (1.0 - x / self.v_max)
            out = np.where(x <= head, left, np.where(x >= tail, right, fan))
        return _like(xi, out)

    def clamp_density(self, rho):
        """Clip round-off excursions back into [0, rho_max].

        Every method's domain check.  Violations beyond DENSITY_TOL, and
        NaN, indicate a bug upstream and raise.
        """
        arr = np.asarray(rho, dtype=float)
        if arr.size and not (np.min(arr) >= -DENSITY_TOL and np.max(arr) <= self.rho_max + DENSITY_TOL):
            raise ValueError(
                f"density violates [0, {self.rho_max}] beyond tolerance {DENSITY_TOL}: "
                f"range [{np.min(arr)}, {np.max(arr)}]"
            )
        return _like(rho, np.clip(arr, 0.0, self.rho_max))
