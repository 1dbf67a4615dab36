"""Spatially homogeneous two-species dynamics and its dichotomy diagnostics.

Implements:
  - NumericalFailure, the base of every numerical failure (exit 3 in the CLI).
  - rk4_step, the classical 4-stage update of a tuple of scalars or arrays;
    the front simulator and the frozen-interval run step through it too.
  - Fixed-step integration of
        u' = -a*u + e*v,   v' = -b*v + G(u)
    with nonnegativity enforcement (round-off clamp at -1e-14, beyond that
    OdeInstabilityError, a NumericalFailure).
  - The decay functional V(t) = (G'(0)/a)*u(t) + v(t), nonincreasing along
    trajectories exactly at the r0 = 1 balance point.
  - Long-horizon classification of the limit: extinction, convergence to the
    positive equilibrium, or undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ModelParams, equilibrium, gprime0, infection_value, r0

NEG_TOL = -1e-14  # round-off clamp for nonnegative states


class NumericalFailure(RuntimeError):
    """A numerical failure, stamped with the time t it happened at (if any)."""

    def __init__(self, t: float | None, message: str):
        super().__init__(message if t is None else f"t={t:.6g}: {message}")
        self.t = t


class OdeInstabilityError(NumericalFailure):
    """State left the admissible region (NaN or negative beyond round-off)."""


@dataclass(frozen=True)
class OdeState:
    t: float
    u: float
    v: float


@dataclass(frozen=True)
class OdeOutcome:
    kind: str  # "extinct" | "persists" | "undecided"
    u_star: float
    v_star: float


def rk4_step(rhs, y: tuple, dt: float) -> tuple:
    """One classical 4-stage update of the state tuple y under y' = rhs(*y).

    rhs returns one rate per component; components may be floats or arrays.
    """
    half, sixth = 0.5 * dt, dt / 6.0
    k1 = rhs(*y)
    k2 = rhs(*[a + half * k for a, k in zip(y, k1)])
    k3 = rhs(*[a + half * k for a, k in zip(y, k2)])
    k4 = rhs(*[a + dt * k for a, k in zip(y, k3)])
    return tuple(
        a + sixth * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
        for a, r1, r2, r3, r4 in zip(y, k1, k2, k3, k4)
    )


def _rhs(p: ModelParams, u: float, v: float):
    return -p.a * u + p.e * v, -p.b * v + infection_value(p.infection, max(u, 0.0))


def integrate_ode(p: ModelParams, u0: float, v0: float, t_end: float, dt: float):
    """Integrate from (u0, v0) to t_end with fixed step dt; returns OdeState list."""
    if u0 < 0.0 or v0 < 0.0:
        raise ValueError("initial values must be nonnegative")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    if not math.isfinite(t_end / dt):
        raise ValueError("t_end / dt must be finite")
    n_steps = max(1, int(round(t_end / dt)))
    u, v, t = float(u0), float(v0), 0.0
    states = [OdeState(t, u, v)]
    rhs = lambda u, v: _rhs(p, u, v)
    for k in range(n_steps):
        u, v = rk4_step(rhs, (u, v), dt)
        t = (k + 1) * dt
        if not (math.isfinite(u) and math.isfinite(v)):
            raise OdeInstabilityError(t, "state became non-finite; reduce dt")
        if u < NEG_TOL or v < NEG_TOL:
            raise OdeInstabilityError(t, f"state went negative ({u:.3e}, {v:.3e})")
        u, v = max(u, 0.0), max(v, 0.0)
        states.append(OdeState(t, u, v))
    return states


def lyapunov_series(p: ModelParams, trajectory):
    """V(t) = (G'(0)/a)*u + v along a trajectory; only defined at r0 = 1."""
    if abs(r0(p) - 1.0) > 1e-12:
        raise ValueError("decay functional requires r0 = 1")
    alpha = gprime0(p) / p.a
    return [(s.t, alpha * s.u + s.v) for s in trajectory]


def classify_ode_limit(p: ModelParams, u0: float, v0: float, t_end: float) -> OdeOutcome:
    """Label the long-time limit of the trajectory from (u0, v0), integrated
    with dt = min(0.02, 0.45/(a + b + e + G'(0))) and compared at tol = 1e-4.

    extinct   final state within tol of (0, 0); above the persistence
              threshold the origin repels positive data, so a tiny but
              still-growing state does not count as extinct
    persists  final state within tol of the positive equilibrium
    undecided neither, e.g. the horizon was too short
    """
    if not (u0 > 0.0 and v0 > 0.0):
        raise ValueError("classification needs positive initial values")
    tol = 1e-4
    dt = min(0.02, 0.45 / (p.a + p.b + p.e + gprime0(p)))
    final = integrate_ode(p, u0, v0, t_end, dt)[-1]
    eq = equilibrium(p)
    shrank = final.u <= u0 and final.v <= v0
    if max(final.u, final.v) < tol and (r0(p) <= 1.0 or shrank):
        return OdeOutcome("extinct", 0.0, 0.0)
    if eq.u_star > 0.0 and max(abs(final.u - eq.u_star), abs(final.v - eq.v_star)) < tol:
        return OdeOutcome("persists", eq.u_star, eq.v_star)
    return OdeOutcome("undecided", eq.u_star, eq.v_star)
