"""Reaction model: infection response, reproduction number, equilibrium, bounds.

Implements:
  - The saturating infection response G(z) = alpha*z / (1 + z^lam) with
    alpha > 0 and lam in (0, 1]; G(0) = 0, G'(0) = alpha. The hypotheses
    (G1) and (G2) hold by construction, not by sampling:
    G'(z) = alpha*(1 + (1-lam)*z^lam)/(1 + z^lam)^2 > 0 and
    G(z)/z = alpha/(1 + z^lam) decreases strictly to 0.
  - The full parameter record for the two-species system (diffusion rates,
    decay rates, pathogen multiplication, front response mu, infected-human
    front weight rho, initial half-length, kernels, boundary weight).
  - Reproduction number r0 = e*G'(0)/(a*b) and the positive equilibrium
    u_star = (r0 - 1)^(1/lam), v_star = (a/e)*u_star when r0 > 1.
  - The closed-form sufficient spreading test r0 >= (1 + d1/a)(1 + d2/b).
  - Sup-norm a-priori bounds (A, B) that no trajectory may exceed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, WeightSpec


@dataclass(frozen=True)
class InfectionFn:
    """Saturating infection response G(z) = alpha*z / (1 + z^lam), the one
    family (config accepts `"family": "saturating"` and rejects any other)."""

    alpha: float
    lam: float = 1.0

    def __post_init__(self) -> None:
        if not self.alpha > 0.0:
            raise ValueError("alpha: must be > 0")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError("lambda: must lie in (0, 1]")


def infection_formula(fn: InfectionFn, z):
    """G(z) = alpha*z / (1 + |z|^lam) for a Python float or an array z,
    without infection_value's conversion: the one formula behind it, which
    the moving-front stage calls directly. The denominator uses |z|^lam so
    that stray negative round-off from explicit stages stays finite instead
    of producing NaN."""
    return fn.alpha * z / (1.0 + abs(z) ** fn.lam)


def infection_value(fn: InfectionFn, z):
    """G(z) for z >= 0: a Python float in Python floats, anything else as a
    float array (a float for a 0-d one), by the one infection_formula."""
    if type(z) is float:
        return infection_formula(fn, z)
    out = infection_formula(fn, np.asarray(z, dtype=float))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ModelParams:
    """All constants and function choices the moving-front system needs.

    d1, d2: dispersal rates of pathogen and infected humans (> 0)
    a, b:   decay rates, 1/time (> 0)
    e:      pathogen multiplication coefficient (> 0)
    mu:     front response coefficient (> 0)
    rho:    infected-human front weight (>= 0)
    h0:     initial half-length (> 0)
    """

    d1: float
    d2: float
    a: float
    b: float
    e: float
    mu: float
    rho: float
    h0: float
    kernel1: KernelSpec
    kernel2: KernelSpec
    weight: WeightSpec
    infection: InfectionFn


def validate_constants(values: dict) -> list:
    """Range violations among the scalar constants; missing or None entries are skipped."""
    issues = []
    for name in ("d1", "d2", "a", "b", "e", "mu", "h0"):
        if values.get(name) is not None and not values[name] > 0.0:
            issues.append(f"{name} must be > 0")
    if values.get("rho") is not None and not values["rho"] >= 0.0:
        issues.append("rho must be >= 0")
    return issues


def validate_params(p: ModelParams) -> list:
    """Collect every constraint violation (empty list means valid).

    Only the scalar constants can be out of range: InfectionFn admits only
    alpha > 0 and lam in (0, 1], where (G1) G' > 0 and (G2) G(z)/z strictly
    decreasing to 0 hold for every z by construction.
    """
    return validate_constants(vars(p))


def gprime0(p: ModelParams) -> float:
    """G'(0); equals alpha for the saturating family."""
    return p.infection.alpha


def r0(p: ModelParams) -> float:
    """Basic reproduction number e*G'(0)/(a*b)."""
    return p.e * gprime0(p) / (p.a * p.b)


@dataclass(frozen=True)
class EquilibriumState:
    u_star: float
    v_star: float


def equilibrium(p: ModelParams) -> EquilibriumState:
    """Spatially homogeneous equilibrium.

    For r0 > 1, G(u)/u = alpha/(1 + u^lam) = a*b/e gives 1 + u^lam = r0, so
    u_star = (r0 - 1)^(1/lam) and v_star = (a/e)*u_star. For r0 <= 1 the
    equilibrium is (0, 0). ValueError when u_star is outside the float range.
    """
    excess = r0(p) - 1.0
    if excess <= 0.0:
        return EquilibriumState(0.0, 0.0)
    try:
        u_star = excess ** (1.0 / p.infection.lam)
    except OverflowError:
        u_star = np.inf
    if not 0.0 < u_star < np.inf:
        raise ValueError(f"u_star = {excess:g}^(1/{p.infection.lam:g}) is outside the float range")
    return EquilibriumState(u_star, p.a / p.e * u_star)


def spreading_sufficient(p: ModelParams) -> bool:
    """True iff r0 >= (1 + d1/a)(1 + d2/b); then spreading always happens."""
    return r0(p) >= (1.0 + p.d1 / p.a) * (1.0 + p.d2 / p.b)


def a_priori_bounds(p: ModelParams, u0_sup: float, v0_sup: float):
    """Sup-norm box (A, B) that the densities never leave.

    A = max(u_star, sup u0, (e/a) sup v0), B = max(sup v0, G(A)/b).
    """
    if u0_sup < 0.0 or v0_sup < 0.0:
        raise ValueError("initial sup norms must be nonnegative")
    eq = equilibrium(p)
    cap_u = max(eq.u_star, u0_sup, p.e / p.a * v0_sup)
    cap_v = max(v0_sup, infection_value(p.infection, cap_u) / p.b)
    return cap_u, cap_v
