"""Time integration of the two-species nonlocal system with moving fronts.

Implements:
  - A fixed uniform master grid over [-domain_cap, domain_cap]; the fronts
    g(t) <= h(t) move continuously (never snapped to nodes) and quadrature
    uses fractional end cells, with densities pinned to zero at and beyond
    the fronts.
  - Explicit classical 4-stage stepping (ode.rk4_step) of the density pair
    together with the front ODEs
        h' = mu * int_g^h [ u(x) W_J1(h-x) + rho v(x) W(h-x) ] dx
        g' = -mu * int_g^h [ u(x) W_J1(x-g) + rho v(x) W(x-g) ] dx,
    re-evaluated per stage. The dispersal operator is bounded, so the
    explicit scheme is stable under dt <= 0.9 / (d1+d2+a+b+e+G'(0)).
  - Stages evaluated on the occupied window [lo, hi), the nodes strictly
    inside (g, h): convolutions by direct O(n_win*m) stencil products of the
    window's weighted densities (kernel values tabulated at node offsets
    once per kernel/grid pair; no FFT at this scale), and both front fluxes
    from one tail evaluation and one mat-vec. Every other node has zero rate.
  - The equivalence check between the double-integral outward-flux form and
    the tail-weighted single integral.
  - The fixed-interval companion problem (frozen fronts, no front ODEs),
    whose long-time profiles approach the unique positive steady state when
    the interval's principal eigenvalue is negative. It shares the 4-stage
    step and the density check (finite, round-off clamp at -1e-14) with the
    moving-front stepper.
  - Trajectory recording and the finite-horizon spreading / vanishing /
    undecided classifier.
  - Resumable runs: run(resume=traj) continues a completed run whose step
    count is a multiple of record_every and reproduces a fresh run at the
    longer horizon bit for bit; any other prefix restarts from t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .kernels import KernelSpec, kernel_eval, kernel_tail, support_radius, weight_eval
from .model import ModelParams, gprime0, infection_value
from .ode import rk4_step

NEG_TOL = -1e-14  # round-off clamp for nonnegative densities


class SimulationUnstable(RuntimeError):
    def __init__(self, t: float, message: str):
        super().__init__(f"t={t:.6g}: {message}")
        self.t = t


class DomainExhausted(RuntimeError):
    def __init__(self, t: float, message: str):
        super().__init__(f"t={t:.6g}: {message}")
        self.t = t


class Grid:
    """Uniform node set j*dx, |j| <= round(cap/dx); symmetric about 0."""

    def __init__(self, dx: float, cap: float):
        if not (dx > 0.0 and cap > dx):
            raise ValueError("grid needs 0 < dx < cap")
        half = int(round(cap / dx))
        self.dx = float(dx)
        self.cap = half * self.dx
        self.x = np.arange(-half, half + 1) * self.dx
        self.n = self.x.size


@dataclass(frozen=True)
class SimConfig:
    """Numerical knobs for a moving-front run."""

    dx: float
    dt: float
    t_end: float
    domain_cap: float
    record_every: int = 10
    tol_vanish: float = 1e-3
    tol_spread: float = 0.5


def stability_limit(p: ModelParams) -> float:
    """Largest admissible dt for the explicit scheme (bounded operator)."""
    return 0.9 / (p.d1 + p.d2 + p.a + p.b + p.e + gprime0(p))


def validate_sim_config(p: ModelParams, cfg: SimConfig) -> list:
    issues = []
    if not cfg.dx > 0.0:
        issues.append("dx must be > 0")
    if not cfg.dt > 0.0:
        issues.append("dt must be > 0")
    if not cfg.t_end > 0.0:
        issues.append("t_end must be > 0")
    if cfg.record_every < 1:
        issues.append("record_every must be >= 1")
    if cfg.dt > stability_limit(p) * (1.0 + 1e-12):
        issues.append(f"dt exceeds the stability guard {stability_limit(p):.6g}")
    if cfg.dx > p.h0 / 10.0 * (1.0 + 1e-12):
        issues.append("dx must not exceed h0/10")
    if not cfg.domain_cap > p.h0:
        issues.append("domain_cap must exceed h0")
    return issues


@dataclass
class SimState:
    """Densities on the master grid at time t, zero outside (g, h)."""

    t: float
    g: float
    h: float
    u: np.ndarray
    v: np.ndarray
    grid: Grid


@dataclass
class Trajectory:
    """Recorded run summary; full snapshots optional."""

    t: np.ndarray
    g: np.ndarray
    h: np.ndarray
    sup_u: np.ndarray
    sup_v: np.ndarray
    mass_u: np.ndarray
    mass_v: np.ndarray
    h_rate: np.ndarray
    g_rate: np.ndarray
    status: str
    final_state: SimState
    snapshots: list = field(default_factory=list)
    steps: int = 0  # time steps taken since t = 0


@lru_cache(maxsize=64)
def _stencil(kernel: KernelSpec, dx: float, max_offset: int) -> np.ndarray:
    """Kernel values at node offsets k*dx, |k| <= m; m capped by the grid width."""
    reach = support_radius(kernel) / dx
    m = max_offset if reach > max_offset else int(math.ceil(reach))
    return kernel_eval(kernel, np.arange(-m, m + 1) * dx)


def _conv(values: np.ndarray, stencil: np.ndarray) -> np.ndarray:
    m = (stencil.size - 1) // 2
    return np.convolve(values, stencil)[m : m + values.size]


def quad_weights(grid: Grid, g: float, h: float, with_span: bool = False):
    """Trapezoid weights for int_g^h with fractional end cells.

    The integrand is taken linear between nodes and zero at the fronts, so
    the first and last interior nodes carry (dx + gap)/2 where gap is the
    distance from the front to that node. Nodes outside (g, h) get weight 0;
    the weight vector doubles as the strict-interior mask. With `with_span`
    the occupied node range [lo, hi) is returned too, as (w, lo, hi); it is
    empty (lo == hi) when no node lies strictly inside.
    """
    x, dx = grid.x, grid.dx
    w = np.zeros(grid.n)
    k = int(np.searchsorted(x, g, side="right"))
    m = int(np.searchsorted(x, h, side="left")) - 1
    if m < k:
        m = k - 1
    elif k == m:
        w[k] = 0.5 * (h - g)
    else:
        w[k + 1 : m] = dx
        w[k] = 0.5 * (dx + (x[k] - g))
        w[m] = 0.5 * (dx + (h - x[m]))
    return (w, k, m + 1) if with_span else w


def nonlocal_term(kernel: KernelSpec, grid: Grid, g: float, h: float, density: np.ndarray, x: float) -> float:
    """Quadrature of int_g^h J(x - y) density(y) dy at a single point x in [g, h].

    Reference implementation with exact kernel evaluations; the stepping loop
    uses the equivalent tabulated-stencil convolution.
    """
    if not g <= x <= h:
        raise ValueError("evaluation point must lie in [g, h]")
    w = quad_weights(grid, g, h)
    return float(np.sum(w * kernel_eval(kernel, x - grid.x) * density))


def _front_fluxes(p: ModelParams, grid: Grid, w: np.ndarray, u, v, g: float, h: float):
    tail_h = kernel_tail(p.kernel1, np.clip(h - grid.x, 0.0, None))
    tail_g = kernel_tail(p.kernel1, np.clip(grid.x - g, 0.0, None))
    wh = weight_eval(p.weight, np.clip(h - grid.x, 0.0, None))
    wg = weight_eval(p.weight, np.clip(grid.x - g, 0.0, None))
    flux_h = float(np.sum(w * (u * tail_h + p.rho * v * wh)))
    flux_g = float(np.sum(w * (u * tail_g + p.rho * v * wg)))
    return flux_h, flux_g


def _occupied_fluxes(p: ModelParams, grid: Grid, w: np.ndarray, lo: int, hi: int, u, v, g: float, h: float):
    """_front_fluxes summed over the occupied nodes [lo, hi) only.

    Every other node has zero weight, so only rounding differs from the
    full-grid sum. Both fronts' J1 tails come from one kernel_tail call and
    both fluxes from one mat-vec; a kernel_tail weight of kernel1 reuses the
    tails, with u + rho v folded first.
    """
    x = grid.x[lo:hi]
    to_front = np.array((h - x, x - g))  # positive: occupied nodes lie strictly inside (g, h)
    tails = kernel_tail(p.kernel1, to_front)
    wu, rwv = w[lo:hi] * u[lo:hi], p.rho * (w[lo:hi] * v[lo:hi])
    if p.weight.family == "kernel_tail" and p.weight.kernel == p.kernel1:
        flux_h, flux_g = tails @ (wu + rwv)
    else:
        weights = weight_eval(p.weight, to_front)
        flux_h, flux_g = np.hstack((tails, weights)) @ np.concatenate((wu, rwv))
    return float(flux_h), float(flux_g)


def boundary_rates(p: ModelParams, state: SimState):
    """(h_rate >= 0, g_rate <= 0) from the tail-weighted front law."""
    w = quad_weights(state.grid, state.g, state.h)
    flux_h, flux_g = _front_fluxes(p, state.grid, w, state.u, state.v, state.g, state.h)
    if flux_h < 0.0 or flux_g < 0.0:
        raise SimulationUnstable(state.t, "negative front flux from an invalid state")
    return p.mu * flux_h, -p.mu * flux_g


def _rates(p: ModelParams, grid: Grid, st1, st2, u, v, g, h, frozen: bool):
    """Stage rates (du, dv, g', h') evaluated on the occupied window [lo, hi).

    Densities vanish outside the window, so the convolutions take only the
    window's weighted values and du, dv are zero elsewhere.
    """
    if h > grid.cap or g < -grid.cap:
        raise DomainExhausted(0.0, "front left the preallocated grid")
    w, lo, hi = quad_weights(grid, g, h, with_span=True)
    du, dv = np.zeros(grid.n), np.zeros(grid.n)
    if lo == hi:
        return du, dv, 0.0, 0.0
    uw, vw = u[lo:hi], v[lo:hi]
    du[lo:hi] = p.d1 * _conv(w[lo:hi] * uw, st1) - (p.d1 + p.a) * uw + p.e * vw
    dv[lo:hi] = (
        p.d2 * _conv(w[lo:hi] * vw, st2)
        - (p.d2 + p.b) * vw
        + infection_value(p.infection, np.maximum(uw, 0.0))
    )
    if frozen:
        return du, dv, 0.0, 0.0
    flux_h, flux_g = _occupied_fluxes(p, grid, w, lo, hi, u, v, g, h)
    return du, dv, -p.mu * flux_g, p.mu * flux_h


def _check_densities(t: float, u: np.ndarray, v: np.ndarray) -> None:
    """Abort on non-finite or clearly negative densities; clamp round-off in place."""
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise SimulationUnstable(t, "density became non-finite; reduce dt")
    worst = min(u.min(), v.min())
    if worst < NEG_TOL:
        raise SimulationUnstable(t, f"density went negative ({worst:.3e})")
    np.maximum(u, 0.0, out=u)
    np.maximum(v, 0.0, out=v)


def step(p: ModelParams, cfg: SimConfig, state: SimState, freeze_boundaries: bool = False) -> SimState:
    """One explicit 4-stage update of (u, v, g, h).

    Each stage runs on its own occupied window; nodes uncovered by the
    advancing fronts during the step start at exactly zero (they only enter
    the windows of later stages). The new densities are zeroed outside the
    new window. Negative round-off down to -1e-14 is clamped; anything worse
    aborts as instability.
    """
    grid, dt = state.grid, cfg.dt
    st1 = _stencil(p.kernel1, grid.dx, grid.n - 1)
    st2 = _stencil(p.kernel2, grid.dx, grid.n - 1)
    rhs = lambda u, v, g, h: _rates(p, grid, st1, st2, u, v, g, h, freeze_boundaries)
    try:
        u_new, v_new, g_new, h_new = rk4_step(rhs, (state.u, state.v, state.g, state.h), dt)
    except DomainExhausted:
        raise DomainExhausted(state.t, "front left the preallocated grid") from None

    t_new = state.t + dt
    if h_new > grid.cap - grid.dx or g_new < -grid.cap + grid.dx:
        raise DomainExhausted(t_new, "front left the preallocated grid")
    _, lo, hi = quad_weights(grid, g_new, h_new, with_span=True)
    u_new[:lo] = v_new[:lo] = 0.0
    u_new[hi:] = v_new[hi:] = 0.0
    _check_densities(t_new, u_new, v_new)
    return SimState(t=t_new, g=g_new, h=h_new, u=u_new, v=v_new, grid=grid)


def flux_equivalence_check(p: ModelParams, state: SimState) -> float:
    """|double-integral outward flux - tail-form flux| at the right front.

    The inner dispersal integral is done by adaptive quadrature of the kernel
    density itself (independent of the closed-form tail used by the stepper).
    """
    grid = state.grid
    w = quad_weights(grid, state.g, state.h)
    idx = np.nonzero(w)[0]
    tail_form = p.mu * float(
        np.sum(w[idx] * state.u[idx] * kernel_tail(p.kernel1, np.clip(state.h - grid.x[idx], 0.0, None)))
    )
    reach = support_radius(p.kernel1)
    double_form = 0.0
    for j in idx:
        lo = state.h - grid.x[j]
        if lo >= reach or state.u[j] == 0.0:
            continue
        pts = [p.kernel1.radius] if p.kernel1.family == "uniform" else None
        inner, _ = quad(lambda s: kernel_eval(p.kernel1, s), lo, reach, points=pts, limit=200)
        double_form += w[j] * state.u[j] * inner
    double_form *= p.mu
    return abs(double_form - tail_form)


def sample_profile(profile, grid: Grid, h0: float) -> np.ndarray:
    """Sample a density profile on the nodes strictly inside (-h0, h0)."""
    inside = (grid.x > -h0) & (grid.x < h0)
    out = np.zeros(grid.n)
    out[inside] = profile(grid.x[inside])
    return out


def check_initial_pair(u0_profile, v0_profile, h0: float, samples: int = 513) -> list:
    """Admissibility of the initial pair: positive inside, zero at the fronts."""
    issues = []
    xs = np.linspace(-h0, h0, samples)
    for name, prof in (("u0", u0_profile), ("v0", v0_profile)):
        vals = np.asarray(prof(xs), dtype=float)
        scale = max(float(np.max(np.abs(vals))), 1e-300)
        if np.any(vals[1:-1] <= 0.0):
            issues.append(f"{name} must be positive inside (-h0, h0)")
        if abs(vals[0]) > 1e-9 * scale or abs(vals[-1]) > 1e-9 * scale:
            issues.append(f"{name} must vanish at -h0 and h0")
    return issues


_ROW_FIELDS = ("t", "g", "h", "sup_u", "sup_v", "mass_u", "mass_v", "h_rate", "g_rate")


def run(
    p: ModelParams,
    cfg: SimConfig,
    u0_profile,
    v0_profile,
    stop_width: float | None = None,
    record_snapshots: bool = False,
    resume: Trajectory | None = None,
) -> Trajectory:
    """Advance the moving-front system to t_end, recording on a fixed cadence.

    Stops early when the fronts exceed `stop_width` (the outcome is already
    decided), when the densities and front speeds have decayed two orders
    below the vanishing tolerance, when the fronts exhaust the grid, or on
    numerical failure; the status field records which.

    `resume` continues an earlier run from its final state, keeping its rows,
    snapshots and step count. The caller passes the same model, profiles,
    stop width, snapshot setting and numerics; only t_end may grow. If the
    earlier run completed on a step count that is a multiple of record_every,
    the result equals a fresh run bit for bit. Otherwise `resume` is ignored
    and the run starts again from t = 0.
    """
    issues = validate_sim_config(p, cfg)
    issues += check_initial_pair(u0_profile, v0_profile, p.h0)
    if issues:
        raise ValueError("; ".join(issues))
    n_steps = max(1, int(math.ceil(cfg.t_end / cfg.dt - 1e-12)))
    rows = []
    snapshots = []

    def record(s: SimState):
        w = quad_weights(grid, s.g, s.h)
        hr, gr = boundary_rates(p, s)
        rows.append((
            s.t, s.g, s.h,
            float(s.u.max()), float(s.v.max()),
            float(np.sum(w * s.u)), float(np.sum(w * s.v)),
            hr, gr,
        ))
        if record_snapshots:
            snapshots.append((s.t, grid.x.copy(), s.u.copy(), s.v.copy()))
        return hr, gr

    # Continuing is exact only from a completed run whose last row is also a
    # cadence row of this run; any other prefix restarts from t = 0.
    if (
        resume is not None
        and resume.status == "completed"
        and resume.steps % cfg.record_every == 0
        and resume.steps <= n_steps
    ):
        state = resume.final_state
        grid = state.grid
        rows.extend(zip(*(getattr(resume, name).tolist() for name in _ROW_FIELDS)))
        snapshots.extend(resume.snapshots)
        done = resume.steps
    else:
        grid = Grid(cfg.dx, cfg.domain_cap)
        state = SimState(
            t=0.0,
            g=-p.h0,
            h=p.h0,
            u=sample_profile(u0_profile, grid, p.h0),
            v=sample_profile(v0_profile, grid, p.h0),
            grid=grid,
        )
        record(state)
        done = 0
    status = "completed"
    decay_floor = 0.01 * cfg.tol_vanish
    for k in range(done, n_steps):
        try:
            state = step(p, cfg, state)
        except DomainExhausted:
            status = "domain_exhausted"
            break
        except SimulationUnstable:
            status = "unstable"
            break
        done = k + 1
        if stop_width is not None and state.h - state.g > stop_width:
            status = "stopped_width"
            break
        if done % cfg.record_every == 0 or done == n_steps:
            hr, gr = record(state)
            if state.u.max() + state.v.max() < decay_floor and hr - gr < decay_floor:
                status = "stopped_decayed"
                break
    if rows[-1][0] != state.t:
        record(state)
    cols = {name: np.asarray(col) for name, col in zip(_ROW_FIELDS, zip(*rows))}
    return Trajectory(
        **cols,
        status=status,
        final_state=state,
        snapshots=snapshots,
        steps=done,
    )


def classify(trajectory: Trajectory, L_star: float, cfg: SimConfig) -> str:
    """Finite-horizon spreading / vanishing / undecided proxy.

    spreading: the occupied width exceeded 2*L_star + tol_spread at some
    recorded time (beyond that width the interval eigenvalue is negative, so
    the range can never stall). vanishing: at the final time the densities
    and the front speeds sit below tol_vanish and the width is still at most
    2*L_star. Everything else is undecided.
    """
    width = trajectory.h - trajectory.g
    if np.any(width > 2.0 * L_star + cfg.tol_spread):
        return "spreading"
    if trajectory.status == "domain_exhausted":
        # The fronts left the grid: the escaping side passed domain_cap - dx
        # and the other never retreats past its start, so the width exceeded
        # domain_cap - dx + h0 (up to one stage overshoot). The last recorded
        # row predates the escape, hence this explicit rule.
        g0 = float(trajectory.g[0])
        escape_width = cfg.domain_cap - cfg.dx - g0
        if escape_width > 2.0 * L_star + cfg.tol_spread:
            return "spreading"
    decayed = trajectory.sup_u[-1] + trajectory.sup_v[-1] < cfg.tol_vanish
    stalled = trajectory.h_rate[-1] - trajectory.g_rate[-1] < cfg.tol_vanish
    if decayed and stalled and width[-1] <= 2.0 * L_star:
        return "vanishing"
    return "undecided"


def fixed_boundary_rhs(p: ModelParams, x: np.ndarray, u: np.ndarray, v: np.ndarray):
    """Right-hand side of the frozen-interval system on nodes spanning [L1, L2]."""
    dx = x[1] - x[0]
    w = np.full(x.size, dx)
    w[0] = w[-1] = 0.5 * dx
    st1 = _stencil(p.kernel1, dx, x.size - 1)
    st2 = _stencil(p.kernel2, dx, x.size - 1)
    du = p.d1 * _conv(w * u, st1) - (p.d1 + p.a) * u + p.e * v
    dv = p.d2 * _conv(w * v, st2) - (p.d2 + p.b) * v + infection_value(p.infection, np.maximum(u, 0.0))
    return du, dv


def fixed_boundary_run(
    p: ModelParams,
    L1: float,
    L2: float,
    u0,
    v0,
    t_end: float,
    dx: float | None = None,
    dt: float | None = None,
):
    """Frozen-interval run on [L1, L2]; returns (x, u, v) at t_end.

    u0, v0 are callables sampled on the nodes (endpoints included; the
    frozen problem carries no boundary condition) or plain arrays.
    """
    if not L2 > L1:
        raise ValueError("need L1 < L2")
    if dx is None:
        dx = (L2 - L1) / 400.0
    n = int(round((L2 - L1) / dx)) + 1
    x = np.linspace(L1, L2, n)
    if dt is None:
        dt = 0.5 * stability_limit(p)
    u = np.asarray(u0(x), dtype=float) if callable(u0) else np.array(u0, dtype=float)
    v = np.asarray(v0(x), dtype=float) if callable(v0) else np.array(v0, dtype=float)
    if np.any(u < 0.0) or np.any(v < 0.0):
        raise ValueError("initial data must be nonnegative")
    n_steps = max(1, int(math.ceil(t_end / dt - 1e-12)))
    rhs = lambda u, v: fixed_boundary_rhs(p, x, u, v)
    for k in range(n_steps):
        u, v = rk4_step(rhs, (u, v), dt)
        _check_densities((k + 1) * dt, u, v)
    return x, u, v
