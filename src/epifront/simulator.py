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
    The front rates (mu F_h, -mu F_g) are formed in one place, _front_rates,
    for the stage, the recorded rows, boundary_rates and the flux check. The
    fluxes are nonnegative by construction: run checks (W) and the initial
    data at every node, and the stepper keeps the densities nonnegative.
  - The equivalence check between the double-integral outward-flux form and
    the tail-weighted single integral the stepper uses.
  - The fixed-interval companion problem (frozen fronts, no front ODEs),
    whose long-time profiles approach the unique positive steady state when
    the interval's principal eigenvalue is negative. fixed_boundary_run is
    its one integrator (step always moves the fronts). It shares the density
    rates, the 4-stage step and the density check (finite, round-off clamp
    at -1e-14) with the moving-front stepper.
  - Trajectory recording and the finite-horizon spreading / vanishing /
    undecided classifier.
  - The sign of the principal eigenvalue of the frozen linearization on the
    occupied window (the eigen solver's operator and kernel entries on the
    simulator's nodes and weights; one Cholesky attempt). Runs of the threshold
    searches stop as `stopped_certified` once it is not positive, a
    certificate of spreading; simulate and sweep runs never do.
  - Resumable runs: run(resume=traj) continues every completed run from its
    final state, bit for bit like a fresh run at the longer horizon; a run
    that stopped early or failed is final.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .kernels import KernelSpec, kernel_eval, kernel_tail, support_radius, validate_weight, weight_eval
from .model import ModelParams, gprime0, infection_value
from .ode import NEG_TOL, NumericalFailure, rk4_step
from .spectral import _kernel_matrix, coupled_operator, trapezoid_weights


class SimulationUnstable(NumericalFailure):
    """Densities left the admissible region."""


class DomainExhausted(NumericalFailure):
    """A front left the preallocated grid."""


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


def validate_sim_config(p: ModelParams, cfg: SimConfig, check_weight: bool = True) -> list:
    """Violations of the numerics, and of hypothesis (W) on the front weight
    over [0, 2*domain_cap], every distance h - x the front law reads it at
    (unless `check_weight` is off: `validate` reports (W) on its own line)."""
    issues = []
    if not cfg.dx > 0.0:
        issues.append("dx must be > 0")
    if not cfg.dt > 0.0:
        issues.append("dt must be > 0")
    if not cfg.t_end > 0.0:
        issues.append("t_end must be > 0")
    if cfg.record_every < 1:
        issues.append("record_every must be >= 1")
    if not cfg.tol_vanish > 0.0:
        issues.append("tol_vanish must be > 0")
    if not cfg.tol_spread >= 0.0:
        issues.append("tol_spread must be >= 0")
    if cfg.dt > stability_limit(p) * (1.0 + 1e-12):
        issues.append(f"dt exceeds the stability guard {stability_limit(p):.6g}")
    if cfg.dx > p.h0 / 10.0 * (1.0 + 1e-12):
        issues.append("dx must not exceed h0/10")
    if not cfg.domain_cap > p.h0:
        issues.append("domain_cap must exceed h0")
    elif check_weight:
        report = validate_weight(p.weight, 2.0 * cfg.domain_cap)
        issues.extend(f"weight violates (W) on [0, 2*domain_cap]: {msg}" for msg in report.messages)
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


def quad_weights(grid: Grid, g: float, h: float):
    """Trapezoid weights for int_g^h with fractional end cells, as (w, lo, hi).

    The integrand is taken linear between nodes and zero at the fronts, so
    the first and last interior nodes carry (dx + gap)/2 where gap is the
    distance from the front to that node. Nodes outside (g, h) get weight 0,
    so w doubles as the strict-interior mask of the occupied node range
    [lo, hi), which is empty (lo == hi) when no node lies strictly inside.
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
    return w, k, m + 1


def nonlocal_term(kernel: KernelSpec, grid: Grid, g: float, h: float, density: np.ndarray, x: float) -> float:
    """Quadrature of int_g^h J(x - y) density(y) dy at a single point x in [g, h].

    Reference implementation with exact kernel evaluations; the stepping loop
    uses the equivalent tabulated-stencil convolution.
    """
    if not g <= x <= h:
        raise ValueError("evaluation point must lie in [g, h]")
    w, _, _ = quad_weights(grid, g, h)
    return float(np.sum(w * kernel_eval(kernel, x - grid.x) * density))


def _front_rates(p: ModelParams, grid: Grid, w: np.ndarray, lo: int, hi: int, u, v, g: float, h: float):
    """Front rates (mu F_h, -mu F_g), F the sum of w (u T1 + rho v W) of the
    distance to that front over the occupied nodes [lo, hi), T1 the J1 tail.

    Both fronts' J1 tails come from one kernel_tail call and both fluxes from
    one mat-vec; a kernel_tail weight of kernel1 reuses the tails, with
    u + rho v folded first.
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
    return p.mu * float(flux_h), -p.mu * float(flux_g)


def boundary_rates(p: ModelParams, state: SimState):
    """(h_rate >= 0, g_rate <= 0) from the tail-weighted front law.

    Evaluated by the stage's own window code, so the rates equal the front
    rates of the first stage of a step from `state` bit for bit.
    """
    w, lo, hi = quad_weights(state.grid, state.g, state.h)
    return _front_rates(p, state.grid, w, lo, hi, state.u, state.v, state.g, state.h)


def window_lambda_positive(p: ModelParams, state: SimState) -> bool:
    """Whether the principal eigenvalue of the frozen linearization on the
    occupied window of `state` is positive.

    The operator K = DN - D + A (spectral.coupled_operator) is built on the
    nodes strictly inside (g, h) with their fractional-cell quad_weights and
    the eigen solver's kernel entries J(x_j - x_k) (spectral._kernel_matrix).
    Only the sign is needed: -K is positive definite exactly when
    lambda_p > 0, so one Cholesky attempt decides it, to rounding.
    """
    w, lo, hi = quad_weights(state.grid, state.g, state.h)
    x = state.grid.x[lo:hi]
    mat = coupled_operator(w[lo:hi], lambda kernel: _kernel_matrix(kernel, x), p)
    try:
        np.linalg.cholesky(-mat)
    except np.linalg.LinAlgError:
        return False
    return True


def _density_rates(p: ModelParams, w: np.ndarray, u: np.ndarray, v: np.ndarray, st1, st2):
    """Dispersal-reaction rates (du, dv) of densities u, v with quadrature weights w."""
    du = p.d1 * _conv(w * u, st1) - (p.d1 + p.a) * u + p.e * v
    dv = p.d2 * _conv(w * v, st2) - (p.d2 + p.b) * v + infection_value(p.infection, np.maximum(u, 0.0))
    return du, dv


def _rates(p: ModelParams, grid: Grid, st1, st2, u, v, g, h):
    """Stage rates (du, dv, g', h') evaluated on the occupied window [lo, hi).

    Densities vanish outside the window, so the convolutions take only the
    window's weighted values and du, dv are zero elsewhere.
    """
    w, lo, hi = quad_weights(grid, g, h)
    du, dv = np.zeros(grid.n), np.zeros(grid.n)
    if lo == hi:
        return du, dv, 0.0, 0.0
    du[lo:hi], dv[lo:hi] = _density_rates(p, w[lo:hi], u[lo:hi], v[lo:hi], st1, st2)
    h_rate, g_rate = _front_rates(p, grid, w, lo, hi, u, v, g, h)
    return du, dv, g_rate, h_rate


def _check_densities(t: float, u: np.ndarray, v: np.ndarray) -> None:
    """Abort on non-finite or clearly negative densities; clamp round-off in place."""
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise SimulationUnstable(t, "density became non-finite; reduce dt")
    worst = min(u.min(), v.min())
    if worst < NEG_TOL:
        raise SimulationUnstable(t, f"density went negative ({worst:.3e})")
    np.maximum(u, 0.0, out=u)
    np.maximum(v, 0.0, out=v)


def step(p: ModelParams, cfg: SimConfig, state: SimState) -> SimState:
    """One explicit 4-stage update of (u, v, g, h).

    Each stage runs on its own occupied window; nodes uncovered by the
    advancing fronts during the step start at exactly zero (they only enter
    the windows of later stages). The new densities are zeroed outside the
    new window. Negative round-off down to -1e-14 is clamped; anything worse,
    and a front that is not finite, aborts as instability (SimulationUnstable).
    A stage front beyond the grid's cap, or a new front within dx of it, ends
    the step as DomainExhausted, stamped with the step's start or end time.
    """
    grid, dt = state.grid, cfg.dt
    st1 = _stencil(p.kernel1, grid.dx, grid.n - 1)
    st2 = _stencil(p.kernel2, grid.dx, grid.n - 1)

    def rhs(u, v, g, h):
        if h > grid.cap or g < -grid.cap:
            raise DomainExhausted(state.t, "front left the preallocated grid")
        return _rates(p, grid, st1, st2, u, v, g, h)

    u_new, v_new, g_new, h_new = rk4_step(rhs, (state.u, state.v, state.g, state.h), dt)
    t_new = state.t + dt
    if not (math.isfinite(g_new) and math.isfinite(h_new)):
        raise SimulationUnstable(t_new, "front became non-finite")
    if h_new > grid.cap - grid.dx or g_new < -grid.cap + grid.dx:
        raise DomainExhausted(t_new, "front left the preallocated grid")
    _, lo, hi = quad_weights(grid, g_new, h_new)
    u_new[:lo] = v_new[:lo] = 0.0
    u_new[hi:] = v_new[hi:] = 0.0
    _check_densities(t_new, u_new, v_new)
    return SimState(t=t_new, g=g_new, h=h_new, u=u_new, v=v_new, grid=grid)


def flux_equivalence_check(p: ModelParams, state: SimState) -> float:
    """|double-integral outward flux - tail-form flux| at the right front.

    The tail form is the pathogen part (rho = 0) of boundary_rates, the code
    the stepper runs. The inner dispersal integral of the double form is done
    by adaptive quadrature of the kernel density itself, independent of the
    closed-form tail.
    """
    grid = state.grid
    w, lo, hi = quad_weights(grid, state.g, state.h)
    tail_form = _front_rates(replace(p, rho=0.0), grid, w, lo, hi, state.u, state.v, state.g, state.h)[0]
    reach = support_radius(p.kernel1)
    double_form = 0.0
    for j in range(lo, hi):
        gap = state.h - grid.x[j]
        if gap >= reach or state.u[j] == 0.0:
            continue
        pts = [p.kernel1.radius] if p.kernel1.family == "uniform" else None
        inner, _ = quad(lambda s: kernel_eval(p.kernel1, s), gap, reach, points=pts, limit=200)
        double_form += w[j] * state.u[j] * inner
    double_form *= p.mu
    return abs(double_form - tail_form)


def sample_profile(profile, grid: Grid, h0: float) -> np.ndarray:
    """Sample a density profile on the nodes strictly inside (-h0, h0)."""
    inside = (grid.x > -h0) & (grid.x < h0)
    out = np.zeros(grid.n)
    out[inside] = profile(grid.x[inside])
    return out


def check_initial_pair(u0_profile, v0_profile, h0: float) -> list:
    """Admissibility of the initial pair, sampled at 513 evenly spaced points
    of [-h0, h0]: positive inside, zero at the fronts."""
    issues = []
    xs = np.linspace(-h0, h0, 513)
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
    certify_spreading: bool = False,
) -> Trajectory:
    """Advance the moving-front system to t_end, recording on a fixed cadence.

    Stops early when the fronts exceed `stop_width` (the outcome is already
    decided), when the densities and front speeds have decayed two orders
    below the vanishing tolerance, when the fronts exhaust the grid, or on
    numerical failure; the status field records which. A fresh run rejects
    (ValueError) initial data that is negative or NaN at a grid node, which
    the sampled check_initial_pair can miss, before any record or step: with
    (W), checked here too, that keeps every front flux nonnegative.

    With `certify_spreading` a run also stops, as `stopped_certified`, at the
    first recorded row whose occupied window has a principal eigenvalue that
    is not positive (window_lambda_positive). Fronts never retreat and the
    eigenvalue falls as the window grows, so such a run can never stall with
    lambda_p >= 0, which vanishing requires: it spreads. The threshold
    searches pass it; simulate and sweep do not.

    `resume` continues an earlier completed run from its final state, keeping
    its rows (less an off-cadence horizon row), snapshots and step count. The
    caller passes the same model, profiles, stop width, snapshot setting and
    numerics; only t_end may grow. The result equals a fresh run bit for bit.
    A run that stopped early or failed is final: it restarts from t = 0.
    """
    issues = validate_sim_config(p, cfg)
    issues += check_initial_pair(u0_profile, v0_profile, p.h0)
    if issues:
        raise ValueError("; ".join(issues))
    n_steps = max(1, int(math.ceil(cfg.t_end / cfg.dt - 1e-12)))
    rows = []
    snapshots = []

    def record(s: SimState):
        w, lo, hi = quad_weights(grid, s.g, s.h)
        hr, gr = _front_rates(p, grid, w, lo, hi, s.u, s.v, s.g, s.h)
        rows.append((
            s.t, s.g, s.h,
            float(s.u.max()), float(s.v.max()),
            float(np.sum(w * s.u)), float(np.sum(w * s.v)),
            hr, gr,
        ))
        if record_snapshots:
            snapshots.append((s.t, grid.x.copy(), s.u.copy(), s.v.copy()))
        return hr, gr

    # An off-cadence last row is the prefix's horizon row, which a longer run
    # does not record; at the prefix's own horizon the final record restores it.
    if resume is not None and resume.status == "completed" and resume.steps <= n_steps:
        state = resume.final_state
        grid = state.grid
        keep = len(resume.t) - (resume.steps % cfg.record_every != 0)
        rows.extend(zip(*(getattr(resume, name)[:keep].tolist() for name in _ROW_FIELDS)))
        snapshots.extend(resume.snapshots[:keep])
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
        if not (np.all(state.u >= 0.0) and np.all(state.v >= 0.0)):  # NaN fails too
            raise ValueError("initial data must be nonnegative")
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
            if certify_spreading and not window_lambda_positive(p, state):
                status = "stopped_certified"
                break
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


def spreading_stop_width(L_star: float, cfg: SimConfig) -> float:
    """Width past which run stops early: tol_spread beyond classify's spreading
    width 2*L_star + tol_spread (never, for an infinite L_star)."""
    return 2.0 * L_star + 2.0 * cfg.tol_spread


def classify(trajectory: Trajectory, L_star: float, cfg: SimConfig) -> str:
    """Finite-horizon spreading / vanishing / undecided proxy.

    spreading: the run stopped on a window eigenvalue certificate
    (`stopped_certified`), or the occupied width exceeded 2*L_star +
    tol_spread at some recorded time (beyond that width the interval
    eigenvalue is negative, so the range can never stall). vanishing: at the
    final time the densities and the front speeds sit below tol_vanish and
    the width is still at most 2*L_star. Everything else is undecided.
    """
    width = trajectory.h - trajectory.g
    if trajectory.status == "stopped_certified" or np.any(width > 2.0 * L_star + cfg.tol_spread):
        return "spreading"
    if trajectory.status == "domain_exhausted":
        # The fronts left the grid: the escaping side passed cap - dx (the grid's
        # cap, domain_cap rounded to a multiple of dx) and the other never retreats
        # past its start, so the width exceeded cap - dx + h0 (up to one stage
        # overshoot). The last recorded row predates the escape, hence this rule.
        grid = trajectory.final_state.grid
        escape_width = grid.cap - grid.dx - float(trajectory.g[0])
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
    st1 = _stencil(p.kernel1, dx, x.size - 1)
    st2 = _stencil(p.kernel2, dx, x.size - 1)
    return _density_rates(p, trapezoid_weights(x.size, dx), u, v, st1, st2)


def fixed_boundary_run(
    p: ModelParams,
    L1: float,
    L2: float,
    u0,
    v0,
    t_end: float,
    dx: float,
    dt: float | None = None,
):
    """Frozen-interval run on [L1, L2] with node spacing dx (rounded so the
    nodes land on both ends); returns (x, u, v) at t_end.

    u0, v0 are callables sampled on the nodes (endpoints included; the
    frozen problem carries no boundary condition) or plain arrays. dt
    defaults to half the explicit stability limit.
    """
    if not L2 > L1:
        raise ValueError("need L1 < L2")
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
