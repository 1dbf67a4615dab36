"""Time integration of the two-species nonlocal system with moving fronts.

Implements:
  - A fixed uniform master grid over [-domain_cap, domain_cap]; the fronts
    g(t) <= h(t) move continuously (never snapped to nodes) and quadrature
    uses fractional end cells, with densities pinned to zero at and beyond
    the fronts.
  - Explicit classical 4-stage stepping (ode.rk4_step) of the density pair,
    held as one (2, n) array y = (u, v), together with the front ODEs
        h' = mu * int_g^h [ u(x) W_J1(h-x) + rho v(x) W(h-x) ] dx
        g' = -mu * int_g^h [ u(x) W_J1(x-g) + rho v(x) W(x-g) ] dx,
    re-evaluated per stage. The dispersal operator is bounded, so the
    explicit scheme is stable under dt <= 0.9 / (d1+d2+a+b+e+G'(0)).
  - Stages evaluated on the occupied window [lo, hi), the nodes strictly
    inside (g, h), found by bisecting the grid's node list: only the
    window's quadrature weights are built, and the one product w * y[:, lo:hi]
    feeds convolutions by direct O(n_win*m) stencil products (the eigen
    solver's kernel column, spectral._kernel_column, on the node offsets
    0..m*dx, mirrored, once per run's stage; no FFT at this scale) and
    both front fluxes, from one tail evaluation and one mat-vec.
    Every other node has zero rate. The density check (finite, round-off
    clamp at -1e-14) runs once per step on y.
  - The stage (_Stage), built once per run from the model and the node
    spacing and count: it builds its stencils and fold flag and binds the
    rate constants as 0-d arrays and the unchecked tail, weight and G
    formulas for every stage of every step. Its methods are the one copy of
    the stage expressions: the front rates (mu F_h, -mu F_g) for the stage,
    the recorded rows, boundary_rates and the flux check, and the
    dispersal-reaction rates for the moving and the frozen interval.
    The fluxes are nonnegative by construction: run checks (W) and the
    initial data at every node, and the stepper keeps the densities
    nonnegative.
  - The equivalence check between the double-integral outward-flux form and
    the tail-weighted single integral the stepper uses.
  - The fixed-interval companion problem (frozen fronts, no front ODEs),
    whose long-time profiles approach the unique positive steady state when
    the interval's principal eigenvalue is negative. fixed_boundary_run is
    its one integrator (step always moves the fronts). It shares the stage's
    density rates, the 4-stage step and the density check with the
    moving-front stepper, and binds its stage and trapezoid weights once per
    run.
  - Trajectory recording and the finite-horizon spreading / vanishing /
    undecided classifier (classify), which returns its label with the rule
    that decided it and the final row's evidence (Verdict); one function
    (decayed_and_stalled) holds the decay test it, the searches' last-chance
    rule and run's decay stop share.
  - The sign of the principal eigenvalue of the frozen linearization on the
    occupied window (the eigen solver's operator and kernel entries on the
    simulator's nodes and weights; one Cholesky attempt), a function of the
    model and the state alone. Runs of the threshold
    searches stop as `stopped_certified` once it is not positive, a
    certificate of spreading, and as `stopped_vanishing` once mu is at most
    the search's vanishing level at the recorded state, a certificate of
    vanishing (run's `certify`); simulate and sweep runs never do.
  - Resumable runs: run(resume=traj) continues every completed run from its
    final state, bit for bit like a fresh run at the longer horizon; a run
    that stopped early or failed is final.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .kernels import (
    KernelSpec,
    _const,
    kernel_eval,
    kernel_tail,
    support_radius,
    tail_formula,
    validate_weight,
    weight_eval,
    weight_formula,
)
from .model import ModelParams, gprime0, infection_formula, infection_value
from .ode import NEG_TOL, NumericalFailure, rk4_step
from .spectral import _kernel_column, _kernel_matrix, coupled_operator, trapezoid_weights


class SimulationUnstable(NumericalFailure):
    """Densities left the admissible region."""


class DomainExhausted(NumericalFailure):
    """A front left the preallocated grid."""


class Grid:
    """Uniform node set j*dx, |j| <= round(cap/dx); symmetric about 0."""

    def __init__(self, dx: float, cap: float):
        if not (dx > 0.0 and cap > dx):
            raise ValueError("grid needs 0 < dx < cap")
        self.dx = float(dx)
        try:
            half = int(round(cap / dx))
            self.x = np.arange(-half, half + 1) * self.dx
        except (OverflowError, ValueError):  # cap/dx is inf, or numpy refuses the size
            raise MemoryError(f"a grid of {2.0 * cap / dx + 1.0:.6g} nodes is too large to allocate") from None
        self.cap = half * self.dx
        self.n = self.x.size
        self.nodes = self.x.tolist()  # the window lookups bisect this list
        self.cells = np.full(self.n, self.dx)  # interior quadrature weights, copied per window
        self.stage = None  # the _Stage the last run or step bound on this grid


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
    elif cfg.dt > 0.0 and not math.isfinite(cfg.t_end / cfg.dt):
        issues.append("t_end / dt must be finite")
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
    elif not math.isfinite(2.0 * cfg.domain_cap):
        issues.append("2*domain_cap must be finite")
    elif check_weight:
        for msg in validate_weight(p.weight, 2.0 * cfg.domain_cap):
            issues.append(f"weight violates (W) on [0, 2*domain_cap]: {msg}")
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
    snapshots: list = field(default_factory=list)  # (t, x, u, v): the grid's x and the state's u, v, not copies
    steps: int = 0  # time steps taken since t = 0
    failure: str | None = None  # the failed step's NumericalFailure message, "t=...: ..."


def _stencil(kernel: KernelSpec, dx: float, max_offset: int) -> np.ndarray:
    """Kernel values at node offsets k*dx, |k| <= m; m capped by the grid
    width: the kernel column on the nodes 0, dx, ..., m*dx, mirrored."""
    reach = support_radius(kernel) / dx
    m = max_offset if reach > max_offset else int(math.ceil(reach))
    col = _kernel_column(kernel, np.arange(m + 1) * dx)
    return np.concatenate((col[:0:-1], col))


def _conv(values: np.ndarray, stencil: np.ndarray) -> np.ndarray:
    m = (stencil.size - 1) // 2
    return np.convolve(values, stencil)[m : m + values.size]


def _window(grid: Grid, g: float, h: float):
    """The occupied node range [lo, hi): the nodes strictly inside (g, h),
    empty (lo == hi) when no node is. Bisects the grid's node list, which
    gives np.searchsorted's indices without its per-call overhead."""
    lo = bisect_right(grid.nodes, g)
    return lo, max(lo, bisect_left(grid.nodes, h))


def quad_weights(grid: Grid, g: float, h: float):
    """Trapezoid weights for int_g^h with fractional end cells, as (w, lo, hi).

    The integrand is taken linear between nodes and zero at the fronts, so
    the first and last interior nodes carry (dx + gap)/2 where gap is the
    distance from the front to that node. w holds the weights of the
    occupied window [lo, hi) only (w[j - lo] for node j); every other node
    has weight 0, and the window is empty (lo == hi) when no node lies
    strictly inside (g, h).
    """
    lo, hi = _window(grid, g, h)
    w = grid.cells[lo:hi].copy()
    if hi - lo == 1:
        w[0] = 0.5 * (h - g)
    elif hi > lo:
        w[0] = 0.5 * (grid.dx + (grid.nodes[lo] - g))
        w[-1] = 0.5 * (grid.dx + (h - grid.nodes[hi - 1]))
    return w, lo, hi


def nonlocal_term(kernel: KernelSpec, grid: Grid, g: float, h: float, density: np.ndarray, x: float) -> float:
    """Quadrature of int_g^h J(x - y) density(y) dy at a single point x in [g, h].

    Reference implementation with exact kernel evaluations; the stepping loop
    uses the equivalent tabulated-stencil convolution.
    """
    if not g <= x <= h:
        raise ValueError("evaluation point must lie in [g, h]")
    w, lo, hi = quad_weights(grid, g, h)
    return float(np.sum(w * kernel_eval(kernel, x - grid.x[lo:hi]) * density[lo:hi]))


class _Stage:
    """The rates of one stage of model p on n nodes dx apart, with all that
    stays fixed from stage to stage bound once: the stencils st1, st2
    (_stencil), the fold flag (whether the front weight is the J1 tail, so
    both fronts' fluxes share it), the rate constants as 0-d arrays
    (numpy then converts no Python scalar per operation; the products are
    the same), and the tail, weight and G evaluators.

    densities, fronts and rates (which takes the grid it steps) are the one
    copy of the stage expressions. The evaluators are the unchecked
    formulas, since a run's front distances are positive and its densities
    clamped by construction; flux_equivalence_check alone binds the checked
    kernel_tail, weight_eval and infection_value. A run's stage hangs on its
    grid (grid.stage) for the steps, and keeps no reference back, so a
    finished run is freed without the cyclic garbage collector.
    """

    def __init__(self, p: ModelParams, dx: float, n: int, *, checked: bool = False):
        self.p = p
        self.fold = p.weight.family == "kernel_tail" and p.weight.kernel == p.kernel1
        self.st1, self.st2 = _stencil(p.kernel1, dx, n - 1), _stencil(p.kernel2, dx, n - 1)
        self.d1, self.d1a, self.e = _const(p.d1), _const(p.d1 + p.a), _const(p.e)
        self.d2, self.d2b, self.rho, self.zero = _const(p.d2), _const(p.d2 + p.b), _const(p.rho), _const(0.0)
        if checked:
            self.tail = partial(kernel_tail, p.kernel1)
            self.weight = partial(weight_eval, p.weight)
            self.infection = partial(infection_value, p.infection)
        else:
            self.tail, self.weight = tail_formula(p.kernel1), weight_formula(p.weight)
            self.infection = partial(infection_formula, p.infection)

    def densities(self, wy: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Dispersal-reaction rates of the density pair y = (u, v), written into
        out; wy = w * y carries the quadrature weights w."""
        out[0] = self.d1 * _conv(wy[0], self.st1) - self.d1a * y[0] + self.e * y[1]
        g_of_u = self.infection(np.maximum(y[0], self.zero))
        out[1] = self.d2 * _conv(wy[1], self.st2) - self.d2b * y[1] + g_of_u
        return out

    def fronts(self, x: np.ndarray, wy: np.ndarray, g: float, h: float):
        """Front rates (mu F_h, -mu F_g), F the sum of w (u T1 + rho v W) of
        the distance to that front over the occupied nodes x, T1 the J1 tail,
        with wy = w * (u, v) on those nodes.

        Both fronts' J1 tails come from one tail evaluation and both fluxes
        from one mat-vec; with `fold` (a kernel_tail weight of kernel1) the
        tails serve as the weight too, with u + rho v folded first.
        """
        to_front = np.array((h - x, x - g))  # positive: occupied nodes lie strictly inside (g, h)
        tails = self.tail(to_front)
        if self.fold:
            flux_h, flux_g = (tails @ (wy[0] + self.rho * wy[1])).tolist()
        else:
            weights = self.weight(to_front)
            flux_h, flux_g = (np.hstack((tails, weights)) @ np.concatenate((wy[0], self.rho * wy[1]))).tolist()
        return self.p.mu * flux_h, -self.p.mu * flux_g

    def rates(self, grid: Grid, y: np.ndarray, g: float, h: float):
        """Stage rates (dy, g', h') of the density pair y = (u, v) on `grid`,
        evaluated on the occupied window [lo, hi).

        Densities vanish outside the window, so the convolutions take only
        the window's weighted values, dy is zero elsewhere, and the one
        product w * y[:, lo:hi] serves both the density and the front rates.
        """
        w, lo, hi = quad_weights(grid, g, h)
        dy = np.zeros(y.shape)
        if lo == hi:
            return dy, 0.0, 0.0
        win = y[:, lo:hi]
        wy = w * win
        self.densities(wy, win, dy[:, lo:hi])
        h_rate, g_rate = self.fronts(grid.x[lo:hi], wy, g, h)
        return dy, g_rate, h_rate


def _occupied(state: SimState):
    """(x, wy, lo, hi) of the occupied window of `state`: its nodes, the
    densities times their quadrature weights, and its node range."""
    w, lo, hi = quad_weights(state.grid, state.g, state.h)
    wy = w * np.array((state.u[lo:hi], state.v[lo:hi]))
    return state.grid.x[lo:hi], wy, lo, hi


def boundary_rates(p: ModelParams, state: SimState):
    """(h_rate >= 0, g_rate <= 0) from the tail-weighted front law.

    The front rates of a run's stage (_Stage) on the occupied window
    of `state`, the expression run records, so they equal those of the first
    stage of a step from `state` bit for bit; (0.0, 0.0) on an empty window,
    as the stage's rates give.
    """
    x, wy, lo, hi = _occupied(state)
    if lo == hi:
        return 0.0, 0.0
    return _Stage(p, state.grid.dx, state.grid.n).fronts(x, wy, state.g, state.h)


def window_lambda_positive(p: ModelParams, state: SimState) -> bool:
    """Whether the principal eigenvalue of the frozen linearization on the
    occupied window of `state` is positive.

    The operator K = DN - D + A (spectral.coupled_operator) is built on the
    nodes strictly inside (g, h) with their fractional-cell quad_weights and
    the eigen solver's kernel entries J(x_j - x_k) (spectral._kernel_matrix).
    Only the sign is needed: -K is positive definite exactly when
    lambda_p > 0, so one Cholesky attempt decides it, to rounding.
    Equal kernels share one block.
    """
    w, lo, hi = quad_weights(state.grid, state.g, state.h)
    blocks = {kernel: _kernel_matrix(kernel, state.grid.x[lo:hi]) for kernel in {p.kernel1, p.kernel2}}
    mat = coupled_operator(w, blocks.__getitem__, p)
    try:
        np.linalg.cholesky(-mat)
    except np.linalg.LinAlgError:
        return False
    return True


def _check_densities(t: float, y: np.ndarray) -> None:
    """Abort on non-finite or clearly negative densities y = (u, v); clamp round-off in place."""
    if not np.isfinite(y).all():
        raise SimulationUnstable(t, "density became non-finite; reduce dt")
    worst = y.min()
    if worst < NEG_TOL:
        raise SimulationUnstable(t, f"density went negative ({worst:.3e})")
    np.maximum(y, 0.0, out=y)


def step(p: ModelParams, cfg: SimConfig, state: SimState) -> SimState:
    """One explicit 4-stage update of (u, v, g, h), the densities stepped as
    one (2, n) array y = (u, v); the new state's u and v are its rows.

    Each stage runs on its own occupied window; nodes uncovered by the
    advancing fronts during the step start at exactly zero (they only enter
    the windows of later stages). The new densities are zeroed outside the
    new window. Negative round-off down to -1e-14 is clamped; anything worse,
    and a front that is not finite, aborts as instability (SimulationUnstable).
    A stage front beyond the grid's cap, or a new front within dx of it, ends
    the step as DomainExhausted, stamped with the step's start or end time.
    """
    grid, dt = state.grid, cfg.dt
    stage = grid.stage
    if stage is None or stage.p is not p:
        stage = grid.stage = _Stage(p, grid.dx, grid.n)

    def rhs(y, g, h):
        if h > grid.cap or g < -grid.cap:
            raise DomainExhausted(state.t, "front left the preallocated grid")
        return stage.rates(grid, y, g, h)

    y, g_new, h_new = rk4_step(rhs, (np.array((state.u, state.v)), state.g, state.h), dt)
    t_new = state.t + dt
    if not (math.isfinite(g_new) and math.isfinite(h_new)):
        raise SimulationUnstable(t_new, "front became non-finite")
    if h_new > grid.cap - grid.dx or g_new < -grid.cap + grid.dx:
        raise DomainExhausted(t_new, "front left the preallocated grid")
    lo, hi = _window(grid, g_new, h_new)
    y[:, :lo] = 0.0
    y[:, hi:] = 0.0
    _check_densities(t_new, y)
    return SimState(t=t_new, g=g_new, h=h_new, u=y[0], v=y[1], grid=grid)


def flux_equivalence_check(p: ModelParams, state: SimState) -> float:
    """|double-integral outward flux - tail-form flux| at the right front.

    The tail form is the pathogen part (rho = 0) of boundary_rates, the code
    the stepper runs. The inner dispersal integral of the double form is done
    by adaptive quadrature of the kernel density itself, independent of the
    closed-form tail. A power_tail kernel's is split at its cutoff and runs
    to infinity: over its finite support radius (about 7.9e5 at exponent
    2.5) quad returned about -1e-10 against a tail mass of 0.12-0.47.
    """
    from scipy.integrate import quad

    grid = state.grid
    x, wy, lo, hi = _occupied(state)
    tail_form = _Stage(replace(p, rho=0.0), grid.dx, grid.n, checked=True).fronts(x, wy, state.g, state.h)[0]
    density, reach = partial(kernel_eval, p.kernel1), support_radius(p.kernel1)
    double_form = 0.0
    for j in range(lo, hi):
        gap = state.h - grid.x[j]
        if gap >= reach or state.u[j] == 0.0:
            continue
        ends = (gap, max(gap, p.kernel1.cutoff), math.inf) if p.kernel1.family == "power_tail" else (gap, reach)
        inner = sum(quad(density, a, b, limit=200)[0] for a, b in zip(ends, ends[1:]))
        double_form += wy[0, j - lo] * inner
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
    certify=None,
) -> Trajectory:
    """Advance the moving-front system to t_end, recording on a fixed cadence.

    Stops early when the fronts exceed `stop_width` (the outcome is already
    decided), when the densities and front speeds have decayed two orders
    below the vanishing tolerance, when the fronts exhaust the grid, or on
    numerical failure; the status field records which. A fresh run rejects
    (ValueError) initial data that is negative or NaN at a grid node, which
    the sampled check_initial_pair can miss, before any record or step: with
    (W), checked here too, that keeps every front flux nonnegative.

    `certify`, which only the threshold searches pass, turns on two
    certificates that end a probe run once its label is proven. It is a
    vanishing level: certify(H, data_norm) is a mu level for a state of
    half-width H = (h - g)/2 and data norm sup u + sup v (the search's
    eigenpair ladder, thresholds._vanishing_ladder).
      - stopped_vanishing: at the first recorded row, the initial one
        included, where mu <= certify(H, sup u + sup v). The system is
        autonomous and translation invariant, so the paper's small-mu level
        holds from any state: its fronts stay within the midpoint +- h1 for
        an h1 < L_star, and the run vanishes.
      - stopped_certified: at the first recorded row after the initial one
        whose occupied window has a principal eigenvalue that is not
        positive (window_lambda_positive). Fronts never retreat and the
        eigenvalue falls as the window grows, so such a run can never stall
        with lambda_p >= 0, which vanishing requires: it spreads.
    Both rest on discrete eigenpairs (the window's on the simulator's nodes,
    the level's on the eigen grid), so they are the continuous problem's
    certificates up to discretization error. simulate and sweep never pass
    `certify`.

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
    status = "completed"
    failure = None

    def record(s: SimState):
        x, wy, lo, hi = _occupied(s)
        hr, gr = stage.fronts(x, wy, s.g, s.h)
        # Sums over the whole grid: numpy sums pairwise, so the grouping, and
        # with it the rounding, would move with the window's start.
        weighted = np.zeros((2, grid.n))
        weighted[:, lo:hi] = wy
        mass_u, mass_v = np.sum(weighted, axis=1).tolist()
        row = (s.t, s.g, s.h, float(s.u.max()), float(s.v.max()), mass_u, mass_v, hr, gr)
        rows.append(row)
        if record_snapshots:
            snapshots.append((s.t, grid.x, s.u, s.v))
        return row

    def vanishes(row) -> bool:
        return certify is not None and p.mu <= certify(0.5 * (row[2] - row[1]), row[3] + row[4])

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
        done = 0
    stage = grid.stage = _Stage(p, grid.dx, grid.n)
    if done == 0 and vanishes(record(state)):  # a fresh run's initial row
        status = "stopped_vanishing"
    while status == "completed" and done < n_steps:
        try:
            state = step(p, cfg, state)
        except DomainExhausted as err:
            status, failure = "domain_exhausted", str(err)
            break
        except SimulationUnstable as err:
            status, failure = "unstable", str(err)
            break
        done += 1
        if stop_width is not None and state.h - state.g > stop_width:
            status = "stopped_width"
            break
        if done % cfg.record_every == 0 or done == n_steps:
            row = record(state)
            if vanishes(row):
                status = "stopped_vanishing"
                break
            if certify is not None and not window_lambda_positive(p, state):
                status = "stopped_certified"
                break
            if decayed_and_stalled(row[3] + row[4], row[7] - row[8], 0.01 * cfg.tol_vanish):
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
        failure=failure,
    )


def spreading_stop_width(L_star: float, cfg: SimConfig) -> float:
    """Width past which run stops early: tol_spread beyond classify's spreading
    width 2*L_star + tol_spread (never, for an infinite L_star)."""
    return 2.0 * L_star + 2.0 * cfg.tol_spread


@dataclass(frozen=True)
class Verdict:
    """A finite-horizon label ("spreading", "vanishing" or "undecided"), the
    rule that decided it, and the evidence that rule compared, all read at
    the final recorded row: its time t, the occupied width h - g, the
    density sup u + sup v and the front speed h' - g'.

    classify's rules: certified (stopped_certified), width (past 2*L_star +
    tol_spread), level (stopped_vanishing), escaped (the escape width of a
    domain_exhausted run), decayed (decayed_and_stalled below tol_vanish
    within 2*L_star) and none (undecided). The threshold searches add
    last_chance (thresholds._classify_with_horizon).
    """

    label: str
    rule: str
    t: float
    width: float
    density: float
    speed: float


def decayed_and_stalled(density: float, speed: float, tol: float) -> bool:
    """Whether the density sup u + sup v and the front speed h' - g' both sit below tol."""
    return density < tol and speed < tol


def classify(trajectory: Trajectory, L_star: float, cfg: SimConfig) -> Verdict:
    """Finite-horizon spreading / vanishing / undecided proxy, with its rule.

    spreading: the run stopped on a window eigenvalue certificate
    (`stopped_certified`: certified), or the occupied width exceeded
    2*L_star + tol_spread at some recorded time (width; beyond that width
    the interval eigenvalue is negative, so the range can never stall).
    vanishing: the run stopped on the vanishing level (`stopped_vanishing`:
    level), or at the final time the densities and the front speeds sit
    below tol_vanish and the width is still at most 2*L_star (decayed).
    Everything else is undecided (none).
    """
    width = trajectory.h - trajectory.g
    density = float(trajectory.sup_u[-1] + trajectory.sup_v[-1])
    speed = float(trajectory.h_rate[-1] - trajectory.g_rate[-1])
    verdict = partial(Verdict, t=float(trajectory.t[-1]), width=float(width[-1]), density=density, speed=speed)
    if trajectory.status == "stopped_certified":
        return verdict("spreading", "certified")
    if np.any(width > 2.0 * L_star + cfg.tol_spread):
        return verdict("spreading", "width")
    if trajectory.status == "stopped_vanishing":
        return verdict("vanishing", "level")
    if trajectory.status == "domain_exhausted":
        # The fronts left the grid: the escaping side passed cap - dx (the grid's
        # cap, domain_cap rounded to a multiple of dx) and the other never retreats
        # past its start, so the width exceeded cap - dx + h0 (up to one stage
        # overshoot). The last recorded row predates the escape, hence this rule.
        grid = trajectory.final_state.grid
        escape_width = grid.cap - grid.dx - float(trajectory.g[0])
        if escape_width > 2.0 * L_star + cfg.tol_spread:
            return verdict("spreading", "escaped")
    if decayed_and_stalled(density, speed, cfg.tol_vanish) and width[-1] <= 2.0 * L_star:
        return verdict("vanishing", "decayed")
    return verdict("undecided", "none")


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
    if not dx > 0.0:  # a memory error below must mean a size, not a sign
        raise ValueError("dx must be positive")
    try:
        x = np.linspace(L1, L2, int(round((L2 - L1) / dx)) + 1)
    except (OverflowError, ValueError):  # (L2 - L1)/dx is inf, or numpy refuses the size
        raise MemoryError(f"a grid of {(L2 - L1) / dx + 1.0:.6g} nodes is too large to allocate") from None
    if dt is None:
        dt = 0.5 * stability_limit(p)
    if not math.isfinite(t_end / dt):
        raise ValueError("t_end / dt must be finite")
    u = np.asarray(u0(x), dtype=float) if callable(u0) else np.array(u0, dtype=float)
    v = np.asarray(v0(x), dtype=float) if callable(v0) else np.array(v0, dtype=float)
    if np.any(u < 0.0) or np.any(v < 0.0):
        raise ValueError("initial data must be nonnegative")
    n_steps = max(1, int(math.ceil(t_end / dt - 1e-12)))
    y = np.array((u, v))
    # The stage's density rates under trapezoid weights, both bound once:
    # the interval never moves.
    spacing = x[1] - x[0]
    stage, w = _Stage(p, spacing, x.size), trapezoid_weights(x.size, spacing)
    rhs = lambda y: (stage.densities(w * y, y, np.empty_like(y)),)
    for k in range(n_steps):
        (y,) = rk4_step(rhs, (y,), dt)
        _check_densities((k + 1) * dt, y)
    return x, y[0], y[1]
