"""Moving-front integration: quadrature, front law, comparisons, steady states."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from epifront import (
    KernelSpec,
    SimConfig,
    WeightSpec,
    a_priori_bounds,
    boundary_rates,
    classify,
    fixed_boundary_run,
    flux_equivalence_check,
    nonlocal_term,
    run,
    step,
)
from epifront.simulator import (
    DomainExhausted,
    Grid,
    SimState,
    SimulationUnstable,
    Trajectory,
    _conv,
    _density_rates,
    _folds,
    _front_rates,
    _Stage,
    _stencil,
    check_initial_pair,
    fixed_boundary_rhs,
    quad_weights,
    sample_profile,
    validate_sim_config,
    window_lambda_positive,
)
from epifront.kernels import kernel_eval, kernel_tail, weight_eval
from epifront.model import infection_value
from epifront.spectral import EigenProblem, _kernel_matrix, coupled_operator, principal_eigenvalue
from helpers import bump_profile, make_params


def full_weights(grid: Grid, g: float, h: float):
    """quad_weights as one weight per grid node, zero off the occupied window."""
    win, lo, hi = quad_weights(grid, g, h)
    w = np.zeros(grid.n)
    w[lo:hi] = win
    return w, lo, hi


def flat_state(grid: Grid, g: float, h: float, value_u=1.0, value_v=0.0) -> SimState:
    inside = (grid.x > g) & (grid.x < h)
    u = np.where(inside, value_u, 0.0)
    v = np.where(inside, value_v, 0.0)
    return SimState(t=0.0, g=g, h=h, u=u, v=v, grid=grid)


def test_quad_weights_integrate_linear_ramp_exactly():
    # The weights realize the trapezoid rule for densities that fall
    # linearly to zero at the fronts: sum of weights = width minus half of
    # each front gap, and a sampled tent profile integrates exactly.
    grid = Grid(0.05, 4.0)
    rng = np.random.default_rng(2)
    x = grid.x
    for _ in range(50):
        g, h = np.sort(rng.uniform(-3.5, 3.5, 2))
        if h - g < 0.2:
            continue
        w, _, _ = quad_weights(grid, g, h)
        k = int(np.searchsorted(x, g, side="right"))
        m = int(np.searchsorted(x, h, side="left")) - 1
        gap = (x[k] - g) + (h - x[m])
        assert w.sum() == pytest.approx((h - g) - 0.5 * gap, abs=1e-12)
        assert np.all(w >= 0.0)
    w, lo, hi = quad_weights(grid, -1.0, 1.0)
    tent = np.clip(1.0 - np.abs(x), 0.0, None)
    assert float(w @ tent[lo:hi]) == pytest.approx(1.0, abs=1e-13)


def test_quad_weights_empty_slit():
    grid = Grid(0.05, 4.0)
    w, _, _ = quad_weights(grid, 0.011, 0.039)  # no node strictly inside
    assert w.sum() == 0.0


def test_nonlocal_term_zero_density():
    grid = Grid(0.05, 4.0)
    k = KernelSpec.uniform(1.0)
    assert nonlocal_term(k, grid, -1.0, 1.0, np.zeros(grid.n), 0.0) == 0.0


def test_nonlocal_term_constant_density_full_support():
    # Kernel support inside [g, h] around x: unit kernel mass returns c.
    grid = Grid(0.02, 4.0)
    k = KernelSpec.uniform(1.0)
    dens = np.where(np.abs(grid.x) < 3.0, 0.7, 0.0)
    val = nonlocal_term(k, grid, -3.0, 3.0, dens, 0.5)
    assert val == pytest.approx(0.7, abs=1e-6)


def test_nonlocal_term_half_support():
    # Constant density 1 on [-1, 1], evaluation at the right front: half the
    # kernel mass lies inside, up to the first-order front-cell deficit of
    # the discontinuous test density.
    k = KernelSpec.uniform(1.0)
    for dx, tol in ((0.01, 6e-3), (0.005, 3e-3)):
        grid = Grid(dx, 4.0)
        dens = np.where(np.abs(grid.x) < 1.0, 1.0, 0.0)
        val = nonlocal_term(k, grid, -1.0, 1.0, dens, 1.0)
        assert val == pytest.approx(0.5, abs=tol)


def test_nonlocal_term_requires_point_inside():
    grid = Grid(0.05, 4.0)
    with pytest.raises(ValueError):
        nonlocal_term(KernelSpec.uniform(1.0), grid, -1.0, 1.0, np.zeros(grid.n), 1.5)


def test_boundary_rates_zero_state():
    p = make_params()
    grid = Grid(0.05, 4.0)
    state = flat_state(grid, -1.0, 1.0, 0.0, 0.0)
    assert boundary_rates(p, state) == (0.0, 0.0)


def test_boundary_rates_symmetric_state():
    p = make_params(kernel=KernelSpec.gaussian(0.6))
    grid = Grid(0.05, 4.0)
    state = flat_state(grid, -1.2, 1.2, 0.0, 0.0)
    state.u = np.where(np.abs(grid.x) < 1.2, np.exp(-grid.x**2), 0.0)
    state.v = 0.5 * state.u
    hr, gr = boundary_rates(p, state)
    assert hr == pytest.approx(-gr, abs=1e-10)
    assert hr > 0.0


def test_boundary_rate_uniform_tail_value():
    # u = 1 on [-1, 1], v = 0, mu = 1, uniform kernel: the exact front law
    # integral is int_0^2 W(s) ds = 0.25; the front cells of the
    # discontinuous test density contribute an O(dx) deficit.
    k = KernelSpec.uniform(1.0)
    p = make_params(mu=1.0, rho=0.0, kernel=k)
    errs = []
    for dx in (0.02, 0.01):
        grid = Grid(dx, 4.0)
        state = flat_state(grid, -1.0, 1.0, 1.0, 0.0)
        hr, _ = boundary_rates(p, state)
        errs.append(abs(hr - 0.25))
    assert errs[0] < 0.02 and errs[1] < 0.01
    assert errs[1] < errs[0]


def test_flux_equivalence_zero():
    p = make_params()
    grid = Grid(0.05, 4.0)
    assert flux_equivalence_check(p, flat_state(grid, -1.0, 1.0, 0.0, 0.0)) == 0.0


@pytest.mark.parametrize("kernel", [KernelSpec.uniform(1.0), KernelSpec.gaussian(0.8)])
def test_flux_equivalence_random_and_constant(kernel):
    p = make_params(kernel=kernel)
    grid = Grid(0.05, 4.0)
    rng = np.random.default_rng(3)
    state = flat_state(grid, -1.0, 1.0, 1.0, 0.0)
    hr, _ = boundary_rates(replace(p, rho=0.0), state)
    assert flux_equivalence_check(p, state) < 1e-6 * max(1.0, hr)
    state.u = np.where((grid.x > -1.0) & (grid.x < 1.0), rng.uniform(0.0, 1.0, grid.n), 0.0)
    hr, _ = boundary_rates(replace(p, rho=0.0), state)
    assert flux_equivalence_check(p, state) < 1e-6 * max(1.0, hr)


def test_step_zero_state():
    p = make_params()
    cfg = SimConfig(dx=0.05, dt=0.1, t_end=1.0, domain_cap=4.0)
    grid = Grid(cfg.dx, cfg.domain_cap)
    state = flat_state(grid, -1.0, 1.0, 0.0, 0.0)
    nxt = step(p, cfg, state)
    assert nxt.g == state.g and nxt.h == state.h
    assert not nxt.u.any() and not nxt.v.any()


def test_step_frozen_equilibrium():
    # At (u*, v*) with the kernel mass fully inside, the reaction and the
    # unit-mass convolution cancel; nodes further than four kernel radii
    # from the fronts (one radius per stage) stay put to round-off.
    p = make_params(alpha=2.0, mu=1.0)
    cfg = SimConfig(dx=0.1, dt=0.1, t_end=1.0, domain_cap=30.0)
    grid = Grid(cfg.dx, cfg.domain_cap)
    state = flat_state(grid, -25.0, 25.0, 1.0, 1.0)
    nxt = step(p, cfg, state)
    core = np.abs(grid.x) <= 25.0 - 4.0 * 1.0 - cfg.dx
    assert np.abs(nxt.u[core] - 1.0).max() < 1e-8
    assert np.abs(nxt.v[core] - 1.0).max() < 1e-8


def test_step_symmetry_preserved():
    p = make_params(alpha=2.0, mu=0.5)
    cfg = SimConfig(dx=0.05, dt=0.1, t_end=1.0, domain_cap=5.0)
    grid = Grid(cfg.dx, cfg.domain_cap)
    state = SimState(
        t=0.0, g=-1.0, h=1.0,
        u=sample_profile(bump_profile(1.0), grid, 1.0),
        v=sample_profile(bump_profile(1.0), grid, 1.0),
        grid=grid,
    )
    for _ in range(50):
        state = step(p, cfg, state)
        assert abs(state.g + state.h) < 1e-10
        assert np.abs(state.u - state.u[::-1]).max() < 1e-10


def test_step_domain_exhaustion():
    p = make_params(alpha=2.0, mu=500.0)
    cfg = SimConfig(dx=0.05, dt=0.1, t_end=1.0, domain_cap=2.0)
    grid = Grid(cfg.dx, cfg.domain_cap)
    state = SimState(
        t=0.0, g=-1.0, h=1.0,
        u=sample_profile(bump_profile(1.0), grid, 1.0),
        v=sample_profile(bump_profile(1.0), grid, 1.0),
        grid=grid,
    )
    with pytest.raises(DomainExhausted):
        for _ in range(50):
            state = step(p, cfg, state)


def test_a_step_far_beyond_the_stability_limit_ends_on_a_negative_density():
    # step does not check dt against the stability limit (run's config check
    # does), so the density check is what catches the overshoot.
    p = make_params(alpha=2.0)
    cfg = SimConfig(dx=0.05, dt=5.0, t_end=1.0, domain_cap=5.0)
    grid = Grid(cfg.dx, cfg.domain_cap)
    bump = sample_profile(bump_profile(1.0), grid, 1.0)
    state = SimState(t=0.0, g=-1.0, h=1.0, u=bump, v=bump.copy(), grid=grid)
    with pytest.raises(SimulationUnstable, match=r"^t=5: density went negative \(-3\.302e\+01\)$"):
        step(p, cfg, state)


def test_a_density_that_overflows_ends_the_run_as_unstable():
    # Densities near the float limit overflow in the first step; the check
    # names the non-finite density, not a later negative one. The frozen
    # interval has no fronts whose rates could fail first.
    p = make_params(alpha=2.0)
    huge = lambda x: np.full_like(x, 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationUnstable, match=r"^t=0\.05: density became non-finite; reduce dt$"):
            fixed_boundary_run(p, -1.0, 1.0, huge, huge, t_end=1.0, dx=0.1, dt=0.05)


@pytest.mark.parametrize("front", ["g", "h"])
def test_a_non_finite_front_ends_the_step_as_unstable(front):
    # A NaN front fails every grid comparison and gives an empty window, so
    # without a check the step would "succeed" with NaN fronts and zeroed
    # densities.
    p = make_params(alpha=2.0, mu=0.5)
    cfg = SimConfig(dx=0.05, dt=0.1, t_end=1.0, domain_cap=5.0)
    state = replace(flat_state(Grid(cfg.dx, cfg.domain_cap), -1.0, 1.0, 0.5, 0.5), **{front: math.nan})
    with pytest.raises(SimulationUnstable, match=r"^t=0\.1: front became non-finite$"):
        step(p, cfg, state)


def test_a_run_resumed_from_a_non_finite_front_ends_unstable():
    p = make_params(alpha=2.0, h0=0.4)
    bump = bump_profile(0.4)
    cfg = SimConfig(dx=0.04, dt=0.12, t_end=12.0, domain_cap=4.0, record_every=10)
    prefix = run(p, cfg, bump, bump, stop_width=50.0)
    assert prefix.status == "completed"
    prefix.final_state.h = math.nan
    resumed = run(p, replace(cfg, t_end=24.0), bump, bump, stop_width=50.0, resume=prefix)
    assert resumed.status == "unstable" and resumed.steps == prefix.steps


def test_config_guards():
    p = make_params()
    ok = SimConfig(dx=0.05, dt=0.1, t_end=1.0, domain_cap=4.0)
    assert validate_sim_config(p, ok) == []
    bad = SimConfig(dx=0.5, dt=5.0, t_end=1.0, domain_cap=0.5)
    issues = validate_sim_config(p, bad)
    assert any("stability" in s for s in issues)
    assert any("h0/10" in s for s in issues)
    assert any("domain_cap" in s for s in issues)


@pytest.mark.parametrize("field, value, message", [
    ("tol_vanish", 0.0, "tol_vanish must be > 0"),
    ("tol_vanish", -1e-3, "tol_vanish must be > 0"),
    ("tol_spread", -5.0, "tol_spread must be >= 0"),
])
def test_classification_tolerances_are_range_checked(field, value, message):
    # tol_vanish = 0 would let no run vanish; a negative tol_spread would call
    # widths below 2 L* spreading.
    p = make_params()
    cfg = replace(SimConfig(dx=0.05, dt=0.1, t_end=1.0, domain_cap=4.0), **{field: value})
    assert validate_sim_config(p, cfg) == [message]
    with pytest.raises(ValueError, match=message):
        run(p, cfg, bump_profile(1.0), bump_profile(1.0))
    assert validate_sim_config(p, replace(cfg, tol_vanish=1e-3, tol_spread=0.0)) == []


def test_run_requires_admissible_initial_data():
    p = make_params()
    cfg = SimConfig(dx=0.05, dt=0.1, t_end=1.0, domain_cap=4.0)
    with pytest.raises(ValueError):
        run(p, cfg, lambda x: np.ones_like(np.asarray(x)), bump_profile(1.0))


def test_nonlocal_term_matches_stencil_convolution():
    # Dual route: the scalar quadrature with exact kernel evaluations must
    # agree with the tabulated-stencil convolution the stepper uses.
    from epifront.simulator import _conv, _stencil

    kern = KernelSpec.gaussian(0.6)
    grid = Grid(0.05, 4.0)
    rng = np.random.default_rng(12)
    g, h = -1.37, 1.81
    w, _, _ = full_weights(grid, g, h)
    dens = np.where(w > 0.0, rng.uniform(0.0, 1.0, grid.n), 0.0)
    conv = _conv(w * dens, _stencil(kern, grid.dx, grid.n - 1))
    for idx in np.nonzero(w)[0][::17]:
        direct = nonlocal_term(kern, grid, g, h, dens, float(grid.x[idx]))
        assert direct == pytest.approx(conv[idx], abs=1e-12)


def test_record_cadence_and_stability_limit():
    from epifront import stability_limit

    p = make_params(alpha=2.0, mu=0.3)
    assert stability_limit(p) == pytest.approx(0.9 / (1 + 1 + 1 + 1 + 1 + 2))
    cfg = SimConfig(dx=0.05, dt=0.1, t_end=2.0, domain_cap=4.0, record_every=4)
    traj = run(p, cfg, bump_profile(1.0), bump_profile(1.0))
    assert traj.t.size == 1 + 20 // 4  # initial row plus every 4th step
    assert traj.t[-1] == pytest.approx(2.0)


def test_interior_nodes_follow_homogeneous_dynamics():
    # On a wide frozen interval with flat data, the interior convolution has
    # unit mass, so interior nodes must reproduce the space-free system
    # step for step (same scheme, same dt).
    from epifront import integrate_ode

    p = make_params(alpha=2.0)
    dt = 0.05
    t_end = 2.0
    x, u, v = fixed_boundary_run(
        p, -30.0, 30.0,
        lambda s: 0.3 * np.ones_like(s), lambda s: 0.2 * np.ones_like(s),
        t_end=t_end, dx=0.1, dt=dt,
    )
    mid = np.argmin(np.abs(x))
    ode_final = integrate_ode(p, 0.3, 0.2, t_end, dt)[-1]
    assert u[mid] == pytest.approx(ode_final.u, abs=1e-12)
    assert v[mid] == pytest.approx(ode_final.v, abs=1e-12)


def test_fixed_boundary_accepts_arrays():
    p = make_params(alpha=2.0)
    x0 = np.linspace(-2.0, 2.0, 41)
    u0 = np.full(41, 0.2)
    x, u, v = fixed_boundary_run(p, -2.0, 2.0, u0, u0, t_end=1.0, dx=0.1)
    assert x.size == u.size == v.size == 41
    assert np.all(u >= 0.0)


def test_a_step_count_that_overflows_is_rejected():
    p = make_params(alpha=2.0)
    cfg = SimConfig(dx=0.05, dt=1e-300, t_end=1e300, domain_cap=4.0)
    assert validate_sim_config(p, cfg) == ["t_end / dt must be finite"]
    with pytest.raises(ValueError, match=r"^t_end / dt must be finite$"):
        run(p, cfg, bump_profile(1.0), bump_profile(1.0))
    with pytest.raises(ValueError, match=r"^t_end / dt must be finite$"):
        fixed_boundary_run(p, -2.0, 2.0, bump_profile(2.0), bump_profile(2.0), t_end=1e300, dx=0.1, dt=1e-300)


@pytest.mark.parametrize("dx, cap, count", [(1e-300, 6.0, "1.2e+301"), (0.05, 1e300, "4e+301"), (1e-308, 6.0, "inf")])
def test_a_grid_numpy_refuses_is_a_memory_error(dx, cap, count):
    # numpy refuses these sizes before allocating anything; cap/dx = inf
    # fails before numpy is called.
    with pytest.raises(MemoryError, match=rf"^a grid of {re.escape(count)} nodes is too large to allocate$"):
        Grid(dx, cap)


@pytest.mark.parametrize("dx, count", [(1e-300, "2e+300"), (1e-320, "inf")])
def test_a_frozen_interval_numpy_refuses_is_a_memory_error(dx, count):
    # (L2 - L1)/dx = 2e300 is a count numpy refuses; 2/1e-320 is inf, which
    # has no integer count.
    p = make_params(alpha=2.0)
    with pytest.raises(MemoryError, match=rf"^a grid of {re.escape(count)} nodes is too large to allocate$"):
        fixed_boundary_run(p, -1.0, 1.0, bump_profile(1.0), bump_profile(1.0), t_end=1.0, dx=dx)


@pytest.mark.parametrize("dx", [0.0, -0.1, math.nan])
def test_a_frozen_interval_needs_a_positive_spacing(dx):
    with pytest.raises(ValueError, match=r"^dx must be positive$"):
        fixed_boundary_run(make_params(alpha=2.0), -1.0, 1.0, bump_profile(1.0), bump_profile(1.0), t_end=1.0, dx=dx)


def test_check_initial_pair_reports_violations():
    from epifront.simulator import check_initial_pair

    good = bump_profile(1.0)
    assert check_initial_pair(good, good, 1.0) == []
    flat = lambda x: np.ones_like(np.asarray(x, float))  # does not vanish at the fronts
    issues = check_initial_pair(flat, good, 1.0)
    assert any("vanish" in s for s in issues)
    signed = lambda x: np.asarray(x, float)  # negative on half the interval
    issues = check_initial_pair(good, signed, 1.0)
    assert any("positive inside" in s for s in issues)


def test_run_vanishing_regime():
    # Subcritical reproduction: densities collapse, fronts stall; the total
    # advance stays below 0.5 and agrees across two grid resolutions.
    p = make_params(alpha=0.5, mu=0.5)
    bump = bump_profile(1.0)
    growth = []
    for dx, dt in ((0.05, 0.1), (0.025, 0.05)):
        cfg = SimConfig(dx=dx, dt=dt, t_end=100.0, domain_cap=6.0, record_every=10)
        traj = run(p, cfg, bump, bump)
        growth.append(traj.h[-1] - traj.g[-1] - 2.0 * p.h0)
        assert traj.sup_u[-1] + traj.sup_v[-1] < 1e-3
        assert classify(traj, float("inf"), cfg) == "vanishing"
    assert max(growth) < 0.5
    assert abs(growth[0] - growth[1]) < 0.01


def test_run_spreading_sufficient_regime():
    p = make_params(alpha=2.0, d1=0.4, d2=0.4, mu=1.0)
    cfg = SimConfig(dx=0.05, dt=0.12, t_end=25.0, domain_cap=8.0, record_every=10)
    traj = run(p, cfg, bump_profile(1.0), bump_profile(1.0))
    assert traj.h[-1] - traj.g[-1] > 2.0 * p.h0 + 2.0
    assert classify(traj, 0.0, cfg) == "spreading"
    assert np.all(np.diff(traj.t) > 0.0)
    assert np.all(np.diff(traj.h - traj.g) >= 0.0)


def test_run_monotone_fronts_and_box():
    p = make_params(alpha=2.0, d1=0.4, d2=0.4, mu=1.0)
    cfg = SimConfig(dx=0.05, dt=0.12, t_end=15.0, domain_cap=8.0, record_every=5)
    traj = run(p, cfg, bump_profile(1.0), bump_profile(1.0))
    assert np.all(np.diff(traj.h) >= 0.0)
    assert np.all(np.diff(traj.g) <= 0.0)
    cap_u, cap_v = a_priori_bounds(p, 1.0, 1.0)
    assert traj.sup_u.max() <= cap_u + 1e-6
    assert traj.sup_v.max() <= cap_v + 1e-6


def test_flux_equivalence_along_trajectory():
    p = make_params(alpha=2.0, mu=0.5, kernel=KernelSpec.gaussian(0.8))
    cfg = SimConfig(dx=0.05, dt=0.1, t_end=5.0, domain_cap=5.0, record_every=10)
    traj = run(p, cfg, bump_profile(1.0), bump_profile(1.0), record_snapshots=True)
    grid = traj.final_state.grid
    for t, x, u, v in traj.snapshots[::2]:
        g = float(traj.g[np.searchsorted(traj.t, t)])
        h = float(traj.h[np.searchsorted(traj.t, t)])
        state = SimState(t=t, g=g, h=h, u=u, v=v, grid=grid)
        hr, _ = boundary_rates(replace(p, rho=0.0), state)
        assert flux_equivalence_check(p, state) < 1e-6 * max(1.0, hr)


def test_comparison_in_front_response():
    # Doubling mu advances both fronts and raises both densities everywhere.
    p = make_params(alpha=2.0, h0=0.4, mu=0.2)
    bump = bump_profile(0.4)
    cfg = SimConfig(dx=0.04, dt=0.1, t_end=25.0, domain_cap=4.0, record_every=10)
    lo = run(p, cfg, bump, bump, record_snapshots=True)
    hi = run(replace(p, mu=0.4), cfg, bump, bump, record_snapshots=True)
    n = min(lo.t.size, hi.t.size)
    assert np.all(lo.h[:n] <= hi.h[:n] + 1e-8)
    assert np.all(lo.g[:n] >= hi.g[:n] - 1e-8)
    for (ta, _, ua, va), (tb, _, ub, vb) in zip(lo.snapshots, hi.snapshots):
        assert ta == tb
        assert np.all(ua <= ub + 1e-6)
        assert np.all(va <= vb + 1e-6)


def test_comparison_in_initial_scale():
    p = make_params(alpha=2.0, h0=0.4, mu=0.3)
    bump = bump_profile(0.4)
    cfg = SimConfig(dx=0.04, dt=0.1, t_end=20.0, domain_cap=4.0, record_every=10)
    lo = run(p, cfg, lambda x: 0.6 * bump(x), lambda x: 0.6 * bump(x), record_snapshots=True)
    hi = run(p, cfg, bump, bump, record_snapshots=True)
    n = min(lo.t.size, hi.t.size)
    assert np.all(lo.h[:n] <= hi.h[:n] + 1e-8)
    assert np.all(lo.g[:n] >= hi.g[:n] - 1e-8)
    for (ta, _, ua, va), (tb, _, ub, vb) in zip(lo.snapshots, hi.snapshots):
        assert np.all(ua <= ub + 1e-6) and np.all(va <= vb + 1e-6)


def test_front_refinement_deltas_shrink():
    p = make_params(alpha=2.0, mu=0.5)
    bump = bump_profile(1.0)
    ends = []
    for dx, dt in ((0.08, 0.1), (0.04, 0.05), (0.02, 0.025)):
        cfg = SimConfig(dx=dx, dt=dt, t_end=10.0, domain_cap=6.0, record_every=10**9)
        ends.append(run(p, cfg, bump, bump).h[-1])
    d1 = abs(ends[0] - ends[1])
    d2 = abs(ends[1] - ends[2])
    assert d2 < d1 / 1.5


def test_fixed_boundary_decay_when_eigenvalue_positive():
    p = make_params(alpha=2.0)
    lam = principal_eigenvalue(EigenProblem(p, -0.4, 0.4, 200)).lambda_p
    assert lam > 0.0
    x, u, v = fixed_boundary_run(
        p, -0.4, 0.4, lambda s: 0.5 * np.ones_like(s), lambda s: 0.5 * np.ones_like(s),
        t_end=120.0, dx=0.01,
    )
    assert max(u.max(), v.max()) < 1e-4


def test_fixed_boundary_steady_state_wide_interval():
    p = make_params(alpha=2.0)
    seed = lambda s: 0.1 * np.ones_like(s)
    x, u, v = fixed_boundary_run(p, -20.0, 20.0, seed, seed, t_end=80.0, dx=0.1)
    mid = np.argmin(np.abs(x))
    assert abs(u[mid] - 1.0) < 5e-2
    assert abs(v[mid] - 1.0) < 5e-2
    assert np.all(u <= 1.0 + 1e-9) and np.all(v <= 1.0 + 1e-9)
    du, dv = fixed_boundary_rhs(p, x, np.array((u, v)))
    assert max(np.abs(du).max(), np.abs(dv).max()) < 1e-5


def test_fixed_boundary_midpoint_error_shrinks_with_width():
    p = make_params(alpha=2.0)
    seed = lambda s: 0.1 * np.ones_like(s)
    errs = []
    for L in (3.0, 6.0):
        x, u, _ = fixed_boundary_run(p, -L, L, seed, seed, t_end=80.0, dx=0.1)
        errs.append(abs(u[np.argmin(np.abs(x))] - 1.0))
    assert errs[1] < errs[0] / 5.0


def test_classify_rules():
    p = make_params()
    cfg = SimConfig(dx=0.05, dt=0.1, t_end=1.0, domain_cap=4.0, tol_vanish=1e-3, tol_spread=0.5)
    base = dict(
        sup_u=np.array([1.0, 0.5]), sup_v=np.array([1.0, 0.5]),
        mass_u=np.zeros(2), mass_v=np.zeros(2),
        h_rate=np.array([1.0, 1.0]), g_rate=np.array([-1.0, -1.0]),
        status="completed", final_state=None,
    )
    from epifront.simulator import Trajectory
    wide = Trajectory(t=np.array([0.0, 1.0]), g=np.array([-1.0, -3.0]), h=np.array([1.0, 3.0]), **base)
    assert classify(wide, 1.0, cfg) == "spreading"
    quiet = dict(base)
    quiet.update(
        sup_u=np.array([1.0, 1e-8]), sup_v=np.array([1.0, 1e-8]),
        h_rate=np.array([1.0, 1e-9]), g_rate=np.array([-1.0, -1e-9]),
    )
    small = Trajectory(t=np.array([0.0, 1.0]), g=np.array([-1.0, -1.1]), h=np.array([1.0, 1.1]), **quiet)
    assert classify(small, 2.0, cfg) == "vanishing"
    stuck = Trajectory(t=np.array([0.0, 1.0]), g=np.array([-1.0, -1.1]), h=np.array([1.0, 1.1]), **base)
    assert classify(stuck, 2.0, cfg) == "undecided"


def test_escape_width_of_an_exhausted_run_reads_the_grid_cap():
    # Grid rounds domain_cap = 1 to 33 cells of 0.03, so the grid ends at
    # 0.99 and a front escapes past 0.96: the escape width is 0.96 + h0,
    # not domain_cap - dx + h0 = 1.27.
    h0, dx = 0.3, 0.03
    grid = Grid(dx, 1.0)
    assert grid.cap == pytest.approx(0.99)
    cfg = SimConfig(dx=dx, dt=0.1, t_end=1.0, domain_cap=1.0, tol_spread=0.5)
    last = SimState(t=1.0, g=-h0, h=0.9, u=np.zeros(grid.n), v=np.zeros(grid.n), grid=grid)
    exhausted = Trajectory(
        t=np.array([0.0, 1.0]), g=np.array([-h0, -h0]), h=np.array([h0, 0.9]),
        sup_u=np.ones(2), sup_v=np.ones(2), mass_u=np.zeros(2), mass_v=np.zeros(2),
        h_rate=np.ones(2), g_rate=np.zeros(2), status="domain_exhausted", final_state=last,
    )
    # 2 L* + tol_spread = 1.255 lies below the escape width 1.26, 1.265 above it.
    assert classify(exhausted, 0.3775, cfg) == "spreading"
    assert classify(exhausted, 0.3825, cfg) == "undecided"


_TRAJECTORY_ARRAYS = ("t", "g", "h", "sup_u", "sup_v", "mass_u", "mass_v", "h_rate", "g_rate")


def assert_same_run(a, b):
    """Bitwise equality of two trajectories and their final states."""
    for name in _TRAJECTORY_ARRAYS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert (a.status, a.steps) == (b.status, b.steps)
    fa, fb = a.final_state, b.final_state
    assert (fa.t, fa.g, fa.h) == (fb.t, fb.g, fb.h)
    assert fa.u.tobytes() == fb.u.tobytes() and fa.v.tobytes() == fb.v.tobytes()
    assert len(a.snapshots) == len(b.snapshots)
    for (ta, _, ua, va), (tb, _, ub, vb) in zip(a.snapshots, b.snapshots):
        assert ta == tb and ua.tobytes() == ub.tobytes() and va.tobytes() == vb.tobytes()


@pytest.mark.parametrize("snapshots", [False, True])
def test_resume_matches_fresh_run_bitwise(snapshots):
    # 100 steps is a multiple of record_every, so the prefix's last row is a
    # cadence row of the longer run and the continuation is exact.
    p = make_params(alpha=2.0, h0=0.4)
    bump = bump_profile(0.4)
    cfg = SimConfig(dx=0.04, dt=0.12, t_end=12.0, domain_cap=4.0, record_every=10)
    prefix = run(p, cfg, bump, bump, stop_width=50.0, record_snapshots=snapshots)
    assert prefix.status == "completed" and prefix.steps == 100
    longer = replace(cfg, t_end=24.0)
    resumed = run(p, longer, bump, bump, stop_width=50.0, record_snapshots=snapshots, resume=prefix)
    fresh = run(p, longer, bump, bump, stop_width=50.0, record_snapshots=snapshots)
    assert fresh.steps == 200
    assert_same_run(resumed, fresh)
    # Resuming at the prefix's own horizon returns the prefix unchanged.
    assert_same_run(run(p, cfg, bump, bump, stop_width=50.0, record_snapshots=snapshots, resume=prefix), prefix)


@pytest.mark.parametrize("snapshots", [False, True])
def test_an_off_cadence_prefix_resumes_from_its_final_state(monkeypatch, snapshots):
    # 95 steps is off the record_every = 10 cadence: the prefix's last row is
    # its horizon row, which the 190-step run does not record.
    import epifront.simulator as sim

    p = make_params(alpha=2.0, h0=0.4)
    bump = bump_profile(0.4)
    cfg = SimConfig(dx=0.04, dt=0.12, t_end=95 * 0.12, domain_cap=4.0, record_every=10)
    prefix = run(p, cfg, bump, bump, stop_width=50.0, record_snapshots=snapshots)
    assert prefix.status == "completed" and (prefix.steps, prefix.t.size) == (95, 11)
    longer = replace(cfg, t_end=2.0 * cfg.t_end)
    fresh = run(p, longer, bump, bump, stop_width=50.0, record_snapshots=snapshots)
    assert (fresh.steps, fresh.t.size) == (190, 20)  # rows every 10 steps only
    calls = []
    real_step = sim.step

    def counted(*args, **kwargs):
        calls.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(sim, "step", counted)
    resumed = run(p, longer, bump, bump, stop_width=50.0, record_snapshots=snapshots, resume=prefix)
    assert len(calls) == 95
    assert_same_run(resumed, fresh)
    # Resuming at the prefix's own horizon re-records its horizon row.
    again = run(p, cfg, bump, bump, stop_width=50.0, record_snapshots=snapshots, resume=prefix)
    assert len(calls) == 95
    assert_same_run(again, prefix)


def _fallback_cases():
    bump = bump_profile(0.4)
    spread = make_params(alpha=2.0, h0=0.4)
    base = SimConfig(dx=0.04, dt=0.12, t_end=12.0, domain_cap=4.0, record_every=10)
    yield "off_cadence", spread, replace(base, t_end=95 * 0.12), bump, None, "completed"
    # record_every=1 puts the stop on the record cadence, so only the status
    # tells this prefix apart from a continuable one.
    yield "stopped_width", spread, replace(base, record_every=1), bump, 0.85, "stopped_width"
    tiny = bump_profile(0.4, amplitude=1e-6)
    yield "stopped_decayed", make_params(alpha=0.5, h0=0.4), base, tiny, None, "stopped_decayed"
    fast = make_params(alpha=2.0, mu=50.0, h0=0.4)
    yield "domain_exhausted", fast, replace(base, domain_cap=2.0), bump, None, "domain_exhausted"


@pytest.mark.parametrize("case", list(_fallback_cases()), ids=lambda c: c[0])
def test_resume_falls_back_to_fresh_run(case):
    _, p, cfg, prof, stop, status = case
    prefix = run(p, cfg, prof, prof, stop_width=stop)
    assert prefix.status == status
    longer = replace(cfg, t_end=2.0 * cfg.t_end)
    resumed = run(p, longer, prof, prof, stop_width=stop, resume=prefix)
    assert_same_run(resumed, run(p, longer, prof, prof, stop_width=stop))


_WEIGHTS = {
    "tail_of_J1": WeightSpec.kernel_tail_of(KernelSpec.uniform(1.0)),
    "tail_of_other": WeightSpec.kernel_tail_of(KernelSpec.gaussian(0.7)),
    "constant_on": WeightSpec.constant_on(0.8, 0.6),
    "table": WeightSpec.table([(0.0, 1.0), (0.5, 0.4), (1.5, 0.1)]),
}


@pytest.mark.parametrize("weight", list(_WEIGHTS), ids=str)
def test_occupied_fluxes_match_full_grid(weight):
    p = make_params(kernel=KernelSpec.uniform(1.0), weight=_WEIGHTS[weight])
    grid = Grid(0.05, 4.0)
    x = grid.x
    rng = np.random.default_rng(5)
    fronts = {
        "fractional": (-0.913, 1.237),
        "node_aligned": (x[30], x[140]),
        "one_node": (x[100] - 0.01, x[100] + 0.02),
        "empty": (0.011, 0.039),
    }
    for name, (g, h) in fronts.items():
        w, lo, hi = full_weights(grid, g, h)
        assert np.array_equal(np.nonzero(w)[0], np.arange(lo, hi)), name
        inside = w > 0.0
        u = np.where(inside, rng.uniform(0.1, 2.0, grid.n), 0.0)
        v = np.where(inside, rng.uniform(0.1, 2.0, grid.n), 0.0)
        flux_h, flux_g = _front_fluxes(p, grid, w, u, v, g, h)
        ref = (p.mu * flux_h, -p.mu * flux_g)
        got = _front_rates(p, x[lo:hi], w[lo:hi] * np.array((u[lo:hi], v[lo:hi])), g, h, _folds(p))
        if name == "empty":
            assert lo == hi and ref == got == (0.0, 0.0)
        else:
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0), name


def _front_fluxes(p, grid, w, u, v, g, h):
    """The front law summed over the whole grid, as it was before the stage
    moved to the occupied window; zero-weight nodes add exact zeros."""
    tail_h = kernel_tail(p.kernel1, np.clip(h - grid.x, 0.0, None))
    tail_g = kernel_tail(p.kernel1, np.clip(grid.x - g, 0.0, None))
    wh = weight_eval(p.weight, np.clip(h - grid.x, 0.0, None))
    wg = weight_eval(p.weight, np.clip(grid.x - g, 0.0, None))
    flux_h = float(np.sum(w * (u * tail_h + p.rho * v * wh)))
    flux_g = float(np.sum(w * (u * tail_g + p.rho * v * wg)))
    return flux_h, flux_g


def _full_grid_rates(p, grid, st1, st2, u, v, g, h):
    """The stage as it was before it moved to the occupied window: every grid
    node is convolved and combined, then masked to the interior."""
    w, _, _ = full_weights(grid, g, h)
    inside = w > 0.0
    conv_u = _conv(w * u, st1)
    conv_v = _conv(w * v, st2)
    du = np.where(inside, p.d1 * conv_u - (p.d1 + p.a) * u + p.e * v, 0.0)
    dv = np.where(
        inside,
        p.d2 * conv_v - (p.d2 + p.b) * v + infection_value(p.infection, np.maximum(u, 0.0)),
        0.0,
    )
    flux_h, flux_g = _front_fluxes(p, grid, w, u, v, g, h)
    return du, dv, -p.mu * flux_g, p.mu * flux_h


_KERNELS = {
    "uniform": KernelSpec.uniform(1.0),
    "gaussian": KernelSpec.gaussian(0.6),
    "laplace": KernelSpec.laplace(0.5),
    "power_tail": KernelSpec.power_tail(2.5, 0.5),
}


@pytest.mark.parametrize("weight", list(_WEIGHTS), ids=str)
@pytest.mark.parametrize("kernel", list(_KERNELS), ids=str)
def test_window_stage_matches_full_grid(kernel, weight):
    k1 = _KERNELS[kernel]
    w_spec = WeightSpec.kernel_tail_of(k1) if weight == "tail_of_J1" else _WEIGHTS[weight]
    p = make_params(kernel=k1, kernel2=KernelSpec.laplace(0.35), weight=w_spec)
    grid = Grid(0.05, 4.0)
    x = grid.x
    st1 = _stencil(p.kernel1, grid.dx, grid.n - 1)
    st2 = _stencil(p.kernel2, grid.dx, grid.n - 1)
    rng = np.random.default_rng(11)
    fronts = {
        "fractional": (-0.913, 1.237),
        "node_aligned": (x[30], x[140]),
        "one_node": (x[100] - 0.01, x[100] + 0.02),
        "empty": (0.011, 0.039),
    }
    for name, (g, h) in fronts.items():
        _, lo, hi = quad_weights(grid, g, h)
        inside = (x > g) & (x < h)
        u = np.where(inside, rng.uniform(0.1, 2.0, grid.n), 0.0)
        v = np.where(inside, rng.uniform(0.1, 2.0, grid.n), 0.0)
        ref = _full_grid_rates(p, grid, st1, st2, u, v, g, h)
        dy, g_rate, h_rate = _Stage(p, grid, st1, st2, _folds(p)).rates(np.array((u, v)), g, h)
        got = (dy[0], dy[1], g_rate, h_rate)
        for ref_d, got_d in zip(ref[:2], got[:2]):
            assert got_d.shape == ref_d.shape
            assert not got_d[:lo].any() and not got_d[hi:].any(), name
            assert np.abs(got_d - ref_d).max() <= 1e-12 * np.abs(ref_d).max(), name
        assert got[2:] == pytest.approx(ref[2:], rel=1e-12, abs=0.0), name
        if name == "empty":
            assert got[2:] == (0.0, 0.0), name
        else:
            assert got[2] < 0.0 < got[3], name


@pytest.mark.parametrize("weight", ["tail_of_J1", "constant_on", "table"], ids=str)
@pytest.mark.parametrize("kernel", list(_KERNELS), ids=str)
def test_recorded_rates_are_the_stage_rates(kernel, weight):
    # The rates a run records at a state are the front rates the next step's
    # first stage uses there, bit for bit: both come from one front-law code.
    k1 = _KERNELS[kernel]
    w_spec = WeightSpec.kernel_tail_of(k1) if weight == "tail_of_J1" else _WEIGHTS[weight]
    p = make_params(mu=2.0, kernel=k1, kernel2=KernelSpec.laplace(0.35), weight=w_spec)
    cfg = SimConfig(dx=0.05, dt=0.1, t_end=3.0, domain_cap=5.0)
    grid = Grid(cfg.dx, cfg.domain_cap)
    bump = bump_profile(1.0)
    state = SimState(
        t=0.0, g=-1.0, h=1.0,
        u=sample_profile(bump, grid, 1.0),
        v=sample_profile(lambda x: bump(x) * (1.0 + 0.5 * x), grid, 1.0),
        grid=grid,
    )
    for k in range(30):
        state = step(p, cfg, state)
        # the stage the step bound on the grid is the next step's
        _, g_rate, h_rate = grid.stage.rates(np.array((state.u, state.v)), state.g, state.h)
        assert boundary_rates(p, state) == (h_rate, g_rate), f"step {k + 1}"
    assert state.h > 1.0 + cfg.dx and state.g < -1.0 - cfg.dx


@pytest.mark.parametrize("weight", list(_WEIGHTS), ids=str)
def test_boundary_rates_match_full_grid_front_law(weight):
    p = make_params(kernel=KernelSpec.uniform(1.0), weight=_WEIGHTS[weight])
    grid = Grid(0.05, 4.0)
    x = grid.x
    rng = np.random.default_rng(7)
    fronts = {
        "fractional": (-0.913, 1.237),
        "node_aligned": (x[30], x[140]),
        "one_node": (x[100] - 0.01, x[100] + 0.02),
        "empty": (0.011, 0.039),
    }
    for name, (g, h) in fronts.items():
        w, _, _ = full_weights(grid, g, h)
        u = np.where(w > 0.0, rng.uniform(0.1, 2.0, grid.n), 0.0)
        v = np.where(w > 0.0, rng.uniform(0.1, 2.0, grid.n), 0.0)
        flux_h, flux_g = _front_fluxes(p, grid, w, u, v, g, h)
        got = boundary_rates(p, SimState(t=0.0, g=g, h=h, u=u, v=v, grid=grid))
        if name == "empty":
            assert got == (0.0, 0.0)
        else:
            assert got == pytest.approx((p.mu * flux_h, -p.mu * flux_g), rel=1e-12, abs=0.0), name


def test_a_recorded_row_computes_its_quadrature_weights_once(monkeypatch):
    # The masses and the front rates of a row share one quad_weights call;
    # the steps' own calls are not counted.
    import epifront.simulator as sim

    p = make_params(alpha=2.0, h0=0.4)
    cfg = SimConfig(dx=0.04, dt=0.12, t_end=6.0, domain_cap=4.0, record_every=10)
    real_weights, real_step = sim.quad_weights, sim.step
    counted, stepping = [], []

    def weights(*args, **kwargs):
        if not stepping:
            counted.append(args[1:3])
        return real_weights(*args, **kwargs)

    def stepped(*args, **kwargs):
        stepping.append(True)
        try:
            return real_step(*args, **kwargs)
        finally:
            stepping.pop()

    monkeypatch.setattr(sim, "quad_weights", weights)
    monkeypatch.setattr(sim, "step", stepped)
    bump = bump_profile(0.4)
    traj = run(p, cfg, bump, bump)
    assert len(counted) == traj.t.size == 6
    assert counted == list(zip(traj.g.tolist(), traj.h.tolist()))


def test_frozen_interval_rates_integrate_with_the_endpoint_trapezoid_rule():
    # The frozen-interval rates are the density rates under trapezoid weights
    # of spacing x[1] - x[0], dx/2 at both endpoints, bit for bit.
    p = make_params(alpha=2.0, kernel=KernelSpec.gaussian(0.3))
    x = np.linspace(-1.1, 0.9, 81)
    u, v = 1.0 - (x / 1.2) ** 2, 0.5 + 0.1 * x
    dx = x[1] - x[0]
    w = np.full(x.size, dx)
    w[0] = w[-1] = 0.5 * dx
    st1 = _stencil(p.kernel1, dx, x.size - 1)
    st2 = _stencil(p.kernel2, dx, x.size - 1)
    y = np.array((u, v))
    want = _density_rates(p, w * y, y, st1, st2, np.empty_like(y))
    got = fixed_boundary_rhs(p, x, y)
    assert [r.tobytes() for r in got] == [r.tobytes() for r in want]


def window_lambda(p, grid: Grid, g: float, h: float) -> float:
    """lambda_p of the frozen linearization on the occupied window, by a full
    eigvalsh of the window operator with exactly evaluated kernel entries."""
    w, lo, hi = quad_weights(grid, g, h)
    x = grid.x[lo:hi]
    exact = lambda kernel: kernel_eval(kernel, x[:, None] - x[None, :])
    mat = coupled_operator(w, exact, p)
    return -float(np.linalg.eigvalsh(mat)[-1])


CERTIFY_CFG = SimConfig(dx=0.04, dt=0.12, t_end=30.0, domain_cap=4.0, record_every=10)


@pytest.mark.parametrize(
    "kernel", [KernelSpec.uniform(1.0), KernelSpec.gaussian(0.5), KernelSpec.laplace(0.5)], ids=lambda k: k.family
)
def test_the_window_eigenvalue_only_falls_along_a_run(kernel):
    # The discrete soundness of the spreading certificate: as the fronts
    # advance, the window operator grows entrywise (end-cell weights grow,
    # entering nodes border it), so its top eigenvalue only rises and
    # lambda_p never turns positive again once it is negative.
    p = make_params(alpha=2.0, h0=0.4, mu=1.0, kernel=kernel)
    bump = bump_profile(0.4)
    traj = run(p, CERTIFY_CFG, bump, bump, record_snapshots=True)
    grid = traj.final_state.grid
    lams, signs = [], []
    for (t, _, u, v), g, h in zip(traj.snapshots, traj.g, traj.h):
        lams.append(window_lambda(p, grid, g, h))
        signs.append(window_lambda_positive(p, SimState(t, g, h, u, v, grid)))
        if abs(lams[-1]) > 1e-9:
            assert signs[-1] == (lams[-1] > 0.0)
    assert lams[0] > 0.0 > lams[-1]
    assert np.all(np.diff(lams) <= 1e-12)
    assert signs == sorted(signs, reverse=True)  # True, ..., True, False, ..., False


def test_a_certified_run_stops_at_its_first_nonpositive_window():
    p = make_params(alpha=2.0, h0=0.4, mu=1.0)
    bump = bump_profile(0.4)
    full = run(p, CERTIFY_CFG, bump, bump, record_snapshots=True)
    certified = run(p, CERTIFY_CFG, bump, bump, record_snapshots=True, certify=lambda H, norm: 0.0)
    assert full.status == "completed" and certified.status == "stopped_certified"
    rows = certified.t.size
    assert certified.t.tobytes() == full.t[:rows].tobytes() and certified.h.tobytes() == full.h[:rows].tobytes()
    grid = full.final_state.grid
    positive = [
        window_lambda_positive(p, SimState(t, g, h, u, v, grid))
        for (t, _, u, v), g, h in zip(full.snapshots, full.g, full.h)
    ]
    assert positive.index(False) == rows - 1  # the initial row is not checked; it is positive
    width = certified.h[-1] - certified.g[-1]
    assert width < 2.0 * 0.6 + CERTIFY_CFG.tol_spread  # the width rule would not call it yet
    assert classify(certified, 0.6, CERTIFY_CFG) == "spreading"


def test_run_rejects_a_weight_violating_W_before_stepping():
    # Negative where the front law reads it, inside [0, 2*domain_cap].
    weight = WeightSpec.table([(0.0, 1.0), (0.1, -5.0), (3.0, -5.0)])
    p = make_params(alpha=0.5, rho=5.0, weight=weight)
    cfg = SimConfig(dx=0.05, dt=0.1, t_end=1.0, domain_cap=6.0)
    with pytest.raises(ValueError, match=r"weight violates \(W\) on \[0, 2\*domain_cap\]: negative weight"):
        run(p, cfg, bump_profile(1.0), bump_profile(1.0))
    assert validate_sim_config(p, cfg, check_weight=False) == []


@pytest.mark.parametrize("spike", [-1e6, np.nan])
@pytest.mark.parametrize("negative", ["u0", "v0"])
def test_run_rejects_initial_data_negative_or_nan_at_a_node_the_samples_miss(monkeypatch, negative, spike):
    # check_initial_pair samples 513 points, which miss the node x = 0.05; the
    # node check keeps the front fluxes nonnegative from the first record on.
    # (A NaN there used to leave NaN fronts, zero densities and a run that
    # ended stopped_decayed.)
    import epifront.simulator as sim

    p = make_params(alpha=2.0, rho=1.0)
    cfg = SimConfig(dx=0.05, dt=0.1, t_end=1.0, domain_cap=4.0)
    node = Grid(cfg.dx, cfg.domain_cap).x[81]
    bump = bump_profile(1.0)
    spiked = lambda x: np.where(np.asarray(x) == node, spike, bump(x))
    profiles = {"u0": bump, "v0": bump, negative: spiked}
    assert node == 0.05 and check_initial_pair(profiles["u0"], profiles["v0"], p.h0) == []
    steps = []
    monkeypatch.setattr(sim, "step", lambda *args, **kwargs: steps.append(args))
    with pytest.raises(ValueError, match="initial data must be nonnegative"):
        run(p, cfg, profiles["u0"], profiles["v0"])
    assert steps == []


def test_the_window_operator_takes_the_eigen_solvers_kernel_entries(monkeypatch):
    # The window operator and assemble_operator share one kernel-matrix
    # builder. A gaussian of std 0.1 is below 1e-10 tail mass past 0.64, yet
    # its entries across this 2.1-wide window stay positive.
    import epifront.simulator as sim

    p = make_params(alpha=2.0, h0=0.4, kernel=KernelSpec.gaussian(0.1), kernel2=KernelSpec.laplace(0.2))
    grid = Grid(0.04, 4.0)
    state = flat_state(grid, -0.913, 1.237, 1.0, 0.5)
    blocks = []

    def capture(w, kernel_matrix, model):
        blocks.extend(kernel_matrix(kernel) for kernel in (model.kernel1, model.kernel2))
        return coupled_operator(w, kernel_matrix, model)

    monkeypatch.setattr(sim, "coupled_operator", capture)
    window_lambda_positive(p, state)
    _, lo, hi = quad_weights(grid, state.g, state.h)
    x = grid.x[lo:hi]
    want = [_kernel_matrix(kernel, x) for kernel in (p.kernel1, p.kernel2)]
    assert [blk.tobytes() for blk in blocks] == [blk.tobytes() for blk in want]
    assert x[-1] - x[0] > 2.0 and (want[0] > 0.0).all()


def test_run_builds_its_stage_once_per_call(monkeypatch):
    # One stage per run, fresh or resumed: the steps, the rows and the window
    # certificates all use the one the run hangs on its grid.
    import epifront.simulator as sim

    built = []

    class Counted(sim._Stage):
        def __init__(self, p, *args, **kwargs):
            built.append(p)
            super().__init__(p, *args, **kwargs)

    monkeypatch.setattr(sim, "_Stage", Counted)
    p = make_params(alpha=2.0, h0=0.4)
    bump = bump_profile(0.4)
    cfg = SimConfig(dx=0.04, dt=0.12, t_end=1.2, domain_cap=4.0, record_every=5)
    no_level = lambda H, norm: 0.0
    prefix = run(p, cfg, bump, bump, certify=no_level)
    assert (prefix.status, prefix.steps, prefix.t.size) == ("completed", 10, 3)
    assert built == [p]
    resumed = run(p, replace(cfg, t_end=2.4), bump, bump, certify=no_level, resume=prefix)
    assert (resumed.status, resumed.steps, resumed.t.size) == ("completed", 20, 5)
    assert built == [p, p]


def test_a_library_step_equals_the_runs_own_step():
    # step outside a run builds the stage it finds missing, and rebuilds it for
    # another model on the same grid; either way the state is the run's, bit
    # for bit.
    p = make_params(mu=2.0, kernel=KernelSpec.gaussian(0.6), kernel2=KernelSpec.laplace(0.35))
    other = replace(p, mu=0.5)
    cfg = SimConfig(dx=0.05, dt=0.1, t_end=3.0, domain_cap=5.0, record_every=5)
    bump = bump_profile(1.0)
    traj = run(p, cfg, bump, bump)
    grid = traj.final_state.grid
    fresh = lambda: SimState(0.0, -1.0, 1.0, sample_profile(bump, grid, 1.0), sample_profile(bump, grid, 1.0), grid)
    state = fresh()
    for k in range(traj.steps):
        state = step(p, cfg, state)
        if k == 10:
            step(other, cfg, fresh())
            assert grid.stage.p is other
    assert grid.stage.p is p
    final = traj.final_state
    assert (state.t, state.g, state.h) == (final.t, final.g, final.h)
    assert state.u.tobytes() == final.u.tobytes() and state.v.tobytes() == final.v.tobytes()


@pytest.mark.parametrize(
    "kernels, mu",
    [((KernelSpec.uniform(1.0), KernelSpec.uniform(1.0)), 0.2), ((KernelSpec.gaussian(0.5), KernelSpec.laplace(0.4)), 0.1)],
    ids=["equal", "distinct"],
)
def test_a_certifying_run_passes_the_eigen_solvers_kernel_blocks(monkeypatch, kernels, mu):
    # Every window certificate of a run gets the blocks _kernel_matrix builds on
    # its window, byte for byte; a window met again reuses them, and equal
    # kernels share one. The slow, lopsided fronts meet a window again and
    # also move one end of it alone, so the blocks must be kept by the whole
    # node range.
    import epifront.simulator as sim

    p = make_params(alpha=2.0, h0=0.4, mu=mu, kernel=kernels[0], kernel2=kernels[1])
    calls = []

    def capture(w, kernel_matrix, model):
        calls.append([kernel_matrix(kernel) for kernel in (model.kernel1, model.kernel2)])
        return coupled_operator(w, kernel_matrix, model)

    monkeypatch.setattr(sim, "coupled_operator", capture)
    bump = bump_profile(0.4)
    traj = run(p, CERTIFY_CFG, bump, lambda x: bump(x) * (1.0 + 2.0 * np.asarray(x)), certify=lambda H, norm: 0.0)
    assert traj.status in ("completed", "stopped_certified")
    assert len(calls) == traj.t.size - 1  # every row but the initial one
    grid = traj.final_state.grid
    spans = [quad_weights(grid, g, h)[1:] for g, h in zip(traj.g[1:], traj.h[1:])]
    for (lo, hi), blocks in zip(spans, calls):
        want = [_kernel_matrix(kernel, grid.x[lo:hi]) for kernel in kernels]
        assert [blk.tobytes() for blk in blocks] == [blk.tobytes() for blk in want]
        assert (blocks[0] is blocks[1]) == (kernels[0] == kernels[1])
    repeats = [i for i in range(1, len(spans)) if spans[i] == spans[i - 1]]
    assert repeats and all(calls[i][0] is calls[i - 1][0] for i in repeats)
    moved_lo_only = [i for i in range(1, len(spans)) if spans[i][0] != spans[i - 1][0] and spans[i][1] == spans[i - 1][1]]
    assert moved_lo_only


def test_the_block_cache_does_not_outlive_its_run():
    # The run takes its stage, and with it the certificate's kernel blocks,
    # off the grid when it returns, however it stopped.
    p = make_params(alpha=2.0, h0=0.4, mu=1.0)
    bump = bump_profile(0.4)
    certified = run(p, CERTIFY_CFG, bump, bump, certify=lambda H, norm: 0.0)
    assert certified.status == "stopped_certified" and certified.final_state.grid.stage is None
    completed = run(replace(p, mu=0.1), CERTIFY_CFG, bump, bump, certify=lambda H, norm: 0.0)
    assert completed.status == "completed" and completed.final_state.grid.stage is None
    # A certificate outside a run builds its blocks afresh and keeps none.
    assert not window_lambda_positive(p, certified.final_state)
    assert certified.final_state.grid.stage is None
