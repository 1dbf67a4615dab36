"""Moving-front integration: quadrature, front law, comparisons, steady states."""

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
    _conv,
    _front_fluxes,
    _occupied_fluxes,
    _rates,
    _stencil,
    fixed_boundary_rhs,
    quad_weights,
    sample_profile,
    validate_sim_config,
)
from epifront.model import infection_value
from epifront.spectral import EigenProblem, principal_eigenvalue
from helpers import bump_profile, make_params


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
        w = quad_weights(grid, g, h)
        k = int(np.searchsorted(x, g, side="right"))
        m = int(np.searchsorted(x, h, side="left")) - 1
        gap = (x[k] - g) + (h - x[m])
        assert w.sum() == pytest.approx((h - g) - 0.5 * gap, abs=1e-12)
        assert np.all(w >= 0.0)
    w = quad_weights(grid, -1.0, 1.0)
    tent = np.clip(1.0 - np.abs(x), 0.0, None)
    assert float(w @ tent) == pytest.approx(1.0, abs=1e-13)


def test_quad_weights_empty_slit():
    grid = Grid(0.05, 4.0)
    w = quad_weights(grid, 0.011, 0.039)  # no node strictly inside
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
    nxt = step(p, cfg, state, freeze_boundaries=True)
    core = np.abs(grid.x) <= 25.0 - 4.0 * 1.0 - cfg.dx
    assert np.abs(nxt.u[core] - 1.0).max() < 1e-8
    assert np.abs(nxt.v[core] - 1.0).max() < 1e-8
    assert nxt.g == state.g and nxt.h == state.h


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


def test_config_guards():
    p = make_params()
    ok = SimConfig(dx=0.05, dt=0.1, t_end=1.0, domain_cap=4.0)
    assert validate_sim_config(p, ok) == []
    bad = SimConfig(dx=0.5, dt=5.0, t_end=1.0, domain_cap=0.5)
    issues = validate_sim_config(p, bad)
    assert any("stability" in s for s in issues)
    assert any("h0/10" in s for s in issues)
    assert any("domain_cap" in s for s in issues)


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
    w = quad_weights(grid, g, h)
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
    lam = principal_eigenvalue(EigenProblem.from_params(p, -0.4, 0.4, n=200)).lambda_p
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
    du, dv = fixed_boundary_rhs(p, x, u, v)
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
        w, lo, hi = quad_weights(grid, g, h, with_span=True)
        assert w.tobytes() == quad_weights(grid, g, h).tobytes()
        assert np.array_equal(np.nonzero(w)[0], np.arange(lo, hi)), name
        inside = w > 0.0
        u = np.where(inside, rng.uniform(0.1, 2.0, grid.n), 0.0)
        v = np.where(inside, rng.uniform(0.1, 2.0, grid.n), 0.0)
        ref = _front_fluxes(p, grid, w, u, v, g, h)
        got = _occupied_fluxes(p, grid, w, lo, hi, u, v, g, h)
        if name == "empty":
            assert lo == hi and ref == got == (0.0, 0.0)
        else:
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0), name


def _full_grid_rates(p, grid, st1, st2, u, v, g, h, frozen):
    """The stage as it was before it moved to the occupied window: every grid
    node is convolved and combined, then masked to the interior."""
    w = quad_weights(grid, g, h)
    inside = w > 0.0
    conv_u = _conv(w * u, st1)
    conv_v = _conv(w * v, st2)
    du = np.where(inside, p.d1 * conv_u - (p.d1 + p.a) * u + p.e * v, 0.0)
    dv = np.where(
        inside,
        p.d2 * conv_v - (p.d2 + p.b) * v + infection_value(p.infection, np.maximum(u, 0.0)),
        0.0,
    )
    if frozen:
        return du, dv, 0.0, 0.0
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
        _, lo, hi = quad_weights(grid, g, h, with_span=True)
        inside = (x > g) & (x < h)
        u = np.where(inside, rng.uniform(0.1, 2.0, grid.n), 0.0)
        v = np.where(inside, rng.uniform(0.1, 2.0, grid.n), 0.0)
        for frozen in (False, True):
            ref = _full_grid_rates(p, grid, st1, st2, u, v, g, h, frozen)
            got = _rates(p, grid, st1, st2, u, v, g, h, frozen)
            case = f"{name}, frozen={frozen}"
            for ref_d, got_d in zip(ref[:2], got[:2]):
                assert got_d.shape == ref_d.shape
                assert not got_d[:lo].any() and not got_d[hi:].any(), case
                assert np.abs(got_d - ref_d).max() <= 1e-12 * np.abs(ref_d).max(), case
            assert got[2:] == pytest.approx(ref[2:], rel=1e-12, abs=0.0), case
            if name == "empty" or frozen:
                assert got[2:] == (0.0, 0.0), case
            else:
                assert got[2] < 0.0 < got[3], case
