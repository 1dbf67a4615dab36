"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time
from dataclasses import replace

import numpy as np

from epifront import (
    KernelSpec,
    SimConfig,
    a_priori_bounds,
    boundary_rates,
    classify,
    d_star_lower_bound,
    find_L_star,
    find_d_star,
    find_mu_star,
    fixed_boundary_run,
    flux_equivalence_check,
    integrate_ode,
    lyapunov_series,
    principal_eigenvalue,
    run,
    vanishing_mu_bound,
)
from epifront.simulator import Grid, SimState, quad_weights
from epifront.spectral import EigenProblem, upper_bound_d2
from epifront.spectral import lower_bound as spectral_lower_bound
from helpers import bump_profile, make_params, random_intermediate_params


def report(number: int, label: str, checks: dict) -> None:
    ok = all(checks.values())
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {label}")
    failed = [name for name, good in checks.items() if not good]
    assert ok, f"criterion {number} failed: {failed}"


def test_criterion_01_ode_dichotomy():
    checks = {}
    t0 = time.perf_counter()
    final = integrate_ode(make_params(alpha=0.5), 1.0, 1.0, 100.0, 0.01)[-1]
    checks["subcritical extinct by t=100"] = max(final.u, final.v) < 1e-4
    checks["subcritical runtime < 1 s"] = time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    final = integrate_ode(make_params(alpha=2.0), 1.0, 1.0, 100.0, 0.01)[-1]
    checks["supercritical at equilibrium"] = max(abs(final.u - 1.0), abs(final.v - 1.0)) < 1e-3
    checks["supercritical runtime < 1 s"] = time.perf_counter() - t0 < 1.0
    report(1, "homogeneous dichotomy across the reproduction threshold", checks)


def test_criterion_02_zero_diffusion_eigenvalue():
    t0 = time.perf_counter()
    prob = EigenProblem(make_params(alpha=2.0, d1=1e-8, d2=1e-8), -2.0, 2.0, 400)
    lam = principal_eigenvalue(prob).lambda_p
    elapsed = time.perf_counter() - t0
    checks = {
        "matches -0.280776 within 5e-3": abs(lam - (-0.280776)) < 5e-3,
        "matches closed form": abs(lam - spectral_lower_bound(prob)) < 5e-3,
        "runtime < 5 s": elapsed < 5.0,
    }
    report(2, "vanishing-diffusion limit of the interval eigenvalue", checks)


def test_criterion_03_eigen_monotonicity_and_bounds():
    checks = {}
    p = make_params(alpha=2.0)
    ladder = [
        principal_eigenvalue(
            EigenProblem(p, -L, L, max(64, round(60 * L)))
        ).lambda_p
        for L in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    checks["strictly decreasing in length"] = bool(np.all(np.diff(ladder) < -1e-8))
    rng = np.random.default_rng(101)
    mono = True
    sandwich = True
    for _ in range(20):
        a, b, e = rng.uniform(0.5, 2.0, 3)
        alpha = rng.uniform(0.3, 3.0) * a * b / e
        d1, d2 = rng.uniform(0.05, 1.5, 2)
        L = rng.uniform(0.6, 2.5)
        q = make_params(alpha=alpha, a=a, b=b, e=e, d1=d1, d2=d2)
        prob = EigenProblem(q, -L, L, 180)
        lam = principal_eigenvalue(prob).lambda_p
        lam2 = principal_eigenvalue(
            EigenProblem(replace(q, d1=2 * d1, d2=2 * d2), -L, L, 180)
        ).lambda_p
        mono &= lam2 > lam + 1e-8
        sandwich &= spectral_lower_bound(prob) + 1e-8 < lam < upper_bound_d2(prob) - 1e-8
    checks["strictly increasing under diffusion doubling"] = mono
    checks["sandwiched between the closed-form bounds"] = sandwich
    report(3, "eigenvalue monotonicity and two-sided bounds", checks)


def test_criterion_04_length_threshold():
    p = make_params(alpha=2.0)  # 1 < r0=2 < (1+d1/a)(1+d2/b)=4
    Ls = find_L_star(p)

    def lam(L):
        return principal_eigenvalue(EigenProblem(p, -L, L, 241)).lambda_p

    checks = {
        "bisection converged": abs(lam(Ls)) < 1e-6,
        "positive below the threshold": lam(0.9 * Ls) > 0.0,
        "negative above the threshold": lam(1.1 * Ls) < 0.0,
    }
    report(4, "critical half-length exists with the right sign pattern", checks)


def test_criterion_05_diffusion_threshold_floor():
    rng = np.random.default_rng(57)
    ok = True
    for _ in range(10):
        a, b, e = rng.uniform(0.5, 2.0, 3)
        alpha = rng.uniform(1.1, 3.0) * a * b / e  # r0 > 1
        d1, d2 = rng.uniform(0.3, 1.5, 2)
        h0 = rng.uniform(0.5, 1.5)
        p = make_params(alpha=alpha, a=a, b=b, e=e, d1=d1, d2=d2, h0=h0)
        ok &= find_d_star(p, n=161) >= d_star_lower_bound(p) - 1e-6
    report(5, "diffusion threshold dominates its closed-form floor", {"floor holds on 10 draws": ok})


def test_criterion_06_flux_form_equivalence():
    rng = np.random.default_rng(7)
    kernels = [KernelSpec.uniform(1.0), KernelSpec.gaussian(0.8), KernelSpec.laplace(0.6)]
    worst = 0.0
    for i in range(100):
        kern = kernels[i % 3]
        p = make_params(kernel=kern, mu=rng.uniform(0.2, 2.0))
        grid = Grid(0.1, 4.0)
        g, h = np.sort(rng.uniform(-3.0, 3.0, 2))
        if h - g < 0.5:
            h = g + 0.5
        inside = (grid.x > g) & (grid.x < h)
        u = np.where(inside, rng.uniform(0.0, 2.0, grid.n), 0.0)
        state = SimState(t=0.0, g=float(g), h=float(h), u=u, v=np.zeros_like(u), grid=grid)
        scale = max(boundary_rates(replace(p, rho=0.0), state)[0], 1e-12)
        worst = max(worst, flux_equivalence_check(p, state) / scale)
    report(6, "outward-flux double integral equals the tail form", {"within 1e-6 relative on 100 states": worst < 1e-6})


def test_criterion_07_front_response_comparison():
    t0 = time.perf_counter()
    p = make_params(alpha=2.0, h0=0.4, mu=0.2)
    bump = bump_profile(0.4)
    cfg = SimConfig(dx=0.04, dt=0.1, t_end=25.0, domain_cap=4.0, record_every=10)
    lo = run(p, cfg, bump, bump, record_snapshots=True)
    hi = run(replace(p, mu=0.4), cfg, bump, bump, record_snapshots=True)
    elapsed = time.perf_counter() - t0
    n = min(lo.t.size, hi.t.size)
    dens_ok = True
    for (ta, _, ua, va), (tb, _, ub, vb) in zip(lo.snapshots, hi.snapshots):
        dens_ok &= ta == tb and np.all(ua <= ub + 1e-6) and np.all(va <= vb + 1e-6)
    checks = {
        "right fronts ordered": bool(np.all(lo.h[:n] <= hi.h[:n] + 1e-6)),
        "left fronts ordered": bool(np.all(lo.g[:n] >= hi.g[:n] - 1e-6)),
        "densities ordered nodewise": dens_ok,
        "runtime < 30 s per pair": elapsed < 30.0,
    }
    report(7, "monotone comparison in the front response", checks)


def test_criterion_08_a_priori_box():
    rng = np.random.default_rng(77)
    ok = True
    for _ in range(10):
        a, b, e = rng.uniform(0.6, 1.6, 3)
        d1, d2 = rng.uniform(0.1, 0.5, 2)
        margin = (1.0 + d1 / a) * (1.0 + d2 / b)
        alpha = rng.uniform(1.0, 1.5) * margin * a * b / e  # spreading-sufficient
        p = make_params(alpha=alpha, a=a, b=b, e=e, d1=d1, d2=d2, mu=rng.uniform(0.3, 1.0))
        amp_u, amp_v = rng.uniform(0.3, 1.5, 2)
        cap_u, cap_v = a_priori_bounds(p, amp_u, amp_v)
        cfg = SimConfig(dx=0.05, dt=0.1, t_end=12.0, domain_cap=8.0, record_every=5)
        traj = run(p, cfg, bump_profile(1.0, amp_u), bump_profile(1.0, amp_v))
        ok &= traj.sup_u.max() <= cap_u + 1e-6 and traj.sup_v.max() <= cap_v + 1e-6
    report(8, "densities stay inside the a-priori box", {"box holds on 10 spreading runs": ok})


def test_criterion_09_front_response_threshold():
    t0 = time.perf_counter()
    p = make_params(alpha=2.0, h0=0.4)  # intermediate regime, h0 < L_star
    bump = bump_profile(0.4)
    cfg = SimConfig(dx=0.04, dt=0.12, t_end=150.0, domain_cap=4.0, record_every=10)
    Ls = find_L_star(p)
    base = vanishing_mu_bound(p, bump, bump, L_star=Ls)
    low = classify(run(replace(p, mu=base), cfg, bump, bump), Ls, cfg)
    high = classify(
        run(replace(p, mu=1e3 * base), cfg, bump, bump, stop_width=2 * Ls + 2 * cfg.tol_spread),
        Ls, cfg,
    )
    res = find_mu_star(p, cfg, bump, bump)
    elapsed = time.perf_counter() - t0
    checks = {
        "explicit bound run vanishes": low == "vanishing",
        "1000x bound run spreads": high == "spreading",
        "bracket low end vanishes": dict(res.probes)[res.lo] == "vanishing",
        "bracket high end spreads": dict(res.probes)[res.hi] == "spreading",
        "bracket width <= 1e-2 relative": res.hi - res.lo <= 1e-2 * res.hi,
        "runtime < 10 min": elapsed < 600.0,
    }
    report(9, "sharp front-response threshold with explicit vanishing bound", checks)


def test_criterion_10_spreading_limit_profile():
    p = make_params(alpha=2.0)
    seed = lambda s: 0.1 * np.ones_like(s)
    errs = []
    for L in (20.0, 40.0):
        x, u, v = fixed_boundary_run(p, -L, L, seed, seed, t_end=80.0, dx=0.1)
        mid = np.argmin(np.abs(x))
        errs.append(max(abs(u[mid] - 1.0), abs(v[mid] - 1.0)))
    checks = {
        "midpoint within 5e-2 of the equilibrium": errs[0] < 5e-2,
        # At these widths the interval-truncation error sits at round-off,
        # so widening must not worsen beyond round-off noise.
        "agreement does not degrade when widened": errs[1] <= errs[0] + 1e-8,
    }
    report(10, "fixed-interval profiles approach the positive equilibrium", checks)


def test_criterion_11_convergence_discipline():
    p = make_params(alpha=2.0, mu=0.5)
    bump = bump_profile(1.0)
    ends = []
    for dx, dt in ((0.08, 0.1), (0.04, 0.05), (0.02, 0.025)):
        cfg = SimConfig(dx=dx, dt=dt, t_end=10.0, domain_cap=6.0, record_every=10**9)
        ends.append(run(p, cfg, bump, bump).h[-1])
    front_ratio = abs(ends[0] - ends[1]) / abs(ends[1] - ends[2])
    q = make_params(alpha=2.0, kernel=KernelSpec.gaussian(1.0))
    lam = {
        n: principal_eigenvalue(EigenProblem(q, -2.0, 2.0, n)).lambda_p
        for n in (200, 400, 800)
    }
    eig_ratio = abs(lam[200] - lam[400]) / abs(lam[400] - lam[800])
    checks = {
        "front deltas shrink at least first order": front_ratio >= 1.8,
        "eigenvalue deltas shrink at second order": eig_ratio >= 3.0,
    }
    report(11, "refinement ladders show the expected convergence orders", checks)


def test_criterion_12_balanced_decay_functional():
    p = make_params(alpha=1.0, lam=0.5)  # r0 = 1
    traj = integrate_ode(p, 1.0, 1.0, 1000.0, 0.05)
    series = np.array([v for _, v in lyapunov_series(p, traj)])
    checks = {
        "decay functional nonincreasing per step": bool(np.all(np.diff(series) <= 1e-10)),
        "densities below 1e-3 by t=1000": max(traj[-1].u, traj[-1].v) < 1e-3,
    }
    report(12, "balanced-regime decay functional and slow extinction", checks)
