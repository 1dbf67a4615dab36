"""Threshold constants: regimes, bisections, explicit bounds, determinism."""

import functools
import hashlib
import importlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from epifront import (
    KernelSpec,
    SimConfig,
    WeightSpec,
    classify,
    d_star_lower_bound,
    effective_L_star,
    find_L_star,
    find_d_star,
    find_mu_star,
    find_sigma_star,
    run,
    vanishing_mu_bound,
)
from epifront.cli import main
from epifront.spectral import EigenProblem, SpectralError, principal_eigenvalue
from epifront.simulator import Grid, SimState, spreading_stop_width, stability_limit, window_lambda_positive
from epifront.thresholds import (
    ThresholdRegimeError,
    ThresholdSearchError,
    _lambda_on_interval,
    _bisect,
    _brent,
    _level_terms,
    _mu_level,
    _vanishing_ladder,
)
from helpers import bump_profile, make_params, random_intermediate_params


def lam_half(p, L, n=241, **rates):
    return principal_eigenvalue(EigenProblem(replace(p, **rates), -L, L, n)).lambda_p


def test_L_star_regime_errors():
    with pytest.raises(ThresholdRegimeError, match="r0 <= 1"):
        find_L_star(make_params(alpha=0.5))
    with pytest.raises(ThresholdRegimeError, match="spreading-sufficient"):
        find_L_star(make_params(alpha=2.0, d1=0.4, d2=0.4))


def test_L_star_sign_pattern_and_resolution_agreement():
    p = make_params(alpha=2.0)
    Ls = find_L_star(p)
    assert lam_half(p, Ls) == pytest.approx(0.0, abs=1e-6)
    assert lam_half(p, 0.9 * Ls) > 0.0
    assert lam_half(p, 1.1 * Ls) < 0.0
    assert lam_half(p, Ls - 0.1) > 0.0 > lam_half(p, Ls + 0.1)
    Ls2 = find_L_star(p, n=482)
    assert abs(Ls - Ls2) < 1e-3


def test_L_star_respects_h0_independent_definitions():
    # h0 only seeds the bracket, so the crossing agrees up to the preimage
    # of the eigenvalue stopping tolerance.
    p = make_params(alpha=2.0, h0=0.25)
    q = make_params(alpha=2.0, h0=1.5)
    assert find_L_star(p) == pytest.approx(find_L_star(q), abs=1e-4)


def test_effective_L_star_regimes():
    assert math.isinf(effective_L_star(make_params(alpha=0.5)))
    assert effective_L_star(make_params(alpha=2.0, d1=0.4, d2=0.4)) == 0.0
    assert effective_L_star(make_params(alpha=2.0)) > 0.0


def test_d_star_needs_supercritical():
    with pytest.raises(ThresholdRegimeError):
        find_d_star(make_params(alpha=0.5))


def test_d_star_crossing_and_agreement():
    p = make_params(alpha=2.0)
    ds = find_d_star(p)
    assert lam_half(p, 1.0, d1=ds, d2=ds) == pytest.approx(0.0, abs=1e-6)
    assert lam_half(p, 1.0, d1=0.9 * ds, d2=0.9 * ds) < 0.0
    assert lam_half(p, 1.0, d1=1.1 * ds, d2=1.1 * ds) > 0.0
    ds2 = find_d_star(p, n=482)
    assert abs(ds - ds2) < 1e-3


@pytest.mark.parametrize("target", ["L", "d"])
def test_root_is_a_traced_probe_within_tol(target):
    p = make_params(alpha=2.0, h0=0.4)
    trace = []
    find = find_L_star if target == "L" else find_d_star
    value = find(p, n=121, trace=trace)
    hits = [lam for x, lam in trace if x == value]
    assert len(hits) == 1 and abs(hits[0]) < 1e-6
    assert len({x for x, _ in trace}) == len(trace)  # every abscissa solved once
    if target == "d":  # Brent's method; L* bisects (18-21 solves)
        assert len(trace) <= 10


def test_L_star_at_coarse_n_is_the_bisection_crossing():
    # At n=48 the uniform kernel's edge makes lambda_p(L) jump up near
    # L=0.6027, so it vanishes near 0.59994 and again near 0.60394. L* keeps
    # the crossing that bisection reaches (Brent's method reaches the other).
    p = make_params(alpha=2.0, h0=0.4)
    assert find_L_star(p, n=48) == pytest.approx(0.59994, abs=1e-5)
    assert abs(_lambda_on_interval(p, 0.6039383927199767, 48)) < 1e-6


@pytest.mark.parametrize("closer, scipy_name", [(_bisect, "bisect"), (_brent, "brentq")])
def test_the_bracket_closers_probe_where_scipy_probes(closer, scipy_name):
    # The closers are scipy's loops written out, so a root search makes the
    # probes it made with scipy: the same abscissae, bit for bit.
    scipy_closer = getattr(importlib.import_module("scipy.optimize"), scipy_name)
    rng = np.random.default_rng(2)
    shapes = [lambda x, r, c: c * (x - r), lambda x, r, c: math.tanh(c * (x - r)),
              lambda x, r, c: x**3 - r**3 + c * (x - r), lambda x, r, c: math.exp(c * (x - r)) - 1.0]
    for _ in range(100):
        r, c = rng.uniform(0.01, 5.0), rng.uniform(0.5, 3.0)
        f = functools.partial(shapes[rng.integers(len(shapes))], r=r, c=c)
        ours, theirs = [], []
        lo, hi = r * rng.uniform(0.01, 0.99), r * rng.uniform(1.01, 4.0)
        closer(lambda x: ours.append(x) or f(x), lo, hi)
        scipy_closer(lambda x: theirs.append(x) or f(x), lo, hi, xtol=np.finfo(float).tiny, full_output=True, disp=False)
        assert ours == theirs


@pytest.mark.parametrize("target", ["L", "d"])
def test_root_search_fails_when_tol_is_unreachable(target):
    p = make_params(alpha=2.0, h0=0.4)
    with pytest.raises(ThresholdSearchError, match="did not reach the eigenvalue tolerance"):
        if target == "L":
            find_L_star(p, n=32, tol=0.0)
        else:
            find_d_star(p, n=32, tol=0.0)


def test_d_star_lets_spectral_failure_propagate():
    # A kernel far narrower than the grid spacing breaks the eigen solve; the
    # root search must not turn that into a search failure.
    narrow = KernelSpec.gaussian(0.001)
    p = make_params(alpha=2.0, kernel=narrow, weight=WeightSpec.kernel_tail_of(narrow))
    with pytest.raises(SpectralError):
        find_d_star(p, n=16)


def test_d_star_lower_bound_values():
    assert d_star_lower_bound(make_params(alpha=2.0)) == pytest.approx(0.414214, abs=1e-6)
    assert d_star_lower_bound(make_params(alpha=1.0)) == pytest.approx(0.0, abs=1e-12)
    assert d_star_lower_bound(make_params(alpha=4.0, a=2.0)) == pytest.approx(
        (math.sqrt(1.0 + 16.0) - 3.0) / 2.0, abs=1e-9
    )
    with pytest.raises(ThresholdRegimeError):
        d_star_lower_bound(make_params(alpha=0.5))


def test_d_star_dominates_lower_bound_random():
    rng = np.random.default_rng(31)
    for _ in range(6):
        p = random_intermediate_params(rng)
        ds = find_d_star(p, n=161)
        assert ds >= d_star_lower_bound(p) - 1e-6


def test_vanishing_mu_bound_properties():
    p = make_params(alpha=2.0, h0=0.4)
    bump = bump_profile(0.4)
    base = vanishing_mu_bound(p, bump, bump)
    assert base > 0.0
    doubled = vanishing_mu_bound(p, lambda x: 2.0 * bump(x), lambda x: 2.0 * bump(x))
    assert doubled == pytest.approx(0.5 * base, rel=1e-12)
    with pytest.raises(ThresholdRegimeError):
        vanishing_mu_bound(make_params(alpha=2.0, h0=1.0), bump, bump)  # h0 > L_star


MU_CFG = SimConfig(dx=0.04, dt=0.12, t_end=150.0, domain_cap=4.0, record_every=10)


def test_vanishing_mu_bound_run_vanishes():
    p = make_params(alpha=2.0, h0=0.4)
    bump = bump_profile(0.4)
    Ls = find_L_star(p)
    base = vanishing_mu_bound(p, bump, bump, L_star=Ls)
    traj = run(replace(p, mu=base), MU_CFG, bump, bump)
    assert classify(traj, Ls, MU_CFG) == "vanishing"


def test_find_mu_star_contract_and_determinism():
    p = make_params(alpha=2.0, h0=0.4)
    bump = bump_profile(0.4)
    res = find_mu_star(p, MU_CFG, bump, bump)
    labels = dict(res.probes)
    assert labels[res.lo] == "vanishing"
    assert labels[res.hi] == "spreading"
    assert res.hi - res.lo <= 1e-2 * res.hi
    assert res.lo <= res.value <= res.hi
    base = vanishing_mu_bound(p, bump, bump)
    assert base <= res.hi  # the sufficient bound never exceeds the spreading side
    again = find_mu_star(p, MU_CFG, bump, bump)
    assert (again.lo, again.hi, again.iterations) == (res.lo, res.hi, res.iterations)
    assert again.probes == res.probes


def test_find_mu_star_requires_small_h0():
    p = make_params(alpha=2.0, h0=1.0)  # h0 > L_star
    with pytest.raises(ThresholdRegimeError):
        find_mu_star(p, MU_CFG, bump_profile(1.0), bump_profile(1.0))


def test_sigma_star_precondition():
    # Compactly supported pathogen kernel plus compactly supported weight
    # that dies before 2 L_star: no sharp initial-data scale is guaranteed.
    p = make_params(alpha=2.0, h0=0.4, weight=WeightSpec.constant_on(0.05, 1.0))
    with pytest.raises(ThresholdRegimeError, match="positive"):
        find_sigma_star(p, MU_CFG, bump_profile(0.4), bump_profile(0.4))
    gp = make_params(alpha=2.0, h0=0.4, kernel=KernelSpec.gaussian(0.5), mu=2.0)
    assert gp.kernel1.family == "gaussian"  # passes the positivity gate


@functools.cache
def gaussian_sigma_search():
    """find_sigma_star with gaussian kernels and weight (std 0.5) at mu = 2, solved once."""
    gk = KernelSpec.gaussian(0.5)
    p = make_params(alpha=2.0, h0=0.4, kernel=gk, mu=2.0)
    cfg = SimConfig(dx=0.04, dt=0.12, t_end=150.0, domain_cap=5.0, record_every=10)
    bump = bump_profile(0.4)
    return find_sigma_star(p, cfg, bump, bump)


def test_find_sigma_star_bracket():
    res = gaussian_sigma_search()
    labels = dict(res.probes)
    assert labels[res.lo] == "vanishing" and labels[res.hi] == "spreading"
    assert res.hi - res.lo <= 1e-2 * res.hi
    outcomes = [o for _, o in sorted(res.probes)]
    flips = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a != b)
    assert flips == 1  # single switch along the sigma axis


def test_the_gaussian_sigma_search_keeps_its_probes():
    # Recorded before probe runs carried the vanishing certificate, which now
    # stops the runs of its low end 1e-3 and of the probes below sigma*.
    res = gaussian_sigma_search()
    assert (res.lo, res.hi, res.iterations) == (0.0059754028170653575, 0.006015848282870847, 11)
    assert res.probes == (
        (0.001, "vanishing"), (1000.0, "spreading"), (1.0, "spreading"),
        (0.03162277660168379, "spreading"), (0.005623413251903491, "vanishing"),
        (0.01333521432163324, "spreading"), (0.008659643233600654, "spreading"),
        (0.006978305848598664, "spreading"), (0.006264335366568856, "spreading"),
        (0.005935229272296986, "vanishing"), (0.0060975623522145925, "spreading"),
        (0.006015848282870847, "spreading"), (0.0059754028170653575, "vanishing"),
    )


def test_L_star_trace_keeps_the_probes_of_a_failed_search(monkeypatch):
    import epifront.thresholds as thr

    p = make_params(alpha=2.0, h0=0.4)
    solved = []
    real = thr._lambda_on_interval

    def counted(*args, **kwargs):
        solved.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(thr, "_lambda_on_interval", counted)
    trace = []
    with pytest.raises(ThresholdSearchError, match="did not reach the eigenvalue tolerance"):
        find_L_star(p, n=32, tol=0.0, trace=trace)
    assert [x for x, _ in trace] == solved and len(solved) > 2
    assert all(lam == real(p, x, 32) for x, lam in trace[:3])


@pytest.mark.parametrize(
    "status, domain_cap", [("unstable", 4.0), ("domain_exhausted", 1.0), ("stopped_decayed", 4.0)]
)
def test_a_failed_probe_run_is_not_rerun(monkeypatch, status, domain_cap):
    # A run that stopped is final: at a longer horizon it would restart from
    # t = 0 and end at the same step, so the probe runs once and the search
    # names the status. A cap of 1 keeps the exhausted run's escape width
    # below 2 L* + tol_spread, so it stays undecided.
    import epifront.thresholds as thr

    p = make_params(alpha=2.0, h0=0.4)
    cfg = replace(MU_CFG, domain_cap=domain_cap)
    bump = bump_profile(0.4)
    failed = replace(run(p, replace(cfg, t_end=1.2), bump, bump), status=status)
    calls = []

    def fake_run(*args, **kwargs):
        calls.append(args[1].t_end)
        return failed

    monkeypatch.setattr(thr, "run", fake_run)
    with pytest.raises(ThresholdSearchError, match=f"probe run ended {status}"):
        find_mu_star(p, cfg, bump, bump, bracket=(0.1, 1.0))
    assert calls == [cfg.t_end]


def test_a_probe_undecided_at_every_horizon_names_its_evidence(monkeypatch):
    import epifront.thresholds as thr

    p = make_params(alpha=2.0, h0=0.4)
    bump = bump_profile(0.4)
    undecided = run(p, replace(MU_CFG, t_end=1.2), bump, bump)
    assert undecided.status == "completed"
    calls = []

    def fake_run(*args, **kwargs):
        calls.append(args[1].t_end)
        return undecided

    monkeypatch.setattr(thr, "run", fake_run)
    with pytest.raises(ThresholdSearchError) as failure:
        find_mu_star(p, MU_CFG, bump, bump, bracket=(0.1, 1.0))
    assert calls == [150.0, 300.0, 600.0, 1200.0]
    Ls = find_L_star(p)
    width = undecided.h[-1] - undecided.g[-1]
    sup = undecided.sup_u[-1] + undecided.sup_v[-1]
    speed = undecided.h_rate[-1] - undecided.g_rate[-1]
    assert str(failure.value) == (
        f"probe run ended completed at t={undecided.t[-1]:.6g}, undecided: width {width:.6g} "
        f"against 2L*={2 * Ls:.6g} and 2L*+tol_spread={2 * Ls + 0.5:.6g}, "
        f"sup u+v {sup:.3g}, front speed {speed:.3g}"
    )


def test_every_mu_probe_step_is_new_off_the_record_cadence(monkeypatch):
    # At the default dt = 0.9/7 a 150 horizon is 1167 steps, off the
    # record_every = 10 cadence. A doubled probe still continues its run, so
    # the search steps exactly as often as its probes' final runs did. The
    # low end, mu = 0.187, reaches its first horizon undecided; the high end
    # is certified spreading before it.
    import epifront.simulator as sim
    import epifront.thresholds as thr

    p = make_params(alpha=2.0, h0=0.4)
    bump = bump_profile(0.4)
    cfg = replace(MU_CFG, dt=stability_limit(p))
    calls = []
    real_step = sim.step

    def counted(*args, **kwargs):
        calls.append(1)
        return real_step(*args, **kwargs)

    final = {}
    horizons = []

    def traced_run(q, local, *args, **kwargs):
        traj = run(q, local, *args, **kwargs)
        final[q.mu] = traj
        horizons.append((q.mu, local.t_end, traj.steps, traj.status))
        return traj

    monkeypatch.setattr(sim, "step", counted)
    monkeypatch.setattr(thr, "run", traced_run)
    res = find_mu_star(p, cfg, bump, bump, bracket=(0.187, 0.2), rel_tol=0.9)
    assert [out for _, out in res.probes] == ["vanishing", "spreading"]
    assert (0.187, 150.0, 1167, "completed") in horizons and (0.187, 300.0) in [h[:2] for h in horizons]
    assert len(calls) == sum(traj.steps for traj in final.values())


def test_bracket_ends_move_out_by_four_until_their_label_fits(monkeypatch):
    import epifront.thresholds as thr

    p = make_params(alpha=2.0, h0=0.4)
    bump = bump_profile(0.4)
    threshold = [0.5]
    monkeypatch.setattr(
        thr, "_classify_with_horizon",
        lambda q, cfg, u0, v0, Ls, level: "spreading" if q.mu > threshold[0] else "vanishing",
    )
    res = find_mu_star(p, MU_CFG, bump, bump, bracket=(0.6, 0.7), rel_tol=0.9)
    assert [x for x, _ in res.probes[:3]] == [0.6, 0.15, 0.7]
    res = find_mu_star(p, MU_CFG, bump, bump, bracket=(0.1, 0.2), rel_tol=0.9)
    assert [x for x, _ in res.probes[:3]] == [0.1, 0.2, 0.8]
    threshold[0] = 1e-9  # five quarterings of 1.0 still spread
    with pytest.raises(ThresholdSearchError, match="low bracket end classifies as spreading, not vanishing"):
        find_mu_star(p, MU_CFG, bump, bump, bracket=(1.0, 2.0))
    threshold[0] = 1e9  # five quadruplings of 2.0 still vanish
    with pytest.raises(ThresholdSearchError, match="high bracket end classifies as vanishing, not spreading"):
        find_mu_star(p, MU_CFG, bump, bump, bracket=(1.0, 2.0))


def test_sigma_search_brackets_from_its_own_default(monkeypatch):
    import epifront.thresholds as thr

    p = make_params(alpha=2.0, h0=0.4, kernel=KernelSpec.gaussian(0.5), mu=2.0)
    bump = bump_profile(0.4)
    monkeypatch.setattr(
        thr, "_classify_with_horizon",
        lambda q, cfg, u0, v0, Ls, level: "spreading" if u0(0.0) > 0.5 else "vanishing",
    )
    res = find_sigma_star(p, MU_CFG, bump, bump, bracket=None)
    assert res.probes[:2] == ((1e-3, "vanishing"), (1e3, "spreading"))
    assert res.lo <= 0.5 <= res.hi


def test_search_defaults_are_the_threshold_config_defaults():
    import inspect

    from epifront.config import ThresholdConfig as ParsedConfig
    from epifront.thresholds import ThresholdConfig

    assert ParsedConfig is ThresholdConfig
    defaults = ThresholdConfig()
    for fn in (find_L_star, find_d_star, effective_L_star, vanishing_mu_bound, find_mu_star, find_sigma_star):
        params = inspect.signature(fn).parameters
        for name in ("n", "tol", "rel_tol"):
            if name in params:
                assert params[name].default == getattr(defaults, name), (fn.__name__, name)


def test_L_star_at_coarse_n_keeps_the_bisection_zero_and_solve_count():
    # Closing the bracket by bisection reaches the zero near 0.59994 (not the
    # one near 0.60394) after 19 eigen solves, bracket widening included.
    p = make_params(alpha=2.0, h0=0.4)
    trace = []
    value = find_L_star(p, n=48, trace=trace)
    assert value == pytest.approx(0.599939880371094, abs=1e-15)
    assert len(trace) == 19 and len({x for x, _ in trace}) == 19
    assert trace[-1] == (value, _lambda_on_interval(p, value, 48))
    assert abs(trace[-1][1]) < 1e-6


def test_vanishing_bound_masses_use_the_endpoint_trapezoid_rule(monkeypatch):
    # The eigenfunction masses are integrated with dx = x[1] - x[0] inside and
    # dx/2 at both ends of the enlarged interval's grid, bit for bit.
    import epifront.thresholds as thresholds

    seen = {}
    solve, weights = thresholds.principal_eigenvalue, thresholds.trapezoid_weights

    def spy_solve(prob):
        seen["x"] = (res := solve(prob)).x
        return res

    def spy_weights(n, dx):
        seen["w"] = weights(n, dx)
        return seen["w"]

    monkeypatch.setattr(thresholds, "principal_eigenvalue", spy_solve)
    monkeypatch.setattr(thresholds, "trapezoid_weights", spy_weights)
    p = make_params(alpha=2.0, h0=0.4)
    bound = vanishing_mu_bound(p, bump_profile(0.4), bump_profile(0.4), n=64)
    x = seen["x"]
    want = np.full(x.size, x[1] - x[0])
    want[0] = want[-1] = 0.5 * (x[1] - x[0])
    assert bound > 0.0 and seen["w"].tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "kernel", [KernelSpec.uniform(1.0), KernelSpec.gaussian(0.5), KernelSpec.laplace(0.5)], ids=lambda k: k.family
)
def test_the_window_sign_matches_the_interval_eigenvalue_off_L_star(kernel):
    # On the simulator's grid (dx = 0.04) a window 0.1 short of L* on each
    # side has lambda_p > 0 and one 0.1 beyond it lambda_p < 0, as on the
    # spectral grid.
    p = make_params(alpha=2.0, h0=0.4, kernel=kernel)
    Ls = find_L_star(p)
    grid = Grid(0.04, 4.0)
    for half in (Ls - 0.1, Ls + 0.1):
        state = SimState(0.0, -half, half, np.zeros(grid.n), np.zeros(grid.n), grid)
        assert window_lambda_positive(p, state) == (lam_half(p, half) > 0.0) == (half < Ls)


def _no_vanishing_level(H, data_norm):
    """A vanishing level that never stops a run: the spreading certificate alone."""
    return 0.0


def _decayed_run(p, bump):
    """A run whose last row is decayed and stalled below tol_vanish."""
    traj = run(p, replace(MU_CFG, t_end=60.0), bump, bump)
    assert traj.sup_u[-1] + traj.sup_v[-1] < MU_CFG.tol_vanish and traj.h_rate[-1] - traj.g_rate[-1] < MU_CFG.tol_vanish
    return traj


@pytest.mark.parametrize(
    "status, outcome, runs",
    [
        ("completed", "vanishing", 4),
        ("stopped_decayed", "vanishing", 1),
        ("unstable", None, 1),
        ("domain_exhausted", None, 1),
    ],
)
def test_an_undecided_run_at_its_last_chance_vanishes_by_its_window_eigenvalue(monkeypatch, status, outcome, runs):
    # Only where the search used to fail: at the last horizon of a completed
    # run and for a stopped_decayed run. There a decayed, stalled run is
    # vanishing (its own certificate found the window eigenvalue positive at
    # its final row); unstable and exhausted runs still fail the search.
    import epifront.thresholds as thr

    p = make_params(alpha=2.0, h0=0.4, mu=0.01)
    bump = bump_profile(0.4)
    traj = replace(_decayed_run(p, bump), status=status)
    calls = []

    def fake_run(*args, **kwargs):
        calls.append(args[1].t_end)
        return traj

    monkeypatch.setattr(thr, "run", fake_run)
    monkeypatch.setattr(thr, "classify", lambda *args: "undecided")
    if outcome is None:
        with pytest.raises(ThresholdSearchError, match=f"probe run ended {status}"):
            thr._classify_with_horizon(p, MU_CFG, bump, bump, 0.6, _no_vanishing_level)
    else:
        assert thr._classify_with_horizon(p, MU_CFG, bump, bump, 0.6, _no_vanishing_level) == outcome
    assert len(calls) == runs


@pytest.mark.parametrize("t_end, status", [(7.0, "completed"), (60.0, "stopped_decayed")])
def test_a_certified_run_that_reaches_its_last_chance_has_a_positive_window(t_end, status):
    # A certified run checks its window at every recorded row before its
    # decay check, and records its final step (here off the record cadence
    # at t_end=7), so the last-chance rule never needs a second window solve.
    p = make_params(alpha=2.0, h0=0.4, mu=0.01)
    bump = bump_profile(0.4)
    Ls = find_L_star(p)
    cfg = replace(MU_CFG, t_end=t_end)
    traj = run(p, cfg, bump, bump, stop_width=spreading_stop_width(Ls, cfg), certify=_no_vanishing_level)
    assert traj.status == status
    assert window_lambda_positive(p, traj.final_state)
    if status == "stopped_decayed":
        import epifront.thresholds as thr

        assert thr._classify_with_horizon(p, MU_CFG, bump, bump, Ls, _no_vanishing_level) == "vanishing"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# thresholds --target mustar at the benchmark's seeds 0-3 (threshold_search.json
# with every rate scaled by a seed's factor): SHA-256 of its standard output,
# recorded before probe runs carried the vanishing certificate, and re-pinned
# when the eigen solver moved from ARPACK to the in-repo Lanczos, which moves
# each probe in its last bits through the vanishing bound; labels and
# iterations did not change.
MUSTAR_STDOUT = {
    0: "98f798538c35ca9ba1e9edc8751aef37f9782dba530f3375c869ca1e88840f14",
    1: "fd65f2024aff6bf9e15db5cd7d87e3fc9a3e27c7fafba67926fd438be4007e24",
    2: "e07480bf4f509aaa6ce5d666b87430461ff8d46a77cf28f90f13cd675d4c4077",
    3: "be0ee287ab80458c76e4bc701883878e565071876c8878b073cc1cd1eb52d04e",
}


@pytest.mark.parametrize("seed", sorted(MUSTAR_STDOUT))
def test_the_benchmark_mu_searches_keep_their_probes_labels_and_bracket(seed, tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    argv = importlib.import_module("workloads").build("mustar", seed, str(tmp_path)).tasks[0].argv
    assert main(argv) == 0
    out = capsys.readouterr().out
    result = json.loads(out)
    assert result["iterations"] == 10
    assert "".join(label[0] for _, label in result["probes"]) == "vsvvsvvvsvss"
    assert hashlib.sha256(out.encode()).hexdigest() == MUSTAR_STDOUT[seed]


def _search_ladder():
    """threshold_search.json's model, its L* and the vanishing level of its searches."""
    p = make_params(alpha=2.0, h0=0.4)
    Ls = find_L_star(p)
    return p, Ls, _vanishing_ladder(p, Ls, 241)


def test_the_vanishing_level_is_the_largest_rung_level_over_its_covering_nodes():
    p, Ls, level = _search_ladder()
    rungs = [Ls - (Ls - p.h0) * 2.0 ** (-j / 2) for j in range(1, 17)]
    solved = {h1: principal_eigenvalue(EigenProblem(p, -h1, h1, 241)) for h1 in rungs}
    for H in (p.h0, 0.45, 0.5, 0.55, 0.59, 0.6):
        want = 0.0
        for h1, res in solved.items():
            if res.lambda_p > 0.0 and h1 > H:
                lo = np.flatnonzero(res.x <= -H)[-1]  # the first eigen node beyond -H ...
                hi = np.flatnonzero(res.x >= H)[0]  # ... and beyond H
                floor = float(np.minimum(res.phi1, res.phi2)[lo : hi + 1].min())
                want = max(want, _mu_level(h1, H, *_level_terms(p, res, h1), floor, 2.0))
        assert level(H, 2.0) == want > 0.0
        assert level(H, 1.0) == pytest.approx(2.0 * want, rel=1e-15)
    assert level(rungs[-1], 2.0) == level(Ls, 2.0) == 0.0  # no rung above the half-width
    assert level(0.5, 0.0) == math.inf and level(Ls, 0.0) == 0.0
    halves = np.linspace(p.h0, Ls, 60)
    assert np.all(np.diff([level(H, 1.0) for H in halves]) <= 0.0)


def test_a_probe_the_vanishing_certificate_stops_still_vanishes_without_it():
    # The far-below-threshold probes of the search on threshold_search.json.
    # Each stops at the recorded row where mu first falls to the level, and
    # the same run without the certificate still decays with its fronts
    # stalled below 2 L*, by t = 150 at the latest.
    p, Ls, level = _search_ladder()
    bump = bump_profile(0.4)
    stop = spreading_stop_width(Ls, MU_CFG)
    for mu, stopped_at in ((0.000481, 0.0), (0.0152, 8.4), (0.0855, 25.2), (0.1317, 45.6), (0.1635, 90.0)):
        q = replace(p, mu=mu)
        certified = run(q, MU_CFG, bump, bump, stop_width=stop, certify=level)
        assert certified.status == "stopped_vanishing" and certified.t[-1] == pytest.approx(stopped_at)
        assert classify(certified, Ls, MU_CFG) == "vanishing"
        plain = run(q, MU_CFG, bump, bump, stop_width=stop)
        assert plain.status in ("stopped_decayed", "completed") and classify(plain, Ls, MU_CFG) == "vanishing"
        assert plain.t[-1] > certified.t[-1]
        assert certified.t.tobytes() == plain.t[: certified.t.size].tobytes()


def test_the_vanishing_certificate_never_fires_above_mu_star():
    # mu* = 0.1877 on threshold_search.json; every probe above it spreads,
    # by its window eigenvalue, before any recorded row meets the level.
    p, Ls, level = _search_ladder()
    bump = bump_profile(0.4)
    cfg = replace(MU_CFG, t_end=600.0)
    for mu in (0.18835, 0.18962, 0.1922, 0.20286, 0.48105):
        traj = run(replace(p, mu=mu), cfg, bump, bump, stop_width=spreading_stop_width(Ls, cfg), certify=level)
        assert traj.status == "stopped_certified", mu
        assert all(mu > level(0.5 * (h - g), su + sv) for g, h, su, sv in zip(traj.g, traj.h, traj.sup_u, traj.sup_v))
