"""Homogeneous dynamics: dichotomy, decay functional, step-size order."""

import numpy as np
import pytest

from epifront import classify_ode_limit, equilibrium, integrate_ode, lyapunov_series
from epifront.model import gprime0, infection_value
from epifront.ode import OdeInstabilityError, rk4_step
from helpers import make_params


def test_zero_stays_zero():
    traj = integrate_ode(make_params(alpha=2.0), 0.0, 0.0, 10.0, 0.1)
    assert all(s.u == 0.0 and s.v == 0.0 for s in traj)


def test_equilibrium_is_fixed_point():
    p = make_params(alpha=2.0, lam=1.0)
    eq = equilibrium(p)
    traj = integrate_ode(p, eq.u_star, eq.v_star, 0.01, 0.01)
    assert abs(traj[-1].u - eq.u_star) < 1e-12
    assert abs(traj[-1].v - eq.v_star) < 1e-12


def test_subcritical_decay():
    traj = integrate_ode(make_params(alpha=0.5), 1.0, 1.0, 50.0, 0.01)
    assert max(traj[-1].u, traj[-1].v) < 1e-4


def test_nonnegativity_guard():
    with pytest.raises(ValueError):
        integrate_ode(make_params(), -0.1, 0.0, 1.0, 0.01)
    with pytest.raises(ValueError):
        integrate_ode(make_params(), 0.1, 0.1, 1.0, -0.01)


@pytest.mark.parametrize("t_end", [-5.0, 0.0, float("nan")])
def test_a_horizon_that_is_not_positive_is_rejected(t_end):
    # Like dt, the horizon must be positive: there is no step to take before t = 0.
    with pytest.raises(ValueError, match="t_end must be positive"):
        integrate_ode(make_params(), 1.0, 1.0, t_end, 0.01)


def test_a_step_count_that_overflows_is_rejected():
    # t_end / dt = inf has no integer step count.
    with pytest.raises(ValueError, match=r"^t_end / dt must be finite$"):
        integrate_ode(make_params(), 1.0, 1.0, 1e300, 1e-300)


def test_instability_reports_time():
    # A step far beyond the decay scale makes the 4-stage update blow up.
    with pytest.raises(OdeInstabilityError) as err:
        integrate_ode(make_params(alpha=0.5, a=30.0, b=30.0), 1.0, 1e-9, 100.0, 0.5)
    assert err.value.t > 0.0


def test_a_state_that_overflows_is_reported_as_non_finite():
    # At the float limit the first step overflows to inf before any state
    # can go negative.
    with pytest.raises(OdeInstabilityError, match=r"^t=0\.1: state became non-finite; reduce dt$"):
        integrate_ode(make_params(), 1e308, 1e308, 1.0, 0.1)


def test_lyapunov_requires_balance():
    with pytest.raises(ValueError):
        lyapunov_series(make_params(alpha=2.0), [])


def test_lyapunov_zero_trajectory():
    p = make_params(alpha=1.0)
    traj = integrate_ode(p, 0.0, 0.0, 5.0, 0.1)
    series = lyapunov_series(p, traj)
    assert all(v == 0.0 for _, v in series)


def test_lyapunov_monotone_and_rate_sign():
    p = make_params(alpha=1.0)  # r0 = 1
    traj = integrate_ode(p, 1.0, 1.0, 50.0, 0.01)
    series = lyapunov_series(p, traj)
    values = np.array([v for _, v in series])
    assert np.all(np.diff(values) <= 1e-10)
    # V' = -G'(0) u + G(u) <= 0 along the trajectory
    g0 = gprime0(p)
    for s in traj[:: len(traj) // 50]:
        assert -g0 * s.u + infection_value(p.infection, s.u) <= 1e-15


def test_classify_limits():
    assert classify_ode_limit(make_params(alpha=0.5), 1.0, 1.0, 100.0).kind == "extinct"
    out = classify_ode_limit(make_params(alpha=2.0), 0.1, 0.1, 100.0)
    assert out.kind == "persists"
    assert out.u_star == pytest.approx(1.0, abs=1e-10)
    assert classify_ode_limit(make_params(alpha=2.0), 1e-8, 1e-8, 0.5).kind == "undecided"


def test_step_size_order():
    # Classical 4-stage scheme: halving dt cuts the endpoint error ~16x.
    p = make_params(alpha=2.0)
    ref = integrate_ode(p, 0.5, 0.5, 5.0, 0.0005)[-1]
    errs = []
    for dt in (0.2, 0.1, 0.05):
        end = integrate_ode(p, 0.5, 0.5, 5.0, dt)[-1]
        errs.append(max(abs(end.u - ref.u), abs(end.v - ref.v)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 3.5)


@pytest.mark.parametrize("y0", [1.5, np.array([1.0, -2.0, 0.25])])
def test_rk4_step_matches_fourth_order_taylor_factor(y0):
    # On y' = -y one classical 4-stage step multiplies y by the Taylor
    # polynomial of exp(-dt) through dt^4.
    dt = 0.3
    factor = 1.0 - dt + dt**2 / 2.0 - dt**3 / 6.0 + dt**4 / 24.0
    (y1,) = rk4_step(lambda y: (-y,), (y0,), dt)
    np.testing.assert_allclose(y1, factor * y0, rtol=1e-15)


def test_rk4_step_advances_each_component_with_shared_stages():
    # y' = (z, -y): the stages mix the components, so a wrong pairing of
    # state and rate shows up in the rotation.
    dt = 0.1
    y1, z1 = rk4_step(lambda y, z: (z, -y), (1.0, 0.0), dt)
    assert y1 == pytest.approx(1.0 - dt**2 / 2.0 + dt**4 / 24.0, rel=1e-15)
    assert z1 == pytest.approx(-dt + dt**3 / 6.0, rel=1e-15)
