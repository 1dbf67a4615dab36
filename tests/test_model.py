"""Reproduction number, equilibrium, sufficient criteria, a-priori bounds."""

import numpy as np
import pytest

from epifront import (
    EquilibriumState,
    InfectionFn,
    a_priori_bounds,
    classify_ode_limit,
    equilibrium,
    infection_value,
    r0,
    spreading_sufficient,
    validate_params,
)
from helpers import make_params


def test_r0_examples():
    assert r0(make_params(alpha=2.0)) == 2.0
    assert r0(make_params(alpha=1.0, a=2.0)) == 0.5
    assert r0(make_params(alpha=1.0)) == 1.0


def test_equilibrium_linear_saturation():
    eq = equilibrium(make_params(alpha=2.0, lam=1.0))
    assert eq.u_star == pytest.approx(1.0, abs=1e-12)
    assert eq.v_star == pytest.approx(1.0, abs=1e-12)
    eq3 = equilibrium(make_params(alpha=3.0, lam=1.0))
    assert eq3.u_star == pytest.approx(2.0, abs=1e-12)
    assert eq3.v_star == pytest.approx(2.0, abs=1e-12)


def test_equilibrium_sublinear_saturation():
    # 2 / (1 + sqrt(u)) = 1 has the root u = 1.
    eq = equilibrium(make_params(alpha=2.0, lam=0.5))
    assert eq.u_star == pytest.approx(1.0, abs=1e-10)
    assert eq.v_star == pytest.approx(1.0, abs=1e-10)


def test_equilibrium_zero_when_subcritical():
    assert equilibrium(make_params(alpha=0.5)) == equilibrium(make_params(alpha=1.0))
    assert equilibrium(make_params(alpha=0.5)).u_star == 0.0


def test_equilibrium_residuals_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        a, b, e = rng.uniform(0.5, 2.0, 3)
        lam = rng.uniform(0.2, 1.0)
        alpha = rng.uniform(1.1, 5.0) * a * b / e
        p = make_params(alpha=alpha, lam=lam, a=a, b=b, e=e)
        eq = equilibrium(p)
        assert eq.u_star > 0.0
        assert abs(-a * eq.u_star + e * eq.v_star) < 1e-9
        assert abs(-b * eq.v_star + infection_value(p.infection, eq.u_star)) < 1e-9


def test_positive_equilibrium_iff_supercritical():
    rng = np.random.default_rng(9)
    for _ in range(25):
        a, b, e = rng.uniform(0.5, 2.0, 3)
        alpha = rng.uniform(0.2, 3.0) * a * b / e
        p = make_params(alpha=alpha, a=a, b=b, e=e)
        eq = equilibrium(p)
        assert (r0(p) > 1.0) == (eq.u_star > 0.0 and eq.v_star > 0.0)


def test_spreading_sufficient_examples():
    assert spreading_sufficient(make_params(alpha=2.0, d1=0.4, d2=0.4))
    assert not spreading_sufficient(make_params(alpha=2.0, d1=0.5, d2=0.5))
    assert not spreading_sufficient(make_params(alpha=1.0, d1=0.01, d2=0.01))


def test_a_priori_bounds_examples():
    p = make_params(alpha=2.0, lam=1.0)
    cap_u, cap_v = a_priori_bounds(p, 0.5, 0.5)
    assert cap_u == pytest.approx(1.0, abs=1e-12)  # u_star dominates
    assert cap_v == pytest.approx(1.0, abs=1e-12)  # G(1)/b = 1
    p_sub = make_params(alpha=0.5)
    cap_u, cap_v = a_priori_bounds(p_sub, 2.0, 1.0)
    assert cap_u == 2.0
    cap_u, cap_v = a_priori_bounds(p_sub, 0.0, 0.0)
    assert cap_u == 0.0 and cap_v == 0.0


def test_a_priori_bounds_rejects_negative():
    with pytest.raises(ValueError):
        a_priori_bounds(make_params(), -1.0, 0.0)


def test_infection_validation():
    assert InfectionFn(alpha=2.0, lam=1.0).alpha == 2.0
    with pytest.raises(ValueError):
        InfectionFn(alpha=0.0, lam=1.0)
    with pytest.raises(ValueError):
        InfectionFn(alpha=1.0, lam=1.5)
    with pytest.raises(ValueError):
        InfectionFn(alpha=1.0, lam=0.0)


def test_infection_shape():
    fn = InfectionFn(alpha=2.0, lam=0.7)
    assert infection_value(fn, 0.0) == 0.0
    z = np.logspace(-4, 4, 50)
    ratio = infection_value(fn, z) / z
    assert np.all(np.diff(ratio) < 0.0)
    assert np.all(np.diff(infection_value(fn, z)) > 0.0)


def test_validate_params_collects_violations():
    p = make_params()
    assert validate_params(p) == []
    bad = make_params(a=1.0)
    object.__setattr__(bad, "a", -1.0)
    object.__setattr__(bad, "rho", -0.5)
    issues = validate_params(bad)
    assert any("a must be > 0" in s for s in issues)
    assert any("rho" in s for s in issues)


@pytest.mark.parametrize("alpha, lam", [(3.0, 0.05), (50.0, 0.1), (1e-3, 1.0), (2.0, 0.5)])
def test_every_saturating_response_is_a_valid_model(alpha, lam):
    # (G1)/(G2) hold analytically for alpha > 0 and 0 < lam <= 1, however
    # slowly G(z)/z = alpha/(1 + z^lam) falls toward a*b/e.
    p = make_params(alpha=alpha, lam=lam)
    assert validate_params(p) == []
    if r0(p) > 1.0:
        eq = equilibrium(p)
        assert infection_value(p.infection, eq.u_star) / eq.u_star == pytest.approx(p.a * p.b / p.e)


# alpha = 1.5 and 1 + 1e-13 put u* below the old search's 1e-12 bracket end,
# alpha = 50 at lam = 0.01 puts u* = 49^100 beyond its 200 doublings.
@pytest.mark.parametrize("alpha, lam", [(1.5, 0.01), (1.0 + 1e-13, 1.0), (50.0, 0.01)])
def test_equilibrium_is_the_closed_form_root(alpha, lam):
    p = make_params(alpha=alpha, lam=lam, a=2.0, b=0.5, e=1.0)  # a*b/e = 1, v* = 2u*
    eq = equilibrium(p)
    assert eq.u_star > 0.0
    assert infection_value(p.infection, eq.u_star) / eq.u_star == pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert eq.v_star == 2.0 * eq.u_star


def test_equilibrium_beyond_the_float_range_is_a_value_error():
    with pytest.raises(ValueError, match="float range"):
        equilibrium(make_params(alpha=50.0, lam=0.001))
    assert equilibrium(make_params(alpha=1.0, lam=0.001)) == EquilibriumState(0.0, 0.0)
    assert equilibrium(make_params(alpha=0.5, lam=0.001)) == EquilibriumState(0.0, 0.0)


def test_bounds_and_ode_limit_accept_a_tiny_equilibrium():
    p = make_params(alpha=1.5, lam=0.01)
    cap_u, cap_v = a_priori_bounds(p, 1.0, 1.0)
    assert cap_u == 1.0 and cap_v == 1.0
    outcome = classify_ode_limit(p, 1.0, 1.0, t_end=1.0)
    assert (outcome.u_star, outcome.v_star) == (equilibrium(p).u_star, equilibrium(p).v_star)
