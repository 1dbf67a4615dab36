"""step keeps its invariants for every kernel and boundary-weight family."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epifront import KernelSpec, SimConfig, WeightSpec, a_priori_bounds
from epifront.kernels import validate_weight
from epifront.simulator import (
    DomainExhausted,
    Grid,
    SimState,
    _Stage,
    quad_weights,
    sample_profile,
    stability_limit,
    step,
)
from helpers import bump_profile, make_params

KERNELS = st.one_of(
    st.floats(0.5, 1.5).map(KernelSpec.uniform),
    st.floats(0.3, 1.0).map(KernelSpec.gaussian),
    st.floats(0.2, 0.8).map(KernelSpec.laplace),
    st.tuples(st.floats(2.2, 4.0), st.floats(0.3, 1.0)).map(lambda a: KernelSpec.power_tail(*a)),
)


@st.composite
def weights(draw, kernel1):
    family = draw(st.sampled_from(("tail_of_J1", "kernel_tail", "constant_on", "table")))
    if family == "tail_of_J1":
        return WeightSpec.kernel_tail_of(kernel1)
    if family == "kernel_tail":
        return WeightSpec.kernel_tail_of(draw(KERNELS))
    if family == "constant_on":
        return WeightSpec.constant_on(draw(st.floats(0.2, 2.0)), draw(st.floats(0.1, 1.0)))
    knots = sorted(draw(st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3, unique=True)))
    heights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(knots) + 1, max_size=len(knots) + 1))
    return WeightSpec.table(list(zip([0.0] + knots, heights)))


@st.composite
def cases(draw):
    k1 = draw(KERNELS)
    p = make_params(
        alpha=draw(st.floats(0.5, 4.0)),
        mu=draw(st.floats(0.05, 2.0)),
        rho=draw(st.floats(0.0, 1.0)),
        h0=draw(st.floats(0.5, 1.2)),
        kernel=k1,
        kernel2=draw(KERNELS),
        weight=draw(weights(k1)),
    )
    cfg = SimConfig(dx=0.05, dt=0.5 * stability_limit(p), t_end=1.0, domain_cap=4.0)
    amplitude = draw(st.floats(0.1, 2.0))
    return p, cfg, amplitude


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(cases())
def test_step_invariants(case):
    p, cfg, amplitude = case
    grid = Grid(cfg.dx, cfg.domain_cap)
    profile = bump_profile(p.h0, amplitude)
    state = SimState(
        t=0.0, g=-p.h0, h=p.h0,
        u=sample_profile(profile, grid, p.h0),
        v=sample_profile(profile, grid, p.h0),
        grid=grid,
    )
    cap_u, cap_v = a_priori_bounds(p, state.u.max(), state.v.max())
    for _ in range(40):
        try:
            nxt = step(p, cfg, state)
        except DomainExhausted:
            break
        outside = (grid.x <= nxt.g) | (grid.x >= nxt.h)
        for dens, cap in ((nxt.u, cap_u), (nxt.v, cap_v)):
            assert 0.0 <= dens.min() and dens.max() <= cap * (1.0 + 1e-9)
            assert not dens[outside].any()
        assert nxt.h >= state.h and nxt.g <= state.g
        # Symmetric data on a symmetric grid stays mirror symmetric.
        assert abs(nxt.g + nxt.h) < 1e-10
        assert np.abs(nxt.u - nxt.u[::-1]).max() < 1e-10
        assert np.abs(nxt.v - nxt.v[::-1]).max() < 1e-10
        state = nxt


FLUX_GRID = Grid(0.05, 4.0)
REACH = 2.0 * FLUX_GRID.cap  # the longest front-to-node distance on the grid


@st.composite
def flux_cases(draw):
    k1 = draw(KERNELS)
    # Besides the step's weights: a table that turns negative only beyond
    # every distance the front law reads, which (W) on [0, REACH] admits.
    beyond_reach = st.floats(0.1, 1.0).map(lambda y0: WeightSpec.table([(0.0, y0), (REACH, 0.0), (REACH + 1.0, -1.0)]))
    p = make_params(
        rho=draw(st.floats(0.0, 5.0)),
        kernel=k1,
        kernel2=draw(KERNELS),
        weight=draw(st.one_of(weights(k1), beyond_reach)),
    )
    g = draw(st.floats(-FLUX_GRID.cap, FLUX_GRID.cap))
    h = draw(st.floats(g, FLUX_GRID.cap))
    return p, g, h, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(flux_cases())
def test_front_fluxes_are_nonnegative_for_every_W_valid_weight(case):
    # The guarantee that lets the front law go without a runtime sign check:
    # nonnegative densities and a weight that satisfies (W) on [0, REACH]
    # give nonnegative fluxes at both fronts, for every kernel and weight family.
    p, g, h, seed = case
    assume(not validate_weight(p.weight, REACH))
    rng = np.random.default_rng(seed)
    u, v = rng.uniform(0.0, 10.0, (2, FLUX_GRID.n)) * (rng.random((2, FLUX_GRID.n)) < 0.8)
    w, lo, hi = quad_weights(FLUX_GRID, g, h)
    stage = _Stage(p, FLUX_GRID.dx, FLUX_GRID.n)  # the stage a run on FLUX_GRID steps with
    h_rate, g_rate = stage.fronts(FLUX_GRID.x[lo:hi], w * np.array((u[lo:hi], v[lo:hi])), g, h)
    assert h_rate >= 0.0 >= g_rate
