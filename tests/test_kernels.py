"""Kernel and weight behavior: point values, tails, moments, validity reports."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc, erfcinv

from epifront import (
    KernelSpec,
    WeightSpec,
    has_finite_first_moment,
    kernel_eval,
    kernel_tail,
    support_radius,
    validate_weight,
    weight_eval,
)
from epifront.kernels import KERNEL_SHAPE_FIELD, TAIL_CUTOFF_MASS

ALL_KERNELS = [
    KernelSpec.uniform(1.0),
    KernelSpec.uniform(0.4),
    KernelSpec.gaussian(1.0),
    KernelSpec.gaussian(0.3),
    KernelSpec.laplace(0.7),
    KernelSpec.power_tail(2.5),
    KernelSpec.power_tail(1.5, cutoff=0.5),
]


def normal_ccdf_series(x: float) -> float:
    """Upper tail of the standard normal via the Taylor series of the cdf.

    Independent oracle for the gaussian kernel tail (no erfc involved).
    """
    pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    term = x
    total = x
    for k in range(1, 60):
        term *= x * x / (2.0 * k + 1.0)
        total += term
    return 0.5 - pdf * total


def test_uniform_point_values():
    k = KernelSpec.uniform(1.0)
    assert kernel_eval(k, 0.0) == 0.5
    assert kernel_eval(k, 2.0) == 0.0


def test_gaussian_point_value():
    k = KernelSpec.gaussian(1.0)
    assert kernel_eval(k, 0.0) == pytest.approx(0.3989423, abs=1e-7)


def test_uniform_tail_values():
    k = KernelSpec.uniform(1.0)
    assert kernel_tail(k, 0.0) == 0.5
    assert kernel_tail(k, 0.5) == 0.25


def test_gaussian_tail_against_quadrature_and_series():
    k = KernelSpec.gaussian(1.0)
    got = kernel_tail(k, 1.0)
    oracle, _ = quad(lambda s: kernel_eval(k, s), 1.0, support_radius(k), limit=200)
    assert got == pytest.approx(0.158655, abs=1e-6)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(normal_ccdf_series(1.0), abs=1e-12)


def test_tail_rejects_negative_argument():
    with pytest.raises(ValueError):
        kernel_tail(KernelSpec.gaussian(1.0), -0.1)
    with pytest.raises(ValueError):
        kernel_tail(KernelSpec.uniform(1.0), np.array([0.5, -1e-9]))


def test_first_moment_classification():
    assert has_finite_first_moment(KernelSpec.gaussian(1.0))
    assert not has_finite_first_moment(KernelSpec.power_tail(1.5))
    assert has_finite_first_moment(KernelSpec.power_tail(2.5))
    assert not has_finite_first_moment(KernelSpec.power_tail(2.0))


@pytest.mark.parametrize("spec", ALL_KERNELS)
def test_symmetry_exact(spec):
    rng = np.random.default_rng(11)
    xs = rng.uniform(-3.0 * min(support_radius(spec), 50.0), 3.0 * min(support_radius(spec), 50.0), 500)
    assert np.array_equal(kernel_eval(spec, xs), kernel_eval(spec, -xs))


@pytest.mark.parametrize("spec", ALL_KERNELS)
def test_tail_nonincreasing_on_random_pairs(spec):
    rng = np.random.default_rng(7)
    hi = min(support_radius(spec), 100.0)
    pairs = np.sort(rng.uniform(0.0, 1.2 * hi, (1000, 2)), axis=1)
    lo_vals = kernel_tail(spec, pairs[:, 0])
    hi_vals = kernel_tail(spec, pairs[:, 1])
    assert np.all(lo_vals >= hi_vals)


@pytest.mark.parametrize("spec", ALL_KERNELS)
def test_tail_at_zero_is_half(spec):
    assert kernel_tail(spec, 0.0) == pytest.approx(0.5, abs=1e-8)


@pytest.mark.parametrize("spec", ALL_KERNELS)
def test_tail_derivative_matches_density(spec):
    # d/dx W_J = -J away from the (measure-zero) kink points of each family.
    rng = np.random.default_rng(5)
    hi = min(support_radius(spec), 20.0)
    xs = rng.uniform(1e-3, 0.9 * hi, 100)
    kinks = []
    if spec.family == "uniform":
        kinks = [spec.radius]
    elif spec.family == "power_tail":
        kinks = [spec.cutoff]
    h = 1e-6
    for kink in kinks:
        xs = xs[np.abs(xs - kink) > 10.0 * h]
    fd = (kernel_tail(spec, xs + h) - kernel_tail(spec, xs - h)) / (2.0 * h)
    assert np.max(np.abs(fd + kernel_eval(spec, xs))) < 1e-5


@pytest.mark.parametrize("spec", ALL_KERNELS[:5])
def test_normalization_trapezoid(spec):
    # Unit mass by trapezoid on a grid extending one cell beyond the support
    # (the jump-average convention at a uniform kernel's edge needs the
    # flanking zero node to integrate exactly).
    r = support_radius(spec)
    n = 400001
    xs = np.linspace(-r, r, n)
    dx = xs[1] - xs[0]
    xs = np.concatenate(([xs[0] - dx], xs, [xs[-1] + dx]))
    vals = kernel_eval(spec, xs)
    total = np.trapezoid(vals, xs)
    assert total == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("spec", [KernelSpec.power_tail(2.5), KernelSpec.power_tail(1.5, cutoff=0.5)])
def test_normalization_power_tail_quadrature(spec):
    # Heavy tails have astronomically wide effective support; adaptive
    # quadrature replaces the uniform trapezoid as the unit-mass oracle.
    body, _ = quad(lambda s: kernel_eval(spec, s), 0.0, spec.cutoff)
    tail, _ = quad(lambda s: kernel_eval(spec, s), spec.cutoff, np.inf)
    assert 2.0 * (body + tail) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("cutoff", [0.1, 10.0])
def test_a_steep_power_tail_keeps_unit_mass_and_finite_values(cutoff):
    # cutoff**(exponent - 1) alone under- or overflows at exponent 500; the
    # kernel, its tail mass and its support radius must not.
    spec = KernelSpec.power_tail(500.0, cutoff)
    xs = np.linspace(0.0, 3.0 * cutoff, 3001)
    vals, tails = kernel_eval(spec, xs), kernel_tail(spec, xs)
    assert np.isfinite(vals).all() and np.isfinite(tails).all() and tails.min() >= 0.0
    assert vals[0] == pytest.approx(499.0 / (1000.0 * cutoff), rel=1e-15)
    body, _ = quad(lambda s: kernel_eval(spec, s), 0.0, cutoff)
    tail, _ = quad(lambda s: kernel_eval(spec, s), cutoff, np.inf)
    assert 2.0 * (body + tail) == pytest.approx(1.0, abs=1e-8)
    assert kernel_tail(spec, 0.0) == 0.5 and kernel_tail(spec, cutoff) == pytest.approx(1.0 / 1000.0, rel=1e-15)
    radius = support_radius(spec)
    assert cutoff < radius < 2.0 * cutoff
    assert kernel_tail(spec, radius) == pytest.approx(1e-10, rel=1e-12)


@pytest.mark.parametrize("exponent", [1.5, 3.0, 50.0, 500.0])
def test_power_tail_values_are_within_5e_16_of_the_exact_ones(exponent):
    # (x0/|x|)^g from a rounded quotient alone would be off by about g/2 ulp.
    g = Decimal(exponent)
    for cutoff in (0.1, 0.7, 3.0):
        x0 = Decimal(cutoff)
        xs = cutoff * np.concatenate([np.linspace(0.0, 2.0, 161), 1.0 + np.linspace(1e-9, 1e-2, 40)])
        spec = KernelSpec.power_tail(exponent, cutoff)
        vals, tails = kernel_eval(spec, xs), kernel_tail(spec, xs)
        assert kernel_eval(spec, math.inf) == 0.0 and kernel_tail(spec, math.inf) == 0.0
        with localcontext() as ctx:
            ctx.prec = 40
            for x, val, tail in zip(xs, vals, tails):
                ratio = x0 / max(Decimal(x), x0)
                exact = (g - 1) / (2 * g * x0) * ratio**g
                exact_tail = (g - 1) / (2 * g * x0) * max(x0 - Decimal(x), 0) + ratio ** (g - 1) / (2 * g)
                assert abs(Decimal(val) / exact - 1) <= Decimal("5e-16"), (cutoff, x)
                assert abs(Decimal(tail) / exact_tail - 1) <= Decimal("5e-16"), (cutoff, x)


@pytest.mark.parametrize("spec", ALL_KERNELS)
def test_tail_matches_quadrature(spec):
    for x in (0.1, 0.37, 1.3):
        if spec.family == "power_tail":
            # Split at the plateau edge; the decay piece runs to infinity.
            mid = max(x, spec.cutoff)
            head, _ = quad(lambda s: kernel_eval(spec, s), x, mid, limit=400)
            tail, _ = quad(lambda s: kernel_eval(spec, s), mid, np.inf, limit=400)
            oracle = head + tail
        else:
            oracle, _ = quad(lambda s: kernel_eval(spec, s), x, support_radius(spec), limit=400)
        assert kernel_tail(spec, x) == pytest.approx(oracle, abs=2e-8)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec.uniform(0.0)
    with pytest.raises(ValueError):
        KernelSpec.power_tail(1.0)
    with pytest.raises(ValueError):
        KernelSpec("nope")


def test_weight_kernel_tail_report():
    w = WeightSpec.kernel_tail_of(KernelSpec.uniform(1.0))
    assert validate_weight(w, probe_radius=2.0) == []


@pytest.mark.parametrize("std", [5e-324, 1e-300, 0.01, 0.1, 0.3, 0.5, 1.0, 2.5, 7.3, 1e300])
def test_a_gaussian_support_radius_is_scipys_cutoff_quantile(std):
    # support_radius holds erfcinv(2 TAIL_CUTOFF_MASS) as a constant; it must
    # be scipy's value for the current cutoff mass, bit for bit.
    expected = std * math.sqrt(2.0) * float(erfcinv(2.0 * TAIL_CUTOFF_MASS))
    assert support_radius(KernelSpec.gaussian(std)) == expected


def _sampled_tail_verdict(family: str, param: float, probe_radius: float) -> list:
    """(W) violations of a gaussian or laplace tail sampled at 2001 evenly
    spaced points of [0, probe_radius]: the check validate_weight runs on
    the families it samples."""
    xs = np.linspace(0.0, probe_radius, 2001)
    with np.errstate(all="ignore"):
        if family == "gaussian":
            vals = 0.5 * erfc(xs / (param * math.sqrt(2.0)))
        else:
            vals = 0.5 * np.exp(-xs / param)
    messages = []
    if not vals[0] > 0.0:
        messages.append("W(0) must be positive")
    if vals.min() < 0.0:
        messages.append("negative weight values sampled")
    if not np.all(np.isfinite(vals)):
        messages.append("non-finite weight values sampled")
    return messages


POSITIVE_FLOATS = st.floats(min_value=5e-324, max_value=1.7e308)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(["gaussian", "laplace"]), POSITIVE_FLOATS, POSITIVE_FLOATS)
@example("gaussian", 5e-324, 1.7e308)
@example("gaussian", 1.7e308, 5e-324)
@example("gaussian", 1.7e308, 1.7e308)
@example("laplace", 5e-324, 1.7e308)
@example("laplace", 1.7e308, 5e-324)
def test_gaussian_and_laplace_tails_pass_W_unsampled_as_sampled(family, param, probe_radius):
    kernel = KernelSpec(family, **{KERNEL_SHAPE_FIELD[family]: param})
    expected = _sampled_tail_verdict(family, param, probe_radius)
    assert expected == []
    assert validate_weight(WeightSpec.kernel_tail_of(kernel), probe_radius) == expected


@pytest.mark.parametrize(
    "kernel, probe_radius, messages",
    [
        # 1e308 - 0 over 2e308 = inf rounds W(0) to 0
        (KernelSpec.uniform(1e308), 10.0, ["W(0) must be positive"]),
        # x0 scaled by 2**-662 underflows to 0, and the ratio's remainder is 0/0
        (KernelSpec.power_tail(1.457e5, 6.3e-188), 2.9e202, ["non-finite weight values sampled"]),
        # linspace over [0, inf] starts at NaN: an infinite interval stays sampled
        (KernelSpec.gaussian(0.5), math.inf, ["W(0) must be positive", "non-finite weight values sampled"]),
        (KernelSpec.laplace(0.5), math.inf, ["W(0) must be positive", "non-finite weight values sampled"]),
    ],
    ids=["uniform_radius_1e308", "power_tail_overflow", "gaussian_infinite_probe", "laplace_infinite_probe"],
)
def test_tails_that_can_fail_W_are_still_sampled(kernel, probe_radius, messages):
    with np.errstate(all="ignore"):
        assert validate_weight(WeightSpec.kernel_tail_of(kernel), probe_radius) == messages


def test_weight_zero_at_origin_fails():
    messages = validate_weight(WeightSpec.constant_on(1.0, 0.0), probe_radius=2.0)
    assert messages
    assert any("W(0)" in msg for msg in messages)


def test_weight_table_report():
    w = WeightSpec.table([(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)])
    assert validate_weight(w, probe_radius=2.0) == []
    assert weight_eval(w, 0.5) == pytest.approx(0.75)
    assert weight_eval(w, 3.0) == 0.0


def test_a_table_with_no_points_states_the_sample_rule():
    with pytest.raises(ValueError, match=r"table weight needs >= 2 \(x, y\) samples"):
        WeightSpec.table([])


def test_weight_negative_values_reported():
    w = WeightSpec.table([(0.0, 1.0), (1.0, -0.5)])
    messages = validate_weight(w, probe_radius=1.0)
    assert messages
    assert any("negative" in msg for msg in messages)


def test_weight_positivity_window():
    from epifront.kernels import kernel_positive_everywhere, weight_positive_on

    assert kernel_positive_everywhere(KernelSpec.gaussian(0.5))
    assert kernel_positive_everywhere(KernelSpec.laplace(0.5))
    assert kernel_positive_everywhere(KernelSpec.power_tail(2.5))
    assert not kernel_positive_everywhere(KernelSpec.uniform(1.0))
    tail = WeightSpec.kernel_tail_of(KernelSpec.uniform(1.0))
    assert weight_positive_on(tail, 0.9)
    assert not weight_positive_on(tail, 1.5)
    assert weight_positive_on(WeightSpec.kernel_tail_of(KernelSpec.gaussian(1.0)), 50.0)
    assert weight_positive_on(WeightSpec.constant_on(2.0, 0.3), 2.0)
    assert not weight_positive_on(WeightSpec.constant_on(2.0, 0.3), 2.5)
    table = WeightSpec.table([(0.0, 1.0), (1.0, 0.5), (2.0, 0.0)])
    assert weight_positive_on(table, 1.9)
    assert not weight_positive_on(table, 2.0)


def test_weight_sup_per_family():
    from epifront.kernels import weight_sup

    assert weight_sup(WeightSpec.kernel_tail_of(KernelSpec.gaussian(1.0)), 3.0) == 0.5
    assert weight_sup(WeightSpec.constant_on(1.0, 0.7), 5.0) == 0.7
    table = WeightSpec.table([(0.0, 0.2), (1.0, 0.9), (2.0, 0.1)])
    assert weight_sup(table, 0.5) == pytest.approx(0.55)  # interp at the probe end
    assert weight_sup(table, 2.0) == 0.9


def test_weight_bad_constructions():
    with pytest.raises(ValueError):
        WeightSpec.table([(0.5, 1.0), (1.0, 0.5)])  # must start at 0
    with pytest.raises(ValueError):
        WeightSpec.table([(0.0, 1.0)])  # needs two samples
    with pytest.raises(ValueError):
        weight_eval(WeightSpec.constant_on(1.0, 1.0), -0.5)
