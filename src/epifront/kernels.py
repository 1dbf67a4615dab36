"""Dispersal kernels and boundary weight functions.

Implements:
  - Symmetric unit-mass dispersal kernels on the line: uniform, gaussian,
    laplace, and power_tail (constant plateau near 0, |x|^-gamma decay).
  - Closed-form tail mass W_J(x) = integral of the kernel over [x, inf),
    the quantity that converts the outward dispersal flux across a front
    into a single weighted integral over the occupied region.
  - Finite-first-moment classification (power_tail with gamma <= 2 is the
    only family whose first moment diverges).
  - Boundary weights: a kernel tail, a constant plateau, or a sampled table
    with linear interpolation, plus a check of (W) (nonnegative, positive
    at 0, finite): by construction for gaussian and laplace tails, sampled
    for the rest.

Kernel evaluators are even in x by construction (they only see |x|), so
symmetry holds exactly in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tail mass below which the kernel is treated as zero for quadrature.
TAIL_CUTOFF_MASS = 1e-10
# erfcinv(2 * TAIL_CUTOFF_MASS), as scipy.special returns it: the standard
# normal's cutoff quantile over sqrt(2), so a gaussian's support radius is
# std * sqrt(2) times it.
GAUSSIAN_CUTOFF_QUANTILE = 4.49814728952926

# Each kernel family and the KernelSpec field holding its shape parameter.
KERNEL_SHAPE_FIELD = {"uniform": "radius", "gaussian": "std", "laplace": "scale", "power_tail": "exponent"}
WEIGHT_FAMILIES = ("kernel_tail", "constant_on", "table")


@dataclass(frozen=True)
class KernelSpec:
    """Parametric symmetric probability density on the line.

    Exactly one parameter set is active, selected by `family`:
      uniform:    density 1/(2*radius) on [-radius, radius]
      gaussian:   normal density with standard deviation `std`
      laplace:    exp(-|x|/scale) / (2*scale)
      power_tail: plateau on [-cutoff, cutoff], c*|x|^-exponent beyond;
                  requires exponent > 1 for unit mass

    Immutable after construction; safe to share across workers.
    """

    family: str
    radius: float = 0.0
    std: float = 0.0
    scale: float = 0.0
    exponent: float = 0.0
    cutoff: float = 1.0

    def __post_init__(self) -> None:
        if not (isinstance(self.family, str) and self.family in KERNEL_SHAPE_FIELD):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not getattr(self, KERNEL_SHAPE_FIELD[self.family]) > 0.0:
            raise ValueError(f"{self.family} kernel needs a positive shape parameter")
        if self.family == "power_tail":
            if self.exponent <= 1.0:
                raise ValueError("power_tail exponent must exceed 1 for unit mass")
            if not self.cutoff > 0.0:
                raise ValueError("power_tail cutoff must be positive")

    @classmethod
    def uniform(cls, radius: float) -> "KernelSpec":
        return cls("uniform", radius=float(radius))

    @classmethod
    def gaussian(cls, std: float) -> "KernelSpec":
        return cls("gaussian", std=float(std))

    @classmethod
    def laplace(cls, scale: float) -> "KernelSpec":
        return cls("laplace", scale=float(scale))

    @classmethod
    def power_tail(cls, exponent: float, cutoff: float = 1.0) -> "KernelSpec":
        return cls("power_tail", exponent=float(exponent), cutoff=float(cutoff))


def _split(a):
    """Veltkamp split of a into a 26-bit head and the exact remainder."""
    t = 134217729.0 * a  # 2**27 + 1
    head = t - (t - a)
    return head, a - head


def _cutoff_ratio_power(x0: float, ax, g: float):
    """(x0 / max(|x|, x0))**g, with the quotient's rounding put back.

    Raising the rounded quotient q alone would multiply its rounding by g.
    The remainder r = x0 - q*m is exact (Dekker's two-product, with m scaled
    into [0.5, 1) so the split cannot overflow), and x0/m = q (1 + r/x0) to
    first order, so the power is q**g * exp(g r / x0).
    """
    mant, ex = np.frexp(np.maximum(ax, x0))
    num = np.ldexp(x0, -ex)
    q = num / mant
    # |x| = inf: q = 0 and r is NaN; x0 / |x| below the subnormals: num = 0
    # and r / num is 0/0, a NaN that (W)'s finiteness check reports.
    with np.errstate(invalid="ignore"):
        prod = q * mant
        (qh, ql), (mh, ml) = _split(q), _split(mant)
        r = (num - prod) - (((qh * mh - prod) + qh * ml + ql * mh) + ql * ml)
        correction = g * np.nan_to_num(r) / num
    return q**g * np.exp(correction)


def kernel_eval(spec: KernelSpec, x):
    """Evaluate the density J(x); even in x, total on the reals."""
    ax = np.abs(np.asarray(x, dtype=float))
    if spec.family == "uniform":
        # Jump-average value at |x| = radius (ulp-tolerant, so grids whose
        # spacing carries linspace round-off still land on it): node-aligned
        # quadrature of the convolution then reproduces the unit mass exactly.
        height = 1.0 / (2.0 * spec.radius)
        band = 1e-12 * spec.radius
        out = np.where(ax < spec.radius - band, height, 0.0)
        out = out + np.where(np.abs(ax - spec.radius) <= band, 0.5 * height, 0.0)
    elif spec.family == "gaussian":
        s = spec.std
        out = np.exp(-0.5 * (ax / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    elif spec.family == "laplace":
        out = np.exp(-ax / spec.scale) / (2.0 * spec.scale)
    else:
        # Scale-free, so no power of x0 alone overflows: the plateau height
        # (g-1)/(2 g x0) times (x0/|x|)^g beyond x0, which gives unit mass.
        g, x0 = spec.exponent, spec.cutoff
        out = (g - 1.0) / (2.0 * g * x0) * _cutoff_ratio_power(x0, ax, g)
    return float(out) if out.ndim == 0 else out


def _const(value: float) -> np.ndarray:
    """value as a 0-d array: numpy converts a Python scalar operand at every
    operation and a 0-d array at none, with the same result."""
    return np.array(float(value))


def tail_formula(spec: KernelSpec):
    """The closed-form tail mass W_J of spec as a function of ax >= 0 (an
    array or a numpy scalar), unchecked: the formula behind kernel_tail,
    with spec's constants bound once, so the moving-front stage binds it per
    run and calls it at its positive front distances. The gaussian's is
    scipy's erfc, imported here: the one place a gaussian kernel loads
    scipy (support_radius and validate_weight take no gaussian tail
    values)."""
    if spec.family == "uniform":
        radius, width, zero = _const(spec.radius), _const(2.0 * spec.radius), _const(0.0)
        return lambda ax: np.maximum(radius - ax, zero) / width
    if spec.family == "gaussian":
        from scipy.special import erfc

        half, scale = _const(0.5), _const(spec.std * math.sqrt(2.0))
        return lambda ax: half * erfc(ax / scale)
    if spec.family == "laplace":
        half, scale = _const(0.5), _const(spec.scale)
        return lambda ax: half * np.exp(-ax / scale)
    g, x0 = spec.exponent, spec.cutoff

    def power_tail(ax):
        plateau = (g - 1.0) / (2.0 * g * x0) * np.maximum(x0 - ax, 0.0)
        return plateau + _cutoff_ratio_power(x0, ax, g - 1.0) / (2.0 * g)

    return power_tail


def kernel_tail(spec: KernelSpec, x):
    """Tail mass W_J(x) = integral of J over [x, inf), closed form per family.

    Requires x >= 0 (elementwise). Nonincreasing in x, with W_J(0) = 1/2 by
    symmetry of the unit-mass density.
    """
    ax = np.asarray(x, dtype=float)
    if (ax < 0.0).any():
        raise ValueError("kernel_tail argument must be nonnegative")
    out = tail_formula(spec)(ax)
    return float(out) if out.ndim == 0 else out


def support_radius(spec: KernelSpec) -> float:
    """Radius beyond which the one-sided tail mass drops below TAIL_CUTOFF_MASS.

    Quadrature treats J as zero outside [-radius, radius]; this bounds every
    convolution stencil. Closed form per family; inf beyond the float range.
    """
    if spec.family == "uniform":
        return spec.radius
    if spec.family == "gaussian":
        return spec.std * math.sqrt(2.0) * GAUSSIAN_CUTOFF_QUANTILE
    if spec.family == "laplace":
        return spec.scale * math.log(0.5 / TAIL_CUTOFF_MASS)
    g = spec.exponent
    try:
        return spec.cutoff * (2.0 * g * TAIL_CUTOFF_MASS) ** (-1.0 / (g - 1.0))
    except OverflowError:
        return math.inf


def has_finite_first_moment(spec: KernelSpec) -> bool:
    """True iff the first absolute moment of J converges (analytic per family)."""
    if spec.family == "power_tail":
        # x * x^-g integrable at infinity only for g > 2.
        return spec.exponent > 2.0
    return True


@dataclass(frozen=True)
class WeightSpec:
    """Boundary weight W on [0, inf): kernel tail, constant plateau, or table.

    table samples must start at 0 with strictly increasing abscissae; values
    are linearly interpolated and 0 beyond the last sample.
    """

    family: str
    kernel: KernelSpec | None = None
    radius: float = 0.0
    height: float = 0.0
    xs: tuple = ()
    ys: tuple = ()

    def __post_init__(self) -> None:
        if self.family not in WEIGHT_FAMILIES:
            raise ValueError(f"unknown weight family {self.family!r}")
        if self.family == "kernel_tail" and self.kernel is None:
            raise ValueError("kernel_tail weight needs a kernel")
        if self.family == "constant_on" and not self.radius > 0.0:
            raise ValueError("constant_on weight needs a positive radius")
        if self.family == "table":
            if len(self.xs) < 2 or len(self.xs) != len(self.ys):
                raise ValueError("table weight needs >= 2 (x, y) samples")
            if self.xs[0] != 0.0 or np.any(np.diff(self.xs) <= 0.0):
                raise ValueError("table abscissae must start at 0 and increase")

    @classmethod
    def kernel_tail_of(cls, kernel: KernelSpec) -> "WeightSpec":
        return cls("kernel_tail", kernel=kernel)

    @classmethod
    def constant_on(cls, radius: float, height: float) -> "WeightSpec":
        return cls("constant_on", radius=float(radius), height=float(height))

    @classmethod
    def table(cls, points) -> "WeightSpec":
        pairs = [(float(x), float(y)) for x, y in points]
        return cls("table", xs=tuple(x for x, _ in pairs), ys=tuple(y for _, y in pairs))


def weight_formula(spec: WeightSpec):
    """W as a function of ax >= 0 (an array or a numpy scalar), unchecked:
    the formula behind weight_eval, with spec's constants bound once."""
    if spec.family == "kernel_tail":
        return tail_formula(spec.kernel)
    if spec.family == "constant_on":
        return lambda ax: np.where(ax <= spec.radius, spec.height, 0.0)
    xs, ys = np.array(spec.xs, dtype=float), np.array(spec.ys, dtype=float)
    return lambda ax: np.interp(ax, xs, ys, right=0.0)


def weight_eval(spec: WeightSpec, x):
    """Evaluate W(x) for x >= 0 (elementwise)."""
    ax = np.asarray(x, dtype=float)
    if (ax < 0.0).any():
        raise ValueError("weight argument must be nonnegative")
    out = weight_formula(spec)(ax)
    return float(out) if out.ndim == 0 else out


def _table_values(spec: WeightSpec, hi: float) -> list:
    """A table's values at its knots in [0, hi] and at hi, where its extremes
    on [0, hi] lie (it is piecewise linear)."""
    return [y for xx, y in zip(spec.xs, spec.ys) if xx <= hi] + [weight_eval(spec, hi)]


def weight_sup(spec: WeightSpec, hi: float) -> float:
    """Supremum of W over [0, hi], exact per family."""
    if not hi >= 0.0:
        raise ValueError("weight_sup needs hi >= 0")
    if spec.family == "kernel_tail":
        return kernel_tail(spec.kernel, 0.0)  # tail is nonincreasing
    if spec.family == "constant_on":
        return max(spec.height, 0.0)
    return max(max(_table_values(spec, hi)), 0.0)


def weight_positive_on(spec: WeightSpec, hi: float) -> bool:
    """True iff W > 0 everywhere on [0, hi]."""
    if spec.family == "kernel_tail":
        k = spec.kernel
        if k.family == "uniform":
            return hi < k.radius
        return True  # gaussian / laplace / power_tail tails never vanish
    if spec.family == "constant_on":
        return spec.height > 0.0 and hi <= spec.radius
    return hi <= spec.xs[-1] and min(_table_values(spec, hi)) > 0.0


def kernel_positive_everywhere(spec: KernelSpec) -> bool:
    """True iff J(x) > 0 for every real x (compact support fails this)."""
    return spec.family != "uniform"


def validate_weight(spec: WeightSpec, probe_radius: float) -> list:
    """Violations of (W) sampled at 2001 evenly spaced points of
    [0, probe_radius]: W(0) > 0, nonnegative, finite. Empty when (W) holds.

    Violations are returned, not raised. A gaussian or laplace tail,
    0.5 erfc(x / (std sqrt 2)) or 0.5 exp(-x / scale), holds (W) by
    construction: W(0) = 1/2 and every value lies in [0, 1/2] for any
    positive float parameter, so it is not sampled on a finite interval.
    A uniform or power_tail tail can round to 0 at 0 or overflow, and is
    sampled. A table is also sampled at its knots, where its extremes lie,
    so its sign verdict is exact.
    """
    if not probe_radius > 0.0:
        raise ValueError("probe_radius must be positive")
    if spec.family == "kernel_tail" and spec.kernel.family in ("gaussian", "laplace") and math.isfinite(probe_radius):
        return []
    xs = np.linspace(0.0, probe_radius, 2001)
    if spec.family == "table":
        xs = np.union1d(xs, [x for x in spec.xs if x <= probe_radius])
    vals = np.asarray(weight_eval(spec, xs), dtype=float)
    messages = []
    if not vals[0] > 0.0:
        messages.append("W(0) must be positive")
    if vals.min() < 0.0:
        messages.append("negative weight values sampled")
    if not np.all(np.isfinite(vals)):
        messages.append("non-finite weight values sampled")
    return messages
