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
    with linear interpolation, plus a sampling-based validity report
    (nonnegative, positive at 0, bounded, finite Lipschitz constant).

Kernel evaluators are even in x by construction (they only see |x|), so
symmetry holds exactly in floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, erfcinv

# Tail mass below which the kernel is treated as zero for quadrature.
TAIL_CUTOFF_MASS = 1e-10

_KERNEL_FAMILIES = ("uniform", "gaussian", "laplace", "power_tail")
_WEIGHT_FAMILIES = ("kernel_tail", "constant_on", "table")


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
        if self.family not in _KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        active = {
            "uniform": self.radius,
            "gaussian": self.std,
            "laplace": self.scale,
            "power_tail": self.exponent,
        }[self.family]
        if not active > 0.0:
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


def _power_norm(spec: KernelSpec) -> float:
    # Unit mass: 2*c*x0^(1-g)*(1 + 1/(g-1)) = 1  with x0 = cutoff, g = exponent.
    g, x0 = spec.exponent, spec.cutoff
    return (g - 1.0) / (2.0 * g) * x0 ** (g - 1.0)


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
        c = _power_norm(spec)
        out = c * np.maximum(ax, spec.cutoff) ** (-spec.exponent)
    return float(out) if out.ndim == 0 else out


def kernel_tail(spec: KernelSpec, x):
    """Tail mass W_J(x) = integral of J over [x, inf), closed form per family.

    Requires x >= 0 (elementwise). Nonincreasing in x, with W_J(0) = 1/2 by
    symmetry of the unit-mass density.
    """
    ax = np.asarray(x, dtype=float)
    if (ax < 0.0).any():
        raise ValueError("kernel_tail argument must be nonnegative")
    if spec.family == "uniform":
        out = np.maximum(spec.radius - ax, 0.0) / (2.0 * spec.radius)
    elif spec.family == "gaussian":
        out = 0.5 * erfc(ax / (spec.std * math.sqrt(2.0)))
    elif spec.family == "laplace":
        out = 0.5 * np.exp(-ax / spec.scale)
    else:
        g, x0 = spec.exponent, spec.cutoff
        c = _power_norm(spec)
        plateau = c * np.maximum(x0 - ax, 0.0) * x0 ** (-g)
        decay = c * np.maximum(ax, x0) ** (1.0 - g) / (g - 1.0)
        out = plateau + decay
    return float(out) if out.ndim == 0 else out


def support_radius(spec: KernelSpec, tail_mass: float = TAIL_CUTOFF_MASS) -> float:
    """Radius beyond which the one-sided tail mass drops below `tail_mass`.

    Quadrature treats J as zero outside [-radius, radius]; this bounds every
    convolution stencil. Closed form per family; inf beyond the float range.
    """
    if spec.family == "uniform":
        return spec.radius
    if spec.family == "gaussian":
        return spec.std * math.sqrt(2.0) * float(erfcinv(2.0 * tail_mass))
    if spec.family == "laplace":
        return spec.scale * math.log(0.5 / tail_mass)
    g = spec.exponent
    c = _power_norm(spec)
    try:
        return (c / (tail_mass * (g - 1.0))) ** (1.0 / (g - 1.0))
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
        if self.family not in _WEIGHT_FAMILIES:
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
        xs, ys = zip(*((float(x), float(y)) for x, y in points))
        return cls("table", xs=xs, ys=ys)


def weight_eval(spec: WeightSpec, x):
    """Evaluate W(x) for x >= 0 (elementwise)."""
    ax = np.asarray(x, dtype=float)
    if (ax < 0.0).any():
        raise ValueError("weight argument must be nonnegative")
    if spec.family == "kernel_tail":
        return kernel_tail(spec.kernel, ax if ax.ndim else float(ax))
    if spec.family == "constant_on":
        out = np.where(ax <= spec.radius, spec.height, 0.0)
    else:
        out = np.interp(ax, spec.xs, spec.ys, right=0.0)
    return float(out) if out.ndim == 0 else out


def weight_sup(spec: WeightSpec, hi: float) -> float:
    """Supremum of W over [0, hi], exact per family."""
    if not hi >= 0.0:
        raise ValueError("weight_sup needs hi >= 0")
    if spec.family == "kernel_tail":
        return kernel_tail(spec.kernel, 0.0)  # tail is nonincreasing
    if spec.family == "constant_on":
        return max(spec.height, 0.0)
    knots = [y for xx, y in zip(spec.xs, spec.ys) if xx <= hi]
    knots.append(weight_eval(spec, hi))
    return max(max(knots), 0.0)


def weight_positive_on(spec: WeightSpec, hi: float) -> bool:
    """True iff W > 0 everywhere on [0, hi]."""
    if spec.family == "kernel_tail":
        k = spec.kernel
        if k.family == "uniform":
            return hi < k.radius
        return True  # gaussian / laplace / power_tail tails never vanish
    if spec.family == "constant_on":
        return spec.height > 0.0 and hi <= spec.radius
    # Piecewise linear: positivity on [0, hi] is decided at knots and at hi.
    if hi > spec.xs[-1]:
        return False
    vals = [y for xx, y in zip(spec.xs, spec.ys) if xx <= hi]
    vals.append(weight_eval(spec, hi))
    return min(vals) > 0.0


def kernel_positive_everywhere(spec: KernelSpec) -> bool:
    """True iff J(x) > 0 for every real x (compact support fails this)."""
    return spec.family != "uniform"


@dataclass(frozen=True)
class WeightReport:
    """Sampled validity report for a boundary weight."""

    ok: bool
    value_at_zero: float
    min_value: float
    sup_value: float
    lipschitz: float
    messages: tuple


def validate_weight(spec: WeightSpec, probe_radius: float, samples: int = 2001) -> WeightReport:
    """Probe W on [0, probe_radius]: nonnegativity, W(0) > 0, bound, Lipschitz.

    Violations are reported, not raised; the Lipschitz constant is the largest
    sampled secant slope, a lower estimate that is exact for piecewise-linear
    weights once samples fall inside single segments. A table is also sampled
    at its knots, where its extremes lie, so its sign verdict is exact.
    """
    if not probe_radius > 0.0:
        raise ValueError("probe_radius must be positive")
    xs = np.linspace(0.0, probe_radius, samples)
    if spec.family == "table":
        xs = np.union1d(xs, [x for x in spec.xs if x <= probe_radius])
    vals = np.asarray(weight_eval(spec, xs), dtype=float)
    w0 = float(vals[0])
    slopes = np.abs(np.diff(vals)) / np.diff(xs)
    messages = []
    if not w0 > 0.0:
        messages.append("W(0) must be positive")
    if vals.min() < 0.0:
        messages.append("negative weight values sampled")
    if not np.all(np.isfinite(vals)):
        messages.append("non-finite weight values sampled")
    return WeightReport(
        ok=not messages,
        value_at_zero=w0,
        min_value=float(vals.min()),
        sup_value=float(vals.max()),
        lipschitz=float(slopes.max()),
        messages=tuple(messages),
    )
