"""Strict run-configuration parsing (JSON) and initial-profile builders.

A configuration file has blocks
    model     constants d1, d2, a, b, e, mu, rho, h0 plus nested kernel1,
              kernel2, weight, infection blocks
    numerics  dx, dt, t_end, domain_cap, record_every, tol_vanish,
              tol_spread (all optional, documented defaults)
    initial   u0 and v0 profile blocks
    output    directory, snapshots toggle
    eigen     optional: L1, L2, n for the eigenvalue subcommand
    ode       optional: u0, v0, t_end, dt for the homogeneous subcommand
    thresholds optional: n, tol, rel_tol, bracket for threshold searches

Parsing is strict: unknown keys, wrong-typed values and non-finite numbers
anywhere are violations (a JSON null counts as an absent key), and every
violation in the file is reported in one pass rather than failing on the
first. The numerics are checked against the model only when the model is
valid.

Defaults live on the block dataclasses (OutputConfig, EigenConfig,
OdeConfig, ThresholdConfig and simulator.SimConfig) and nowhere else: a block
reader returns only the keys present, so an absent key, a JSON null and a
wrong-typed value (reported) all leave the field at its dataclass default.
The numerics defaults that depend on the model are set here: dx = h0/20,
dt = the explicit stability limit 0.9/(d1+d2+a+b+e+G'(0)), t_end = 100,
domain_cap = 8*h0.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .kernels import KernelSpec, WeightSpec
from .model import InfectionFn, ModelParams, validate_constants, validate_params
from .simulator import SimConfig, stability_limit, validate_sim_config


@dataclass(frozen=True)
class ProfileSpec:
    family: str  # "bump" | "cosine" | "scaled"
    amplitude: float = 1.0
    sigma: float = 1.0
    base: "ProfileSpec | None" = None


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "."
    snapshots: bool = False


@dataclass(frozen=True)
class EigenConfig:
    L1: float
    L2: float
    n: int = 400


@dataclass(frozen=True)
class OdeConfig:
    u0: float = 1.0
    v0: float = 1.0
    t_end: float = 100.0
    dt: float = 0.01


@dataclass(frozen=True)
class ThresholdConfig:
    n: int = 241
    tol: float = 1e-6
    rel_tol: float = 1e-2
    bracket_lo: float | None = None
    bracket_hi: float | None = None


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    numerics: SimConfig
    u0: ProfileSpec
    v0: ProfileSpec
    output: OutputConfig
    eigen: EigenConfig | None
    ode: OdeConfig | None
    thresholds: ThresholdConfig
    raw: dict


def build_profile(spec: ProfileSpec, h0: float):
    """Density profile callable vanishing at +-h0 and positive inside."""
    if spec.family == "bump":
        amp = spec.amplitude
        return lambda x: amp * np.clip(1.0 - (np.asarray(x, float) / h0) ** 2, 0.0, None)
    if spec.family == "cosine":
        amp = spec.amplitude
        return lambda x: amp * np.clip(np.cos(np.pi * np.asarray(x, float) / (2.0 * h0)), 0.0, None)
    base = build_profile(spec.base, h0)
    sig = spec.sigma
    return lambda x: sig * base(x)


class _Section:
    """One config block with strict key accounting."""

    def __init__(self, data: dict, path: str, issues: list):
        self.data = data
        self.path = path
        self.issues = issues
        self.seen = set()

    def flag_unknown(self) -> None:
        for key in self.data:
            if key not in self.seen:
                self.issues.append(f"{self.path}: unknown key {key!r}")

    def get(self, key: str, default=None, required: bool = False):
        """The value under key; an absent key and a JSON null both give default."""
        self.seen.add(key)
        if self.data.get(key) is None:
            if required:
                self.issues.append(f"{self.path}.{key}: missing")
            return default
        return self.data[key]

    def number(self, key: str, default=None, required: bool = False):
        """A float; a wrong-typed value is reported and replaced by default."""
        val = self.get(key, required=required)
        if val is None:
            return default
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            self.issues.append(f"{self.path}.{key}: must be a number")
            return default
        if not abs(val) <= sys.float_info.max:  # NaN, infinities, ints beyond float range
            self.issues.append(f"{self.path}.{key}: must be finite")
            return default
        return float(val)

    def integer(self, key: str, default=None, required: bool = False):
        """An int; a wrong-typed value is reported and replaced by default."""
        val = self.get(key, required=required)
        if val is None:
            return default
        if isinstance(val, bool) or not isinstance(val, int):
            self.issues.append(f"{self.path}.{key}: must be an integer")
            return default
        return val

    def subsection(self, key: str, required: bool = False) -> "_Section | None":
        val = self.get(key, required=required)
        if val is None:
            return None
        if not isinstance(val, dict):
            self.issues.append(f"{self.path}.{key}: must be a block")
            return None
        return _Section(val, f"{self.path}.{key}", self.issues)


def _read(sec: _Section, cls, required=()) -> dict:
    """The keys of `sec` that are present and well typed, read as the fields of
    dataclass `cls` (int-annotated fields as integers, the rest as numbers)."""
    values = {}
    for f in fields(cls):
        read = sec.integer if f.type in (int, "int") else sec.number
        val = read(f.name, required=f.name in required)
        if val is not None:
            values[f.name] = val
    sec.flag_unknown()
    return values


def _nan_if_missing(value):
    return math.nan if value is None else value


def _parse_kernel(sec: _Section | None, issues: list):
    if sec is None:
        return None
    family = sec.get("family", required=True)
    spec = None
    try:
        if family == "uniform":
            spec = KernelSpec.uniform(_nan_if_missing(sec.number("radius", required=True)))
        elif family == "gaussian":
            spec = KernelSpec.gaussian(_nan_if_missing(sec.number("std", required=True)))
        elif family == "laplace":
            spec = KernelSpec.laplace(_nan_if_missing(sec.number("scale", required=True)))
        elif family == "power_tail":
            spec = KernelSpec.power_tail(
                _nan_if_missing(sec.number("exponent", required=True)),
                sec.number("cutoff", 1.0),
            )
        elif family is not None:
            issues.append(f"{sec.path}.family: unknown kernel family {family!r}")
    except ValueError as err:
        issues.append(f"{sec.path}: {err}")
    sec.flag_unknown()
    return spec


def _parse_weight(sec: _Section | None, issues: list):
    if sec is None:
        return None
    family = sec.get("family", required=True)
    spec = None
    try:
        if family == "kernel_tail":
            kernel = _parse_kernel(sec.subsection("kernel", required=True), issues)
            if kernel is not None:
                spec = WeightSpec.kernel_tail_of(kernel)
        elif family == "constant_on":
            spec = WeightSpec.constant_on(
                _nan_if_missing(sec.number("radius", required=True)),
                _nan_if_missing(sec.number("height", required=True)),
            )
        elif family == "table":
            points = sec.get("points", required=True)
            if points is not None:
                spec = WeightSpec.table(points)
        elif family is not None:
            issues.append(f"{sec.path}.family: unknown weight family {family!r}")
    except (ValueError, TypeError) as err:
        issues.append(f"{sec.path}: {err}")
    sec.flag_unknown()
    return spec


def _parse_infection(sec: _Section | None, issues: list):
    if sec is None:
        return None
    family = sec.get("family", "saturating")
    if family != "saturating":
        issues.append(f"{sec.path}.family: unknown infection family {family!r}")
        sec.flag_unknown()
        return None
    alpha = sec.number("alpha", required=True)
    lam = sec.number("lambda", 1.0)
    sec.flag_unknown()
    if alpha is None or lam is None:
        return None
    if not alpha > 0.0:
        issues.append(f"{sec.path}.alpha: must be > 0")
        return None
    if not 0.0 < lam <= 1.0:
        issues.append(f"{sec.path}.lambda: must lie in (0, 1]")
        return None
    return InfectionFn(alpha=alpha, lam=lam)


def _parse_profile(sec: _Section | None, issues: list, depth: int = 0):
    if sec is None:
        return None
    family = sec.get("family", required=True)
    spec = None
    if family in ("bump", "cosine"):
        amp = sec.number("amplitude", 1.0)
        if amp is not None and amp > 0.0:
            spec = ProfileSpec(family, amplitude=amp)
        elif amp is not None:
            issues.append(f"{sec.path}.amplitude: must be > 0")
    elif family == "scaled":
        if depth >= 4:
            issues.append(f"{sec.path}: scaled profiles nested too deep")
        else:
            sig = sec.number("sigma", required=True)
            base = _parse_profile(sec.subsection("base", required=True), issues, depth + 1)
            if sig is not None and base is not None:
                if sig > 0.0:
                    spec = ProfileSpec("scaled", sigma=sig, base=base)
                else:
                    issues.append(f"{sec.path}.sigma: must be > 0")
    elif family is not None:
        issues.append(f"{sec.path}.family: unknown profile family {family!r}")
    sec.flag_unknown()
    return spec


def _threshold_issues(thr: ThresholdConfig, given: dict) -> list:
    """Range violations of a thresholds block, reported before any solve."""
    issues = []
    if thr.n < 16:
        issues.append("n: must be >= 16")
    if not thr.tol > 0.0:
        issues.append("tol: must be > 0")
    if not 0.0 < thr.rel_tol < 1.0:
        issues.append("rel_tol: must lie strictly between 0 and 1")
    # Presence is read from the block itself, so a wrong-typed end (already
    # reported) does not count as a missing one too.
    for key, other in (("bracket_lo", "bracket_hi"), ("bracket_hi", "bracket_lo")):
        if given.get(key) is not None and given.get(other) is None:
            issues.append(f"{key}: needs {other} too")
    if thr.bracket_lo is not None and thr.bracket_hi is not None:
        if not 0.0 < thr.bracket_lo < thr.bracket_hi:
            issues.append("bracket_lo: must satisfy 0 < bracket_lo < bracket_hi")
    return [f"config.thresholds.{msg}" for msg in issues]


def parse_config_dict(data: dict):
    """Validate a parsed JSON document; returns (RunConfig | None, violations)."""
    issues: list = []
    if not isinstance(data, dict):
        return None, ["top level: must be an object"]
    root = _Section(data, "config", issues)

    model_sec = root.subsection("model", required=True)
    params = None
    if model_sec is not None:
        fields = {}
        for name in ("d1", "d2", "a", "b", "e", "mu", "h0"):
            fields[name] = model_sec.number(name, required=True)
        fields["rho"] = model_sec.number("rho", 0.0)
        kernel1 = _parse_kernel(model_sec.subsection("kernel1", required=True), issues)
        kernel2 = _parse_kernel(model_sec.subsection("kernel2", required=True), issues)
        weight = _parse_weight(model_sec.subsection("weight", required=True), issues)
        infection = _parse_infection(model_sec.subsection("infection", required=True), issues)
        model_sec.flag_unknown()
        pieces = list(fields.values()) + [kernel1, kernel2, weight, infection]
        if all(piece is not None for piece in pieces):
            params = ModelParams(
                kernel1=kernel1, kernel2=kernel2, weight=weight, infection=infection, **fields
            )
            bad = validate_params(params)
        else:
            bad = validate_constants(fields)  # the constants that did parse
        issues.extend(f"config.model: {msg}" for msg in bad)
        if bad:
            params = None  # numerics defaults and checks need a valid model

    # The numerics keys are read (and type-checked) even without a valid
    # model; their defaults and the checks against the model need one.
    given = _read(root.subsection("numerics") or _Section({}, "config.numerics", issues), SimConfig)
    numerics = None
    if params is not None:
        settings = {
            "dx": params.h0 / 20.0,
            "dt": stability_limit(params),
            "t_end": 100.0,
            "domain_cap": 8.0 * params.h0,
        }
        numerics = SimConfig(**{**settings, **given})
        for msg in validate_sim_config(params, numerics):
            issues.append(f"config.numerics: {msg}")

    u0 = v0 = None
    init_sec = root.subsection("initial")
    if init_sec is not None:
        u0 = _parse_profile(init_sec.subsection("u0", required=True), issues)
        v0 = _parse_profile(init_sec.subsection("v0", required=True), issues)
        init_sec.flag_unknown()
    else:
        u0 = v0 = ProfileSpec("bump")

    output = OutputConfig()
    out_sec = root.subsection("output")
    if out_sec is not None:
        given = {}
        for key, kind, noun in (("directory", str, "a string"), ("snapshots", bool, "a boolean")):
            val = out_sec.get(key)
            if isinstance(val, kind):
                given[key] = val
            elif val is not None:
                issues.append(f"config.output.{key}: must be {noun}")
        output = OutputConfig(**given)
        out_sec.flag_unknown()

    eigen = None
    eig_sec = root.subsection("eigen")
    if eig_sec is not None:
        given = _read(eig_sec, EigenConfig, required=("L1", "L2"))
        if "L1" in given and "L2" in given:
            eigen = EigenConfig(**given)
            if not (eigen.L2 > eigen.L1 and eigen.n >= 16):
                issues.append("config.eigen: needs L1 < L2 and n >= 16")
                eigen = None

    ode_cfg = None
    ode_sec = root.subsection("ode")
    if ode_sec is not None:
        ode_cfg = OdeConfig(**_read(ode_sec, OdeConfig))
        if ode_cfg.u0 < 0.0 or ode_cfg.v0 < 0.0 or ode_cfg.dt <= 0.0 or ode_cfg.t_end <= 0.0:
            issues.append("config.ode: needs u0, v0 >= 0 and dt, t_end > 0")

    thresholds = ThresholdConfig()
    thr_sec = root.subsection("thresholds")
    if thr_sec is not None:
        thresholds = ThresholdConfig(**_read(thr_sec, ThresholdConfig))
        issues.extend(_threshold_issues(thresholds, thr_sec.data))

    root.flag_unknown()
    if issues or params is None or numerics is None or u0 is None or v0 is None:
        return None, issues
    return (
        RunConfig(
            params=params,
            numerics=numerics,
            u0=u0,
            v0=v0,
            output=output,
            eigen=eigen,
            ode=ode_cfg,
            thresholds=thresholds,
            raw=data,
        ),
        [],
    )


def parse_config(path: str):
    """Load and validate a JSON run configuration from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            return None, [f"invalid JSON: {err}"]
    return parse_config_dict(data)
