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

Defaults live on the block dataclasses (OutputConfig, EigenConfig, OdeConfig,
simulator.SimConfig, thresholds.ThresholdConfig) and nowhere else: a block
reader returns only the keys present, so an absent key, a JSON null and a
wrong-typed value (reported) all leave the field at its dataclass default;
an absent block other than eigen is its dataclass with every default.
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

from .kernels import KERNEL_SHAPE_FIELD, WEIGHT_FAMILIES, KernelSpec, WeightSpec
from .model import InfectionFn, ModelParams, validate_constants
from .simulator import SimConfig, stability_limit, validate_sim_config
from .spectral import EIGEN_NODES, MIN_EIGEN_NODES
from .thresholds import ThresholdConfig


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
    n: int = EIGEN_NODES


@dataclass(frozen=True)
class OdeConfig:
    u0: float = 1.0
    v0: float = 1.0
    t_end: float = 100.0
    dt: float = 0.01


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    numerics: SimConfig
    u0: ProfileSpec
    v0: ProfileSpec
    output: OutputConfig
    eigen: EigenConfig | None
    ode: OdeConfig
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


def number_issue(value) -> str | None:
    """Why a JSON value is not a finite number (a bool, NaN, inf, a huge int), or None."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "must be a number"
    return None if abs(value) <= sys.float_info.max else "must be finite"


def load_json(path: str):
    """(document, None) for a UTF-8 JSON file, else (None, the decoding error)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh), None
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            return None, err


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
        if issue := number_issue(val):
            self.issues.append(f"{self.path}.{key}: {issue}")
            return default
        return float(val)

    def subsection(self, key: str, required: bool = False) -> "_Section | None":
        val = self.get(key, required=required)
        if val is None:
            return None
        if not isinstance(val, dict):
            self.issues.append(f"{self.path}.{key}: must be a block")
            return None
        return _Section(val, f"{self.path}.{key}", self.issues)


# The JSON type test of a block field annotated int, bool or str, and its noun.
_TYPED_FIELDS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _read(sec: _Section, cls, required=()) -> dict:
    """The keys of `sec` that are present and well typed, read as the fields of
    dataclass `cls` by their annotation: int, bool and str fields as those JSON
    types (`must be an integer`, `a boolean`, `a string`), the rest as numbers;
    then every unknown key is reported."""
    values = {}
    for f in fields(cls):
        if f.type in _TYPED_FIELDS:
            is_kind, noun = _TYPED_FIELDS[f.type]
            val = sec.get(f.name, required=f.name in required)
            if val is not None and not is_kind(val):
                sec.issues.append(f"{sec.path}.{f.name}: must be {noun}")
                val = None
        else:
            val = sec.number(f.name, required=f.name in required)
        if val is not None:
            values[f.name] = val
    sec.flag_unknown()
    return values


def _family(sec: _Section, noun: str, families, default=None):
    """The block's family when it is one of `families`, else None after one
    line (`missing`, or an unknown family); the block's other keys belong to
    that family, so the caller then reads none of them."""
    family = sec.get("family", default, required=default is None)
    if family is not None and not (isinstance(family, str) and family in families):
        sec.issues.append(f"{sec.path}.family: unknown {noun} family {family!r}")
        return None
    return family


def _parse_kernel(sec: _Section | None):
    if sec is None or (family := _family(sec, "kernel", KERNEL_SHAPE_FIELD)) is None:
        return None
    spec = None
    shape = KERNEL_SHAPE_FIELD[family]
    values = {shape: sec.number(shape, required=True)}
    if family == "power_tail":
        values["cutoff"] = sec.number("cutoff", 1.0)
    if values[shape] is not None:  # a missing or wrong-typed shape is already reported
        try:
            spec = KernelSpec(family, **values)
        except ValueError as err:
            sec.issues.append(f"{sec.path}: {err}")
    sec.flag_unknown()
    return spec


def _points_issue(points) -> str | None:
    """Why a table's points are not a list of [x, y] pairs of finite numbers
    (number_issue), or None; the first bad point is named by its index."""
    if not isinstance(points, list):
        return "must be a list of [x, y] pairs"
    for i, point in enumerate(points):
        if not (isinstance(point, list) and len(point) == 2):
            return f"point {i} must be an [x, y] pair"
        if issue := number_issue(point[0]) or number_issue(point[1]):
            return f"point {i}: {issue}"
    return None


def _parse_weight(sec: _Section | None):
    if sec is None or (family := _family(sec, "weight", WEIGHT_FAMILIES)) is None:
        return None
    spec = None
    try:
        if family == "kernel_tail":
            kernel = _parse_kernel(sec.subsection("kernel", required=True))
            if kernel is not None:
                spec = WeightSpec.kernel_tail_of(kernel)
        elif family == "constant_on":
            radius, height = sec.number("radius", required=True), sec.number("height", required=True)
            if radius is not None and height is not None:
                spec = WeightSpec.constant_on(radius, height)
        else:
            points = sec.get("points", required=True)
            if points is not None and (issue := _points_issue(points)):
                sec.issues.append(f"{sec.path}.points: {issue}")
            elif points is not None:
                spec = WeightSpec.table(points)
    except ValueError as err:
        sec.issues.append(f"{sec.path}: {err}")
    sec.flag_unknown()
    return spec


def _parse_infection(sec: _Section | None):
    if sec is None or _family(sec, "infection", ("saturating",), "saturating") is None:
        return None
    alpha = sec.number("alpha", required=True)
    lam = sec.number("lambda", 1.0)
    sec.flag_unknown()
    if alpha is None:
        return None
    try:
        return InfectionFn(alpha=alpha, lam=lam)
    except ValueError as err:  # it names the config key it rejects
        sec.issues.append(f"{sec.path}.{err}")
        return None


def _parse_profile(sec: _Section | None, depth: int = 0):
    if sec is None or (family := _family(sec, "profile", ("bump", "cosine", "scaled"))) is None:
        return None
    spec = None
    if family in ("bump", "cosine"):
        amp = sec.number("amplitude", 1.0)
        if amp is not None and amp > 0.0:
            spec = ProfileSpec(family, amplitude=amp)
        elif amp is not None:
            sec.issues.append(f"{sec.path}.amplitude: must be > 0")
    elif depth >= 4:  # one line; the block's own keys go unchecked
        sec.issues.append(f"{sec.path}: scaled profiles nested too deep")
        sec.seen.update(sec.data)
    else:
        sig = sec.number("sigma", required=True)
        base = _parse_profile(sec.subsection("base", required=True), depth + 1)
        if sig is not None and base is not None:
            if sig > 0.0:
                spec = ProfileSpec("scaled", sigma=sig, base=base)
            else:
                sec.issues.append(f"{sec.path}.sigma: must be > 0")
    sec.flag_unknown()
    return spec


def _threshold_issues(thr: ThresholdConfig, given: dict) -> list:
    """Range violations of a thresholds block, reported before any solve."""
    issues = []
    if thr.n < MIN_EIGEN_NODES:
        issues.append(f"n: must be >= {MIN_EIGEN_NODES}")
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


def parse_config_dict(data: dict, check_weight: bool = True):
    """Validate a parsed JSON document; returns (RunConfig | None, violations).

    Hypothesis (W) on the front weight is a numerics violation unless
    `check_weight` is off (simulator.validate_sim_config).
    """
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
        kernel1 = _parse_kernel(model_sec.subsection("kernel1", required=True))
        kernel2 = _parse_kernel(model_sec.subsection("kernel2", required=True))
        weight = _parse_weight(model_sec.subsection("weight", required=True))
        infection = _parse_infection(model_sec.subsection("infection", required=True))
        model_sec.flag_unknown()
        bad = validate_constants(fields)  # the constants that did parse
        issues.extend(f"config.model: {msg}" for msg in bad)
        pieces = list(fields.values()) + [kernel1, kernel2, weight, infection]
        if not bad and all(piece is not None for piece in pieces):  # numerics need a valid model
            params = ModelParams(kernel1=kernel1, kernel2=kernel2, weight=weight, infection=infection, **fields)

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
        for msg in validate_sim_config(params, numerics, check_weight=check_weight):
            issues.append(f"config.numerics: {msg}")

    init_sec = root.subsection("initial")
    if init_sec is not None:
        u0 = _parse_profile(init_sec.subsection("u0", required=True))
        v0 = _parse_profile(init_sec.subsection("v0", required=True))
        init_sec.flag_unknown()
    else:
        u0 = v0 = ProfileSpec("bump")

    output = OutputConfig()
    out_sec = root.subsection("output")
    if out_sec is not None:
        output = OutputConfig(**_read(out_sec, OutputConfig))

    eigen = None
    eig_sec = root.subsection("eigen")
    if eig_sec is not None:
        given = _read(eig_sec, EigenConfig, required=("L1", "L2"))
        if "L1" in given and "L2" in given:
            eigen = EigenConfig(**given)
            if not (0.0 < eigen.L2 - eigen.L1 < np.inf and eigen.n >= MIN_EIGEN_NODES):
                issues.append(f"config.eigen: needs L1 < L2 with a finite L2 - L1, and n >= {MIN_EIGEN_NODES}")
                eigen = None

    ode_cfg = OdeConfig()
    ode_sec = root.subsection("ode")
    if ode_sec is not None:
        ode_cfg = OdeConfig(**_read(ode_sec, OdeConfig))
        if ode_cfg.u0 < 0.0 or ode_cfg.v0 < 0.0 or ode_cfg.dt <= 0.0 or ode_cfg.t_end <= 0.0:
            issues.append("config.ode: needs u0, v0 >= 0 and dt, t_end > 0")
        elif not math.isfinite(ode_cfg.t_end / ode_cfg.dt):
            issues.append("config.ode: t_end / dt must be finite")

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
    data, err = load_json(path)
    return (None, [f"invalid JSON: {err}"]) if err is not None else parse_config_dict(data)
