"""Command-line entry point: simulate, ode, eigen, thresholds, sweep, validate.

All subcommands read a JSON configuration (see config.py for the schema) and
write plot-ready CSV plus JSON summaries. Floating-point output is serialized
with 17 significant digits so repeated invocations are byte-identical and
round-trip exactly.

Exit codes: 0 success, 2 configuration or assumption failure (an output
path that cannot be written and a threshold asked for outside its regime
included), 3 numerical failure (unstable run, exhausted grid, failed eigen
solve or failed threshold search). `main` maps every failure to its code and
one stderr line. `validate` probes the weight W over [0, 2*domain_cap], every
distance h - x the front law reads it at, table knots included; (J) and
(G1)/(G2) hold by construction for every family the parser admits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

from . import config as cfgmod
from .kernels import validate_weight
from .model import r0, validate_params
from .ode import integrate_ode, lyapunov_series
from .simulator import check_initial_pair, classify, run
from .spectral import EigenProblem, SpectralError, principal_eigenvalue, rayleigh_check
from .thresholds import (
    ThresholdRegimeError,
    ThresholdSearchError,
    effective_L_star,
    find_L_star,
    find_d_star,
    find_mu_star,
    find_sigma_star,
)

WORKER_ENV = "EPIFRONT_WORKERS"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_rows(path: str, header, rows) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    os.replace(tmp, path)


def _write_json(path: str, payload) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    os.replace(tmp, path)


def _missing_directory(path: str) -> str | None:
    """The complaint about path's directory when it does not exist, else None."""
    folder = os.path.dirname(path)
    return None if os.path.isdir(folder or ".") else f"output directory does not exist: {folder}"


def _load(path: str):
    if not os.path.exists(path):
        print(f"config not found: {path}", file=sys.stderr)
        return None
    cfg, issues = cfgmod.parse_config(path)
    if issues:
        for msg in issues:
            print(f"invalid config: {msg}", file=sys.stderr)
        return None
    return cfg


def _trajectory_rows(traj):
    for i in range(traj.t.size):
        yield (
            float(traj.t[i]), float(traj.g[i]), float(traj.h[i]),
            float(traj.sup_u[i]), float(traj.sup_v[i]),
            float(traj.mass_u[i]), float(traj.mass_v[i]),
        )


def _cmd_simulate(args) -> int:
    cfg = _load(args.config)
    if cfg is None:
        return 2
    p, num = cfg.params, cfg.numerics
    u0 = cfgmod.build_profile(cfg.u0, p.h0)
    v0 = cfgmod.build_profile(cfg.v0, p.h0)
    outdir = cfg.output.directory
    os.makedirs(outdir, exist_ok=True)

    l_star = effective_L_star(p, n=cfg.thresholds.n)
    traj = run(p, num, u0, v0, record_snapshots=cfg.output.snapshots)
    outcome = classify(traj, l_star, num)

    # Coarse companion run: one halving level of resolution, for the
    # grid-refinement delta reported alongside the result. When the doubled
    # dx fails validation (dx > h0/10) the delta is null and the note says why.
    refinement_delta = refinement_note = None
    try:
        coarse = run(p, replace(num, dx=2.0 * num.dx), u0, v0)
        refinement_delta = abs(float(traj.h[-1]) - float(coarse.h[-1]))
    except ValueError as err:
        refinement_note = f"coarse companion run at dx={2.0 * num.dx:g} is infeasible: {err}"

    _write_rows(
        os.path.join(outdir, "trajectory.csv"),
        ("t", "g", "h", "sup_u", "sup_v", "mass_u", "mass_v"),
        _trajectory_rows(traj),
    )
    if cfg.output.snapshots:
        rows = []
        for t, x, u, v in traj.snapshots:
            for j in range(x.size):
                rows.append((float(t), float(x[j]), float(u[j]), float(v[j])))
        _write_rows(os.path.join(outdir, "snapshots.csv"), ("t", "x", "u", "v"), rows)
    summary = {
        "classification": outcome,
        "status": traj.status,
        "l_star": None if math.isinf(l_star) else l_star,
        "r0": r0(p),
        "final": {
            "t": float(traj.t[-1]),
            "g": float(traj.g[-1]),
            "h": float(traj.h[-1]),
            "sup_u": float(traj.sup_u[-1]),
            "sup_v": float(traj.sup_v[-1]),
        },
        "refinement_delta": refinement_delta,
        "refinement_note": refinement_note,
        "config": cfg.raw,
    }
    _write_json(os.path.join(outdir, "summary.json"), summary)
    print(f"classification={outcome} status={traj.status} h_end={_fmt(traj.h[-1])}")
    return 3 if traj.status in ("unstable", "domain_exhausted") else 0


def _cmd_ode(args) -> int:
    cfg = _load(args.config)
    if cfg is None:
        return 2
    p = cfg.params
    ode_cfg = cfg.ode or cfgmod.OdeConfig()
    states = integrate_ode(p, ode_cfg.u0, ode_cfg.v0, ode_cfg.t_end, ode_cfg.dt)
    outdir = cfg.output.directory
    os.makedirs(outdir, exist_ok=True)
    balanced = abs(r0(p) - 1.0) <= 1e-12
    if balanced:
        series = lyapunov_series(p, states)
        header = ("t", "u", "v", "V")
        rows = [(s.t, s.u, s.v, V) for s, (_, V) in zip(states, series)]
    else:
        header = ("t", "u", "v")
        rows = [(s.t, s.u, s.v) for s in states]
    _write_rows(os.path.join(outdir, "ode.csv"), header, rows)
    last = states[-1]
    print(f"t={_fmt(last.t)} u={_fmt(last.u)} v={_fmt(last.v)}")
    return 0


def _cmd_eigen(args) -> int:
    cfg = _load(args.config)
    if cfg is None:
        return 2
    if cfg.eigen is None:
        print("invalid config: eigen block required for the eigen subcommand", file=sys.stderr)
        return 2
    if args.dump and (missing := _missing_directory(args.dump)):
        raise FileNotFoundError(missing)  # before the solve, not after it
    problem = EigenProblem.from_params(cfg.params, cfg.eigen.L1, cfg.eigen.L2, n=cfg.eigen.n)
    result = principal_eigenvalue(problem)
    residual = rayleigh_check(problem, result)
    print(f"lambda_p={_fmt(result.lambda_p)} rayleigh_residual={_fmt(residual)}")
    if args.dump:
        _write_rows(
            args.dump,
            ("x", "phi1", "phi2"),
            zip(result.x.tolist(), result.phi1.tolist(), result.phi2.tolist()),
        )
    return 0


def _cmd_thresholds(args) -> int:
    cfg = _load(args.config)
    if cfg is None:
        return 2
    p, thr = cfg.params, cfg.thresholds
    u0 = cfgmod.build_profile(cfg.u0, p.h0)
    v0 = cfgmod.build_profile(cfg.v0, p.h0)
    if args.out and (missing := _missing_directory(args.out)):
        raise FileNotFoundError(missing)  # before the search, not after it
    bracket = None
    if thr.bracket_lo is not None and thr.bracket_hi is not None:
        bracket = (thr.bracket_lo, thr.bracket_hi)
    if args.target in ("Lstar", "dstar"):
        trace: list = []
        find = find_L_star if args.target == "Lstar" else find_d_star
        value = find(p, n=thr.n, tol=thr.tol, trace=trace)
        low_sign = 1.0 if args.target == "Lstar" else -1.0  # sign of lambda_p below the root
        lo = max((x for x, lam in trace if low_sign * lam > 0.0), default=None)
        hi = min((x for x, lam in trace if low_sign * lam < 0.0), default=None)
        payload = {
            "target": args.target,
            "value": value,
            "bracket": [lo, hi],
            "probes": [[x, lam] for x, lam in trace],
        }
    else:
        if args.target == "mustar":
            res = find_mu_star(p, cfg.numerics, u0, v0, bracket=bracket, rel_tol=thr.rel_tol, n=thr.n)
        else:
            res = find_sigma_star(
                p, cfg.numerics, u0, v0,
                bracket=bracket or (1e-3, 1e3), rel_tol=thr.rel_tol, n=thr.n,
            )
        payload = {
            "target": args.target,
            "value": res.value,
            "bracket": [res.lo, res.hi],
            "lo_outcome": res.lo_outcome,
            "hi_outcome": res.hi_outcome,
            "iterations": res.iterations,
            "probes": [[x, out] for x, out in res.probes],
        }
    print(json.dumps(payload))
    if args.out:
        _write_json(args.out, payload)
    return 0


_SWEEPABLE = ("d1", "d2", "a", "b", "e", "mu", "rho", "h0", "sigma")
# Parameters that leave the interval eigenvalue problem and the L* bracket
# (h0/10, 2*h0) unchanged, so one L* serves every point of their sweep.
_L_STAR_FIXED = ("mu", "rho", "sigma")


def _sweep_one(payload):
    """Run one sweep point of the parsed RunConfig (picklable, so it also runs
    in worker processes).

    l_star is the base config's effective L* when the swept parameter cannot
    change it, else None and the point solves its own.
    """
    cfg, parameter, value, l_star = payload
    p, num, u0, v0 = cfg.params, cfg.numerics, cfg.u0, cfg.v0
    if parameter == "sigma":
        u0 = cfgmod.ProfileSpec("scaled", sigma=value, base=u0)
        v0 = cfgmod.ProfileSpec("scaled", sigma=value, base=v0)
    else:
        p = replace(p, **{parameter: value})
        bad = validate_params(p)
        if bad:
            return value, "error", math.nan, math.nan, math.nan, "; ".join(bad)
    u0 = cfgmod.build_profile(u0, p.h0)
    v0 = cfgmod.build_profile(v0, p.h0)
    try:
        if l_star is None:
            l_star = effective_L_star(p, n=cfg.thresholds.n)
        stop = None if math.isinf(l_star) else 2.0 * l_star + 2.0 * num.tol_spread
        traj = run(p, num, u0, v0, stop_width=stop)
        outcome = classify(traj, l_star, num)
        return (
            value, outcome,
            float(traj.h[-1] - traj.g[-1]),
            float(traj.sup_u[-1]), float(traj.sup_v[-1]),
            traj.status,
        )
    except Exception as err:  # per-run failures are recorded, the sweep continues
        return value, "error", math.nan, math.nan, math.nan, str(err)


def _is_number(value) -> bool:
    """True for a finite JSON number: not a bool, string, container, NaN,
    infinity or int beyond float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


def _worker_count(value, name: str, issues: list) -> int:
    """int(value), or 1 with a reported issue when value is not an integer."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        issues.append(f"{name} must be an integer, got {value!r}")
        return 1


def _cmd_sweep(args) -> int:
    if not os.path.exists(args.spec):
        print(f"sweep spec not found: {args.spec}", file=sys.stderr)
        return 2
    with open(args.spec, "r", encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            print(f"invalid sweep spec: {err}", file=sys.stderr)
            return 2
    if not isinstance(spec, dict):
        print("invalid sweep spec: the spec must be a JSON object", file=sys.stderr)
        return 2
    issues = []
    parameter = spec.get("parameter")
    if parameter not in _SWEEPABLE:
        issues.append(f"parameter must be one of {_SWEEPABLE}")
    values = spec.get("values")
    if not isinstance(values, list) or not values:
        issues.append("values must be a nonempty list")
    elif not all(_is_number(v) for v in values):
        issues.append("values must be finite numbers")
    else:
        diffs = np.diff(np.asarray(values, dtype=float))
        if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
            issues.append("values must be strictly monotone")
    cfg = None
    if spec.get("config") is not None:
        cfg, cfg_issues = cfgmod.parse_config_dict(spec["config"])
        issues.extend(cfg_issues)
    elif isinstance(spec.get("config_path"), str):
        cfg = _load(spec["config_path"])  # reports its own violations
    elif spec.get("config_path") is not None:
        issues.append("config_path must be a file path")
    else:
        issues.append("config (inline) or config_path required")
    output = spec.get("output", "sweep.csv")
    if not isinstance(output, str):
        issues.append(f"output must be a file path, got {output!r}")
    elif missing := _missing_directory(output):
        issues.append(missing)
    spec_workers = _worker_count(spec.get("workers", 1), "workers", issues)
    env_cap = os.environ.get(WORKER_ENV)
    if env_cap is not None:
        env_cap = _worker_count(env_cap, WORKER_ENV, issues)
    if issues or cfg is None:
        for msg in issues:
            print(f"invalid sweep spec: {msg}", file=sys.stderr)
        return 2

    workers = args.workers or spec_workers
    if env_cap is not None:
        workers = min(workers, max(1, env_cap))
    l_star = None
    if parameter in _L_STAR_FIXED:
        try:
            l_star = effective_L_star(cfg.params, n=cfg.thresholds.n)
        except (SpectralError, ThresholdSearchError):
            pass  # each point then meets the failure and records it in its row
    jobs = [(cfg, parameter, float(v), l_star) for v in values]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(job) for job in jobs]
    results.sort(key=lambda row: row[0])
    _write_rows(
        output,
        (parameter, "classification", "width_end", "sup_u_end", "sup_v_end", "status"),
        results,
    )
    print(f"wrote {len(results)} rows to {output}")
    return 0


def _cmd_validate(args) -> int:
    if not os.path.exists(args.config):
        print(f"config not found: {args.config}", file=sys.stderr)
        return 2
    cfg, issues = cfgmod.parse_config(args.config)
    checks = []
    if cfg is None:
        checks.append(("config", False, "; ".join(issues)))
    else:
        p = cfg.params
        for name in ("kernel1", "kernel2"):  # by construction, like (G1)/(G2)
            checks.append((f"(J) {name}", True, "symmetric, unit mass, positive at 0"))
        report = validate_weight(p.weight, probe_radius=2.0 * cfg.numerics.domain_cap)
        checks.append(("(W) weight", report.ok, "; ".join(report.messages) or "nonnegative, W(0) > 0"))
        checks.append(("(G1)/(G2) infection", True, "monotone, saturating"))  # by construction
        u0 = cfgmod.build_profile(cfg.u0, p.h0)
        v0 = cfgmod.build_profile(cfg.v0, p.h0)
        b_issues = check_initial_pair(u0, v0, p.h0)
        checks.append(("(B) initial data", not b_issues, "; ".join(b_issues) or "positive inside, zero at fronts"))
    all_ok = True
    for name, ok, note in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {note}")
        all_ok = all_ok and ok
    return 0 if all_ok else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epifront",
        description="Nonlocal epidemic system with moving fronts: simulation, spectra, thresholds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the moving-front system")
    sim.add_argument("config")
    sim.set_defaults(func=_cmd_simulate)

    ode_p = sub.add_parser("ode", help="run the spatially homogeneous system")
    ode_p.add_argument("config")
    ode_p.set_defaults(func=_cmd_ode)

    eig = sub.add_parser("eigen", help="principal eigenvalue on an interval")
    eig.add_argument("config")
    eig.add_argument("--dump", help="write (x, phi1, phi2) CSV here")
    eig.set_defaults(func=_cmd_eigen)

    thr = sub.add_parser("thresholds", help="locate a sharp constant")
    thr.add_argument("config")
    thr.add_argument("--target", required=True, choices=("Lstar", "dstar", "mustar", "sigmastar"))
    thr.add_argument("--out", help="also write the JSON record here")
    thr.set_defaults(func=_cmd_thresholds)

    swp = sub.add_parser("sweep", help="batch runs over a parameter grid")
    swp.add_argument("spec")
    swp.add_argument("--workers", type=int, default=None)
    swp.set_defaults(func=_cmd_sweep)

    val = sub.add_parser("validate", help="check every model assumption in a config")
    val.add_argument("config")
    val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ThresholdRegimeError as err:  # the constant asked for does not exist here
        print(f"regime error: {err}", file=sys.stderr)
        return 2
    except ThresholdSearchError as err:  # L* in simulate and thresholds, any root search
        print(f"search failure: {err}", file=sys.stderr)
        return 3
    except SpectralError as err:  # eigen solves in eigen, thresholds and simulate
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:  # an output path that cannot be created or written
        print(f"file error: {err}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
