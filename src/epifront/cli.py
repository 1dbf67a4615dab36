"""Command-line entry point: simulate, ode, eigen, thresholds, sweep, validate.

All subcommands read a JSON configuration (see config.py for the schema) and
write plot-ready CSV plus JSON summaries. Floating-point output is serialized
with 17 significant digits so repeated invocations are byte-identical and
round-trip exactly.

Exit codes: 0 success, 2 configuration or assumption failure (an output
path that cannot be written and a threshold asked for outside its regime
included), 3 numerical failure (any ode.NumericalFailure: unstable run,
exhausted grid, failed eigen solve), failed threshold search, or a grid too
large to allocate (MemoryError). `main` maps every failure to its code and
one stderr line; a `simulate` run that ends unstable or off the grid writes
its files and prints that line itself.
`validate` probes the weight W over [0, 2*domain_cap], every distance h - x
the front law reads it at, table knots included; (J) and (G1)/(G2) hold by
construction for every family the parser admits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import config as cfgmod
from .kernels import validate_weight
from .model import r0, validate_params
from .ode import NumericalFailure, integrate_ode, lyapunov_series
from .simulator import check_initial_pair, classify, run, spreading_stop_width, validate_sim_config
from .spectral import EigenProblem, principal_eigenvalue, rayleigh_check
from .thresholds import (
    ThresholdRegimeError,
    ThresholdSearchError,
    effective_L_star,
    find_L_star,
    find_d_star,
    find_mu_star,
    find_sigma_star,
)

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv(header, rows):
    """CSV text chunks: the header, then each row (a tuple) through one %
    format, %.17g (as _fmt) in each float column and %s in the others,
    taken from the first row; every writer's columns keep one type."""
    yield ",".join(header) + "\n"
    line = None
    for row in rows:
        if line is None:
            line = ",".join("%.17g" if isinstance(v, float) else "%s" for v in row) + "\n"
        yield line % row


def _write(path: str, chunks) -> None:
    """Write the text chunks to path.tmp, then rename it over path; a failed
    write or rename removes path.tmp."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _output_path_issue(path: str) -> str | None:
    """Why path cannot take an output file written by _write (a missing
    directory, or a directory at path or at its temporary path.tmp), else
    None."""
    folder = os.path.dirname(path)
    if not os.path.isdir(folder or "."):
        return f"output directory does not exist: {folder}"
    if os.path.isdir(path):
        return f"output path is a directory: {path}"
    tmp = path + ".tmp"
    return f"temporary output path is a directory: {tmp}" if os.path.isdir(tmp) else None


def _check_outputs(*paths: str | None) -> None:
    """Raise OSError for the first path (None: no file) that cannot take an
    output file; called before any solve or run, not after it."""
    for path in paths:
        if path is not None and (issue := _output_path_issue(path)):
            raise OSError(issue)


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


def _cmd_simulate(args, cfg) -> int:
    p, num = cfg.params, cfg.numerics
    u0 = cfgmod.build_profile(cfg.u0, p.h0)
    v0 = cfgmod.build_profile(cfg.v0, p.h0)
    outdir = cfg.output.directory
    os.makedirs(outdir, exist_ok=True)
    trajectory, snapshots, summary_path = (
        os.path.join(outdir, name) for name in ("trajectory.csv", "snapshots.csv", "summary.json")
    )
    _check_outputs(trajectory, summary_path, snapshots if cfg.output.snapshots else None)

    l_star = effective_L_star(p, n=cfg.thresholds.n)
    traj = run(p, num, u0, v0, record_snapshots=cfg.output.snapshots)
    outcome = classify(traj, l_star, num).label

    # Coarse companion run: one halving level of resolution, for the
    # grid-refinement delta reported alongside the result. When the doubled
    # dx fails validation (dx > h0/10) the delta is null and the note says why.
    refinement_delta = refinement_note = None
    try:
        coarse = run(p, replace(num, dx=2.0 * num.dx), u0, v0)
        refinement_delta = abs(float(traj.h[-1]) - float(coarse.h[-1]))
    except ValueError as err:
        refinement_note = f"coarse companion run at dx={2.0 * num.dx:g} is infeasible: {err}"

    columns = ("t", "g", "h", "sup_u", "sup_v", "mass_u", "mass_v")
    _write(trajectory, _csv(columns, zip(*(getattr(traj, name).tolist() for name in columns))))
    if cfg.output.snapshots:
        rows = []
        for t, x, u, v in traj.snapshots:
            rows.extend(zip([float(t)] * x.size, x.tolist(), u.tolist(), v.tolist()))
        _write(snapshots, _csv(("t", "x", "u", "v"), rows))
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
    _write(summary_path, (json.dumps(summary, indent=2), "\n"))
    print(f"classification={outcome} status={traj.status} h_end={_fmt(traj.h[-1])}")
    if traj.status in ("unstable", "domain_exhausted"):
        print(
            f"numerical failure: run ended {traj.status}; last recorded t={traj.t[-1]:.6g}; {traj.failure}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_ode(args, cfg) -> int:
    p = cfg.params
    outdir = cfg.output.directory
    os.makedirs(outdir, exist_ok=True)
    out = os.path.join(outdir, "ode.csv")
    _check_outputs(out)
    states = integrate_ode(p, cfg.ode.u0, cfg.ode.v0, cfg.ode.t_end, cfg.ode.dt)
    balanced = abs(r0(p) - 1.0) <= 1e-12
    if balanced:
        series = lyapunov_series(p, states)
        header = ("t", "u", "v", "V")
        rows = [(s.t, s.u, s.v, V) for s, (_, V) in zip(states, series)]
    else:
        header = ("t", "u", "v")
        rows = [(s.t, s.u, s.v) for s in states]
    _write(out, _csv(header, rows))
    last = states[-1]
    print(f"t={_fmt(last.t)} u={_fmt(last.u)} v={_fmt(last.v)}")
    return 0


def _cmd_eigen(args, cfg) -> int:
    if cfg.eigen is None:
        print("invalid config: eigen block required for the eigen subcommand", file=sys.stderr)
        return 2
    _check_outputs(args.dump)
    problem = EigenProblem(cfg.params, cfg.eigen.L1, cfg.eigen.L2, cfg.eigen.n)
    result = principal_eigenvalue(problem)
    residual = rayleigh_check(problem, result)
    print(f"lambda_p={_fmt(result.lambda_p)} rayleigh_residual={_fmt(residual)}")
    if args.dump:
        rows = zip(result.x.tolist(), result.phi1.tolist(), result.phi2.tolist())
        _write(args.dump, _csv(("x", "phi1", "phi2"), rows))
    return 0


def _cmd_thresholds(args, cfg) -> int:
    p, thr = cfg.params, cfg.thresholds
    u0 = cfgmod.build_profile(cfg.u0, p.h0)
    v0 = cfgmod.build_profile(cfg.v0, p.h0)
    _check_outputs(args.out)
    bracket = None if thr.bracket_lo is None else (thr.bracket_lo, thr.bracket_hi)  # parsed as a pair
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
        find = find_mu_star if args.target == "mustar" else find_sigma_star
        res = find(p, cfg.numerics, u0, v0, bracket=bracket, rel_tol=thr.rel_tol, n=thr.n)
        payload = {
            "target": args.target,
            "value": res.value,
            "bracket": [res.lo, res.hi],
            "lo_outcome": "vanishing",  # the labels every search's bracket ends carry
            "hi_outcome": "spreading",
            "iterations": res.iterations,
            "probes": [[x, out] for x, out in res.probes],
        }
    print(json.dumps(payload))
    if args.out:
        _write(args.out, (json.dumps(payload, indent=2), "\n"))
    return 0


_SWEEPABLE = ("d1", "d2", "a", "b", "e", "mu", "rho", "h0", "sigma")
_SPEC_KEYS = ("parameter", "values", "config", "config_path", "output")
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
        bad = validate_params(p) or validate_sim_config(p, num)  # before any L* solve
        if bad:
            return value, "error", math.nan, math.nan, math.nan, "; ".join(bad)
    u0 = cfgmod.build_profile(u0, p.h0)
    v0 = cfgmod.build_profile(v0, p.h0)
    try:
        if l_star is None:
            l_star = effective_L_star(p, n=cfg.thresholds.n)
        traj = run(p, num, u0, v0, stop_width=spreading_stop_width(l_star, num))
        verdict = classify(traj, l_star, num)
        return (
            value, verdict.label, verdict.width,
            float(traj.sup_u[-1]), float(traj.sup_v[-1]),
            traj.status,
        )
    except Exception as err:  # per-run failures are recorded, the sweep continues
        return value, "error", math.nan, math.nan, math.nan, str(err)


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures.ProcessPoolExecutor, imported by the one subcommand
    that pools, so no other subcommand loads multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _cmd_sweep(args) -> int:
    if not os.path.exists(args.spec):
        print(f"sweep spec not found: {args.spec}", file=sys.stderr)
        return 2
    spec, err = cfgmod.load_json(args.spec)
    if err is not None or not isinstance(spec, dict):
        print(f"invalid sweep spec: {err or 'the spec must be a JSON object'}", file=sys.stderr)
        return 2
    issues = [f"unknown key {key!r}" for key in spec if key not in _SPEC_KEYS]
    parameter = spec.get("parameter")
    if parameter not in _SWEEPABLE:
        issues.append(f"parameter must be one of {_SWEEPABLE}")
    values = spec.get("values")
    if not isinstance(values, list) or not values:
        issues.append("values must be a nonempty list")
    elif any(cfgmod.number_issue(v) for v in values):
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
    elif issue := _output_path_issue(output):
        issues.append(issue)
    if args.workers < 1:
        issues.append(f"workers must be >= 1, got {args.workers} (--workers)")
    if issues or cfg is None:
        for msg in issues:
            print(f"invalid sweep spec: {msg}", file=sys.stderr)
        return 2

    # At most one worker per point: a fork pool starts every worker up front.
    workers = min(args.workers, len(values))
    l_star = None
    if parameter in _L_STAR_FIXED:
        try:
            l_star = effective_L_star(cfg.params, n=cfg.thresholds.n)
        except (NumericalFailure, ThresholdSearchError):
            pass  # each point then meets the failure and records it in its row
    jobs = [(cfg, parameter, float(v), l_star) for v in values]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(job) for job in jobs]
    results.sort(key=lambda row: row[0])
    _write(output, _csv((parameter, "classification", "width_end", "sup_u_end", "sup_v_end", "status"), results))
    print(f"wrote {len(results)} rows to {output}")
    return 0


def _cmd_validate(args) -> int:
    if not os.path.exists(args.config):
        print(f"config not found: {args.config}", file=sys.stderr)
        return 2
    data, err = cfgmod.load_json(args.config)
    if err is not None:
        cfg, issues = None, [f"invalid JSON: {err}"]
    else:  # (W) gets its own line below
        cfg, issues = cfgmod.parse_config_dict(data, check_weight=False)
    checks = []
    if cfg is None:
        checks.append(("config", False, "; ".join(issues)))
    else:
        p = cfg.params
        for name in ("kernel1", "kernel2"):  # by construction, like (G1)/(G2)
            checks.append((f"(J) {name}", True, "symmetric, unit mass, positive at 0"))
        w_issues = validate_weight(p.weight, probe_radius=2.0 * cfg.numerics.domain_cap)
        checks.append(("(W) weight", not w_issues, "; ".join(w_issues) or "nonnegative, W(0) > 0"))
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
    """Run one subcommand; returns its exit code.

    simulate, ode, eigen and thresholds get the config loaded and validated
    here, once (a violation is exit 2); sweep reads a spec file and validate
    reports (W) on its own line, so both read their input themselves. Every
    failure maps to its exit code and one stderr line.
    """
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
    swp.add_argument("--workers", type=int, default=1, help="worker processes, at least 1 (default 1)")
    swp.set_defaults(func=_cmd_sweep)

    val = sub.add_parser("validate", help="check every model assumption in a config")
    val.add_argument("config")
    val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        if args.command in ("sweep", "validate"):  # each reads its input its own way
            return args.func(args)
        cfg = _load(args.config)
        return 2 if cfg is None else args.func(args, cfg)
    except ThresholdRegimeError as err:  # the constant asked for does not exist here
        print(f"regime error: {err}", file=sys.stderr)
        return 2
    except ThresholdSearchError as err:  # L* in simulate and thresholds, any root search
        print(f"search failure: {err}", file=sys.stderr)
        return 3
    except NumericalFailure as err:  # unstable integration, exhausted grid, failed eigen solve
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:  # an output path that cannot be created or written
        print(f"file error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # a grid too large to allocate (eigen or thresholds n, simulate dx)
        print(f"memory error: {err}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
