"""Seeded inputs, task lists and reference checks of the benchmark workloads.

A task is one user-level call of the in-process CLI (`epifront.cli.main`).
Every workload writes its generated configs under a work directory and points
each config's `output.directory` there, so nothing lands in the repository.

Seeds. `seed % VARIANTS` picks a variant; variant 0 is the shipped configs.
Other variants rescale time: every rate (d1, d2, a, b, e, mu, G'(0)) is
multiplied by c in [0.97, 1.03] and dt, t_end are divided by c. That changes
every input and every dimensional answer (mu* scales with c) but not the
number of steps, probes or eigen solves, so the spread over seeds measures
the machine, not the input. Dimensionless parts the answers depend on (kernel
shapes, eigen intervals, ODE start values, sweep grids) are drawn nearby on
top; of these only the spectral kernel shapes and h0 change the work, by a
few eigen solves per root search. Every variant's answers are pinned in
data/reference.json by pin.py.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
VARIANTS = 16
STATE_REL_TOL = 1e-9  # simulate h_end, ode final state, eigen lambda_p
NAMES = ("mustar", "spectral", "cli_configs", "sweep")


@dataclass
class Task:
    key: str  # unique within the workload; indexes the reference data
    expect: str  # how the output is parsed and checked
    argv: list
    params: dict = field(default_factory=dict)
    outputs: tuple = ()  # files and directories the task writes

    def serial(self) -> "Task":
        """The same task with a process pool replaced by one process."""
        if self.expect != "sweep":
            return self
        argv = self.argv[: self.argv.index("--workers")] + ["--workers", "1"]
        return Task(self.key, self.expect, argv, self.params, self.outputs)


@dataclass
class Inputs:
    tasks: list
    warmups: list
    sweep: Task | None = None  # measured only in a traced run


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def _base() -> dict:
    with open(os.path.join(HERE, "data", "base_configs.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _rescale(raw: dict, c: float) -> dict:
    """Multiply every rate by c and divide every time by c."""
    raw = copy.deepcopy(raw)
    model = raw["model"]
    for key in ("d1", "d2", "a", "b", "e", "mu"):
        model[key] *= c
    model["infection"]["alpha"] *= c
    for block in ("numerics", "ode"):
        if block in raw:
            raw[block]["dt"] /= c
            raw[block]["t_end"] /= c
    return raw


def _shorten(raw: dict, steps: int) -> dict:
    raw = copy.deepcopy(raw)
    raw["numerics"]["t_end"] = steps * raw["numerics"]["dt"]
    if "ode" in raw:
        raw["ode"]["t_end"] = steps * raw["ode"]["dt"]
    return raw


class _Writer:
    """Writes generated configs under one work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(os.path.join(workdir, "in"), exist_ok=True)

    def outdir(self, name: str) -> str:
        return os.path.join(self.workdir, "out", name)

    def config(self, name: str, raw: dict) -> str:
        raw = copy.deepcopy(raw)
        raw.setdefault("output", {})["directory"] = self.outdir(name)
        path = os.path.join(self.workdir, "in", name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh, indent=1)
        return path


def _rng(workload: str, variant: int):
    rng = random.Random(f"{workload}/{variant}")
    return rng, (1.0 if variant == 0 else rng.uniform(0.97, 1.03))


def _check_intermediate(raw: dict) -> None:
    """L* and mu* exist only for 1 < r0 < (1 + d1/a)(1 + d2/b)."""
    m = raw["model"]
    r0 = m["e"] * m["infection"]["alpha"] / (m["a"] * m["b"])
    if not 1.0 < r0 < (1.0 + m["d1"] / m["a"]) * (1.0 + m["d2"] / m["b"]):
        raise ValueError(f"draw left the intermediate regime (r0={r0:.4g})")


def _simulate(w: _Writer, name: str, raw: dict) -> Task:
    return Task(f"simulate.{name}", "simulate", ["simulate", w.config(name, raw)], outputs=(w.outdir(name),))


def _warm_simulate(w: _Writer, name: str, raw: dict) -> Task:
    return _simulate(w, "warm_" + name, _shorten(raw, 10))


def _warm_eigen(w: _Writer, name: str, raw: dict) -> Task:
    raw = copy.deepcopy(raw)
    h = raw["model"]["h0"]
    raw["eigen"] = {"L1": -h, "L2": h, "n": 64}
    return Task("warm_eigen." + name, "eigen", ["eigen", w.config("warm_eigen_" + name, raw)])


def _sweep(w: _Writer, raw: dict, rng, c: float, per_side: int, smoke: bool) -> Task:
    """Sweep over mu on a grid that brackets mu* (0.188 c): vanishing below,
    spreading above, away from the slow near-critical band."""
    below = [c * rng.uniform(0.08, 0.13) for _ in range(per_side)]
    values = sorted(below + [c * rng.uniform(0.26, 0.4) for _ in range(per_side)])
    out = os.path.join(w.outdir("sweep"), "sweep.csv")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    spec = {
        "parameter": "mu",
        "values": values,
        "config": _shorten(raw, 60) if smoke else raw,  # sweeps ignore output.directory
        "output": out,
    }
    path = os.path.join(w.workdir, "in", "sweep_spec.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
    return Task("sweep", "sweep", ["sweep", path, "--workers", "2"], outputs=(out,))


def build(workload: str, seed: int, workdir: str, smoke: bool = False) -> Inputs:
    """Generate the workload's configs under `workdir`; return its task list."""
    variant = variant_of(seed)
    rng, c = _rng(workload, variant)
    base = _base()
    w = _Writer(workdir)
    thr = _rescale(base["threshold_search"], c)
    _check_intermediate(thr)

    if workload == "mustar":
        if smoke:  # two probes, no bisection round
            thr["thresholds"].update(bracket_lo=0.09 * c, bracket_hi=0.4 * c, rel_tol=0.9)
        rel_tol = thr["thresholds"]["rel_tol"]
        task = Task("mustar", "mustar", ["thresholds", w.config("mustar", thr), "--target", "mustar"], {"rel_tol": rel_tol})
        return Inputs([task], [_warm_simulate(w, "mustar", thr)])

    if workload == "spectral":
        kernels = (("uniform", "radius", 1.0), ("gaussian", "std", 0.6), ("laplace", "scale", 0.5))
        tasks, warmups = [], []
        for family, shape, value in kernels[:1] if smoke else kernels:
            raw = copy.deepcopy(base["threshold_search"])
            model = raw["model"]
            if variant:
                value *= rng.uniform(0.9, 1.1)
                model["h0"] *= rng.uniform(1.0, 1.1)
            kern = {"family": family, shape: value}
            model.update(kernel1=kern, kernel2=kern, weight={"family": "kernel_tail", "kernel": kern})
            raw = _rescale(raw, c)
            _check_intermediate(raw)
            n_thr, n_small, n_large = (48, 64, 96) if smoke else (241, 400, 800)
            raw["thresholds"] = {"n": n_thr, "tol": 1e-6}
            raw["eigen"] = {"L1": -2.0, "L2": 2.0, "n": n_small}
            small = w.config(f"spectral_{family}", raw)
            raw["eigen"]["n"] = n_large
            large = w.config(f"spectral_{family}_n{n_large}", raw)
            params = {"tol": 1e-6}
            tasks += [
                Task(f"{family}.Lstar", "Lstar", ["thresholds", small, "--target", "Lstar"], params),
                Task(f"{family}.dstar", "dstar", ["thresholds", small, "--target", "dstar"], params),
                Task(f"{family}.eigen{n_small}", "eigen", ["eigen", small]),
                Task(f"{family}.eigen{n_large}", "eigen", ["eigen", large]),
            ]
            warmups.append(_warm_eigen(w, family, raw))
        return Inputs(tasks, warmups)

    if workload == "cli_configs":
        spreading = _rescale(base["spreading"], c)
        vanishing = _rescale(base["vanishing"], c)
        if variant:
            half = rng.uniform(1.9, 2.1)
            vanishing["eigen"].update(L1=-half, L2=half)
            vanishing["ode"].update(u0=rng.uniform(0.9, 1.1), v0=rng.uniform(0.9, 1.1))
        configs = {"threshold_search": thr, "spreading": spreading, "vanishing": vanishing}
        if smoke:
            configs = {name: _shorten(raw, 20) for name, raw in configs.items()}
            configs["vanishing"]["eigen"]["n"] = 64
        tasks = [_simulate(w, name, raw) for name, raw in configs.items()]
        van = w.config("vanishing_cmds", configs["vanishing"])
        tasks += [Task("ode.vanishing", "ode", ["ode", van], outputs=(w.outdir("vanishing_cmds"),)),
                  Task("eigen.vanishing", "eigen", ["eigen", van])]
        tasks += [Task(f"validate.{name}", "validate", ["validate", w.config("validate_" + name, raw)])
                  for name, raw in configs.items()]
        warmups = [_warm_simulate(w, name, raw) for name, raw in configs.items()]
        warmups.append(_warm_eigen(w, "vanishing", configs["vanishing"]))
        warm_ode = _shorten(configs["vanishing"], 10)
        warmups.append(Task("warm_ode", "ode", ["ode", w.config("warm_ode", warm_ode)]))
        return Inputs(tasks, warmups, _sweep(w, thr, rng, c, 1 if smoke else 2, smoke))

    if workload == "sweep":
        task = _sweep(w, thr, rng, c, 1 if smoke else 3, smoke)
        return Inputs([task], [_warm_simulate(w, "sweep", thr)])

    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")


# -- outputs ---------------------------------------------------------------------

def _files(paths) -> list:
    found = []
    for path in paths:
        if os.path.isdir(path):
            found += sorted(os.path.join(path, name) for name in os.listdir(path))
        elif os.path.exists(path):
            found.append(path)
    return found


def written_bytes(task: Task) -> int:
    return sum(os.path.getsize(p) for p in _files(task.outputs))


def file_digest(task: Task) -> str:
    h = hashlib.sha256()
    for path in _files(task.outputs):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def parse(task: Task, stdout: str):
    """The task's answer as plain data, read from what the CLI printed or wrote."""
    if task.expect in ("mustar", "Lstar", "dstar"):
        return json.loads(stdout.strip().splitlines()[-1])
    if task.expect in ("simulate", "eigen", "ode"):
        return {k: _number(v) for k, v in (tok.split("=", 1) for tok in stdout.split())}
    if task.expect == "validate":
        return {"lines": stdout.strip().splitlines()}
    if task.expect == "sweep":
        with open(task.outputs[0], encoding="utf-8") as fh:
            rows = list(csv.reader(io.StringIO(fh.read())))[1:]
        return {"rows": [[row[1], row[-1]] for row in rows]}  # classification, status
    raise ValueError(task.expect)


# -- reference checks -----------------------------------------------------------------

def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def check(task: Task, code: int, result, ref) -> list:
    """Differences between a task's answer and its pinned reference."""
    if ref is None:
        return [f"{task.key}: no pinned reference"]
    bad = []
    if code != ref["code"]:
        bad.append(f"exit code {code}, pinned {ref['code']}")
    want = ref["result"]
    kind = task.expect
    if kind == "mustar":
        lo, hi = result["bracket"]
        rel = task.params["rel_tol"]
        if (result["lo_outcome"], result["hi_outcome"]) != ("vanishing", "spreading"):
            bad.append(f"bracket ends labelled {result['lo_outcome']}/{result['hi_outcome']}")
        if hi - lo > rel * hi:
            bad.append(f"bracket width {hi - lo:.3g} exceeds rel_tol*hi")
        if abs(result["value"] - want["value"]) > rel * want["value"]:
            bad.append(f"mu* {result['value']!r} not within rel_tol of {want['value']!r}")
    elif kind in ("Lstar", "dstar"):
        lam = [lam for x, lam in result["probes"] if x == result["value"]]
        if not lam or abs(lam[0]) >= task.params["tol"]:
            bad.append(f"{kind}: residual |lambda_p| at the root is not below tol")
        if abs(result["value"] - want["value"]) > ref["value_tol"]:
            bad.append(f"{kind} {result['value']!r} differs from {want['value']!r} by more than {ref['value_tol']:.3g}")
    elif kind == "eigen":
        lam = result["lambda_p"]
        if not _close(lam, want["lambda_p"], STATE_REL_TOL):
            bad.append(f"lambda_p {lam!r}, pinned {want['lambda_p']!r}")
        if not result["rayleigh_residual"] < 1e-6 * max(1.0, abs(lam)):
            bad.append(f"rayleigh residual {result['rayleigh_residual']!r}")
    elif kind == "simulate":
        for key in ("classification", "status"):
            if result[key] != want[key]:
                bad.append(f"{key} {result[key]}, pinned {want[key]}")
        if not _close(result["h_end"], want["h_end"], STATE_REL_TOL):
            bad.append(f"h_end {result['h_end']!r}, pinned {want['h_end']!r}")
    elif kind == "ode":
        for key in ("t", "u", "v"):
            if not _close(result[key], want[key], STATE_REL_TOL):
                bad.append(f"ode final {key} {result[key]!r}, pinned {want[key]!r}")
    elif kind in ("validate", "sweep"):
        if result != want:
            bad.append(f"{kind} output differs from the pinned one")
    return [f"{task.key}: {msg}" for msg in bad]


def root_value_tol(result: dict, tol: float) -> float:
    """How far two admissible roots may lie apart: any x with |lambda(x)| < tol
    is within tol/|slope| of the true crossing, so two such x differ by at most
    2 tol/|slope|; the slope is taken from the closest probes on either side."""
    value = result["value"]
    probes = [(x, lam) for x, lam in result["probes"] if x != value]
    left = min((p for p in probes if p[0] < value), key=lambda p: value - p[0])
    right = min((p for p in probes if p[0] > value), key=lambda p: p[0] - value)
    slope = abs(right[1] - left[1]) / (right[0] - left[0])
    return 2.0 * tol / slope


def load_reference() -> dict:
    path = os.path.join(HERE, "data", "reference.json")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_for(refs: dict, workload: str, seed: int, smoke: bool) -> dict:
    section = refs.get("smoke" if smoke else "full", {}).get(workload, {})
    return section.get(str(variant_of(seed)), {})
