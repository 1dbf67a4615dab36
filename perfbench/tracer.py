"""Outside-in tracing of epifront: wrap module bindings, keep spans and tallies.

Nothing under src/ is edited. Each hook replaces one module attribute with a
timing wrapper and puts the original back on `uninstall`. A function bound by
`from ... import` lives under several names, so every name the program looks
it up by is hooked (for example both `epifront.cli.run` and
`epifront.thresholds.run`).

Two kinds of hook:
  - span hooks (tasks, root searches, runs, eigen solves) keep one record per
    call with a parent link, start, end and self time;
  - tally hooks (calls made once per RK4 stage or per step, about 1.3 million
    of them in one mu* search) keep only a call count and summed duration and
    self time, keyed by (name, enclosing span).

Self time is a call's duration minus the time its hooked children cover.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

SPAN, TALLY = "span", "tally"


def _mu(args, kwargs, result):
    p = args[0] if args else kwargs.get("p")
    return {"mu": getattr(p, "mu", None)}


def _eigen(args, kwargs, result):
    problem = args[0] if args else kwargs.get("problem")
    return {
        "n": getattr(problem, "n", 0),
        "residual": float(getattr(result, "rayleigh_residual", 0.0)),
    }


def _bisection(args, kwargs, result):
    return {"iterations": result.iterations, "probes": len(result.probes)}


def _ode_steps(args, kwargs, result):
    return {"steps": len(result) - 1}


# (module, attribute, traced name, kind, attribute extractor)
HOOKS = (
    ("epifront.cli", "run", "simulator.run", SPAN, _mu),
    ("epifront.thresholds", "run", "simulator.run", SPAN, _mu),
    ("epifront.simulator", "step", "simulator.step", TALLY, None),
    ("epifront.simulator", "quad_weights", "simulator.quad_weights", TALLY, None),
    ("epifront.simulator", "boundary_rates", "simulator.boundary_rates", TALLY, None),
    ("epifront.simulator", "kernel_tail", "kernels.kernel_tail", TALLY, None),
    ("epifront.simulator", "weight_eval", "kernels.weight_eval", TALLY, None),
    ("epifront.simulator", "infection_value", "model.infection_value", TALLY, None),
    ("epifront.ode", "infection_value", "model.infection_value", TALLY, None),
    ("epifront.cli", "principal_eigenvalue", "spectral.principal_eigenvalue", SPAN, _eigen),
    ("epifront.thresholds", "principal_eigenvalue", "spectral.principal_eigenvalue", SPAN, _eigen),
    ("epifront.spectral", "assemble_operator", "spectral.assemble_operator", TALLY, None),
    ("epifront.cli", "find_mu_star", "thresholds.find_mu_star", SPAN, _bisection),
    ("epifront.cli", "find_L_star", "thresholds.find_L_star", SPAN, None),
    ("epifront.thresholds", "find_L_star", "thresholds.find_L_star", SPAN, None),
    ("epifront.cli", "find_d_star", "thresholds.find_d_star", SPAN, None),
    ("epifront.thresholds", "vanishing_mu_bound", "thresholds.vanishing_mu_bound", SPAN, None),
    ("epifront.cli", "integrate_ode", "ode.integrate_ode", SPAN, _ode_steps),
    ("epifront.config", "parse_config", "config.parse_config", SPAN, None),
    ("epifront.cli", "_sweep_one", "cli.sweep.point", SPAN, None),
)


class Tracer:
    """Spans and per-parent tallies for one traced pass."""

    def __init__(self):
        self.spans: list = []  # dicts: id, name, parent, start, end, self, attrs
        self.tallies: dict = {}  # (name, parent span id) -> [calls, total s, self s]
        self.missing: list = []  # hooks whose attribute the program no longer has
        self._frames: list = []  # [span id or None, child seconds], innermost last
        self._open_spans: list = []
        self._saved: list = []

    # -- recording -----------------------------------------------------------
    def _begin_span(self, name: str) -> tuple:
        sid = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        rec = {"id": sid, "name": name, "parent": parent, "attrs": {}}
        self.spans.append(rec)
        frame = [sid, 0.0]
        self._frames.append(frame)
        self._open_spans.append(sid)
        rec["start"] = perf_counter()
        return rec, frame

    def _end_span(self, rec: dict, frame: list) -> None:
        end = perf_counter()
        self._open_spans.pop()
        self._frames.pop()
        dur = end - rec["start"]
        rec["end"] = end
        rec["self"] = dur - frame[1]
        if self._frames:
            self._frames[-1][1] += dur

    @contextmanager
    def span(self, name: str):
        rec, frame = self._begin_span(name)
        try:
            yield rec
        finally:
            self._end_span(rec, frame)

    def _span_wrapper(self, fn, name, extract):
        def traced(*args, **kwargs):
            rec, frame = self._begin_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end_span(rec, frame)
            if extract is not None:
                rec["attrs"].update(extract(args, kwargs, result))
            return result

        return traced

    def _tally_wrapper(self, fn, name):
        frames, open_spans, tallies = self._frames, self._open_spans, self.tallies

        def traced(*args, **kwargs):
            frame = [None, 0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                frames.pop()
                if frames:
                    frames[-1][1] += dur
                key = (name, open_spans[-1] if open_spans else None)
                tally = tallies.get(key)
                if tally is None:
                    tallies[key] = [1, dur, dur - frame[1]]
                else:
                    tally[0] += 1
                    tally[1] += dur
                    tally[2] += dur - frame[1]

        return traced

    # -- installation ----------------------------------------------------------
    def install(self) -> None:
        for module_name, attr, name, kind, extract in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if kind == SPAN:
                wrapper = self._span_wrapper(original, name, extract)
            else:
                wrapper = self._tally_wrapper(original, name)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- queries -----------------------------------------------------------------
    def named(self, name: str) -> list:
        return [s for s in self.spans if s["name"] == name]

    def span_totals(self, name: str) -> tuple:
        """(calls, summed duration, summed self time) over spans called `name`."""
        recs = self.named(name)
        return (
            len(recs),
            sum(s["end"] - s["start"] for s in recs),
            sum(s["self"] for s in recs),
        )

    def tally_totals(self, name: str, parents=None) -> tuple:
        """(calls, seconds, self seconds) of a tally, optionally for given parents."""
        calls = total = self_s = 0
        for (tname, parent), (c, t, s) in self.tallies.items():
            if tname == name and (parents is None or parent in parents):
                calls, total, self_s = calls + c, total + t, self_s + s
        return calls, total, self_s

    def ancestor(self, rec: dict, names) -> dict | None:
        """Nearest enclosing span whose name is in `names`."""
        parent = rec["parent"]
        while parent is not None:
            up = self.spans[parent]
            if up["name"] in names:
                return up
            parent = up["parent"]
        return None


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name -> (value, unit)."""
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    runs = tr.named("simulator.run")
    put("simulator.run.calls", len(runs), "count")
    put("simulator.run.s", tr.span_totals("simulator.run")[1], "s")
    calls, total, self_s = tr.tally_totals("simulator.step")
    put("simulator.step.calls", calls, "count")
    put("simulator.step.s", total, "s")
    put("simulator.step.self_s", self_s, "s")
    put("simulator.step.us", 1e6 * _ratio(total, calls), "us")
    for name in (
        "simulator.quad_weights",
        "simulator.boundary_rates",
        "kernels.kernel_tail",
        "kernels.weight_eval",
        "model.infection_value",
    ):
        calls, total, _ = tr.tally_totals(name)
        put(f"{name}.calls", calls, "count")
        put(f"{name}.s", total, "s")

    # mu* search: probes, bisection rounds, runs, and the share of steps that
    # were not re-simulated after a horizon doubling.
    searches = tr.named("thresholds.find_mu_star")
    put("thresholds.probes", sum(s["attrs"].get("probes", 0) for s in searches), "count")
    put("thresholds.bisect_iterations", sum(s["attrs"].get("iterations", 0) for s in searches), "count")
    search_runs = [r for r in runs if tr.ancestor(r, {"thresholds.find_mu_star"}) is not None]
    put("thresholds.runs", len(search_runs), "count")
    steps_of = {r["id"]: tr.tally_totals("simulator.step", {r["id"]})[0] for r in search_runs}
    useful = 0
    for i, r in enumerate(search_runs):
        # A probe re-runs from t=0 at a doubled horizon with the same mu, so
        # only the last run of each same-mu group adds new steps.
        last_of_probe = i + 1 == len(search_runs) or search_runs[i + 1]["attrs"].get("mu") != r["attrs"].get("mu")
        if last_of_probe:
            useful += steps_of[r["id"]]
    put("thresholds.useful_step_frac", _ratio(useful, sum(steps_of.values())), "ratio")
    put("thresholds.find_mu_star.s", tr.span_totals("thresholds.find_mu_star")[1], "s")

    roots = {"thresholds.find_L_star", "thresholds.find_d_star"}
    for name in sorted(roots):
        calls, total, _ = tr.span_totals(name)
        put(f"{name}.calls", calls, "count")
        put(f"{name}.s", total, "s")
    eigens = tr.named("spectral.principal_eigenvalue")
    root_calls = sum(tr.span_totals(name)[0] for name in roots)
    root_solves = sum(1 for e in eigens if tr.ancestor(e, roots) is not None)
    put("thresholds.eigen_solves_per_root", _ratio(root_solves, root_calls), "count")
    put("thresholds.vanishing_mu_bound.s", tr.span_totals("thresholds.vanishing_mu_bound")[1], "s")

    calls, total, self_s = tr.span_totals("spectral.principal_eigenvalue")
    put("spectral.principal_eigenvalue.calls", calls, "count")
    put("spectral.principal_eigenvalue.s", total, "s")
    put("spectral.principal_eigenvalue.self_s", self_s, "s")
    calls, total, _ = tr.tally_totals("spectral.assemble_operator")
    put("spectral.assemble_operator.calls", calls, "count")
    put("spectral.assemble_operator.s", total, "s")
    # Computed from matrix sizes, not counted: a dense symmetric eigensolve
    # with vectors of an N x N matrix (N = 2n) takes about 9 N^3 flops
    # (Golub & Van Loan), and the assembled float64 matrix holds 8 N^2 bytes.
    sizes = [2 * e["attrs"].get("n", 0) for e in eigens]
    put("spectral.flops_computed", float(sum(9 * n**3 for n in sizes)), "flop")
    put("spectral.matrix_bytes_computed", float(sum(8 * n**2 for n in sizes)), "bytes")
    put("spectral.rayleigh_residual_max", max((e["attrs"].get("residual", 0.0) for e in eigens), default=0.0), "1")

    calls, total, _ = tr.span_totals("ode.integrate_ode")
    put("ode.integrate_ode.calls", calls, "count")
    put("ode.integrate_ode.s", total, "s")
    put("ode.steps", sum(s["attrs"].get("steps", 0) for s in tr.named("ode.integrate_ode")), "count")

    calls, total, _ = tr.span_totals("config.parse_config")
    put("config.parse_config.calls", calls, "count")
    put("config.parse_config.s", total, "s")

    calls, total, self_s = tr.span_totals("cli.simulate")
    put("cli.simulate.calls", calls, "count")
    put("cli.simulate.s", total, "s")
    put("cli.simulate.self_s", self_s, "s")
    sim_runs = sum(1 for r in runs if tr.ancestor(r, {"cli.simulate"}) is not None)
    put("cli.simulate.runs_per_call", _ratio(sim_runs, calls), "count")
    return out
