"""epifront benchmark: time to a correct answer, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload mustar --seed 0 --seconds 10 --trace 0

Workloads (see README.md): mustar, spectral, cli_configs, and sweep (kept out
of BENCHMARK.json while its timing is unsteady). Each task is one call of the
in-process CLI, `epifront.cli.main`, on configs generated from the seed under
a scratch directory inside the checkout, which is removed at the end.

--trace 0 measures the end-to-end metrics: set-up time as the median of
several cold starts in fresh processes, then whole passes over the task list
for --seconds after warm-up, reporting the median pass. --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of the first
traced pass plus the tracing overhead. Every answer is checked against the
references pinned in data/reference.json. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
SETUP_REPEATS = 5
ENV_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "EPIFRONT_WORKERS")


class ProgramMissing(RuntimeError):
    pass


def import_cli():
    """Import the CLI from this checkout's src/, never from an installed copy."""
    init = os.path.join(SRC, "epifront", "__init__.py")
    if not os.path.isfile(init):
        raise ProgramMissing(f"no epifront package at {os.path.relpath(init, ROOT)}")
    sys.path.insert(0, SRC)
    import epifront.cli

    if not os.path.abspath(epifront.cli.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"imported epifront from {epifront.cli.__file__}, not {SRC}")
    return epifront.cli


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown (not a git checkout)"
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def env_stamp() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    stamp = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
    }
    stamp.update({key: os.environ.get(key) for key in ENV_KEYS})
    stamp["commit"] = git_commit()
    return stamp


# -- tasks ----------------------------------------------------------------------------

def invoke(cli, task) -> dict:
    """Run one CLI call in-process; capture what it prints and any exception."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(task.argv))
        except (Exception, SystemExit):  # a failed task is counted, the run goes on
            error = traceback.format_exc(limit=3)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def run_pass(cli, tasks, tr=None) -> list:
    """Run every task once, back to back. Returns (seconds, outcome) per task."""
    timed = []
    for task in tasks:
        start = perf_counter()
        if tr is None:
            outcome = invoke(cli, task)
        else:
            with tr.span("cli." + task.argv[0]):
                outcome = invoke(cli, task)
        seconds = perf_counter() - start
        outcome["files"] = workloads.file_digest(task)
        timed.append((seconds, outcome))
    return timed


def problems_of(task, outcome, ref) -> list:
    if outcome["error"] is not None:
        return [f"{task.key}: raised\n{outcome['error']}"]
    try:
        result = workloads.parse(task, outcome["stdout"])
    except (ValueError, KeyError, IndexError, OSError) as err:
        return [f"{task.key}: unreadable output ({err}): {outcome['stdout'][:200]!r} {outcome['stderr'][:200]!r}"]
    try:
        return workloads.check(task, outcome["code"], result, ref.get(task.key))
    except (KeyError, TypeError, ValueError, IndexError) as err:
        return [f"{task.key}: answer lacks a checked field ({err!r})"]


def same_answer(a: dict, b: dict) -> bool:
    return all(a[key] == b[key] for key in ("code", "stdout", "error", "files"))


class Tally:
    """Tasks attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.problems: list = []
        self.failed = 0

    def add(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def warm_up(cli, inputs) -> None:
    for task in inputs.warmups:
        outcome = invoke(cli, task)
        if outcome["error"] is not None:
            raise RuntimeError(f"warm-up {task.key} failed:\n{outcome['error']}")


def setup_probe(args) -> int:
    """Body of one cold start: import, generate inputs, first call of each kind."""
    cli = import_cli()
    warm_up(cli, workloads.build(args.workload, args.seed, args.workdir, args.smoke))
    return 0


def cold_starts(args, workdir: str) -> list:
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", os.path.join(workdir, f"setup{i}")]
        if args.smoke:
            cmd.append("--smoke")
        start = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return times


# -- measurement ----------------------------------------------------------------------

def tail(times: list) -> tuple | None:
    """Highest percentile with at least 10 samples beyond it: (level %, seconds)."""
    n = len(times)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def sweep_check(cli, task, parallel: dict, ref: dict, tr=None) -> list:
    """Run the sweep in one process and compare its CSV with the pooled run's."""
    with tr.span("cli.sweep") if tr is not None else contextlib.nullcontext():
        serial = invoke(cli, task.serial())
    serial["files"] = workloads.file_digest(task)
    problems = problems_of(task, serial, ref)
    if serial["files"] != parallel["files"]:
        problems.append("sweep: CSV bytes differ between --workers 1 and --workers 2")
    return problems


def end_to_end(args, cli, inputs, ref, workdir: str, report: list) -> tuple:
    setup = cold_starts(args, workdir)
    warm_up(cli, inputs)
    tally = Tally()
    passes = []
    deadline = perf_counter() + args.seconds
    while not passes or perf_counter() < deadline:
        passes.append(run_pass(cli, inputs.tasks))
    for timed in passes:
        for task, (_, outcome) in zip(inputs.tasks, timed):
            tally.add(problems_of(task, outcome, ref))
    if args.workload == "sweep":
        tally.add(sweep_check(cli, inputs.tasks[0], passes[-1][0][1], ref))
    task_times = [s for timed in passes for s, _ in timed]
    walls = [sum(s for s, _ in timed) for timed in passes]
    # Median task of each pass, then the median over passes. A task list mixes
    # kinds whose times differ tenfold, so a median over all samples would fall
    # on the edge between two kinds; the lower median is one task's time, not
    # the mean of two different kinds.
    p50s = [statistics.median_low([s for s, _ in timed]) for timed in passes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "task_p50_s": (statistics.median(p50s), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    report.append(f"setup_s      {metrics['setup_s'][0]:.4f} s   median of {len(setup)} cold starts {[round(x, 3) for x in setup]}")
    report.append(f"wall_s       {metrics['wall_s'][0]:.4f} s   median of {len(walls)} passes of {len(inputs.tasks)} tasks")
    report.append(f"task_p50_s   {metrics['task_p50_s'][0]:.4f} s   median over passes of each pass's lower-median task")
    t = tail(task_times)
    if t is None:
        report.append(f"task_tail_s  undefined: n={len(task_times)} tasks, fewer than 11")
    else:
        report.append(f"task_tail_s  {t[1]:.4f} s   p{t[0]:.1f}, n={len(task_times)}, 10 beyond")
    for i, task in enumerate(inputs.tasks):
        report.append(f"  task {task.key:<28} median {statistics.median(timed[i][0] for timed in passes):.4f} s")
    report.append(f"failed_frac  {tally.failed / tally.attempted:.4f}   {tally.failed}/{tally.attempted} tasks")
    report.append(f"peak_rss_mb  {rss_mb:.1f} MB")
    return metrics, tally


def per_layer(args, cli, inputs, ref, report: list) -> tuple:
    warm_up(cli, inputs)
    tasks = [task.serial() for task in inputs.tasks]  # a pool hides its workers' calls
    tally = Tally()
    untraced, traced, first = [], [], None
    deadline = perf_counter() + args.seconds
    while not traced or perf_counter() < deadline:
        plain = run_pass(cli, tasks)
        tr = tracing.Tracer()
        tr.install()
        try:
            seen = run_pass(cli, tasks, tr)
        finally:
            tr.uninstall()
        first = first or tr
        untraced.append(sum(s for s, _ in plain))
        traced.append(sum(s for s, _ in seen))
        for task, (_, a), (_, b) in zip(tasks, plain, seen):
            tally.add(problems_of(task, a, ref))
            differs = [] if same_answer(a, b) else [f"{task.key}: traced answer differs from the untraced one"]
            tally.add(problems_of(task, b, ref) + differs)
    metrics = tracing.layer_metrics(first)
    metrics["cli.bytes_written"] = (sum(workloads.written_bytes(t) for t in tasks), "bytes")

    points, point_p50, efficiency = 0, 0.0, 0.0
    sweep = inputs.sweep or (inputs.tasks[0] if args.workload == "sweep" else None)
    if sweep is not None:
        start = perf_counter()
        parallel = invoke(cli, sweep)
        parallel_wall = perf_counter() - start
        parallel["files"] = workloads.file_digest(sweep)
        tally.add(problems_of(sweep, parallel, ref))
        tr = tracing.Tracer()
        tr.install()
        try:
            problems = sweep_check(cli, sweep, parallel, ref, tr)
        finally:
            tr.uninstall()
        tally.add(problems)
        durations = [span["end"] - span["start"] for span in tr.named("cli.sweep.point")]
        workers = int(sweep.argv[sweep.argv.index("--workers") + 1])
        points, point_p50 = len(durations), statistics.median(durations) if durations else 0.0
        efficiency = sum(durations) / (workers * parallel_wall)
        metrics["cli.bytes_written"] = (metrics["cli.bytes_written"][0] + workloads.written_bytes(sweep), "bytes")
        report.append(f"sweep        {points} points, --workers {workers} wall {parallel_wall:.3f} s, "
                      f"serial traced point work {sum(durations):.3f} s")
    metrics["cli.sweep.points"] = (points, "count")
    metrics["cli.sweep.point_p50_s"] = (point_p50, "s")
    metrics["cli.sweep.parallel_eff"] = (efficiency, "ratio")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    report.append(f"traced pass  {statistics.median(traced):.4f} s vs untraced {statistics.median(untraced):.4f} s "
                  f"(medians of {len(traced)})")
    if first.missing:
        report.append("trace hooks not found: " + ", ".join(first.missing))
    return metrics, tally


def measure(args) -> int:
    cli = import_cli()
    stamp = env_stamp()
    os.environ.pop("EPIFRONT_WORKERS", None)  # let sweep use the workers it asks for
    refs = workloads.reference_for(workloads.load_reference(), args.workload, args.seed, args.smoke)
    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    report = [
        f"epifront benchmark: workload={args.workload} seed={args.seed} variant={workloads.variant_of(args.seed)} "
        f"trace={args.trace} seconds={args.seconds}{' smoke' if args.smoke else ''}",
        "env " + json.dumps(stamp, sort_keys=True),
    ]
    try:
        inputs = workloads.build(args.workload, args.seed, os.path.join(workdir, "main"), args.smoke)
        if args.trace:
            metrics, tally = per_layer(args, cli, inputs, refs, report)
        else:
            metrics, tally = end_to_end(args, cli, inputs, refs, workdir, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    for line in tally.problems[:20]:
        report.append("MISMATCH " + line)
    print("\n".join(report))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny task lists, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        return setup_probe(args) if args.setup_probe else measure(args)
    except ProgramMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
