"""Smoke self-test of the benchmark. Run from the repository root:

    python3 -m pytest perfbench

Every workload runs on a tiny task list (--smoke, seed 0). The tests check
that each metric named in BENCHMARK.json is emitted with its unit and a finite
value, that every answer matches its pinned reference, that tracing changes no
answer, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)
LISTED = [w["name"] for w in BENCH["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_metric_is_emitted(workload, trace):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), metric["name"]


def test_listed_workloads_exist():
    assert set(LISTED) <= set(workloads.NAMES)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_answers_equal_untraced(workload, tmp_path):
    cli = run.import_cli()
    inputs = workloads.build(workload, 0, str(tmp_path), smoke=True)
    tasks = [task.serial() for task in inputs.tasks]
    plain = run.run_pass(cli, tasks)
    tr = tracer.Tracer()
    tr.install()
    try:
        seen = run.run_pass(cli, tasks, tr)
    finally:
        tr.uninstall()
    assert not tr.missing
    assert tr.spans, "the hooks recorded nothing"
    for task, (_, a), (_, b) in zip(tasks, plain, seen):
        assert a["error"] is None, a["error"]
        assert run.same_answer(a, b), task.key


def test_uninstall_restores_every_binding():
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, *_ in tracer.HOOKS}
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    after = {(m, a): getattr(importlib.import_module(m), a) for m, a, *_ in tracer.HOOKS}
    assert before == after


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", LISTED[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
