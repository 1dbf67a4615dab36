"""Command-line surface: strict parsing, outputs, determinism, exit codes."""

import contextlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from epifront.cli import main
from epifront.config import build_profile, parse_config_dict
from epifront.kernels import WeightSpec, support_radius

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

BASE_CONFIG = {
    "model": {
        "d1": 1.0, "d2": 1.0, "a": 1.0, "b": 1.0, "e": 1.0,
        "mu": 0.5, "rho": 0.5, "h0": 1.0,
        "kernel1": {"family": "uniform", "radius": 1.0},
        "kernel2": {"family": "uniform", "radius": 1.0},
        "weight": {"family": "kernel_tail", "kernel": {"family": "uniform", "radius": 1.0}},
        "infection": {"family": "saturating", "alpha": 0.5, "lambda": 1.0},
    },
    "numerics": {"dx": 0.05, "dt": 0.1, "t_end": 40.0, "domain_cap": 5.0, "record_every": 10},
    "initial": {
        "u0": {"family": "bump", "amplitude": 1.0},
        "v0": {"family": "bump", "amplitude": 1.0},
    },
    "output": {"directory": "out"},
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def deep(data):
    return json.loads(json.dumps(data))


def test_minimal_config_gets_defaults():
    minimal = {"model": deep(BASE_CONFIG["model"])}
    cfg, issues = parse_config_dict(minimal)
    assert issues == []
    assert cfg.numerics.dx == pytest.approx(cfg.params.h0 / 20.0)
    # dt defaults to the explicit stability guard
    assert cfg.numerics.dt == pytest.approx(0.9 / (1 + 1 + 1 + 1 + 1 + 0.5))
    assert cfg.numerics.domain_cap == pytest.approx(8.0)
    assert cfg.u0.family == "bump"


def test_negative_rate_reported():
    bad = deep(BASE_CONFIG)
    bad["model"]["a"] = -1.0
    cfg, issues = parse_config_dict(bad)
    assert cfg is None
    assert any("a must be > 0" in s for s in issues)


def test_saturation_exponent_range_reported():
    bad = deep(BASE_CONFIG)
    bad["model"]["infection"]["lambda"] = 1.5
    cfg, issues = parse_config_dict(bad)
    assert cfg is None
    assert any("lambda: must lie in (0, 1]" in s for s in issues)


def test_unknown_keys_rejected_everywhere():
    bad = deep(BASE_CONFIG)
    bad["model"]["typo_key"] = 3.0
    bad["numerics"]["verbose"] = True
    bad["extra_block"] = {}
    cfg, issues = parse_config_dict(bad)
    assert cfg is None
    assert sum("unknown key" in s for s in issues) == 3


def test_unknown_kernel_family_reported():
    bad = deep(BASE_CONFIG)
    bad["model"]["kernel1"] = {"family": "cauchy", "scale": 1.0}
    cfg, issues = parse_config_dict(bad)
    assert cfg is None
    assert any("unknown kernel family" in s for s in issues)


def test_violations_collected_not_fail_fast():
    bad = deep(BASE_CONFIG)
    bad["model"]["a"] = -1.0
    bad["model"]["mu"] = -2.0
    bad["model"]["infection"]["lambda"] = 2.0
    _, issues = parse_config_dict(bad)
    assert len(issues) >= 3


def test_scaled_profile_builder():
    cfg, issues = parse_config_dict({
        "model": deep(BASE_CONFIG["model"]),
        "initial": {
            "u0": {"family": "scaled", "sigma": 2.0, "base": {"family": "bump", "amplitude": 1.0}},
            "v0": {"family": "cosine", "amplitude": 0.5},
        },
    })
    assert issues == []
    u0 = build_profile(cfg.u0, 1.0)
    v0 = build_profile(cfg.v0, 1.0)
    assert u0(0.0) == pytest.approx(2.0)
    assert v0(0.0) == pytest.approx(0.5)
    assert u0(1.0) == 0.0 and v0(1.0) == pytest.approx(0.0, abs=1e-12)


def test_validate_subcommand_pass(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_validate_subcommand_weight_failure(tmp_path, capsys):
    bad = deep(BASE_CONFIG)
    bad["model"]["weight"] = {"family": "table", "points": [[0.0, 0.0], [1.0, 1.0]]}
    path = write_config(tmp_path, bad)
    assert main(["validate", path]) == 2
    out = capsys.readouterr().out
    assert "FAIL (W)" in out


def test_simulate_outputs_and_roundtrip(tmp_path):
    data = deep(BASE_CONFIG)
    data["output"]["directory"] = str(tmp_path / "out")
    path = write_config(tmp_path, data)
    assert main(["simulate", path]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["classification"] == "vanishing"
    assert summary["config"] == data  # bit-identical echo after JSON round-trip
    assert summary["r0"] == 0.5
    assert math.isfinite(summary["refinement_delta"])
    rows = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert rows[0] == "t,g,h,sup_u,sup_v,mass_u,mass_v"
    assert len(rows) > 3


def test_simulate_deterministic_bytes(tmp_path):
    data = deep(BASE_CONFIG)
    data["numerics"]["t_end"] = 10.0
    first = tmp_path / "a"
    second = tmp_path / "b"
    for outdir in (first, second):
        data["output"]["directory"] = str(outdir)
        path = write_config(tmp_path, data)
        assert main(["simulate", path]) == 0
    assert (first / "trajectory.csv").read_bytes() == (second / "trajectory.csv").read_bytes()


def test_snapshots_written(tmp_path):
    data = deep(BASE_CONFIG)
    data["numerics"]["t_end"] = 5.0
    data["output"] = {"directory": str(tmp_path / "snap"), "snapshots": True}
    path = write_config(tmp_path, data)
    assert main(["simulate", path]) == 0
    head = (tmp_path / "snap" / "snapshots.csv").read_text().splitlines()[0]
    assert head == "t,x,u,v"


def test_ode_subcommand_writes_csv(tmp_path):
    data = deep(BASE_CONFIG)
    data["output"]["directory"] = str(tmp_path / "ode_out")
    data["ode"] = {"u0": 1.0, "v0": 1.0, "t_end": 5.0, "dt": 0.01}
    path = write_config(tmp_path, data)
    assert main(["ode", path]) == 0
    header = (tmp_path / "ode_out" / "ode.csv").read_text().splitlines()[0]
    assert header == "t,u,v"


def test_ode_subcommand_emits_decay_column_at_balance(tmp_path):
    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 1.0  # r0 = 1
    data["output"]["directory"] = str(tmp_path / "ode_bal")
    data["ode"] = {"u0": 1.0, "v0": 1.0, "t_end": 5.0, "dt": 0.01}
    path = write_config(tmp_path, data)
    assert main(["ode", path]) == 0
    lines = (tmp_path / "ode_bal" / "ode.csv").read_text().splitlines()
    assert lines[0] == "t,u,v,V"
    values = np.array([float(r.split(",")[3]) for r in lines[1:]])
    assert np.all(np.diff(values) <= 1e-10)


def test_eigen_subcommand(tmp_path, capsys):
    data = deep(BASE_CONFIG)
    data["eigen"] = {"L1": -2.0, "L2": 2.0, "n": 200}
    path = write_config(tmp_path, data)
    dump = tmp_path / "modes.csv"
    assert main(["eigen", path, "--dump", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "lambda_p=" in out
    assert dump.read_text().splitlines()[0] == "x,phi1,phi2"


def test_eigen_requires_block(tmp_path, capsys):
    path = write_config(tmp_path, deep(BASE_CONFIG))
    assert main(["eigen", path]) == 2


def test_thresholds_lstar_json(tmp_path, capsys):
    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 2.0
    data["thresholds"] = {"n": 181}
    path = write_config(tmp_path, data)
    assert main(["thresholds", path, "--target", "Lstar"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.6015, abs=2e-3)
    assert payload["bracket"][0] <= payload["value"] <= payload["bracket"][1]
    assert len(payload["probes"]) > 4


def test_thresholds_regime_error_exit(tmp_path, capsys):
    path = write_config(tmp_path, deep(BASE_CONFIG))  # r0 = 0.5
    assert main(["thresholds", path, "--target", "Lstar"]) == 2


def test_invalid_config_exit_code(tmp_path, capsys):
    bad = deep(BASE_CONFIG)
    bad["model"]["a"] = -1.0
    path = write_config(tmp_path, bad)
    assert main(["simulate", path]) == 2
    assert "invalid config" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("tol_vanish", 0), ("tol_spread", -5)])
def test_classification_tolerances_out_of_range_exit_2(tmp_path, capsys, key, value):
    bad = deep(BASE_CONFIG)
    bad["numerics"][key] = value
    cfg, issues = parse_config_dict(bad)
    bound = "> 0" if key == "tol_vanish" else ">= 0"
    assert cfg is None and issues == [f"config.numerics: {key} must be {bound}"]
    assert main(["simulate", write_config(tmp_path, bad)]) == 2
    assert f"{key} must be {bound}" in capsys.readouterr().err


def test_sweep_single_switch(tmp_path):
    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 2.0
    data["model"]["h0"] = 0.4
    data["numerics"] = {"dx": 0.04, "dt": 0.12, "t_end": 150.0, "domain_cap": 4.0, "record_every": 10}
    spec = {
        "parameter": "mu",
        "values": [0.02, 0.05, 0.5, 1.0],
        "config": data,
        "output": str(tmp_path / "sweep.csv"),
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    outcomes = [r.split(",")[1] for r in rows]
    assert outcomes == ["vanishing", "vanishing", "spreading", "spreading"]


def test_sweep_rejects_empty_and_non_monotone_grid(tmp_path, capsys):
    data = deep(BASE_CONFIG)
    for values in ([], [0.1, 0.3, 0.2]):
        spec = {"parameter": "mu", "values": values, "config": data, "output": str(tmp_path / "s.csv")}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", str(path)]) == 2


def test_sigma_sweep_single_switch_with_workers(tmp_path):
    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 2.0
    data["model"]["h0"] = 0.4
    data["model"]["mu"] = 2.0
    data["model"]["kernel1"] = {"family": "gaussian", "std": 0.5}
    data["model"]["kernel2"] = {"family": "gaussian", "std": 0.5}
    data["model"]["weight"] = {"family": "kernel_tail", "kernel": {"family": "gaussian", "std": 0.5}}
    data["numerics"] = {"dx": 0.04, "dt": 0.12, "t_end": 150.0, "domain_cap": 5.0, "record_every": 10}
    spec = {
        "parameter": "sigma",
        "values": [1e-3, 3e-3, 0.05, 0.5],
        "config": data,
        "output": str(tmp_path / "sig.csv"),
    }
    path = tmp_path / "sigma_sweep.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path), "--workers", "2"]) == 0
    rows = (tmp_path / "sig.csv").read_text().splitlines()[1:]
    outcomes = [r.split(",")[1] for r in rows]
    assert outcomes == ["vanishing", "vanishing", "spreading", "spreading"]


def test_thresholds_dstar_json(tmp_path, capsys):
    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 2.0
    data["thresholds"] = {"n": 181}
    path = write_config(tmp_path, data)
    out_json = tmp_path / "dstar.json"
    assert main(["thresholds", path, "--target", "dstar", "--out", str(out_json)]) == 0
    payload = json.loads(out_json.read_text())
    assert payload["value"] == pytest.approx(1.857, abs=5e-3)
    assert payload["bracket"][0] <= payload["value"] <= payload["bracket"][1]


def test_top_level_must_be_object(tmp_path):
    cfg, issues = parse_config_dict([1, 2, 3])
    assert cfg is None
    assert issues == ["top level: must be an object"]


def test_sweep_worker_env_cap(tmp_path, monkeypatch):
    # --workers is the only worker setting: EPIFRONT_WORKERS is not read, so
    # neither a "cap" of 1 nor an invalid 0 changes the pool --workers asks for.
    import epifront.cli as cli

    sizes = []

    def pool(max_workers):  # maps in this process
        sizes.append(max_workers)
        return contextlib.nullcontext(SimpleNamespace(map=map))

    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    data = deep(BASE_CONFIG)
    data["numerics"]["t_end"] = 1.0
    spec = {"parameter": "mu", "values": [0.1, 0.2, 0.3], "config": data, "output": str(tmp_path / "cap.csv")}
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(spec))
    for cap in ("0", "1"):
        monkeypatch.setenv("EPIFRONT_WORKERS", cap)
        assert main(["sweep", str(path), "--workers", "2"]) == 0
        assert len((tmp_path / "cap.csv").read_text().splitlines()) == 4
    assert sizes == [2, 2]


def test_sweep_deterministic_across_worker_counts(tmp_path):
    data = deep(BASE_CONFIG)
    data["numerics"]["t_end"] = 5.0
    outputs = []
    for tag, workers in (("serial", 1), ("pool", 2)):
        out = tmp_path / f"{tag}.csv"
        spec = {"parameter": "mu", "values": [0.1, 0.3], "config": data, "output": str(out)}
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", str(path), "--workers", str(workers)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_thresholds_mustar_with_config_bracket(tmp_path, capsys):
    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 2.0
    data["model"]["h0"] = 0.4
    data["numerics"] = {"dx": 0.04, "dt": 0.12, "t_end": 150.0, "domain_cap": 4.0, "record_every": 10}
    data["thresholds"] = {"n": 241, "bracket_lo": 0.05, "bracket_hi": 0.5}
    path = write_config(tmp_path, data)
    assert main(["thresholds", path, "--target", "mustar"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lo_outcome"] == "vanishing"
    assert payload["hi_outcome"] == "spreading"
    assert payload["bracket"][1] - payload["bracket"][0] <= 1e-2 * payload["bracket"][1]
    # The function-level search and the CLI agree on the threshold location.
    assert payload["bracket"][0] <= 0.2 <= payload["bracket"][1] or abs(payload["value"] - 0.188) < 0.05


def _gaussian_threshold_config(tmp_path, **thresholds):
    data = json.loads((CONFIG_DIR / "threshold_search.json").read_text())
    kernel = {"family": "gaussian", "std": 0.5}
    data["model"].update(kernel1=kernel, kernel2=kernel, weight={"family": "kernel_tail", "kernel": kernel})
    data["output"]["directory"] = str(tmp_path / "out")
    data["thresholds"].update(thresholds)
    return write_config(tmp_path, data)


def test_gaussian_sigmastar_settles_a_decayed_probe_by_its_window_eigenvalue(tmp_path, capsys):
    # The probe sigma = 0.025483 stops decayed (sup u + v 9.9e-6, front speed
    # 1.2e-6) at t = 880.8 with width 0.9335, just above 2L* = 0.9209 from the
    # n = 241 spectral grid, where the width rule cannot call it. Its window
    # eigenvalue on the simulator's grid is positive, so it vanishes. The
    # high end is certified spreading early.
    lo, hi = 0.025482967479793464, 0.03162277660168379
    path = _gaussian_threshold_config(tmp_path, bracket_lo=lo, bracket_hi=hi, rel_tol=0.25)
    assert main(["thresholds", path, "--target", "sigmastar"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["probes"] == [[lo, "vanishing"], [hi, "spreading"]]
    assert payload["bracket"] == [lo, hi] and payload["iterations"] == 0


def test_simulate_and_sweep_never_certify(tmp_path, capsys):
    # mu = 0.2 on threshold_search.json: a certifying run stops at its window
    # eigenvalue, but simulate and sweep run it to t_end: its width is not yet
    # past 2 L* + tol_spread. At mu = 0.3 sweep runs to the stop width.
    from epifront import run
    from epifront.config import parse_config

    data = json.loads((CONFIG_DIR / "threshold_search.json").read_text())
    data["model"]["mu"] = 0.2
    data["output"]["directory"] = str(tmp_path / "out")
    path = write_config(tmp_path, data)
    cfg, _ = parse_config(path)
    u0, v0 = build_profile(cfg.u0, 0.4), build_profile(cfg.v0, 0.4)
    certified = run(cfg.params, cfg.numerics, u0, v0, certify=lambda H, norm: 0.0)
    assert certified.status == "stopped_certified" and certified.t[-1] < 60.0
    assert main(["simulate", path]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "completed" and summary["classification"] == "undecided"  # width rule only
    spec = {"parameter": "mu", "values": [0.2, 0.3], "config": data, "output": str(tmp_path / "s.csv")}
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    assert main(["sweep", str(tmp_path / "sweep.json")]) == 0
    rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["completed", "stopped_width"]


def test_simulate_numerical_failure_exit(tmp_path):
    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 2.0
    data["model"]["mu"] = 50.0
    data["numerics"] = {"dx": 0.05, "dt": 0.1, "t_end": 50.0, "domain_cap": 2.0, "record_every": 5}
    data["output"]["directory"] = str(tmp_path / "boom")
    path = write_config(tmp_path, data)
    assert main(["simulate", path]) == 3
    summary = json.loads((tmp_path / "boom" / "summary.json").read_text())
    assert summary["status"] == "domain_exhausted"


def test_a_simulate_run_that_fails_prints_one_line_exit_3(tmp_path, capsys):
    # The shipped threshold-search config runs off its grid. The files are
    # still written, stdout keeps its one summary line, and the stderr line
    # ends with the failed step's own message and time.
    data = json.loads((CONFIG_DIR / "threshold_search.json").read_text())
    data["output"]["directory"] = str(tmp_path / "out")
    assert main(["simulate", write_config(tmp_path, data)]) == 3
    captured = capsys.readouterr()
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "domain_exhausted"
    assert captured.out.startswith("classification=") and captured.out.count("\n") == 1
    assert captured.err == (
        f"numerical failure: run ended domain_exhausted; last recorded t={summary['final']['t']:.6g}; "
        "t=72.36: front left the preallocated grid\n"
    )


def test_spectral_failure_is_a_numerical_failure(tmp_path, capsys):
    # A kernel far narrower than the eigen grid spacing yields a principal
    # eigenvector with sign changes; that is exit 3, not a traceback.
    data = deep(BASE_CONFIG)
    narrow = {"family": "gaussian", "std": 0.001}
    data["model"].update(kernel1=narrow, kernel2=narrow, weight={"family": "kernel_tail", "kernel": narrow})
    data["model"]["infection"]["alpha"] = 2.0
    data["eigen"] = {"L1": -2.0, "L2": 2.0, "n": 16}
    data["thresholds"] = {"n": 16}
    path = write_config(tmp_path, data)
    for argv in (["eigen", path], ["thresholds", path, "--target", "Lstar"]):
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:") and "Traceback" not in err


@pytest.mark.parametrize(
    "weight_kernel, domain_cap, line",
    [
        ({"family": "uniform", "radius": 1e308}, 5.0, "FAIL (W) weight: W(0) must be positive"),
        (
            {"family": "power_tail", "exponent": 1.457e5, "cutoff": 6.3e-188},
            1.45e202,
            "FAIL (W) weight: non-finite weight values sampled",
        ),
        # 2 * domain_cap overflows: the config is rejected before (W) is probed
        ({"family": "gaussian", "std": 0.5}, 1e308, "FAIL config: config.numerics: 2*domain_cap must be finite"),
    ],
    ids=["uniform_radius_1e308", "power_tail_overflow", "gaussian_infinite_probe"],
)
def test_validate_reports_tails_that_break_W(tmp_path, capsys, weight_kernel, domain_cap, line):
    data = deep(BASE_CONFIG)
    data["model"]["weight"] = {"family": "kernel_tail", "kernel": weight_kernel}
    data["numerics"]["domain_cap"] = domain_cap
    path = write_config(tmp_path, data)
    with np.errstate(all="ignore"):
        assert main(["validate", path]) == 2
    out = capsys.readouterr().out.splitlines()
    assert [row for row in out if row.startswith("FAIL")] == [line]


def cli_process(tmp_path, data, *argv):
    """The CLI on the config `data` in a fresh interpreter, so stderr holds
    what a user sees, numpy's RuntimeWarnings included."""
    path = write_config(tmp_path, data)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))}
    cmd = [sys.executable, "-m", "epifront.cli", *argv, path]
    return subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def test_validate_reports_an_underflowing_power_tail_weight_without_a_warning(tmp_path):
    # x0 / |x| underflows to 0 far out on this tail, so its exponent
    # correction is 0/0: a NaN that (W)'s finiteness check reports, and no
    # numpy warning on stderr.
    data = deep(BASE_CONFIG)
    data["model"]["weight"] = {"family": "kernel_tail", "kernel": {"family": "power_tail", "exponent": 1.457e5, "cutoff": 6.3e-188}}
    data["numerics"]["domain_cap"] = 1.45e202
    proc = cli_process(tmp_path, data, "validate")
    assert proc.returncode == 2
    assert [row for row in proc.stdout.splitlines() if row.startswith("FAIL")] == [
        "FAIL (W) weight: non-finite weight values sampled"
    ]
    assert proc.stderr == ""


@pytest.mark.parametrize("weight_kernel", [{"family": "gaussian", "std": 0.5}, {"family": "laplace", "scale": 0.5}], ids=["gaussian", "laplace"])
def test_a_domain_cap_whose_double_overflows_is_one_config_line(tmp_path, weight_kernel):
    # The front law reads W on [0, 2*domain_cap]; an interval that is not
    # finite is the config's fault, said once, with no numpy warning.
    data = deep(BASE_CONFIG)
    data["model"]["weight"] = {"family": "kernel_tail", "kernel": weight_kernel}
    data["numerics"]["domain_cap"] = 1e308
    validate = cli_process(tmp_path, data, "validate")
    assert (validate.returncode, validate.stdout, validate.stderr) == (
        2, "FAIL config: config.numerics: 2*domain_cap must be finite\n", ""
    )
    simulate = cli_process(tmp_path, data, "simulate")
    assert (simulate.returncode, simulate.stdout, simulate.stderr) == (
        2, "", "invalid config: config.numerics: 2*domain_cap must be finite\n"
    )


@pytest.mark.parametrize("exponent", [1.2, 1.5, 2.0, 2.5])
def test_validate_passes_power_tail_kernels(tmp_path, capsys, exponent):
    data = deep(BASE_CONFIG)
    kern = {"family": "power_tail", "exponent": exponent, "cutoff": 0.5}
    data["model"].update(kernel1=kern, kernel2=kern, weight={"family": "kernel_tail", "kernel": kern})
    path = write_config(tmp_path, data)
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("numerics", "dx", "0.05"),
        ("numerics", "record_every", 2.5),
        ("ode", "u0", "x"),
        ("ode", "dt", [0.01]),
        ("thresholds", "n", "241"),
    ],
)
def test_wrong_typed_value_is_a_config_error(tmp_path, capsys, block, key, value):
    data = deep(BASE_CONFIG)
    data.setdefault(block, {})[key] = value
    cfg, issues = parse_config_dict(data)
    kind = "an integer" if key in ("n", "record_every") else "a number"
    assert cfg is None and issues == [f"config.{block}.{key}: must be {kind}"]
    assert main(["simulate", write_config(tmp_path, data)]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_typed_fields_keep_their_messages_and_order():
    data = deep(BASE_CONFIG)
    data["numerics"]["record_every"] = 2.5
    data["thresholds"] = {"n": True}
    data["eigen"] = {"L1": -1.0, "L2": 1.0, "n": "400"}
    data["output"] = {"directory": 5, "snapshots": "yes", "format": "csv"}
    cfg, issues = parse_config_dict(data)
    assert cfg is None and issues == [
        "config.numerics.record_every: must be an integer",
        "config.output.directory: must be a string",
        "config.output.snapshots: must be a boolean",
        "config.output: unknown key 'format'",
        "config.eigen.n: must be an integer",
        "config.thresholds.n: must be an integer",
    ]


def test_the_infection_family_is_saturating_only():
    data = deep(BASE_CONFIG)
    assert parse_config_dict(data)[1] == []
    data["model"]["infection"]["family"] = "hill"
    cfg, issues = parse_config_dict(data)
    assert cfg is None and issues[0] == "config.model.infection.family: unknown infection family 'hill'"


@pytest.mark.parametrize(
    "key, block, missing",
    [
        ("kernel1", {"family": "gaussian"}, "kernel1.std"),
        ("kernel2", {"family": "power_tail", "cutoff": 0.5}, "kernel2.exponent"),
        ("weight", {"family": "constant_on", "height": 1.0}, "weight.radius"),
        ("weight", {"family": "constant_on", "radius": 1.0}, "weight.height"),
    ],
    ids=["gaussian_std", "power_tail_exponent", "constant_on_radius", "constant_on_height"],
)
def test_a_missing_required_number_is_reported_once(key, block, missing):
    data = deep(BASE_CONFIG)
    data["model"][key] = block
    assert parse_config_dict(data) == (None, [f"config.model.{missing}: missing"])


@pytest.mark.parametrize(
    "path, block, noun",
    [
        (("model", "kernel1"), {"family": "gausian", "std": 0.5}, "kernel"),
        (("model", "weight"), {"family": "constant", "radius": 1.0, "height": 1.0}, "weight"),
        (("model", "infection"), {"family": "hill", "alpha": 0.5, "lambda": 1.0}, "infection"),
        (("initial", "u0"), {"family": "gauss", "amplitude": 1.0}, "profile"),
    ],
    ids=["kernel", "weight", "infection", "profile"],
)
def test_an_unknown_family_is_reported_once(path, block, noun):
    # The other keys of the block belong to the unknown family, so they are
    # not reported as unknown keys too.
    data = deep(BASE_CONFIG)
    data[path[0]][path[1]] = block
    where = ".".join(path)
    family = block["family"]
    assert parse_config_dict(data) == (None, [f"config.{where}.family: unknown {noun} family {family!r}"])


@pytest.mark.parametrize(
    "path, block, where",
    [
        (("model", "kernel1"), {"std": 0.5}, "model.kernel1"),
        (("model", "weight"), {"radius": 1.0, "height": 1.0}, "model.weight"),
        (("model", "weight"), {"family": "kernel_tail", "kernel": {"radius": 1.0}}, "model.weight.kernel"),
        (("initial", "u0"), {"amplitude": 2.0}, "initial.u0"),
        (("initial", "u0"), {"family": "scaled", "sigma": 2.0, "base": {"amplitude": 2.0}}, "initial.u0.base"),
    ],
    ids=["kernel", "weight", "weight-kernel", "profile", "scaled-base"],
)
def test_a_missing_family_is_reported_once(path, block, where):
    # Without a family the block's other keys have no meaning to check.
    data = deep(BASE_CONFIG)
    data[path[0]][path[1]] = block
    assert parse_config_dict(data) == (None, [f"config.{where}.family: missing"])


def test_an_infection_without_a_family_is_saturating():
    data = deep(BASE_CONFIG)
    del data["model"]["infection"]["family"]
    cfg, issues = parse_config_dict(data)
    assert issues == [] and cfg.params.infection.alpha == 0.5


def test_a_constant_on_weight_is_parsed():
    data = deep(BASE_CONFIG)
    data["model"]["weight"] = {"family": "constant_on", "radius": 2.0, "height": 0.5}
    cfg, issues = parse_config_dict(data)
    assert issues == [] and cfg.params.weight == WeightSpec.constant_on(2.0, 0.5)


def _nested_scaled(depth: int) -> dict:
    profile = {"family": "bump"}
    for _ in range(depth):
        profile = {"family": "scaled", "sigma": 2.0, "base": profile}
    return profile


@pytest.mark.parametrize(
    "path, block, expected",
    [
        (("model", "weight"), {"family": "constant_on", "radius": 0.0, "height": 0.5},
         ["config.model.weight: constant_on weight needs a positive radius"]),
        (("model", "infection"), {"family": "saturating", "alpha": -1.0, "lambda": 2.0},
         ["config.model.infection.alpha: must be > 0"]),
        (("model", "infection"), {"family": "saturating", "alpha": 0.5, "lambda": 2.0},
         ["config.model.infection.lambda: must lie in (0, 1]"]),
        (("initial", "u0"), {"family": "scaled", "sigma": 0.0, "base": {"family": "bump"}},
         ["config.initial.u0.sigma: must be > 0"]),
        (("initial", "u0"), _nested_scaled(5), ["config.initial.u0.base.base.base.base: scaled profiles nested too deep"]),
    ],
    ids=["constant_on-radius", "infection-alpha-first", "infection-lambda", "scaled-sigma", "scaled-too-deep"],
)
def test_a_block_its_family_rejects_is_reported(path, block, expected):
    data = deep(BASE_CONFIG)
    data[path[0]][path[1]] = block
    assert parse_config_dict(data) == (None, expected)


def test_null_value_means_default():
    data = deep(BASE_CONFIG)
    data["numerics"]["t_end"] = None
    cfg, issues = parse_config_dict(data)
    assert issues == [] and cfg.numerics.t_end == 100.0
    data["model"]["mu"] = None
    assert parse_config_dict(data)[1] == ["config.model.mu: missing"]


def test_invalid_model_does_not_disown_numerics_keys():
    data = deep(BASE_CONFIG)
    data["model"]["mu"] = "x"
    cfg, issues = parse_config_dict(data)
    assert cfg is None
    assert issues == ["config.model.mu: must be a number"]


def test_numbers_must_be_finite():
    data = deep(BASE_CONFIG)
    data["model"]["h0"] = math.inf
    data["numerics"]["t_end"] = 10**400
    _, issues = parse_config_dict(data)
    assert issues == ["config.model.h0: must be finite", "config.numerics.t_end: must be finite"]


def test_simulate_reports_why_the_coarse_companion_is_missing(tmp_path):
    data = deep(BASE_CONFIG)
    data["numerics"]["dx"] = 0.1  # = h0/10, so the doubled dx fails validation
    data["numerics"]["t_end"] = 5.0
    data["output"]["directory"] = str(tmp_path / "out")
    assert main(["simulate", write_config(tmp_path, data)]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["refinement_delta"] is None
    assert "dx must not exceed h0/10" in summary["refinement_note"]


@pytest.mark.parametrize("target, low_sign", [("Lstar", 1.0), ("dstar", -1.0)])
def test_thresholds_bracket_follows_the_target_sign(tmp_path, capsys, target, low_sign):
    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 2.0
    data["thresholds"] = {"n": 121}
    assert main(["thresholds", write_config(tmp_path, data), "--target", target]) == 0
    payload = json.loads(capsys.readouterr().out)
    lam = dict(map(tuple, payload["probes"]))
    lo, hi = payload["bracket"]
    assert lo <= payload["value"] <= hi
    assert low_sign * lam[lo] > 0.0 > low_sign * lam[hi]


@pytest.mark.parametrize(
    "block, message",
    [
        ({"n": 4}, "config.thresholds.n: must be >= 16"),
        ({"tol": 0.0}, "config.thresholds.tol: must be > 0"),
        ({"tol": -1.0}, "config.thresholds.tol: must be > 0"),
        ({"rel_tol": 0.0}, "config.thresholds.rel_tol: must lie strictly between 0 and 1"),
        ({"rel_tol": -0.5}, "config.thresholds.rel_tol: must lie strictly between 0 and 1"),
        ({"rel_tol": 1.0}, "config.thresholds.rel_tol: must lie strictly between 0 and 1"),
        ({"bracket_lo": 0.05}, "config.thresholds.bracket_lo: needs bracket_hi too"),
        ({"bracket_hi": 0.5}, "config.thresholds.bracket_hi: needs bracket_lo too"),
        ({"bracket_lo": 0.5, "bracket_hi": 0.05}, "config.thresholds.bracket_lo: must satisfy 0 < bracket_lo < bracket_hi"),
        ({"bracket_lo": 0.0, "bracket_hi": 0.5}, "config.thresholds.bracket_lo: must satisfy 0 < bracket_lo < bracket_hi"),
        ({"bracket_lo": -0.1, "bracket_hi": 0.5}, "config.thresholds.bracket_lo: must satisfy 0 < bracket_lo < bracket_hi"),
    ],
)
def test_thresholds_block_is_range_checked(tmp_path, capsys, block, message):
    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 2.0
    data["thresholds"] = block
    cfg, issues = parse_config_dict(data)
    assert cfg is None and issues == [message]
    path = write_config(tmp_path, data)
    for target in ("Lstar", "mustar"):
        assert main(["thresholds", path, "--target", target]) == 2
        err = capsys.readouterr().err
        assert f"invalid config: {message}" in err and "Traceback" not in err
    assert main(["simulate", path]) == 2


def test_thresholds_block_accepts_a_valid_bracket_and_a_wrong_typed_end_alone():
    data = deep(BASE_CONFIG)
    data["thresholds"] = {"n": 16, "tol": 1e-9, "rel_tol": 0.9, "bracket_lo": 0.09, "bracket_hi": 0.4}
    assert parse_config_dict(data)[1] == []
    data["thresholds"] = {"bracket_lo": "x", "bracket_hi": 0.4}
    assert parse_config_dict(data)[1] == ["config.thresholds.bracket_lo: must be a number"]


@pytest.mark.parametrize("flag", ["0", "-1"])
def test_sweep_rejects_worker_counts_below_one(tmp_path, capsys, flag):
    # A count below 1 is an error, not a serial run; --workers 0 is a count,
    # not an absent flag.
    spec = {"parameter": "mu", "values": [0.1, 0.2], "config": deep(BASE_CONFIG), "output": str(tmp_path / "s.csv")}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path), "--workers", flag]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid sweep spec: workers must be >= 1, got {int(flag)} (--workers)\n"
    assert not (tmp_path / "s.csv").exists()


def _sweep_error(tmp_path, capsys, spec):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid sweep spec: ") and "Traceback" not in err
    return err


def test_sweep_rejects_a_spec_that_is_not_an_object(tmp_path, capsys):
    err = _sweep_error(tmp_path, capsys, [1, 2])
    assert "must be a JSON object" in err


@pytest.mark.parametrize("values", [["a", 1], [True, 2], [[1], [2]], [1, None], [1, 1e400], [1, 10**400]])
def test_sweep_rejects_non_numeric_values(tmp_path, capsys, values):
    out = tmp_path / "s.csv"
    spec = {"parameter": "mu", "values": values, "config": deep(BASE_CONFIG), "output": str(out)}
    err = _sweep_error(tmp_path, capsys, spec)
    assert "values must be finite numbers" in err and not out.exists()


def test_sweep_rejects_an_output_that_is_not_a_path(tmp_path, capsys):
    spec = {"parameter": "mu", "values": [0.1, 0.2], "config": deep(BASE_CONFIG), "output": 7}
    assert "output must be a file path" in _sweep_error(tmp_path, capsys, spec)


@pytest.mark.parametrize(
    "parameter, values, base_solves",
    [("mu", [0.05, 0.5, 1.2], 1), ("sigma", [0.05, 0.5, 1.2], 1), ("h0", [0.4, 0.5, 0.6], 0)],
)
def test_sweep_solves_l_star_once_when_the_parameter_leaves_it_fixed(
    tmp_path, monkeypatch, parameter, values, base_solves
):
    # mu and sigma change neither the eigenvalue problem nor the L* bracket,
    # so their sweep solves L* once, from the base config; h0 moves the
    # bracket and keeps one solve per point. Either way the CSV must equal
    # the one every point solving its own L* writes.
    import epifront.cli as cli

    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 2.0
    data["model"]["h0"] = 0.4
    data["numerics"] = {"dx": 0.04, "dt": 0.12, "t_end": 30.0, "domain_cap": 4.0, "record_every": 10}
    solves = []
    real = cli.effective_L_star

    def counted(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "effective_L_star", counted)
    outputs, counts = [], []
    for tag, fixed in (("hoisted", cli._L_STAR_FIXED), ("per_point", ())):
        monkeypatch.setattr(cli, "_L_STAR_FIXED", fixed)
        solves.clear()
        out = tmp_path / f"{tag}.csv"
        spec = {"parameter": parameter, "values": values, "config": data, "output": str(out)}
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(spec))
        assert main(["sweep", str(path)]) == 0
        outputs.append(out.read_bytes())
        counts.append(len(solves))
    assert counts == [base_solves or len(values), len(values)]
    assert outputs[0] == outputs[1]


def test_a_sweep_point_with_bad_numerics_solves_no_l_star(tmp_path, monkeypatch):
    # dx = 0.04 exceeds h0/10 at h0 = 0.1 and 0.2: those rows record the
    # numerics error without an L* solve; only h0 = 0.4 solves and runs.
    import epifront.cli as cli

    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 2.0
    data["model"]["h0"] = 0.4
    data["numerics"] = {"dx": 0.04, "dt": 0.12, "t_end": 6.0, "domain_cap": 4.0, "record_every": 10}
    solved = []
    real = cli.effective_L_star

    def counted(p, **kwargs):
        solved.append(p.h0)
        return real(p, **kwargs)

    monkeypatch.setattr(cli, "effective_L_star", counted)
    out = tmp_path / "h0.csv"
    path = tmp_path / "h0.json"
    path.write_text(json.dumps({"parameter": "h0", "values": [0.1, 0.2, 0.4], "config": data, "output": str(out)}))
    assert main(["sweep", str(path)]) == 0
    assert solved == [0.4]
    rows = out.read_text().splitlines()[1:]
    assert rows[0] == "0.10000000000000001,error,nan,nan,nan,dx must not exceed h0/10"
    assert rows[1] == "0.20000000000000001,error,nan,nan,nan,dx must not exceed h0/10"
    assert rows[2].split(",")[1] != "error"


def test_sweep_records_a_failed_l_star_in_every_row(tmp_path):
    # The one L* solve of a mu sweep fails; as when each point solved its own,
    # the failure is recorded per row and the sweep still exits 0.
    data = deep(BASE_CONFIG)
    narrow = {"family": "gaussian", "std": 0.001}
    data["model"].update(kernel1=narrow, kernel2=narrow, weight={"family": "kernel_tail", "kernel": narrow})
    data["model"]["infection"]["alpha"] = 2.0
    data["thresholds"] = {"n": 16}
    out = tmp_path / "fail.csv"
    spec = {"parameter": "mu", "values": [0.1, 0.2], "config": data, "output": str(out)}
    path = tmp_path / "fail.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(",error,nan,nan,nan," in r and "sign changes" in r for r in rows)


def _assert_file_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("file error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_eigen_dump_to_a_missing_directory_is_a_file_error(tmp_path, capsys):
    data = deep(BASE_CONFIG)
    data["eigen"] = {"L1": -2.0, "L2": 2.0, "n": 48}
    path = write_config(tmp_path, data)
    assert main(["eigen", path, "--dump", str(tmp_path / "missing" / "modes.csv")]) == 2
    _assert_file_error(capsys)


def test_thresholds_out_to_a_missing_directory_is_a_file_error(tmp_path, capsys):
    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 2.0
    data["thresholds"] = {"n": 48}
    path = write_config(tmp_path, data)
    assert main(["thresholds", path, "--target", "Lstar", "--out", str(tmp_path / "missing" / "x.json")]) == 2
    _assert_file_error(capsys)


def test_simulate_into_an_existing_file_is_a_file_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    data = deep(BASE_CONFIG)
    data["output"]["directory"] = str(taken)
    assert main(["simulate", write_config(tmp_path, data)]) == 2
    _assert_file_error(capsys)


def test_sweep_output_in_a_missing_directory_is_rejected_before_any_point(tmp_path, capsys, monkeypatch):
    def no_point(job):
        raise AssertionError("a sweep point ran")

    monkeypatch.setattr("epifront.cli._sweep_one", no_point)
    missing = tmp_path / "missing"
    spec = {"parameter": "mu", "values": [0.1, 0.2], "config": deep(BASE_CONFIG), "output": str(missing / "s.csv")}
    err = _sweep_error(tmp_path, capsys, spec)
    assert f"output directory does not exist: {missing}" in err


def test_validate_accepts_a_slowly_saturating_infection(tmp_path, capsys):
    # G(z) = 3z/(1 + z^0.05) meets (G1)/(G2); G(z)/z reaches a*b/e = 1 only at
    # u* = 2^20, far beyond any fixed sample point.
    data = json.loads((CONFIG_DIR / "vanishing.json").read_text())
    data["model"]["infection"].update({"alpha": 3.0, "lambda": 0.05})
    cfg, issues = parse_config_dict(data)
    assert issues == [] and cfg is not None
    assert main(["validate", write_config(tmp_path, data)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


def test_validate_reports_invalid_json_as_a_config_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL config: invalid JSON: ")
    assert captured.err == ""


def _no_solve(*args, **kwargs):
    raise AssertionError("a solve ran before the output directory was checked")


@pytest.mark.parametrize("command", ["eigen", "thresholds"])
def test_missing_output_directory_is_reported_before_any_solve(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("epifront.cli.find_L_star", _no_solve)
    monkeypatch.setattr("epifront.cli.principal_eigenvalue", _no_solve)
    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 2.0
    data["eigen"] = {"L1": -2.0, "L2": 2.0, "n": 48}
    path = write_config(tmp_path, data)
    missing = tmp_path / "missing"
    if command == "eigen":
        argv = ["eigen", path, "--dump", str(missing / "modes.csv")]
    else:
        argv = ["thresholds", path, "--target", "Lstar", "--out", str(missing / "x.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"file error: output directory does not exist: {missing}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["eigen", "thresholds", "sweep"])
def test_an_output_path_that_is_a_directory_is_rejected_before_any_work(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr("epifront.cli.find_L_star", _no_solve)
    monkeypatch.setattr("epifront.cli.principal_eigenvalue", _no_solve)
    monkeypatch.setattr("epifront.cli._sweep_one", _no_solve)
    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 2.0
    data["eigen"] = {"L1": -2.0, "L2": 2.0, "n": 48}
    path = write_config(tmp_path, data)
    taken = tmp_path / "taken"
    taken.mkdir()
    if command == "eigen":
        argv = ["eigen", path, "--dump", str(taken)]
    elif command == "thresholds":
        argv = ["thresholds", path, "--target", "Lstar", "--out", str(taken)]
    else:
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"parameter": "mu", "values": [0.1, 0.2], "config": data, "output": str(taken)}))
        argv = ["sweep", str(spec)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    prefix = "invalid sweep spec" if command == "sweep" else "file error"
    assert captured.err == f"{prefix}: output path is a directory: {taken}\n"
    assert captured.out == ""
    leftover = {p.name for p in tmp_path.iterdir()} - {"config.json", "sweep.json"}
    assert leftover == {"taken"} and not any(taken.iterdir())


def test_a_sweep_spec_with_unknown_keys_is_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("epifront.cli._sweep_one", _no_solve)
    out = tmp_path / "s.csv"
    spec = {"parameter": "mu", "values": [0.1], "config": deep(BASE_CONFIG), "output": str(out)}
    spec.update(worker=2, valuez=[1])
    err = _sweep_error(tmp_path, capsys, spec)
    assert err == "invalid sweep spec: unknown key 'worker'\ninvalid sweep spec: unknown key 'valuez'\n"
    assert not out.exists()


def test_a_sweep_spec_with_a_workers_key_is_rejected(tmp_path, capsys, monkeypatch):
    # The worker count comes from --workers alone; a spec key for it is unknown.
    monkeypatch.setattr("epifront.cli._sweep_one", _no_solve)
    out = tmp_path / "s.csv"
    spec = {"parameter": "mu", "values": [0.1], "config": deep(BASE_CONFIG), "output": str(out), "workers": 1}
    assert _sweep_error(tmp_path, capsys, spec) == "invalid sweep spec: unknown key 'workers'\n"
    assert not out.exists()


def test_a_parameter_that_cannot_be_swept_is_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("epifront.cli._sweep_one", _no_solve)
    spec = {"parameter": "L1", "values": [0.1], "config": deep(BASE_CONFIG), "output": str(tmp_path / "s.csv")}
    sweepable = "('d1', 'd2', 'a', 'b', 'e', 'mu', 'rho', 'h0', 'sigma')"
    assert _sweep_error(tmp_path, capsys, spec) == f"invalid sweep spec: parameter must be one of {sweepable}\n"


@pytest.mark.parametrize(
    "argv, noun",
    [
        (["simulate"], "config"),
        (["ode"], "config"),
        (["eigen"], "config"),
        (["thresholds", "--target", "Lstar"], "config"),
        (["sweep"], "sweep spec"),
        (["validate"], "config"),
    ],
    ids=["simulate", "ode", "eigen", "thresholds", "sweep", "validate"],
)
def test_a_missing_input_file_is_one_line(tmp_path, capsys, argv, noun):
    missing = str(tmp_path / "absent.json")
    assert main(argv[:1] + [missing] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out + captured.err == f"{noun} not found: {missing}\n"


def test_a_failed_write_leaves_no_temporary_file(tmp_path, capsys):
    outdir = tmp_path / "out"
    (outdir / "trajectory.csv").mkdir(parents=True)  # the rename onto it fails
    data = deep(BASE_CONFIG)
    data["output"]["directory"] = str(outdir)
    assert main(["simulate", write_config(tmp_path, data)]) == 2
    _assert_file_error(capsys)
    assert sorted(p.name for p in outdir.iterdir()) == ["trajectory.csv"]

    from epifront.cli import _write

    def failing_rows():
        yield "t,x\n"
        raise OSError("disk full")

    target = tmp_path / "rows.csv"
    with pytest.raises(OSError, match="disk full"):
        _write(str(target), failing_rows())
    assert not target.exists() and not (tmp_path / "rows.csv.tmp").exists()


@pytest.mark.parametrize("command", ["eigen", "thresholds", "sweep"])
def test_a_temporary_output_path_that_is_a_directory_is_rejected_before_any_work(
    tmp_path, capsys, monkeypatch, command
):
    # Every output is written to <path>.tmp and renamed; a directory there
    # made the write fail only after the whole solve, search or sweep.
    monkeypatch.setattr("epifront.cli.find_L_star", _no_solve)
    monkeypatch.setattr("epifront.cli.principal_eigenvalue", _no_solve)
    monkeypatch.setattr("epifront.cli._sweep_one", _no_solve)
    data = deep(BASE_CONFIG)
    data["model"]["infection"]["alpha"] = 2.0
    data["eigen"] = {"L1": -2.0, "L2": 2.0, "n": 48}
    path = write_config(tmp_path, data)
    out = tmp_path / "x.out"
    taken = tmp_path / "x.out.tmp"
    taken.mkdir()
    if command == "eigen":
        argv = ["eigen", path, "--dump", str(out)]
    elif command == "thresholds":
        argv = ["thresholds", path, "--target", "Lstar", "--out", str(out)]
    else:
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"parameter": "mu", "values": [0.1, 0.2], "config": data, "output": str(out)}))
        argv = ["sweep", str(spec)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    prefix = "invalid sweep spec" if command == "sweep" else "file error"
    assert captured.err == f"{prefix}: temporary output path is a directory: {taken}\n"
    assert captured.out == "" and not out.exists() and not any(taken.iterdir())


@pytest.mark.parametrize(
    "command, taken",
    [
        ("simulate", "trajectory.csv"),
        ("simulate", "snapshots.csv"),
        ("simulate", "summary.json"),
        ("simulate", "summary.json.tmp"),
        ("ode", "ode.csv"),
    ],
)
def test_simulate_and_ode_check_every_output_file_before_any_run(tmp_path, capsys, monkeypatch, command, taken):
    # A directory at any output file (or its temporary path) is exit 2 before
    # L*, the run, its coarse companion or the ode integration.
    monkeypatch.setattr("epifront.cli.effective_L_star", _no_solve)
    monkeypatch.setattr("epifront.cli.run", _no_solve)
    monkeypatch.setattr("epifront.cli.integrate_ode", _no_solve)
    outdir = tmp_path / "out"
    (outdir / taken).mkdir(parents=True)
    data = deep(BASE_CONFIG)
    data["output"] = {"directory": str(outdir), "snapshots": True}
    assert main([command, write_config(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    kind = "temporary output path" if taken.endswith(".tmp") else "output path"
    assert captured.err == f"file error: {kind} is a directory: {outdir / taken}\n"
    assert captured.out == ""
    assert [p.name for p in outdir.iterdir()] == [taken]


def test_a_search_failure_in_simulate_is_one_line_exit_3(tmp_path, capsys, monkeypatch):
    from epifront.thresholds import ThresholdSearchError

    def failing(*args, **kwargs):
        raise ThresholdSearchError("length search did not reach the eigenvalue tolerance")

    monkeypatch.setattr("epifront.cli.effective_L_star", failing)
    data = deep(BASE_CONFIG)
    data["output"]["directory"] = str(tmp_path / "out")
    assert main(["simulate", write_config(tmp_path, data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("search failure: ") and err.count("\n") == 1


def test_sweep_with_an_invalid_config_path_reports_its_violations(tmp_path, capsys):
    bad = json.loads((CONFIG_DIR / "vanishing.json").read_text())
    bad["model"]["a"] = -1
    config = write_config(tmp_path, bad, "bad.json")
    spec = {"parameter": "mu", "values": [0.1, 0.2], "config_path": config, "output": str(tmp_path / "s.csv")}
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "invalid config: config.model: a must be > 0\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("how", ["config", "config_path"])
def test_sweep_parses_its_config_once(tmp_path, monkeypatch, how):
    import epifront.config as cfgmod

    parses = []
    real = cfgmod.parse_config_dict

    def counted(data):
        parses.append(data)
        return real(data)

    monkeypatch.setattr(cfgmod, "parse_config_dict", counted)
    data = deep(BASE_CONFIG)
    data["numerics"]["t_end"] = 2.0
    spec = {"parameter": "sigma", "values": [0.5, 1.0, 2.0], "output": str(tmp_path / "s.csv")}
    spec[how] = data if how == "config" else write_config(tmp_path, data)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path)]) == 0
    assert len(parses) == 1  # not once more per point, nor again for a config_path
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 4


DECADES = st.floats(-3.0, 3.0).map(lambda k: 10.0**k)
KERNEL_BLOCKS = st.one_of(
    st.builds(lambda r: {"family": "uniform", "radius": r}, DECADES),
    st.builds(lambda s: {"family": "gaussian", "std": s}, DECADES),
    st.builds(lambda s: {"family": "laplace", "scale": s}, DECADES),
    st.builds(
        lambda g, c: {"family": "power_tail", "exponent": g, "cutoff": c},
        st.floats(1.0, 3.0, exclude_min=True),
        DECADES,
    ),
)


@settings(
    derandomize=True, database=None, max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(KERNEL_BLOCKS)
def test_every_admitted_kernel_has_a_radius_and_validates(tmp_path, capsys, kern):
    # (J) holds by construction, so validate passes every kernel the parser
    # admits; a heavy tail's support radius may be inf but never raises.
    data = deep(BASE_CONFIG)
    data["model"].update(kernel1=kern, kernel2=kern, weight={"family": "kernel_tail", "kernel": kern})
    cfg, issues = parse_config_dict(data)
    assert issues == []
    radius = support_radius(cfg.params.kernel1)
    assert isinstance(radius, float) and radius > 0.0
    assert main(["validate", write_config(tmp_path, data)]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out


SHAPES = st.floats(-3.0, math.log10(30.0)).map(lambda k: 10.0**k)
EIGEN_KERNELS = st.one_of(
    st.builds(lambda r: {"family": "uniform", "radius": r}, SHAPES),
    st.builds(lambda s: {"family": "gaussian", "std": s}, SHAPES),
    st.builds(lambda s: {"family": "laplace", "scale": s}, SHAPES),
    st.builds(
        lambda g, c: {"family": "power_tail", "exponent": g, "cutoff": c},
        st.floats(1.0, 500.0, exclude_min=True) | st.just(500.0),
        SHAPES,
    ),
)


@settings(
    derandomize=True, database=None, max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(EIGEN_KERNELS, EIGEN_KERNELS, st.integers(16, 64))
@example({"family": "power_tail", "exponent": 500.0, "cutoff": 0.1}, {"family": "uniform", "radius": 1.0}, 48)
def test_the_eigen_layer_exits_0_2_or_3_with_at_most_one_stderr_line(tmp_path, capsys, kern1, kern2, n):
    # The CLI contract for every kernel the parser admits: a result, or a
    # classified failure on one line, never a traceback.
    data = json.loads((CONFIG_DIR / "threshold_search.json").read_text())
    data["model"].update(kernel1=kern1, kernel2=kern2)
    data["eigen"] = {"L1": -1.0, "L2": 1.0, "n": n}
    data["thresholds"] = {"n": n}
    path = write_config(tmp_path, data)
    for argv in (["eigen", path], ["thresholds", path, "--target", "Lstar"], ["thresholds", path, "--target", "dstar"]):
        assert main(argv) in (0, 2, 3)
        assert capsys.readouterr().err.count("\n") <= 1


def test_simulate_runs_a_heavy_tailed_model(tmp_path, capsys):
    # exponent 1.01 puts the support radius beyond the float range; the
    # stencil is then capped by the grid width.
    data = json.loads((CONFIG_DIR / "vanishing.json").read_text())
    kern = {"family": "power_tail", "exponent": 1.01, "cutoff": 0.5}
    data["model"].update(kernel1=kern, kernel2=kern, weight={"family": "kernel_tail", "kernel": kern})
    data["numerics"]["t_end"] = 2.0
    data["output"]["directory"] = str(tmp_path / "out")
    assert main(["simulate", write_config(tmp_path, data)]) == 0
    assert capsys.readouterr().out.startswith("classification=")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["status"] == "completed"


@pytest.mark.parametrize(
    "points",
    [
        [[0.0, 1.0], [5.0, -1.0]],  # negative on (2.5, 5], beyond the old [0, 2*h0] probe
        [[0.0, 1.0], [1.00001, 1.0], [1.000015, -1e-3], [1.00002, 1.0], [12.0, 1.0]],  # between samples
    ],
)
def test_validate_fails_a_weight_negative_where_the_front_law_reads_it(tmp_path, capsys, points):
    data = json.loads((CONFIG_DIR / "vanishing.json").read_text())  # h0 = 1, domain_cap = 6
    data["model"]["weight"] = {"family": "table", "points": points}
    assert main(["validate", write_config(tmp_path, data)]) == 2
    out = capsys.readouterr().out
    assert "FAIL (W) weight: negative weight values sampled" in out


NOT_UTF8 = b"\xff\xfe{"


@pytest.mark.parametrize("argv", [["simulate"], ["ode"], ["eigen"], ["thresholds", "--target", "Lstar"]])
def test_a_config_that_is_not_utf8_is_one_line_exit_2(tmp_path, capsys, argv):
    path = tmp_path / "config.json"
    path.write_bytes(NOT_UTF8)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("invalid config: invalid JSON: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_validate_reports_a_file_that_is_not_utf8_as_a_config_failure(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(NOT_UTF8)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("FAIL config: invalid JSON: ")
    assert captured.err == ""


def test_a_sweep_spec_that_is_not_utf8_is_one_line_exit_2(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_bytes(NOT_UTF8)
    assert main(["sweep", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid sweep spec: ") and err.count("\n") == 1


# A config_path of int or bool type would name a file descriptor of this
# process, so only null and a float are exercised here.
@pytest.mark.parametrize(
    "config_path, message",
    [(None, "config (inline) or config_path required"), (7.5, "config_path must be a file path")],
)
def test_sweep_rejects_a_config_path_that_is_not_a_path(tmp_path, capsys, config_path, message):
    spec = {"parameter": "mu", "values": [0.1, 0.2], "config_path": config_path, "output": str(tmp_path / "s.csv")}
    assert _sweep_error(tmp_path, capsys, spec) == f"invalid sweep spec: {message}\n"


def test_sweep_starts_no_more_workers_than_points(tmp_path, monkeypatch):
    # A fork pool starts all max_workers processes at the first submit, so the
    # pool is sized to the points; the fake pool maps in this process.
    import epifront.cli as cli

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    data = deep(BASE_CONFIG)
    data["numerics"]["t_end"] = 1.0
    spec = {"parameter": "mu", "values": [0.1, 0.2, 0.3], "config": data, "output": str(tmp_path / "w.csv")}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", str(path), "--workers", "100000"]) == 0
    assert sizes == [3]
    assert len((tmp_path / "w.csv").read_text().splitlines()) == 4


def test_an_absent_ode_block_is_the_default_ode_config():
    from epifront.config import OdeConfig

    cfg, issues = parse_config_dict({"model": deep(BASE_CONFIG["model"])})
    assert issues == [] and cfg.ode == OdeConfig()


def _vanishing_with(tmp_path, model=None, ode=None):
    data = json.loads((CONFIG_DIR / "vanishing.json").read_text())
    data["model"].update(model or {})
    data["ode"].update(ode or {})
    data["output"]["directory"] = str(tmp_path / "out")
    return write_config(tmp_path, data)


@pytest.mark.parametrize(
    "argv, model, ode, message",
    [(["ode"], None, {"dt": 5}, "t=5: state went negative")],
    ids=["unstable_ode"],
)
def test_a_failed_integration_is_one_line_exit_3(tmp_path, capsys, argv, model, ode, message):
    # An ode step too large for the scheme fails in the integrator; that is
    # exit 3 with one stderr line, not a traceback.
    assert main(argv + [_vanishing_with(tmp_path, model, ode)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {message}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "points, message",
    [
        ([["0", 1], [1, 0]], "point 0: must be a number"),
        ([[0, True], [1, 0]], "point 0: must be a number"),
        ([[0, 1], [0.5, "2"]], "point 1: must be a number"),
        ([[0, 1], [1e400, 0]], "point 1: must be finite"),
        ([[0, 1, 5], [1, 0]], "point 0 must be an [x, y] pair"),
        ([[0, 1], [1]], "point 1 must be an [x, y] pair"),
        ({"0": 1}, "must be a list of [x, y] pairs"),
    ],
    ids=["string_x", "bool_y", "string_y", "infinite_x", "triple", "single", "object"],
)
def test_table_weight_points_follow_the_number_rule(tmp_path, capsys, points, message):
    # Table coordinates are numbers like any other: no string or bool is
    # coerced, no infinity admitted, and a malformed point is one line.
    path = _vanishing_with(tmp_path, {"weight": {"family": "table", "points": points}})
    assert main(["validate", path]) == 2
    assert capsys.readouterr().out == f"FAIL config: config.model.weight.points: {message}\n"


def test_an_eigen_interval_whose_length_overflows_is_a_config_error(tmp_path, capsys):
    data = json.loads((CONFIG_DIR / "vanishing.json").read_text())
    data["eigen"] = {"L1": -1e308, "L2": 1e308, "n": 64}
    assert main(["eigen", write_config(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid config: config.eigen: needs L1 < L2 with a finite L2 - L1, and n >= 16\n"


@pytest.mark.parametrize(
    "config, argv, block",
    [
        ("vanishing.json", ["eigen"], "eigen"),
        ("threshold_search.json", ["thresholds", "--target", "Lstar"], "thresholds"),
    ],
    ids=["eigen", "thresholds_Lstar"],
)
def test_a_grid_too_large_to_allocate_is_one_line_exit_3(tmp_path, capsys, config, argv, block):
    # n = 10**18 nodes ask numpy for 6.94 EiB, beyond any 64-bit address
    # space in use, so the request is refused at the call: nothing is allocated.
    data = json.loads((CONFIG_DIR / config).read_text())
    data[block]["n"] = 10**18
    assert main([argv[0], write_config(tmp_path, data), *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("memory error: Unable to allocate") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "config, argv, block, values, message",
    [
        ("vanishing.json", ["eigen"], "eigen", {"n": 10**19}, "an eigen grid of 10000000000000000000 nodes"),
        ("threshold_search.json", ["thresholds", "--target", "Lstar"], "thresholds", {"n": 10**19},
         "an eigen grid of 10000000000000000000 nodes"),
        ("vanishing.json", ["simulate"], "numerics", {"dx": 1e-300}, "a grid of 1.2e+301 nodes"),
        ("vanishing.json", ["simulate"], "numerics", {"domain_cap": 1e300}, "a grid of 4e+301 nodes"),
        ("vanishing.json", ["simulate"], "numerics", {"dx": 1e-308}, "a grid of inf nodes"),
    ],
    ids=["eigen_n", "thresholds_Lstar_n", "simulate_dx", "simulate_domain_cap", "simulate_dx_overflow"],
)
def test_a_grid_numpy_refuses_is_one_line_exit_3(tmp_path, capsys, config, argv, block, values, message):
    # numpy refuses these sizes with a ValueError before allocating anything,
    # and cap/dx = inf fails before numpy is called.
    data = json.loads((CONFIG_DIR / config).read_text())
    data[block].update(values)
    data["output"]["directory"] = str(tmp_path / "out")
    assert main([argv[0], write_config(tmp_path, data), *argv[1:]]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"memory error: {message} is too large to allocate\n"


@pytest.mark.parametrize(
    "config, argv, block, message",
    [
        ("vanishing.json", ["ode"], "ode", "config.ode: t_end / dt must be finite"),
        ("threshold_search.json", ["simulate"], "numerics", "config.numerics: t_end / dt must be finite"),
        ("threshold_search.json", ["thresholds", "--target", "mustar"], "numerics",
         "config.numerics: t_end / dt must be finite"),
    ],
    ids=["ode", "simulate", "thresholds_mustar"],
)
def test_a_step_count_that_overflows_is_one_line_exit_2(tmp_path, capsys, config, argv, block, message):
    data = json.loads((CONFIG_DIR / config).read_text())
    data[block].update({"t_end": 1e300, "dt": 1e-300})
    data["output"]["directory"] = str(tmp_path / "out")
    assert main([argv[0], write_config(tmp_path, data), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"invalid config: {message}\n"


NEGATIVE_WEIGHT = {"rho": 5, "weight": {"family": "table", "points": [[0, 1], [0.1, -5], [3, -5]]}}


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["thresholds", "--target", "mustar"], ["ode"], ["eigen"]],
    ids=["simulate", "thresholds_mustar", "ode", "eigen"],
)
def test_a_weight_violating_W_is_one_line_exit_2_before_any_solve(tmp_path, capsys, monkeypatch, argv):
    # The weight is negative where the front law reads it. Every subcommand
    # that loads the model rejects it as a config violation: no eigen solve,
    # no integration (a simulate used to exit 3 at t=0 on a negative flux,
    # a mu* search after 18 eigen solves and the vanishing bound).
    import epifront.simulator as sim
    import epifront.spectral as spectral

    solves = []
    monkeypatch.setattr(spectral, "assemble_operator", lambda *a: solves.append(a))
    monkeypatch.setattr(spectral, "_top_pair", lambda *a, **k: solves.append(a))
    monkeypatch.setattr(sim, "step", lambda *a, **k: solves.append(a))
    path = _vanishing_with(tmp_path, NEGATIVE_WEIGHT)
    assert main([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "invalid config: config.numerics: weight violates (W) on [0, 2*domain_cap]: negative weight values sampled\n"
    )
    assert solves == [] and captured.out == ""


@pytest.mark.parametrize("x", [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300])
def test_a_csv_float_is_written_as_format_17g(x):
    # _csv formats a row with one % string; %.17g must equal the per-value
    # format(x, ".17g") it replaced, the specials and extremes included.
    from epifront.cli import _csv

    assert "%.17g" % x == format(x, ".17g")
    rows = [(x, "label", 3), (0.1, "other", -1)]
    want = f"x,kind,n\n{format(x, '.17g')},label,3\n0.10000000000000001,other,-1\n"
    assert "".join(_csv(("x", "kind", "n"), rows)) == want
