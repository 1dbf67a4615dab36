"""What a subcommand imports: each case runs in a fresh interpreter and
reads sys.modules after the call. The eigen solver and the L*/d* root
searches use numpy alone, a gaussian kernel's support radius is a constant
and its tail satisfies (W) by construction, and scipy loads inside the
functions that use it (scipy.special for the stepper's gaussian tail, quad
for the library's flux check). So a subcommand loads scipy only to step
a gaussian front (eigen solves and root searches on gaussian configs load
none of it), and only `sweep` loads multiprocessing."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"

# argv[1]: the file that receives the loaded module names; argv[2:]: the CLI
# call, or nothing for the bare import.
PROBE = """
import json, sys
from epifront.cli import main
code = main(sys.argv[2:]) if len(sys.argv) > 2 else 0
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def loaded_by(argv, tmp_path, name="vanishing.json", edit=None) -> list:
    """The modules loaded after `import epifront.cli` and main(argv) in a
    fresh interpreter, which must exit 0. CONFIG in argv is the shipped
    config `name`, changed by edit(data) when given."""
    data = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    data["output"]["directory"] = str(tmp_path / "out")
    if edit is not None:
        edit(data)
    config = tmp_path / name
    config.write_text(json.dumps(data), encoding="utf-8")
    report = tmp_path / "modules.json"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    cmd = [sys.executable, "-c", PROBE, str(report), *(arg.replace("CONFIG", str(config)) for arg in argv)]
    proc = subprocess.run(cmd, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(report.read_text(encoding="utf-8"))
    assert result["code"] == 0
    return result["modules"]


def under(modules, package: str) -> list:
    return [m for m in modules if m == package or m.startswith(package + ".")]


def test_importing_the_cli_loads_no_scipy_and_no_multiprocessing(tmp_path):
    modules = loaded_by([], tmp_path)
    assert "epifront.cli" in modules
    assert under(modules, "scipy") == []
    assert under(modules, "multiprocessing") == []


@pytest.mark.parametrize("command", ["validate", "ode", "simulate"])
def test_a_subcommand_without_eigen_solves_loads_no_scipy(command, tmp_path):
    assert under(loaded_by([command, "CONFIG"], tmp_path), "scipy") == []


@pytest.mark.parametrize(
    "name, argv",
    [
        ("vanishing.json", ["eigen", "CONFIG"]),
        ("threshold_search.json", ["thresholds", "CONFIG", "--target", "Lstar"]),
        ("threshold_search.json", ["thresholds", "CONFIG", "--target", "dstar"]),
    ],
    ids=["eigen", "thresholds_Lstar", "thresholds_dstar"],
)
def test_eigen_solves_and_root_searches_load_no_scipy(name, argv, tmp_path):
    assert under(loaded_by(argv, tmp_path, name), "scipy") == []


def test_a_simulate_that_solves_L_star_loads_no_scipy(tmp_path):
    # threshold_search.json is in the intermediate regime, so simulate solves
    # L* for its classification: the benchmark's mu* set-up path.
    def shorten(data):
        data["numerics"]["t_end"] = 10 * data["numerics"]["dt"]

    modules = loaded_by(["simulate", "CONFIG"], tmp_path, "threshold_search.json", shorten)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(encoding="utf-8"))
    assert 0.0 < summary["l_star"] < math.inf
    assert under(modules, "scipy") == []


def gaussian(data):
    kern = {"family": "gaussian", "std": 0.5}
    data["model"].update(kernel1=kern, kernel2=kern, weight={"family": "kernel_tail", "kernel": kern})


@pytest.mark.parametrize(
    "name, argv",
    [
        ("vanishing.json", ["eigen", "CONFIG"]),
        ("vanishing.json", ["validate", "CONFIG"]),
        ("threshold_search.json", ["thresholds", "CONFIG", "--target", "Lstar"]),
        ("threshold_search.json", ["thresholds", "CONFIG", "--target", "dstar"]),
    ],
    ids=["eigen", "validate", "thresholds_Lstar", "thresholds_dstar"],
)
def test_a_gaussian_config_loads_no_scipy_without_stepping(name, argv, tmp_path):
    assert under(loaded_by(argv, tmp_path, name, gaussian), "scipy") == []


def test_simulating_a_gaussian_config_loads_scipy_special_alone(tmp_path):
    modules = under(loaded_by(["simulate", "CONFIG"], tmp_path, "spreading.json"), "scipy")
    assert "scipy.special" in modules
    # scipy's own private modules and scipy.version load with any subpackage
    public = {m.split(".")[1] for m in modules if "." in m and not m.split(".")[1].startswith("_")}
    assert public <= {"special", "version"}
