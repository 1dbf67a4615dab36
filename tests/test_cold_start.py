"""What a subcommand imports: each case runs in a fresh interpreter and
reads sys.modules after the call. scipy loads inside the functions that use
it, so a subcommand that runs no eigen solve, root search or special
function loads none of it, and only `sweep` loads multiprocessing."""

import json
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


def loaded_by(argv, tmp_path) -> list:
    """The modules loaded after `import epifront.cli` and main(argv) in a
    fresh interpreter, which must exit 0."""
    data = json.loads((CONFIG_DIR / "vanishing.json").read_text(encoding="utf-8"))
    data["output"]["directory"] = str(tmp_path / "out")
    config = tmp_path / "vanishing.json"
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


def test_eigen_loads_no_root_finder_and_no_quadrature(tmp_path):
    modules = loaded_by(["eigen", "CONFIG"], tmp_path)
    assert under(modules, "scipy.sparse.linalg")  # the solve ran
    assert under(modules, "scipy.optimize") == []
    assert under(modules, "scipy.integrate") == []
