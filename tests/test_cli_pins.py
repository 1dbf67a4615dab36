"""The CLI's outputs byte for byte: SHA-256 digests, pinned.

Each digest covers a subcommand's exit code, standard output, standard error
and every file it writes (summary.json without its echoed config, which
holds the output directory). A sweep case runs its config inline in a spec
whose output path is relative, from inside the output directory, so the
path it echoes is the same on every run. The digests were recorded with
numpy 2.4.6 and scipy 1.17.1 on x86-64, before the constant bracket labels
and the unread weight report fields were deleted (the sweep and the
failing-config cases: before the weight report record and the config's copy
of the infection rules were deleted), and pin those refactors and any later
one to the same bytes. simulate-threshold_search was re-pinned when its
stderr line gained the failed step's message ("; t=72.36: front left the
preallocated grid"); with the old line in its place the new run gives the
old digest, 5ef12dfa..., so its exit code, stdout and files are unchanged.
The Lstar, dstar and eigen cases were re-pinned when the eigen solver moved
from ARPACK to the in-repo Lanczos, which moves lambda_p in its last bits;
L* and its probe lengths did not change.
thresholds --target mustar is pinned by MUSTAR_STDOUT in test_thresholds.py.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from epifront.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Each case: a shipped config, the argv around its path (the subcommand first,
# then its options; OUT stands for the output directory) and the blocks
# replaced in its model and numerics.
W_FAILING = {"model": {"weight": {"family": "constant_on", "radius": 1.0, "height": 0.0}}}
G_OUT_OF_RANGE = {"model": {"infection": {"family": "saturating", "alpha": -1.0, "lambda": 2.0}}}
CASES = {
    "simulate-vanishing": ("vanishing.json", ["simulate"]),
    "simulate-spreading": ("spreading.json", ["simulate"]),
    "simulate-threshold_search": ("threshold_search.json", ["simulate"]),
    "ode-vanishing": ("vanishing.json", ["ode"]),
    "eigen-vanishing": ("vanishing.json", ["eigen", "--dump", "OUT/eigen.csv"]),
    "validate-vanishing": ("vanishing.json", ["validate"]),
    "Lstar-threshold_search": ("threshold_search.json", ["thresholds", "--target", "Lstar", "--out", "OUT/L.json"]),
    "dstar-threshold_search": ("threshold_search.json", ["thresholds", "--target", "dstar", "--out", "OUT/d.json"]),
    "sweep-mu-threshold_search": ("threshold_search.json", ["sweep"], {"numerics": {"t_end": 30.0}}),
    "validate-W-failing": ("vanishing.json", ["validate"], W_FAILING),
    "simulate-W-failing": ("vanishing.json", ["simulate"], W_FAILING),
    "validate-G-out-of-range": ("vanishing.json", ["validate"], G_OUT_OF_RANGE),
    "simulate-G-out-of-range": ("vanishing.json", ["simulate"], G_OUT_OF_RANGE),
}
SWEEP_SPEC = {"parameter": "mu", "values": [0.1, 0.2, 0.4], "output": "sweep.csv"}
PINNED = {
    "Lstar-threshold_search": "ea8c7576b3d003f330d3d8ebaf494e7aeda0b1b9241220cdd52c10ffd7de79f0",
    "dstar-threshold_search": "54d3f247499cc9f02c24dcd1bf8f4083ef342a1d4ef8b2fc87c120aa1113336a",
    "eigen-vanishing": "f0758f846645ea119535bc3edd37a92905cda35be35ffd8288075ea204229d82",
    "ode-vanishing": "4ab9b1156f511a9368946c83124db8771ccf42030fb92941951e7383d63a134a",
    "simulate-G-out-of-range": "9e29be8c86f9cc0ea1579f04cff7d643ed4a169315265d3f949708a6e6783d8c",
    "simulate-W-failing": "ad81ab66ab0c2c583acf32ef77ef14694dab01eb344d3a463d870bbd6a7b5918",
    "simulate-spreading": "d5dc8736e3e31cc3a86b4815e4b76b608f27fe38f440d78b88e478aa8aa1f34e",
    "simulate-threshold_search": "712e3d10ad81c22a6b07e1a81e5d43457c76f5f4481f6db766198847d08936ab",
    "simulate-vanishing": "2b8ed8bf55704f1469db3d1f0cde83d3a8aa5a6d7747e3feedd370680b5b38e4",
    "sweep-mu-threshold_search": "66975632c9dd9b227bb150aaa2359d850ee5212e64fc209f586a116a27e8cb05",
    "validate-G-out-of-range": "97d11d8a4648ea67136a12cbea03fe218bbda4d261ef67797771e8801e6ea656",
    "validate-W-failing": "c6ca1e4fc21da17532f6fa86a1f0f696ef68a02f16bd118f4cb2524ca0232e89",
    "validate-vanishing": "8faf1a5917b28808406851bd3a7c43a77e7760d878b907f86919305f5db43a38",
}
pinned_versions = pytest.mark.skipif(
    (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"),
    reason="digests pinned with numpy 2.4.6 and scipy 1.17.1",
)


def run_case(name: str, tmp_path, capsys, monkeypatch) -> str:
    """The digest of one case, run in-process with its output under tmp_path."""
    config, command, *edits = CASES[name]
    out = tmp_path / "out"
    out.mkdir()
    data = json.loads((CONFIG_DIR / config).read_text(encoding="utf-8"))
    data["output"]["directory"] = str(out)
    for block, values in (edits[0] if edits else {}).items():
        data[block].update(values)
    if command[0] == "sweep":
        data = {**SWEEP_SPEC, "config": data}
        monkeypatch.chdir(out)
    path = tmp_path / config
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = [command[0], str(path)] + [arg.replace("OUT", str(out)) for arg in command[1:]]
    code = main(argv)
    captured = capsys.readouterr()
    sha = hashlib.sha256(f"{code}\n".encode())
    sha.update(hashlib.sha256(captured.out.encode()).digest())
    sha.update(hashlib.sha256(captured.err.encode()).digest())
    for file in sorted(out.iterdir()):
        body = file.read_bytes()
        if file.name == "summary.json":
            summary = json.loads(body)
            del summary["config"]
            body = json.dumps(summary, indent=2).encode()
        sha.update(file.name.encode() + b"\0" + hashlib.sha256(body).digest())
    return sha.hexdigest()


@pinned_versions
@pytest.mark.parametrize("name", sorted(CASES))
def test_the_cli_writes_the_pinned_bytes(name, tmp_path, capsys, monkeypatch):
    assert run_case(name, tmp_path, capsys, monkeypatch) == PINNED[name]
