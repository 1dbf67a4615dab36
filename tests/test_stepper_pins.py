"""The stepper bit for bit: SHA-256 digests of short runs, pinned.

Each digest covers a run's status, every recorded row, its final state and
its snapshots. They were recorded before the density pair was stepped as
one (2, n) array, with numpy 2.4.6 on x86-64, and pin that refactor and any
later one to the same bits for every kernel family, a folded (kernel_tail of
J1) and a non-folded front weight, and a snapshot run. Another numpy may
round the kernels' exp and power differently, so the pins apply to that
version only.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from epifront import KernelSpec, SimConfig, WeightSpec, run
from helpers import bump_profile, make_params

KERNELS = {
    "uniform": KernelSpec.uniform(1.0),
    "gaussian": KernelSpec.gaussian(0.6),
    "laplace": KernelSpec.laplace(0.5),
    "power_tail": KernelSpec.power_tail(2.5, 0.5),
}
WEIGHTS = {
    "folded": WeightSpec.kernel_tail_of,
    "constant_on": lambda kernel: WeightSpec.constant_on(0.8, 0.6),
}
CFG = SimConfig(dx=0.05, dt=0.1, t_end=3.0, domain_cap=5.0, record_every=5)
FIELDS = ("t", "g", "h", "sup_u", "sup_v", "mass_u", "mass_v", "h_rate", "g_rate")
PINNED = {
    "uniform-folded": "42633e1bab2e766de9c890c06447f89a619985d968273a881d3cadb4882cb805",
    "uniform-constant_on": "cb547a88bb26b9308112d642de3eb2b7d1949eab2891faf1a0bd844090d7780a",
    "gaussian-folded": "4762ba563f7f9947a22846bc0dc19e88b26a0fc466ad0d74796f19b9eef8658f",
    "gaussian-constant_on": "24fdfae85bb121b4ec1f8b6eb8c990c3fa0b00da44d1b975c2dc4ddac4cf6ad2",
    "laplace-folded": "474b0d289c61ec48e72b89622644c2b2543580469a2e089116df4008bb9e66a7",
    "laplace-constant_on": "5ff5925b524c8788bd5451045d740257d924ed99232192eaf3a29ad9607a1af3",
    "power_tail-folded": "8006a4c4aa626b438c22c343418f3be411b6cf769041b43759ac27bc8d884095",
    "power_tail-constant_on": "9236b36c54f227c4303b8a75b65319982e80229551c84db34d92937d851431be",
    "snapshots": "8733943ad2bbeed0e531c98bbb43152066bb6bb717b0e81891d10ad040be6bba",
}
pinned_numpy = pytest.mark.skipif(np.__version__ != "2.4.6", reason="digests pinned with numpy 2.4.6")

BUMP = bump_profile(1.0)


def tilted(x):
    # An asymmetric v, so the two fronts see different fluxes.
    return BUMP(x) * (1.0 + 0.5 * np.asarray(x))


def digest(traj) -> str:
    sha = hashlib.sha256(traj.status.encode())
    for name in FIELDS:
        sha.update(getattr(traj, name).tobytes())
    s = traj.final_state
    sha.update(np.array([s.t, s.g, s.h]).tobytes() + s.u.tobytes() + s.v.tobytes())
    for t, x, u, v in traj.snapshots:
        sha.update(np.array([t]).tobytes() + x.tobytes() + u.tobytes() + v.tobytes())
    return sha.hexdigest()


def model(kernel: str, weight: str):
    k1 = KERNELS[kernel]
    return make_params(mu=2.0, kernel=k1, kernel2=KernelSpec.laplace(0.35), weight=WEIGHTS[weight](k1))


@pinned_numpy
@pytest.mark.parametrize("weight", list(WEIGHTS))
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_a_short_run_keeps_its_pinned_bits(kernel, weight):
    traj = run(model(kernel, weight), CFG, BUMP, tilted)
    assert traj.status == "completed" and traj.h[-1] > 1.0 + CFG.dx  # the fronts moved
    assert digest(traj) == PINNED[f"{kernel}-{weight}"]


@pinned_numpy
def test_a_snapshot_run_keeps_its_pinned_bits():
    traj = run(model("gaussian", "folded"), CFG, BUMP, tilted, record_snapshots=True)
    assert len(traj.snapshots) == traj.t.size == 7
    assert digest(traj) == PINNED["snapshots"]


def test_a_nan_density_makes_the_front_nan_and_the_run_unstable():
    # A NaN inside the occupied window reaches both fronts through the front
    # law in the first stage; the step then fails on its non-finite front.
    p = model("uniform", "folded")
    prefix = run(p, replace(CFG, t_end=1.0), BUMP, tilted)
    assert prefix.status == "completed"
    prefix.final_state.u[prefix.final_state.grid.n // 2] = math.nan
    resumed = run(p, CFG, BUMP, tilted, resume=prefix)
    assert resumed.status == "unstable" and resumed.steps == prefix.steps
    assert resumed.t[-1] == prefix.t[-1]
