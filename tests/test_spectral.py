"""Interval eigenvalue: structure, closed forms, monotonicity, convergence."""

import hashlib
import math
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from epifront import (
    EigenProblem,
    KernelSpec,
    assemble_operator,
    principal_eigenvalue,
    rayleigh_check,
    lower_bound,
    upper_bound_d2,
)
from epifront import spectral
from epifront.spectral import SpectralError, _grid, _kernel_matrix, variational_value
from helpers import make_params

# Frozen two-level Richardson oracle for the uniform-kernel benchmark below
# (first-order extrapolation of the dense eigensolve at n = 800 and 1600).
UNIFORM_BENCH_LAMBDA = -0.2286593544716568


def problem(p, L1=-2.0, L2=2.0, n=400, **kw):
    return EigenProblem(replace(p, **kw), L1, L2, n)


# kernel1 of each case paired with a kernel2 of another family.
KERNEL_PAIRS = {
    "uniform": (KernelSpec.uniform(0.8), KernelSpec.gaussian(0.4)),
    "gaussian": (KernelSpec.gaussian(0.5), KernelSpec.laplace(0.3)),
    "laplace": (KernelSpec.laplace(0.4), KernelSpec.power_tail(3.0, 0.25)),
    "power_tail": (KernelSpec.power_tail(2.5, 0.3), KernelSpec.uniform(0.6)),
}


def pair_problem(family, n, d1=1.0, d2=1.0):
    k1, k2 = KERNEL_PAIRS[family]
    p = make_params(alpha=2.0, kernel=k1, kernel2=k2)
    return EigenProblem(replace(p, d1=d1, d2=d2), -1.0, 1.0, n)


def power_method_top(mat: np.ndarray, iters: int = 4000) -> float:
    """Independent cross-check: shifted power iteration for the top eigenvalue."""
    shift = 1.0 + np.abs(mat).sum(axis=1).max()
    shifted = mat + shift * np.eye(mat.shape[0])
    vec = np.full(mat.shape[0], 1.0 / np.sqrt(mat.shape[0]))
    value = 0.0
    for _ in range(iters):
        nxt = shifted @ vec
        value = float(vec @ nxt)
        vec = nxt / np.linalg.norm(nxt)
    return value - shift


def test_assembled_matrix_symmetric():
    mat = assemble_operator(problem(make_params(alpha=2.0)))
    assert np.array_equal(mat, mat.T)


def test_coupling_blocks_are_identity():
    # Structure check: the cross-species coupling enters as exact identities.
    p = make_params(alpha=2.0, kernel=KernelSpec.uniform(10.0))
    prob = problem(p, -0.5, 0.5, n=16)
    mat = assemble_operator(prob)
    n = prob.n
    assert np.array_equal(mat[:n, n:], np.eye(n))
    assert np.array_equal(mat[n:, :n], np.eye(n))


def test_zero_diffusion_matrix_is_reaction_block():
    p = make_params(alpha=2.0)
    prob = problem(p, -1.0, 1.0, n=16, d1=0.0, d2=0.0)
    mat = assemble_operator(prob)
    n = prob.n
    assert np.array_equal(mat[:n, :n], -(p.a / p.e) * np.eye(n))
    assert np.array_equal(mat[n:, n:], -(p.b / 2.0) * np.eye(n))


def test_the_solver_rejects_zero_dispersal_by_its_cause():
    # Without dispersal every node carries the same 2 x 2 reaction block, so
    # no grid refinement helps: the error names the cause, not the grid.
    p = make_params(alpha=2.0)
    with pytest.raises(ValueError, match=r"^d1 = d2 = 0: without dispersal the top eigenvalue is n-fold degenerate"):
        principal_eigenvalue(problem(p, d1=0.0, d2=0.0, n=64))
    assert principal_eigenvalue(problem(p, d1=0.0, d2=1.0, n=64)).lambda_p > lower_bound(problem(p))


def test_zero_diffusion_limit_value():
    # a = b = e = 1, G'(0) = 2: 0.5 * (1.5 - sqrt(4.25))
    p = make_params(alpha=2.0)
    res = principal_eigenvalue(problem(p, d1=1e-8, d2=1e-8))
    assert res.lambda_p == pytest.approx(-0.280776, abs=1e-6)
    assert res.lambda_p == pytest.approx(lower_bound(problem(p)), abs=1e-7)


def test_zero_diffusion_symmetric_case():
    p = make_params(alpha=1.0)
    res = principal_eigenvalue(problem(p, d1=1e-8, d2=1e-8))
    assert res.lambda_p == pytest.approx(0.0, abs=1e-6)


def test_uniform_benchmark_richardson():
    p = make_params(alpha=2.0)
    lam = {n: principal_eigenvalue(problem(p, n=n)).lambda_p for n in (400, 800, 1600)}
    rich_coarse = 2.0 * lam[800] - lam[400]
    rich_fine = 2.0 * lam[1600] - lam[800]
    assert abs(rich_coarse - rich_fine) < 1e-4
    assert rich_fine == pytest.approx(UNIFORM_BENCH_LAMBDA, abs=1e-5)


def test_eigen_result_contract():
    p = make_params(alpha=2.0)
    prob = problem(p)
    res = principal_eigenvalue(prob)
    assert res.phi1.min() > 0.0 and res.phi2.min() > 0.0
    dx = res.x[1] - res.x[0]
    w = np.full(res.x.size, dx)
    w[0] = w[-1] = 0.5 * dx
    norm = np.sum(w * (res.phi1**2 + res.phi2**2))
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert res.rayleigh_residual < 1e-8
    assert res.phi1[prob.n // 2] > 0.0


def test_rayleigh_check_small():
    p = make_params(alpha=2.0)
    prob = problem(p)
    res = principal_eigenvalue(prob)
    assert rayleigh_check(prob, res) < 1e-6 * max(1.0, abs(res.lambda_p))


def test_variational_value_is_above_lambda_for_constants():
    p = make_params(alpha=2.0)
    prob = problem(p)
    res = principal_eigenvalue(prob)
    const = np.ones(prob.n)
    assert variational_value(prob, const, const) >= res.lambda_p - 1e-8


def test_variational_reduces_to_reaction_form_without_diffusion():
    p = make_params(alpha=2.0)
    prob = problem(p, d1=0.0, d2=0.0, n=64)
    phi1 = np.full(prob.n, 0.3)
    phi2 = np.full(prob.n, 0.7)
    got = variational_value(prob, phi1, phi2)
    quad_form = -(
        -(p.a / p.e) * 0.3**2 + 2 * 0.3 * 0.7 - (p.b / 2.0) * 0.7**2
    ) / (0.3**2 + 0.7**2)
    assert got == pytest.approx(quad_form, abs=1e-12)


def test_upper_bound_closed_forms():
    assert upper_bound_d2(problem(make_params(alpha=1.0), d1=0.0, d2=0.0)) == pytest.approx(0.0)
    assert upper_bound_d2(problem(make_params(alpha=2.0), d1=0.0, d2=0.0)) == pytest.approx(
        -0.280776, abs=1e-6
    )
    assert upper_bound_d2(problem(make_params(alpha=1.0), d1=1.0, d2=1.0)) == pytest.approx(1.0)


def test_strictly_decreasing_in_length():
    # Node count scales with the length so every rung resolves the kernel
    # equally well; a fixed n would let discretization drift mask the decay.
    p = make_params(alpha=2.0)
    lams = [
        principal_eigenvalue(problem(p, -L, L, n=max(64, round(60 * L)))).lambda_p
        for L in (0.5, 1, 2, 4, 8)
    ]
    assert np.all(np.diff(lams) < -1e-8)


def test_strictly_increasing_in_diffusion():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a, b, e = rng.uniform(0.5, 2.0, 3)
        alpha = rng.uniform(0.3, 3.0) * a * b / e
        d1, d2 = rng.uniform(0.05, 1.5, 2)
        L = rng.uniform(0.6, 2.5)
        p = make_params(alpha=alpha, a=a, b=b, e=e, d1=d1, d2=d2)
        lo = principal_eigenvalue(problem(p, -L, L, n=180)).lambda_p
        hi = principal_eigenvalue(problem(p, -L, L, n=180, d1=2 * d1, d2=2 * d2)).lambda_p
        assert hi > lo + 1e-8


def test_bounds_sandwich_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a, b, e = rng.uniform(0.5, 2.0, 3)
        alpha = rng.uniform(0.3, 3.0) * a * b / e
        d1, d2 = rng.uniform(0.05, 1.5, 2)
        L = rng.uniform(0.6, 2.5)
        fam = rng.choice(["uniform", "gaussian", "laplace"])
        scale = rng.uniform(0.4, 1.2)
        kern = {"uniform": KernelSpec.uniform, "gaussian": KernelSpec.gaussian,
                "laplace": KernelSpec.laplace}[str(fam)](scale)
        p = make_params(alpha=alpha, a=a, b=b, e=e, d1=d1, d2=d2, kernel=kern)
        prob = problem(p, -L, L, n=180)
        lam = principal_eigenvalue(prob).lambda_p
        assert lam > lower_bound(prob) + 1e-8
        assert lam < upper_bound_d2(prob) - 1e-8


def test_translation_invariance():
    p = make_params(alpha=2.0)
    lam0 = principal_eigenvalue(problem(p, -1.3, 1.7, n=200)).lambda_p
    lam1 = principal_eigenvalue(problem(p, -1.3 + 5.25, 1.7 + 5.25, n=200)).lambda_p
    assert lam0 == pytest.approx(lam1, abs=1e-10)


def test_grid_convergence_halves():
    p = make_params(alpha=2.0, kernel=KernelSpec.gaussian(1.0))
    lam = {n: principal_eigenvalue(problem(p, n=n)).lambda_p for n in (200, 400, 800)}
    d1 = abs(lam[200] - lam[400])
    d2 = abs(lam[400] - lam[800])
    assert d2 <= d1 / 2.0


def test_eigenpair_satisfies_collocated_system_pointwise():
    # Independent of the matrix route: the recovered pair must satisfy the
    # displayed two coupled equations at every node,
    #   (d1/e)(conv1 - phi1) - (a/e) phi1 + phi2 + lambda phi1 = 0
    #   (d2/g0)(conv2 - phi2) + phi1 - (b/g0) phi2 + lambda phi2 = 0,
    # with conv_i the trapezoid quadrature of the interval convolution.
    p = make_params(alpha=2.0)
    prob = problem(p, -1.5, 2.5, n=300)
    res = principal_eigenvalue(prob)
    x = res.x
    dx = x[1] - x[0]
    w = np.full(x.size, dx)
    w[0] = w[-1] = 0.5 * dx
    from epifront.kernels import kernel_eval
    from scipy.linalg import toeplitz

    t1 = toeplitz(kernel_eval(prob.params.kernel1, x - x[0]))
    t2 = toeplitz(kernel_eval(prob.params.kernel2, x - x[0]))
    conv1 = t1 @ (w * res.phi1)
    conv2 = t2 @ (w * res.phi2)
    q, g0 = prob.params, prob.params.infection.alpha
    c1, c2 = q.d1 / q.e, q.d2 / g0
    r1 = c1 * (conv1 - res.phi1) - (q.a / q.e) * res.phi1 + res.phi2 + res.lambda_p * res.phi1
    r2 = c2 * (conv2 - res.phi2) + res.phi1 - (q.b / g0) * res.phi2 + res.lambda_p * res.phi2
    assert np.abs(r1).max() < 1e-12
    assert np.abs(r2).max() < 1e-12


def test_variational_infimum_over_random_pairs():
    p = make_params(alpha=2.0)
    prob = problem(p, n=120)
    lam = principal_eigenvalue(prob).lambda_p
    rng = np.random.default_rng(8)
    for _ in range(50):
        phi1 = rng.uniform(0.05, 1.0, prob.n)
        phi2 = rng.uniform(0.05, 1.0, prob.n)
        assert variational_value(prob, phi1, phi2) >= lam - 1e-10


def test_power_iteration_cross_check():
    p = make_params(alpha=2.0)
    prob = problem(p, n=200)
    mat = assemble_operator(prob)
    res = principal_eigenvalue(prob)
    assert -power_method_top(mat) == pytest.approx(res.lambda_p, abs=1e-6)


def test_problem_validation():
    p = make_params()
    with pytest.raises(ValueError):
        EigenProblem(p, 1.0, 1.0)
    with pytest.raises(ValueError):
        EigenProblem(p, -1.0, 1.0, 8)


@pytest.mark.parametrize("L1, L2", [(-1e308, 1e308), (-np.inf, 0.0), (0.0, np.inf), (np.nan, 1.0)])
def test_an_interval_of_no_finite_length_is_rejected(L1, L2):
    # L2 - L1 overflows to inf at (-1e308, 1e308): no grid spacing exists,
    # and LAPACK and ARPACK fail on the grid it would give.
    with pytest.raises(ValueError, match="finite positive length"):
        EigenProblem(make_params(), L1, L2, 64)


@pytest.mark.parametrize(
    "constants, overrides",
    [({"a": 0.0}, {}), ({"b": -1.0}, {}), ({"e": 0.0}, {}), ({"d1": -0.5}, {}), ({}, {"d1": -0.5}), ({}, {"d2": -1e-3})],
)
def test_problem_rejects_model_constants_out_of_range(constants, overrides):
    p = replace(make_params(), **constants)  # ModelParams itself takes any value
    with pytest.raises(ValueError):
        EigenProblem(replace(p, **overrides), -1.0, 1.0, 32)


def test_a_diffusion_override_is_the_model_with_those_rates():
    assert [f.name for f in fields(EigenProblem)] == ["params", "L1", "L2", "n"]


def test_a_kernel_far_narrower_than_the_grid_is_a_spectral_error():
    # The v block is then nearly a multiple of the identity, a tight cluster
    # at the top of the spectrum: dsyevr returned no pair for it, and its top
    # two eigenvalues tie within 1e3 * eps * ||K||_inf, so the vector that
    # Lanczos returns depends on its start vector.
    p = make_params(
        alpha=2.0, d1=2.0**20, d2=2.0**20, kernel=KernelSpec.laplace(10**0.5), kernel2=KernelSpec.gaussian(1e-3)
    )
    with pytest.raises(SpectralError):
        principal_eigenvalue(problem(p, -0.4, 0.4, n=33))


def block_assembly_reference(prob):
    """The assembly as it was before it filled the blocks in place: np.block
    of the four blocks, then the whole matrix symmetrized."""
    x, _, w = _grid(prob)
    sw = np.sqrt(w)
    b1 = sw[:, None] * _kernel_matrix(prob.params.kernel1, x) * sw[None, :]
    b2 = sw[:, None] * _kernel_matrix(prob.params.kernel2, x) * sw[None, :]
    eye = np.eye(prob.n)
    q, g0 = prob.params, prob.params.infection.alpha
    c1, c2 = q.d1 / q.e, q.d2 / g0
    top = c1 * b1 - (c1 + q.a / q.e) * eye
    bot = c2 * b2 - (c2 + q.b / g0) * eye
    mat = np.block([[top, eye], [eye, bot]])
    return 0.5 * (mat + mat.T)


@pytest.mark.parametrize("family", sorted(KERNEL_PAIRS))
@pytest.mark.parametrize("n", [16, 48, 241])
@pytest.mark.parametrize("d1, d2", [(1.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
def test_assembly_is_bit_identical_to_block_reference(family, n, d1, d2):
    prob = pair_problem(family, n, d1=d1, d2=d2)
    mat = assemble_operator(prob)
    ref = block_assembly_reference(prob)
    assert mat.shape == ref.shape and mat.dtype == ref.dtype
    assert mat.tobytes() == ref.tobytes()


@pytest.mark.parametrize("family", sorted(KERNEL_PAIRS))
@pytest.mark.parametrize("n", [16, 48, 241])
@pytest.mark.parametrize("scale", [1.0, 1e-8])
def test_top_eigenpair_matches_full_spectrum(family, n, scale):
    # scale 1e-8 is find_d_star's lower bracket start: the top of the spectrum
    # is then nearly n-fold degenerate (gap ~2e-9), and any backward-stable
    # solver fixes the eigenvector only to about eps * |A| / gap (Davis-Kahan),
    # so phi is held to that bound there and to 1e-10 elsewhere.
    prob = pair_problem(family, n, d1=scale, d2=scale)
    mat = assemble_operator(prob)
    vals, vecs = np.linalg.eigh(mat)
    ref = vecs[:, -1] if vecs[n // 2, -1] > 0.0 else -vecs[:, -1]
    res = principal_eigenvalue(prob)
    assert abs(res.lambda_p + vals[-1]) < 1e-12
    gap = vals[-1] - vals[-2]
    norm = max(abs(vals[0]), abs(vals[-1]))
    tol = 1e-10 + 100.0 * np.finfo(float).eps * norm / gap
    sw = np.sqrt(_grid(prob)[2])
    assert np.abs(res.phi1 - ref[:n] / sw).max() < tol
    assert np.abs(res.phi2 - ref[n:] / sw).max() < tol
    assert res.rayleigh_residual < 1e-12


def test_top_eigenpair_still_rejects_a_sign_changing_vector():
    narrow = KernelSpec.gaussian(0.001)
    prob = problem(make_params(alpha=2.0, kernel=narrow), n=16)
    with pytest.raises(SpectralError):
        principal_eigenvalue(prob)


def test_eigen_grid_weights_are_the_endpoint_trapezoid_rule():
    # Interior nodes weigh dx and both endpoints dx/2, with dx = (L2-L1)/(n-1)
    # exactly as written, so the assembled operator keeps its bits.
    prob = problem(make_params(alpha=2.0), L1=-1.3, L2=0.7, n=97)
    dx = (prob.L2 - prob.L1) / (prob.n - 1)
    want = np.full(prob.n, dx)
    want[0] = want[-1] = 0.5 * dx
    x, grid_dx, w = _grid(prob)
    assert grid_dx == dx and x.size == prob.n
    assert w.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", sorted(KERNEL_PAIRS))
@pytest.mark.parametrize("n", [400, 800])
def test_lanczos_matches_the_dense_spectrum_on_fine_grids(family, n):
    prob = pair_problem(family, n)
    top = np.linalg.eigvalsh(assemble_operator(prob))[-1]
    res = principal_eigenvalue(prob)
    assert abs(res.lambda_p + top) <= 1e-12 * abs(top)
    assert res.rayleigh_residual < 1e-12


def _solve_digest(n):
    res = principal_eigenvalue(pair_problem("gaussian", n))
    parts = (np.float64(res.lambda_p), res.x, res.phi1, res.phi2, np.float64(res.rayleigh_residual))
    return hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in parts)).hexdigest()


def test_a_solve_is_bit_identical_across_calls_and_processes():
    # The Lanczos start vector is fixed, not drawn from OS entropy.
    first, second = (principal_eigenvalue(pair_problem("laplace", 241)) for _ in range(2))
    for name in ("x", "phi1", "phi2"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes()
    assert (first.lambda_p, first.rayleigh_residual) == (second.lambda_p, second.rayleigh_residual)
    code = "import sys; sys.path[:0] = sys.argv[1:]; import test_spectral; print(test_spectral._solve_digest(97))"
    here = Path(__file__).resolve().parent
    out = subprocess.run(
        [sys.executable, "-c", code, str(here.parent / "src"), str(here)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == _solve_digest(97)


def _tied_pair(monkeypatch):
    # Every gap is a tie once MIN_GAP_EPS exceeds it: the solve returns a
    # positive vector that passes the sign check, but inside a tied pair that
    # vector depends on the start vector, so it must not be reported.
    monkeypatch.setattr(spectral, "MIN_GAP_EPS", math.inf)
    return problem(make_params(alpha=2.0), n=32)


def _no_convergence(monkeypatch):
    # The step limit is reached before the top two Ritz pairs converge.
    monkeypatch.setattr(spectral, "_LANCZOS_STEPS", 3)
    return problem(make_params(alpha=2.0), n=32)


def _breakdown(monkeypatch):
    # A uniform kernel narrower than the spacing leaves one 2 x 2 reaction
    # block per node: K has 4 distinct eigenvalues, so the Krylov space is
    # invariant after 4 products. Their remainder, 2e-13 of the product, is
    # roundoff above the breakdown level, and the iteration goes on from it.
    # The top eigenvalue is (n - 2)-fold, and the vector that Lanczos returns
    # from that cluster changes sign.
    return problem(make_params(alpha=2.0, kernel=KernelSpec.uniform(0.01)), n=32)


@pytest.mark.parametrize(
    "setup, message",
    [(_tied_pair, "principal eigenvalue is not separated from the next"),
     (_no_convergence, "Lanczos found no principal eigenpair"),
     (_breakdown, "principal eigenvector has sign changes")],
)
def test_each_lanczos_failure_is_one_spectral_error(monkeypatch, setup, message):
    prob = setup(monkeypatch)
    with pytest.raises(SpectralError, match=message) as err:
        principal_eigenvalue(prob)
    assert "\n" not in str(err.value)


def test_a_kernel_flat_over_the_interval_is_solved_after_breakdown():
    # On an interval shorter than the uniform kernel's radius every node pair
    # carries J = 1/2: K is the reaction block plus a rank-one term per
    # species, its Krylov space breaks down after 4 products, and the top
    # pair is simple. The L* search's first probe (h0/10) is such a case.
    prob = problem(make_params(alpha=2.0, kernel=KernelSpec.uniform(10.0)), -0.1, 0.1, n=32)
    vals = np.linalg.eigvalsh(assemble_operator(prob))
    res = principal_eigenvalue(prob)
    assert abs(res.lambda_p + vals[-1]) < 1e-14
    assert res.rayleigh_residual < 1e-14


def test_lanczos_sees_a_double_top_eigenvalue_after_breakdown():
    # K projects onto two orthonormal vectors: eigenvalue 1 twice, 0 else.
    # The Krylov space of one start vector holds one vector of the pair and
    # is invariant after 2 products; the second start vector finds the other.
    size = 64
    pair = np.linalg.qr(np.random.default_rng(3).standard_normal((size, 2)))[0]
    vals, vec = spectral._top_pair(lambda y: pair @ (pair.T @ y), size)
    assert np.allclose(vals, [1.0, 1.0], rtol=0.0, atol=1e-14)
    assert abs(np.linalg.norm(pair.T @ vec) - 1.0) < 1e-14


def test_a_solve_keeps_its_memory_within_the_lanczos_basis():
    # The basis holds at most _LANCZOS_BASIS vectors of 2n floats; beyond it
    # a solve allocates a restart's _LANCZOS_KEEP new rows and the product's
    # FFT workspace at the power-of-two length, under 6 vectors more.
    n = 20_000
    prob = problem(make_params(alpha=2.0, kernel=KernelSpec.laplace(0.5)), n=n)
    principal_eigenvalue(problem(make_params(alpha=2.0), n=32))  # load numpy's fft and random first
    tracemalloc.start()
    try:
        principal_eigenvalue(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (spectral._LANCZOS_BASIS + spectral._LANCZOS_KEEP + 6) * 2 * n * 8


def dense_variational_reference(prob, phi1, phi2):
    """variational_value as it was with the two dense kernel matrices."""
    x, _, w = _grid(prob)
    t1 = _kernel_matrix(prob.params.kernel1, x)
    t2 = _kernel_matrix(prob.params.kernel2, x)
    q1, q2 = t1 @ w, t2 @ w
    q, g0 = prob.params, prob.params.infection.alpha
    c1, c2, a_e, b_g = q.d1 / q.e, q.d2 / g0, q.a / q.e, q.b / g0
    wp1, wp2 = w * phi1, w * phi2

    def pair_energy(t, qq, phi, wp):
        return 2.0 * (np.sum(w * qq * phi**2) - wp @ (t @ wp))

    energy = 0.5 * c1 * pair_energy(t1, q1, phi1, wp1) + 0.5 * c2 * pair_energy(t2, q2, phi2, wp2)
    react = (-a_e - c1 + c1 * q1) * phi1**2 + 2.0 * phi1 * phi2 + (-b_g - c2 + c2 * q2) * phi2**2
    energy -= np.sum(w * react)
    return float(energy / np.sum(w * (phi1**2 + phi2**2)))


@pytest.mark.parametrize("family", sorted(KERNEL_PAIRS))
@pytest.mark.parametrize("n", [16, 241])
def test_variational_value_matches_the_dense_kernel_formula(family, n):
    prob = pair_problem(family, n)
    rng = np.random.default_rng(n)
    res = principal_eigenvalue(prob)
    pairs = [(res.phi1, res.phi2), (np.ones(n), np.ones(n)), tuple(rng.uniform(0.05, 1.0, (2, n)))]
    for phi1, phi2 in pairs:
        want = dense_variational_reference(prob, phi1, phi2)
        assert abs(variational_value(prob, phi1, phi2) - want) <= 1e-13 * max(1.0, abs(want))


def test_no_n_by_n_matrix_is_formed_by_a_solve_or_its_check(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an n x n matrix was formed")

    for name in ("assemble_operator", "coupled_operator", "_kernel_matrix"):
        monkeypatch.setattr(spectral, name, forbidden)
    prob = pair_problem("uniform", 400)
    res = principal_eigenvalue(prob)
    assert rayleigh_check(prob, res) < 1e-12
