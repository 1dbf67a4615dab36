"""Principal eigenvalue of the coupled nonlocal dispersal-reaction operator.

Implements:
  - The eigen problem as the model on an interval: EigenProblem holds the
    ModelParams, [L1, L2] and the node count, and nothing else.
  - Collocation of the block operator
        K = D N - D + A,
    on a uniform grid over [L1, L2], where N applies the two kernel
    convolutions restricted to the interval, D = diag(d1/e, d2/g0), and
        A = [[-a/e, 1], [1, -b/g0]],   g0 = G'(0).
    These four ratios are formed in one place (_scaling), which the
    operator, the variational check and both bounds read.
    The convolution rows carry composite-trapezoid weights (trapezoid_weights,
    shared with the frozen-interval run and the vanishing bound); the
    operator is conjugated by sqrt(weights) so the discrete operator is
    exactly symmetric with respect to the plain inner product
    (self-adjointness that raw endpoint weights would break).
  - The principal eigenvalue lambda_p = -(largest eigenvalue) with its
    positive eigenfunction pair and a Rayleigh-quotient residual, by
    thick-restart Lanczos (_top_pair) on K applied matrix-free: each kernel
    block is symmetric Toeplitz, J(x_j - x_k), and is applied by FFT of its
    circulant embedding, so no n x n array is formed. The start vector is
    fixed, so a solve is bit-reproducible. The dense matrix
    (assemble_operator, coupled_operator) is still built for the
    simulator's window certificate and for tests.
  - The variational double-integral form of the Rayleigh quotient as an
    independent algebraic cross-check.
  - Closed-form bounds: lower_bound, the zero-diffusion limit from the
    reaction block alone, and the constant-test-pair upper bound.

The module uses numpy alone: its FFT, its dense eigensolver for the small
projected matrix, and numpy indexing for the dense Toeplitz blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, kernel_eval
from .model import ModelParams, gprime0
from .ode import NumericalFailure

EIGEN_NODES = 400  # default grid size of an eigen solve
MIN_EIGEN_NODES = 16  # coarsest admissible grid
# The top eigenvalue must lead the next by more than this many eps * ||K||_inf.
# Within a tighter cluster Lanczos returns a vector that depends on its start
# vector. Measured gap / (eps * bound): 0.7 to 1.7 on the three unresolved
# grids the tests use, at least 3.8e6 on resolved ones, nearly degenerate
# d = 1e-8 included.
MIN_GAP_EPS = 1e3
# Lanczos (_top_pair): basis vectors at most (ARPACK's default for two pairs;
# even, so a full basis falls on a Ritz check), Ritz vectors a restart keeps,
# products before a solve gives up, and the residual per largest |Ritz value|
# at which a pair has converged. Solves on resolved grids take 4 to 40
# products; random models whose second eigenvalue lies within 5e-7 ||K|| of
# the third took up to 48,000 (ARPACK up to 44,600).
_LANCZOS_BASIS = 20
_LANCZOS_KEEP = 10
_LANCZOS_STEPS = 100_000
_LANCZOS_TOL = 1e-14


class SpectralError(NumericalFailure):
    """Discretization failure: Lanczos found no converged principal
    eigenpair within its step limit, or one whose vector changes sign or
    whose eigenvalue is not separated from the next."""


@dataclass(frozen=True)
class EigenProblem:
    """The model's linearized operator on [L1, L2], collocated on n nodes."""

    params: ModelParams
    L1: float
    L2: float
    n: int = EIGEN_NODES

    def __post_init__(self) -> None:
        if not 0.0 < self.L2 - self.L1 < math.inf:
            raise ValueError("interval must have a finite positive length")
        if self.n < MIN_EIGEN_NODES:
            raise ValueError(f"need at least {MIN_EIGEN_NODES} nodes")
        for name in ("a", "b", "e"):
            if not getattr(self.params, name) > 0.0:
                raise ValueError(f"{name} must be > 0")
        if self.params.d1 < 0.0 or self.params.d2 < 0.0:
            raise ValueError("diffusion rates must be >= 0")


@dataclass(frozen=True)
class EigenResult:
    lambda_p: float
    x: np.ndarray
    phi1: np.ndarray
    phi2: np.ndarray
    rayleigh_residual: float


def trapezoid_weights(n: int, dx: float) -> np.ndarray:
    """Composite-trapezoid weights of n nodes dx apart, dx/2 at both ends."""
    w = np.full(n, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


def _grid(problem: EigenProblem):
    try:
        x = np.linspace(problem.L1, problem.L2, problem.n)
    except ValueError:  # numpy refuses the size before allocating anything
        raise MemoryError(f"an eigen grid of {problem.n} nodes is too large to allocate") from None
    dx = (problem.L2 - problem.L1) / (problem.n - 1)
    return x, dx, trapezoid_weights(problem.n, dx)


def _kernel_matrix(kernel: KernelSpec, x: np.ndarray) -> np.ndarray:
    # Toeplitz by translation invariance: entry (j, k) is J(x_j - x_k) = J(x_|j-k| - x_0).
    offsets = np.arange(x.size)
    return kernel_eval(kernel, x - x[0])[np.abs(offsets[:, None] - offsets)]


def _toeplitz_product(kernels, x: np.ndarray):
    """y -> T_i y_i for the kernel blocks T_i = J_i(x_j - x_k), i along axis
    -2 of y, without forming T_i: each is symmetric Toeplitz and is applied by
    FFT of its circulant embedding, whose spectrum is computed here once. The
    embedding's length is the power of two at or above 2n - 1."""
    n = x.size
    m = 1 << (2 * n - 2).bit_length()
    col = np.zeros((len(kernels), m))
    for i, kernel in enumerate(kernels):
        t = kernel_eval(kernel, x - x[0])
        col[i, :n] = t
        col[i, m - n + 1:] = t[:0:-1]
    spectrum = np.fft.rfft(col).real.copy()  # the embedding is even, so its spectrum is real

    def apply(y: np.ndarray) -> np.ndarray:
        z = np.fft.rfft(y, m)
        z *= spectrum
        return np.fft.irfft(z, m)[..., :n]

    return apply


def _scaling(p: ModelParams):
    """(d1/e, d2/g0, a/e, b/g0), g0 = G'(0): the diagonal of D and of A."""
    g0 = gprime0(p)
    return p.d1 / p.e, p.d2 / g0, p.a / p.e, p.b / g0


def coupled_operator(w: np.ndarray, kernel_matrix, p: ModelParams) -> np.ndarray:
    """The symmetric 2n x 2n matrix of K = DN - D + A of model p on n nodes.

    kernel_matrix(kernel) gives the kernel values J(x_j - x_k) at the node
    pairs, formed only while its block is filled; w holds the quadrature
    weights, conjugated in as sqrt(w_j) J sqrt(w_k). Each diagonal block is
    its kernel term minus its diagonal, symmetrized as 0.5 * (blk + blk.T),
    and the off-diagonal blocks are the identity coupling, symmetric as they
    stand.
    """
    sw = np.sqrt(w)
    n = w.size
    diag = np.arange(n)
    mat = np.zeros((2 * n, 2 * n))
    mat[diag, diag + n] = mat[diag + n, diag] = 1.0
    c1, c2, a_e, b_g = _scaling(p)
    for i, (kernel, c, react) in enumerate(((p.kernel1, c1, a_e), (p.kernel2, c2, b_g))):
        blk = c * (sw[:, None] * kernel_matrix(kernel) * sw[None, :])
        blk[diag, diag] -= c + react
        block = slice(i * n, (i + 1) * n)
        mat[block, block] = 0.5 * (blk + blk.T)
    return mat


def assemble_operator(problem: EigenProblem) -> np.ndarray:
    """Assemble the collocation matrix of K = DN - D + A (coupled_operator)
    on the problem's grid with its trapezoid weights."""
    x, _, w = _grid(problem)
    return coupled_operator(w, lambda kernel: _kernel_matrix(kernel, x), problem.params)


def _operator(problem: EigenProblem, x: np.ndarray, sw: np.ndarray):
    """K = DN - D + A as a matrix-free product y -> K y on R^(2n), and a
    Gershgorin bound on ||K||_inf. Each kernel block applies c sw T(sw y) -
    (c + react) y with sw = sqrt(w); the identity coupling adds v to the u
    rows and u to the v rows."""
    p = problem.params
    c1, c2, a_e, b_g = _scaling(p)
    c = np.array([[c1], [c2]])
    diag = c + np.array([[a_e], [b_g]])
    conv = _toeplitz_product((p.kernel1, p.kernel2), x)
    n = problem.n

    def matvec(y: np.ndarray) -> np.ndarray:
        y = y.reshape(2, n)
        return (c * sw * conv(sw * y) - diag * y + y[::-1]).ravel()

    row_sums = (sw * conv(np.stack([sw, sw]))).max(axis=1)
    bound = 1.0 + float(np.max(c[:, 0] * row_sums + diag[:, 0]))
    return matvec, bound


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove from w, in place, its components along the orthonormal rows of
    basis by two passes of classical Gram-Schmidt; returns the coefficients."""
    h = basis @ w
    w -= h @ basis
    again = basis @ w
    w -= again @ basis
    return h + again


def _top_pair(matvec, size: int):
    """The top two eigenvalues (ascending) and the top unit eigenvector of the
    symmetric operator `matvec` on R^size (size > _LANCZOS_BASIS), by
    thick-restart Lanczos (Wu & Simon 2000) with full reorthogonalization.

    The start vector is fixed (default_rng(0)), so a solve is bit-reproducible,
    and not mirror-even: an even start keeps the Krylov space even on a
    symmetric interval and never finds an odd second eigenvalue. Column j of
    `proj` holds v_i . K v_j for i <= j, from two passes of classical
    Gram-Schmidt; its upper triangle is the projection of K on the basis,
    thick restarts included. A Ritz pair (theta, y) of m basis vectors has
    residual beta |y_m|, beta the norm of the orthogonalized product of the
    last vector; the top two pairs have converged once both residuals are at
    most _LANCZOS_TOL * max |theta|. The basis holds at most _LANCZOS_BASIS
    vectors: a full basis restarts from its top _LANCZOS_KEEP Ritz vectors
    and the last residual, so memory stays O(size) at any size. Its rows are
    written as the basis grows; a solve that converges early never touches
    the rest.

    Breakdown, beta below _LANCZOS_TOL times the norm of the product, means
    the Krylov space is invariant (a kernel flat over the interval gives
    dimension 4): its Ritz pairs are exact, but it holds one vector of each
    eigenspace its start vector touches, so it cannot show a multiple top
    eigenvalue. At the first breakdown the iteration restarts from the top
    Ritz vector alone and a second pseudorandom vector orthogonal to it, so
    the second Ritz pair must come from the Krylov space of that vector:
    the next eigenvalue, or another copy of the top one. A later breakdown
    that has not converged goes on from a fresh vector orthogonal to the
    basis. A remainder above the breakdown level, such as the roundoff left
    by a space that is invariant only to 1e-13, is the next vector like any
    other. Returns None after _LANCZOS_STEPS products without convergence.
    """
    rng = np.random.default_rng(0)
    basis = np.empty((_LANCZOS_BASIS, size))
    proj = np.zeros((_LANCZOS_BASIS, _LANCZOS_BASIS))
    basis[0] = rng.standard_normal(size)
    basis[0] /= np.linalg.norm(basis[0])
    fresh = False  # whether a breakdown has restarted the iteration
    m = 0  # basis vectors whose products are in proj
    for _ in range(_LANCZOS_STEPS):
        w = matvec(basis[m])
        scale = np.linalg.norm(w)
        m += 1
        proj[:m, m - 1] = _orthogonalize(w, basis[:m])
        beta = float(np.linalg.norm(w))
        breakdown = beta <= _LANCZOS_TOL * scale
        if breakdown or m % 2 == 0:  # the Ritz pairs every other step; a full basis is one
            theta, y = np.linalg.eigh(proj[:m, :m], UPLO="U")
            tol = _LANCZOS_TOL * np.abs(theta).max()
            if m > 1 and (fresh or not breakdown) and beta * np.abs(y[-1, -2:]).max() <= tol:
                return theta[-2:], y[:, -1] @ basis[:m]
            keep = 1 if breakdown and not fresh else _LANCZOS_KEEP if m == _LANCZOS_BASIS else 0
            if keep:
                basis[:keep] = y[:, -keep:].T @ basis[:m]
                m = keep
                proj[:] = 0.0
                proj[range(m), range(m)] = theta[-m:]
        if breakdown:
            fresh = True
            w = rng.standard_normal(size)
            _orthogonalize(w, basis[:m])
            beta = float(np.linalg.norm(w))
        np.divide(w, beta, out=basis[m])
    return None


def principal_eigenvalue(problem: EigenProblem) -> EigenResult:
    """Principal eigenvalue with sign-normalized positive eigenfunction pair.

    lambda_p is minus the largest eigenvalue of K, found with the next one
    by thick-restart Lanczos (_top_pair) on the matrix-free operator. The
    eigenfunctions are recovered in density coordinates (divide out the
    sqrt-weight conjugation) and normalized to unit discrete L2 norm.
    Raises SpectralError when Lanczos finds no converged top pair within its
    step limit, when the computed eigenvector is not positive, or
    when the top eigenvalue leads the next by no more than MIN_GAP_EPS * eps
    * ||K||_inf (a cluster in which the eigenvector is not determined): the
    signatures of a grid too coarse for the kernel support. Raises
    ValueError for d1 = d2 = 0, where K is the reaction block at every
    node: its top eigenvalue (lower_bound) is n-fold degenerate and has no
    principal eigenfunction on any grid.
    """
    if problem.params.d1 == 0.0 and problem.params.d2 == 0.0:
        raise ValueError(
            "d1 = d2 = 0: without dispersal the top eigenvalue is n-fold degenerate "
            "and has no principal eigenfunction (its value is spectral.lower_bound)"
        )
    x, _, w = _grid(problem)
    sw = np.sqrt(w)
    matvec, bound = _operator(problem, x, sw)
    n = problem.n
    grid_hint = f"refine the grid (n={n}, kernel support vs spacing mismatch)"
    pair = _top_pair(matvec, 2 * n)
    if pair is None:
        raise SpectralError(None, f"Lanczos found no principal eigenpair; {grid_hint}")
    vals, top = pair
    lam_p = -float(vals[-1])
    phi1 = top[:n] / sw
    phi2 = top[n:] / sw
    if phi1[n // 2] < 0.0:
        phi1, phi2, top = -phi1, -phi2, -top
    floor = -1e-10 * max(phi1.max(), phi2.max())
    if phi1.min() < floor or phi2.min() < floor:
        raise SpectralError(None, f"principal eigenvector has sign changes; {grid_hint}")
    if vals[-1] - vals[-2] <= MIN_GAP_EPS * np.finfo(float).eps * bound:
        raise SpectralError(None, f"principal eigenvalue is not separated from the next; {grid_hint}")
    residual = abs(lam_p + float(top @ matvec(top)))
    return EigenResult(lambda_p=lam_p, x=x, phi1=phi1, phi2=phi2, rayleigh_residual=residual)


def variational_value(problem: EigenProblem, phi1: np.ndarray, phi2: np.ndarray) -> float:
    """Rayleigh value of a test pair via the variational double-integral form.

    The kernel terms enter as (d/2) * integral of J(x-y) (phi(x) - phi(y))^2,
    the reaction terms through the interval-restricted kernel mass. Equals
    lambda_p at the eigenpair and is >= lambda_p for every other pair.
    """
    x, _, w = _grid(problem)
    p = problem.params
    wp1, wp2 = w * phi1, w * phi2
    # q_i = T_i w, the interval-restricted kernel mass at each node, and T_i (w phi_i)
    (q1, q2), (twp1, twp2) = _toeplitz_product((p.kernel1, p.kernel2), x)(np.array([[w, w], [wp1, wp2]]))
    c1, c2, a_e, b_g = _scaling(p)

    def pair_energy(q, phi, wp, twp):
        # sum_jk w_j w_k J_jk (phi_j - phi_k)^2, expanded to avoid the n^2 loop
        return 2.0 * (np.sum(w * q * phi**2) - wp @ twp)

    energy = 0.5 * c1 * pair_energy(q1, phi1, wp1, twp1)
    energy += 0.5 * c2 * pair_energy(q2, phi2, wp2, twp2)
    react = (-a_e - c1 + c1 * q1) * phi1**2 + 2.0 * phi1 * phi2
    react += (-b_g - c2 + c2 * q2) * phi2**2
    energy -= np.sum(w * react)
    norm = np.sum(w * (phi1**2 + phi2**2))
    return float(energy / norm)


def rayleigh_check(problem: EigenProblem, result: EigenResult) -> float:
    """|variational value at the eigenpair - lambda_p|; near machine zero."""
    return abs(variational_value(problem, result.phi1, result.phi2) - result.lambda_p)


def _pair_bound(c1: float, c2: float, a_e: float, b_g: float) -> float:
    """Smallest eigenvalue of the 2 x 2 matrix [[c1 + a_e, -1], [-1, c2 + b_g]]."""
    return 0.5 * (a_e + b_g + c1 + c2 - math.sqrt((a_e - b_g + c1 - c2) ** 2 + 4.0))


def upper_bound_d2(problem: EigenProblem) -> float:
    """Constant-test-pair upper bound on lambda_p."""
    return _pair_bound(*_scaling(problem.params))


def lower_bound(problem: EigenProblem) -> float:
    """Global lower bound on lambda_p from the reaction block alone."""
    return _pair_bound(0.0, 0.0, *_scaling(problem.params)[2:])
