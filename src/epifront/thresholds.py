"""Sharp constants of the spreading-vanishing dichotomy.

Implements:
  - L_star: the half-length at which the interval eigenvalue crosses zero
    (eigenvalue strictly decreasing in the length), defined only in the
    intermediate regime 1 < r0 < (1 + d1/a)(1 + d2/b).
  - d_star: the scale s of the model's own (d1, d2) at which the eigenvalue
    on [-h0, h0] crosses zero (strictly increasing in s), defined for r0 > 1,
    with its closed-form lower bound (sqrt((a-b)^2 + 4 e G'(0)) - (a+b)) / 2.
    Both roots share one search: widen a sign-changing bracket, then close
    it until |lambda_p| < tol (Brent's method for d_star, bisection for
    L_star; both follow scipy.optimize's brentq and bisect step for step).
    The monotonicity holds for the continuous problem; at coarse n the
    discrete eigenvalue can cross zero more than once in L (find_L_star).
  - mu_star and sigma_star: simulation-backed bisections on the front
    response mu and on the initial-data scale sigma, sharing one search body
    (_label_search). Monotonicity of the dichotomy in both parameters makes
    plain bisection valid, and brackets whose ends agree are expanded up to
    a cap; the low end of a result vanishes and its high end spreads by
    construction. Probe runs stop as spreading once their window eigenvalue
    is not positive (stopped_certified), and as vanishing once mu is at most
    the search's vanishing level at a recorded state (stopped_vanishing;
    _vanishing_ladder, built once per search). A completed, undecided probe
    run continues from its final state at twice the horizon, up to a cap. A
    run that stopped is final. At its last chance (the last horizon, or a
    stopped_decayed run) a decayed, stalled probe is vanishing (its run
    found its final window eigenvalue positive); any other undecided probe
    fails the search with its status and evidence.
  - The explicit sufficient vanishing level for mu built from the eigenpair
    of a slightly enlarged interval (vanishing_mu_bound, the mu search's low
    bracket end), and the same level at any state of a run from a ladder of
    eigenpairs below L_star (_vanishing_ladder). Both rest on discrete
    eigenpairs, so they certify the continuous problem up to discretization
    error, as the window eigenvalue does.

The keyword defaults read from ThresholdConfig, the parsed thresholds block.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .kernels import kernel_positive_everywhere, weight_positive_on, weight_sup
from .model import ModelParams, gprime0, r0, spreading_sufficient
from .simulator import SimConfig, classify, run, spreading_stop_width
from .spectral import EigenProblem, principal_eigenvalue, trapezoid_weights

_HORIZON_DOUBLINGS = 3  # an undecided probe runs at most 4 horizons
_BRACKET_EXPANSIONS = 5  # a bracket end with the wrong label moves out at most 5 times
_LADDER_RUNGS = 16  # eigenpairs of a search's vanishing certificate


class ThresholdRegimeError(ValueError):
    """The requested constant does not exist in this parameter regime."""


class ThresholdSearchError(RuntimeError):
    """Bracketing or classification failed within the configured caps."""


@dataclass(frozen=True)
class ThresholdConfig:
    """Threshold-search settings; the only copies of their defaults."""

    n: int = 241
    tol: float = 1e-6
    rel_tol: float = 1e-2
    bracket_lo: float | None = None
    bracket_hi: float | None = None


@dataclass(frozen=True)
class BisectionResult:
    value: float
    lo: float
    hi: float
    iterations: int
    probes: tuple


def _lambda_on_interval(p: ModelParams, half_length: float, n: int) -> float:
    return principal_eigenvalue(EigenProblem(p, -half_length, half_length, n)).lambda_p


class _RootFound(Exception):
    """Stops the root search at the first abscissa within the tolerance."""


# The bracket closers below are scipy.optimize's bisect and brentq loops (its C
# `bisect` and `brentq`) with its rtol and iteration cap and the smallest
# float as xtol (relative stopping only: roots may be tiny), so they make the
# probes scipy made. Each returns when its bracket is below the tolerance or
# after _CLOSE_STEPS steps; f ends a search by raising _RootFound.
_RTOL = 4.0 * np.finfo(float).eps
_XTOL = np.finfo(float).tiny
_CLOSE_STEPS = 100


def _bisect(f, xa: float, xb: float) -> None:
    """Bisection of [xa, xb], over which f changes sign; like scipy's, it
    evaluates both ends first."""
    fa = f(xa)
    f(xb)
    dm = xb - xa
    for _ in range(_CLOSE_STEPS):
        dm *= 0.5
        xm = xa + dm
        fm = f(xm)
        if fm * fa >= 0.0:
            xa = xm
        if fm == 0.0 or abs(dm) < _XTOL + _RTOL * abs(xm):
            return


def _brent(f, xa: float, xb: float) -> None:
    """Brent's method (Brent 1973, ch. 4, `zeroin`) on [xa, xb], over which f
    changes sign: inverse quadratic or secant steps, kept only while they
    shrink the bracket fast enough, else bisection."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    xblk = fblk = spre = scur = 0.0
    for _ in range(_CLOSE_STEPS):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)


def _eigen_root(
    lam, lo: float, shrink: float, hi: float, lo_sign: float, tol: float, what: str, close,
    trace: list | None = None,
) -> float:
    """First probe x with |lam(x)| < tol, where lam has the sign lo_sign at small x.

    lo is divided by `shrink` until lam(lo) has the sign lo_sign, then hi is
    doubled (the old hi becoming lo) until the sign flips. The bracket closer
    `close` (_bisect or _brent) then closes the bracket; where lam vanishes
    more than once in it, the two may return different zeros. Each abscissa
    is solved once; `trace`, when given, receives every (x, lam(x)) probe in
    solve order, also when the search fails.
    """
    values: dict = {}

    def f(x: float) -> float:  # lo_sign * lam: positive at lo, negative at hi
        if x not in values:
            values[x] = lam(x)
            if abs(values[x]) < tol:
                raise _RootFound(x)
        return lo_sign * values[x]

    try:
        for _ in range(40):
            if f(lo) > 0.0:
                break
            lo /= shrink
        else:
            raise ThresholdSearchError(f"no {what} below the eigenvalue zero crossing found")
        for _ in range(60):
            if f(hi) < 0.0:
                break
            lo, hi = hi, 2.0 * hi
        else:
            raise ThresholdSearchError(f"no {what} above the eigenvalue zero crossing found")
        close(f, lo, hi)
    except _RootFound as found:
        return found.args[0]
    finally:
        if trace is not None:
            trace.extend(values.items())
    raise ThresholdSearchError(f"{what} search did not reach the eigenvalue tolerance")


def find_L_star(
    p: ModelParams, n: int = ThresholdConfig.n, tol: float = ThresholdConfig.tol, trace: list | None = None
) -> float:
    """Half-length where the interval eigenvalue vanishes, by bisection (_bisect).

    Only defined in the intermediate regime; outside it the eigenvalue has
    one sign for every length and the applicable regime is reported instead.
    `trace` collects every (length, lambda_p) probe.

    The grid moves with L, so with a discontinuous kernel the discrete
    eigenvalue jumps in L and can vanish at several lengths a few grid
    spacings apart (uniform kernel, n=48: 0.59994 and 0.60394). Bisection
    keeps the zero that earlier versions returned; Brent's method may not.
    """
    reproduction = r0(p)
    if reproduction <= 1.0:
        raise ThresholdRegimeError(
            "r0 <= 1: the interval eigenvalue is positive for every length, no zero crossing"
        )
    if spreading_sufficient(p):
        raise ThresholdRegimeError(
            "spreading-sufficient regime (r0 >= (1 + d1/a)(1 + d2/b)): eigenvalue negative for every length"
        )
    lam = lambda half: _lambda_on_interval(p, half, n)
    return _eigen_root(lam, p.h0 / 10.0, 2.0, 2.0 * p.h0, 1.0, tol, "length", _bisect, trace=trace)


def find_d_star(
    p: ModelParams, n: int = ThresholdConfig.n, tol: float = ThresholdConfig.tol, trace: list | None = None
) -> float:
    """Scale of the model's own (d1, d2) where the eigenvalue on [-h0, h0] crosses zero, by Brent's method (_brent).

    The eigenvalue is strictly increasing in the scale, negative in the
    zero-diffusion limit whenever r0 > 1, and grows without bound. The grid
    stays fixed while the scale changes, so the discrete eigenvalue is
    continuous in it. `trace` collects every (scale, lambda_p) probe.
    """
    if r0(p) <= 1.0:
        raise ThresholdRegimeError("r0 must exceed 1 for a diffusion threshold")
    if not (p.d1 > 0.0 and p.d2 > 0.0):  # ModelParams built in code are not validated
        raise ValueError("reference diffusion rates must be positive")
    lam = lambda s: _lambda_on_interval(replace(p, d1=s * p.d1, d2=s * p.d2), p.h0, n)
    return _eigen_root(lam, 1e-8, 4.0, 1.0, -1.0, tol, "diffusion scale", _brent, trace=trace)


def effective_L_star(p: ModelParams, n: int = ThresholdConfig.n) -> float:
    """Critical half-length extended to every regime.

    inf when r0 <= 1 (no width ever flips the eigenvalue negative), 0 in the
    spreading-sufficient regime (every width already has it negative), and
    the zero crossing from find_L_star in between. This is what finite-horizon
    classification should compare widths against. find_L_star reports both
    outer regimes before any eigen solve.
    """
    try:
        return find_L_star(p, n=n)
    except ThresholdRegimeError:
        return math.inf if r0(p) <= 1.0 else 0.0


def _L_star_above_h0(p: ModelParams, n: int, what: str, L_star: float | None = None) -> float:
    """L_star (solved unless given), which `what` needs to exceed h0."""
    Ls = find_L_star(p, n=n) if L_star is None else L_star
    if not p.h0 < Ls:
        raise ThresholdRegimeError(f"{what} needs h0 < L_star")
    return Ls


def d_star_lower_bound(p: ModelParams) -> float:
    """Closed-form floor for the diffusion threshold; 0 exactly at r0 = 1."""
    if r0(p) < 1.0:
        raise ThresholdRegimeError("the diffusion threshold needs r0 >= 1")
    g0 = gprime0(p)
    return 0.5 * (math.sqrt((p.a - p.b) ** 2 + 4.0 * p.e * g0) - (p.a + p.b))


def _profile_sup(profile, h0: float) -> float:
    xs = np.linspace(-h0, h0, 1025)
    return float(np.max(np.abs(np.asarray(profile(xs), dtype=float))))


def _level_terms(p: ModelParams, res, h1: float):
    """(decay, front mass) of the paper's small-mu vanishing level from the
    eigenpair `res` on [-h1, h1]: decay = lambda_p min(e, G'(0)) / 2, and the
    front mass int phi1 + rho sup_[0, 2 h1] W int phi2 (trapezoid rule)."""
    decay = 0.5 * res.lambda_p * min(p.e, gprime0(p))
    w = trapezoid_weights(res.x.size, res.x[1] - res.x[0])
    mass1 = float(np.sum(w * res.phi1))
    mass2 = float(np.sum(w * res.phi2))
    return decay, mass1 + p.rho * weight_sup(p.weight, 2.0 * h1) * mass2


def _mu_level(h1: float, H: float, decay: float, front_mass: float, phi_floor: float, data_norm: float) -> float:
    """The explicit mu level below which fronts starting at [-H, H] never leave
    [-h1, h1]: (h1 - H) decay / front_mass, times the eigenfunction floor
    over [-H, H] per unit of data norm sup u + sup v."""
    return (h1 - H) * decay / front_mass * phi_floor / data_norm


def vanishing_mu_bound(
    p: ModelParams,
    u0_profile,
    v0_profile,
    n: int = ThresholdConfig.n,
    L_star: float | None = None,
) -> float:
    """Explicit mu level below which the fronts provably stall.

    Built from the eigenpair on [-h1, h1] with h1 slightly above h0 (placed
    at 10% of the gap to L_star, halved up to 8 times until the eigenvalue
    there is still positive). Scale-invariant in the eigenfunction
    normalization and inverse-linear in the initial sup norms.
    """
    Ls = _L_star_above_h0(p, n, "the vanishing bound", L_star)
    frac = 0.1
    for _ in range(8):
        h1 = p.h0 + frac * (Ls - p.h0)
        res = principal_eigenvalue(EigenProblem(p, -h1, h1, n))
        if res.lambda_p > 0.0:
            break
        frac /= 2.0
    else:
        raise ThresholdSearchError("no enlarged interval with positive eigenvalue found")
    core = np.abs(res.x) <= p.h0
    phi_floor = min(float(res.phi1[core].min()), float(res.phi2[core].min()))
    data_norm = _profile_sup(u0_profile, p.h0) + _profile_sup(v0_profile, p.h0)
    return _mu_level(h1, p.h0, *_level_terms(p, res, h1), phi_floor, data_norm)


def _vanishing_ladder(p: ModelParams, L_star: float, n: int):
    """The vanishing level of a state, (H, data_norm) -> mu level, from a
    ladder of eigenpairs on [-h1, h1], h1 = L_star - (L_star - h0) 2^(-j/2)
    for j = 1.._LADDER_RUNGS, rungs with lambda_p <= 0 dropped.

    The level at half-width H is the largest _mu_level over the rungs with
    h1 > H, each with the floor of min(phi1, phi2) over the eigen nodes that
    cover [-H, H], the first node beyond each end included (the interpolated
    eigenfunction on [-H, H] is no smaller); 0 when no rung has h1 > H, and
    inf for zero data. The system is autonomous and translation invariant,
    so a level of a recorded state holds from that state on: a run with mu
    at most it vanishes (simulator.run's `certify`).
    """
    rungs = []
    for j in range(1, _LADDER_RUNGS + 1):
        h1 = L_star - (L_star - p.h0) * 2.0 ** (-j / 2)
        res = principal_eigenvalue(EigenProblem(p, -h1, h1, n))
        if res.lambda_p <= 0.0:
            continue
        phi = np.minimum(res.phi1, res.phi2)
        outer = np.minimum(phi, phi[::-1])[: (n + 1) // 2]  # node j and its mirror n-1-j
        floor = np.minimum.accumulate(outer[::-1])[::-1]  # floor[j]: min over nodes j .. n-1-j
        rungs.append((h1, *_level_terms(p, res, h1), res.x.tolist(), floor.tolist()))

    def level(H: float, data_norm: float) -> float:
        best = 0.0
        for h1, decay, front_mass, nodes, floor in rungs:
            if not h1 > H:
                continue
            if data_norm == 0.0:
                return math.inf
            # nodes[lo] <= -H and nodes[hi] >= H: the covering nodes lie in the mirror pair range
            lo, hi = bisect_right(nodes, -H) - 1, bisect_left(nodes, H)
            best = max(best, _mu_level(h1, H, decay, front_mass, floor[min(lo, n - 1 - hi)], data_norm))
        return best

    return level


def _classify_with_horizon(p: ModelParams, cfg: SimConfig, u0_profile, v0_profile, L_star: float, level) -> str:
    """A probe's label: classify its run, doubling a completed undecided run's
    horizon; runs stop early on the window eigenvalue certificate and on the
    search's vanishing level `level` (_vanishing_ladder), run's `certify`.

    A run still undecided at its last chance (the last horizon, or a
    `stopped_decayed` run) is vanishing when it is decayed and stalled below
    tol_vanish; otherwise the search fails. Its window eigenvalue is positive:
    the run checked it at every recorded row, its final step included.
    """
    stop = spreading_stop_width(L_star, cfg)
    horizon = cfg.t_end
    traj = None
    for _ in range(_HORIZON_DOUBLINGS + 1):
        local = replace(cfg, t_end=horizon)
        traj = run(p, local, u0_profile, v0_profile, stop_width=stop, resume=traj, certify=level)
        outcome = classify(traj, L_star, local)
        if outcome != "undecided":
            return outcome
        if traj.status != "completed":  # a run that stopped is final
            break
        horizon *= 2.0
    density = traj.sup_u[-1] + traj.sup_v[-1]
    speed = traj.h_rate[-1] - traj.g_rate[-1]
    if traj.status in ("completed", "stopped_decayed") and density < cfg.tol_vanish and speed < cfg.tol_vanish:
        return "vanishing"
    raise ThresholdSearchError(
        f"probe run ended {traj.status} at t={traj.t[-1]:.6g}, undecided: width {traj.h[-1] - traj.g[-1]:.6g} "
        f"against 2L*={2.0 * L_star:.6g} and 2L*+tol_spread={2.0 * L_star + cfg.tol_spread:.6g}, sup u+v "
        f"{density:.3g}, front speed {speed:.3g}"
    )


def _label_search(
    p: ModelParams, cfg: SimConfig, Ls: float, n: int, probe, bracket: tuple, rel_tol: float
) -> BisectionResult:
    """The bisection of a mu* or sigma* search over its bracket, on the
    monotone dichotomy in x. probe(x) is the (model, u0, v0) run at x,
    labelled by _classify_with_horizon against this search's vanishing level
    (_vanishing_ladder, built here).

    The low end must classify vanishing and the high end spreading; an end
    carrying the other label is moved outward by a factor of 4 (exact in
    binary) up to _BRACKET_EXPANSIONS times. Every probe keeps that
    invariant, so a returned bracket [lo, hi] always has a vanishing low end
    and a spreading high end, as its probes record.
    """
    level = _vanishing_ladder(p, Ls, n)
    probes = []

    def label(x: float) -> str:
        model, u0, v0 = probe(x)
        outcome = _classify_with_horizon(model, cfg, u0, v0, Ls, level)
        probes.append((x, outcome))
        return outcome

    def settle(x: float, factor: float, end: str, want: str, other: str) -> float:
        out = label(x)
        for _ in range(_BRACKET_EXPANSIONS):
            if out != other:
                break
            x *= factor
            out = label(x)
        if out != want:
            raise ThresholdSearchError(f"{end} bracket end classifies as {out}, not {want}")
        return x

    lo = settle(bracket[0], 0.25, "low", "vanishing", "spreading")
    hi = settle(bracket[1], 4.0, "high", "spreading", "vanishing")
    iterations = 0
    while hi - lo > rel_tol * hi:
        mid = math.sqrt(lo * hi)  # geometric midpoint: brackets span decades
        if label(mid) == "vanishing":
            lo = mid
        else:
            hi = mid
        iterations += 1
        if iterations > 200:
            raise ThresholdSearchError("bisection failed to close the bracket")
    return BisectionResult(value=0.5 * (lo + hi), lo=lo, hi=hi, iterations=iterations, probes=tuple(probes))


def find_mu_star(
    p: ModelParams,
    cfg: SimConfig,
    u0_profile,
    v0_profile,
    bracket: tuple | None = None,
    rel_tol: float = ThresholdConfig.rel_tol,
    n: int = ThresholdConfig.n,
) -> BisectionResult:
    """Front-response threshold separating vanishing from spreading.

    Requires the intermediate regime and h0 < L_star; the run dichotomy is
    monotone in mu, so bisection applies. The default bracket starts at the
    explicit vanishing bound and one thousand times it.
    """
    Ls = _L_star_above_h0(p, n, "mu threshold search")
    if bracket is None:
        base = vanishing_mu_bound(p, u0_profile, v0_profile, n=n, L_star=Ls)
        bracket = (base, 1e3 * base)
    probe = lambda mu: (replace(p, mu=mu), u0_profile, v0_profile)
    return _label_search(p, cfg, Ls, n, probe, bracket, rel_tol)


def find_sigma_star(
    p: ModelParams,
    cfg: SimConfig,
    psi1,
    psi2,
    bracket: tuple | None = None,
    rel_tol: float = ThresholdConfig.rel_tol,
    n: int = ThresholdConfig.n,
) -> BisectionResult:
    """Initial-data scale threshold for (u0, v0) = sigma * (psi1, psi2).

    Beyond the intermediate-regime requirements this needs either a pathogen
    kernel positive on the whole line or a front weight positive on
    [0, 2*L_star]; otherwise arbitrarily large data may still fail to push
    the fronts and no sharp scale exists.
    """
    Ls = _L_star_above_h0(p, n, "sigma threshold search")
    if not (kernel_positive_everywhere(p.kernel1) or weight_positive_on(p.weight, 2.0 * Ls)):
        raise ThresholdRegimeError(
            "sigma threshold needs a strictly positive pathogen kernel or a front "
            "weight positive on [0, 2*L_star]"
        )
    probe = lambda sigma: (p, lambda x: sigma * psi1(x), lambda x: sigma * psi2(x))
    return _label_search(p, cfg, Ls, n, probe, bracket or (1e-3, 1e3), rel_tol)
