"""Numerical laboratory for a two-species nonlocal epidemic system whose
infected region expands through moving fronts driven by the outward pathogen
flux and the weighted infected population."""

from .kernels import (
    KernelSpec,
    WeightSpec,
    has_finite_first_moment,
    kernel_eval,
    kernel_tail,
    support_radius,
    validate_weight,
    weight_eval,
)
from .model import (
    EquilibriumState,
    InfectionFn,
    ModelParams,
    a_priori_bounds,
    equilibrium,
    infection_value,
    r0,
    spreading_sufficient,
    validate_params,
)
from .ode import OdeOutcome, OdeState, classify_ode_limit, integrate_ode, lyapunov_series
from .simulator import (
    Grid,
    SimConfig,
    SimState,
    Trajectory,
    Verdict,
    boundary_rates,
    classify,
    fixed_boundary_run,
    flux_equivalence_check,
    nonlocal_term,
    run,
    stability_limit,
    step,
)
from .spectral import (
    EigenProblem,
    EigenResult,
    assemble_operator,
    lower_bound,
    principal_eigenvalue,
    rayleigh_check,
    upper_bound_d2,
)
from .thresholds import (
    BisectionResult,
    ThresholdRegimeError,
    d_star_lower_bound,
    effective_L_star,
    find_L_star,
    find_d_star,
    find_mu_star,
    find_sigma_star,
    vanishing_mu_bound,
)

__version__ = "0.1.0"
