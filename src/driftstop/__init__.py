"""Sequential least-squares drift estimation under observation cost.

Estimate the unobservable drift of a noisy observation stream, paying a fixed
cost per unit of observation time: filter the drift exactly for an arbitrary
prior, solve the induced optimal stopping problem on a grid, compare against
the closed-form cases, and verify the probabilistic identities by simulation.
"""

from .prior import (
    PosteriorError,
    PriorError,
    PriorSpec,
    QuadratureTable,
    WidderValue,
    build_quadrature,
    heat_residual_F,
    posterior_mean_var,
    widder_F,
)
from .dispersion import (
    InversionError,
    PdeResiduals,
    PsiGrid,
    clamp_to_interior,
    invert_G,
    invertible_interval,
    pde_residuals,
    psi,
    psi_grid,
)
from .closed_form import (
    BernoulliSolution,
    FilterAnalytics,
    MonotoneCheck,
    bernoulli_analytics,
    bernoulli_psi,
    bernoulli_solve,
    gaussian_analytics,
    gaussian_tau_star,
    gaussian_value,
    halfnormal_H,
    halfnormal_analytics,
    halfnormal_monotone_check,
    mixture_H,
    mixture_analytics,
    mixture_boundary_thresholds,
)
from .stopping_solver import (
    BoundaryCurve,
    HorizonResult,
    MonotonicityReport,
    OrderingReport,
    RegionCheck,
    SolverConfig,
    SolverError,
    ValueGrid,
    bernoulli_comparison_check,
    choose_horizon,
    compare_value_ordering,
    default_domain,
    extract_regions,
    locally_good_check,
    monotonicity_report,
    solve_value,
    solver_psi_grid,
)
from .montecarlo import (
    CostEstimate,
    PathBatch,
    PerturbationResult,
    SimConfig,
    VarianceIdentityReport,
    evaluate_policy,
    policy_optimality_gap,
    simulate_paths,
    verify_variance_identity,
)

__version__ = "0.1.0"
