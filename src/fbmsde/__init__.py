"""Simulation toolkit for SDEs driven by fractional Brownian motion.

The package covers the implicit (backward) Euler scheme for additive-noise
equations ``dX_t = b(X_t) dt + dB_t`` with a one-sided Lipschitz drift and
Hurst index above one half: exact path sampling, the implicit step solver,
comparison schemes, the first-order error expansion with its limit
process, and Monte Carlo experiment drivers with a command-line front end.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .drifts import (
    DriftSpec,
    available_drifts,
    get_drift,
    make_linear_drift,
    noise_free_bound_check,
    register_drift,
    verify_one_sided,
)
from .errors import (
    CirculantEmbeddingError,
    ConfigError,
    DomainError,
    FactorizationError,
    FbmSdeError,
    GridError,
    LinearSolveFailure,
    NoConvergenceError,
    SolverError,
    StepTooLargeError,
)
from .fbm import (
    FbmPath,
    HurstVector,
    build_covariance_matrix,
    child_seed,
    coarsen,
    covariance,
    sample_multi,
    sample_path_cholesky,
    sample_path_circulant,
    zero_path,
)
from .grids import Partition, nested_indices
from .harness import (
    ExperimentConfig,
    RateReport,
    fit_order,
    mc_strong_error,
    reference_bias_check,
    resolve_drift,
    stability_compare,
    sweep_strong_error,
)
from .integrate import (
    FundamentalMatrixPath,
    Trajectory,
    backward_euler,
    crank_nicolson,
    forward_euler,
    fundamental_matrix_fb_euler,
    fundamental_matrix_reference,
    interpolate_backward,
    reference_solution,
)
from .limit import (
    LimitComparison,
    ResidualBundle,
    ResidualGrid,
    compute_U,
    limit_check,
    residual_bundle,
    residual_grid,
    solve_U_ode,
)
from .solver import SolveConfig, StepResult, resolvent_norm_bound, solve_backward_step

__all__ = [
    "__version__",
    # errors
    "FbmSdeError", "DomainError", "GridError", "ConfigError",
    "FactorizationError", "CirculantEmbeddingError", "SolverError",
    "NoConvergenceError", "StepTooLargeError", "LinearSolveFailure",
    # grids and paths
    "Partition", "nested_indices", "HurstVector", "FbmPath", "covariance",
    "build_covariance_matrix", "sample_path_cholesky", "sample_path_circulant",
    "sample_multi", "coarsen", "child_seed", "zero_path",
    # drifts
    "DriftSpec", "register_drift", "get_drift", "available_drifts",
    "make_linear_drift", "verify_one_sided", "noise_free_bound_check",
    # solver
    "SolveConfig", "StepResult", "solve_backward_step", "resolvent_norm_bound",
    # integrators
    "Trajectory", "FundamentalMatrixPath", "backward_euler", "forward_euler",
    "crank_nicolson", "reference_solution", "interpolate_backward",
    "fundamental_matrix_reference", "fundamental_matrix_fb_euler",
    # limit process
    "ResidualBundle", "ResidualGrid", "LimitComparison", "residual_bundle",
    "residual_grid", "compute_U", "solve_U_ode", "limit_check",
    # experiments
    "ExperimentConfig", "RateReport", "resolve_drift", "mc_strong_error",
    "sweep_strong_error", "fit_order", "stability_compare",
    "reference_bias_check",
]
