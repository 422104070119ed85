"""Exception taxonomy shared across the package.

Every error raised by library code derives from :class:`FbmSdeError` so
callers can catch one base type.  Validation problems additionally derive
from :class:`ValueError` to stay friendly to generic callers.
"""

from __future__ import annotations


class FbmSdeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FbmSdeError, ValueError):
    """A numeric argument is outside its admissible range."""


class GridError(FbmSdeError, ValueError):
    """A time grid is malformed, or two grids fail a nesting requirement."""


class ConfigError(FbmSdeError, ValueError):
    """A run configuration is invalid.

    ``issues`` collects every problem found so a user can fix all of them
    in one pass instead of replaying the command per mistake.
    """

    def __init__(self, issues: list[str] | str):
        if isinstance(issues, str):
            issues = [issues]
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


class FactorizationError(FbmSdeError):
    """A covariance matrix could not be factorized within tolerance."""


class CirculantEmbeddingError(FactorizationError):
    """The circulant embedding produced eigenvalues below the clip floor."""


class SolverError(FbmSdeError):
    """Base class for implicit-step solver failures.

    ``step`` is the time-step index when the failure happened inside an
    integrator loop, or ``None`` for a bare solver call.  ``path`` is the
    Monte Carlo path index when a batched run failed on one of its paths,
    or the lane index when a block function that knows no path indices
    (:func:`~fbmsde.integrate.fundamental_matrix_block`,
    :func:`~fbmsde.limit.compute_U_block`) failed on a lane; ``lane`` is
    then the failing lane of the block.
    """

    path: int | None = None
    lane: int | None = None

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        super().__init__(message if step is None else f"step {step}: {message}")


class NoConvergenceError(SolverError):
    """The nonlinear solve did not reach the residual tolerance."""

    def __init__(self, message: str, step: int | None = None,
                 residual: float | None = None, iterations: int | None = None):
        self.residual = residual
        self.iterations = iterations
        super().__init__(message, step=step)


class StepTooLargeError(SolverError, ValueError):
    """The step size violates the one-sided-Lipschitz solvability guard."""


class LinearSolveFailure(SolverError):
    """A Newton linear system was singular or otherwise unsolvable."""
