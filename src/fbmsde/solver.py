"""Damped-Newton solver for the implicit Euler step.

One backward step solves ``y - delta * b(y) = c``.  Under a one-sided
Lipschitz bound ``kappa`` the map ``y -> y - delta * b(y)`` is strongly
monotone whenever ``kappa * delta < 1``, so the root is unique; the default
guard rejects steps with ``kappa * delta > 0.9`` before any iteration runs.

Newton iterations start at ``c`` (or a caller-supplied guess), halve the
update up to 30 times until the residual norm decreases, and fall back to
sign-change bisection in one dimension when damping stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .drifts import DriftSpec
from .errors import (
    DomainError,
    LinearSolveFailure,
    NoConvergenceError,
    StepTooLargeError,
)

__all__ = ["SolveConfig", "StepResult", "solve_backward_step", "resolvent_norm_bound"]

_MAX_HALVINGS = 30
_KAPPA_DELTA_LIMIT = 0.9


@dataclass(frozen=True)
class SolveConfig:
    """Tolerances for the implicit step.

    ``tol`` bounds the Euclidean norm of the step residual and is absolute.
    ``kappa_guard`` can be disabled to probe steps beyond the guaranteed
    regime; solvability is then on the caller.
    """

    tol: float = 1e-12
    max_iter: int = 50
    kappa_guard: bool = True

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise DomainError(f"tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter!r}")


DEFAULT_SOLVE_CONFIG = SolveConfig()


def _check_step_guard(spec: DriftSpec, delta: float, cfg: SolveConfig) -> None:
    """Reject ``kappa * delta`` above the guard; integrators pass θ * mesh."""
    if cfg.kappa_guard and spec.kappa > 0.0 and spec.kappa * delta > _KAPPA_DELTA_LIMIT:
        raise StepTooLargeError(
            f"kappa * mesh = {spec.kappa * delta:.6g} exceeds the "
            f"{_KAPPA_DELTA_LIMIT} solvability guard")


@dataclass(frozen=True)
class StepResult:
    """Solution of one implicit step with its achieved residual norm."""

    y: np.ndarray
    residual: float
    iterations: int


def _residual(spec: DriftSpec, delta: float, c: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y - delta * np.asarray(spec.eval(y), dtype=np.float64) - c


def _bisect_scalar(spec: DriftSpec, delta: float, c: float, tol: float
                   ) -> tuple[float, float] | None:
    """Sign-change bisection for the scalar step equation.

    Expands the bracket around ``c`` geometrically, then bisects.  Returns
    ``(y, |residual|)`` on success, ``None`` if no bracket or no convergence.
    """

    def g(y: float) -> float:
        return float(y - delta * float(spec.eval(np.array([y]))[0]) - c)

    base = max(1.0, abs(c))
    lo = hi = c
    glo = ghi = g(c)
    found = False
    for j in range(64):
        span = base * (2.0**j)
        lo, hi = c - span, c + span
        glo, ghi = g(lo), g(hi)
        if math.isfinite(glo) and math.isfinite(ghi) and glo * ghi <= 0.0:
            found = True
            break
    if not found:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gmid = g(mid)
        if abs(gmid) <= tol:
            return mid, abs(gmid)
        if not math.isfinite(gmid):
            return None
        if glo * gmid <= 0.0:
            hi, ghi = mid, gmid
        else:
            lo, glo = mid, gmid
        if hi == lo:
            break
    gmid = g(0.5 * (lo + hi))
    if abs(gmid) <= tol:
        return 0.5 * (lo + hi), abs(gmid)
    return None


def solve_backward_step(spec: DriftSpec, delta: float, c: np.ndarray,
                        cfg: SolveConfig | None = None,
                        initial_guess: np.ndarray | None = None) -> StepResult:
    """Solve ``y - delta * b(y) = c`` for one implicit Euler step.

    Args:
        spec: drift field with a declared one-sided constant.
        delta: step size, ``>= 0``.
        c: right-hand side, shape ``(m,)``.
        cfg: tolerances; defaults to ``SolveConfig()``.
        initial_guess: starting point for Newton; defaults to ``c``.

    Raises:
        StepTooLargeError: ``kappa * delta`` exceeds the solvability guard.
        LinearSolveFailure: a Newton system was singular.
        NoConvergenceError: the residual tolerance was not reached.
    """
    if cfg is None:
        cfg = DEFAULT_SOLVE_CONFIG
    if delta < 0.0 or not math.isfinite(delta):
        raise DomainError(f"step size must be finite and >= 0, got {delta!r}")
    c = spec.check_state(c)
    if not np.all(np.isfinite(c)):
        raise DomainError("implicit step target must be finite")
    _check_step_guard(spec, delta, cfg)

    if delta == 0.0:
        return StepResult(y=c.copy(), residual=0.0, iterations=0)

    y = c.copy() if initial_guess is None else spec.check_state(initial_guess).copy()
    eye = np.eye(spec.dim)
    res = _residual(spec, delta, c, y)
    res_norm = float(np.linalg.norm(res))
    iterations = 0
    stalled = False

    while iterations < cfg.max_iter:
        if res_norm <= cfg.tol:
            return StepResult(y=y, residual=res_norm, iterations=iterations)
        jac = np.asarray(spec.jacobian(y), dtype=np.float64)
        system = eye - delta * jac
        try:
            update = np.linalg.solve(system, -res)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(
                f"singular Newton system at iterate with residual {res_norm:.3e}"
            ) from exc
        if not np.all(np.isfinite(update)):
            raise LinearSolveFailure("non-finite Newton update")

        scale = 1.0
        improved = False
        for _ in range(_MAX_HALVINGS + 1):
            cand = y + scale * update
            cand_res = _residual(spec, delta, c, cand)
            cand_norm = float(np.linalg.norm(cand_res))
            if math.isfinite(cand_norm) and cand_norm < res_norm:
                y, res, res_norm = cand, cand_res, cand_norm
                improved = True
                break
            scale *= 0.5
        iterations += 1
        if not improved:
            stalled = True
            break

    if res_norm <= cfg.tol:
        return StepResult(y=y, residual=res_norm, iterations=iterations)

    if spec.dim == 1:
        got = _bisect_scalar(spec, delta, float(c[0]), cfg.tol)
        if got is not None:
            root, rnorm = got
            return StepResult(y=np.array([root]), residual=rnorm,
                              iterations=iterations)

    reason = "damping stalled" if stalled else f"max_iter = {cfg.max_iter} reached"
    raise NoConvergenceError(
        f"{reason} with residual {res_norm:.3e} above tol {cfg.tol:g}",
        residual=res_norm, iterations=iterations)


def resolvent_norm_bound(jac: np.ndarray, t: float, lam: float
                         ) -> tuple[float, float]:
    """Spectral norm of ``(I - t J)^{-1}`` next to its monotonicity bound.

    For ``<x, J x> <= lam |x|^2`` and ``lam * t < 1`` the resolvent norm is
    at most ``1 / (1 - lam * t)``.  Returns ``(norm, bound)``.

    Raises:
        DomainError: if ``lam * t >= 1`` or ``t < 0``.
    """
    jac = np.atleast_2d(np.asarray(jac, dtype=np.float64))
    if jac.shape[0] != jac.shape[1]:
        raise DomainError(f"Jacobian must be square, got {jac.shape}")
    t = float(t)
    lam = float(lam)
    if t < 0.0 or not math.isfinite(t):
        raise DomainError(f"t must be finite and >= 0, got {t!r}")
    if lam * t >= 1.0:
        raise DomainError(
            f"lam * t = {lam * t:.6g} >= 1; the resolvent bound needs lam * t < 1")
    system = np.eye(jac.shape[0]) - t * jac
    smallest = float(np.min(np.linalg.svd(system, compute_uv=False)))
    if smallest <= 0.0:
        raise LinearSolveFailure("resolvent matrix is singular")
    return 1.0 / smallest, 1.0 / (1.0 - lam * t)
