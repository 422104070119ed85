"""Damped-Newton solver for the implicit Euler step.

One backward step solves ``y - delta * b(y) = c``.  Under a one-sided
Lipschitz bound ``kappa`` the map ``y -> y - delta * b(y)`` is strongly
monotone whenever ``kappa * delta < 1``, so the root is unique; the guard
rejects steps with ``kappa * delta > 0.9`` before any iteration runs.

Newton iterations start at ``c``, as the path-batched engine's do, halve the
update up to 30 times until the residual norm decreases, and fall back to
sign-change bisection in one dimension when damping stalls.  These
decisions are written once; only the evaluation of the residual, its norm
and the Newton update depend on the dimension.  In one dimension the
iterate, the residual and the update are Python floats, which saves the
numpy overhead of one-element arrays on every iteration; for ``m >= 2``
they are arrays and LAPACK solves the Newton system.

The drift and its Jacobian are still evaluated on a (reused) one-element
array, never on a float: Python's ``y**3`` differs from numpy's array power
in the last bit for about 3% of arguments, and an ``np.float64`` scalar
power for about as many.  Evaluating on arrays keeps every step
bit-identical to the path-batched engine, whose lanes must reproduce this
solver exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    """

    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self) -> None:
        if not self.tol > 0.0:
            raise DomainError(f"tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {self.max_iter!r}")


DEFAULT_SOLVE_CONFIG = SolveConfig()


def _check_step_guard(spec: DriftSpec, delta: float) -> None:
    """Reject ``kappa * delta`` above the guard; integrators pass θ * mesh."""
    if spec.kappa > 0.0 and spec.kappa * delta > _KAPPA_DELTA_LIMIT:
        raise StepTooLargeError(
            f"kappa * mesh = {spec.kappa * delta:.6g} exceeds the "
            f"{_KAPPA_DELTA_LIMIT} solvability guard")


@dataclass(frozen=True)
class StepResult:
    """Solution of one implicit step with its achieved residual norm."""

    y: np.ndarray
    residual: float
    iterations: int


def _bisect_scalar(residual: Callable[[float], tuple[float, float]], c: float,
                   tol: float) -> tuple[float, float] | None:
    """Sign-change bisection for the scalar step equation.

    Expands the bracket around ``c`` geometrically, then bisects.  Returns
    ``(y, |residual|)`` on success, ``None`` if no bracket or no convergence.
    """

    def g(y: float) -> float:
        return residual(y)[0]

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


class _ScalarStep:
    """The step equation in one dimension, on Python floats.

    The norm is ``sqrt(r * r)``, as ``np.linalg.norm`` computes it, and
    the Newton update is the division that the 1x1 LU solve computes, so
    every value has the bits of the array computation.  The drift is
    evaluated on the one-element array ``x`` (see the module docstring).
    """

    def __init__(self, spec: DriftSpec, delta: float, c: np.ndarray) -> None:
        self.spec = spec
        self.delta = delta
        self.c = float(c[0])
        self.x = np.empty(1)

    @staticmethod
    def start(y0: np.ndarray) -> float:
        return float(y0[0])

    def residual(self, y: float) -> tuple[float, float]:
        self.x[0] = y
        r = y - self.delta * float(self.spec.eval(self.x)[0]) - self.c
        return r, math.sqrt(r * r)

    def newton(self, y: float, res: float) -> float:
        self.x[0] = y
        system = 1.0 - self.delta * float(self.spec.jacobian(self.x)[0, 0])
        if system == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        return -res / system

    finite = staticmethod(math.isfinite)

    @staticmethod
    def state(y: float) -> np.ndarray:
        return np.array([y])


class _VectorStep:
    """The step equation in ``m >= 2`` dimensions, on arrays, with the
    Newton system solved by LAPACK."""

    def __init__(self, spec: DriftSpec, delta: float, c: np.ndarray) -> None:
        self.spec = spec
        self.delta = delta
        self.c = c
        self.eye = np.eye(spec.dim)

    @staticmethod
    def start(y0: np.ndarray) -> np.ndarray:
        return y0.copy()

    def residual(self, y: np.ndarray) -> tuple[np.ndarray, float]:
        res = y - self.delta * self.spec.eval(y) - self.c
        return res, float(np.linalg.norm(res))

    def newton(self, y: np.ndarray, res: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.eye - self.delta * self.spec.jacobian(y), -res)

    @staticmethod
    def finite(update: np.ndarray) -> bool:
        return bool(np.isfinite(update).all())

    @staticmethod
    def state(y: np.ndarray) -> np.ndarray:
        return y


def solve_backward_step(spec: DriftSpec, delta: float, c: np.ndarray,
                        cfg: SolveConfig | None = None) -> StepResult:
    """Solve ``y - delta * b(y) = c`` for one implicit Euler step.

    Args:
        spec: drift field with a declared one-sided constant.
        delta: step size, ``>= 0``.
        c: right-hand side, shape ``(m,)``.
        cfg: tolerances; defaults to ``SolveConfig()``.

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
    if not np.isfinite(c).all():
        raise DomainError("implicit step target must be finite")
    _check_step_guard(spec, delta)

    if delta == 0.0:
        return StepResult(y=c.copy(), residual=0.0, iterations=0)

    step = (_ScalarStep if spec.dim == 1 else _VectorStep)(spec, float(delta), c)
    y = step.start(c)
    res, res_norm = step.residual(y)
    iterations = 0
    stalled = False

    while iterations < cfg.max_iter:
        if res_norm <= cfg.tol:
            return StepResult(y=step.state(y), residual=res_norm, iterations=iterations)
        try:
            update = step.newton(y, res)
        except np.linalg.LinAlgError as exc:
            raise LinearSolveFailure(
                f"singular Newton system at iterate with residual {res_norm:.3e}"
            ) from exc
        if not step.finite(update):
            raise LinearSolveFailure("non-finite Newton update")

        scale = 1.0
        improved = False
        for _ in range(_MAX_HALVINGS + 1):
            cand = y + scale * update
            cand_res, cand_norm = step.residual(cand)
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
        return StepResult(y=step.state(y), residual=res_norm, iterations=iterations)

    if spec.dim == 1:
        got = _bisect_scalar(step.residual, step.c, cfg.tol)
        if got is not None:
            root, rnorm = got
            return StepResult(y=step.state(root), residual=rnorm,
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
