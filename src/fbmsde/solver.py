"""Damped-Newton solver for the implicit Euler step.

One backward step solves ``y - delta * b(y) = c``.  Under a one-sided
Lipschitz bound ``kappa`` the map ``y -> y - delta * b(y)`` is strongly
monotone whenever ``kappa * delta < 1``, so the root is unique; the guard
rejects steps with ``kappa * delta > 0.9`` before any iteration runs.

Newton iterations start at ``c`` or at the explicit predictor
``c - r(c) = c + delta b(c)``, whichever has the smaller residual norm (a
tie keeps ``c``), as the path-batched engine's do.  The predictor lies
within ``O(delta^2)`` of the root, so one iteration usually suffices where
two were needed from ``c``; where it overshoots, as for large ``|c|``, the
solve starts at ``c`` as before (Hairer & Wanner, *Solving ODEs II*,
§IV.8).  Each iteration halves the update up to 30 times until the
residual norm decreases, and the solve falls back to sign-change bisection
in one dimension when damping stalls.

The start, stop, update, halve and stall decisions are written once per
dimension, each in the ``solve(delta, c, cfg)`` of a step object that is
built once per run and runs one step as one function on locals.  In one
dimension :meth:`_ScalarStep.solve` runs the whole damped Newton on
Python floats, which saves the numpy overhead of one-element arrays.  For
``m >= 2`` :meth:`_VectorStep.solve` runs it on arrays, and
:func:`_solve_small` solves the Newton system, in closed form for
``m = 2`` (Cramer's rule) and by LAPACK above.  A linear drift's engine
pass solves every step of a run with one system for the whole stack of
lanes through :func:`_system_solver`, which for ``m <= 2`` reads the
system's entries as Python floats once and writes each solution into
the pass's buffer of states.  The engine's ``_newton_rows`` takes the
same decisions row by row.  On a one-dimensional spec the float loop
gives the bits of the array loop, whose ``_solve_small`` is then a
division.

A linear drift ``b(y) = A y`` (``DriftSpec.matrix``) starts instead from
the direct solution of ``(I - delta A) y = c`` (:func:`_solve_linear`, a
division in one dimension), which counts as one Newton iteration: a
Newton step on a linear map gives it from any start.  It is kept when
its residual norm is within the tolerance; otherwise Newton continues
from it, as from any start.  A singular or non-finite direct solution
takes the start above.  :func:`_step_for` picks the step's class once per
run by dimension; a step keeps a linear drift's matrix, or in one
dimension its coefficient ``a``.

:func:`solve_backward_step` checks its inputs and solves a fresh step,
then runs the bisection rescue and raises the errors.  The single-path
integrators of :mod:`fbmsde.integrate` build one step per run and call
its ``solve`` on every step; a step that is not a plain converged solve
(a non-finite target, a stall, ``max_iter``, a singular or non-finite
update) is solved again from the same target by
:func:`solve_backward_step`, the rule the engine applies to its rows, so
rescues and errors are the public call's.

In one dimension the drift and its derivative are evaluated on floats
too when the spec carries a float pair (``DriftSpec.on_float``; the
built-in one-dimensional drifts do), and otherwise on a reused
one-element array.  The engine's lanes must reproduce this solver
exactly, so the pair must give the bits of the array forms, which
construction checks: the built-in forms write powers as products, which
round the same way on floats and on arrays, where Python's ``y**3``
differs from numpy's array power in the last bit for a few percent of
arguments.  With a float pair a step makes no numpy call at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
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


def _small_det(a: np.ndarray) -> np.ndarray:
    """Determinants of ``a``, shape ``(..., m, m)``: the entry for m = 1,
    ``ad - bc`` for m = 2 and LAPACK's LU product above."""
    m = a.shape[-1]
    if m == 1:
        return a[..., 0, 0]
    if m == 2:
        return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    return np.linalg.det(a)


def _solve_small(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for a stack of small systems: ``a`` of shape
    ``(..., m, m)``, ``b`` of shape ``(..., m, k)``; an ``a`` of shape
    ``(m, m)`` is the one system of every right-hand side of the stack.

    For m = 1 this is a division, which is what the 1x1 LU solve of one
    column computes, for m = 2 Cramer's rule, and LAPACK above.  Each
    entry comes from operations on its own system alone, so a system of a
    stack has the bits of the same system solved as a stack of one, and
    one system broadcast along a stack the bits of it repeated.  A
    singular system gives a NaN solution; it is never divided by, so no
    division warns (a RuntimeWarning of this package is an error under
    the test suite).
    """
    m = a.shape[-1]
    if m > 2:
        try:
            return np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            pass
        out = np.full(b.shape, np.nan)
        for j in np.ndindex(a.shape[:-2]):
            try:
                out[j] = np.linalg.solve(a[j], b[j])
            except np.linalg.LinAlgError:
                pass
        return out
    out = np.full(b.shape, np.nan)
    if m == 1:
        return np.divide(b, a, out=out, where=a != 0.0)
    det = _small_det(a)[..., None]
    solvable = det != 0.0
    b0, b1 = b[..., 0, :], b[..., 1, :]
    np.divide(b0 * a[..., 1, 1:] - a[..., 0, 1:] * b1, det, out=out[..., 0, :],
              where=solvable)
    np.divide(a[..., 0, :1] * b1 - a[..., 1, :1] * b0, det, out=out[..., 1, :],
              where=solvable)
    return out


def _solve_one(a: list[list[float]], b: np.ndarray, out: np.ndarray | None = None
               ) -> np.ndarray:
    """:func:`_solve_small` for one system of m = 1 or 2 with the entries
    ``a`` as Python floats, in the stacked arithmetic's operation order:
    they round as the entries repeated along the stack would, so this
    gives the bits of that stack at the cost of one system.  (Only a
    system with a NaN entry may give NaNs of other sign bits: of two NaN
    factors, numpy keeps either one's bits, depending on the memory
    layout.)"""
    if out is None:
        out = np.empty(b.shape)
    if len(a) == 1:
        (a00,), = a
        if a00 == 0.0:
            out.fill(np.nan)
            return out
        return np.divide(b, a00, out)
    (a00, a01), (a10, a11) = a
    det = a00 * a11 - a01 * a10
    if det == 0.0:
        out.fill(np.nan)
        return out
    b0, b1 = b[..., 0, :], b[..., 1, :]
    np.divide(b0 * a11 - a01 * b1, det, out[..., 0, :])
    np.divide(a00 * b1 - a10 * b0, det, out[..., 1, :])
    return out


def _system_solver(a: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``b, out ->`` the solution of ``a x = b`` by :func:`_solve_small`,
    written into ``out``, for the one system ``a`` of shape ``(m, m)``
    that many stacks share; for m <= 2 its entries are read as Python
    floats once, here, instead of once per call."""
    if a.shape[-1] <= 2:
        return partial(_solve_one, a.tolist())

    def solve(b: np.ndarray, out: np.ndarray) -> np.ndarray:
        out[...] = _solve_small(a, b)
        return out
    return solve


def _solve_linear(matrix: np.ndarray, delta: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The implicit steps of the linear drift ``b(y) = A y``: solve
    ``(I - delta A) y = c`` for every row of ``c``, shape ``(M, m)``, with
    the step of every row in ``delta``, shape ``(M, 1)``, by
    :func:`_solve_small`.  A singular system gives a NaN row."""
    system = np.eye(matrix.shape[0]) - delta[:, :, None] * matrix
    return _solve_small(system, c[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class StepResult:
    """Solution of one implicit step with its achieved residual norm."""

    y: np.ndarray
    residual: float
    iterations: int


def _bisect_scalar(g: Callable[[float], float], c: float,
                   tol: float) -> tuple[float, float] | None:
    """Sign-change bisection for the scalar step equation with residual
    ``g``.

    Expands the bracket around ``c`` geometrically, then bisects.  Returns
    ``(y, |residual|)`` on success, ``None`` if no bracket or no convergence.
    """
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


def _on_array(fn: Callable[[np.ndarray], np.ndarray], index: int | tuple[int, int],
              x: np.ndarray, y: float) -> float:
    """``fn`` at the state ``y``, evaluated on the one-element array ``x``."""
    x[0] = y
    return float(fn(x)[index])


class _ScalarStep:
    """The step equation in one dimension, solved on Python floats.

    Built once per run; :meth:`solve` runs the whole damped Newton of one
    step on local floats and makes no Python method call per residual.
    The norm is ``sqrt(r * r)``, as ``np.linalg.norm`` computes it, and
    the Newton update and a linear drift's direct solution are the
    divisions that the 1x1 LU solve and :func:`_solve_linear` compute, so
    every value has the bits of :meth:`_VectorStep.solve` on arrays.  The
    drift and its derivative, ``b`` and ``db``, are the spec's float pair
    if it has one, and else its array forms on one reused one-element
    array (see the module docstring); ``a`` is a linear drift's
    coefficient, else ``None``.
    """

    def __init__(self, spec: DriftSpec) -> None:
        self.eval = spec.eval
        if spec.on_float is not None:
            self.b, self.db = spec.on_float
        else:
            x = np.empty(1)
            self.b = partial(_on_array, spec.eval, 0, x)
            self.db = partial(_on_array, spec.jacobian, (0, 0), x)
        self.a = None if spec.matrix is None else float(spec.matrix[0, 0])

    def solve(self, delta: float, c: float, cfg: SolveConfig
              ) -> tuple[float, float, int, bool]:
        """Damped Newton for ``y - delta * b(y) = c``, taking the decisions
        of :meth:`_VectorStep.solve` in the same order and raising its
        errors.

        Starts at the direct solution ``c / (1 - delta a)`` of a linear
        drift, one iteration, if it is finite, and else at ``c`` or the
        explicit predictor ``c - r(c)`` when ``c`` is not within
        ``cfg.tol`` and the predictor's norm is smaller (a NaN norm never
        is, and a tie keeps ``c``)."""
        b, db, tol = self.b, self.db, cfg.tol
        y = c
        iterations = 0
        if self.a is not None:
            system = 1.0 - delta * self.a
            direct = c / system if system != 0.0 else math.nan
            if math.isfinite(direct):
                y, iterations = direct, 1
        res = y - delta * b(y) - c
        res_norm = math.sqrt(res * res)
        if not iterations and not res_norm <= tol:
            guess = y - res
            guess_res = guess - delta * b(guess) - c
            guess_norm = math.sqrt(guess_res * guess_res)
            if guess_norm < res_norm:
                y, res, res_norm = guess, guess_res, guess_norm
        while iterations < cfg.max_iter and not res_norm <= tol:
            system = 1.0 - delta * db(y)
            if system == 0.0:
                raise LinearSolveFailure(
                    f"singular Newton system at iterate with residual {res_norm:.3e}")
            update = -res / system
            if not math.isfinite(update):
                raise LinearSolveFailure("non-finite Newton update")
            iterations += 1
            scale = 1.0
            for _ in range(_MAX_HALVINGS + 1):
                cand = y + scale * update
                cand_res = cand - delta * b(cand) - c
                cand_norm = math.sqrt(cand_res * cand_res)
                if math.isfinite(cand_norm) and cand_norm < res_norm:
                    y, res, res_norm = cand, cand_res, cand_norm
                    break
                scale *= 0.5
            else:
                return y, res_norm, iterations, True
        return y, res_norm, iterations, False

    def explicit(self, y: float, a: float, inc: float) -> float:
        """``y + a * b(y) + inc``, in this order.  A non-finite sum is
        taken again on an array: of two NaN operands numpy keeps the
        first, while Python floats keep either, depending on whether the
        interpreter has specialized the operation yet, and diverging runs
        must keep numpy's bits.  A finite sum met no NaN, so floats give
        the array's bits."""
        c = y + a * self.b(y) + inc
        if math.isfinite(c):
            return c
        x = np.array([y])
        return float((x + a * self.eval(x) + inc)[0])

    finite = staticmethod(math.isfinite)

    @staticmethod
    def value(state: np.ndarray) -> float:
        return float(state[0])

    @staticmethod
    def rows(states: np.ndarray) -> list[float]:
        return states[:, 0].tolist()

    @staticmethod
    def state(y: float) -> np.ndarray:
        return np.array([y])

    @staticmethod
    def column(states: np.ndarray) -> memoryview:
        """The states ``(n + 1, 1)`` as a memoryview of their ``n + 1``
        floats: a float stored through it skips numpy's per-element
        assignment, and a row read from it is a float."""
        return memoryview(states.reshape(-1))


class _VectorStep:
    """The step equation in ``m >= 2`` dimensions, on arrays, with the
    Newton system and a linear step solved by :func:`_solve_small` as a
    stack of one.  Built once per run; ``matrix`` is a linear drift's
    ``A``, else ``None``."""

    def __init__(self, spec: DriftSpec) -> None:
        self.eval = spec.eval
        self.jacobian = spec.jacobian
        self.eye = np.eye(spec.dim)
        self.matrix = spec.matrix

    def solve(self, delta: float, c: np.ndarray, cfg: SolveConfig
              ) -> tuple[np.ndarray, float, int, bool]:
        """Damped Newton for ``y - delta * b(y) = c``, taking the decisions
        of :meth:`_ScalarStep.solve` on arrays, in the same order.

        Starts at the direct solution of a linear drift by
        :func:`_solve_linear`, one iteration, if it is finite, and else at
        ``c`` or the explicit predictor ``c - r(c)`` when ``c`` is not
        within ``cfg.tol`` and the predictor's norm is smaller (a NaN norm
        never is, and a tie keeps ``c``).  Stops once the residual norm is
        within ``cfg.tol``, halves each update up to ``_MAX_HALVINGS``
        times until the norm decreases, and stalls when no halving does.
        Returns the iterate, its residual norm, the Newton iterations and
        whether damping stalled; the solve converged exactly when the norm
        is within ``cfg.tol``.  No iterate is ever written in place.

        Raises:
            LinearSolveFailure: a Newton system was singular or gave a
                non-finite update.
        """
        b, jacobian, tol = self.eval, self.jacobian, cfg.tol
        y = c
        iterations = 0
        if self.matrix is not None:
            direct = _solve_linear(self.matrix, np.array([[delta]]), c[None])[0]
            if np.isfinite(direct).all():
                y, iterations = direct, 1
        res = y - delta * b(y) - c
        res_norm = float(np.linalg.norm(res))
        if not iterations and not res_norm <= tol:
            guess = y - res
            guess_res = guess - delta * b(guess) - c
            guess_norm = float(np.linalg.norm(guess_res))
            if guess_norm < res_norm:
                y, res, res_norm = guess, guess_res, guess_norm
        while iterations < cfg.max_iter and not res_norm <= tol:
            system = self.eye - delta * jacobian(y)
            if _small_det(system) == 0.0:
                raise LinearSolveFailure(
                    f"singular Newton system at iterate with residual {res_norm:.3e}")
            update = _solve_small(system[None], -res[None, :, None])[0, :, 0]
            if not np.isfinite(update).all():
                raise LinearSolveFailure("non-finite Newton update")
            iterations += 1
            scale = 1.0
            for _ in range(_MAX_HALVINGS + 1):
                cand = y + scale * update
                cand_res = cand - delta * b(cand) - c
                cand_norm = float(np.linalg.norm(cand_res))
                if math.isfinite(cand_norm) and cand_norm < res_norm:
                    y, res, res_norm = cand, cand_res, cand_norm
                    break
                scale *= 0.5
            else:
                return y, res_norm, iterations, True
        return y, res_norm, iterations, False

    def explicit(self, y: np.ndarray, a: float, inc: np.ndarray) -> np.ndarray:
        return y + a * self.eval(y) + inc

    @staticmethod
    def finite(update: np.ndarray) -> bool:
        return bool(np.isfinite(update).all())

    @staticmethod
    def value(state: np.ndarray) -> np.ndarray:
        return state

    @staticmethod
    def rows(states: np.ndarray) -> np.ndarray:
        return states

    @staticmethod
    def state(y: np.ndarray) -> np.ndarray:
        return y.copy()

    @staticmethod
    def column(states: np.ndarray) -> np.ndarray:
        return states


def _step_for(spec: DriftSpec) -> _ScalarStep | _VectorStep:
    """The step equation of ``spec``, built once per run."""
    return _ScalarStep(spec) if spec.dim == 1 else _VectorStep(spec)


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

    delta = float(delta)
    step = _step_for(spec)
    target = step.value(c)
    y, res_norm, iterations, stalled = step.solve(delta, target, cfg)
    if res_norm <= cfg.tol:
        return StepResult(y=step.state(y), residual=res_norm, iterations=iterations)

    if spec.dim == 1:
        got = _bisect_scalar(lambda x: x - delta * step.b(x) - target, target,
                             cfg.tol)
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
