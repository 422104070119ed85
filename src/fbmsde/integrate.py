"""Time-stepping schemes for additive-noise SDEs with rough driving paths.

The implicit (backward Euler) scheme is the workhorse: its step solves
``Y_{k+1} = Y_k + b(Y_{k+1}) dt + dB`` and stays well defined for any mesh
with ``kappa * dt`` below the solvability guard.  The explicit Euler and
trapezoidal schemes exist for comparison experiments; explicit Euler never
raises on blow-up because divergence is data for stability tables.

All three run one θ-method loop (:data:`THETA`); Monte Carlo blocks take
the same step in :func:`fbmsde.engine.backward_euler_block`.

The linearization flow along the reference scheme is written once, over a
block of lanes (:func:`fundamental_matrix_block`): one Jacobian evaluation
over all lanes and nodes, then one stacked solve per node, a division in
one dimension and Cramer's rule in two.  The
single-trajectory :func:`fundamental_matrix_reference` is its one-lane call.
The stored flow is the oracle of the first-order flow approximation
:func:`fundamental_matrix_fb_euler`; the limit process
(:func:`fbmsde.limit.compute_U_block`) multiplies the same step factors
without storing it, and both report a failing flow by :func:`_flow_failure`.

All schemes require every Hurst component of the driving path to exceed
one half; that is the regime where the drift-noise interplay the package
targets is defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .drifts import DriftSpec
from .errors import (
    DomainError,
    LinearSolveFailure,
    NoConvergenceError,
    SolverError,
    StepTooLargeError,
)
from .fbm import FbmPath, HurstVector
from .grids import Partition, nested_indices
from .solver import (
    DEFAULT_SOLVE_CONFIG,
    SolveConfig,
    _check_step_guard,
    _small_det,
    _solve_small,
    _step_for,
    solve_backward_step,
)

__all__ = [
    "THETA",
    "Trajectory",
    "FundamentalMatrixPath",
    "backward_euler",
    "forward_euler",
    "crank_nicolson",
    "reference_solution",
    "fundamental_matrix_block",
    "fundamental_matrix_reference",
    "fundamental_matrix_fb_euler",
]

# Scheme labels and their θ in ``y - θδ b(y) = y_k + (1 - θ)δ b(y_k) + ΔB``,
# the stochastic θ-method (Higham 2000).
THETA = {"bem": 1.0, "em": 0.0, "cn": 0.5}


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States of one scheme run on a grid; row ``k`` is the state at ``t_k``.

    ``states`` may contain non-finite entries for schemes that record
    divergence instead of raising.
    """

    grid: Partition
    states: np.ndarray = field(repr=False)
    scheme: str
    drift: str
    path_seed: int

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=np.float64)
        if states.ndim != 2 or states.shape[0] != self.grid.times.size:
            raise DomainError(
                f"states must have shape (n_steps + 1, dim), got {states.shape}")
        states = states.copy()
        states.flags.writeable = False
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True, eq=False)
class FundamentalMatrixPath:
    """Linearization flow matrices along a trajectory, ``matrices[k]`` at ``t_k``."""

    grid: Partition
    matrices: np.ndarray = field(repr=False)
    scheme: str

    def __post_init__(self) -> None:
        if self.scheme not in ("reference", "forward_backward"):
            raise DomainError(f"unknown fundamental-matrix scheme {self.scheme!r}")
        mats = np.asarray(self.matrices, dtype=np.float64)
        if mats.ndim != 3 or mats.shape[0] != self.grid.times.size \
                or mats.shape[1] != mats.shape[2]:
            raise DomainError(
                f"matrices must have shape (n_steps + 1, m, m), got {mats.shape}")
        mats = mats.copy()
        mats.flags.writeable = False
        object.__setattr__(self, "matrices", mats)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]


def _check_inputs(spec: DriftSpec, dim: int, hursts: Iterable[HurstVector],
                  x0: np.ndarray) -> np.ndarray:
    """Check noise of ``dim`` coordinates with the Hurst vectors ``hursts``
    and the start ``x0``; returns ``x0`` as a state."""
    if dim != spec.dim:
        raise DomainError(
            f"noise has {dim} coordinates but drift {spec.name!r} "
            f"expects {spec.dim}")
    lowest = min(h.min() for h in hursts)
    if lowest <= 0.5:
        raise DomainError(
            f"integration requires every Hurst component above 1/2, "
            f"got minimum {lowest}")
    x0 = spec.check_state(np.atleast_1d(np.asarray(x0, dtype=np.float64)))
    if not np.all(np.isfinite(x0)):
        raise DomainError(f"start x0 must be finite, got {x0.tolist()}")
    return x0


def _attach_step(exc: SolverError, k: int) -> None:
    if exc.step is None:
        exc.step = k
        exc.args = (f"step {k}: {exc.args[0]}",)


def _explicit_overflow(k: int) -> NoConvergenceError:
    return NoConvergenceError("explicit half produced a non-finite step target", step=k)


def _theta_method(scheme: str, spec: DriftSpec, noise: FbmPath, x0: np.ndarray,
                  cfg: SolveConfig, stability_mode: bool = False) -> Trajectory:
    """The θ-method of ``scheme``; θ = 1 evaluates no drift at the left
    node and θ = 0 solves nothing.  ``stability_mode`` records a non-finite
    target or a solver failure as non-finite states instead of raising.

    One step object serves the whole run and solves each implicit step in
    one ``solve`` call; in one dimension the state, the target and the
    increments are Python floats, and the states are stored through a
    memoryview (``step.column``).  A step that is not a plain converged
    Newton solve (a non-finite target, a stall, ``max_iter``, a singular
    or non-finite update) is solved again from the same target by
    :func:`solve_backward_step`, which brings the bisection rescue and
    the errors with it, as the engine's rows do.  The guard on θ times
    the largest step covers every step."""
    theta = THETA[scheme]
    x0 = _check_inputs(spec, noise.dim, (noise.hurst,), x0)
    _check_step_guard(spec, theta * noise.grid.mesh)
    step = _step_for(spec)
    states = np.empty((noise.grid.times.size, spec.dim))
    states[0] = x0
    column = step.column(states)
    y = step.value(x0)
    with np.errstate(all="ignore"):
        deltas = np.diff(noise.grid.times).tolist()
        increments = step.rows(np.diff(noise.values, axis=0))
        for k, delta in enumerate(deltas):
            if theta < 1.0:
                c = step.explicit(y, (1.0 - theta) * delta, increments[k])
            else:
                c = y + increments[k]
            if theta == 0.0:
                column[k + 1] = y = c
                continue
            if theta < 1.0 and not step.finite(c):
                if not stability_mode:
                    raise _explicit_overflow(k)
                column[k + 1] = y = c
                continue
            if step.finite(c):
                try:
                    y, res_norm, _, _ = step.solve(theta * delta, c, cfg)
                except LinearSolveFailure:
                    res_norm = math.nan
                if res_norm <= cfg.tol:
                    column[k + 1] = y
                    continue
            try:
                column[k + 1] = step.value(solve_backward_step(
                    spec, theta * delta, step.state(c), cfg).y)
            except SolverError as exc:
                if not stability_mode:
                    _attach_step(exc, k)
                    raise
                column[k + 1] = math.nan
            y = column[k + 1]
    return Trajectory(grid=noise.grid, states=states, scheme=scheme,
                      drift=spec.name, path_seed=noise.seed)


def backward_euler(spec: DriftSpec, noise: FbmPath, x0: np.ndarray,
                   cfg: SolveConfig | None = None) -> Trajectory:
    """Implicit Euler along the sampled noise path.

    Solver failures are re-raised with the offending step index attached.
    """
    return _theta_method("bem", spec, noise, x0, cfg or DEFAULT_SOLVE_CONFIG)


def reference_solution(spec: DriftSpec, noise: FbmPath, x0: np.ndarray,
                       cfg: SolveConfig | None = None) -> Trajectory:
    """Implicit Euler on a fine master grid, labelled as the reference run.

    Comparison runs on coarser grids must use restrictions of the same
    noise path so that errors measure the scheme, not the noise.
    """
    traj = backward_euler(spec, noise, x0, cfg)
    return replace(traj, scheme="reference")


def forward_euler(spec: DriftSpec, noise: FbmPath, x0: np.ndarray) -> Trajectory:
    """Explicit Euler.  Overflow and NaN are recorded, never raised."""
    return _theta_method("em", spec, noise, x0, DEFAULT_SOLVE_CONFIG)


def crank_nicolson(spec: DriftSpec, noise: FbmPath, x0: np.ndarray,
                   cfg: SolveConfig | None = None,
                   stability_mode: bool = False) -> Trajectory:
    """Trapezoidal scheme: implicit in half the drift, explicit in the rest.

    With ``stability_mode`` the run records non-finite states once the
    explicit half overflows or the implicit half stops converging, instead
    of raising; stability tables need the diverging rows.
    """
    return _theta_method("cn", spec, noise, x0, cfg or DEFAULT_SOLVE_CONFIG,
                         stability_mode)


def _flow_failure(det_lhs: np.ndarray, det_rhs: np.ndarray
                  ) -> StepTooLargeError | None:
    """The error of the lowest lane whose trapezoid flow fails, or ``None``.

    Step ``k`` of lane ``i`` maps the flow by ``(I - h_k/2 J_{k+1})^{-1}
    (I + h_k/2 J_k)``; ``det_lhs[i, k]`` and ``det_rhs[i, k]`` are the
    determinants of its two factors, shape ``(M, n)``.  A step is not
    solvable when its left factor is singular or either determinant is not
    finite.  The flow loses invertibility at the first node where the sign
    of ``det phi``, the running product of the factors' signs, is not
    positive: a determinant too small for a float still has its sign.  A
    lane with a step that is not solvable reports that step; the lane
    index is in ``path``.
    """
    steps = det_lhs.shape[1]
    solvable = np.isfinite(det_lhs) & np.isfinite(det_rhs) & (det_lhs != 0.0)
    # A non-finite determinant makes the running sign NaN, which compares
    # false, from its step on.
    lost = np.cumprod(np.sign(det_lhs) * np.sign(det_rhs), axis=1) <= 0.0
    singular = np.where(solvable.all(axis=1), steps, np.argmin(solvable, axis=1))
    failed = (singular < steps) | lost.any(axis=1)
    if not failed.any():
        return None
    lane = int(np.argmax(failed))
    if singular[lane] < steps:
        exc = StepTooLargeError(f"linearization flow not solvable at step "
                                f"{singular[lane]}; refine the mesh")
    else:
        exc = StepTooLargeError(f"linearization flow lost invertibility at step "
                                f"{int(np.argmax(lost[lane])) + 1}; refine the mesh")
    exc.path = lane
    return exc


def fundamental_matrix_block(spec: DriftSpec, grid: Partition,
                             states: np.ndarray) -> np.ndarray:
    """Second-order flow of the linearization along every lane of ``states``.

    ``states`` holds fine trajectories on ``grid``, shape ``(M, n + 1, m)``;
    the result holds their flow matrices, shape ``(M, n + 1, m, m)``.  Uses
    the trapezoidal (implicit midpoint in the Jacobian) update, whose
    determinant stays positive on meshes fine enough for the guard.  All
    Jacobians come from one ``jacobian`` call and each node takes one
    stacked :func:`~fbmsde.solver._solve_small`, so a lane's matrices do
    not depend on the other lanes.

    Raises:
        StepTooLargeError: a step of some lane is not solvable, or its flow
            loses invertibility: the mesh was too coarse.  The error is that
            of the lowest such lane (:func:`_flow_failure`), whose index is
            in ``path``.
    """
    lanes, nodes, m = states.shape
    if m != spec.dim:
        raise DomainError("trajectory dimension does not match the drift")
    jacs = spec.jacobian(states.reshape(-1, m)).reshape(lanes, nodes, m, m)
    half = (0.5 * np.diff(grid.times))[:, None, None]
    eye = np.eye(m)
    lhs = eye - half * jacs[:, 1:]
    rhs = eye + half * jacs[:, :-1]
    with np.errstate(all="ignore"):
        exc = _flow_failure(_small_det(lhs), _small_det(rhs))
        if exc is not None:
            raise exc
        mats = np.empty((lanes, nodes, m, m))
        mats[:, 0] = eye
        for k in range(nodes - 1):
            mats[:, k + 1] = _solve_small(lhs[:, k], rhs[:, k] @ mats[:, k])
    return mats


def fundamental_matrix_reference(spec: DriftSpec, traj: Trajectory
                                 ) -> FundamentalMatrixPath:
    """Second-order flow of the linearization along one fine trajectory:
    the one-lane :func:`fundamental_matrix_block`."""
    mats = fundamental_matrix_block(spec, traj.grid, traj.states[None])[0]
    return FundamentalMatrixPath(grid=traj.grid, matrices=mats, scheme="reference")


def fundamental_matrix_fb_euler(spec: DriftSpec, traj: Trajectory,
                                coarse: Partition) -> FundamentalMatrixPath:
    """First-order flow approximation on a coarse grid nested in ``traj``.

    Each step solves ``(I - dt * J(X_{t_k})) phi_{k+1} = phi_k`` with the
    Jacobian frozen at the left node of the fine trajectory.
    """
    if traj.dim != spec.dim:
        raise DomainError("trajectory dimension does not match the drift")
    idx = nested_indices(coarse, traj.grid)
    _check_step_guard(spec, coarse.mesh)
    m = spec.dim
    eye = np.eye(m)
    mats = np.empty((coarse.times.size, m, m))
    mats[0] = eye
    for k in range(coarse.times.size - 1):
        delta = coarse.times[k + 1] - coarse.times[k]
        jac = spec.jacobian(traj.states[idx[k]])
        try:
            mats[k + 1] = np.linalg.solve(eye - delta * jac, mats[k])
        except np.linalg.LinAlgError as exc:
            raise StepTooLargeError(
                f"implicit linearization step {k} not solvable; refine the mesh"
            ) from exc
    return FundamentalMatrixPath(grid=coarse, matrices=mats,
                                 scheme="forward_backward")
