"""Time-stepping schemes for additive-noise SDEs with rough driving paths.

The implicit (backward Euler) scheme is the workhorse: its step solves
``Y_{k+1} = Y_k + b(Y_{k+1}) dt + dB`` and stays well defined for any mesh
with ``kappa * dt`` below the solvability guard.  The explicit Euler and
trapezoidal schemes exist for comparison experiments; explicit Euler never
raises on blow-up because divergence is data for stability tables.

All schemes require every Hurst component of the driving path to exceed
one half; that is the regime where the drift-noise interplay the package
targets is defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .drifts import DriftSpec
from .errors import DomainError, NoConvergenceError, SolverError, StepTooLargeError
from .fbm import FbmPath
from .grids import Partition, nested_indices
from .solver import (
    _KAPPA_DELTA_LIMIT,
    DEFAULT_SOLVE_CONFIG,
    SolveConfig,
    solve_backward_step,
)

__all__ = [
    "Trajectory",
    "FundamentalMatrixPath",
    "backward_euler",
    "forward_euler",
    "crank_nicolson",
    "reference_solution",
    "interpolate_backward",
    "fundamental_matrix_reference",
    "fundamental_matrix_fb_euler",
]


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


def _check_inputs(spec: DriftSpec, noise: FbmPath, x0: np.ndarray) -> np.ndarray:
    if noise.dim != spec.dim:
        raise DomainError(
            f"noise has {noise.dim} coordinates but drift {spec.name!r} "
            f"expects {spec.dim}")
    if noise.hurst.min() <= 0.5:
        raise DomainError(
            f"integration requires every Hurst component above 1/2, "
            f"got minimum {noise.hurst.min()}")
    return spec.check_state(np.atleast_1d(np.asarray(x0, dtype=np.float64)))


def _check_step_guard(spec: DriftSpec, mesh: float, cfg: SolveConfig,
                      half_step: bool = False) -> None:
    effective = 0.5 * mesh if half_step else mesh
    if cfg.kappa_guard and spec.kappa > 0.0 \
            and spec.kappa * effective > _KAPPA_DELTA_LIMIT:
        raise StepTooLargeError(
            f"kappa * mesh = {spec.kappa * effective:.6g} exceeds the "
            f"{_KAPPA_DELTA_LIMIT} solvability guard")


def _attach_step(exc: SolverError, k: int) -> None:
    if exc.step is None:
        exc.step = k
        exc.args = (f"step {k}: {exc.args[0]}",)


def backward_euler(spec: DriftSpec, noise: FbmPath, x0: np.ndarray,
                   cfg: SolveConfig | None = None) -> Trajectory:
    """Implicit Euler along the sampled noise path.

    Solver failures are re-raised with the offending step index attached.
    """
    cfg = cfg or DEFAULT_SOLVE_CONFIG
    x0 = _check_inputs(spec, noise, x0)
    _check_step_guard(spec, noise.grid.mesh, cfg)
    times = noise.grid.times
    states = np.empty((times.size, spec.dim))
    states[0] = x0
    for k in range(times.size - 1):
        delta = times[k + 1] - times[k]
        c = states[k] + (noise.values[k + 1] - noise.values[k])
        try:
            step = solve_backward_step(spec, delta, c, cfg)
        except SolverError as exc:
            _attach_step(exc, k)
            raise
        states[k + 1] = step.y
    return Trajectory(grid=noise.grid, states=states, scheme="bem",
                      drift=spec.name, path_seed=noise.seed)


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
    x0 = _check_inputs(spec, noise, x0)
    times = noise.grid.times
    states = np.empty((times.size, spec.dim))
    states[0] = x0
    with np.errstate(all="ignore"):
        for k in range(times.size - 1):
            delta = times[k + 1] - times[k]
            b_k = np.asarray(spec.eval(states[k]), dtype=np.float64)
            states[k + 1] = states[k] + delta * b_k \
                + (noise.values[k + 1] - noise.values[k])
    return Trajectory(grid=noise.grid, states=states, scheme="em",
                      drift=spec.name, path_seed=noise.seed)


def crank_nicolson(spec: DriftSpec, noise: FbmPath, x0: np.ndarray,
                   cfg: SolveConfig | None = None,
                   stability_mode: bool = False) -> Trajectory:
    """Trapezoidal scheme: implicit in half the drift, explicit in the rest.

    With ``stability_mode`` the run records non-finite states once the
    explicit half overflows or the implicit half stops converging, instead
    of raising; stability tables need the diverging rows.
    """
    cfg = cfg or DEFAULT_SOLVE_CONFIG
    x0 = _check_inputs(spec, noise, x0)
    _check_step_guard(spec, noise.grid.mesh, cfg, half_step=True)
    times = noise.grid.times
    states = np.empty((times.size, spec.dim))
    states[0] = x0
    with np.errstate(all="ignore"):
        for k in range(times.size - 1):
            delta = times[k + 1] - times[k]
            b_k = np.asarray(spec.eval(states[k]), dtype=np.float64)
            c = states[k] + 0.5 * delta * b_k \
                + (noise.values[k + 1] - noise.values[k])
            if not np.all(np.isfinite(c)):
                if not stability_mode:
                    raise NoConvergenceError(
                        "explicit half produced a non-finite step target", step=k)
                states[k + 1] = c
                continue
            try:
                step = solve_backward_step(spec, 0.5 * delta, c, cfg)
            except SolverError as exc:
                if not stability_mode:
                    _attach_step(exc, k)
                    raise
                states[k + 1] = np.nan
                continue
            states[k + 1] = step.y
    return Trajectory(grid=noise.grid, states=states, scheme="cn",
                      drift=spec.name, path_seed=noise.seed)


def interpolate_backward(spec: DriftSpec, noise: FbmPath, traj: Trajectory,
                         t: float, cfg: SolveConfig | None = None) -> np.ndarray:
    """Value of the implicit scheme's continuous interpolant at time ``t``.

    The interpolant solves one backward step from the last trajectory node
    strictly before ``t``, using the noise increment of the master path,
    so it agrees with the trajectory at grid nodes.  ``t`` must be a node
    of the master (noise) grid.
    """
    cfg = cfg or DEFAULT_SOLVE_CONFIG
    if traj.dim != spec.dim or noise.dim != spec.dim:
        raise DomainError("drift, trajectory and noise dimensions must agree")
    t = float(t)
    if not 0.0 < t <= traj.grid.t_final:
        raise DomainError(f"t must lie in (0, {traj.grid.t_final}], got {t!r}")
    i_t = noise.grid.index_of(t)
    k_eta = int(np.searchsorted(traj.grid.times, t, side="left")) - 1
    eta = float(traj.grid.times[k_eta])
    i_eta = noise.grid.index_of(eta)
    c = traj.states[k_eta] + (noise.values[i_t] - noise.values[i_eta])
    try:
        step = solve_backward_step(spec, t - eta, c, cfg)
    except SolverError as exc:
        _attach_step(exc, k_eta)
        raise
    return step.y


def fundamental_matrix_reference(spec: DriftSpec, traj: Trajectory
                                 ) -> FundamentalMatrixPath:
    """Second-order flow of the linearization along a fine trajectory.

    Uses the trapezoidal (implicit midpoint in the Jacobian) update, whose
    determinant stays positive on meshes fine enough for the guard; a
    non-positive determinant means the mesh was too coarse and raises.
    """
    if traj.dim != spec.dim:
        raise DomainError("trajectory dimension does not match the drift")
    times = traj.grid.times
    m = spec.dim
    eye = np.eye(m)
    jacs = np.empty((times.size, m, m))
    for k in range(times.size):
        jacs[k] = np.asarray(spec.jacobian(traj.states[k]), dtype=np.float64)
    mats = np.empty((times.size, m, m))
    mats[0] = eye
    for k in range(times.size - 1):
        half = 0.5 * (times[k + 1] - times[k])
        try:
            mats[k + 1] = np.linalg.solve(eye - half * jacs[k + 1],
                                          (eye + half * jacs[k]) @ mats[k])
        except np.linalg.LinAlgError as exc:
            raise StepTooLargeError(
                f"linearization flow not solvable at step {k}; refine the mesh"
            ) from exc
    dets = np.linalg.det(mats)
    if np.any(dets <= 0.0):
        bad = int(np.argmax(dets <= 0.0))
        raise StepTooLargeError(
            f"linearization flow lost invertibility at step {bad}; refine the mesh")
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
    _check_step_guard(spec, coarse.mesh, DEFAULT_SOLVE_CONFIG)
    m = spec.dim
    eye = np.eye(m)
    mats = np.empty((coarse.times.size, m, m))
    mats[0] = eye
    for k in range(coarse.times.size - 1):
        delta = coarse.times[k + 1] - coarse.times[k]
        jac = np.asarray(spec.jacobian(traj.states[idx[k]]), dtype=np.float64)
        try:
            mats[k + 1] = np.linalg.solve(eye - delta * jac, mats[k])
        except np.linalg.LinAlgError as exc:
            raise StepTooLargeError(
                f"implicit linearization step {k} not solvable; refine the mesh"
            ) from exc
    return FundamentalMatrixPath(grid=coarse, matrices=mats,
                                 scheme="forward_backward")
