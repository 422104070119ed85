"""First-order error expansion of the implicit scheme.

The rescaled terminal error ``n * (X_t - Y^n_t)`` of the implicit scheme
converges, as the grid is refined, to the process

    U_t = (1/2) int_0^t Phi(t, s) (J_b b)(X_s) ds
        + (1/2) int_0^t Phi(t, s) J_b(X_s) dB_s,

where ``Phi(t, s)`` is the linearization flow along the exact solution and
``J_b`` the drift Jacobian.  :func:`compute_U` evaluates the representation
with left-point sums on a fine grid, :func:`solve_U_ode` integrates the
equivalent linear equation step by step, and :func:`limit_check` compares
``n * (X - Y^n)`` against ``U`` in ``L^p`` over a Monte Carlo ensemble.

:func:`residual_bundle` exposes the per-interval defect decomposition that
drives the expansion: the raw defect ``R``, the quadratic drift correction
``R1`` and the noise cross term ``R2`` cancel to higher order when summed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ._parallel import map_indexed
from .drifts import DriftSpec
from .engine import (
    NoiseBlock,
    backward_euler_block,
    block_count,
    block_range,
    block_size,
    lowest_failure,
)
from .errors import ConfigError, DomainError, GridError
from .fbm import FbmPath, HurstVector, child_seed, sample_multi
from .grids import Partition, nested_indices
from .integrate import (  # noqa: F401  backward_euler is looked up by name here
    FundamentalMatrixPath,
    Trajectory,
    backward_euler,
    fundamental_matrix_reference,
)
from .solver import SolveConfig

__all__ = [
    "ResidualBundle",
    "LimitComparison",
    "residual_bundle",
    "compute_U",
    "solve_U_ode",
    "limit_check",
]


@dataclass(frozen=True, eq=False)
class ResidualBundle:
    """Defect terms of coarse interval ``k``; all vectors of shape ``(m,)``.

    ``rhat = r + r1 + r2`` is the compensated defect, smaller than the
    individual terms by one power of the mesh and more.
    """

    k: int
    r: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    rhat: np.ndarray


@dataclass(frozen=True, eq=False)
class LimitComparison:
    """Distance between the rescaled scheme error and its limit process.

    ``lp_distances[i]`` estimates ``E[ |n_i Z - U|^p ]^{1/p}`` at the
    terminal time, with ``Z`` the coarse-scheme error and ``U`` evaluated
    from the fine reference run of the same noise realization.
    """

    n_values: tuple[int, ...]
    lp_distances: np.ndarray = field(repr=False)
    p: float
    stderrs: np.ndarray = field(repr=False)
    mean_abs_nz: np.ndarray = field(repr=False)
    mean_abs_u: np.ndarray = field(repr=False)


def _check_same_grid(a: Partition, b: Partition, what: str) -> None:
    if a != b:
        raise GridError(f"{what} must share one grid")


def residual_bundle(spec: DriftSpec, traj: Trajectory, noise: FbmPath,
                    coarse: Partition, k: int) -> ResidualBundle:
    """Defect decomposition of coarse interval ``k`` along a fine trajectory.

    ``traj`` and ``noise`` live on the fine grid and ``coarse`` must be
    nested in it.  The integrals are evaluated with the trapezoid rule on
    the fine nodes inside the interval.
    """
    if traj.dim != spec.dim or noise.dim != spec.dim:
        raise DomainError("drift, trajectory and noise dimensions must agree")
    _check_same_grid(traj.grid, noise.grid, "trajectory and noise")
    idx = nested_indices(coarse, traj.grid)
    if not 0 <= k < coarse.n_steps:
        raise DomainError(f"interval index {k} outside 0..{coarse.n_steps - 1}")
    i0, i1 = int(idx[k]), int(idx[k + 1])
    seg_times = traj.grid.times[i0:i1 + 1]
    delta = float(seg_times[-1] - seg_times[0])

    b_seg = np.stack([np.asarray(spec.eval(traj.states[j]), dtype=np.float64)
                      for j in range(i0, i1 + 1)])
    r = np.trapezoid(b_seg - b_seg[-1], x=seg_times, axis=0)
    r1 = spec.drift_drift_product(traj.states[i0]) * (delta**2) / 2.0
    tail = noise.values[i1] - noise.values[i0:i1 + 1]
    r2 = np.asarray(spec.jacobian(traj.states[i0]), dtype=np.float64) \
        @ np.trapezoid(tail, x=seg_times, axis=0)
    return ResidualBundle(k=k, r=r, r1=r1, r2=r2, rhat=r + r1 + r2)


def compute_U(spec: DriftSpec, traj: Trajectory, phi: FundamentalMatrixPath,
              noise: FbmPath, t: float) -> np.ndarray:
    """Evaluate the limit process at ``t`` by left-point sums on the grid.

    ``traj``, ``phi`` and ``noise`` must share one (fine) grid; ``t`` must
    be one of its nodes.  Returns a vector of shape ``(m,)``.
    """
    if traj.dim != spec.dim or noise.dim != spec.dim or phi.dim != spec.dim:
        raise DomainError("drift, trajectory, flow and noise dimensions must agree")
    _check_same_grid(traj.grid, noise.grid, "trajectory and noise")
    _check_same_grid(traj.grid, phi.grid, "trajectory and flow")
    kt = traj.grid.index_of(float(t))
    if kt == 0:
        return np.zeros(spec.dim)

    times = traj.grid.times
    m = spec.dim
    jacs = np.empty((kt, m, m))
    forcing = np.empty((kt, m))
    for j in range(kt):
        x_j = traj.states[j]
        jac_j = np.asarray(spec.jacobian(x_j), dtype=np.float64)
        jacs[j] = jac_j
        dt_j = times[j + 1] - times[j]
        db_j = noise.values[j + 1] - noise.values[j]
        forcing[j] = jac_j @ (np.asarray(spec.eval(x_j), dtype=np.float64) * dt_j
                              + db_j)
    # Phi(t, s) = phi_t phi_s^{-1}; solve phi_s^T X^T = phi_t^T in one batch.
    phi_t = phi.matrices[kt]
    lhs = np.transpose(phi.matrices[:kt], (0, 2, 1))
    rhs = np.broadcast_to(phi_t.T, (kt, m, m))
    flows = np.transpose(np.linalg.solve(lhs, rhs), (0, 2, 1))
    return 0.5 * np.einsum("jab,jb->a", flows, forcing)


def solve_U_ode(spec: DriftSpec, traj: Trajectory, noise: FbmPath) -> Trajectory:
    """Integrate the linear equation for the limit process along ``traj``.

    The drift part ``J_b(X) U + (1/2)(J_b b)(X)`` is taken implicitly at the
    right node, the noise term ``(1/2) J_b(X) dB`` explicitly at the left
    node, matching the sums in :func:`compute_U` to first order.
    """
    if traj.dim != spec.dim or noise.dim != spec.dim:
        raise DomainError("drift, trajectory and noise dimensions must agree")
    _check_same_grid(traj.grid, noise.grid, "trajectory and noise")
    times = traj.grid.times
    m = spec.dim
    eye = np.eye(m)
    states = np.zeros((times.size, m))
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        db = noise.values[k + 1] - noise.values[k]
        jac_left = np.asarray(spec.jacobian(traj.states[k]), dtype=np.float64)
        jac_right = np.asarray(spec.jacobian(traj.states[k + 1]), dtype=np.float64)
        forcing = states[k] \
            + 0.5 * spec.drift_drift_product(traj.states[k + 1]) * dt \
            + 0.5 * (jac_left @ db)
        states[k + 1] = np.linalg.solve(eye - dt * jac_right, forcing)
    return Trajectory(grid=traj.grid, states=states, scheme="error_sde",
                      drift=spec.name, path_seed=noise.seed)


def _limit_block_worker(payload: dict, block: int) -> list[tuple]:
    grid = Partition.uniform(payload["t"], payload["master_n"])
    indices = block_range(block, payload["paths"], payload["block_size"])
    noise = NoiseBlock.stack([sample_multi(grid, payload["hurst"],
                                           child_seed(payload["seed"], i),
                                           method=payload["sampler"])
                              for i in indices], indices.start)
    return lowest_failure(partial(_limit_block, payload), noise)


def _limit_block(payload: dict, noise: NoiseBlock) -> list[tuple]:
    spec: DriftSpec = payload["spec"]
    x0, t, n_values = payload["x0"], payload["t"], payload["n_values"]
    grid = noise.grid
    cfg = SolveConfig(tol=payload["tol"])
    ref, _ = backward_euler_block(spec, noise, x0, cfg)
    terminal = [backward_euler_block(spec, noise, x0, cfg,
                                     payload["master_n"] // n)[0][:, -1]
                for n in n_values]
    rows = []
    for lane in range(noise.values.shape[0]):
        path = noise.path(lane)
        traj = Trajectory(grid=grid, states=ref[lane], scheme="bem",
                          drift=spec.name, path_seed=path.seed)
        phi = fundamental_matrix_reference(spec, traj)
        u_t = compute_U(spec, traj, phi, path, t)
        dists = np.empty(len(n_values))
        nz_norms = np.empty(len(n_values))
        for i, n in enumerate(n_values):
            rescale = float(n) * (ref[lane, -1] - terminal[i][lane])
            dists[i] = float(np.linalg.norm(rescale - u_t))
            nz_norms[i] = float(np.linalg.norm(rescale))
        rows.append((dists, nz_norms, float(np.linalg.norm(u_t))))
    return rows


def limit_check(spec: DriftSpec, x0: np.ndarray, hurst: float | HurstVector,
                t: float, n_values: tuple[int, ...], mc_paths: int, seed: int,
                p: float = 1.0, master_factor: int = 8, threads: int = 1,
                sampler: str = "circulant", tol: float = 1e-12) -> LimitComparison:
    """Monte Carlo comparison of ``n Z`` against the limit process.

    For each path one fine reference run provides both the surrogate for
    the exact solution and the evaluation of ``U``; coarse runs reuse the
    restricted noise.  The master grid has ``master_factor * max(n_values)``
    steps.

    Raises:
        DomainError: if ``p`` is outside ``[1, 2)``.
        ConfigError: if some ``n`` does not divide the master step count.
    """
    if not 1.0 <= p < 2.0:
        raise DomainError(f"p must lie in [1, 2), got {p!r}")
    n_values = tuple(int(n) for n in n_values)
    if len(n_values) == 0 or any(n < 1 for n in n_values):
        raise ConfigError("n_values must be a nonempty list of positive integers")
    if mc_paths < 1:
        raise ConfigError(f"mc_paths must be >= 1, got {mc_paths}")
    zeros = np.zeros(len(n_values))
    if t == 0.0:
        return LimitComparison(n_values=n_values, lp_distances=zeros.copy(), p=p,
                               stderrs=zeros.copy(), mean_abs_nz=zeros.copy(),
                               mean_abs_u=zeros.copy())
    if master_factor < 2:
        raise ConfigError("master_factor must be >= 2 so the reference is finer")
    if isinstance(hurst, (int, float)):
        hurst = HurstVector.constant(float(hurst), spec.dim)
    master_n = master_factor * max(n_values)
    issues = [f"n = {n} does not divide the master step count {master_n}"
              for n in n_values if master_n % n != 0]
    if issues:
        raise ConfigError(issues)

    payload = {
        "spec": spec,
        "x0": np.atleast_1d(np.asarray(x0, dtype=np.float64)),
        "hurst": hurst,
        "t": float(t),
        "n_values": n_values,
        "master_n": master_n,
        "paths": mc_paths,
        "block_size": block_size(mc_paths, threads),
        "seed": int(seed),
        "sampler": sampler,
        "tol": float(tol),
    }
    rows = [row for block in map_indexed(
                _limit_block_worker, payload,
                block_count(mc_paths, payload["block_size"]), threads)
            for row in block]
    dists = np.stack([row[0] for row in rows])
    nz = np.stack([row[1] for row in rows])
    u_norms = np.array([row[2] for row in rows])

    powered = dists**p
    mean_pow = powered.mean(axis=0)
    lp = mean_pow ** (1.0 / p)
    if mc_paths > 1:
        se_pow = powered.std(axis=0, ddof=1) / np.sqrt(mc_paths)
    else:
        se_pow = np.zeros_like(mean_pow)
    # Delta method for x -> x^{1/p}; zero distances give zero stderr.
    safe = np.where(lp > 0.0, lp, 1.0)
    stderrs = np.where(lp > 0.0, se_pow / (p * safe ** (p - 1.0)), 0.0)
    return LimitComparison(
        n_values=n_values,
        lp_distances=lp,
        p=p,
        stderrs=stderrs,
        mean_abs_nz=nz.mean(axis=0),
        mean_abs_u=np.full(len(n_values), float(u_norms.mean())),
    )
