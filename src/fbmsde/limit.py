"""First-order error expansion of the implicit scheme.

The rescaled terminal error ``n * (X_t - Y^n_t)`` of the implicit scheme
converges, as the grid is refined, to the process

    U_t = (1/2) int_0^t Phi(t, s) (J_b b)(X_s) ds
        + (1/2) int_0^t Phi(t, s) J_b(X_s) dB_s,

where ``Phi(t, s)`` is the linearization flow along the exact solution and
``J_b`` the drift Jacobian.  :func:`compute_U_block` evaluates the
representation with left-point sums on a fine grid for a block of lanes at
once, and :func:`compute_U` is its one-lane call.  It multiplies the
flow's trapezoid step factors instead of storing the flow and inverting
it at every node: a linear drift's factors and their products are built
once for all lanes, and every other drift steps ``U`` node by node.
:func:`limit_check` compares ``n * (X - Y^n)`` against ``U`` in ``L^p``
over a Monte Carlo ensemble, one block of paths per call of the engine
and of :func:`compute_U_block`.

:func:`residual_grid` exposes the per-interval defect decomposition that
drives the expansion, for every interval of a coarse grid from one drift
evaluation over the trajectory: the raw defect ``R``, the quadratic drift
correction ``R1`` and the noise cross term ``R2`` cancel to higher order
when summed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

# The names marked F401 are not called here: tracing tools wrap
# map_indexed, sample_multi, backward_euler and fundamental_matrix_reference
# under them.
from .drifts import DriftSpec
from .engine import NoiseBlock, SolveStats, backward_euler_runs, name_path, sq_norms
from .errors import ConfigError, DomainError, GridError, StepTooLargeError
from .fbm import FbmPath, HurstVector, sample_multi  # noqa: F401
from .grids import Partition, nested_indices
from .harness import (
    Ensemble,
    _limit_issues,
    _limit_runs,
    _lp_norm_with_se,
    map_blocks,
)
from .harness import map_indexed  # noqa: F401
from .integrate import (  # noqa: F401
    FundamentalMatrixPath,
    Trajectory,
    _flow_failure,
    backward_euler,
    fundamental_matrix_reference,
)
from .solver import DEFAULT_SOLVE_CONFIG, _small_det, _solve_small

__all__ = [
    "ResidualGrid",
    "LimitComparison",
    "residual_grid",
    "compute_U_block",
    "compute_U",
    "limit_check",
]


@dataclass(frozen=True, eq=False)
class ResidualGrid:
    """Defect terms of every interval of a coarse grid: row ``k`` of each
    array, shape ``(n, m)``, holds the terms of interval ``k``."""

    r: np.ndarray = field(repr=False)
    r1: np.ndarray = field(repr=False)
    r2: np.ndarray = field(repr=False)
    rhat: np.ndarray = field(repr=False)


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


def _apply_rows(jac: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``jac[i] @ v[i]`` for every row ``i``, over the leading axes.

    numpy hands a matrix-vector product to BLAS, whose kernel, and with it
    the rounding, follows the layout of the matrix.  Each matrix is copied
    in the layout its one-state Jacobian has (column-major for the built-in
    nonlinear drifts, which build Jacobians column by column), so each row
    is bit-identical to ``spec.jacobian(x) @ v``.
    """
    if jac.strides[-2] < jac.strides[-1]:
        jac = np.ascontiguousarray(np.swapaxes(jac, -1, -2)).swapaxes(-1, -2)
    else:
        jac = np.ascontiguousarray(jac)
    return (jac @ v[..., None])[..., 0]


def _trapezoid_rows(d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.trapezoid`` of every row ``y[i]`` along its axis 0 with step
    widths ``d[i]``, computed as numpy computes it for one row."""
    return (d * (y[:, 1:] + y[:, :-1]) / 2.0).sum(axis=1)


def residual_grid(spec: DriftSpec, traj: Trajectory, noise: FbmPath,
                  coarse: Partition) -> ResidualGrid:
    """Defect decomposition of every coarse interval along a fine trajectory.

    ``traj`` and ``noise`` live on the fine grid and ``coarse`` must be
    nested in it.  The integrals are evaluated with the trapezoid rule on
    the fine nodes inside each interval; the drift is evaluated once, at
    every fine node.
    """
    if traj.dim != spec.dim or noise.dim != spec.dim:
        raise DomainError("drift, trajectory and noise dimensions must agree")
    _check_same_grid(traj.grid, noise.grid, "trajectory and noise")
    idx = nested_indices(coarse, traj.grid)
    starts, ends = idx[:-1], idx[1:]
    times = traj.grid.times
    drift = spec.eval(traj.states)
    r = np.empty((coarse.n_steps, spec.dim))
    tail = np.empty_like(r)
    lengths = ends - starts
    # One pass per interval length; a uniform coarse grid has one length.
    for length in np.unique(lengths):
        rows = np.flatnonzero(lengths == length)
        nodes = starts[rows, None] + np.arange(length + 1)
        d = np.diff(times[nodes], axis=1)[:, :, None]
        r[rows] = _trapezoid_rows(d, drift[nodes] - drift[nodes[:, -1:]])
        tail[rows] = _trapezoid_rows(
            d, noise.values[nodes[:, -1:]] - noise.values[nodes])
    jac = spec.jacobian(traj.states[starts])
    delta = times[ends] - times[starts]
    r1 = _apply_rows(jac, drift[starts]) * (delta * delta)[:, None] / 2.0
    r2 = _apply_rows(jac, tail)
    return ResidualGrid(r=r, r1=r1, r2=r2, rhat=r + r1 + r2)


# Nodes whose Jacobians one call evaluates in the recursion of a nonlinear
# drift: it bounds the block's stacks at (M, chunk + 1, m, m).
_NODE_CHUNK = 256


def _noise_forcing(spec: DriftSpec, times: np.ndarray, states: np.ndarray,
                   values: np.ndarray) -> np.ndarray:
    """``g_j = b(X_j) h_j + dB_j`` at every node ``j`` but the last of
    ``states`` and ``values``, both of shape ``(M, n + 1, m)`` on the grid
    nodes ``times``; shape ``(M, n, m)``."""
    lanes, nodes, m = states.shape
    forcing = spec.eval(states[:, :-1].reshape(-1, m)).reshape(lanes, nodes - 1, m) \
        * np.diff(times)[:, None]
    forcing += np.diff(values, axis=1)
    return forcing


def _linear_u(spec: DriftSpec, times: np.ndarray, states: np.ndarray,
              values: np.ndarray) -> np.ndarray:
    """``2 U`` for the linear drift ``b(x) = A x``: ``sum_j P_j A g_j``,
    with the flow's factors ``M_j`` and their suffix products
    ``P_j = M_{n-1} ... M_j`` built once for all lanes."""
    matrix, m = spec.matrix, spec.dim
    half = (0.5 * np.diff(times))[:, None, None]
    eye = np.eye(m)
    lhs, rhs = eye - half * matrix, eye + half * matrix
    exc = _flow_failure(_small_det(lhs)[None], _small_det(rhs)[None])
    if exc is not None:
        raise exc
    suffix = _solve_small(lhs, rhs)[::-1]
    if m == 1:
        suffix = np.cumprod(suffix, axis=0)
    else:
        for j in range(1, len(suffix)):
            suffix[j] = suffix[j - 1] @ suffix[j]
    weights = suffix[::-1] @ matrix
    forcing = _noise_forcing(spec, times, states, values)
    # terms[i, a, j] = (P_j A g_j)_a for lane i, summed over nodes along a
    # contiguous axis so the rounding of a lane does not depend on the block.
    terms = forcing[:, :, None, 0] * weights[:, :, 0]
    for b in range(1, m):
        terms += forcing[:, :, None, b] * weights[:, :, b]
    return np.ascontiguousarray(terms.swapaxes(1, 2)).sum(axis=-1)


def _nonlinear_u(spec: DriftSpec, times: np.ndarray, states: np.ndarray,
                 values: np.ndarray) -> np.ndarray:
    """``2 U`` by the recursion ``V_{k+1} = M_k (V_k + J_k g_k)``, with the
    flow's factors ``M_k`` built a chunk of nodes at a time."""
    lanes, nodes, m = states.shape
    eye = np.eye(m)
    det_lhs = np.empty((lanes, nodes - 1))
    det_rhs = np.empty_like(det_lhs)
    v = np.zeros((lanes, m, 1))
    for start in range(0, nodes - 1, _NODE_CHUNK):
        stop = min(start + _NODE_CHUNK, nodes - 1)
        part = slice(start, stop + 1)
        x = states[:, part]
        jac = spec.jacobian(x.reshape(-1, m)).reshape(lanes, -1, m, m)
        half = (0.5 * np.diff(times[part]))[:, None, None]
        lhs = eye - half * jac[:, 1:]
        rhs = eye + half * jac[:, :-1]
        det_lhs[:, start:stop] = _small_det(lhs)
        det_rhs[:, start:stop] = _small_det(rhs)
        factors = _solve_small(lhs, rhs)
        forcing = _apply_rows(jac[:, :-1], _noise_forcing(
            spec, times[part], x, values[:, part]))[..., None]
        for k in range(forcing.shape[1]):
            v = factors[:, k] @ (v + forcing[:, k])
    exc = _flow_failure(det_lhs, det_rhs)
    if exc is not None:
        raise exc
    return v[..., 0]


def compute_U_block(spec: DriftSpec, grid: Partition, states: np.ndarray,
                    values: np.ndarray, kt: int) -> np.ndarray:
    """The limit process at node ``kt`` of ``grid`` for every lane.

    ``states`` holds the fine trajectories, shape ``(M, n + 1, m)``, and
    ``values`` the noise, shape ``(M, n + 1, m)``.  Returns ``U``, shape
    ``(M, m)``: the left-point sum ``(1/2) sum_{j < kt} Phi(t_kt, t_j)
    J_j g_j`` with ``g_j = b(X_j) h_j + dB_j``.  The flow from ``t_j`` is
    the product ``M_{kt-1} ... M_j`` of the trapezoid factors ``M_k =
    (I - h_k/2 J_{k+1})^{-1} (I + h_k/2 J_k)``, so neither the flow nor an
    inverse of it is formed.  A linear drift's factors and their suffix
    products carry no lane axis and ``U`` is one contraction over the
    lanes; every other drift runs ``U_{k+1} = M_k (U_k + J_k g_k / 2)``.  No
    operation mixes lanes, so a lane's value does not depend on the block.

    Raises:
        StepTooLargeError: a step of the flow of some lane is not solvable,
            or the flow loses invertibility, as
            :func:`~fbmsde.integrate.fundamental_matrix_block` reports it;
            the lowest such lane is in ``path``.
    """
    lanes, _, m = states.shape
    if kt == 0:
        return np.zeros((lanes, m))
    times = grid.times[:kt + 1]
    states, values = states[:, :kt + 1], values[:, :kt + 1]
    # A singular or overflowing step gives non-finite lanes, not warnings.
    with np.errstate(all="ignore"):
        twice = (_nonlinear_u if spec.matrix is None else _linear_u)(
            spec, times, states, values)
    return 0.5 * twice


def compute_U(spec: DriftSpec, traj: Trajectory, phi: FundamentalMatrixPath,
              noise: FbmPath, t: float) -> np.ndarray:
    """Evaluate the limit process at ``t`` by left-point sums on the grid:
    the one-lane :func:`compute_U_block`.

    ``traj``, ``phi`` and ``noise`` must share one (fine) grid; ``t`` must
    be one of its nodes.  ``phi`` is checked, not read: the sums step the
    flow's factors themselves.  Returns a vector of shape ``(m,)``.
    """
    if traj.dim != spec.dim or noise.dim != spec.dim or phi.dim != spec.dim:
        raise DomainError("drift, trajectory, flow and noise dimensions must agree")
    _check_same_grid(traj.grid, noise.grid, "trajectory and noise")
    _check_same_grid(traj.grid, phi.grid, "trajectory and flow")
    kt = traj.grid.index_of(float(t))
    return compute_U_block(spec, traj.grid, traj.states[None],
                           noise.values[None], kt)[0]


def _limit_block(spec: DriftSpec, x0: np.ndarray, n_values: tuple[int, ...],
                 noise: NoiseBlock
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per lane: ``|n Z - U|`` and ``|n Z|`` for every ``n``, ``|U|``, and
    the solve counts of the runs (see :meth:`SolveStats.of`)."""
    grid = noise.grid
    (ref, *coarse), counts = backward_euler_runs(
        spec, noise, x0, _limit_runs(grid.n_steps, n_values), DEFAULT_SOLVE_CONFIG)
    rescaled = np.stack([float(n) * (ref[:, -1] - states[:, -1])
                         for n, states in zip(n_values, coarse)], axis=1)
    try:
        u_t = compute_U_block(spec, grid, ref, noise.values, grid.n_steps)
    except StepTooLargeError as exc:
        name_path(exc, noise, exc.path)
        raise
    return (np.sqrt(sq_norms(rescaled - u_t[:, None])),
            np.sqrt(sq_norms(rescaled)), np.sqrt(sq_norms(u_t)), counts)


def limit_check(spec: DriftSpec, x0: np.ndarray, hurst: float | HurstVector,
                t: float, n_values: tuple[int, ...], mc_paths: int, seed: int,
                p: float = 1.0, master_factor: int = 8, threads: int = 1
                ) -> tuple[LimitComparison, SolveStats]:
    """Monte Carlo comparison of ``n Z`` against the limit process.

    For each path one fine reference run provides both the surrogate for
    the exact solution and the evaluation of ``U``; coarse runs reuse the
    restricted noise.  The master grid has ``master_factor * max(n_values)``
    steps.  Returns the comparison and the counts of the implicit solves
    of all runs, which do not depend on ``threads``.  The settings are
    checked as :func:`~fbmsde.harness.validate_limit_config` checks them,
    with the same messages, before ``t = 0`` returns zeros.

    Raises:
        DomainError: if ``p`` is outside ``[1, 2)``.
        ConfigError: listing every other issue of the settings, such as an
            ``n`` that does not divide the master step count.
    """
    n_values = tuple(int(n) for n in n_values)
    issues = _limit_issues(n_values, p, mc_paths, master_factor, threads)
    for setting, issue in issues:
        if setting == "p":
            raise DomainError(issue)
    if issues:
        raise ConfigError([issue for _, issue in issues])
    zeros = np.zeros(len(n_values))
    if t == 0.0:
        return (LimitComparison(n_values=n_values, lp_distances=zeros.copy(), p=p,
                                stderrs=zeros.copy(), mean_abs_nz=zeros.copy(),
                                mean_abs_u=zeros.copy()),
                SolveStats())
    if isinstance(hurst, (int, float)):
        hurst = HurstVector.constant(float(hurst), spec.dim)

    run = partial(_limit_block, spec, np.atleast_1d(np.asarray(x0, dtype=np.float64)),
                  n_values)
    ensemble = Ensemble(grid=Partition.uniform(float(t), master_factor * max(n_values)),
                        hursts=(hurst,), paths=mc_paths, seed=int(seed))
    blocks = map_blocks(run, ensemble, threads)
    dists, nz, u_norms, counts = (np.concatenate([b[i] for b in blocks])
                                  for i in range(4))

    lp, stderrs = _lp_norm_with_se(dists**p, p)
    comparison = LimitComparison(
        n_values=n_values,
        lp_distances=lp,
        p=p,
        stderrs=stderrs,
        mean_abs_nz=nz.mean(axis=0),
        mean_abs_u=np.full(len(n_values), float(u_norms.mean())),
    )
    return comparison, SolveStats.of(counts)
