"""Path-batched θ-method stepping for Monte Carlo blocks.

A block is ``M`` noise paths on one master grid, stacked into a tensor of
shape ``(M, n + 1, d)``; lane ``j`` holds the path of Monte Carlo index
``first + j``.  :func:`backward_euler_block` advances all lanes of a block
together by one θ-method step of :data:`fbmsde.integrate.THETA`, with one
batched damped-Newton solve per grid step, and a nested coarse run reuses
``values[:, ::ratio]``.

Every Newton decision is taken per lane: stopping, each halving of the
update, the iteration count and the stall.  A lane's result therefore
depends on its own path alone, never on its batchmates or the block size.
A lane that stalls, reaches ``max_iter``, or gets a singular or non-finite
Newton update is solved again from the same target by the scalar
:func:`~fbmsde.solver.solve_backward_step`, which brings the scalar
bisection rescue and the scalar errors with it.  :func:`lowest_failure`
turns the error of a failing block into that of its lowest failing path,
so which path a failure names does not depend on the blocks either.

Single paths stay on the scalar integrators of :mod:`fbmsde.integrate`:
with one lane a batched step costs more than a scalar solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from .drifts import DriftSpec
from .errors import SolverError
from .fbm import FbmPath, HurstVector
from .grids import Partition
from .integrate import _attach_step, _check_inputs, _explicit_overflow
from .solver import (
    _MAX_HALVINGS,
    DEFAULT_SOLVE_CONFIG,
    SolveConfig,
    _check_step_guard,
    solve_backward_step,
)

__all__ = ["BLOCK_PATHS", "NoiseBlock", "SolveStats", "backward_euler_block",
           "block_count", "block_range", "block_size", "lowest_failure",
           "name_path", "sq_norms"]

T = TypeVar("T")

# Most lanes per block.  Lane results do not depend on the block size; the
# cap bounds the size of the block tensors.
BLOCK_PATHS = 64


def block_size(paths: int, threads: int = 1) -> int:
    """Lanes per block: enough blocks for every worker, at most
    :data:`BLOCK_PATHS` lanes each."""
    return max(1, min(BLOCK_PATHS, -(-paths // max(1, threads))))


def block_count(paths: int, size: int) -> int:
    """Number of blocks of ``size`` lanes that cover ``paths`` paths."""
    return -(-paths // size)


def block_range(block: int, paths: int, size: int) -> range:
    """Monte Carlo path indices of block number ``block``."""
    start = block * size
    return range(start, min(start + size, paths))


@dataclass(frozen=True)
class SolveStats:
    """Deterministic counts of the implicit solves of one or more runs.

    ``newton_iterations`` sums the batched Newton iterations over all lane
    steps and ``max_iterations`` is the most any one lane step took;
    ``halvings`` counts rejected damped updates, each followed by halving
    the step; ``fallbacks`` counts lane steps re-solved by the scalar
    solver.
    """

    newton_iterations: int = 0
    max_iterations: int = 0
    halvings: int = 0
    fallbacks: int = 0

    def __add__(self, other: "SolveStats") -> "SolveStats":
        return SolveStats(
            newton_iterations=self.newton_iterations + other.newton_iterations,
            max_iterations=max(self.max_iterations, other.max_iterations),
            halvings=self.halvings + other.halvings,
            fallbacks=self.fallbacks + other.fallbacks)


@dataclass(frozen=True, eq=False)
class NoiseBlock:
    """Noise paths of consecutive Monte Carlo indices on one grid.

    ``values[j]`` is the path of index ``first + j``, drawn from seed
    ``seeds[j]``; a failure names both so the path can be replayed.
    """

    grid: Partition
    values: np.ndarray = field(repr=False)
    hurst: HurstVector
    first: int
    seeds: tuple[int, ...]

    @classmethod
    def stack(cls, paths: list[FbmPath], first: int) -> "NoiseBlock":
        """Stack paths that share one grid and Hurst vector."""
        return cls(grid=paths[0].grid,
                   values=np.stack([p.values for p in paths]),
                   hurst=paths[0].hurst, first=first,
                   seeds=tuple(p.seed for p in paths))

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    def head(self, lanes: int) -> "NoiseBlock":
        """The block of the first ``lanes`` lanes."""
        return NoiseBlock(grid=self.grid, values=self.values[:lanes],
                          hurst=self.hurst, first=self.first,
                          seeds=self.seeds[:lanes])

    def path(self, lane: int) -> FbmPath:
        """The noise path of one lane."""
        return FbmPath(grid=self.grid, values=self.values[lane], hurst=self.hurst,
                       seed=self.seeds[lane])


def sq_norms(a: np.ndarray) -> np.ndarray:
    """``row @ row`` for every row of ``a``, over the last axis.

    A stacked matrix product of each row with itself takes every entry
    from the vector dot product, the one a single-path run and the scalar
    solver's ``np.linalg.norm`` use, so each entry is bit-identical to its
    single-row value; a sum of squares may round differently.
    """
    a = np.ascontiguousarray(a)
    return np.matmul(a[..., None, :], a[..., :, None])[..., 0, 0]


def _newton_updates(spec: DriftSpec, delta: float, y: np.ndarray,
                    res: np.ndarray) -> np.ndarray:
    """Solve ``(I - delta J(y)) u = -res`` row by row.

    Rows are solved as the scalar solver's ``np.linalg.solve`` solves
    them: a division in one dimension, which is what the 1x1 LU solve
    computes, and the same per-matrix LAPACK solve above, so a row's
    update is bit-identical to the scalar one.  A singular system gives
    a non-finite row rather than an error.
    """
    jac = spec.jacobian_rows(y)
    if y.shape[1] == 1:
        return -res / (1.0 - delta * jac[:, 0])
    system = np.eye(y.shape[1]) - delta * jac
    try:
        return np.linalg.solve(system, -res[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full_like(res, np.nan)
        for j in range(res.shape[0]):
            try:
                out[j] = np.linalg.solve(system[j], -res[j])
            except np.linalg.LinAlgError:
                pass
        return out


def _newton_rows(spec: DriftSpec, delta: float, c: np.ndarray, cfg: SolveConfig
                 ) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Damped Newton for ``y - delta b(y) = c``, one lane per row of ``c``.

    Mirrors :func:`~fbmsde.solver.solve_backward_step` lane by lane: all
    lanes are computed, and masks decide which lanes take the result.
    Returns the iterates, the iterations per lane, the number of rejected
    updates, and a mask of the lanes that need the scalar solver.
    """
    y = c.copy()
    res = y - delta * spec.eval_rows(y) - c
    norm = np.sqrt(sq_norms(res))
    iterations = np.zeros(c.shape[0], dtype=np.int64)
    fallback = np.zeros(c.shape[0], dtype=bool)
    halvings = 0
    active = ~(norm <= cfg.tol)
    for _ in range(cfg.max_iter):
        if not active.any():
            break
        iterations += active
        update = _newton_updates(spec, delta, y, res)
        singular = ~np.all(np.isfinite(update), axis=1)
        fallback |= active & singular
        pending = active & ~singular
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            cand = y + scale * update
            cand_res = cand - delta * spec.eval_rows(cand) - c
            cand_norm = np.sqrt(sq_norms(cand_res))
            # A non-finite candidate norm never compares below the norm.
            took = pending & (cand_norm < norm)
            if took.all():
                y, res, norm = cand, cand_res, cand_norm
                pending = ~took
                break
            y = np.where(took[:, None], cand, y)
            res = np.where(took[:, None], cand_res, res)
            norm = np.where(took, cand_norm, norm)
            pending &= ~took
            if not pending.any():
                break
            halvings += int(np.count_nonzero(pending))
            scale *= 0.5
        fallback |= pending
        active &= ~fallback & ~(norm <= cfg.tol)
    fallback |= active
    return y, iterations, halvings, fallback


def backward_euler_block(spec: DriftSpec, block: NoiseBlock, x0: np.ndarray,
                         cfg: SolveConfig | None = None, ratio: int = 1,
                         theta: float = 1.0) -> tuple[np.ndarray, SolveStats]:
    """The θ-method (implicit Euler by default) on every lane of ``block``
    from the common start ``x0``, each lane as its scalar integrator runs.

    ``ratio > 1`` runs on the coarse grid that keeps every ``ratio``-th
    node of the block's grid.  Returns the states, shape ``(M, n + 1, m)``
    with ``n`` the steps of that grid, and the counts of the run.

    Raises:
        StepTooLargeError: ``kappa * theta * mesh`` exceeds the solvability
            guard; checked once, before the first step.
        SolverError: the scalar integrator's error for the first failing
            lane of the first failing step, with the step index, the path
            index and the path seed in its message, and the path index in
            ``path``.
    """
    cfg = cfg or DEFAULT_SOLVE_CONFIG
    x0 = _check_inputs(spec, block, x0)
    grid = block.grid.subsample(ratio)
    _check_step_guard(spec, theta * grid.mesh, cfg)
    times = grid.times
    values = block.values[:, ::ratio]
    states = np.empty((values.shape[0], times.size, spec.dim))
    states[:, 0] = x0
    total = most = halved = fallbacks = 0
    with np.errstate(all="ignore"):
        for k in range(times.size - 1):
            delta = times[k + 1] - times[k]
            c = states[:, k]
            if theta < 1.0:
                c = c + (1.0 - theta) * delta * spec.eval_rows(states[:, k])
            c = c + (values[:, k + 1] - values[:, k])
            if theta == 0.0:
                states[:, k + 1] = c
                continue
            # A lane with a non-finite target always falls back.
            y, iterations, halvings, fallback = _newton_rows(spec, theta * delta,
                                                             c, cfg)
            for lane in np.flatnonzero(fallback):
                try:
                    if theta < 1.0 and not np.all(np.isfinite(c[lane])):
                        raise _explicit_overflow(k)
                    y[lane] = solve_backward_step(spec, theta * delta, c[lane],
                                                  cfg).y
                except SolverError as exc:
                    _attach_step(exc, k)
                    name_path(exc, block, lane)
                    raise
            states[:, k + 1] = y
            total += int(iterations.sum())
            most = max(most, int(iterations.max()))
            halved += halvings
            fallbacks += int(fallback.sum())
    return states, SolveStats(newton_iterations=total, max_iterations=most,
                              halvings=halved, fallbacks=fallbacks)


def name_path(exc: SolverError, block: NoiseBlock, lane: int) -> None:
    """Record the failing lane's path index in ``exc`` and name the path
    and its seed in the message, so the run can be replayed."""
    exc.path = block.first + lane
    exc.args = (f"{exc.args[0]} (path {exc.path}, "
                f"path seed {block.seeds[lane]})",)


def lowest_failure(run: Callable[[NoiseBlock], T], block: NoiseBlock) -> T:
    """``run(block)``, failing with the error of the lowest failing path.

    When a lane fails, the lanes before it run again on their own; a
    failure there is raised instead.  The error therefore names the same
    path, with the same message, whatever the block partition, as a loop
    over single paths in index order would.
    """
    try:
        return run(block)
    except SolverError as exc:
        if exc.path is None or exc.path == block.first:
            raise
        lowest_failure(run, block.head(exc.path - block.first))
        raise
