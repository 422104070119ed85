"""Path-batched θ-method stepping for Monte Carlo blocks.

A block is ``M`` noise paths on one master grid, stacked into a tensor of
shape ``(M, n + 1, d)``; lane ``j`` holds path number ``indices[j]`` of the
Hurst vector ``hursts[j]``, so one block may mix Hurst values.
:func:`backward_euler_runs` advances several θ-method runs of
:data:`fbmsde.integrate.THETA` on every lane in one pass over the master
grid: a run on the coarse grid that keeps every ``ratio``-th node steps
whenever the master step reaches one of its nodes, reusing
``values[:, ::ratio]``, and every run that steps at a master step joins one
batched damped-Newton solve.  :func:`backward_euler_block` is its one-run
call.

Every Newton decision is taken per row, one row per lane and run:
stopping, each halving of the update, the iteration count and the stall.
A lane's result therefore depends on its own path alone, never on its
batchmates, the block size or the other runs of the pass.  A row that
stalls, reaches ``max_iter``, or gets a singular or non-finite Newton
update is solved again from the same target by the scalar
:func:`~fbmsde.solver.solve_backward_step`, which brings the scalar
bisection rescue and the scalar errors with it.  A failing lane is
replayed one run at a time, so its error is that of its first failing run
in the order of ``runs``, and :func:`lowest_failure` turns the error of a
failing block into that of its lowest failing lane, so which path a
failure names does not depend on the blocks either.

Single paths stay on the scalar integrators of :mod:`fbmsde.integrate`:
with one lane a batched step costs more than a scalar one, about 130 µs
against 50 µs per step of the planar cubic and 72 µs against 14 µs per
step of the scalar cubic, whose scalar step runs on floats (2-core
machine, numpy 2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

from .drifts import DriftSpec
from .errors import SolverError, StepTooLargeError
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
           "backward_euler_runs", "block_count", "block_range",
           "lowest_failure", "name_path", "sq_norms"]

T = TypeVar("T")

# Most lanes per block.  Lane results do not depend on the block size; the
# cap bounds the size of the block tensors.
BLOCK_PATHS = 64


def block_count(lanes: int, threads: int = 1) -> int:
    """Number of blocks: one or more per worker, at most
    :data:`BLOCK_PATHS` lanes each, and no empty block."""
    return max(1, min(lanes, max(threads, -(-lanes // BLOCK_PATHS))))


def block_range(block: int, lanes: int, count: int) -> range:
    """Lanes of block number ``block`` of ``count``; the sizes of the
    blocks differ by at most one, the larger ones first."""
    size, extra = divmod(lanes, count)
    start = block * size + min(block, extra)
    return range(start, start + size + (block < extra))


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

    @classmethod
    def of(cls, counts: np.ndarray) -> "SolveStats":
        """The counts of a set of lanes from their rows of the ``(M, 4)``
        per-lane counts that :func:`backward_euler_runs` returns."""
        return cls(newton_iterations=int(counts[:, 0].sum()),
                   max_iterations=int(counts[:, 1].max(initial=0)),
                   halvings=int(counts[:, 2].sum()),
                   fallbacks=int(counts[:, 3].sum()))

    def __add__(self, other: "SolveStats") -> "SolveStats":
        return SolveStats(
            newton_iterations=self.newton_iterations + other.newton_iterations,
            max_iterations=max(self.max_iterations, other.max_iterations),
            halvings=self.halvings + other.halvings,
            fallbacks=self.fallbacks + other.fallbacks)


@dataclass(frozen=True, eq=False)
class NoiseBlock:
    """Noise paths on one grid, one per lane.

    ``values[j]`` is path number ``indices[j]`` of the Hurst vector
    ``hursts[j]``, drawn from seed ``seeds[j]``; a failure names the index
    and the seed so the path can be replayed.
    """

    grid: Partition
    values: np.ndarray = field(repr=False)
    hursts: tuple[HurstVector, ...]
    indices: tuple[int, ...]
    seeds: tuple[int, ...]

    @classmethod
    def stack(cls, paths: list[FbmPath], indices: Sequence[int] | None = None
              ) -> "NoiseBlock":
        """Stack paths that share one grid; ``indices`` are their path
        indices, ``0, 1, ...`` by default."""
        return cls(grid=paths[0].grid,
                   values=np.stack([p.values for p in paths]),
                   hursts=tuple(p.hurst for p in paths),
                   indices=tuple(range(len(paths)) if indices is None else indices),
                   seeds=tuple(p.seed for p in paths))

    @property
    def dim(self) -> int:
        return self.values.shape[2]

    def select(self, lanes: slice) -> "NoiseBlock":
        """The block of the chosen ``lanes``."""
        return NoiseBlock(grid=self.grid, values=self.values[lanes],
                          hursts=self.hursts[lanes], indices=self.indices[lanes],
                          seeds=self.seeds[lanes])

    def path(self, lane: int) -> FbmPath:
        """The noise path of one lane."""
        return FbmPath(grid=self.grid, values=self.values[lane],
                       hurst=self.hursts[lane], seed=self.seeds[lane])


def sq_norms(a: np.ndarray) -> np.ndarray:
    """``row @ row`` for every row of ``a``, over the last axis.

    A stacked matrix product of each row with itself takes every entry
    from the vector dot product, the one a single-path run and the scalar
    solver's ``np.linalg.norm`` use, so each entry is bit-identical to its
    single-row value; a sum of squares may round differently.
    """
    a = np.ascontiguousarray(a)
    return np.matmul(a[..., None, :], a[..., :, None])[..., 0, 0]


def _newton_updates(spec: DriftSpec, delta: np.ndarray, y: np.ndarray,
                    res: np.ndarray) -> np.ndarray:
    """Solve ``(I - delta J(y)) u = -res`` row by row; ``delta`` holds the
    step of every row, shape ``(M, 1)``.

    Rows are solved as the scalar solver's ``np.linalg.solve`` solves
    them: a division in one dimension, which is what the 1x1 LU solve
    computes, and the same per-matrix LAPACK solve above, so a row's
    update is bit-identical to the scalar one.  A singular system gives
    a non-finite row rather than an error.
    """
    jac = spec.jacobian(y)
    if y.shape[1] == 1:
        return -res / (1.0 - delta * jac[:, 0])
    system = np.eye(y.shape[1]) - delta[:, :, None] * jac
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


def _newton_rows(spec: DriftSpec, delta: np.ndarray, c: np.ndarray,
                 cfg: SolveConfig
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton for ``y - delta b(y) = c``, one equation per row of
    ``c``; ``delta`` holds the step of every row, shape ``(M, 1)``.

    Mirrors :func:`~fbmsde.solver.solve_backward_step` row by row: all
    rows are computed, and masks decide which rows take the result.
    Multiplying by a row's step gives the bits of multiplying by the
    scalar step.  Returns the iterates, the counts of every row (shape
    ``(M, 3)``: Newton iterations, rejected updates, and 1 if the row
    needs the scalar solver) and the mask of the rows that need it.
    """
    y = c.copy()
    res = y - delta * spec.eval(y) - c
    norm = np.sqrt(sq_norms(res))
    tally = np.zeros((c.shape[0], 3), dtype=np.int64)
    iterations, halvings = tally[:, 0], tally[:, 1]
    fallback = np.zeros(c.shape[0], dtype=bool)
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
            cand_res = cand - delta * spec.eval(cand) - c
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
            halvings += pending
            scale *= 0.5
        fallback |= pending
        active &= ~fallback & ~(norm <= cfg.tol)
    fallback |= active
    tally[:, 2] = fallback
    return y, tally, fallback


def backward_euler_runs(spec: DriftSpec, block: NoiseBlock, x0: np.ndarray,
                        runs: Sequence[tuple[int, float]],
                        cfg: SolveConfig | None = None
                        ) -> tuple[list[np.ndarray], np.ndarray]:
    """θ-method runs on every lane of ``block`` from the common start
    ``x0``, each lane of each run as its scalar integrator runs it.

    ``runs`` lists ``(ratio, theta)`` pairs: the θ-method of ``theta`` on
    the coarse grid that keeps every ``ratio``-th node of the block's
    grid.  The runs advance together in one pass over the block's grid.
    Returns the states of every run, shape ``(M, n + 1, m)`` with ``n``
    the steps of its grid, and the counts of all runs per lane, shape
    ``(M, 4)``, in the fields' order of :class:`SolveStats` (see
    :meth:`SolveStats.of`).

    Raises:
        StepTooLargeError: ``kappa * theta * mesh`` of a run exceeds the
            solvability guard; the guards are checked before the first
            step, and a lane's failure in an earlier run comes first.
        SolverError: the scalar integrator's error for the failing lane's
            first failing run, with the step index of that run, the path
            index and the path seed in its message, the path index in
            ``path`` and the lane in ``lane``.
    """
    cfg = cfg or DEFAULT_SOLVE_CONFIG
    x0 = _check_inputs(spec, block.dim, block.hursts, x0)
    runs = list(runs)
    stop = None
    for i, (ratio, theta) in enumerate(runs):
        mesh = block.grid.subsample(ratio).mesh
        try:
            _check_step_guard(spec, theta * mesh)
        except StepTooLargeError as exc:
            # The runs before it still run first, as a sequence of
            # one-run calls would run them.
            stop, runs = exc, runs[:i]
            break
    try:
        out = _advance(spec, block, x0, runs, cfg)
    except SolverError as exc:
        lane = exc.lane
        if len(runs) > 1:
            one = block.select(slice(lane, lane + 1))
            for run in runs:
                try:
                    _advance(spec, one, x0, [run], cfg)
                except SolverError as first:
                    exc = first
                    break
        name_path(exc, block, lane)
        raise exc
    if stop is not None:
        raise stop
    return out


def _advance(spec: DriftSpec, block: NoiseBlock, x0: np.ndarray,
             runs: list[tuple[int, float]], cfg: SolveConfig
             ) -> tuple[list[np.ndarray], np.ndarray]:
    """The pass of :func:`backward_euler_runs` after its checks; a failure
    carries its lane in ``lane`` and is not yet named."""
    lanes = block.values.shape[0]
    times = block.grid.times
    values = block.values
    states = [np.empty((lanes, block.grid.n_steps // ratio + 1, spec.dim))
              for ratio, _ in runs]
    for run in states:
        run[:, 0] = x0
    # Per run and lane: the counts of _newton_rows summed over the run's
    # steps, and the most iterations of one step.
    sums = np.zeros((len(runs), lanes, 3), dtype=np.int64)
    most = np.zeros((len(runs), lanes), dtype=np.int64)
    with np.errstate(all="ignore"):
        for k in range(block.grid.n_steps):
            # (run, its step index) of every run that solves.
            members: list[tuple[int, int]] = []
            targets, steps = [], []
            for r, (ratio, theta) in enumerate(runs):
                if (k + 1) % ratio:
                    continue
                j = (k + 1) // ratio - 1
                delta = times[k + 1] - times[k + 1 - ratio]
                c = states[r][:, j]
                if theta < 1.0:
                    c = c + (1.0 - theta) * delta * spec.eval(states[r][:, j])
                c = c + (values[:, k + 1] - values[:, k + 1 - ratio])
                if theta == 0.0:
                    states[r][:, j + 1] = c
                    continue
                members.append((r, j))
                targets.append(c)
                steps.append(np.full((lanes, 1), theta * delta))
            if not members:
                continue
            c, step = (targets[0], steps[0]) if len(members) == 1 \
                else (np.concatenate(targets), np.concatenate(steps))
            # A row with a non-finite target always falls back.
            y, tally, fallback = _newton_rows(spec, step, c, cfg)
            for row in np.flatnonzero(fallback):
                member, lane = divmod(int(row), lanes)
                r, j = members[member]
                try:
                    if runs[r][1] < 1.0 and not np.all(np.isfinite(c[row])):
                        raise _explicit_overflow(j)
                    y[row] = solve_backward_step(spec, step[row, 0], c[row], cfg).y
                except SolverError as exc:
                    _attach_step(exc, j)
                    exc.lane = lane
                    raise
            for m, (r, j) in enumerate(members):
                rows = slice(m * lanes, (m + 1) * lanes)
                states[r][:, j + 1] = y[rows]
                sums[r] += tally[rows]
                np.maximum(most[r], tally[rows, 0], out=most[r])
    total = sums.sum(axis=0)
    return states, np.column_stack([total[:, 0], most.max(axis=0, initial=0),
                                    total[:, 1], total[:, 2]])


def backward_euler_block(spec: DriftSpec, block: NoiseBlock, x0: np.ndarray,
                         cfg: SolveConfig | None = None, ratio: int = 1,
                         theta: float = 1.0) -> tuple[np.ndarray, SolveStats]:
    """The θ-method (implicit Euler by default) on every lane of ``block``
    on the grid that keeps every ``ratio``-th node: the one-run call of
    :func:`backward_euler_runs`.  Returns the states, shape
    ``(M, n + 1, m)``, and the counts of the run."""
    (states,), counts = backward_euler_runs(spec, block, x0, [(ratio, theta)], cfg)
    return states, SolveStats.of(counts)


def name_path(exc: SolverError, block: NoiseBlock, lane: int) -> None:
    """Record the failing lane and its path index in ``exc`` and name the
    path and its seed in the message, so the run can be replayed."""
    exc.lane = lane
    exc.path = block.indices[lane]
    exc.args = (f"{exc.args[0]} (path {exc.path}, "
                f"path seed {block.seeds[lane]})",)


def lowest_failure(run: Callable[[NoiseBlock], T], block: NoiseBlock) -> T:
    """``run(block)``, failing with the error of the lowest failing lane.

    When a lane fails, the lanes before it run again on their own; a
    failure there is raised instead.  The error therefore names the same
    path, with the same message, whatever the block partition, as a loop
    over single lanes in order would.
    """
    try:
        return run(block)
    except SolverError as exc:
        if not exc.lane:
            raise
        lowest_failure(run, block.select(slice(exc.lane)))
        raise
