"""Path-batched θ-method stepping for Monte Carlo blocks.

A block is ``M`` noise paths on one master grid, stacked into a tensor of
shape ``(M, n + 1, d)``; lane ``j`` holds path number ``indices[j]`` of the
Hurst vector ``hursts[j]``, so one block may mix Hurst values.
:func:`backward_euler_runs` advances several θ-method runs of
:data:`fbmsde.integrate.THETA` on every lane in one pass over the master
grid: a run on the coarse grid that keeps every ``ratio``-th node steps
whenever the master step reaches one of its nodes, reusing
``values[:, ::ratio]``, and every run that steps at a master step joins one
batched damped-Newton solve (a linear drift's runs step one after the
other instead, see below).  :func:`backward_euler_block` is its one-run
call.  Each run steps from its current state and stores only the nodes
its caller reduces (``keep``): a rate table keeps the terminal states, a
limit comparison every node of the reference.

The Newton pass of a drift costs almost only Python overhead per master
step, so the fewer blocks the better while their tensors stay small.
:func:`block_count` takes the fewest blocks, a multiple of the worker
count, whose noise tensors stay within :data:`BLOCK_BYTES`, 4 MiB: 128
lanes of the planar cubic's 2048-step grid, 255 of a scalar drift's.
One-run passes over that grid (``tests/bench_engine.py``, 2-core machine,
numpy 2.4, medians of three) took 0.43 s at 20 lanes, 0.45 s at 40, 0.49
s at 80, 0.57 s at 160 and 0.67 s at 320, or 21, 11, 6.1, 3.6 and 2.1 ms
per lane: past about 100 lanes a lane costs about 1 ms of its own, while
the pass's fixed ~0.4 s is already shared, so a larger budget would save
little more and cost memory in proportion.  Before the predictor start
and the closed-form 2x2 solve, the same passes took 0.49-0.60 s at 20
lanes and 0.89-1.36 s at 320 on the same machine.

Every Newton decision is taken per row, one row per lane and run: the
start (the target or the explicit predictor), stopping, each halving of
the update, the iteration count and the stall.
A lane's result therefore depends on its own path alone, never on its
batchmates, the block size or the other runs of the pass.  A row that
stalls, reaches ``max_iter``, or gets a singular or non-finite Newton
update is solved again from the same target by the scalar
:func:`~fbmsde.solver.solve_backward_step`, which brings the scalar
bisection rescue and the scalar errors with it.  A linear drift's rows
(``DriftSpec.matrix``) start at their direct solution, as the single-path
loops do: one stacked :func:`~fbmsde.solver._solve_linear` and one drift
evaluation for the residual, counted as one iteration, so a step whose
rows all meet the tolerance builds no Jacobian.  A row whose solution
misses the tolerance goes on with Newton from it; one whose solution is
not finite (a singular system) goes to the scalar solver.
A failing lane is replayed one run at a time, so its error is that of
its first failing run in the order of ``runs``, and
:func:`lowest_failure` turns the error of a failing block into that of
its lowest failing lane, so which path a failure names does not depend
on the blocks either.

A linear drift takes a pass of its own, which costs two numpy calls per
step of each run in one dimension instead of the Newton pass's overhead
per master step.  It steps one run at a time, in chunks of
:data:`_CHUNK` (256) steps of the run, and holds a chunk's jumps and
states step-major, so that each step's rows are contiguous.  A step
turns its row of jumps into its target, built as the Newton pass builds
it, and writes the direct solution of ``(I - θδA) y = c`` into its row of
states by :func:`~fbmsde.solver._system_solver`.  The system
``I - θδA`` is built without a lane axis once per distinct θδ, when its
entries are also read as Python floats: one division in one dimension,
Cramer's rule in two and LAPACK above, with the bits of the system
repeated per lane.  A chunk is then checked by the start of
:func:`_newton_rows` alone (:func:`_start_rows`): one drift evaluation
for the residuals, no Jacobian, no second solve and no Newton iteration.
A linear row of ``_newton_rows`` counts one iteration, no halving and no
fallback exactly when its direct solution is within the tolerance; a
lane with a row that is not is stepped again by the Newton pass, so the
states, counts and errors of every lane are the Newton pass's bit for
bit.  The five-run pass of ``configs/limit_linear.cfg`` on 64 lanes
takes 5.8-6.5 ms, 36.4-37.6 ms on a 2x2 drift, and a failing block from
x0 = 1e4 raises after 55-56 ms (``tests/bench_engine.py``, minima and
medians at the faster of two speed levels of a 2-core machine, numpy
2.4).

Single paths stay on the scalar integrators of :mod:`fbmsde.integrate`:
with one lane a batched step costs more than a scalar one, about 140-230
µs against 45-90 µs per step of the planar cubic and 70-125 µs against
1.1-1.9 µs per step of the scalar cubic, whose single-path run steps on
floats, its drift included, and calls the public solver only to re-solve
a step (2-core machine, numpy 2.4, noisy shared host).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

import numpy as np

from .drifts import DriftSpec
from .errors import DomainError, SolverError, StepTooLargeError
from .fbm import FbmPath, HurstVector
from .grids import Partition
from .integrate import _attach_step, _check_inputs, _explicit_overflow
from .solver import (
    _MAX_HALVINGS,
    DEFAULT_SOLVE_CONFIG,
    SolveConfig,
    _check_step_guard,
    _solve_linear,
    _solve_small,
    _system_solver,
    solve_backward_step,
)

__all__ = ["BLOCK_BYTES", "NoiseBlock", "SolveStats", "backward_euler_block",
           "backward_euler_runs", "block_count", "block_range",
           "lowest_failure", "name_path", "sq_norms"]

T = TypeVar("T")

# Most bytes of the noise tensor of one block, ``M·(n+1)·m·8``.  Lane
# results do not depend on the blocks; the budget bounds the block tensors.
BLOCK_BYTES = 4 * 2**20

# Steps of a linear drift's run solved directly before one stacked check;
# the chunk bounds the arrays that the check holds.
_CHUNK = 256


def block_count(lanes: int, threads: int, lane_bytes: int) -> int:
    """Number of blocks of ``lanes`` lanes of ``lane_bytes`` noise bytes
    each: the fewest that is a multiple of ``threads`` and keeps every
    block within :data:`BLOCK_BYTES`, but never more than ``lanes``."""
    needed = -(-lanes // max(1, BLOCK_BYTES // lane_bytes))
    return max(1, min(lanes, -(-needed // threads) * threads))


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
    single-row value; a sum of squares may round differently.  A row of
    one entry is squared by one product, which has the bits of that dot
    product and costs less.
    """
    if a.shape[-1] == 1:
        return a[..., 0] * a[..., 0]
    a = np.ascontiguousarray(a)
    return np.matmul(a[..., None, :], a[..., :, None])[..., 0, 0]


def _newton_updates(spec: DriftSpec, delta: np.ndarray, y: np.ndarray,
                    res: np.ndarray) -> np.ndarray:
    """Solve ``(I - delta J(y)) u = -res`` row by row; ``delta`` holds the
    step of every row, shape ``(M, 1)``.

    Rows are solved by the scalar solver's :func:`~fbmsde.solver._solve_small`
    (in one dimension its division is the scalar step's), so a row's
    update is bit-identical to the scalar one.  A singular system gives
    a NaN row rather than an error.
    """
    system = np.eye(y.shape[1]) - delta[:, :, None] * spec.jacobian(y)
    return _solve_small(system, -res[:, :, None])[:, :, 0]


def _take_rows(took: np.ndarray, new: tuple[np.ndarray, ...],
               old: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Per row, the iterate, residual and norm of ``new`` where ``took``
    and of ``old`` elsewhere; when every row (or none) takes ``new``, the
    arrays are used as they are."""
    if took.all():
        return new
    if not took.any():
        return old
    return (np.where(took[:, None], new[0], old[0]),
            np.where(took[:, None], new[1], old[1]),
            np.where(took, new[2], old[2]))


def _start_rows(spec: DriftSpec, delta: np.ndarray, y: np.ndarray, c: np.ndarray,
                tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The residual ``y - delta b(y) - c`` of every row of the start ``y``,
    its norm, and the mask of the rows whose norm is within ``tol``: the
    test that ends a linear step at its direct solution."""
    res = y - delta * spec.eval(y) - c
    norm = np.sqrt(sq_norms(res))
    return res, norm, norm <= tol


def _newton_rows(spec: DriftSpec, delta: np.ndarray, c: np.ndarray,
                 cfg: SolveConfig
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton for ``y - delta b(y) = c``, one equation per row of
    ``c``; ``delta`` holds the step of every row, shape ``(M, 1)``.

    Mirrors :meth:`~fbmsde.solver._VectorStep.solve` row by row, its start
    included: all rows are computed, and masks decide which rows take the
    result.  Multiplying by a row's step gives the bits of multiplying by
    the scalar step.  Returns the iterates, the counts of every row (shape
    ``(M, 3)``: Newton iterations, rejected updates, and 1 if the row
    needs the scalar solver) and the mask of the rows that need it.  A
    linear drift's rows start at their direct solution by
    :func:`~fbmsde.solver._solve_linear`, one iteration, and return at
    once when every row is within ``cfg.tol`` by :func:`_start_rows`; so a
    linear row counts ``(1, 0, 0)`` exactly when :func:`_start_rows` puts
    its direct solution within the tolerance.  A row whose direct solution
    is not finite gets a non-finite Newton update and falls back.
    """
    linear = spec.matrix is not None
    y = _solve_linear(spec.matrix, delta, c) if linear else c.copy()
    res, norm, within = _start_rows(spec, delta, y, c, cfg.tol)
    tally = np.zeros((c.shape[0], 3), dtype=np.int64)
    active = ~within
    if linear:
        # The direct solution counts as one iteration.
        tally[:, 0] = 1
        if not active.any():
            return y, tally, active     # no row falls back
    elif active.any():
        guess = c - res
        guess_res = guess - delta * spec.eval(guess) - c
        guess_norm = np.sqrt(sq_norms(guess_res))
        y, res, norm = _take_rows(active & (guess_norm < norm),
                                  (guess, guess_res, guess_norm), (y, res, norm))
        # Only active rows took the predictor; the others are still within.
        active = ~(norm <= cfg.tol)
    iterations, halvings = tally[:, 0], tally[:, 1]
    fallback = np.zeros(c.shape[0], dtype=bool)
    for _ in range(cfg.max_iter - linear):
        if not active.any():
            break
        iterations += active
        update = _newton_updates(spec, delta, y, res)
        pending = active & np.isfinite(update).all(axis=1)
        fallback |= active ^ pending
        scale = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            cand = y + scale * update
            cand_res = cand - delta * spec.eval(cand) - c
            cand_norm = np.sqrt(sq_norms(cand_res))
            # A non-finite candidate norm never compares below the norm.
            took = pending & (cand_norm < norm)
            y, res, norm = _take_rows(took, (cand, cand_res, cand_norm),
                                      (y, res, norm))
            pending ^= took
            if not pending.any():
                break
            halvings += pending
            scale *= 0.5
        fallback |= pending
        active &= ~(fallback | (norm <= cfg.tol))
    fallback |= active
    tally[:, 2] = fallback
    return y, tally, fallback


def backward_euler_runs(spec: DriftSpec, block: NoiseBlock, x0: np.ndarray,
                        runs: Sequence[tuple[int, float]],
                        cfg: SolveConfig | None = None, keep: int = 1
                        ) -> tuple[list[np.ndarray], np.ndarray]:
    """θ-method runs on every lane of ``block`` from the common start
    ``x0``, each lane of each run as its scalar integrator runs it.

    ``runs`` lists ``(ratio, theta)`` pairs: the θ-method of ``theta`` on
    the coarse grid that keeps every ``ratio``-th node of the block's
    grid.  The runs advance together in one pass over the block's grid,
    or one after the other for a linear drift, with the same results.
    A run stores its state only at its nodes that are multiples of
    ``keep``, a divisor of the grid's step count: every
    ``lcm(ratio, keep) / ratio``-th node of its grid, the first and the
    last included.  The default keeps every node; ``keep = n`` keeps the
    start and the terminal state only.  Returns the stored states of every
    run, shape ``(M, n / lcm(ratio, keep) + 1, m)`` with ``n`` the steps
    of the block's grid, and the counts of all runs per lane, shape
    ``(M, 4)``, in the fields' order of :class:`SolveStats` (see
    :meth:`SolveStats.of`).

    Raises:
        DomainError: ``keep`` does not divide the grid's step count.
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
    if keep < 1 or block.grid.n_steps % keep:
        raise DomainError(f"keep must divide the {block.grid.n_steps} steps "
                          f"of the grid, got {keep}")
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
        out = (_advance if spec.matrix is None else _linear_advance)(
            spec, block, x0, runs, cfg, keep)
    except SolverError as exc:
        lane = exc.lane
        if len(runs) > 1:
            one = block.select(slice(lane, lane + 1))
            for run in runs:
                try:
                    # Only the error matters: keep the end states alone.
                    _advance(spec, one, x0, [run], cfg, block.grid.n_steps)
                except SolverError as first:
                    exc = first
                    break
        name_path(exc, block, lane)
        raise exc
    if stop is not None:
        raise stop
    return out


def _advance(spec: DriftSpec, block: NoiseBlock, x0: np.ndarray,
             runs: list[tuple[int, float]], cfg: SolveConfig, keep: int
             ) -> tuple[list[np.ndarray], np.ndarray]:
    """The pass of :func:`backward_euler_runs` after its checks; a failure
    carries its lane in ``lane`` and is not yet named."""
    lanes = block.values.shape[0]
    times = block.grid.times
    values = block.values
    # Run r stores its state at the master nodes that are multiples of
    # strides[r], and steps from its current state, shape (M, m).
    strides = [math.lcm(ratio, keep) for ratio, _ in runs]
    states = [np.empty((lanes, block.grid.n_steps // stride + 1, spec.dim))
              for stride in strides]
    for run in states:
        run[:, 0] = x0
    current = [run[:, 0] for run in states]
    # Per run and lane: the counts of _newton_rows summed over the run's
    # steps, and the most iterations of one step.
    sums = np.zeros((len(runs), lanes, 3), dtype=np.int64)
    most = np.zeros((len(runs), lanes), dtype=np.int64)
    # Per run, its last θδ and the (lanes, 1) array of it, reused while
    # the run's θδ stays the same (on a uniform grid, every step).
    last_steps: list[tuple[float, np.ndarray | None]] = [(math.nan, None)] * len(runs)
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
                c = current[r]
                if theta < 1.0:
                    c = c + (1.0 - theta) * delta * spec.eval(current[r])
                c = c + (values[:, k + 1] - values[:, k + 1 - ratio])
                if theta == 0.0:
                    current[r] = c
                    continue
                members.append((r, j))
                targets.append(c)
                size = theta * delta
                if last_steps[r][0] != size:
                    last_steps[r] = (size, np.full((lanes, 1), size))
                steps.append(last_steps[r][1])
            if members:
                c, step = (targets[0], steps[0]) if len(members) == 1 \
                    else (np.concatenate(targets), np.concatenate(steps))
                # A row with a non-finite target always falls back.
                y, tally, fallback = _newton_rows(spec, step, c, cfg)
                for row in np.flatnonzero(fallback) if fallback.any() else ():
                    member, lane = divmod(int(row), lanes)
                    r, j = members[member]
                    try:
                        if runs[r][1] < 1.0 and not np.all(np.isfinite(c[row])):
                            raise _explicit_overflow(j)
                        y[row] = solve_backward_step(spec, step[row, 0], c[row],
                                                     cfg).y
                    except SolverError as exc:
                        _attach_step(exc, j)
                        exc.lane = lane
                        raise
                for m, (r, j) in enumerate(members):
                    rows = slice(m * lanes, (m + 1) * lanes)
                    current[r] = y[rows]
                    sums[r] += tally[rows]
                    np.maximum(most[r], tally[rows, 0], out=most[r])
            for r, stride in enumerate(strides):
                if (k + 1) % stride == 0:
                    states[r][:, (k + 1) // stride] = current[r]
    total = sums.sum(axis=0)
    return states, np.column_stack([total[:, 0], most.max(axis=0, initial=0),
                                    total[:, 1], total[:, 2]])


def _linear_advance(spec: DriftSpec, block: NoiseBlock, x0: np.ndarray,
                    runs: list[tuple[int, float]], cfg: SolveConfig, keep: int
                    ) -> tuple[list[np.ndarray], np.ndarray]:
    """The pass of :func:`_advance` for a linear drift, run by run in
    chunks of :data:`_CHUNK` steps.

    A chunk holds its jumps and its states step-major, shape ``(steps, M,
    m, 1)``, so that each step's rows are contiguous.  A step turns its
    row of jumps into its target, built as :func:`_advance` builds it, and
    writes the direct solution of ``(I - θδA) y = c`` into its row of
    states by :func:`~fbmsde.solver._system_solver`, the system built and
    its entries read once per distinct θδ.  The chunk's kept nodes are
    then copied out, and the chunk is checked by :func:`_start_rows`
    alone, one drift evaluation: a linear row of :func:`_newton_rows`
    counts one iteration, no halving and no fallback exactly when its
    direct solution is within ``cfg.tol``.  A lane whose rows all are
    counts one iteration per implicit step; every other lane is stepped
    again by :func:`_advance`, on the lanes from the first such lane to
    the last, so a failure is the one that :func:`_advance` raises on the
    whole block, its lane in ``lane``.
    """
    lanes, n, m = block.values.shape[0], block.grid.n_steps, spec.dim
    times, values = block.grid.times, block.values
    states = []
    missed = np.zeros(lanes, dtype=bool)
    with np.errstate(all="ignore"):
        for ratio, theta in runs:
            steps = n // ratio
            # Run steps per stored node.
            per = math.lcm(ratio, keep) // ratio
            out = np.empty((lanes, steps // per + 1, m))
            out[:, 0] = x0
            y = out[:, 0, :, None]
            size = math.nan
            for start in range(0, steps, _CHUNK):
                stop = min(start + _CHUNK, steps)
                nodes = slice(start * ratio, stop * ratio + 1, ratio)
                v, t = values[:, nodes].swapaxes(0, 1), times[nodes]
                deltas = t[1:] - t[:-1]
                sizes = theta * deltas
                targets = np.empty((stop - start, lanes, m, 1))
                np.subtract(v[1:], v[:-1], out=targets[..., 0])
                ys = targets if theta == 0.0 else np.empty_like(targets)
                for jump, row, delta, step in zip(targets, ys, deltas.tolist(),
                                                  sizes.tolist()):
                    c = y
                    if theta < 1.0:
                        c = c + (1.0 - theta) * delta * spec.eval(y[..., 0])[..., None]
                    # The step's row of jumps becomes its target.
                    c = np.add(c, jump, jump)
                    if theta == 0.0:
                        y = c
                        continue
                    if step != size:
                        size = step
                        solve = _system_solver(np.eye(m) - size * spec.matrix)
                    y = solve(c, row)
                # Row i of the chunk is node start + i + 1; copy out the
                # nodes that the run stores.
                first = -(start + 1) % per
                kept = ys[first::per, :, :, 0]
                node = (start + first + 1) // per
                out[:, node:node + kept.shape[0]] = kept.swapaxes(0, 1)
                if theta != 0.0:
                    _, _, within = _start_rows(spec, np.repeat(sizes, lanes)[:, None],
                                               ys.reshape(-1, m), targets.reshape(-1, m),
                                               cfg.tol)
                    missed |= ~within.reshape(-1, lanes).all(axis=0)
            states.append(out)
    # Each implicit step of a lane that missed none is one iteration.
    implicit = sum(n // ratio for ratio, theta in runs if theta != 0.0)
    counts = np.zeros((lanes, 4), dtype=np.int64)
    counts[:, 0], counts[:, 1] = implicit, implicit > 0
    if missed.any():
        lo, hi = np.flatnonzero(missed)[[0, -1]]
        lo, hi = int(lo), int(hi) + 1
        try:
            again, again_counts = _advance(spec, block.select(slice(lo, hi)), x0,
                                           runs, cfg, keep)
        except SolverError as exc:
            exc.lane += lo
            raise
        for run, part in zip(states, again):
            run[lo:hi] = part
        counts[lo:hi] = again_counts
    return states, counts


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
