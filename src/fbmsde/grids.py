"""Time partitions of ``[0, T]`` and nesting utilities.

A :class:`Partition` is an immutable, strictly increasing grid starting at
zero.  Refinement experiments never rebuild coarse grids from floats: they
take every ``step``-th node of an existing grid via :meth:`Partition.subsample`
so that nested grids share nodes bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GridError

__all__ = ["MAX_STEPS", "Partition", "nested_indices"]

# Most intervals of a uniform grid.  A larger step count is an input
# error, reported before any array is built for it.  Sampling one path of
# 2^20 steps by circulant embedding raises the peak resident size by about
# 0.23 GB (numpy 2.4); a `rate` run of the smoke config on a 2^24-step
# master grid had a worker process killed on an 8 GB machine.
MAX_STEPS = 2**20


@dataclass(frozen=True, eq=False)
class Partition:
    """Strictly increasing time grid ``0 = t_0 < t_1 < ... < t_n``."""

    times: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        if times.ndim != 1 or times.size < 2:
            raise GridError("a partition needs a 1-d array with at least two nodes")
        if not np.all(np.isfinite(times)):
            raise GridError("partition nodes must be finite")
        if times[0] != 0.0:
            raise GridError(f"partition must start at 0, got {times[0]!r}")
        if np.any(np.diff(times) <= 0.0):
            raise GridError("partition nodes must be strictly increasing")
        times = times.copy()
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    @classmethod
    def uniform(cls, t_final: float, steps: int) -> "Partition":
        """Uniform grid with ``steps`` intervals on ``[0, t_final]``."""
        if not (t_final > 0.0 and np.isfinite(t_final)):
            raise DomainError(f"t_final must be positive and finite, got {t_final!r}")
        if steps < 1:
            raise DomainError(f"steps must be >= 1, got {steps}")
        if steps > MAX_STEPS:
            raise DomainError(f"steps must be at most {MAX_STEPS}, got {steps}")
        return cls(np.linspace(0.0, float(t_final), int(steps) + 1))

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    @property
    def mesh(self) -> float:
        """Largest interval length."""
        return float(np.max(np.diff(self.times)))

    def deltas(self) -> np.ndarray:
        return np.diff(self.times)

    def subsample(self, step: int) -> "Partition":
        """Keep every ``step``-th node.  ``n_steps`` must be divisible by ``step``."""
        if step < 1:
            raise DomainError(f"subsample step must be >= 1, got {step}")
        if self.n_steps % step != 0:
            raise GridError(
                f"cannot keep every {step}-th node of a grid with {self.n_steps} steps")
        return Partition(self.times[::step])

    def index_of(self, t: float) -> int:
        """Index of ``t`` among the nodes; exact membership is required."""
        idx = int(np.searchsorted(self.times, t))
        if idx >= self.times.size or self.times[idx] != t:
            raise GridError(f"time {t!r} is not a node of this partition")
        return idx

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.times.shape == other.times.shape and bool(
            np.all(self.times == other.times))

    def __hash__(self) -> int:
        return hash(self.times.tobytes())

    def __repr__(self) -> str:
        return (f"Partition(n_steps={self.n_steps}, t_final={self.t_final}, "
                f"mesh={self.mesh:.6g})")


def nested_indices(coarse: Partition, fine: Partition) -> np.ndarray:
    """Positions of the coarse nodes inside the fine grid.

    Raises:
        GridError: if any coarse node is missing from the fine grid.
    """
    idx = np.searchsorted(fine.times, coarse.times)
    if idx[-1] >= fine.times.size or not np.array_equal(fine.times[idx], coarse.times):
        raise GridError("coarse grid is not nested in the fine grid")
    return idx
