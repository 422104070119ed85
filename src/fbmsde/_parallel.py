"""Deterministic fan-out of Monte Carlo work.

Work items are indexed (rate, bias and limit runs index blocks of paths),
results come back in index order and every path derives its own seed
from the master seed, so the reduction is bit-identical for any worker
count.  Workers are separate processes; the worker and its payload must
pickle, which holds for :func:`~fbmsde.harness.map_blocks`'s partials of
module-level block functions and its :class:`~fbmsde.harness.Ensemble`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

__all__ = ["map_indexed"]


def map_indexed(worker: Callable[[Any, int], Any], payload: Any, count: int,
                threads: int = 1) -> list[Any]:
    """Run ``worker(payload, i)`` for ``i in range(count)``, in index order."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if threads <= 1 or count <= 1:
        return [worker(payload, i) for i in range(count)]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, count // (threads * 4))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(partial(worker, payload), range(count),
                             chunksize=chunk))
