"""CSV and manifest writers shared by the library and the command line.

Floats are written with 17 significant digits so files round-trip to the
exact binary values; non-finite entries render as ``Inf``, ``-Inf`` and
``NaN``.  Files are UTF-8 with a trailing newline.  Manifests carry no
timestamps, so re-running a command reproduces its outputs byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from typing import IO, Iterable

from .fbm import FbmPath
from .integrate import Trajectory

__all__ = [
    "format_float",
    "write_path_csv",
    "write_trajectory_csv",
    "write_rate_csv",
    "write_stability_csv",
    "write_limit_csv",
    "write_manifest",
]


def format_float(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Inf" if value > 0 else "-Inf"
    return format(value, ".17g")


def _open_for_write(target: str | os.PathLike | IO[str]):
    if hasattr(target, "write"):
        return target, False
    parent = os.path.dirname(os.fspath(target))
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(target, "w", encoding="utf-8", newline=""), True


def _write_rows(target, header: list[str], rows: Iterable[list[str]]) -> None:
    handle, owned = _open_for_write(target)
    try:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")
    finally:
        if owned:
            handle.close()


def write_path_csv(path: FbmPath, target) -> None:
    """Columns ``t,B1,...,Bm`` with one row per grid node."""
    header = ["t"] + [f"B{i + 1}" for i in range(path.dim)]
    rows = ([format_float(t)] + [format_float(v) for v in row]
            for t, row in zip(path.grid.times, path.values))
    _write_rows(target, header, rows)


def write_trajectory_csv(traj: Trajectory, target) -> None:
    """Columns ``t,Y1,...,Ym`` with one row per grid node."""
    header = ["t"] + [f"Y{i + 1}" for i in range(traj.dim)]
    rows = ([format_float(t)] + [format_float(v) for v in row]
            for t, row in zip(traj.grid.times, traj.states))
    _write_rows(target, header, rows)


def write_rate_csv(report, target) -> None:
    """Strong-error table; the first row has no pairwise order.

    A ``sup_error`` column is appended when the report carries sup-norm
    errors.
    """
    with_sup = report.sup_errors is not None
    header = ["mesh", "error", "stderr", "pairwise_order"]
    if with_sup:
        header.append("sup_error")
    rows = []
    for mesh, error, stderr, order, sup in report.rows():
        row = [format_float(mesh), format_float(error), format_float(stderr),
               "" if order is None else format_float(order)]
        if with_sup:
            row.append(format_float(sup))
        rows.append(row)
    _write_rows(target, header, rows)


def write_stability_csv(rows: list[tuple[str, float, float]], target) -> None:
    """Columns ``scheme,T,value``; non-finite values stay in the table."""
    formatted = ([scheme, format_float(t), format_float(value)]
                 for scheme, t, value in rows)
    _write_rows(target, ["scheme", "T", "value"], formatted)


def write_limit_csv(comparison, target) -> None:
    """Columns ``n,lp_distance,stderr,mean_abs_nZ,mean_abs_U``."""
    rows = []
    for i, n in enumerate(comparison.n_values):
        rows.append([
            str(int(n)),
            format_float(comparison.lp_distances[i]),
            format_float(comparison.stderrs[i]),
            format_float(comparison.mean_abs_nz[i]),
            format_float(comparison.mean_abs_u[i]),
        ])
    _write_rows(target, ["n", "lp_distance", "stderr", "mean_abs_nZ", "mean_abs_U"],
                rows)


def write_manifest(target, subcommand: str, config: dict, seed: int,
                   version: str, outputs: list[str],
                   solve_stats: dict | None = None) -> None:
    """JSON run manifest; deliberately timestamp-free for reproducibility.

    ``outputs`` are listed relative to the manifest's directory (to the
    working directory for an open file), so the manifest does not depend
    on where a run writes.  ``solve_stats`` holds deterministic solver
    counts, keyed by Hurst value.
    """
    base = os.curdir if hasattr(target, "write") \
        else os.path.dirname(os.fspath(target)) or os.curdir
    payload = {
        "subcommand": subcommand,
        "config": config,
        "seed": int(seed),
        "version": version,
        "outputs": [os.path.relpath(o, base) for o in outputs],
    }
    if solve_stats is not None:
        payload["solve_stats"] = solve_stats
    handle, owned = _open_for_write(target)
    try:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    finally:
        if owned:
            handle.close()
