"""Command-line front end.

Subcommands:

- ``fbm``: sample a fractional Brownian path and write it as CSV.
- ``simulate``: integrate one drift along one sampled path.
- ``rate``: Monte Carlo strong-error table from a config file.
- ``limit``: rescaled-error versus limit-process comparison from a config.
- ``stability``: scheme comparison along one shared path from a config.

Exit codes: 0 on success, 1 on runtime or solver failures, 2 on usage or
configuration errors.  Each run writes a ``meta.json`` style manifest next
to its outputs; manifests carry no timestamps, so a rerun of the same
command reproduces every byte.  Manifests name the outputs relative to
their own directory and leave out the output location, and the ``rate``,
``limit`` and ``stability`` manifests also leave out the worker count,
which changes no output, so their bytes depend neither on where a run
writes nor on ``--threads``.  The ``rate`` and ``limit`` manifests hold
the counts of the implicit solves (``solve_stats``), keyed by Hurst value.

``--threads`` falls back to the ``FBMSDE_THREADS`` environment variable,
then to the config file, then to 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .configio import (
    experiment_config_from_mapping,
    limit_params_from_mapping,
    load_config_file,
)
from .csvio import (
    format_float,
    write_limit_csv,
    write_manifest,
    write_path_csv,
    write_rate_csv,
    write_stability_csv,
    write_trajectory_csv,
)
from .drifts import get_drift
from .errors import ConfigError, DomainError, FbmSdeError, GridError, SolverError
from .fbm import HurstVector, coarsen, sample_multi, zero_path
from .grids import Partition
from .harness import (
    reference_bias_check,
    run_scheme,
    stability_compare,
    sweep_strong_error,
    validate_limit_config,
)
from .integrate import THETA
from .limit import limit_check
from .solver import SolveConfig

__all__ = ["main", "build_parser"]


def _env_threads() -> int | None:
    raw = os.environ.get("FBMSDE_THREADS")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"FBMSDE_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ConfigError(f"FBMSDE_THREADS must be >= 1, got {value}")
    return value


def _resolve_threads(flag: int | None, config_value: int | None = None) -> int:
    if flag is not None:
        return flag
    env = _env_threads()
    if env is not None:
        return env
    if config_value is not None:
        return config_value
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmsde",
        description="Implicit-Euler simulation toolkit for SDEs driven by "
                    "fractional Brownian motion with H > 1/2.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fbm = sub.add_parser("fbm", help="sample a fractional Brownian path")
    p_fbm.add_argument("--hurst", type=float, nargs="+", required=True,
                       help="Hurst index, one value or one per coordinate")
    p_fbm.add_argument("--steps", type=int, required=True)
    p_fbm.add_argument("--t-final", type=float, required=True)
    p_fbm.add_argument("--dim", type=int, default=1)
    p_fbm.add_argument("--seed", type=int, default=0)
    p_fbm.add_argument("--method", choices=("cholesky", "circulant"),
                       default="circulant")
    p_fbm.add_argument("--out", required=True)

    p_sim = sub.add_parser("simulate", help="integrate one drift on one path")
    p_sim.add_argument("--drift", required=True)
    p_sim.add_argument("--scheme", choices=tuple(THETA), default="bem")
    p_sim.add_argument("--x0", type=float, nargs="+", required=True)
    p_sim.add_argument("--hurst", type=float, default=0.7)
    p_sim.add_argument("--steps", type=int, required=True)
    p_sim.add_argument("--master-steps", type=int, default=None,
                       help="sample on a grid of this many steps and restrict "
                            "the path to --steps, as rate and limit restrict "
                            "their master paths (default: --steps)")
    p_sim.add_argument("--t-final", type=float, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--newton-tol", type=float, default=1e-12)
    p_sim.add_argument("--newton-max-iter", type=int, default=50)
    p_sim.add_argument("--method", choices=("cholesky", "circulant"),
                       default="circulant")
    p_sim.add_argument("--zero-noise", action="store_true",
                       help="replace the sampled path by zero noise")
    p_sim.add_argument("--out", required=True)

    for name, help_text in (
            ("rate", "Monte Carlo strong-error table"),
            ("limit", "rescaled error versus limit process"),
            ("stability", "scheme comparison on one shared path")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--mc-paths", type=int, default=None)
        if name == "rate":
            p.add_argument("--sup-error", action="store_true", default=None,
                           help="also report sup-norm errors over the coarse grid")
            p.add_argument("--bias-check", action="store_true",
                           help="also report the reference-resolution bias at "
                                "the finest mesh")
    return parser


def _hurst_vector(values: list[float], dim: int) -> HurstVector:
    if len(values) == 1:
        return HurstVector.constant(values[0], dim)
    if len(values) != dim:
        raise DomainError(
            f"{len(values)} Hurst values for {dim} coordinates; give one "
            f"value or one per coordinate")
    return HurstVector(tuple(values))


def cmd_fbm(args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise DomainError(f"--steps must be >= 1, got {args.steps}")
    if args.dim < 1:
        raise DomainError(f"--dim must be >= 1, got {args.dim}")
    hurst = _hurst_vector(args.hurst, args.dim)
    grid = Partition.uniform(args.t_final, args.steps)
    path = sample_multi(grid, hurst, args.seed, method=args.method)
    write_path_csv(path, args.out)
    write_manifest(
        args.out + ".meta.json", "fbm",
        {"hurst": list(hurst.components), "steps": args.steps,
         "t_final": args.t_final, "dim": args.dim, "method": args.method},
        args.seed, __version__, [args.out])
    print(f"wrote {args.out} ({args.steps} steps, dim {args.dim})")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = get_drift(args.drift)
    if args.steps < 1:
        raise DomainError(f"--steps must be >= 1, got {args.steps}")
    master_steps = args.steps if args.master_steps is None else args.master_steps
    if master_steps < 1 or master_steps % args.steps:
        raise DomainError(f"--master-steps must be a positive multiple of "
                          f"--steps {args.steps}, got {master_steps}")
    x0 = np.asarray(args.x0, dtype=np.float64)
    hurst = HurstVector.constant(args.hurst, spec.dim)
    grid = Partition.uniform(args.t_final, master_steps)
    if args.zero_noise:
        noise = zero_path(grid, hurst)
    else:
        noise = sample_multi(grid, hurst, args.seed, method=args.method)
    noise = coarsen(noise, grid.subsample(master_steps // args.steps))
    solve_cfg = SolveConfig(tol=args.newton_tol, max_iter=args.newton_max_iter)
    traj = run_scheme(args.scheme, spec, noise, x0, solve_cfg)
    write_trajectory_csv(traj, args.out)
    write_manifest(
        args.out + ".meta.json", "simulate",
        {"drift": spec.name, "scheme": args.scheme, "x0": list(map(float, x0)),
         "hurst": args.hurst, "steps": args.steps, "master_steps": master_steps,
         "t_final": args.t_final, "newton_tol": args.newton_tol,
         "newton_max_iter": args.newton_max_iter, "method": args.method,
         "zero_noise": bool(args.zero_noise)},
        args.seed, __version__, [args.out])
    terminal = ", ".join(format_float(v) for v in traj.states[-1])
    print(f"wrote {args.out}; terminal state [{terminal}]")
    return 0


def _overrides(args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if args.out is not None:
        overrides["out"] = args.out
    if args.mc_paths is not None:
        overrides["mc_paths"] = args.mc_paths
    if getattr(args, "sup_error", None):
        overrides["sup_error"] = True
    return overrides


def _config_echo(cfg) -> dict:
    """A run config's settings for a manifest, without the worker count and
    the output directory, which change no output."""
    return {k: v for k, v in asdict(cfg).items() if k not in ("threads", "out")}


def _load_run(args: argparse.Namespace, from_mapping):
    """The run config of ``--config`` built by ``from_mapping``, with the
    flags applied and the worker count resolved, and its output directory."""
    cfg = from_mapping(load_config_file(args.config), _overrides(args))
    cfg = replace(cfg, threads=_resolve_threads(args.threads, cfg.threads))
    if not cfg.out:
        raise ConfigError("an output directory is required: set 'out' in the "
                          "config or pass --out")
    return cfg, cfg.out


def cmd_rate(args: argparse.Namespace) -> int:
    cfg, out_dir = _load_run(args, experiment_config_from_mapping)
    reports = sweep_strong_error(cfg)
    outputs = []
    for report in reports:
        if len(reports) == 1:
            name = "rate_report.csv"
        else:
            name = f"rate_report_h{report.hurst:g}.csv"
        target = os.path.join(out_dir, name)
        write_rate_csv(report, target)
        outputs.append(target)
        print(f"H={report.hurst:g} scheme={report.scheme}")
        for mesh, error, stderr, order, _ in report.rows():
            extra = "" if order is None else f"  pairwise_order={order:.4f}"
            print(f"  mesh={format_float(mesh)}  error={format_float(error)}"
                  f"  stderr={format_float(stderr)}{extra}")
        if len(report.meshes) >= 2 and np.isfinite(report.slope):
            print(f"  slope={report.slope:.4f}  stderr={report.slope_stderr:.4f}")
    if getattr(args, "bias_check", False):
        for h, shift in zip(cfg.hurst_values, reference_bias_check(cfg)):
            print(f"H={h:g} reference bias at finest mesh: {shift:.4%}")
    manifest = os.path.join(out_dir, "meta.json")
    write_manifest(manifest, "rate", _config_echo(cfg), cfg.seed,
                   __version__, outputs,
                   solve_stats={f"{r.hurst:g}": asdict(r.solve_stats)
                                for r in reports})
    return 0


def cmd_limit(args: argparse.Namespace) -> int:
    cfg, out_dir = _load_run(args, limit_params_from_mapping)
    comparison, stats = limit_check(
        validate_limit_config(cfg), np.asarray(cfg.x0, dtype=np.float64), cfg.hurst,
        cfg.t, cfg.n_values, cfg.mc_paths, cfg.seed, p=cfg.p,
        master_factor=cfg.master_factor, threads=cfg.threads,
        sampler=cfg.sampler, tol=cfg.newton_tol)
    target = os.path.join(out_dir, "limit_comparison.csv")
    write_limit_csv(comparison, target)
    for i, n in enumerate(comparison.n_values):
        print(f"n={n}  lp_distance={format_float(comparison.lp_distances[i])}"
              f"  stderr={format_float(comparison.stderrs[i])}")
    dists = comparison.lp_distances
    monotone = bool(np.all(np.diff(dists) <= 1e-12)) if dists.size > 1 else True
    print(f"lp distance monotone decreasing: {'yes' if monotone else 'no'}")
    write_manifest(os.path.join(out_dir, "meta.json"), "limit",
                   _config_echo(cfg), cfg.seed, __version__, [target],
                   solve_stats={f"{cfg.hurst:g}": asdict(stats)})
    return 0


def cmd_stability(args: argparse.Namespace) -> int:
    cfg, out_dir = _load_run(args, experiment_config_from_mapping)
    rows = stability_compare(cfg)
    target = os.path.join(out_dir, "stability.csv")
    write_stability_csv(rows, target)
    for scheme, t, value in rows:
        print(f"{scheme:>10}  T={format_float(t)}  value={format_float(value)}")
    write_manifest(os.path.join(out_dir, "meta.json"), "stability",
                   _config_echo(cfg), cfg.seed, __version__, [target])
    return 0


_COMMANDS = {
    "fbm": cmd_fbm,
    "simulate": cmd_simulate,
    "rate": cmd_rate,
    "limit": cmd_limit,
    "stability": cmd_stability,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help/--version.
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.subcommand](args)
    except ConfigError as exc:
        for issue in exc.issues:
            print(f"config error: {issue}", file=sys.stderr)
        return 2
    except (DomainError, GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1
    except FbmSdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
