"""Monte Carlo experiment drivers: strong-error rates and stability tables.

A run is described by an :class:`ExperimentConfig`.  Coarse grids are always
index subsets of one fine master grid and every scheme run on a path reuses
the restriction of that path's master noise, so error estimates compare
schemes on identical randomness.  Per-path seeds derive from the master seed
by path index, which makes results independent of the worker count.

The noise of a Monte Carlo run is an :class:`Ensemble` of lanes: the
paths of every Hurst value, Hurst-major.  :func:`map_blocks` splits the
lanes into blocks of consecutive lanes whose sizes differ by at most one:
the fewest blocks, a multiple of the worker count, whose noise tensors fit
the engine's byte budget (:func:`fbmsde.engine.block_count`).  It hands
each block to a block function that integrates the reference and every
scheme run for the whole block in one pass with
:func:`fbmsde.engine.backward_euler_runs`, keeping only the states the
block function reduces: the terminal states for a rate table (and the
coarse nodes for sup errors) and for the bias check.  :func:`map_indexed`
fans the blocks out over worker processes and returns their results in
block order, so neither a lane's result nor the path a failure names
depends on the blocks or the worker count.  A rate sweep is one
validation of the whole config (:func:`validate_rate_config`, every issue
of every Hurst value at once) and one call of :func:`map_blocks`.  Single
paths go through :func:`run_scheme` to the scalar integrators.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

import numpy as np

from .drifts import DriftSpec, get_drift, make_linear_drift
from .engine import (
    NoiseBlock,
    SolveStats,
    backward_euler_runs,
    block_count,
    block_range,
    lowest_failure,
    sq_norms,
)
from .errors import ConfigError, DomainError
from .fbm import FbmPath, HurstVector, child_seed, coarsen, sample_multi, zero_path
from .grids import Partition
from .integrate import (
    THETA,
    Trajectory,
    backward_euler,
    crank_nicolson,
    forward_euler,
    reference_solution,
)
from .solver import SolveConfig

__all__ = [
    "ExperimentConfig",
    "LimitConfig",
    "Ensemble",
    "map_blocks",
    "RateReport",
    "resolve_drift",
    "run_scheme",
    "mc_strong_error",
    "sweep_strong_error",
    "fit_order",
    "stability_compare",
    "reference_bias_check",
]

_REL_TOL = 1e-9


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of a Monte Carlo experiment.

    ``meshes`` are coarse step sizes; each must be an integer multiple of
    ``master_mesh`` and divide ``t_final`` into whole steps.  ``hurst_values``
    lists the Hurst indices to sweep; a rate run takes them all in one
    pass, and a stability run takes one.
    ``linear_matrix`` feeds the ``linear`` drift, which has no registry entry
    of its own because it is parameterized.
    """

    drift: str
    x0: tuple[float, ...]
    t_final: float
    hurst_values: tuple[float, ...]
    schemes: tuple[str, ...]
    meshes: tuple[float, ...]
    master_mesh: float | None
    mc_paths: int
    seed: int
    out: str | None = None
    threads: int = 1
    sup_error: bool = False
    newton_max_iter: int = 50
    zero_noise: bool = False
    linear_matrix: tuple[tuple[float, ...], ...] | None = None

    def solve_config(self) -> SolveConfig:
        return SolveConfig(max_iter=self.newton_max_iter)


@dataclass(frozen=True)
class LimitConfig:
    """Declarative description of a run of :func:`fbmsde.limit.limit_check`;
    the defaults live in :data:`fbmsde.configio.LIMIT_SCHEMA`."""

    drift: str
    x0: tuple[float, ...]
    hurst: float
    t: float
    n_values: tuple[int, ...]
    p: float
    mc_paths: int
    master_factor: int
    seed: int
    threads: int
    out: str | None
    linear_matrix: tuple[tuple[float, ...], ...] | None


def resolve_drift(cfg: ExperimentConfig | LimitConfig) -> DriftSpec:
    """Look up the configured drift, instantiating ``linear`` from its matrix."""
    name = cfg.drift.strip()
    if name == "linear":
        if cfg.linear_matrix is None:
            raise ConfigError("drift 'linear' needs linear_matrix")
        return make_linear_drift(np.asarray(cfg.linear_matrix, dtype=np.float64))
    return get_drift(name)


def _int_ratio(value: float, base: float) -> int | None:
    ratio = value / base
    rounded = int(round(ratio))
    if rounded >= 1 and abs(ratio - rounded) <= _REL_TOL * max(1.0, rounded):
        return rounded
    return None


def _repeated(values) -> list:
    """The values that occur more than once, in order of first occurrence."""
    return [v for v, count in Counter(values).items() if count > 1]


def _drift_issues(cfg: ExperimentConfig | LimitConfig
                  ) -> tuple[list[str], DriftSpec | None]:
    """The drift of a run, or ``None`` if it does not resolve, and the
    issues of the drift and of ``x0`` against it."""
    try:
        spec = resolve_drift(cfg)
    except (ConfigError, DomainError) as exc:
        return [str(exc)], None
    if len(cfg.x0) != spec.dim:
        return [f"x0 has {len(cfg.x0)} coordinates but drift {spec.name!r} "
                f"expects {spec.dim}"], spec
    return [], spec


def _threads_issues(threads: int) -> list[str]:
    return [] if threads >= 1 else [f"threads must be >= 1, got {threads}"]


def _limit_issues(n_values: tuple[int, ...], p: float, mc_paths: int,
                 master_factor: int, threads: int) -> list[tuple[str, str]]:
    """The issues of a ``limit`` run's Monte Carlo settings, each as the
    setting it concerns and its message, in the order
    :func:`validate_limit_config` reports them."""
    issues = []
    if not n_values or min(n_values) < 1:
        issues.append(("n_values",
                       "n_values must be a nonempty list of positive integers"))
    if not 1.0 <= p < 2.0:
        issues.append(("p", f"p must lie in [1, 2), got {p}"))
    if mc_paths < 1:
        issues.append(("mc_paths", f"mc_paths must be >= 1, got {mc_paths}"))
    if master_factor < 2:
        issues.append(("master_factor",
                       "master_factor must be >= 2 so the reference is finer"))
    elif n_values and min(n_values) >= 1:
        master_n = master_factor * max(n_values)
        issues += [("n_values", f"n = {n} does not divide the master step "
                                f"count {master_n}")
                   for n in n_values if master_n % n != 0]
    issues += [("threads", issue) for issue in _threads_issues(threads)]
    return issues


def _common_issues(cfg: ExperimentConfig) -> tuple[list[str], DriftSpec | None]:
    issues, spec = _drift_issues(cfg)
    if not cfg.t_final > 0.0:
        issues.append(f"t_final must be positive, got {cfg.t_final}")
    if not cfg.hurst_values:
        issues.append("at least one Hurst value is required")
    for h in cfg.hurst_values:
        if not 0.5 < h < 1.0:
            issues.append(f"Hurst value {h} outside the supported range (0.5, 1)")
    for scheme in cfg.schemes:
        if scheme not in THETA:
            issues.append(f"unknown scheme {scheme!r}; choose from {tuple(THETA)}")
    for scheme in _repeated(cfg.schemes):
        issues.append(f"scheme {scheme!r} is listed more than once")
    if not cfg.meshes:
        issues.append("at least one mesh is required")
    for mesh in _repeated(cfg.meshes):
        issues.append(f"mesh {mesh} is listed more than once")
    for mesh in cfg.meshes:
        if not mesh > 0.0:
            issues.append(f"mesh {mesh} must be positive")
        elif cfg.t_final > 0.0 and _int_ratio(cfg.t_final, mesh) is None:
            issues.append(f"mesh {mesh} does not divide t_final {cfg.t_final} "
                          f"into whole steps")
    if cfg.master_mesh is not None and not cfg.master_mesh > 0.0:
        issues.append(f"master_mesh must be positive, got {cfg.master_mesh}")
    elif cfg.master_mesh is not None:
        for mesh in cfg.meshes:
            if mesh > 0.0 and _int_ratio(mesh, cfg.master_mesh) is None:
                issues.append(f"mesh {mesh} is not an integer multiple of the "
                              f"master mesh {cfg.master_mesh}")
    if cfg.mc_paths < 1:
        issues.append(f"mc_paths must be >= 1, got {cfg.mc_paths}")
    issues += _threads_issues(cfg.threads)
    if cfg.newton_max_iter < 1:
        issues.append(f"newton_max_iter must be >= 1, got {cfg.newton_max_iter}")
    return issues, spec


def validate_rate_config(cfg: ExperimentConfig) -> DriftSpec:
    """The drift of a ``rate`` or ``--bias-check`` run over every Hurst value;
    every problem of the run's settings is reported at once.  A Hurst value
    may appear once: ``f"{h:g}"`` names its report file and its solve
    counts."""
    issues, spec = _common_issues(cfg)
    issues += [f"Hurst value {h} is listed more than once"
               for h in _repeated(f"{h:g}" for h in cfg.hurst_values)]
    if len(cfg.schemes) != 1:
        issues.append("rate runs use exactly one scheme")
    if cfg.master_mesh is None:
        issues.append("rate runs need a master_mesh for the reference solution")
    elif cfg.master_mesh > 0.0:
        if cfg.meshes and min(cfg.meshes) > 0.0 \
                and cfg.master_mesh > min(cfg.meshes) / 4.0 + _REL_TOL:
            issues.append(
                f"master_mesh {cfg.master_mesh} must be at most a quarter of "
                f"the smallest mesh {min(cfg.meshes)}")
        elif _int_ratio(cfg.t_final, cfg.master_mesh) is None:
            issues.append(f"master_mesh {cfg.master_mesh} does not divide "
                          f"t_final {cfg.t_final} into whole steps")
    if issues:
        raise ConfigError(issues)
    assert spec is not None
    return spec


def validate_stability_config(cfg: ExperimentConfig) -> DriftSpec:
    issues, spec = _common_issues(cfg)
    if spec is not None and spec.dim != 1:
        issues.append("stability tables are defined for one-dimensional drifts")
    if len(cfg.meshes) != 1:
        issues.append("stability runs use exactly one mesh")
    if cfg.mc_paths != 1:
        issues.append("stability runs use exactly one noise path (mc_paths = 1)")
    if len(cfg.hurst_values) != 1:
        issues.append("stability runs use exactly one Hurst value")
    if not cfg.schemes:
        issues.append("stability runs need at least one scheme")
    if cfg.master_mesh is not None and cfg.master_mesh > 0.0 \
            and _int_ratio(cfg.t_final, cfg.master_mesh) is None:
        issues.append(f"master_mesh {cfg.master_mesh} does not divide "
                      f"t_final {cfg.t_final} into whole steps")
    if issues:
        raise ConfigError(issues)
    assert spec is not None
    return spec


def validate_limit_config(cfg: LimitConfig) -> DriftSpec:
    """The drift of a ``limit`` run; every problem of the run's settings
    is reported at once, before any path is sampled."""
    issues, spec = _drift_issues(cfg)
    if not 0.5 < cfg.hurst < 1.0:
        issues.append(f"Hurst value {cfg.hurst} outside the supported range (0.5, 1)")
    if not cfg.t >= 0.0:
        issues.append(f"t must be non-negative, got {cfg.t}")
    issues += [issue for _, issue in _limit_issues(
        cfg.n_values, cfg.p, cfg.mc_paths, cfg.master_factor, cfg.threads)]
    if issues:
        raise ConfigError(issues)
    assert spec is not None
    return spec


@dataclass(frozen=True, eq=False)
class RateReport:
    """Strong-error table for one drift, Hurst index and scheme.

    ``solve_stats`` counts the implicit solves of the batched runs.
    """

    hurst: float
    scheme: str
    meshes: tuple[float, ...]
    errors: np.ndarray = field(repr=False)
    stderrs: np.ndarray = field(repr=False)
    pairwise_orders: np.ndarray = field(repr=False)
    slope: float
    slope_stderr: float
    sup_errors: np.ndarray | None = field(default=None, repr=False)
    solve_stats: SolveStats = SolveStats()

    def rows(self):
        """Yield per-mesh CSV rows; the first pairwise order is undefined."""
        for i, mesh in enumerate(self.meshes):
            order = None if i == 0 else float(self.pairwise_orders[i])
            sup = None if self.sup_errors is None else float(self.sup_errors[i])
            yield mesh, float(self.errors[i]), float(self.stderrs[i]), order, sup


def fit_order(meshes, errors) -> tuple[float, float]:
    """Least-squares slope of ``log(error)`` against ``log(mesh)``.

    Returns ``(slope, stderr)``; the stderr is NaN for exactly two points.

    Raises:
        DomainError: on fewer than two points or non-positive values.
    """
    meshes = np.asarray(meshes, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if meshes.size != errors.size or meshes.size < 2:
        raise DomainError("fit_order needs at least two (mesh, error) pairs")
    if np.any(meshes <= 0.0) or np.any(errors <= 0.0) \
            or not np.all(np.isfinite(meshes)) or not np.all(np.isfinite(errors)):
        raise DomainError("fit_order needs positive finite meshes and errors")
    x = np.log(meshes)
    y = np.log(errors)
    if meshes.size == 2:
        return float((y[1] - y[0]) / (x[1] - x[0])), float("nan")
    coeffs, cov = np.polyfit(x, y, 1, cov=True)
    return float(coeffs[0]), float(np.sqrt(cov[0, 0]))


def run_scheme(scheme: str, spec: DriftSpec, noise: FbmPath, x0: np.ndarray,
               cfg: SolveConfig, stability_mode: bool = False) -> Trajectory:
    """One path of ``scheme``, a key of :data:`~fbmsde.integrate.THETA`, by
    its public integrator; ``stability_mode`` applies to ``cn`` alone."""
    theta = THETA[scheme]
    if theta == 1.0:
        return backward_euler(spec, noise, x0, cfg)
    if theta == 0.0:
        return forward_euler(spec, noise, x0)
    return crank_nicolson(spec, noise, x0, cfg, stability_mode=stability_mode)


@dataclass(frozen=True)
class Ensemble:
    """The noise paths of one Monte Carlo run on its master grid, for one
    or more Hurst vectors.

    The lanes run Hurst-major: lane ``i`` is path ``i % paths`` of the
    Hurst vector ``hursts[i // paths]``, drawn from
    ``child_seed(seed, i % paths)`` by circulant embedding, or zero when
    ``zero_noise`` is set, so it does not depend on how lanes are split.
    """

    grid: Partition
    hursts: tuple[HurstVector, ...]
    paths: int
    seed: int
    zero_noise: bool = False

    @classmethod
    def of(cls, cfg: ExperimentConfig, spec: DriftSpec, grid: Partition
           ) -> "Ensemble":
        """The ensemble of every Hurst value of an experiment on ``grid``."""
        return cls(grid=grid,
                   hursts=tuple(HurstVector.constant(h, spec.dim)
                                for h in cfg.hurst_values),
                   paths=cfg.mc_paths, seed=cfg.seed, zero_noise=cfg.zero_noise)

    @property
    def lanes(self) -> int:
        return len(self.hursts) * self.paths

    @property
    def lane_bytes(self) -> int:
        """Bytes of one lane's noise, ``(n + 1)·m`` float64 values."""
        return (self.grid.n_steps + 1) * self.hursts[0].dim * 8

    def path(self, lane: int) -> FbmPath:
        hurst = self.hursts[lane // self.paths]
        if self.zero_noise:
            return zero_path(self.grid, hurst)
        return sample_multi(self.grid, hurst, child_seed(self.seed, lane % self.paths),
                            method="circulant")

    def block(self, lanes: range) -> NoiseBlock:
        """The noise block of ``lanes``, each path written straight into
        the block tensor."""
        values = np.empty((len(lanes), self.grid.n_steps + 1, self.hursts[0].dim))
        seeds = []
        for j, lane in enumerate(lanes):
            path = self.path(lane)
            values[j] = path.values
            seeds.append(path.seed)
        return NoiseBlock(grid=self.grid, values=values,
                          hursts=tuple(self.hursts[i // self.paths] for i in lanes),
                          indices=tuple(i % self.paths for i in lanes),
                          seeds=tuple(seeds))


def map_indexed(worker: Callable[[Any, int], Any], payload: Any, count: int,
                threads: int = 1) -> list[Any]:
    """Run ``worker(payload, i)`` for ``i in range(count)``, in index order;
    with ``threads > 1`` in that many worker processes, to which the worker
    and payload must pickle."""
    if threads <= 1 or count <= 1:
        return [worker(payload, i) for i in range(count)]
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, count // (threads * 4))
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(partial(worker, payload), range(count),
                             chunksize=chunk))


def _run_block(run: Callable[[NoiseBlock], object], count: int,
               ensemble: Ensemble, block: int) -> object:
    return lowest_failure(run, ensemble.block(block_range(block, ensemble.lanes,
                                                          count)))


def map_blocks(run: Callable[[NoiseBlock], object], ensemble: Ensemble,
               threads: int = 1) -> list:
    """``run`` on every block of the ensemble's lanes, in lane order.

    ``run`` must pickle when ``threads > 1``: a :func:`functools.partial`
    of a module-level block function does.  A failure is that of the
    lowest failing lane (see :func:`~fbmsde.engine.lowest_failure`).
    """
    count = block_count(ensemble.lanes, threads, ensemble.lane_bytes)
    return map_indexed(partial(_run_block, run, count), ensemble, count, threads)


def _rate_block(cfg: ExperimentConfig, spec: DriftSpec, noise: NoiseBlock
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per lane: the squared terminal errors of every mesh, the squared
    sup errors of every mesh (no columns without ``sup_error``), and the
    solve counts of the reference and every mesh."""
    ratios = [_int_ratio(mesh, cfg.master_mesh) for mesh in cfg.meshes]
    theta = THETA[cfg.schemes[0]]
    # The sup errors compare every coarse node; the terminal errors only
    # the last one.
    keep = math.gcd(*ratios) if cfg.sup_error else noise.grid.n_steps
    (ref, *coarse), counts = backward_euler_runs(
        spec, noise, np.asarray(cfg.x0, dtype=np.float64),
        [(1, 1.0)] + [(ratio, theta) for ratio in ratios], cfg.solve_config(),
        keep)
    lanes = ref.shape[0]
    sq_terminal = np.empty((lanes, len(cfg.meshes)))
    sq_sup = np.empty((lanes, len(cfg.meshes) if cfg.sup_error else 0))
    with np.errstate(all="ignore"):
        for i, (ratio, states) in enumerate(zip(ratios, coarse)):
            sq_terminal[:, i] = sq_norms(ref[:, -1] - states[:, -1])
            if cfg.sup_error:
                diff_all = ref[:, ::ratio // keep] - states
                sq_sup[:, i] = np.max(np.sum(diff_all * diff_all, axis=2), axis=1)
    return sq_terminal, sq_sup, counts


def _lp_norm_with_se(powered: np.ndarray, p: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``mean(|X|^p)^(1/p)`` per column from the values ``|X|^p``, with a
    delta-method stderr; a zero norm has a zero stderr."""
    mean_pow = powered.mean(axis=0)
    norm = mean_pow ** (1.0 / p)
    n = powered.shape[0]
    if n > 1:
        # A diverged em lane squares to inf, whose deviation is NaN.
        with np.errstate(invalid="ignore"):
            se_pow = powered.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        se_pow = np.zeros_like(mean_pow)
    safe = np.where(norm > 0.0, norm, 1.0)
    return norm, np.where(norm > 0.0, se_pow / (p * safe ** (p - 1.0)), 0.0)


def _rate_report(cfg: ExperimentConfig, h: float, sq_terminal: np.ndarray,
                 sq_sup: np.ndarray, stats: SolveStats) -> RateReport:
    """The table of one Hurst value from its lanes' squared errors."""
    errors, stderrs = _lp_norm_with_se(sq_terminal, 2.0)
    sup_errors = _lp_norm_with_se(sq_sup, 2.0)[0] if cfg.sup_error else None

    orders = np.full(len(cfg.meshes), np.nan)
    for i in range(1, len(cfg.meshes)):
        if errors[i - 1] > 0.0 and errors[i] > 0.0:
            orders[i] = float(np.log(errors[i - 1] / errors[i])
                              / np.log(cfg.meshes[i - 1] / cfg.meshes[i]))
    usable = errors > 0.0
    if len(cfg.meshes) >= 2 and np.all(usable) and np.all(np.isfinite(errors)):
        slope, slope_stderr = fit_order(cfg.meshes, errors)
    else:
        slope, slope_stderr = float("nan"), float("nan")
    return RateReport(hurst=h, scheme=cfg.schemes[0], meshes=cfg.meshes,
                      errors=errors, stderrs=stderrs, pairwise_orders=orders,
                      slope=slope, slope_stderr=slope_stderr,
                      sup_errors=sup_errors, solve_stats=stats)


def _sweep(block: Callable[..., tuple[np.ndarray, ...]], cfg: ExperimentConfig,
           refine: int = 1) -> list[tuple[np.ndarray, ...]]:
    """``block(cfg, spec, noise)`` on every lane of every Hurst value, as
    one :func:`map_blocks` pass over the master grid refined ``refine``
    times; the block outputs, one tuple per Hurst value.

    The whole config is validated once first, so every issue of every
    Hurst value is reported together.
    """
    spec = validate_rate_config(cfg)
    grid = Partition.uniform(cfg.t_final,
                             refine * _int_ratio(cfg.t_final, cfg.master_mesh))
    blocks = map_blocks(partial(block, cfg, spec), Ensemble.of(cfg, spec, grid),
                        cfg.threads)
    outputs = [np.concatenate(parts) for parts in zip(*blocks)]
    return [tuple(out[i * cfg.mc_paths:(i + 1) * cfg.mc_paths] for out in outputs)
            for i in range(len(cfg.hurst_values))]


def sweep_strong_error(cfg: ExperimentConfig) -> list[RateReport]:
    """Strong terminal error of one scheme against the implicit reference,
    one table per configured Hurst value.

    Every Hurst value, the reference on the master grid and every coarse
    mesh run as lanes and runs of one :func:`map_blocks` pass.  The tables,
    their counts and a failure's message are those of one run per Hurst
    value in turn.  The pairwise order between consecutive meshes and a
    least-squares slope are attached when two or more meshes are present.
    """
    return [_rate_report(cfg, h, sq_terminal, sq_sup, SolveStats.of(counts))
            for h, (sq_terminal, sq_sup, counts)
            in zip(cfg.hurst_values, _sweep(_rate_block, cfg))]


def mc_strong_error(cfg: ExperimentConfig) -> RateReport:
    """The one-Hurst-value call of :func:`sweep_strong_error`."""
    validate_rate_config(cfg)
    if len(cfg.hurst_values) != 1:
        raise ConfigError("mc_strong_error runs one Hurst value at a time; "
                          "sweep with sweep_strong_error")
    return sweep_strong_error(cfg)[0]


def stability_compare(cfg: ExperimentConfig) -> list[tuple[str, float, float]]:
    """Scheme values along one shared noise path at the coarse grid times.

    Returns rows ``(scheme, t, value)`` for each configured scheme, plus
    ``reference`` rows (implicit Euler on the master mesh) when a master
    mesh is configured.  Non-finite values are kept as data.
    """
    spec = validate_stability_config(cfg)
    solve_cfg = cfg.solve_config()
    x0 = np.asarray(cfg.x0, dtype=np.float64)
    coarse_steps = _int_ratio(cfg.t_final, cfg.meshes[0])
    master_mesh = cfg.meshes[0] if cfg.master_mesh is None else cfg.master_mesh
    master_steps = _int_ratio(cfg.t_final, master_mesh)
    master_grid = Partition.uniform(cfg.t_final, master_steps)
    master_noise = Ensemble.of(cfg, spec, master_grid).path(0)
    ratio = master_steps // coarse_steps
    coarse_noise = coarsen(master_noise, master_grid.subsample(ratio))

    rows: list[tuple[str, float, float]] = []
    times = coarse_noise.grid.times
    for scheme in cfg.schemes:
        traj = run_scheme(scheme, spec, coarse_noise, x0, solve_cfg,
                          stability_mode=True)
        for k in range(1, times.size):
            rows.append((scheme, float(times[k]), float(traj.states[k, 0])))
    if cfg.master_mesh is not None:
        ref = reference_solution(spec, master_noise, x0, solve_cfg)
        ref_states = ref.states[::ratio]
        for k in range(1, times.size):
            rows.append(("reference", float(times[k]), float(ref_states[k, 0])))
    return rows


def _bias_block(cfg: ExperimentConfig, spec: DriftSpec, noise: NoiseBlock
                ) -> tuple[np.ndarray, np.ndarray]:
    ratio = 2 * _int_ratio(min(cfg.meshes), cfg.master_mesh)
    (ref_fine, ref_half, y), _ = backward_euler_runs(
        spec, noise, np.asarray(cfg.x0, dtype=np.float64),
        [(1, 1.0), (2, 1.0), (ratio, THETA[cfg.schemes[0]])], cfg.solve_config(),
        noise.grid.n_steps)
    return (sq_norms(ref_fine[:, -1] - y[:, -1]),
            sq_norms(ref_half[:, -1] - y[:, -1]))


def reference_bias_check(cfg: ExperimentConfig) -> list[float]:
    """Relative shift of the finest-mesh error when the master mesh halves,
    one per configured Hurst value.

    Both error estimates couple to the same noise realizations: the halved
    master path is a restriction of the doubled one, and the coarse scheme
    run is identical in both arms.  A small value certifies that the
    reference resolution does not bias the rate table.  Every Hurst value
    runs as lanes of one :func:`map_blocks` pass; the shifts and a
    failure's message are those of one call per Hurst value in turn.
    """
    shifts = []
    for sq_fine, sq_half in _sweep(_bias_block, cfg, refine=2):
        eps_fine = float(np.sqrt(sq_fine.mean()))
        eps_half = float(np.sqrt(sq_half.mean()))
        shifts.append(0.0 if eps_fine == eps_half == 0.0
                      else abs(eps_fine - eps_half) / max(eps_fine, eps_half))
    return shifts
