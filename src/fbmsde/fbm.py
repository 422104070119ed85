"""Exact sampling of fractional Brownian motion on time grids.

Two exact samplers are provided.  :func:`sample_path_cholesky` factorizes the
level covariance on an arbitrary grid, which costs ``O(n^3)`` once per grid
and ``O(n^2)`` per path.  :func:`sample_path_circulant` embeds the increment
covariance of a uniform grid in a circulant matrix and draws paths in
``O(n log n)``.  Both draw from :func:`numpy.random.default_rng`, so a path
is a pure function of ``(grid, hurst, seed)``.

Multi-dimensional driving noise uses independent coordinates whose seeds are
derived from the path seed with :func:`child_seed`; the derivation is stable
across processes, which keeps Monte Carlo runs reproducible under any worker
count.

Every circulant draw goes through one writer, :func:`_circulant_levels`,
which writes a coordinate's levels into a given view: the column of a
path in :func:`sample_path_circulant` and :func:`sample_multi`, and one
coordinate of one lane of a Monte Carlo block tensor in
:meth:`fbmsde.harness.Ensemble.block`, which so builds no grid and no
path per lane.  On the 2048-step grid of ``configs/limit_linear.cfg`` a
block of 64 lanes takes 9.8-10.4 ms, and 80 planar lanes over four Hurst
values 23.9-24.7 ms (``tests/bench_engine.py``, 2-core machine).  One FFT over all the lanes
of a block gives the same bits but saves nothing: on those 64 lanes it
took 10.6-10.7 ms against 9.8-9.9 ms for the writer, since its
``(M, 2n)`` complex temporaries cost what the shared FFT call saves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CirculantEmbeddingError, DomainError, FactorizationError, GridError
from .grids import Partition, nested_indices

__all__ = [
    "HurstVector",
    "FbmPath",
    "covariance",
    "build_covariance_matrix",
    "sample_path_cholesky",
    "sample_path_circulant",
    "sample_multi",
    "coarsen",
    "child_seed",
    "zero_path",
]

# Eigenvalues of the circulant embedding in [-_EIG_CLIP, 0) are treated as
# rounding noise and clipped to zero; anything below is a hard error.
_EIG_CLIP = 1e-10


def _check_hurst(h: float) -> float:
    h = float(h)
    if not 0.0 < h < 1.0:
        raise DomainError(f"Hurst index must lie in (0, 1), got {h!r}")
    return h


@dataclass(frozen=True)
class HurstVector:
    """Per-coordinate Hurst indices of a vector fBm with independent parts."""

    components: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.components) < 1:
            raise DomainError("HurstVector needs at least one component")
        object.__setattr__(
            self, "components", tuple(_check_hurst(h) for h in self.components))

    @classmethod
    def constant(cls, h: float, dim: int = 1) -> "HurstVector":
        return cls((float(h),) * dim)

    @property
    def dim(self) -> int:
        return len(self.components)

    def min(self) -> float:
        return min(self.components)


@dataclass(frozen=True, eq=False)
class FbmPath:
    """Sampled path levels on a grid; row ``k`` holds ``B(t_k)`` per coordinate.

    ``values`` has shape ``(n_steps + 1, dim)`` and starts at zero.  ``seed``
    records the seed the path was drawn from, so runs can be replayed.
    """

    grid: Partition
    values: np.ndarray = field(repr=False)
    hurst: HurstVector
    seed: int

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] != self.grid.times.size:
            raise DomainError(
                f"values must have shape (n_steps + 1, dim), got {values.shape}")
        if values.shape[1] != self.hurst.dim:
            raise DomainError(
                f"{values.shape[1]} path coordinates but {self.hurst.dim} Hurst components")
        if np.any(values[0] != 0.0):
            raise DomainError("a path must start at zero")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def covariance(s: float, t: float, hurst: float) -> float:
    """Covariance of fBm levels, ``E[B_s B_t]``.

    Examples: ``covariance(1, 1, h) == 1`` for any ``h``, and
    ``covariance(1, 2, 0.75) == sqrt(2)``.
    """
    h = _check_hurst(hurst)
    s = float(s)
    t = float(t)
    if s < 0.0 or t < 0.0:
        raise DomainError("covariance is defined for nonnegative times")
    e = 2.0 * h
    return 0.5 * (s**e + t**e - abs(t - s) ** e)


def build_covariance_matrix(grid: Partition, hurst: float) -> np.ndarray:
    """Level covariance matrix at the interior nodes ``t_1, ..., t_n``.

    ``t_0 = 0`` is excluded because ``B_0 = 0`` is deterministic and would
    make the matrix singular.
    """
    h = _check_hurst(hurst)
    t = grid.times[1:]
    e = 2.0 * h
    pows = t**e
    return 0.5 * (pows[:, None] + pows[None, :] - np.abs(t[:, None] - t[None, :]) ** e)


def _cholesky_with_jitter(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Lower Cholesky factor, retrying once with a diagonal shift of ``tol``.

    The covariance of fBm levels is positive definite in exact arithmetic;
    the shift only absorbs roundoff on large grids.
    """
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        pass
    bumped = mat + tol * float(np.max(np.diag(mat))) * np.eye(mat.shape[0])
    try:
        return np.linalg.cholesky(bumped)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(
            f"covariance matrix of size {mat.shape[0]} is not positive definite "
            f"within tolerance {tol:g}") from exc


# The samplers cache their factors by (grid, h) here and by (n, h) in
# _fgn_sqrt_coeffs; a Partition hashes and compares by its nodes.  Cached
# arrays are read-only because every caller shares them.  A sweep draws
# its lanes Hurst value by Hurst value, so a few entries suffice; a
# Cholesky factor of a 2048-node grid alone is 32 MB.
@lru_cache(maxsize=4)
def _level_factor(grid: Partition, h: float) -> np.ndarray:
    factor = _cholesky_with_jitter(build_covariance_matrix(grid, h))
    factor.flags.writeable = False
    return factor


def sample_path_cholesky(grid: Partition, hurst: float, seed: int) -> FbmPath:
    """Draw one scalar fBm path on ``grid`` through the level covariance factor."""
    h = _check_hurst(hurst)
    factor = _level_factor(grid, h)
    rng = np.random.default_rng(int(seed))
    levels = factor @ rng.standard_normal(grid.n_steps)
    values = np.concatenate([[0.0], levels])[:, None]
    return FbmPath(grid=grid, values=values, hurst=HurstVector((h,)), seed=int(seed))


@lru_cache(maxsize=16)
def _fgn_sqrt_coeffs(n: int, h: float) -> np.ndarray:
    """Square-root weights of the circulant embedding of ``n`` unit-spaced
    fGn increments.

    Returns an array ``w`` of length ``2n`` such that, with ``V`` the complex
    Gaussian vector assembled in :func:`_sample_fgn_unit`, ``real(fft(w * V))``
    restricted to the first ``n`` entries has exactly the fGn covariance.
    """
    k = np.arange(n + 1, dtype=np.float64)
    e = 2.0 * h
    gamma = 0.5 * ((k + 1.0) ** e - 2.0 * k**e + np.abs(k - 1.0) ** e)
    # First row of the 2n x 2n circulant: gamma_0..gamma_n then mirrored tail.
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.fft.fft(row).real
    if lam.min() < -_EIG_CLIP:
        raise CirculantEmbeddingError(
            f"circulant embedding for n={n}, h={h} has eigenvalue "
            f"{lam.min():.3e} below the clip floor {-_EIG_CLIP:g}")
    lam = np.where(lam < 0.0, 0.0, lam)
    coeffs = np.sqrt(lam)
    coeffs.flags.writeable = False
    return coeffs


def _sample_fgn_unit(n: int, h: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-spacing fGn of length ``n`` via the circulant embedding.

    The Gaussian draws happen in a fixed order (two real scalars, then the
    two interior blocks) so results are reproducible from the seed alone.
    """
    w = _fgn_sqrt_coeffs(n, h)
    m = 2 * n
    spectral = np.empty(m, dtype=np.complex128)
    v_zero = rng.standard_normal()
    v_half = rng.standard_normal()
    spectral[0] = np.sqrt(1.0 / m) * w[0] * v_zero
    spectral[n] = np.sqrt(1.0 / m) * w[n] * v_half
    if n > 1:
        v_re = rng.standard_normal(n - 1)
        v_im = rng.standard_normal(n - 1)
        interior = np.sqrt(1.0 / (2.0 * m)) * w[1:n] * (v_re + 1j * v_im)
        spectral[1:n] = interior
        spectral[m - 1:n:-1] = np.conj(interior)
    return np.fft.fft(spectral).real[:n]


def _circulant_levels(out: np.ndarray, t_final: float, h: float, seed: int) -> None:
    """Write the levels ``B(t_1), ..., B(t_n)`` of one coordinate on the
    uniform grid of ``n`` steps on ``[0, t_final]`` into ``out``, shape
    ``(n,)``: unit-spacing fGn drawn from ``seed`` by
    :func:`_sample_fgn_unit`, summed and scaled by ``spacing**h``.

    ``out`` may be a strided view, such as one coordinate of one lane of a
    block tensor, so a caller builds no grid and no intermediate path.
    """
    n = out.shape[0]
    fgn = _sample_fgn_unit(n, h, np.random.default_rng(seed))
    np.multiply(np.cumsum(fgn), (t_final / n) ** h, out=out)


def sample_path_circulant(steps: int, t_final: float, hurst: float, seed: int) -> FbmPath:
    """Draw one scalar fBm path on a uniform grid via circulant embedding."""
    h = _check_hurst(hurst)
    grid = Partition.uniform(t_final, steps)
    values = np.zeros((grid.times.size, 1))
    _circulant_levels(values[1:, 0], grid.t_final, h, int(seed))
    return FbmPath(grid=grid, values=values, hurst=HurstVector((h,)), seed=int(seed))


def child_seed(seed: int, index: int) -> int:
    """Derived 64-bit seed for sub-stream ``index`` of master ``seed``.

    Uses the splittable seed-sequence construction, so (seed, index) pairs
    give statistically independent streams and the mapping never depends on
    scheduling order.
    """
    if index < 0:
        raise DomainError(f"sub-stream index must be >= 0, got {index}")
    seq = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, int(index)])
    return int(seq.generate_state(1, np.uint64)[0])


def _is_uniform(grid: Partition) -> bool:
    gaps = grid.deltas()
    first = gaps[0]
    return bool(np.all(np.abs(gaps - first) <= 1e-12 * max(first, 1.0)))


def sample_multi(grid: Partition, hurst: HurstVector, seed: int,
                 method: str = "cholesky") -> FbmPath:
    """Draw a vector path with independent coordinates.

    Coordinate ``i`` uses seed ``child_seed(seed, i)``, so the first
    coordinate of a one-dimensional draw coincides bit for bit with
    ``sample_path_cholesky(grid, h, child_seed(seed, 0))``.

    ``method="circulant"`` is accepted on uniform grids only.
    """
    if isinstance(hurst, (int, float)):
        hurst = HurstVector((float(hurst),))
    if method not in ("cholesky", "circulant"):
        raise DomainError(f"unknown sampling method {method!r}")
    if method == "circulant" and not _is_uniform(grid):
        raise GridError("circulant sampling requires a uniform grid")
    values = np.zeros((grid.times.size, hurst.dim))
    for i, h in enumerate(hurst.components):
        sub = child_seed(seed, i)
        if method == "cholesky":
            values[:, i] = sample_path_cholesky(grid, h, sub).values[:, 0]
        else:
            _circulant_levels(values[1:, i], grid.t_final, h, sub)
    return FbmPath(grid=grid, values=values, hurst=hurst, seed=int(seed))


def coarsen(path: FbmPath, coarse: Partition) -> FbmPath:
    """Restrict a path to a nested coarse grid, reusing the sampled values.

    The restriction is exact: coarse increments are sums of fine increments
    of the same realization, which is what couples refinement experiments.
    """
    idx = nested_indices(coarse, path.grid)
    return FbmPath(grid=coarse, values=path.values[idx],
                   hurst=path.hurst, seed=path.seed)


def zero_path(grid: Partition, hurst: HurstVector) -> FbmPath:
    """All-zero noise path, for noise-free integration runs."""
    values = np.zeros((grid.times.size, hurst.dim))
    return FbmPath(grid=grid, values=values, hurst=hurst, seed=0)
