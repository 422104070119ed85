import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmsde import (
    CirculantEmbeddingError,
    DomainError,
    FbmPath,
    GridError,
    HurstVector,
    Partition,
    child_seed,
    coarsen,
    sample_multi,
    sample_path_cholesky,
    sample_path_circulant,
    zero_path,
)
from fbmsde.csvio import write_path_csv
from fbmsde.fbm import (
    _fgn_sqrt_coeffs,
    _level_factor,
    build_covariance_matrix,
    covariance,
)

SQRT2 = 1.4142135623730951


# --- covariance oracles, worked out by hand from the definition ---------

def test_covariance_pointwise_values():
    # H = 1/2 reduces to min(s, t)
    assert covariance(0.3, 0.8, 0.5) == pytest.approx(0.3, abs=1e-15)
    # H = 3/4, s = 1, t = 2: (1 + 2^1.5 - 1) / 2 = sqrt(2)
    assert covariance(1.0, 2.0, 0.75) == pytest.approx(SQRT2, abs=1e-15)
    # variance along the diagonal is t^{2H}
    assert covariance(2.0, 2.0, 0.75) == pytest.approx(2.0 ** 1.5, abs=1e-14)
    assert covariance(0.0, 5.0, 0.7) == 0.0


def test_covariance_matrix_small_grid():
    g = Partition(np.array([0.0, 1.0, 2.0]))
    mat = build_covariance_matrix(g, 0.75)
    expected = np.array([[1.0, SQRT2], [SQRT2, 2.0 ** 1.5]])
    assert np.allclose(mat, expected, atol=1e-14)
    # the time origin is excluded: the matrix covers t_1..t_n only
    assert mat.shape == (2, 2)


@given(
    s=st.floats(0.01, 5.0),
    t=st.floats(0.01, 5.0),
    h=st.floats(0.51, 0.99),
)
@settings(max_examples=100, deadline=None)
def test_covariance_symmetry_and_increment_identity(s, t, h):
    assert covariance(s, t, h) == pytest.approx(covariance(t, s, h), rel=1e-12)
    # Var(B_t - B_s) = |t - s|^{2H}
    incr = covariance(t, t, h) - 2.0 * covariance(s, t, h) + covariance(s, s, h)
    assert incr == pytest.approx(abs(t - s) ** (2.0 * h), rel=1e-9, abs=1e-12)


# --- exact-distribution samplers ----------------------------------------

def test_cholesky_path_shape_and_origin():
    g = Partition.uniform(1.0, 16)
    p = sample_path_cholesky(g, 0.7, seed=3)
    assert p.values.shape == (17, 1)
    assert p.values[0, 0] == 0.0
    assert p.grid == g
    with pytest.raises((ValueError, RuntimeError)):
        p.values[1, 0] = 0.0


def test_cholesky_is_deterministic_in_seed():
    g = Partition.uniform(1.0, 32)
    a = sample_path_cholesky(g, 0.7, seed=9)
    b = sample_path_cholesky(g, 0.7, seed=9)
    c = sample_path_cholesky(g, 0.7, seed=10)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_cholesky_handles_fine_grid_via_jitter():
    # near-singular covariance at 2^12 nodes must still factor
    g = Partition.uniform(1.0, 2 ** 12)
    p = sample_path_cholesky(g, 0.55, seed=0)
    assert np.isfinite(p.values).all()


def test_hurst_outside_open_interval_rejected():
    g = Partition.uniform(1.0, 4)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(DomainError):
            sample_path_cholesky(g, bad, seed=0)
    with pytest.raises(DomainError):
        HurstVector((0.7, 1.0))


def test_cholesky_monte_carlo_covariance():
    # empirical second moments match the kernel within 3 standard errors
    g = Partition(np.array([0.0, 0.25, 1.0]))
    h, n = 0.7, 4000
    samples = np.array(
        [sample_path_cholesky(g, h, seed=s).values[:, 0] for s in range(n)]
    )
    for (i, ti), (j, tj) in [((1, 0.25), (1, 0.25)), ((1, 0.25), (2, 1.0)), ((2, 1.0), (2, 1.0))]:
        emp = np.mean(samples[:, i] * samples[:, j])
        cov = covariance(ti, tj, h)
        var_i = covariance(ti, ti, h)
        var_j = covariance(tj, tj, h)
        se = np.sqrt((var_i * var_j + cov ** 2) / n)
        assert abs(emp - cov) < 3.0 * se


def test_circulant_matches_kernel_and_grid():
    p = sample_path_circulant(64, 2.0, hurst=0.8, seed=5)
    assert p.values.shape == (65, 1)
    assert p.values[0, 0] == 0.0
    assert p.grid.t_final == 2.0
    assert p.hurst.components == (0.8,)


def test_circulant_monte_carlo_variance_and_lag1():
    # H = 1/2: increments are iid N(0, dt); lag-1 autocorrelation ~ 0
    n, paths = 512, 200
    incs = []
    for s in range(paths):
        p = sample_path_circulant(n, 1.0, hurst=0.5, seed=s)
        incs.append(np.diff(p.values[:, 0]))
    incs = np.concatenate(incs)
    m = incs.size
    assert abs(np.mean(incs)) < 3.0 * np.sqrt(1.0 / n / m)
    assert np.var(incs) == pytest.approx(1.0 / n, rel=0.05)
    rho1 = np.corrcoef(incs[:-1], incs[1:])[0, 1]
    assert abs(rho1) < 3.0 / np.sqrt(m)


def test_circulant_increment_variance_scales_with_hurst():
    # Var(B_{t+dt} - B_t) = dt^{2H}; check at H = 0.75
    n, paths, h = 256, 300, 0.75
    incs = np.concatenate(
        [np.diff(sample_path_circulant(n, 1.0, hurst=h, seed=s).values[:, 0])
         for s in range(paths)]
    )
    target = (1.0 / n) ** (2.0 * h)
    assert np.var(incs) == pytest.approx(target, rel=0.05)


def test_fgn_coefficients_are_clipped_nonnegative():
    coeffs = _fgn_sqrt_coeffs(128, 0.75)
    assert coeffs.shape == (256,)
    assert not coeffs.flags.writeable     # shared by every caller
    assert (coeffs >= 0.0).all()
    # lead eigenvalue of the embedding equals sum of the row
    assert np.isfinite(coeffs).all()


def test_circulant_rejects_manufactured_negative_eigenvalues(monkeypatch):
    # force an eigenvalue below the clip threshold to exercise the error path
    import fbmsde.fbm as fbm_mod

    real_eigs = np.fft.fft

    def poisoned_fft(row):
        out = real_eigs(row)
        out = out.copy()
        out[3] = -1.0
        return out

    monkeypatch.setattr(fbm_mod.np.fft, "fft", poisoned_fft)
    _fgn_sqrt_coeffs.cache_clear()
    with pytest.raises(CirculantEmbeddingError):
        _fgn_sqrt_coeffs(16, 0.7)
    _fgn_sqrt_coeffs.cache_clear()


def test_sampler_caches_stay_bounded():
    for n in range(2, 2 + 3 * _fgn_sqrt_coeffs.cache_info().maxsize):
        sample_path_circulant(n, 1.0, 0.7, seed=1)
        info = _fgn_sqrt_coeffs.cache_info()
        assert info.currsize <= info.maxsize
    for n in range(2, 2 + 3 * _level_factor.cache_info().maxsize):
        sample_path_cholesky(Partition.uniform(1.0, n), 0.7, seed=1)
        info = _level_factor.cache_info()
        assert info.currsize <= info.maxsize


def test_path_drawn_again_after_eviction_is_bit_identical():
    grid = Partition.uniform(1.0, 48)
    first = (sample_path_circulant(48, 1.0, 0.65, seed=4),
             sample_path_cholesky(grid, 0.65, seed=4))
    for n in range(100, 100 + _fgn_sqrt_coeffs.cache_info().maxsize):
        sample_path_circulant(n, 1.0, 0.65, seed=4)
    for n in range(10, 10 + _level_factor.cache_info().maxsize):
        sample_path_cholesky(Partition.uniform(1.0, n), 0.65, seed=4)
    misses = (_fgn_sqrt_coeffs.cache_info().misses, _level_factor.cache_info().misses)
    again = (sample_path_circulant(48, 1.0, 0.65, seed=4),
             sample_path_cholesky(grid, 0.65, seed=4))
    # Both factors were evicted and are computed again.
    assert (_fgn_sqrt_coeffs.cache_info().misses,
            _level_factor.cache_info().misses) == (misses[0] + 1, misses[1] + 1)
    for a, b in zip(first, again):
        assert np.array_equal(a.values, b.values)


def test_sampler_cache_keeps_the_most_recently_used_entries():
    _fgn_sqrt_coeffs.cache_clear()
    size = _fgn_sqrt_coeffs.cache_info().maxsize
    for n in range(2, 2 + size):
        _fgn_sqrt_coeffs(n, 0.7)
    _fgn_sqrt_coeffs(2, 0.7)            # n = 2 is now the most recent
    _fgn_sqrt_coeffs(2 + size, 0.7)     # evicts n = 3, the least recent
    hits = _fgn_sqrt_coeffs.cache_info().hits
    _fgn_sqrt_coeffs(2, 0.7)
    assert _fgn_sqrt_coeffs.cache_info().hits == hits + 1
    _fgn_sqrt_coeffs(3, 0.7)
    assert _fgn_sqrt_coeffs.cache_info().hits == hits + 1


# --- multi-coordinate sampling and seeding -------------------------------

def test_child_seed_is_stable_and_spread():
    assert child_seed(0, 0) != child_seed(0, 1)
    assert child_seed(0, 0) != child_seed(1, 0)
    assert child_seed(12345, 7) == child_seed(12345, 7)
    assert 0 <= child_seed(2 ** 70, 3) < 2 ** 64


def test_sample_multi_single_coordinate_matches_cholesky():
    g = Partition.uniform(1.0, 16)
    hv = HurstVector.constant(0.7, 1)
    multi = sample_multi(g, hv, seed=42, method="cholesky")
    single = sample_path_cholesky(g, 0.7, seed=child_seed(42, 0))
    assert np.array_equal(multi.values[:, 0], single.values[:, 0])


def test_sample_multi_coordinates_independent_seeds():
    g = Partition.uniform(1.0, 8)
    hv = HurstVector((0.6, 0.8))
    p = sample_multi(g, hv, seed=1, method="cholesky")
    assert p.values.shape == (9, 2)
    assert not np.array_equal(p.values[:, 0], p.values[:, 1])
    # each coordinate reproduces the scalar sampler under its child seed
    col1 = sample_path_cholesky(g, 0.8, seed=child_seed(1, 1))
    assert np.array_equal(p.values[:, 1], col1.values[:, 0])


def test_sample_multi_methods_agree_in_law_not_value():
    g = Partition.uniform(1.0, 32)
    hv = HurstVector.constant(0.7, 1)
    a = sample_multi(g, hv, seed=0, method="cholesky")
    b = sample_multi(g, hv, seed=0, method="circulant")
    assert a.values.shape == b.values.shape
    assert not np.array_equal(a.values, b.values)


def test_sample_multi_circulant_requires_uniform_grid():
    g = Partition(np.array([0.0, 0.1, 0.4, 1.0]))
    hv = HurstVector.constant(0.7, 1)
    with pytest.raises(GridError):
        sample_multi(g, hv, seed=0, method="circulant")
    # cholesky has no such restriction
    p = sample_multi(g, hv, seed=0, method="cholesky")
    assert p.values.shape == (4, 1)


def test_sample_multi_rejects_unknown_method():
    g = Partition.uniform(1.0, 4)
    with pytest.raises(DomainError):
        sample_multi(g, HurstVector.constant(0.7, 1), seed=0, method="fft")


def test_samplers_agree_in_distribution():
    # two-sample KS on B_T over 4000 paths per sampler
    from scipy.stats import ks_2samp

    g = Partition.uniform(1.0, 64)
    h = 0.7
    a = np.array([sample_path_cholesky(g, h, seed=s).values[-1, 0] for s in range(4000)])
    b = np.array(
        [sample_path_circulant(64, 1.0, hurst=h, seed=10 ** 6 + s).values[-1, 0]
         for s in range(4000)]
    )
    assert ks_2samp(a, b).pvalue > 0.01


# --- coarsening and utilities --------------------------------------------

def test_coarsen_restricts_bit_exactly():
    g = Partition.uniform(1.0, 64)
    hv = HurstVector.constant(0.7, 2)
    fine = sample_multi(g, hv, seed=8, method="circulant")
    coarse_grid = g.subsample(8)
    c = coarsen(fine, coarse_grid)
    assert np.array_equal(c.values, fine.values[::8])
    assert c.grid == coarse_grid
    assert c.hurst == fine.hurst
    assert c.seed == fine.seed


def test_coarsen_rejects_non_nested_grid():
    g = Partition.uniform(1.0, 8)
    fine = sample_multi(g, HurstVector.constant(0.7, 1), seed=0, method="cholesky")
    other = Partition(np.array([0.0, 0.3, 1.0]))
    with pytest.raises(GridError):
        coarsen(fine, other)


def test_zero_path_is_all_zeros():
    g = Partition.uniform(1.0, 10)
    p = zero_path(g, HurstVector.constant(0.9, 3))
    assert p.values.shape == (11, 3)
    assert not p.values.any()


def test_fbm_path_validation():
    g = Partition.uniform(1.0, 2)
    hv = HurstVector.constant(0.7, 1)
    with pytest.raises(DomainError):
        FbmPath(g, np.zeros((2, 1)), hv, 0)     # wrong node count
    with pytest.raises(DomainError):
        FbmPath(g, np.ones((3, 1)), hv, 0)      # does not start at zero
    with pytest.raises(DomainError):
        FbmPath(g, np.zeros((3, 2)), hv, 0)     # dim mismatch with hurst


def test_path_csv_roundtrip_precision():
    g = Partition(np.array([0.0, 1.0 / 3.0]))
    hv = HurstVector.constant(0.7, 1)
    p = sample_path_cholesky(g, 0.7, seed=0)
    buf = io.StringIO()
    write_path_csv(p, buf)
    text = buf.getvalue()
    assert text.endswith("\n")
    lines = text.strip().split("\n")
    assert lines[0] == "t,B1"
    t_back = float(lines[1].split(",")[0])
    v_back = float(lines[2].split(",")[1])
    assert t_back == 0.0
    assert v_back == p.values[1, 0]   # 17 significant digits round-trip
