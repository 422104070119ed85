"""Acceptance gate: nine user-facing checks, one PASS/FAIL line each.

Every test records its verdict through the ``criterion`` fixture before
asserting, so the terminal summary always lists all nine lines with the
measured numbers, including for checks that fail.

The Monte Carlo rate check (criterion 5) runs in a reduced smoke mode by
default (200 paths, factor-3 tolerance, under 3 minutes); set
``FBMSDE_ACCEPTANCE_FULL=1`` for the full 1000-path factor-2 run.
"""
import os
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from fbmsde import (
    ExperimentConfig,
    HurstVector,
    Partition,
    Trajectory,
    child_seed,
    coarsen,
    covariance,
    fit_order,
    fundamental_matrix_fb_euler,
    limit_check,
    make_linear_drift,
    mc_strong_error,
    nested_indices,
    residual_grid,
    resolvent_norm_bound,
    sample_multi,
    sample_path_cholesky,
    sample_path_circulant,
    solve_backward_step,
)
from fbmsde.cli import main
from fbmsde.drifts import CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC
from fbmsde.engine import backward_euler_block, sq_norms
from fbmsde.harness import Ensemble, map_blocks
from fbmsde.integrate import (
    backward_euler,
    crank_nicolson,
    forward_euler,
    fundamental_matrix_block,
)

pytestmark = pytest.mark.acceptance

FULL_MODE = os.environ.get("FBMSDE_ACCEPTANCE_FULL", "") == "1"

# mean terminal strong errors of the implicit scheme on the planar cubic,
# meshes 2^-5..2^-9, used as regression targets for criterion 5
EXPECTED_MEAN_ERRORS = {
    0.6: (3.3335e-2, 1.5464e-2, 7.1006e-3, 3.1505e-3, 1.3181e-3),
    0.7: (2.2177e-2, 1.0176e-2, 4.7004e-3, 2.1154e-3, 8.9192e-4),
    0.8: (1.7053e-2, 8.0469e-3, 3.8213e-3, 1.7612e-3, 7.5221e-4),
    0.9: (1.4462e-2, 6.9912e-3, 3.3680e-3, 1.5667e-3, 6.7140e-4),
}


def test_criterion_1_fbm_sampler_law(criterion):
    t0 = time.monotonic()
    grid = Partition.uniform(1.0, 64)
    pairs = [(0.25, 0.25), (0.25, 1.0), (0.5, 0.75), (0.75, 1.0), (1.0, 1.0)]
    idx = {t: grid.index_of(t) for t in {p for pair in pairs for p in pair}}
    n_paths = 10_000
    cov_ok = True
    ks_ok = True
    worst_dev = 0.0
    min_p = 1.0
    for h_i, h in enumerate((0.5, 0.6, 0.75, 0.9)):
        chol = np.empty((n_paths, 2))
        chol_full = np.empty((n_paths, grid.times.size))
        for i in range(n_paths):
            p = sample_path_cholesky(grid, h, seed=child_seed(1000 + h_i, i))
            chol_full[i] = p.values[:, 0]
        circ_T = np.empty(n_paths)
        for i in range(n_paths):
            p = sample_path_circulant(64, 1.0, hurst=h,
                                      seed=child_seed(5000 + h_i, i))
            circ_T[i] = p.values[-1, 0]
        for s, t in pairs:
            emp = np.mean(chol_full[:, idx[s]] * chol_full[:, idx[t]])
            cov = covariance(s, t, h)
            se = np.sqrt((covariance(s, s, h) * covariance(t, t, h) + cov ** 2)
                         / n_paths)
            dev = abs(emp - cov) / se
            worst_dev = max(worst_dev, dev)
            if dev > 3.0:
                cov_ok = False
        pval = ks_2samp(chol_full[:, -1], circ_T).pvalue
        min_p = min(min_p, pval)
        if pval <= 0.01:
            ks_ok = False
    elapsed = time.monotonic() - t0
    time_ok = elapsed < 60.0
    passed = criterion(
        "criterion 1 fbm sampler law",
        cov_ok and ks_ok and time_ok,
        f"worst |dev| {worst_dev:.2f} se (limit 3), min KS p {min_p:.3f} "
        f"(limit 0.01), {elapsed:.1f}s")
    assert passed


def test_criterion_2_resolvent_bound(criterion):
    rng = np.random.default_rng(20250814)
    worst_excess = -np.inf
    ok = True
    for _ in range(200):
        dim = int(rng.integers(1, 6))
        jac = rng.normal(scale=rng.uniform(0.2, 3.0), size=(dim, dim))
        lam = float(np.max(np.linalg.eigvalsh(0.5 * (jac + jac.T))))
        if lam > 0.0:
            t = float(rng.uniform(0.05, 0.95)) / lam
        else:
            t = float(rng.uniform(0.01, 5.0))
        norm, bound = resolvent_norm_bound(jac, t, lam)
        excess = norm - bound
        worst_excess = max(worst_excess, excess)
        if excess > 1e-9:
            ok = False
    passed = criterion("criterion 2 resolvent bound", ok,
                       f"200 matrices, worst norm - bound = {worst_excess:.2e}")
    assert passed


def test_criterion_3_implicit_solver_residuals(criterion):
    r = solve_backward_step(CUBIC1D, 1.0, np.array([2.0]))
    cubic_ok = abs(r.y[0] - 1.0) <= 1e-12
    rng = np.random.default_rng(3)
    specs = [CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC,
             make_linear_drift(np.array([[-1.0]]), name="decay")]
    worst = 0.0
    count = 0
    for spec in specs:
        for delta in (1e-3, 1e-2, 0.1, 0.5):
            if spec.kappa > 0.0 and spec.kappa * delta > 0.9:
                continue
            for _ in range(25):
                c = rng.uniform(-5.0, 5.0, size=spec.dim)
                step = solve_backward_step(spec, delta, c)
                worst = max(worst, step.residual)
                count += 1
    passed = criterion(
        "criterion 3 implicit solver residuals",
        cubic_ok and worst <= 1e-12,
        f"cubic root |y-1| = {abs(r.y[0] - 1.0):.1e}, "
        f"worst residual {worst:.1e} over {count} solves")
    assert passed


def test_criterion_4_stability_table(criterion):
    # At mesh 0.08 the start x0 = 5 lies on the unstable 2-cycle of the
    # noise-free explicit map (5 - 0.08 * 5^3 = -5, multiplier
    # 1 - 3 * 0.08 * 5^2 = -5).  The sign of a symmetric Gaussian combination
    # of the first increments decides whether an explicit Euler path escapes
    # or collapses, so about half the paths escape.  An escaping path either
    # overflows or ends far beyond em_blowup; both count as escaped.  The
    # drift trapezoid solves y1 + dt/2 y1^3 = y0 - dt/2 y0^3 + dB for -x^3,
    # which cannot amplify |y| beyond what the noise adds: it never diverges.
    t0 = time.monotonic()
    x0 = np.array([5.0])
    hv = HurstVector.constant(0.6, 1)
    n_paths = 100
    em_blowup = 1e6    # measured em maxima are <= 5.05 or >= 4e25
    counts = {"em": 0, "em_nonfinite": 0, "cn": 0, "bem": 0, "fine": 0}
    grid_coarse = Partition.uniform(0.72, 9)     # mesh 0.08
    grid_fine = Partition.uniform(0.72, 36)      # mesh 0.02

    def within_envelope(traj):
        return np.isfinite(traj.states).all() and np.abs(traj.states).max() <= 10.0

    for i in range(n_paths):
        seed = child_seed(20250401, i)
        noise = sample_multi(grid_coarse, hv, seed, method="circulant")
        em = forward_euler(CUBIC1D, noise, x0)
        cn = crank_nicolson(CUBIC1D, noise, x0, stability_mode=True)
        bem = backward_euler(CUBIC1D, noise, x0)
        em_finite = np.isfinite(em.states).all()
        if not em_finite:
            counts["em_nonfinite"] += 1
        if not em_finite or np.abs(em.states).max() > em_blowup:
            counts["em"] += 1
        if within_envelope(cn):
            counts["cn"] += 1
        if within_envelope(bem):
            counts["bem"] += 1
        fine_noise = sample_multi(grid_fine, hv, seed, method="circulant")
        fine_ok = all(
            np.isfinite(run(CUBIC1D, fine_noise, x0).states).all()
            for run in (forward_euler,
                        lambda s, n, x: crank_nicolson(s, n, x, stability_mode=True),
                        backward_euler))
        if fine_ok:
            counts["fine"] += 1
    elapsed = time.monotonic() - t0
    # binomial(n_paths, 1/2): within three standard deviations of n_paths / 2
    em_band = 3.0 * np.sqrt(n_paths) / 2.0
    em_lo, em_hi = n_paths / 2.0 - em_band, n_paths / 2.0 + em_band
    em_claim = em_lo <= counts["em"] <= em_hi
    cn_claim = counts["cn"] == n_paths
    bem_claim = counts["bem"] == n_paths
    fine_claim = counts["fine"] == n_paths
    passed = criterion(
        "criterion 4 stability table",
        em_claim and cn_claim and bem_claim and fine_claim and elapsed < 60.0,
        f"em escaped {counts['em']}% ({counts['em_nonfinite']}% non-finite, "
        f"rest above {em_blowup:g}; claimed in [{em_lo:g}, {em_hi:g}]), "
        f"cn finite within 10: {counts['cn']}%, bem within 10: {counts['bem']}%, "
        f"mesh 0.02 all finite: {counts['fine']}%, {elapsed:.1f}s")
    assert passed


def test_criterion_5_strong_rate_table(criterion):
    t0 = time.monotonic()
    mc_paths = 1000 if FULL_MODE else 200
    factor = 2.0 if FULL_MODE else 3.0
    budget = 1200.0 if FULL_MODE else 180.0
    table_ok = True
    slopes_ok = True
    worst_ratio = 1.0
    slopes = {}
    for h in (0.6, 0.7, 0.8, 0.9):
        cfg = ExperimentConfig(
            drift="example2", x0=(1.0, 1.0), t_final=1.0,
            hurst_values=(h,), schemes=("bem",),
            meshes=tuple(2.0 ** -k for k in range(5, 10)),
            master_mesh=2.0 ** -11, mc_paths=mc_paths, seed=20250500)
        report = mc_strong_error(cfg)
        for err, expect in zip(report.errors, EXPECTED_MEAN_ERRORS[h]):
            ratio = max(err / expect, expect / err)
            worst_ratio = max(worst_ratio, ratio)
            if ratio > factor:
                table_ok = False
        slopes[h] = report.slope
        if not 0.95 <= report.slope <= 1.40:
            slopes_ok = False
    elapsed = time.monotonic() - t0
    time_ok = elapsed < budget
    slope_text = ", ".join(f"H={h}: {s:.3f}" for h, s in slopes.items())
    passed = criterion(
        "criterion 5 strong rate table",
        table_ok and slopes_ok and time_ok,
        f"{'full' if FULL_MODE else 'smoke'} M={mc_paths}, worst table ratio "
        f"{worst_ratio:.2f} (limit {factor:g}), slopes {slope_text} "
        f"(window [0.95, 1.40]), {elapsed:.0f}s")
    assert passed


def test_criterion_6_flow_approximation_order(criterion):
    h = 0.9
    x0 = np.array([1.0, 1.0])
    hv = HurstVector.constant(h, 2)
    master = Partition.uniform(1.0, 2 ** 12)
    ks = (4, 5, 6, 7, 8)
    n_paths = 100

    def sup_errors(block):
        states, _ = backward_euler_block(PLANAR_CUBIC, block, x0)
        oracle = fundamental_matrix_block(PLANAR_CUBIC, master, states)
        sups = np.zeros((states.shape[0], len(ks)))
        for lane in range(states.shape[0]):
            traj = Trajectory(grid=master, states=states[lane], scheme="reference",
                              drift=PLANAR_CUBIC.name, path_seed=block.seeds[lane])
            for j, k in enumerate(ks):
                coarse = master.subsample(2 ** 12 // 2 ** k)
                approx = fundamental_matrix_fb_euler(PLANAR_CUBIC, traj, coarse)
                at_nodes = oracle[lane][nested_indices(coarse, master)]
                diff = approx.matrices - at_nodes
                sups[lane, j] = np.max(np.linalg.norm(diff, axis=(1, 2)))
        return sups

    sups = np.concatenate(map_blocks(sup_errors, Ensemble(
        grid=master, hursts=(hv,), paths=n_paths, seed=20250600, sampler="circulant")))
    meshes = [2.0 ** -k for k in ks]
    slope, _ = fit_order(meshes, sups.mean(axis=0))
    ok = abs(slope - h) <= 0.15
    passed = criterion(
        "criterion 6 flow approximation order", ok,
        f"H={h}, fitted slope {slope:.4f}, window [{h - 0.15:.2f}, {h + 0.15:.2f}], "
        f"{n_paths} paths")
    assert passed


def test_criterion_7_residual_scaling(criterion):
    # rhat_k is led by a term quadratic in the interval's fBm increment,
    # ~ dt |dB_k|^2 ~ dt^{2H+1} chi^2, so its maximum over the n intervals
    # carries a log n factor (Levy modulus); over n = 2^5..2^9 that factor
    # alone lowers the raw fitted slope by ln(9/5) / (4 ln 2) ~ 0.21.  The
    # dt^{2H+1} scaling is tested on max_k |rhat_k| / log n and on the mean
    # over intervals; the raw slope of the maximum is reported alongside.
    h = 0.7
    threshold = 2.0 * (h - 0.01) + 1.0 - 0.15
    x0 = np.array([1.0, 1.0])
    hv = HurstVector.constant(h, 2)
    master = Partition.uniform(1.0, 2 ** 14)
    ks = (5, 6, 7, 8, 9)
    n_paths = 40

    def rhat_norms(block):
        states, _ = backward_euler_block(PLANAR_CUBIC, block, x0)
        maxs = np.zeros((states.shape[0], len(ks)))
        means = np.zeros((states.shape[0], len(ks)))
        for lane in range(states.shape[0]):
            traj = Trajectory(grid=master, states=states[lane], scheme="reference",
                              drift=PLANAR_CUBIC.name, path_seed=block.seeds[lane])
            for j, k in enumerate(ks):
                coarse = master.subsample(2 ** 14 // 2 ** k)
                norms = np.sqrt(sq_norms(residual_grid(
                    PLANAR_CUBIC, traj, block.path(lane), coarse).rhat))
                maxs[lane, j] = np.max(norms)
                means[lane, j] = np.mean(norms)
        return maxs, means

    blocks = map_blocks(rhat_norms, Ensemble(
        grid=master, hursts=(hv,), paths=n_paths, seed=20250700, sampler="circulant"))
    maxs = np.concatenate([b[0] for b in blocks])
    means = np.concatenate([b[1] for b in blocks])
    meshes = [2.0 ** -k for k in ks]
    log_n = np.log([2.0 ** k for k in ks])
    raw_slope, _ = fit_order(meshes, maxs.mean(axis=0))
    max_slope, _ = fit_order(meshes, maxs.mean(axis=0) / log_n)
    mean_slope, _ = fit_order(meshes, means.mean(axis=0))
    ok = max_slope >= threshold and mean_slope >= threshold
    passed = criterion(
        "criterion 7 residual scaling", ok,
        f"H={h}, slope of max_k |rhat| / log n = {max_slope:.4f} "
        f"(raw {raw_slope:.4f}), slope of mean_k |rhat| = {mean_slope:.4f}, "
        f"required >= {threshold:.2f}, {n_paths} paths")
    assert passed


def test_criterion_8_limit_theorem(criterion):
    t0 = time.monotonic()
    n_values = (32, 64, 128, 256)
    mc_paths = 500
    drifts = {
        "linear": make_linear_drift(np.array([[-1.0]]), name="decay"),
        "planar": PLANAR_CUBIC,
    }
    x0s = {"linear": np.array([1.0]), "planar": np.array([1.0, 1.0])}
    all_ok = True
    details = []
    for label, spec in drifts.items():
        out, _ = limit_check(spec, x0s[label], 0.7, 1.0, n_values,
                             mc_paths=mc_paths, seed=20250800, threads=2)
        d = out.lp_distances
        nz = out.mean_abs_nz
        mono_ok = all(d[i + 1] <= 1.25 * d[i] for i in range(len(d) - 1))
        nz_ratios = [nz[i + 1] / nz[i] for i in range(len(nz) - 1)]
        nz_ok = all(0.8 <= r <= 1.25 for r in nz_ratios)
        z = nz / np.asarray(n_values, dtype=float)
        z_ratios = [z[i] / z[i + 1] for i in range(len(z) - 1)]
        z_ok = all(1.7 <= r <= 2.3 for r in z_ratios)
        all_ok = all_ok and mono_ok and nz_ok and z_ok
        details.append(
            f"{label}: d={np.array2string(d, precision=3)}, "
            f"nz ratios {[round(float(r), 2) for r in nz_ratios]}, "
            f"z halving {[round(float(r), 2) for r in z_ratios]}")
    elapsed = time.monotonic() - t0
    passed = criterion(
        "criterion 8 limit theorem", all_ok,
        f"M={mc_paths}; " + "; ".join(details) + f"; {elapsed:.0f}s")
    assert passed


def test_criterion_9_thread_determinism(criterion, tmp_path):
    cfg_text = (
        "drift = example2\n"
        "x0 = 1.0 1.0\n"
        "t_final = 1.0\n"
        "hurst = 0.6\n"
        "schemes = bem\n"
        "meshes = 2^-5 2^-6 2^-7 2^-8 2^-9\n"
        "master_mesh = 2^-11\n"
        "mc_paths = 200\n"
        "seed = 20250500\n"
    )
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(cfg_text)
    outputs = {}
    for threads in (1, 3):
        outdir = tmp_path / f"t{threads}"
        rc = main(["rate", "--config", str(cfg), "--out", str(outdir),
                   "--threads", str(threads)])
        assert rc == 0
        outputs[threads] = (outdir / "rate_report.csv").read_bytes()
    identical = outputs[1] == outputs[3]
    passed = criterion(
        "criterion 9 thread determinism", identical,
        f"rate_report.csv bytes identical across --threads 1 and 3: "
        f"{'yes' if identical else 'no'}")
    assert passed
