import io
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from fbmsde import (
    ConfigError,
    ExperimentConfig,
    NoConvergenceError,
    SolveConfig,
    child_seed,
    fit_order,
    mc_strong_error,
    reference_bias_check,
    resolve_drift,
    stability_compare,
    sweep_strong_error,
)
from fbmsde import HurstVector, Partition, sample_multi
from fbmsde.csvio import write_rate_csv
from fbmsde.engine import (
    NoiseBlock,
    backward_euler_block,
    lowest_failure,
    sq_norms,
)
from fbmsde.integrate import THETA
from fbmsde.harness import (
    Ensemble,
    _rate_report,
    map_blocks,
    validate_rate_config,
    validate_stability_config,
)


def rate_cfg(**kw):
    base = dict(drift="example2", x0=(1.0, 1.0), t_final=1.0,
                hurst_values=(0.7,), schemes=("bem",),
                meshes=(2.0 ** -4, 2.0 ** -5, 2.0 ** -6),
                master_mesh=2.0 ** -8, mc_paths=8, seed=5)
    base.update(kw)
    return ExperimentConfig(**base)


# --- least squares order fit ---------------------------------------------------

def test_fit_order_recovers_exact_powers():
    meshes = [2.0 ** -k for k in range(3, 8)]
    slope, stderr = fit_order(meshes, meshes)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-9)
    slope, _ = fit_order(meshes, [m ** 2 for m in meshes])
    assert slope == pytest.approx(2.0, abs=1e-12)
    # scaling the errors shifts the intercept, never the slope
    slope, _ = fit_order(meshes, [17.3 * m for m in meshes])
    assert slope == pytest.approx(1.0, abs=1e-12)


def test_fit_order_on_measured_decay_sequence():
    # five dyadic error levels that fall just faster than first order;
    # the fitted slope of this fixed sequence is a frozen regression value
    errors = [3.3335e-2, 1.5464e-2, 7.1006e-3, 3.1505e-3, 1.3181e-3]
    meshes = [2.0 ** -k for k in range(5, 10)]
    slope, stderr = fit_order(meshes, errors)
    assert slope == pytest.approx(1.1616272817656204, rel=1e-12)
    assert stderr == pytest.approx(0.017428808320031672, rel=1e-9)


def test_fit_order_two_points_has_no_stderr():
    slope, stderr = fit_order([0.5, 0.25], [0.1, 0.05])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert np.isnan(stderr)


# --- config validation -----------------------------------------------------------

def test_validate_rate_config_passes_and_resolves():
    spec = validate_rate_config(rate_cfg())
    assert spec.name == "planar_cubic"


def test_validate_rate_config_collects_every_issue():
    cfg = rate_cfg(drift="nope", hurst_values=(0.4,), mc_paths=0,
                   meshes=(0.3,), master_mesh=0.25)
    with pytest.raises(ConfigError) as err:
        validate_rate_config(cfg)
    issues = err.value.issues
    assert len(issues) >= 4
    text = " | ".join(issues)
    assert "drift" in text
    assert "hurst" in text.lower()
    assert "mc_paths" in text
    assert "master" in text.lower()


def test_validate_rate_config_needs_fine_master():
    cfg = rate_cfg(master_mesh=2.0 ** -6)      # only 1x the finest mesh
    with pytest.raises(ConfigError):
        validate_rate_config(cfg)


def test_validate_rate_config_requires_divisible_meshes():
    cfg = rate_cfg(meshes=(1.0 / 3.0,), master_mesh=2.0 ** -8)
    with pytest.raises(ConfigError):
        validate_rate_config(cfg)


def test_validate_stability_config():
    cfg = ExperimentConfig(drift="example1", x0=(5.0,), t_final=0.72,
                           hurst_values=(0.6,), schemes=("em", "cn", "bem"),
                           meshes=(0.08,), master_mesh=None, mc_paths=1, seed=0)
    spec = validate_stability_config(cfg)
    assert spec.dim == 1
    bad = ExperimentConfig(drift="example2", x0=(1.0, 1.0), t_final=1.0,
                           hurst_values=(0.6, 0.7), schemes=("em",),
                           meshes=(0.1, 0.05), master_mesh=None, mc_paths=1, seed=0)
    with pytest.raises(ConfigError) as err:
        validate_stability_config(bad)
    assert len(err.value.issues) >= 2


def test_resolve_drift_linear_requires_matrix():
    cfg = rate_cfg(drift="linear")
    with pytest.raises(ConfigError):
        resolve_drift(cfg)
    cfg = rate_cfg(drift="linear", linear_matrix=((-1.0,),), x0=(1.0,))
    assert resolve_drift(cfg).kappa == pytest.approx(-1.0)


def test_experiment_config_solve_config():
    cfg = rate_cfg()
    sc = cfg.solve_config()
    assert sc.tol == SolveConfig().tol
    assert sc.max_iter == cfg.newton_max_iter


# --- strong error pipeline --------------------------------------------------------

def test_mc_strong_error_zero_drift_is_exact():
    # with b = 0 the coarse run and the reference agree at shared nodes up
    # to float summation order, so the measured error is at rounding level
    cfg = rate_cfg(drift="linear", linear_matrix=((0.0,),), x0=(0.5,),
                   mc_paths=2)
    report = mc_strong_error(cfg)
    assert (report.errors < 1e-10).all()


def test_mc_strong_error_zero_noise_measures_ode_gap():
    # zero noise leaves the deterministic discretization gap, which still
    # contracts at first order
    cfg = rate_cfg(zero_noise=True, mc_paths=2)
    report = mc_strong_error(cfg)
    assert (report.errors > 0.0).all()
    assert (np.diff(report.errors) < 0.0).all()
    assert report.slope > 0.9


def test_mc_strong_error_report_shape_and_monotone_errors():
    report = mc_strong_error(rate_cfg())
    assert report.scheme == "bem"
    assert report.hurst == 0.7
    assert len(report.errors) == 3
    assert (np.diff(report.errors) < 0).all()        # finer mesh, smaller error
    assert (report.stderrs > 0.0).all()
    assert len(report.pairwise_orders) == 3
    assert np.isnan(report.pairwise_orders[0])
    assert np.isfinite(report.slope)
    assert report.sup_errors is None


def test_mc_strong_error_micro_slope_window():
    cfg = rate_cfg(meshes=(2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7),
                   master_mesh=2.0 ** -10, mc_paths=24, seed=2)
    report = mc_strong_error(cfg)
    # noise-dominated regime decays near first order at H = 0.7
    assert 0.7 <= report.slope <= 1.3


def test_mc_strong_error_pairwise_matches_definition():
    report = mc_strong_error(rate_cfg())
    for i in range(1, len(report.meshes)):
        expect = np.log(report.errors[i - 1] / report.errors[i]) / np.log(2.0)
        assert report.pairwise_orders[i] == pytest.approx(expect, rel=1e-12)


def test_mc_strong_error_sup_column():
    report = mc_strong_error(rate_cfg(sup_error=True, mc_paths=4))
    assert report.sup_errors is not None
    assert (report.sup_errors >= report.errors - 1e-15).all()


def test_mc_strong_error_requires_single_hurst():
    with pytest.raises(ConfigError):
        mc_strong_error(rate_cfg(hurst_values=(0.6, 0.7)))


def test_mc_strong_error_deterministic_across_threads():
    a = mc_strong_error(rate_cfg(threads=1))
    b = mc_strong_error(rate_cfg(threads=2))
    assert np.array_equal(a.errors, b.errors)
    assert np.array_equal(a.stderrs, b.stderrs)


def test_mc_strong_error_failure_names_path_and_seed():
    # From 1e5 the cubic's first implicit step stalls below rounding.
    messages = []
    for threads in (1, 2):
        cfg = rate_cfg(drift="example1", x0=(1e5,), mc_paths=3, threads=threads)
        with pytest.raises(NoConvergenceError) as err:
            mc_strong_error(cfg)
        assert err.value.step == 0 and err.value.path == 0
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("step 0: damping stalled")
    assert messages[0].endswith(f"(path 0, path seed {child_seed(5, 0)})")


def _block_contents(noise):
    return noise.indices, noise.seeds, noise.values


def test_map_blocks_covers_the_ensemble_in_path_order():
    grid = Partition.uniform(1.0, 8)
    hurst = HurstVector.constant(0.7, 2)
    ensemble = Ensemble(grid=grid, hursts=(hurst,), paths=5, seed=9)
    seeds = tuple(child_seed(9, i) for i in range(5))
    values = np.stack([sample_multi(grid, hurst, s, method="circulant").values
                       for s in seeds])
    for threads, starts in ((1, [0]), (2, [0, 3]), (3, [0, 2, 4])):
        blocks = map_blocks(_block_contents, ensemble, threads)
        assert [b[0][0] for b in blocks] == starts
        assert sum((b[0] for b in blocks), ()) == tuple(range(5))
        assert sum((b[1] for b in blocks), ()) == seeds
        assert np.array_equal(np.concatenate([b[2] for b in blocks]), values)
    zero = Ensemble(grid=grid, hursts=(hurst,), paths=5, seed=9,
                    zero_noise=True)
    assert not np.any(zero.path(4).values)


def test_sweep_strong_error_runs_each_hurst():
    cfg = rate_cfg(hurst_values=(0.6, 0.75), mc_paths=4)
    reports = sweep_strong_error(cfg)
    assert [r.hurst for r in reports] == [0.6, 0.75]
    assert all(len(r.errors) == 3 for r in reports)


@pytest.mark.parametrize("run", [sweep_strong_error, reference_bias_check])
def test_sweeps_validate_an_empty_hurst_list(run):
    with pytest.raises(ConfigError) as err:
        run(rate_cfg(hurst_values=()))
    assert err.value.issues == ["at least one Hurst value is required"]
    with pytest.raises(ConfigError) as err:
        run(rate_cfg(drift="nonsense", t_final=-1.0, hurst_values=(), mc_paths=0))
    issues = " | ".join(err.value.issues)
    for part in ("nonsense", "t_final", "Hurst", "mc_paths"):
        assert part in issues


SWEEP_HURST = (0.6, 0.7, 0.8, 0.9)


def _one_run_calls(cfg, spec, block):
    """The reference and every mesh of a rate block as one-run calls, in
    order: per lane the squared errors, and the counts of the block."""
    x0 = np.asarray(cfg.x0, dtype=np.float64)
    solve_cfg = cfg.solve_config()
    ref, stats = backward_euler_block(spec, block, x0, solve_cfg)
    sq_terminal = np.empty((ref.shape[0], len(cfg.meshes)))
    sq_sup = np.empty_like(sq_terminal)
    for i, mesh in enumerate(cfg.meshes):
        ratio = round(mesh / cfg.master_mesh)
        states, run_stats = backward_euler_block(spec, block, x0, solve_cfg, ratio,
                                                 THETA[cfg.schemes[0]])
        stats = stats + run_stats
        sq_terminal[:, i] = sq_norms(ref[:, -1] - states[:, -1])
        diff = ref[:, ::ratio] - states
        sq_sup[:, i] = np.max(np.sum(diff * diff, axis=2), axis=1)
    return sq_terminal, sq_sup, stats


def _per_hurst_loop(cfg):
    """Rate tables of one Hurst value after another, each run alone."""
    spec = resolve_drift(cfg)
    grid = Partition.uniform(cfg.t_final, round(cfg.t_final / cfg.master_mesh))
    reports = []
    for h in cfg.hurst_values:
        hv = HurstVector.constant(h, spec.dim)
        block = NoiseBlock.stack([sample_multi(grid, hv, child_seed(cfg.seed, i),
                                               method="circulant")
                                  for i in range(cfg.mc_paths)])
        sq_terminal, sq_sup, stats = _one_run_calls(cfg, spec, block)
        reports.append(_rate_report(cfg, h, sq_terminal, sq_sup, stats))
    return reports


def _csv_bytes(report):
    out = io.StringIO()
    write_rate_csv(report, out)
    return out.getvalue()


@pytest.mark.filterwarnings("error")
def test_diverged_em_rate_run_warns_nothing():
    # From (3, 3) at mesh 2^-3 some explicit paths blow up: their squared
    # errors are inf, the table reads Inf with a NaN stderr, and numpy's
    # deviation of inf must not leak a RuntimeWarning.
    cfg = rate_cfg(schemes=("em",), x0=(3.0, 3.0),
                   meshes=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5),
                   master_mesh=2.0 ** -7, mc_paths=9)
    (report,) = sweep_strong_error(cfg)
    assert _csv_bytes(report).splitlines()[1] == "0.125,Inf,NaN,"
    assert np.all(np.isfinite(report.errors[1:]))


@pytest.mark.parametrize("scheme", ["bem", "cn", "em"])
def test_sweep_equals_a_loop_of_single_hurst_runs(scheme):
    # Seven paths per Hurst value make 28 lanes, so blocks mix Hurst values
    # and split unevenly: 28, 14 + 14 and 10 + 9 + 9.
    cfg = rate_cfg(hurst_values=SWEEP_HURST, schemes=(scheme,), mc_paths=7,
                   sup_error=True)
    want = _per_hurst_loop(cfg)
    for threads in (1, 2, 3):
        got = sweep_strong_error(replace(cfg, threads=threads))
        assert [r.hurst for r in got] == list(SWEEP_HURST)
        assert [_csv_bytes(r) for r in got] == [_csv_bytes(r) for r in want]
        assert [r.solve_stats for r in got] == [r.solve_stats for r in want]
        assert [(r.slope, r.slope_stderr) for r in got] \
            == [(r.slope, r.slope_stderr) for r in want]


def test_sweep_failure_is_that_of_the_per_hurst_loop():
    # From x0 = (3, 3) with four Newton iterations, the finest mesh (ratio
    # 4) stalls first in master time, but the coarser mesh (ratio 8) comes
    # first in the configured order, and a loop of runs reports it.
    cfg = rate_cfg(x0=(3.0, 3.0), hurst_values=SWEEP_HURST,
                   meshes=(2.0 ** -3, 2.0 ** -4), master_mesh=2.0 ** -6, mc_paths=5,
                   seed=3, newton_max_iter=4)
    spec = resolve_drift(cfg)
    grid = Partition.uniform(1.0, 64)
    with pytest.raises(NoConvergenceError) as want:
        for h in cfg.hurst_values:
            hv = HurstVector.constant(h, 2)
            block = NoiseBlock.stack([sample_multi(grid, hv, child_seed(cfg.seed, i),
                                                   method="circulant")
                                      for i in range(cfg.mc_paths)])
            lowest_failure(partial(_one_run_calls, cfg, spec), block)
    finest = replace(cfg, meshes=(2.0 ** -4,))
    with pytest.raises(NoConvergenceError) as fine:
        sweep_strong_error(finest)
    assert str(fine.value) != str(want.value)
    for threads in (1, 3):
        with pytest.raises(NoConvergenceError) as err:
            sweep_strong_error(replace(cfg, threads=threads))
        assert str(err.value) == str(want.value)


def test_rate_report_rows_layout():
    report = mc_strong_error(rate_cfg(mc_paths=4))
    rows = list(report.rows())
    assert len(rows) == 3
    assert rows[0][0] == pytest.approx(2.0 ** -4)
    # first row has no pairwise order and no sup column by default
    assert rows[0][3] is None
    assert rows[1][3] is not None
    assert all(r[4] is None for r in rows)


# --- stability tables ---------------------------------------------------------------

def stability_cfg(**kw):
    base = dict(drift="example1", x0=(5.0,), t_final=0.72,
                hurst_values=(0.6,), schemes=("em", "cn", "bem"),
                meshes=(0.08,), master_mesh=0.0001, mc_paths=1, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


def test_stability_compare_emits_scheme_and_reference_rows():
    rows = stability_compare(stability_cfg())
    schemes = {r[0] for r in rows}
    assert schemes == {"em", "cn", "bem", "reference"}
    times = sorted({r[1] for r in rows if r[0] == "em"})
    assert times[0] == pytest.approx(0.08)
    assert times[-1] == pytest.approx(0.72)
    assert len(times) == 9
    # reference rows appear at the same coarse times
    ref_times = sorted({r[1] for r in rows if r[0] == "reference"})
    assert ref_times == times


def test_stability_compare_explicit_scheme_diverges_on_this_path():
    # seed 0 drives the explicit run into oscillatory blow-up at mesh 0.08
    # while the implicit run stays within the dissipative envelope
    rows = stability_compare(stability_cfg())
    em = [v for s, _, v in rows if s == "em"]
    bem = [v for s, _, v in rows if s == "bem"]
    assert np.abs(em).max() > 1e6
    assert np.isfinite(bem).all()
    assert np.abs(bem).max() <= 10.0


def test_stability_compare_zero_noise_tracks_the_flow():
    cfg = stability_cfg(x0=(1.0,), meshes=(0.005,), master_mesh=None,
                        zero_noise=True)
    rows = stability_compare(cfg)
    devs = {}
    for scheme, t, v in rows:
        if scheme == "reference":
            continue
        exact = 1.0 / np.sqrt(1.0 + 2.0 * t)
        devs.setdefault(scheme, []).append(abs(v - exact))
    assert max(max(d) for d in devs.values()) < 0.01
    # the trapezoidal scheme is second order: strictly tighter than EM here
    assert max(devs["cn"]) < max(devs["em"])


def test_bias_check_is_that_of_the_per_hurst_loop():
    # Hurst value 0.9 runs clean; with three Newton iterations 0.75 stalls
    # on path 2, which is lane 8 of the three-value pass.
    cfg = rate_cfg(x0=(0.5, 0.5), hurst_values=(0.9, 0.75, 0.6),
                   meshes=(2.0 ** -3, 2.0 ** -4), master_mesh=2.0 ** -6,
                   mc_paths=6, seed=4)
    want = [reference_bias_check(replace(cfg, hurst_values=(h,)))
            for h in cfg.hurst_values]
    assert all(len(shifts) == 1 for shifts in want)
    starved = replace(cfg, newton_max_iter=3)
    with pytest.raises(NoConvergenceError) as want_err:
        for h in cfg.hurst_values:
            reference_bias_check(replace(starved, hurst_values=(h,)))
    assert want_err.value.path == 2
    for threads in (1, 3):
        got = reference_bias_check(replace(cfg, threads=threads))
        assert [s.hex() for s in got] == [s.hex() for (s,) in want]
        with pytest.raises(NoConvergenceError) as err:
            reference_bias_check(replace(starved, threads=threads))
        assert (err.value.path, str(err.value)) \
            == (want_err.value.path, str(want_err.value))


def test_reference_bias_check_small_on_fine_master():
    cfg = ExperimentConfig(drift="example2", x0=(1.0, 1.0), t_final=1.0,
                           hurst_values=(0.6,), schemes=("bem",),
                           meshes=(2.0 ** -5,), master_mesh=2.0 ** -10,
                           mc_paths=40, seed=11)
    (shift,) = reference_bias_check(cfg)
    assert 0.0 <= shift < 0.10
