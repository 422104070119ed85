import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fbmsde import (
    ConfigError,
    DomainError,
    HurstVector,
    Partition,
    SolveConfig,
    StepTooLargeError,
    Trajectory,
    child_seed,
    coarsen,
    compute_U,
    fundamental_matrix_reference,
    limit_check,
    make_linear_drift,
    nested_indices,
    reference_solution,
    residual_grid,
    sample_multi,
    zero_path,
)
from fbmsde.drifts import CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC
from fbmsde.engine import (
    NoiseBlock,
    SolveStats,
    backward_euler_block,
    lowest_failure,
    sq_norms,
)
from fbmsde.harness import (
    Ensemble,
    LimitConfig,
    fit_order,
    map_blocks,
    validate_limit_config,
)
from fbmsde.integrate import fundamental_matrix_block
from fbmsde.limit import _limit_block, compute_U_block
from oracles import drift_drift_product, solve_U_ode

H07 = HurstVector.constant(0.7, 1)


BLOCK_CASES = {
    "cubic1d": (CUBIC1D, [1.5]),
    "doublewell1d": (DOUBLEWELL1D, [0.3]),
    "planar_cubic": (PLANAR_CUBIC, [1.0, 1.0]),
    "linear 2x2": (make_linear_drift(np.array([[-1.0, 3.0], [-0.5, -2.0]])),
                   [1.0, -0.5]),
}


def flat_traj(grid: Partition, value: float, drift: str = "doublewell1d") -> Trajectory:
    states = np.full((grid.times.size, 1), value)
    return Trajectory(grid=grid, states=states, scheme="reference",
                      drift=drift, path_seed=0)


def reference_block(spec, x0, paths=15, steps=256):
    """Noise block and implicit Euler states of ``paths`` lanes."""
    grid = Partition.uniform(1.0, steps)
    hv = HurstVector.constant(0.7, spec.dim)
    block = NoiseBlock.stack([sample_multi(grid, hv, child_seed(23, i),
                                           method="circulant")
                              for i in range(paths)])
    return block, backward_euler_block(spec, block, np.array(x0))[0]


def lane_trajectory(spec, block, states, lane):
    return Trajectory(grid=block.grid, states=states[lane], scheme="bem",
                      drift=spec.name, path_seed=block.seeds[lane])


# Per-node and per-interval formulas, one state and one Python call at a
# time; the block forms must reproduce them.

def per_node_flow(spec, traj):
    times = traj.grid.times
    eye = np.eye(spec.dim)
    mats = [eye]
    for k in range(times.size - 1):
        half = 0.5 * (times[k + 1] - times[k])
        mats.append(np.linalg.solve(
            eye - half * np.asarray(spec.jacobian(traj.states[k + 1])),
            (eye + half * np.asarray(spec.jacobian(traj.states[k]))) @ mats[-1]))
    return np.stack(mats)


def per_node_u(spec, traj, phi, noise, kt):
    times = traj.grid.times
    m = spec.dim
    forcing = np.empty((kt, m))
    for j in range(kt):
        x_j = traj.states[j]
        forcing[j] = np.asarray(spec.jacobian(x_j)) @ (
            np.asarray(spec.eval(x_j)) * (times[j + 1] - times[j])
            + (noise.values[j + 1] - noise.values[j]))
    lhs = np.transpose(phi[:kt], (0, 2, 1))
    rhs = np.broadcast_to(phi[kt].T, (kt, m, m))
    flows = np.transpose(np.linalg.solve(lhs, rhs), (0, 2, 1))
    return 0.5 * np.einsum("jab,jb->a", flows, forcing)


def per_interval_bundle(spec, traj, noise, coarse, k):
    idx = nested_indices(coarse, traj.grid)
    i0, i1 = int(idx[k]), int(idx[k + 1])
    seg_times = traj.grid.times[i0:i1 + 1]
    delta = float(seg_times[-1] - seg_times[0])
    b_seg = np.stack([np.asarray(spec.eval(traj.states[j]), dtype=np.float64)
                      for j in range(i0, i1 + 1)])
    r = np.trapezoid(b_seg - b_seg[-1], x=seg_times, axis=0)
    r1 = drift_drift_product(spec, traj.states[i0]) * (delta**2) / 2.0
    tail = noise.values[i1] - noise.values[i0:i1 + 1]
    r2 = np.asarray(spec.jacobian(traj.states[i0]), dtype=np.float64) \
        @ np.trapezoid(tail, x=seg_times, axis=0)
    return r, r1, r2, r + r1 + r2


# --- residual decomposition oracles -------------------------------------------

def test_residual_drift_term_hand_value():
    # constant state 2.0, one interval of length 0.1, zero noise:
    # r1 = (Jb b)(2) dt^2 / 2 = 66 * 0.01 / 2 = 0.33 and r = r2 = 0
    g = Partition.uniform(0.1, 1)
    traj = flat_traj(g, 2.0)
    noise = zero_path(g, H07)
    grid = residual_grid(DOUBLEWELL1D, traj, noise, g)
    assert grid.r[0] == pytest.approx([0.0], abs=1e-15)
    assert grid.r1[0] == pytest.approx([0.33], rel=1e-12)
    assert grid.r2[0] == pytest.approx([0.0], abs=1e-15)
    assert grid.rhat[0] == pytest.approx([0.33], rel=1e-12)
    assert grid.rhat.shape == (1, 1)


def test_residual_noise_term_hand_value():
    # B = (0, 0.3) on one interval of length 0.1: the trapezoid of
    # B_{t1} - B_s is 0.015, scaled by J(2) = -11 gives -0.165
    from fbmsde import FbmPath

    g = Partition.uniform(0.1, 1)
    traj = flat_traj(g, 2.0)
    noise_path = FbmPath(g, np.array([[0.0], [0.3]]), H07, 0)
    grid = residual_grid(DOUBLEWELL1D, traj, noise_path, g)
    assert grid.r2[0] == pytest.approx([-0.165], rel=1e-12)
    assert grid.r[0] == pytest.approx([0.0], abs=1e-15)


def test_residual_quadrature_hand_value():
    # two fine steps per coarse interval; states 2.0, 1.5, 1.0 under the
    # double-well drift have b = -6, -1.875, 0, so the trapezoid of
    # b(X_s) - b(X_1) over [0, 0.1] is 0.025 * ((-6) + 2 * (-1.875)) = -0.24375
    fine = Partition.uniform(0.1, 2)
    coarse = fine.subsample(2)
    states = np.array([[2.0], [1.5], [1.0]])
    traj = Trajectory(grid=fine, states=states, scheme="reference",
                      drift="doublewell1d", path_seed=0)
    noise = zero_path(fine, H07)
    grid = residual_grid(DOUBLEWELL1D, traj, noise, coarse)
    assert grid.r[0] == pytest.approx([-0.24375], rel=1e-12)
    # r1 uses the left state: (Jb b)(2) * 0.1^2 / 2
    assert grid.r1[0] == pytest.approx([0.33], rel=1e-12)


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_residual_grid_matches_the_per_interval_formula_to_the_bit(name):
    spec, x0 = BLOCK_CASES[name]
    block, states = reference_block(spec, x0, paths=2)
    fine = block.grid
    uneven = Partition(fine.times[[0, 3, 4, 20, 64, 65, 200, 256]])
    for lane in range(2):
        traj = lane_trajectory(spec, block, states, lane)
        noise = block.path(lane)
        for coarse in (fine.subsample(2), fine.subsample(8), fine.subsample(64),
                       uneven):
            grid = residual_grid(spec, traj, noise, coarse)
            assert grid.rhat.shape == (coarse.n_steps, spec.dim)
            for k in range(coarse.n_steps):
                want = per_interval_bundle(spec, traj, noise, coarse, k)
                got = (grid.r[k], grid.r1[k], grid.r2[k], grid.rhat[k])
                assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_residual_rates_match_smoothness_of_the_path():
    # corrected defect r_hat contracts like dt^{2H + 1} in the mean across
    # intervals; the raw exponent fitted over dyadic meshes lands nearby.
    # The maximum over the n intervals sits below 2H + 1: r_hat is led by
    # dt |dB_k|^2, and the maximum of n such terms carries a log n factor,
    # which over n = 2^4..2^7 lowers the fitted slope by ln(7/4) / (3 ln 2) ~ 0.27
    spec = PLANAR_CUBIC
    x0 = np.array([1.0, 1.0])
    hv = HurstVector.constant(0.7, 2)
    gm = Partition.uniform(1.0, 2 ** 11)
    ks = (4, 5, 6, 7)

    def rhat_norms(block):
        states, _ = backward_euler_block(spec, block, x0)
        means = np.zeros((states.shape[0], len(ks)))
        maxs = np.zeros((states.shape[0], len(ks)))
        for lane in range(states.shape[0]):
            traj = lane_trajectory(spec, block, states, lane)
            for i, k in enumerate(ks):
                coarse = gm.subsample(2 ** 11 // 2 ** k)
                norms = np.sqrt(sq_norms(
                    residual_grid(spec, traj, block.path(lane), coarse).rhat))
                means[lane, i] = np.mean(norms)
                maxs[lane, i] = np.max(norms)
        return means, maxs

    blocks = map_blocks(rhat_norms, Ensemble(grid=gm, hursts=(hv,), paths=8, seed=31))
    means = np.concatenate([b[0] for b in blocks])
    maxs = np.concatenate([b[1] for b in blocks])
    meshes = [2.0 ** -k for k in ks]
    mean_slope, _ = fit_order(meshes, means.mean(axis=0))
    max_slope, _ = fit_order(meshes, maxs.mean(axis=0))
    assert 2.1 <= mean_slope <= 2.7          # 2H + 1 = 2.4 at H = 0.7
    assert max_slope >= 2.0


# --- the limit process ----------------------------------------------------------

def test_compute_u_is_zero_at_time_origin():
    g = Partition.uniform(1.0, 8)
    noise = sample_multi(g, H07, seed=1, method="circulant")
    traj = reference_solution(CUBIC1D, noise, np.array([1.0]))
    phi = fundamental_matrix_reference(CUBIC1D, traj)
    assert np.array_equal(compute_U(CUBIC1D, traj, phi, noise, 0.0), np.zeros(1))


def test_compute_u_vanishes_at_equilibrium_without_noise():
    # at the stable well x = 1 with no noise both integrands vanish
    g = Partition.uniform(1.0, 16)
    traj = flat_traj(g, 1.0)
    noise = zero_path(g, H07)
    phi = fundamental_matrix_reference(DOUBLEWELL1D, traj)
    u = compute_U(DOUBLEWELL1D, traj, phi, noise, 1.0)
    assert u == pytest.approx([0.0], abs=1e-14)


def test_compute_u_scalar_left_point_oracle():
    # independent scalar reimplementation with plain Python loops
    lam = -1.0
    spec = make_linear_drift(np.array([[lam]]), name="decay")
    g = Partition.uniform(1.0, 16)
    noise = sample_multi(g, H07, seed=9, method="circulant")
    traj = reference_solution(spec, noise, np.array([1.0]))
    phi = fundamental_matrix_reference(spec, traj)
    kt = 16
    phis = phi.matrices[:, 0, 0]
    acc = 0.0
    for j in range(kt):
        dt = g.times[j + 1] - g.times[j]
        db = noise.values[j + 1, 0] - noise.values[j, 0]
        bx = lam * traj.states[j, 0]
        acc += (phis[kt] / phis[j]) * lam * (bx * dt + db)
    oracle = 0.5 * acc
    got = compute_U(spec, traj, phi, noise, 1.0)
    assert got[0] == pytest.approx(oracle, rel=1e-12)


def test_compute_u_requires_shared_grid_and_node():
    g = Partition.uniform(1.0, 8)
    noise = sample_multi(g, H07, seed=1, method="circulant")
    traj = reference_solution(CUBIC1D, noise, np.array([1.0]))
    phi = fundamental_matrix_reference(CUBIC1D, traj)
    from fbmsde import GridError

    other = zero_path(Partition.uniform(1.0, 4), H07)
    with pytest.raises(GridError):
        compute_U(CUBIC1D, traj, phi, other, 1.0)
    with pytest.raises(GridError):
        compute_U(CUBIC1D, traj, phi, noise, 0.33)


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_flow_and_u_lanes_do_not_depend_on_block_size(name):
    spec, x0 = BLOCK_CASES[name]
    block, states = reference_block(spec, x0)
    grid = block.grid
    flows = fundamental_matrix_block(spec, grid, states)
    for kt in (100, grid.n_steps):
        u = compute_U_block(spec, grid, states, flows, block.values, kt)
        for size in (1, 7, 15):
            for start in range(0, 15, size):
                part = slice(start, start + size)
                part_flows = fundamental_matrix_block(spec, grid, states[part])
                assert np.array_equal(part_flows, flows[part])
                assert np.array_equal(compute_U_block(
                    spec, grid, states[part], part_flows, block.values[part], kt),
                    u[part])


@pytest.mark.parametrize("name", sorted(BLOCK_CASES))
def test_one_lane_flow_and_u_match_the_per_node_formulas(name):
    spec, x0 = BLOCK_CASES[name]
    block, states = reference_block(spec, x0, paths=3)
    for lane in range(3):
        traj = lane_trajectory(spec, block, states, lane)
        phi = fundamental_matrix_reference(spec, traj)
        flow = per_node_flow(spec, traj)
        if spec.dim == 1:
            # The flow's division has the bits of the 1x1 LU solve.
            assert np.array_equal(phi.matrices, flow)
        else:
            # Cramer's rule against LAPACK, over 256 nodes; 5e-15 measured.
            assert np.max(np.abs(phi.matrices - flow)) <= 1e-13 * np.max(np.abs(flow))
        for t in (0.5, 1.0):
            got = compute_U(spec, traj, phi, block.path(lane), t)
            want = per_node_u(spec, traj, phi.matrices, block.path(lane),
                              traj.grid.index_of(t))
            assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_flow_failure_names_the_lowest_failing_path():
    # A noise jump of 50 lifts the cubic's state near 20 for a step, where
    # 1 - (dt / 2) 3 x^2 < 0 flips the sign of the flow: on path 41 after
    # step 5 and on path 43 after step 0.  The coarse runs stay solvable.
    grid = Partition.uniform(1.0, 256)
    values = np.zeros((4, grid.times.size, 1))
    for lane, (step, size) in enumerate([(0, 0.1), (5, 50.0), (0, -0.1), (0, 50.0)]):
        values[lane, step + 1:, 0] = size
    block = NoiseBlock(grid=grid, values=values,
                       hursts=(HurstVector.constant(0.7, 1),) * 4,
                       indices=tuple(range(40, 44)), seeds=tuple(range(100, 104)))
    x0 = np.array([1.0])
    cfg = SolveConfig()
    states, _ = backward_euler_block(CUBIC1D, block, x0, cfg)
    with pytest.raises(StepTooLargeError) as scalar:
        fundamental_matrix_reference(CUBIC1D, lane_trajectory(CUBIC1D, block, states, 1))
    want = f"{scalar.value} (path 41, path seed 101)"
    with pytest.raises(StepTooLargeError) as lanes:
        fundamental_matrix_block(CUBIC1D, grid, states)
    assert lanes.value.path == 1 and str(lanes.value) == str(scalar.value)
    for size in (1, 4):
        with pytest.raises(StepTooLargeError) as err:
            for start in range(0, 4, size):
                part = block.select(slice(start, start + size))
                lowest_failure(lambda b: _limit_block(CUBIC1D, x0, (8, 16), b), part)
        assert err.value.path == 41
        assert str(err.value) == want


def test_solve_u_ode_zero_field_stays_zero():
    spec = make_linear_drift(np.array([[0.0]]), name="zero1")
    g = Partition.uniform(1.0, 32)
    noise = sample_multi(g, H07, seed=2, method="circulant")
    traj = reference_solution(spec, noise, np.array([0.5]))
    u = solve_U_ode(spec, traj, noise)
    assert not u.states.any()
    assert u.scheme == "error_sde"


def test_solve_u_ode_scalar_recursion_oracle():
    g = Partition.uniform(1.0, 16)
    noise = sample_multi(g, H07, seed=4, method="circulant")
    traj = reference_solution(CUBIC1D, noise, np.array([1.0]))
    got = solve_U_ode(CUBIC1D, traj, noise)
    u = 0.0
    xs = traj.states[:, 0]
    for k in range(16):
        dt = g.times[k + 1] - g.times[k]
        db = noise.values[k + 1, 0] - noise.values[k, 0]
        jac_r = -3.0 * xs[k + 1] ** 2
        ddb_r = jac_r * (-xs[k + 1] ** 3)
        jac_l = -3.0 * xs[k] ** 2
        u = (u + 0.5 * ddb_r * dt + 0.5 * jac_l * db) / (1.0 - dt * jac_r)
        assert got.states[k + 1, 0] == pytest.approx(u, rel=1e-12, abs=1e-14)


def test_flow_semigroup_on_constant_jacobian():
    # uniform mesh and a state-independent Jacobian make the flow a power
    # of one step matrix, so nodes compose multiplicatively
    rot = make_linear_drift(np.array([[-0.5, 1.0], [-1.0, -0.5]]), name="spiral")
    g = Partition.uniform(1.0, 16)
    traj = reference_solution(rot, zero_path(g, HurstVector.constant(0.7, 2)),
                              np.array([1.0, 0.0]))
    phi = fundamental_matrix_reference(rot, traj)
    assert np.allclose(phi.matrices[8] @ phi.matrices[8], phi.matrices[16],
                       rtol=1e-10)


@pytest.mark.slow
def test_limit_evaluations_refine_as_cauchy_sequences():
    # grid refinement n = 64 -> 128 -> 256 shrinks consecutive differences
    # of both evaluators; means calibrated near 0.66 at H = 0.8
    spec = PLANAR_CUBIC
    x0 = np.array([1.0, 1.0])
    hv = HurstVector.constant(0.8, 2)
    gm = Partition.uniform(1.0, 512)
    u_ratios, v_ratios = [], []
    for s in range(8):
        noise = sample_multi(gm, hv, child_seed(101, s), method="circulant")
        us, vs = [], []
        for n in (64, 128, 256):
            cg = gm.subsample(512 // n)
            cn_noise = coarsen(noise, cg)
            ct = reference_solution(spec, cn_noise, x0)
            cphi = fundamental_matrix_reference(spec, ct)
            us.append(compute_U(spec, ct, cphi, cn_noise, 1.0))
            vs.append(solve_U_ode(spec, ct, cn_noise).states[-1])
        u_ratios.append(np.linalg.norm(us[2] - us[1]) / np.linalg.norm(us[1] - us[0]))
        v_ratios.append(np.linalg.norm(vs[2] - vs[1]) / np.linalg.norm(vs[1] - vs[0]))
        assert u_ratios[-1] < 1.0
        assert v_ratios[-1] < 1.0
    assert np.mean(u_ratios) <= 0.85
    assert np.mean(v_ratios) <= 0.85


def test_two_limit_evaluators_agree_to_leading_order():
    # same path, same grid: the quadrature and the one-step recursion solve
    # the same linear equation up to higher-order terms
    g = Partition.uniform(1.0, 256)
    noise = sample_multi(g, H07, seed=6, method="circulant")
    traj = reference_solution(CUBIC1D, noise, np.array([1.0]))
    phi = fundamental_matrix_reference(CUBIC1D, traj)
    u_quad = compute_U(CUBIC1D, traj, phi, noise, 1.0)
    u_ode = solve_U_ode(CUBIC1D, traj, noise).states[-1]
    assert np.linalg.norm(u_quad - u_ode) <= 0.1 * max(np.linalg.norm(u_quad), 1e-3)


# --- Monte Carlo comparison harness ----------------------------------------------

def test_limit_check_zero_drift_gives_exact_zeros():
    spec = make_linear_drift(np.array([[0.0]]), name="zero1")
    out, _ = limit_check(spec, np.array([0.3]), 0.7, 1.0, (4, 8), mc_paths=3, seed=0)
    assert out.n_values == (4, 8)
    # trajectories only differ through float summation order, U is exactly 0
    assert (out.lp_distances < 1e-10).all()
    assert np.array_equal(out.mean_abs_u, np.zeros(2))


def test_limit_check_smoke_fields():
    spec = make_linear_drift(np.array([[-1.0]]), name="decay")
    out, _ = limit_check(spec, np.array([1.0]), 0.7, 1.0, (8, 16), mc_paths=6, seed=3)
    assert out.p == 1.0
    assert out.lp_distances.shape == (2,)
    assert (out.lp_distances > 0.0).all()
    assert (out.stderrs > 0.0).all()
    assert (out.mean_abs_nz > 0.0).all()
    assert np.isfinite(out.mean_abs_u).all()


def test_limit_check_validates_inputs():
    with pytest.raises(DomainError):
        limit_check(CUBIC1D, np.array([1.0]), 0.7, 1.0, (8,), 2, 0, p=2.5)
    with pytest.raises(DomainError):
        limit_check(CUBIC1D, np.array([1.0]), 0.7, 1.0, (8,), 2, 0, p=0.5)
    with pytest.raises(ConfigError):
        limit_check(CUBIC1D, np.array([1.0]), 0.7, 1.0, (3, 8), 2, 0)
    # The settings are checked before t = 0 returns zeros.
    with pytest.raises(ConfigError, match="master_factor must be >= 2"):
        limit_check(CUBIC1D, np.array([1.0]), 0.7, 0.0, (4, 8), 2, 0, master_factor=1)


LIMIT_SETTINGS = dict(drift="linear", x0=(1.0,), hurst=0.7, t=1.0, n_values=(8, 16),
                      p=1.0, mc_paths=4, master_factor=8, seed=3, threads=1, out=None,
                      linear_matrix=((-1.0,),))


@pytest.mark.parametrize("bad, error, message", [
    ({"n_values": ()}, ConfigError,
     "n_values must be a nonempty list of positive integers"),
    ({"p": 2.5}, DomainError, "p must lie in [1, 2), got 2.5"),
    ({"mc_paths": 0}, ConfigError, "mc_paths must be >= 1, got 0"),
    ({"threads": 0}, ConfigError, "threads must be >= 1, got 0"),
    ({"master_factor": 1}, ConfigError,
     "master_factor must be >= 2 so the reference is finer"),
    ({"n_values": (12, 16)}, ConfigError,
     "n = 12 does not divide the master step count 128"),
])
def test_limit_check_raises_the_issue_the_config_validation_lists(bad, error, message):
    cfg = LimitConfig(**{**LIMIT_SETTINGS, **bad})
    with pytest.raises(ConfigError) as listed:
        validate_limit_config(cfg)
    assert listed.value.issues == [message]
    with pytest.raises(error) as raised:
        limit_check(make_linear_drift(np.array([[-1.0]])), np.array(cfg.x0), cfg.hurst,
                    cfg.t, cfg.n_values, cfg.mc_paths, cfg.seed, p=cfg.p,
                    master_factor=cfg.master_factor, threads=cfg.threads)
    assert str(raised.value) == message


def test_limit_check_time_origin_short_circuits():
    out, stats = limit_check(CUBIC1D, np.array([1.0]), 0.7, 0.0, (4, 8), 2, 0)
    assert stats == SolveStats()
    assert np.array_equal(out.lp_distances, np.zeros(2))
    assert np.array_equal(out.mean_abs_nz, np.zeros(2))


CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


def _checks_module():
    spec = importlib.util.spec_from_file_location("perfbench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_linear_limit_check_equals_its_closed_form():
    # Backward Euler on b(x) = -x is y' = (y + dB) / (1 + dt): the direct
    # solve computes just that division, where Newton's iterate rounded
    # apart from it by up to a few 1e-13 relative in the table.
    checks = _checks_module()
    n_values, paths, seed = (32, 64, 128, 256), 24, 20250800
    comparison, stats = limit_check(make_linear_drift(np.array([[-1.0]])), np.array([1.0]),
                                    0.7, 1.0, n_values, paths, seed)
    values = np.stack([checks._noise(8 * 256, 1.0, 0.7, 1, child_seed(seed, i)).values[:, 0]
                       for i in range(paths)])
    want = checks.linear_limit_closed_form(values, n_values)
    for column, got in [("lp_distance", comparison.lp_distances),
                        ("stderr", comparison.stderrs),
                        ("mean_abs_nZ", comparison.mean_abs_nz),
                        ("mean_abs_U", comparison.mean_abs_u)]:
        assert np.max(np.abs(got - want[column]) / np.abs(want[column])) <= 1e-13, column
    assert stats.fallbacks == 0
