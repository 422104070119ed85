import numpy as np
import pytest
from scipy.linalg import expm

from fbmsde import (
    DomainError,
    GridError,
    HurstVector,
    NoConvergenceError,
    Partition,
    SolveConfig,
    StepTooLargeError,
    Trajectory,
    backward_euler,
    child_seed,
    coarsen,
    crank_nicolson,
    forward_euler,
    fundamental_matrix_fb_euler,
    fundamental_matrix_reference,
    interpolate_backward,
    make_linear_drift,
    reference_solution,
    sample_multi,
    zero_path,
)
from fbmsde.drifts import CUBIC1D, PLANAR_CUBIC
from fbmsde.engine import backward_euler_block
from fbmsde.harness import Ensemble, map_blocks

H07 = HurstVector.constant(0.7, 1)
DECAY = make_linear_drift(np.array([[-1.0]]), name="decay")
ZERO1 = make_linear_drift(np.array([[0.0]]), name="zero1")


# --- closed forms on linear problems -----------------------------------------

def test_backward_euler_linear_closed_form():
    g = Partition.uniform(1.0, 10)
    traj = backward_euler(DECAY, zero_path(g, H07), np.array([1.0]))
    expected = (1.0 + 0.1) ** -np.arange(11)
    assert np.allclose(traj.states[:, 0], expected, rtol=1e-12)
    assert traj.scheme == "bem"
    assert traj.drift == "decay"


def test_forward_euler_linear_closed_form():
    g = Partition.uniform(1.0, 10)
    traj = forward_euler(DECAY, zero_path(g, H07), np.array([1.0]))
    expected = (1.0 - 0.1) ** np.arange(11)
    assert np.allclose(traj.states[:, 0], expected, rtol=1e-12)
    assert traj.scheme == "em"


def test_crank_nicolson_linear_closed_form():
    g = Partition.uniform(1.0, 10)
    traj = crank_nicolson(DECAY, zero_path(g, H07), np.array([1.0]))
    expected = ((1.0 - 0.05) / (1.0 + 0.05)) ** np.arange(11)
    assert np.allclose(traj.states[:, 0], expected, rtol=1e-12)
    assert traj.scheme == "cn"


def test_zero_drift_reproduces_shifted_noise():
    g = Partition.uniform(1.0, 64)
    noise = sample_multi(g, H07, seed=7, method="circulant")
    x0 = np.array([2.5])
    shifted = x0 + noise.values
    bem = backward_euler(ZERO1, noise, x0)
    em = forward_euler(ZERO1, noise, x0)
    cn = crank_nicolson(ZERO1, noise, x0)
    for traj in (bem, em, cn):
        assert np.allclose(traj.states, shifted, atol=1e-12)
    # all three schemes perform identical arithmetic when b = 0
    assert np.array_equal(bem.states, em.states)
    assert np.array_equal(bem.states, cn.states)


def test_reference_solution_is_relabelled_backward_euler():
    g = Partition.uniform(1.0, 16)
    noise = sample_multi(g, H07, seed=3, method="circulant")
    ref = reference_solution(CUBIC1D, noise, np.array([1.0]))
    bem = backward_euler(CUBIC1D, noise, np.array([1.0]))
    assert ref.scheme == "reference"
    assert np.array_equal(ref.states, bem.states)


# --- stability behavior on the steep cubic -----------------------------------

def test_forward_euler_diverges_on_coarse_mesh():
    # x0 = 5, mesh 0.08: the explicit cubic step leaves the basin and the
    # overflow is recorded as non-finite states, not raised
    g = Partition.uniform(0.72, 9)
    hv = HurstVector.constant(0.6, 1)
    noise = sample_multi(g, hv, child_seed(0, 0), method="circulant")
    traj = forward_euler(CUBIC1D, noise, np.array([5.0]))
    assert not np.isfinite(traj.states).all()
    assert np.isfinite(traj.states[0]).all()


def test_noise_free_coarse_mesh_premises():
    # mesh 0.08 from x0 = 5: 5 - 0.08 * 5^3 = -5, so explicit Euler sits on
    # the 2-cycle +-5, whose multiplier -5 amplifies rounding five-fold per
    # step; the drift trapezoid solves y1 + 0.04 y1^3 = 5 - 0.04 * 5^3 = 0,
    # lands on 0 and never grows
    g = Partition.uniform(0.72, 9)
    noise = zero_path(g, HurstVector.constant(0.6, 1))
    x0 = np.array([5.0])
    em = forward_euler(CUBIC1D, noise, x0)
    cycle = 5.0 * (-1.0) ** np.arange(10)
    assert np.allclose(em.states[:, 0], cycle, rtol=0.0, atol=1e-9)
    cn = crank_nicolson(CUBIC1D, noise, x0)
    size = np.abs(cn.states[:, 0])
    assert size[1] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(size) <= 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_crank_nicolson_finite_on_coarse_mesh(seed):
    # the trapezoidal step keeps the implicit half of the cubic: it stays
    # finite at mesh 0.08 from x0 = 5 on every sampled path tried
    g = Partition.uniform(0.72, 9)
    hv = HurstVector.constant(0.6, 1)
    noise = sample_multi(g, hv, child_seed(seed, 0), method="circulant")
    traj = crank_nicolson(CUBIC1D, noise, np.array([5.0]), stability_mode=True)
    assert np.isfinite(traj.states).all()


def test_backward_euler_finite_on_coarse_mesh():
    g = Partition.uniform(0.72, 9)
    hv = HurstVector.constant(0.6, 1)
    noise = sample_multi(g, hv, child_seed(0, 0), method="circulant")
    traj = backward_euler(CUBIC1D, noise, np.array([5.0]))
    assert np.isfinite(traj.states).all()
    assert np.abs(traj.states).max() <= 10.0


@pytest.mark.parametrize("seed", range(4))
def test_finer_mesh_restores_explicit_scheme(seed):
    # at mesh 0.02 explicit Euler stays bounded and the trapezoidal scheme
    # lands closer to the fine-mesh solution at t = 0.08
    x0 = np.array([5.0])
    hv = HurstVector.constant(0.6, 1)
    gm = Partition.uniform(0.72, 3600)
    g36 = gm.subsample(100)
    master = sample_multi(gm, hv, child_seed(seed, 0), method="circulant")
    noise = coarsen(master, g36)
    ref = reference_solution(CUBIC1D, master, x0)
    em = forward_euler(CUBIC1D, noise, x0)
    cn = crank_nicolson(CUBIC1D, noise, x0)
    assert np.isfinite(em.states).all()
    assert np.abs(em.states).max() <= 10.0
    e_em = abs(em.states[4, 0] - ref.states[400, 0])
    e_cn = abs(cn.states[4, 0] - ref.states[400, 0])
    assert e_cn < e_em


@pytest.mark.parametrize("seed,x0,steps", [(0, 10.0, 9), (1, -7.0, 18), (2, 3.0, 720)])
def test_implicit_cubic_dissipativity_envelope(seed, x0, steps):
    # sup |Y_k|  <=  |x0| + 2 sup |B_t| + 1 for the implicit scheme
    g = Partition.uniform(0.72, steps)
    hv = HurstVector.constant(0.7, 1)
    noise = sample_multi(g, hv, child_seed(seed, 0), method="circulant")
    traj = backward_euler(CUBIC1D, noise, np.array([x0]))
    bound = abs(x0) + 2.0 * np.abs(noise.values).max() + 1.0
    assert np.abs(traj.states).max() <= bound


# --- input validation ---------------------------------------------------------

def test_schemes_require_hurst_above_half():
    g = Partition.uniform(1.0, 8)
    rough = zero_path(g, HurstVector.constant(0.5, 1))
    for scheme in (backward_euler, forward_euler):
        with pytest.raises(DomainError):
            scheme(CUBIC1D, rough, np.array([1.0]))
    with pytest.raises(DomainError):
        crank_nicolson(CUBIC1D, rough, np.array([1.0]))


def test_schemes_validate_state_and_dim():
    g = Partition.uniform(1.0, 8)
    noise = zero_path(g, H07)
    with pytest.raises(DomainError):
        backward_euler(CUBIC1D, noise, np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        backward_euler(PLANAR_CUBIC, noise, np.array([1.0, 2.0]))  # 1-d noise
    with pytest.raises(DomainError):
        backward_euler(CUBIC1D, noise, np.array([np.nan]))


@pytest.mark.parametrize("start", [np.nan, np.inf, -np.inf])
def test_every_scheme_rejects_a_non_finite_start(start):
    from fbmsde.engine import NoiseBlock, backward_euler_block

    g = Partition.uniform(1.0, 4)
    noise = sample_multi(g, H07, seed=0, method="circulant")
    x0 = np.array([start])
    runs = [lambda: backward_euler(CUBIC1D, noise, x0),
            lambda: forward_euler(CUBIC1D, noise, x0),
            lambda: crank_nicolson(CUBIC1D, noise, x0, stability_mode=True)]
    runs += [lambda theta=theta: backward_euler_block(
        CUBIC1D, NoiseBlock.stack([noise]), x0, theta=theta)
        for theta in (0.0, 0.5, 1.0)]
    for run in runs:
        with pytest.raises(DomainError, match="start x0 must be finite"):
            run()


def test_mesh_guard_reports_before_stepping():
    from fbmsde.drifts import DOUBLEWELL1D

    g = Partition.uniform(2.0, 2)      # mesh 1.0, kappa 1.0
    noise = zero_path(g, H07)
    with pytest.raises(StepTooLargeError):
        backward_euler(DOUBLEWELL1D, noise, np.array([0.0]))
    # the trapezoidal scheme only commits half the step to the solver
    traj = crank_nicolson(DOUBLEWELL1D, noise, np.array([0.5]))
    assert np.isfinite(traj.states).all()


def test_solver_failure_carries_step_index():
    g = Partition.uniform(1.0, 4)
    noise = zero_path(g, HurstVector.constant(0.7, 2))
    cfg = SolveConfig(tol=1e-12, max_iter=1)
    with pytest.raises(NoConvergenceError) as err:
        backward_euler(PLANAR_CUBIC, noise, np.array([3.0, 3.0]), cfg)
    assert err.value.step == 0
    assert str(err.value).startswith("step 0:")


def test_trajectory_shape_validation():
    g = Partition.uniform(1.0, 4)
    with pytest.raises(DomainError):
        Trajectory(grid=g, states=np.zeros((4, 1)), scheme="bem",
                   drift="cubic1d", path_seed=0)


# --- continuous interpolant ----------------------------------------------------

def test_interpolant_agrees_at_grid_nodes():
    gm = Partition.uniform(1.0, 64)
    coarse = gm.subsample(8)
    noise = sample_multi(gm, H07, seed=5, method="circulant")
    traj = backward_euler(CUBIC1D, coarsen(noise, coarse), np.array([1.0]))
    for k in (1, 3, 8):
        t = float(coarse.times[k])
        val = interpolate_backward(CUBIC1D, noise, traj, t)
        assert val[0] == pytest.approx(traj.states[k, 0], abs=1e-9)


def test_interpolant_linear_oracle_between_nodes():
    gm = Partition.uniform(1.0, 16)
    coarse = gm.subsample(4)
    noise = zero_path(gm, H07)
    traj = backward_euler(DECAY, coarsen(noise, coarse), np.array([1.0]))
    # t = 0.3125 sits one master step past the coarse node 0.25
    val = interpolate_backward(DECAY, noise, traj, 0.3125)
    assert val[0] == pytest.approx(traj.states[1, 0] / 1.0625, rel=1e-12)


def test_interpolant_input_validation():
    gm = Partition.uniform(1.0, 16)
    coarse = gm.subsample(4)
    noise = zero_path(gm, H07)
    traj = backward_euler(DECAY, coarsen(noise, coarse), np.array([1.0]))
    with pytest.raises(GridError):
        interpolate_backward(DECAY, noise, traj, 0.3)     # not a master node
    with pytest.raises(DomainError):
        interpolate_backward(DECAY, noise, traj, 0.0)
    with pytest.raises(DomainError):
        interpolate_backward(DECAY, noise, traj, 1.5)


# --- linearization flows ---------------------------------------------------------

def test_reference_flow_matches_exponential():
    # constant Jacobian: the trapezoidal flow converges to expm at rate 2
    rot = make_linear_drift(np.array([[0.0, 1.0], [-1.0, 0.0]]), name="rot")
    errs = []
    for n in (256, 512):
        g = Partition.uniform(1.0, n)
        traj = backward_euler(rot, zero_path(g, HurstVector.constant(0.7, 2)),
                              np.array([1.0, 0.0]))
        flow = fundamental_matrix_reference(rot, traj)
        exact = expm(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        errs.append(np.linalg.norm(flow.matrices[-1] - exact))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.0


def test_reference_flow_scalar_closed_form():
    g = Partition.uniform(1.0, 20)
    traj = backward_euler(DECAY, zero_path(g, H07), np.array([1.0]))
    flow = fundamental_matrix_reference(DECAY, traj)
    h = 0.05
    expected = ((1.0 - h / 2.0) / (1.0 + h / 2.0)) ** np.arange(21)
    assert np.allclose(flow.matrices[:, 0, 0], expected, rtol=1e-12)
    assert flow.scheme == "reference"


def test_reference_flow_rejects_sign_flip():
    grow = make_linear_drift(np.array([[3.0]]), name="grow3")
    g = Partition.uniform(2.0, 2)      # mesh 1.0: 1 - 1.5 < 0 flips the sign
    traj = Trajectory(grid=g, states=np.zeros((3, 1)), scheme="bem",
                      drift="grow3", path_seed=0)
    with pytest.raises(StepTooLargeError):
        fundamental_matrix_reference(grow, traj)


def test_fb_euler_flow_scalar_closed_form():
    gm = Partition.uniform(1.0, 40)
    coarse = gm.subsample(2)
    traj = backward_euler(DECAY, zero_path(gm, H07), np.array([1.0]))
    flow = fundamental_matrix_fb_euler(DECAY, traj, coarse)
    expected = (1.0 + 0.05) ** -np.arange(21)
    assert np.allclose(flow.matrices[:, 0, 0], expected, rtol=1e-12)
    assert flow.scheme == "forward_backward"
    assert flow.grid == coarse


def test_fb_euler_flow_single_step_inverse():
    mat = np.array([[0.2, -0.4], [0.3, 0.1]])
    lin = make_linear_drift(mat, name="lin2")
    g = Partition.uniform(0.5, 1)
    traj = backward_euler(lin, zero_path(g, HurstVector.constant(0.7, 2)),
                          np.array([1.0, 1.0]))
    flow = fundamental_matrix_fb_euler(lin, traj, g)
    oracle = np.linalg.inv(np.eye(2) - 0.5 * mat)
    assert np.allclose(flow.matrices[1], oracle, rtol=1e-12)


def test_fb_euler_flow_guard_and_nesting():
    from fbmsde.drifts import DOUBLEWELL1D

    gm = Partition.uniform(2.0, 200)
    traj = backward_euler(DOUBLEWELL1D, zero_path(gm, H07), np.array([0.1]))
    with pytest.raises(StepTooLargeError):
        fundamental_matrix_fb_euler(DOUBLEWELL1D, traj, Partition.uniform(2.0, 2))
    with pytest.raises(GridError):
        fundamental_matrix_fb_euler(
            DOUBLEWELL1D, traj, Partition(np.array([0.0, 0.305, 2.0])))


# --- pathwise sanity on the reference scheme -------------------------------------

def test_fourth_moment_of_running_sup_is_sample_stable():
    # E[ sup_t |X_t|^4 ] over reference runs of the planar cubic: the first
    # half of the sample must agree with the full sample within a factor 2
    x0 = np.array([1.0, 1.0])
    hv = HurstVector.constant(0.7, 2)
    g = Partition.uniform(1.0, 256)

    def sup4(block):
        states, _ = backward_euler_block(PLANAR_CUBIC, block, x0)
        return np.max(np.linalg.norm(states, axis=2), axis=1) ** 4

    sups4 = np.concatenate(map_blocks(sup4, Ensemble(
        grid=g, hursts=(hv,), paths=1000, seed=77, sampler="circulant")))
    half = sups4[:500].mean()
    full = sups4.mean()
    assert np.isfinite(full)
    assert 0.5 <= half / full <= 2.0


def test_trajectory_increments_scale_like_the_driver():
    # mean |X_{t+L} - X_t| / L^H stays within a factor 3 across 4 dyadic lags
    x0 = np.array([1.0])
    g = Partition.uniform(1.0, 1024)
    noise = sample_multi(g, H07, seed=21, method="circulant")
    traj = reference_solution(CUBIC1D, noise, x0)
    ratios = []
    for lag in (1, 4, 16, 64):
        diffs = np.abs(traj.states[lag:, 0] - traj.states[:-lag, 0])
        ratios.append(diffs.mean() / (lag / 1024.0) ** 0.7)
    assert max(ratios) / min(ratios) <= 3.0
