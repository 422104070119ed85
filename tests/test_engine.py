"""The path-batched implicit Euler engine against the scalar integrator."""
from dataclasses import replace

import numpy as np
import pytest

from fbmsde import (
    DriftSpec,
    ExperimentConfig,
    HurstVector,
    NoConvergenceError,
    Partition,
    SolveConfig,
    StepTooLargeError,
    backward_euler,
    child_seed,
    coarsen,
    crank_nicolson,
    forward_euler,
    get_drift,
    make_linear_drift,
    mc_strong_error,
    sample_multi,
    solve_backward_step,
)
from fbmsde import drifts
from fbmsde.drifts import CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC, _cubic1d_eval, _cubic1d_jac
from fbmsde.integrate import THETA
from fbmsde.engine import (
    BLOCK_PATHS,
    NoiseBlock,
    _newton_updates,
    backward_euler_block,
    block_count,
    block_range,
    block_size,
    lowest_failure,
)

GRID = Partition.uniform(1.0, 256)
PATHS = 9

CASES = {
    "cubic1d": (CUBIC1D, [1.5]),
    "doublewell1d": (DOUBLEWELL1D, [0.3]),
    "planar_cubic": (PLANAR_CUBIC, [1.0, 1.0]),
    "linear 1x1": (make_linear_drift(np.array([[-2.0]])), [1.0]),
    "linear 2x2": (make_linear_drift(np.array([[-1.0, 3.0], [-0.5, -2.0]])),
                   [1.0, -0.5]),
    "linear 3x3": (make_linear_drift(np.array([[-1.0, 2.0, 0.0],
                                               [-0.5, -2.0, 1.0],
                                               [0.3, -1.0, -0.5]])),
                   [1.0, -0.5, 0.25]),
}


def _paths(dim, seed=11, count=PATHS, hurst=0.7):
    hv = HurstVector.constant(hurst, dim)
    return [sample_multi(GRID, hv, child_seed(seed, i), method="circulant")
            for i in range(count)]


SCALAR = {"bem": backward_euler, "em": forward_euler, "cn": crank_nicolson}


# The implicit-Euler cases keep their bare names as ids.
@pytest.mark.parametrize("name,scheme", [
    pytest.param(name, scheme, id=name if scheme == "bem" else f"{name}-{scheme}")
    for scheme in THETA for name in sorted(CASES)])
def test_lanes_match_scalar_backward_euler(name, scheme):
    spec, x0 = CASES[name]
    x0 = np.array(x0)
    paths = _paths(spec.dim)
    block = NoiseBlock.stack(paths, 0)
    worst = 0.0
    for ratio in (1, 4):
        states, stats = backward_euler_block(spec, block, x0, ratio=ratio,
                                             theta=THETA[scheme])
        assert stats.fallbacks == 0
        for lane, path in enumerate(paths):
            want = SCALAR[scheme](spec, coarsen(path, GRID.subsample(ratio)), x0).states
            got = states[lane]
            worst = max(worst, float(np.max(np.abs(got - want)
                                            / np.maximum(1.0, np.abs(want)))))
    print(f"{name} {scheme}: worst |batched - scalar| / max(1, |y|) = {worst:.3g}")
    assert worst <= 1e-12
    if not name.startswith("linear"):
        # Built-in drifts evaluate one state and a stack of states alike.
        assert worst == 0.0


def test_lanes_do_not_depend_on_block_size():
    x0 = np.array([1.0, 1.0])
    paths = _paths(2, count=15)
    whole, _ = backward_euler_block(PLANAR_CUBIC, NoiseBlock.stack(paths, 0), x0)
    for size in (1, 7):
        parts = [backward_euler_block(PLANAR_CUBIC,
                                      NoiseBlock.stack(paths[s:s + size], s), x0)[0]
                 for s in range(0, len(paths), size)]
        assert np.array_equal(np.concatenate(parts), whole)


def _stalling_block(jumps):
    # Lane j jumps by jumps[j] = (step, size) at that step; a jump to 1e5
    # stalls the cubic's implicit step below rounding.
    values = np.zeros((len(jumps), GRID.times.size, 1))
    for lane, (step, size) in enumerate(jumps):
        values[lane, step + 1:, 0] = size
    return NoiseBlock(grid=GRID, values=values, hurst=HurstVector.constant(0.7, 1),
                      first=40, seeds=tuple(range(100, 100 + len(jumps))))


def test_forced_stall_raises_the_scalar_error():
    # Lane 1 jumps to 1e5 at its first step; its batchmates stay small.
    block = _stalling_block([(0, 0.1), (0, 1e5), (0, -0.1)])
    with pytest.raises(NoConvergenceError) as scalar:
        solve_backward_step(CUBIC1D, GRID.times[1], np.array([1.0 + 1e5]))
    with pytest.raises(NoConvergenceError) as batched:
        backward_euler_block(CUBIC1D, block, np.array([1.0]))
    assert type(batched.value) is type(scalar.value)
    assert batched.value.residual == scalar.value.residual
    assert batched.value.step == 0
    message = str(batched.value)
    assert message.startswith("step 0: " + str(scalar.value))
    assert message.endswith("(path 41, path seed 101)")


def test_fallback_reproduces_the_scalar_bisection_rescue():
    # One Newton iteration is too few for the cubic, so every lane step
    # falls back; the scalar solve then rescues it by bisection.
    cfg = SolveConfig(max_iter=1)
    x0 = np.array([2.0])
    paths = _paths(1, count=3)
    states, stats = backward_euler_block(CUBIC1D, NoiseBlock.stack(paths, 0), x0, cfg)
    assert stats.fallbacks > 0
    for lane, path in enumerate(paths):
        assert np.array_equal(states[lane], backward_euler(CUBIC1D, path, x0, cfg).states)


def test_guard_is_checked_once_before_stepping():
    block = NoiseBlock.stack(_paths(1, count=2), 0)
    coarse_ratio = 256          # one step of length 1.0: kappa * mesh = 1 > 0.9
    with pytest.raises(StepTooLargeError, match="solvability guard"):
        backward_euler_block(DOUBLEWELL1D, block, np.array([0.0]), ratio=coarse_ratio)


def test_spec_without_batched_callables_runs_through_the_adapter(monkeypatch):
    plain = DriftSpec("engine_plain_cubic", 1, eval=_cubic1d_eval,
                      jacobian=_cubic1d_jac, kappa=0.0, mu=3.0)
    monkeypatch.setitem(drifts._REGISTRY, plain.name, plain)
    spec = get_drift(plain.name)
    assert spec.eval_batch is None and spec.jacobian_batch is None
    x0 = np.array([1.5])
    paths = _paths(1, count=4)
    states, _ = backward_euler_block(spec, NoiseBlock.stack(paths, 0), x0)
    for lane, path in enumerate(paths):
        want = backward_euler(spec, path, x0).states
        worst = np.max(np.abs(states[lane] - want) / np.maximum(1.0, np.abs(want)))
        assert worst <= 1e-12
    cfg = ExperimentConfig(drift=plain.name, x0=(1.5,), t_final=1.0,
                           hurst_values=(0.7,), schemes=("bem",),
                           meshes=(2.0 ** -4, 2.0 ** -5), master_mesh=2.0 ** -7,
                           mc_paths=5, seed=3)
    adapted = mc_strong_error(cfg).errors
    batched = mc_strong_error(replace(cfg, drift="cubic1d")).errors
    assert np.allclose(adapted, batched, rtol=1e-9, atol=0.0)


def test_lowest_failing_path_is_named_whatever_the_partition():
    # Path 43 stalls at step 0, path 41 only at step 5: a loop over single
    # paths in index order names path 41, and so must every partition.
    block = _stalling_block([(0, 0.1), (5, 1e5), (0, -0.1), (0, 1e5)])
    x0 = np.array([1.0])
    with pytest.raises(NoConvergenceError) as first:
        backward_euler_block(CUBIC1D, block, x0)
    assert first.value.path == 43 and first.value.step == 0
    for size in (1, 2, 4):
        with pytest.raises(NoConvergenceError) as err:
            for start in range(0, 4, size):
                part = NoiseBlock(grid=GRID, values=block.values[start:start + size],
                                  hurst=block.hurst, first=block.first + start,
                                  seeds=block.seeds[start:start + size])
                lowest_failure(lambda b: backward_euler_block(CUBIC1D, b, x0), part)
        assert err.value.path == 41 and err.value.step == 5
        assert str(err.value).endswith("(path 41, path seed 101)")


def test_lowest_non_finite_cn_target_is_named_whatever_the_partition():
    # A -inf noise increment makes the trapezoidal step target non-finite:
    # on path 41 at step 5 and on path 43 at step 0.  A loop over single
    # paths in index order stops at path 41 with the scalar message.
    block = _stalling_block([(0, 0.1), (5, -np.inf), (0, -0.1), (0, -np.inf)])
    x0 = np.array([1.0])
    with pytest.raises(NoConvergenceError) as scalar:
        for lane in range(4):
            crank_nicolson(CUBIC1D, block.path(lane), x0)
    assert scalar.value.step == 5
    want = f"{scalar.value} (path 41, path seed 101)"
    with pytest.raises(NoConvergenceError) as first:
        backward_euler_block(CUBIC1D, block, x0, theta=THETA["cn"])
    assert first.value.path == 43 and first.value.step == 0
    for size in (1, 4):
        with pytest.raises(NoConvergenceError) as err:
            for start in range(0, 4, size):
                part = NoiseBlock(grid=GRID, values=block.values[start:start + size],
                                  hurst=block.hurst, first=block.first + start,
                                  seeds=block.seeds[start:start + size])
                lowest_failure(lambda b: backward_euler_block(
                    CUBIC1D, b, x0, theta=THETA["cn"]), part)
        assert err.value.path == 41 and err.value.step == 5
        assert str(err.value) == want


def test_singular_newton_rows_are_non_finite():
    # I - delta J is singular where J = I / delta: on the second row only.
    delta = 0.5
    jac = np.array([[[-1.0, 0.0], [0.0, -1.0]], [[2.0, 0.0], [0.0, 2.0]],
                    [[0.0, 1.0], [-1.0, 0.0]]])
    spec = DriftSpec("engine_singular", 2, eval=lambda x: x,
                     jacobian=lambda x: np.eye(2), kappa=2.0, mu=1.0,
                     jacobian_batch=lambda xs: jac)
    res = np.array([[1.0, 2.0], [3.0, 4.0], [-1.0, 0.5]])
    updates = _newton_updates(spec, delta, np.zeros((3, 2)), res)
    assert not np.any(np.isfinite(updates[1]))
    for j in (0, 2):
        want = np.linalg.solve(np.eye(2) - delta * jac[j], -res[j])
        assert np.array_equal(updates[j], want)


def test_blocks_cover_every_path_once():
    for paths in (1, 7, 63, 64, 65, 200):
        for threads in (1, 2, 3, 8):
            size = block_size(paths, threads)
            assert 1 <= size <= BLOCK_PATHS
            count = block_count(paths, size)
            assert count >= min(paths, threads)
            covered = [i for b in range(count) for i in block_range(b, paths, size)]
            assert covered == list(range(paths))
