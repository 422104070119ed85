"""The path-batched implicit Euler engine against the scalar integrator."""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmsde import (
    DriftSpec,
    ExperimentConfig,
    HurstVector,
    NoConvergenceError,
    Partition,
    SolveConfig,
    SolverError,
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
    SolveStats,
    _newton_updates,
    backward_euler_block,
    backward_euler_runs,
    block_count,
    block_range,
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
    block = NoiseBlock.stack(paths)
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
    # Built-in drifts evaluate one state and a stack of states alike.
    assert worst == 0.0


@pytest.mark.parametrize("dim", [2, 3])
def test_linear_lanes_equal_scalar_backward_euler_bit_for_bit(dim):
    # A matrix product may round one state and a stack apart; the linear
    # drift sums column by column in both shapes.
    matrix = np.random.default_rng(dim).standard_normal((dim, dim)) - 2.0 * np.eye(dim)
    spec = make_linear_drift(matrix)
    x0 = np.linspace(1.0, -0.5, dim)
    paths = _paths(dim, count=8)
    states, _ = backward_euler_block(spec, NoiseBlock.stack(paths), x0)
    for lane, path in enumerate(paths):
        assert np.array_equal(states[lane], backward_euler(spec, path, x0).states)


def test_lanes_do_not_depend_on_block_size():
    x0 = np.array([1.0, 1.0])
    paths = _paths(2, count=15)
    whole, _ = backward_euler_block(PLANAR_CUBIC, NoiseBlock.stack(paths), x0)
    for size in (1, 7):
        parts = [backward_euler_block(PLANAR_CUBIC,
                                      NoiseBlock.stack(paths[s:s + size],
                                                       range(s, len(paths))[:size]), x0)[0]
                 for s in range(0, len(paths), size)]
        assert np.array_equal(np.concatenate(parts), whole)


def _stalling_block(jumps):
    # Lane j jumps by jumps[j] = (step, size) at that step; a jump to 1e5
    # stalls the cubic's implicit step below rounding.
    values = np.zeros((len(jumps), GRID.times.size, 1))
    for lane, (step, size) in enumerate(jumps):
        values[lane, step + 1:, 0] = size
    return NoiseBlock(grid=GRID, values=values,
                      hursts=(HurstVector.constant(0.7, 1),) * len(jumps),
                      indices=tuple(range(40, 40 + len(jumps))),
                      seeds=tuple(range(100, 100 + len(jumps))))


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
    states, stats = backward_euler_block(CUBIC1D, NoiseBlock.stack(paths), x0, cfg)
    assert stats.fallbacks > 0
    for lane, path in enumerate(paths):
        assert np.array_equal(states[lane], backward_euler(CUBIC1D, path, x0, cfg).states)


def test_guard_is_checked_once_before_stepping():
    block = NoiseBlock.stack(_paths(1, count=2))
    coarse_ratio = 256          # one step of length 1.0: kappa * mesh = 1 > 0.9
    with pytest.raises(StepTooLargeError, match="solvability guard"):
        backward_euler_block(DOUBLEWELL1D, block, np.array([0.0]), ratio=coarse_ratio)


def test_spec_without_batched_callables_runs_through_the_adapter(monkeypatch):
    plain = DriftSpec.pointwise("engine_plain_cubic", 1, eval=_cubic1d_eval,
                                jacobian=_cubic1d_jac, kappa=0.0, mu=3.0)
    monkeypatch.setitem(drifts._REGISTRY, plain.name, plain)
    spec = get_drift(plain.name)
    x0 = np.array([1.5])
    paths = _paths(1, count=4)
    states, _ = backward_euler_block(spec, NoiseBlock.stack(paths), x0)
    for lane, path in enumerate(paths):
        assert np.array_equal(states[lane], backward_euler(spec, path, x0).states)
    cfg = ExperimentConfig(drift=plain.name, x0=(1.5,), t_final=1.0,
                           hurst_values=(0.7,), schemes=("bem",),
                           meshes=(2.0 ** -4, 2.0 ** -5), master_mesh=2.0 ** -7,
                           mc_paths=5, seed=3)
    adapted = mc_strong_error(cfg).errors
    batched = mc_strong_error(replace(cfg, drift="cubic1d")).errors
    assert np.array_equal(adapted, batched)


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
                part = block.select(slice(start, start + size))
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
                part = block.select(slice(start, start + size))
                lowest_failure(lambda b: backward_euler_block(
                    CUBIC1D, b, x0, theta=THETA["cn"]), part)
        assert err.value.path == 41 and err.value.step == 5
        assert str(err.value) == want


def test_singular_newton_rows_are_non_finite():
    # I - delta J is singular where J = I / delta: on the second row only.
    delta = 0.5
    jac = np.array([[[-1.0, 0.0], [0.0, -1.0]], [[2.0, 0.0], [0.0, 2.0]],
                    [[0.0, 1.0], [-1.0, 0.0]]])
    # Row j of the states picks Jacobian j.
    spec = DriftSpec.pointwise("engine_singular", 2, eval=lambda x: x,
                               jacobian=lambda x: jac[int(x[0]) % 3], kappa=2.0, mu=1.0)
    res = np.array([[1.0, 2.0], [3.0, 4.0], [-1.0, 0.5]])
    states = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    updates = _newton_updates(spec, np.full((3, 1), delta), states, res)
    assert not np.any(np.isfinite(updates[1]))
    for j in (0, 2):
        want = np.linalg.solve(np.eye(2) - delta * jac[j], -res[j])
        assert np.array_equal(updates[j], want)


def test_blocks_cover_every_path_once():
    for paths in (1, 7, 63, 64, 65, 80, 200):
        for threads in (1, 2, 3, 8):
            count = block_count(paths, threads)
            assert count >= min(paths, threads)
            ranges = [block_range(b, paths, count) for b in range(count)]
            sizes = {len(r) for r in ranges}
            assert max(sizes) - min(sizes) <= 1
            assert 1 <= min(sizes) and max(sizes) <= BLOCK_PATHS
            assert [i for r in ranges for i in r] == list(range(paths))
    # The 80 lanes of a four-Hurst-value sweep of 20 paths: 40 + 40.
    assert [len(block_range(b, 80, block_count(80))) for b in range(2)] == [40, 40]


RUN_DRIFTS = {"cubic1d": (CUBIC1D, [1.5]), "doublewell1d": (DOUBLEWELL1D, [0.3]),
              "planar_cubic": (PLANAR_CUBIC, [1.0, 1.0])}
RUN_GRID = Partition.uniform(1.0, 64)


@given(drift=st.sampled_from(sorted(RUN_DRIFTS)),
       runs=st.lists(st.tuples(st.sampled_from([1, 2, 4, 8, 16]),
                               st.sampled_from(sorted(THETA))),
                     min_size=1, max_size=5),
       lanes=st.integers(1, 5), seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_runs_pass_equals_one_run_calls(drift, runs, lanes, seed):
    spec, x0 = RUN_DRIFTS[drift]
    x0 = np.array(x0)
    hv = HurstVector.constant(0.7, spec.dim)
    block = NoiseBlock.stack([sample_multi(RUN_GRID, hv, child_seed(seed, i))
                              for i in range(lanes)])
    pairs = [(ratio, THETA[scheme]) for ratio, scheme in runs]
    states, counts = backward_euler_runs(spec, block, x0, pairs)
    assert counts.shape == (lanes, 4)
    total = SolveStats()
    for (ratio, theta), got in zip(pairs, states):
        want, stats = backward_euler_block(spec, block, x0, ratio=ratio, theta=theta)
        assert np.array_equal(got, want)
        total = total + stats
    assert SolveStats.of(counts) == total


def test_runs_pass_stats_split_by_lane():
    # Per-lane counts of a pass add up to the counts of each lane run alone.
    x0 = np.array([1.0, 1.0])
    paths = _paths(2, count=4)
    block = NoiseBlock.stack(paths)
    runs = [(1, 1.0), (4, THETA["cn"]), (8, 1.0)]
    _, counts = backward_euler_runs(PLANAR_CUBIC, block, x0, runs)
    for lane in range(4):
        alone = backward_euler_runs(PLANAR_CUBIC, NoiseBlock.stack([paths[lane]]), x0,
                                    runs)[1]
        assert np.array_equal(counts[lane], alone[0])


def test_runs_pass_raises_a_guard_after_the_runs_before_it():
    # Path 41 stalls in the first run, and the second run's one step of
    # length 1 is too large for the double well's guard.  One-run calls in
    # order raise the stall of a lane that reaches it and the guard error
    # for a block whose first lane does not.
    block = _stalling_block([(0, 0.1), (0, 1e5)])
    x0 = np.array([0.5])
    runs = [(1, 1.0), (256, 1.0)]

    def one_run_calls(b):
        return [backward_euler_block(DOUBLEWELL1D, b, x0, ratio=r, theta=t)
                for r, t in runs]

    for part in (block, block.select(slice(1, 2))):
        for run in (one_run_calls,
                    lambda b: backward_euler_runs(DOUBLEWELL1D, b, x0, runs)):
            with pytest.raises(SolverError) as err:
                lowest_failure(run, part)
            if part is block:
                assert isinstance(err.value, StepTooLargeError)
                assert "solvability guard" in str(err.value)
            else:
                assert isinstance(err.value, NoConvergenceError)
                assert str(err.value).endswith("(path 41, path seed 101)")


def test_failing_lane_reports_its_first_failing_run():
    # Lane 1 jumps by 1e5 at node 6.  The run of ratio 2 stalls on it at
    # its step 2 (master step 5), the run of ratio 8 at its step 0 (master
    # step 7); with the ratio-8 run first, one-run calls in order report
    # its stall, and so must the pass.
    values = np.zeros((2, GRID.times.size, 1))
    values[1, 6:, 0] = 1e5
    block = NoiseBlock(grid=GRID, values=values,
                       hursts=(HurstVector.constant(0.7, 1),) * 2,
                       indices=(7, 8), seeds=(70, 80))
    x0 = np.array([1.0])
    runs = [(8, 1.0), (2, 1.0)]
    with pytest.raises(NoConvergenceError) as seq:
        lowest_failure(lambda b: [backward_euler_block(CUBIC1D, b, x0, ratio=r)
                                  for r, _ in runs], block)
    with pytest.raises(NoConvergenceError) as fine:
        backward_euler_block(CUBIC1D, block, x0, ratio=2)
    assert fine.value.step == 2 and seq.value.step == 0
    with pytest.raises(NoConvergenceError) as err:
        lowest_failure(lambda b: backward_euler_runs(CUBIC1D, b, x0, runs), block)
    assert str(err.value) == str(seq.value)
    assert str(err.value).endswith("(path 8, path seed 80)")
    assert err.value.step == 0
