"""The path-batched implicit Euler engine against the scalar integrator."""
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fbmsde import (
    DomainError,
    DriftSpec,
    ExperimentConfig,
    HurstVector,
    LinearSolveFailure,
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
from fbmsde import drifts, engine
from fbmsde.drifts import CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC, _cubic1d_eval, _cubic1d_jac
from fbmsde.integrate import THETA
from fbmsde.engine import (
    BLOCK_BYTES,
    NoiseBlock,
    SolveStats,
    _newton_updates,
    backward_euler_block,
    backward_euler_runs,
    block_count,
    block_range,
    lowest_failure,
    sq_norms,
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
    # Lanes of 8 bytes up to lanes above the budget, and the noise of one
    # lane of the planar cubic's and of the linear drift's 2048-step grid.
    for lane_bytes in (8, 2049 * 8, 2049 * 2 * 8, BLOCK_BYTES // 3, 2 * BLOCK_BYTES):
        per_block = max(1, BLOCK_BYTES // lane_bytes)
        for paths in (1, 7, 63, 64, 65, 80, 200, 500):
            for threads in (1, 2, 3, 8):
                count = block_count(paths, threads, lane_bytes)
                assert count % threads == 0 or count == paths
                ranges = [block_range(b, paths, count) for b in range(count)]
                sizes = {len(r) for r in ranges}
                assert max(sizes) - min(sizes) <= 1
                assert 1 <= min(sizes) and max(sizes) <= per_block
                assert [i for r in ranges for i in r] == list(range(paths))
                # No fewer blocks that are a multiple of threads would fit.
                if count > threads:
                    assert -(-paths // (count - threads)) > per_block
    # The 80 lanes of a four-Hurst-value sweep of 20 paths: one block.
    assert block_count(80, 1, 2049 * 2 * 8) == 1
    # 128 and 500 lanes of the linear drift over two workers: one block each.
    assert block_count(128, 2, 2049 * 8) == block_count(500, 2, 2049 * 8) == 2


@pytest.mark.parametrize("scheme", sorted(THETA))
def test_kept_nodes_equal_the_full_run(scheme):
    x0 = np.array([1.0, 1.0])
    block = NoiseBlock.stack(_paths(2, count=5))
    runs = [(1, 1.0), (8, THETA[scheme]), (2, THETA[scheme]), (32, THETA[scheme])]
    full, counts = backward_euler_runs(PLANAR_CUBIC, block, x0, runs)
    for keep in (2, 4, 32, GRID.n_steps):
        kept, kept_counts = backward_euler_runs(PLANAR_CUBIC, block, x0, runs,
                                                keep=keep)
        assert np.array_equal(kept_counts, counts)
        for (ratio, _), got, want in zip(runs, kept, full):
            assert np.array_equal(got, want[:, ::math.lcm(ratio, keep) // ratio])
    with pytest.raises(DomainError, match="keep must divide"):
        backward_euler_runs(PLANAR_CUBIC, block, x0, runs, keep=3)


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
    # Lane 1 jumps by 1e6 at node 6.  The run of ratio 2 stalls on it at
    # its step 2 (master step 5), the run of ratio 8 at its step 0 (master
    # step 7); with the ratio-8 run first, one-run calls in order report
    # its stall, and so must the pass.
    values = np.zeros((2, GRID.times.size, 1))
    values[1, 6:, 0] = 1e6
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


# The master grid of a rate table and of a limit comparison: the reference
# and the five meshes of configs/example2.cfg, and the n values of
# configs/limit_linear.cfg.
MASTER = Partition.uniform(1.0, 2048)
RATE_RUNS = [(1, 1.0)] + [(ratio, 1.0) for ratio in (64, 32, 16, 8, 4)]
LIMIT_N = (32, 64, 128, 256)


def _master_block(lanes, dim):
    hv = HurstVector.constant(0.7, dim)
    return NoiseBlock.stack([sample_multi(MASTER, hv, child_seed(11, i),
                                          method="circulant") for i in range(lanes)])


def test_predictor_start_cuts_the_planar_newton_iterations():
    # Started at the target c, the same pass took 494462 iterations.
    _, counts = backward_euler_runs(PLANAR_CUBIC, _master_block(80, 2), [1.0, 1.0],
                                    RATE_RUNS, keep=MASTER.n_steps)
    stats = SolveStats.of(counts)
    assert stats.newton_iterations <= 0.65 * 494462
    assert stats.fallbacks == 0


def test_predictor_start_keeps_one_newton_iteration_per_linear_step():
    # Newton solves a linear step in one iteration from any start.
    runs = [(1, 1.0)] + [(MASTER.n_steps // n, 1.0) for n in LIMIT_N]
    _, counts = backward_euler_runs(make_linear_drift(np.array([[-1.0]])),
                                    _master_block(64, 1), [1.0], runs,
                                    keep=MASTER.n_steps)
    assert SolveStats.of(counts) == SolveStats(
        newton_iterations=64 * (MASTER.n_steps + sum(LIMIT_N)), max_iterations=1)


def test_sq_norms_of_one_entry_rows_have_the_bits_of_the_dot_product():
    rng = np.random.default_rng(0)
    sizes = 10.0 ** rng.uniform(-170.0, 170.0, 100_000)
    values = np.concatenate([sizes * rng.choice([-1.0, 1.0], sizes.size),
                             [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-170,
                              1.7e308]])
    for rows in (values[:, None], values.reshape(-1, 4, 1)):
        with np.errstate(all="ignore"):     # squares underflow and overflow
            want = np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0]
            got = sq_norms(rows)
        assert got.shape == rows.shape[:-1]
        assert got.tobytes() == want.tobytes()


def _counted(fn, calls, name):
    def counting(x):
        calls.append(name)
        return fn(x)
    return counting


def test_linear_pass_evaluates_the_drift_once_per_chunk_of_each_run():
    linear = make_linear_drift(np.array([[-1.0]]))
    calls = []
    spec = replace(linear, eval=_counted(linear.eval, calls, "eval"),
                   jacobian=_counted(linear.jacobian, calls, "jacobian"))
    calls.clear()       # construction checks the callables
    block = _master_block(16, 1)
    runs = [(1, 1.0)] + [(MASTER.n_steps // n, 1.0) for n in LIMIT_N]
    states, counts = backward_euler_runs(spec, block, [1.0], runs)
    # Direct solves, then one residual check per chunk of a run's steps,
    # no Newton: 8 chunks of the 2048-step reference, one of every n.
    chunks = sum(-(-steps // engine._CHUNK) for steps in (MASTER.n_steps, *LIMIT_N))
    assert chunks == 12
    assert calls == ["eval"] * chunks
    want, _ = backward_euler_runs(linear, block, [1.0], runs)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(states, want))
    assert SolveStats.of(counts).fallbacks == 0


def _failing_linear_block():
    """Four lanes of two steps; lane 2 jumps by about 3e4 at step 1: its
    direct solution misses the tolerance, Newton and the bisection stall,
    and the lane is replayed."""
    values = np.zeros((4, 3, 1))
    values[2, 2] = 30102.2
    return NoiseBlock(grid=Partition.uniform(2e-3, 2), values=values,
                      hursts=(HurstVector.constant(0.7, 1),) * 4,
                      indices=(10, 11, 12, 13), seeds=(100, 101, 102, 103))


FAILING_LINEAR_RUNS = ([(1, 1.0)], [(2, 1.0), (1, 1.0), (1, 0.5)])


def test_a_failing_linear_lane_keeps_its_name():
    spec = make_linear_drift(np.array([[-1.0]]))
    block = _failing_linear_block()
    for runs in FAILING_LINEAR_RUNS:
        for run in (lambda b: backward_euler_runs(spec, b, [1.0], runs),
                    lambda b: lowest_failure(
                        lambda part: backward_euler_runs(spec, part, [1.0], runs), b)):
            with pytest.raises(NoConvergenceError) as err:
                run(block)
            assert str(err.value) == ("step 1: damping stalled with residual 3.638e-12 "
                                      "above tol 1e-12 (path 12, path seed 102)")
            assert (err.value.lane, err.value.path, err.value.step) == (2, 12, 1)


@pytest.mark.parametrize("runs", FAILING_LINEAR_RUNS, ids=["one-run", "three-runs"])
def test_a_failing_linear_block_runs_no_newton_before_the_replay(monkeypatch, runs):
    # The linear pass only checks its direct solutions; the Newton loop,
    # which builds the Jacobian, runs in the replay alone.
    linear = make_linear_drift(np.array([[-1.0]]))
    calls = []
    spec = replace(linear, jacobian=_counted(linear.jacobian, calls, "jacobian"))
    calls.clear()       # construction checks the callables
    advance = engine._advance

    def replay(*args):
        calls.append("advance")
        return advance(*args)

    monkeypatch.setattr(engine, "_advance", replay)
    with pytest.raises(NoConvergenceError):
        backward_euler_runs(spec, _failing_linear_block(), [1.0], runs)
    assert calls[:2] == ["advance", "jacobian"]


# The residual checks before the Newton pass: the one run's first chunk
# misses at lane 2; of the three runs, the coarse run's one step meets the
# tolerance, the reference's first chunk misses and the θ = 0.5 run is
# never stepped.
CHECKS_BEFORE_THE_NEWTON_PASS = (["eval"], ["eval", "eval"])


@pytest.mark.parametrize("runs, checks", zip(FAILING_LINEAR_RUNS, CHECKS_BEFORE_THE_NEWTON_PASS),
                         ids=["one-run", "three-runs"])
def test_a_linear_block_that_misses_runs_the_newton_pass_on_every_lane(monkeypatch, runs,
                                                                       checks):
    # The linear pass stops at the first chunk that misses and hands the
    # whole block, from the start, to the Newton pass.
    linear = make_linear_drift(np.array([[-1.0]]))
    calls, blocks = [], []
    spec = replace(linear, eval=_counted(linear.eval, calls, "eval"))
    calls.clear()       # construction checks the callables
    advance = engine._advance

    def newton_pass(spec, block, *args):
        calls.append("advance")
        blocks.append(block)
        return advance(spec, block, *args)

    monkeypatch.setattr(engine, "_advance", newton_pass)
    block = _failing_linear_block()
    with pytest.raises(NoConvergenceError):
        backward_euler_runs(spec, block, [1.0], runs)
    assert calls[:len(checks) + 1] == checks + ["advance"]
    assert blocks[0].indices == block.indices
    assert blocks[0].values is block.values


# 720 steps of 1e-3, of nine different lengths in the last bits, and the
# runs of a rate table, of its bias check and of a limit comparison.
LINEAR_GRID = Partition.uniform(0.72, 720)
LINEAR_RUNS = {
    "rate": lambda theta: [(1, 1.0)] + [(ratio, theta) for ratio in (16, 8, 4)],
    "bias": lambda theta: [(1, 1.0), (2, 1.0), (8, theta)],
    "limit": lambda theta: [(1, 1.0)] + [(720 // n, 1.0) for n in (45, 90, 180)],
}


def _grid_with_a_long_step(at):
    """720 steps of 2^-10 but step ``at``, which lasts 1/2; every node is
    a dyadic fraction, so every step length is exact."""
    steps = np.full(720, 2.0**-10)
    steps[at] = 0.5
    return Partition(np.concatenate([[0.0], np.cumsum(steps)]))


@given(matrix=st.sampled_from([((-1.0,),), ((0.37,),),
                               ((-1.0, 3.0), (-0.5, -2.0)),
                               ((-1.0, 2.0, 0.0), (-0.5, -2.0, 1.0), (0.3, -1.0, -0.5))]),
       kind=st.sampled_from(sorted(LINEAR_RUNS)), theta=st.sampled_from([0.0, 0.5, 1.0]),
       keep=st.sampled_from([1, 720]), lanes=st.integers(1, 9),
       jump=st.one_of(st.none(), st.tuples(st.integers(0, 8), st.integers(0, 718))),
       seed=st.integers(0, 2**16),
       # Drawn inputs have no singular step; the examples below have one.
       singular=st.just(None))
@example(matrix=((-1.0,),), kind="rate", theta=0.5, keep=1, lanes=5, jump=None,
         seed=3, singular=400)
@example(matrix=((-1.0,),), kind="limit", theta=1.0, keep=720, lanes=3, jump=(2, 100),
         seed=4, singular=360)
@example(matrix=((-1.0,),), kind="bias", theta=0.0, keep=1, lanes=9, jump=(0, 500),
         seed=5, singular=255)
@example(matrix=((-1.0,),), kind="rate", theta=1.0, keep=720, lanes=2, jump=None,
         seed=6, singular=719)
@settings(max_examples=40, deadline=None)
def test_linear_pass_equals_the_newton_pass(matrix, kind, theta, keep, lanes, jump,
                                            seed, singular):
    spec = make_linear_drift(np.array(matrix))
    if singular is not None:
        # b(x) = 2x, kappa lowered to 0 to pass the guard, on a grid whose
        # step `singular` has θδa = 1 in the reference run: its system
        # I - θδA is singular there, in every lane.
        spec = replace(make_linear_drift(np.array([[2.0]])), kappa=0.0)
    hv = HurstVector.constant(0.7, spec.dim)
    block = NoiseBlock.stack([sample_multi(LINEAR_GRID, hv, child_seed(seed, i))
                              for i in range(lanes)])
    if singular is not None:
        block = replace(block, grid=_grid_with_a_long_step(singular))
    if jump is not None and jump[0] < lanes:
        # The lane's noise jumps by 3e4 for one step: the direct solution
        # of that step often misses the tolerance, and then the lane is
        # replayed.
        block.values[jump[0], jump[1] + 1] += 3e4
    # Neither pass writes the noise.
    block.values.flags.writeable = False
    x0 = np.full(spec.dim, 0.5)
    runs = LINEAR_RUNS[kind](theta)
    results = []
    for advance in (engine._advance, engine._linear_advance):
        try:
            results.append(advance(spec, block, x0, runs, SolveConfig(), keep))
        except SolverError as exc:
            results.append(exc)
    want, got = results
    if isinstance(want, SolverError):
        assert type(got) is type(want)
        assert (str(got), got.lane, got.step) == (str(want), want.lane, want.step)
        return
    assert [s.tobytes() for s in got[0]] == [s.tobytes() for s in want[0]]
    assert got[1].tobytes() == want[1].tobytes()
    assert SolveStats.of(got[1]) == SolveStats.of(want[1])
    if jump is None:
        # Every direct solution meets the tolerance: the states are the
        # linear pass's own, with no lane stepped again by the Newton pass.
        with mock.patch.object(engine, "_advance", side_effect=AssertionError):
            engine._linear_advance(spec, block, x0, runs, SolveConfig(), keep)


def _one_step_block(delta, c):
    """One lane of one step of length ``delta`` whose noise jumps by ``c``."""
    return NoiseBlock(grid=Partition.uniform(delta, 1), values=np.array([[[0.0], [c]]]),
                      hursts=(HurstVector.constant(0.7, 1),), indices=(0,), seeds=(5,))


# Targets of the step of b(x) = -x at delta = 1e-3.  The direct solution
# of all but 1e20 misses the tolerance, and Newton goes on from it, on the
# engine's rows as on a single path.
@pytest.mark.parametrize("c", [3e4, -2.5e4, 1e16, 1.3e20, 1e20])
def test_a_linear_step_missing_the_tolerance_solves_alike_three_ways(c):
    spec = make_linear_drift(np.array([[-1.0]]))
    block = _one_step_block(1e-3, c)
    public = solve_backward_step(spec, 1e-3, np.array([c]))
    assert public.iterations == (1 if c == 1e20 else 2)
    lanes, stats = backward_euler_block(spec, block, [0.0])
    assert stats.fallbacks == 0
    assert stats.newton_iterations == public.iterations
    single = backward_euler(spec, block.path(0), [0.0]).states
    for states in (lanes[0], single):
        assert states[1].tobytes() == public.y.tobytes()


def test_a_singular_linear_step_fails_alike_three_ways():
    # 1 - delta * a = 0: the direct solution is NaN, and each way takes
    # the predictor start and meets the singular Newton system.
    spec = replace(make_linear_drift(np.array([[1.0]])), kappa=0.0)
    block = _one_step_block(1.0, 2.0)
    message = "singular Newton system at iterate with residual 2.000e+00"
    for run, want in [
            (lambda: solve_backward_step(spec, 1.0, np.array([2.0])), message),
            (lambda: backward_euler(spec, block.path(0), [0.0]), f"step 0: {message}"),
            (lambda: backward_euler_block(spec, block, [0.0]),
             f"step 0: {message} (path 0, path seed 5)")]:
        with pytest.raises(LinearSolveFailure) as err:
            run()
        assert str(err.value) == want
