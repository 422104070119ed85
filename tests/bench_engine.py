"""Micro-benchmarks of the implicit step and of the path-batched engine.

Not part of the test suite (the file name does not match ``test_*.py``);
run it with pytest-benchmark:

    python3 -m pytest tests/bench_engine.py --benchmark-only

The one-run cases time :func:`fbmsde.engine.backward_euler_block` on the
master grid of ``configs/example2.cfg`` (2048 steps) at 20 to 320 lanes,
which shows how little a block step costs per added lane: the curve that
sizes :data:`fbmsde.engine.BLOCK_BYTES`.  The rate cases time the six-run
pass of one rate block, the reference and the five meshes of that config:
on 40 lanes keeping every node, and on the 80 lanes of a four-Hurst-value
sweep of 20 paths keeping the terminal states only, as
:func:`fbmsde.harness.sweep_strong_error` runs them.

The linear cases time the layers that ``limit`` adds on ``b(x) = -x``: the
five-run pass of ``configs/limit_linear.cfg`` (the reference and n = 32 to
256) on 64 lanes keeping every node, one direct solve per lane step,
counted as one Newton iteration, the same pass on a 2x2 linear drift, and
:func:`fbmsde.integrate.fundamental_matrix_block` along its 64 reference
runs, one division per lane and node; the planar flow case solves its
2x2 systems by Cramer's rule.  The failing case times the 1x1 pass from
x0 = 1e4, where some step's direct solution misses the tolerance and the
Newton pass then stalls (``damping stalled``), until the error.  The
pass takes 5.8-6.5 ms, 36.4-37.6 ms on the 2x2 drift, and the failing
case 55-56 ms (minima and medians of five runs, at the faster of the two
speed levels of a 2-core machine, numpy 2.4).  The ``U`` cases time
:func:`fbmsde.limit.compute_U_block`, which ``limit`` runs, along the same
64 reference runs: on ``b(x) = -x`` its step factors and their suffix
products are built once for all lanes, on the planar cubic it steps ``U``
node by node.  In two alternating runs against the former evaluation,
the flow followed by one inverse solve per node and lane, ``U`` took
1.31-1.34 ms against 33.7-40.7 ms on the linear drift and 44.9-69.5 ms
against 178-219 ms on the planar cubic (medians, on a host whose speed
switched between two levels).

The sampling cases time :meth:`fbmsde.harness.Ensemble.block`, the fBm
layer of every Monte Carlo block: 64 lanes of the 2048-step grid of
``configs/limit_linear.cfg`` and the 80 planar lanes of a ``rate-planar``
op, 20 paths for each of the Hurst values 0.6 to 0.9.  Sampled straight
into the block tensor by the one circulant writer, with no grid, path or
stack per lane, they took 9.8-10.4 ms against 14.7-15.6 ms and 23.9-24.7
ms against 34.5-36.5 ms (minima and medians of three alternating runs,
2-core machine, numpy 2.4).

The implicit-step cases time one :func:`fbmsde.solver.solve_backward_step`
on the scalar cubic (a coarse stability step from about 5, five Newton
iterations on floats; the explicit predictor overshoots, so Newton starts
at the target), on the planar cubic (a master-grid step, one iteration
from the predictor, with the 2x2 system solved in closed form) and on
``b(x) = -x`` (one division on floats, counted as one iteration; 5.4-5.6
µs against 5.1-5.6 µs for the former Newton iteration, since checking the
inputs and building the step cost most of one public call).  The
single-path cases time the integrators, which step on one reused step
object and call the public solver only to re-solve a step:
:func:`fbmsde.integrate.reference_solution` over the 7200-step master
grid of ``configs/stability_example1.cfg``, the single path that
dominates a ``stability`` run; :func:`fbmsde.integrate.backward_euler` on
one planar path of the 2048-step grid; and the coarse
``crank_nicolson(..., stability_mode=True)`` run of a ``stability`` op from
x0 = 500, whose first implicit step stalls, is re-solved by the public
solver (Newton, then the failing bisection) and leaves NaN rows.  On a
2-core machine (numpy 2.4) whose speed switched between two levels, five
alternating runs against the loop that called the public solver on every
step gave the reference 10-20 µs per step against 15-30 µs (1.5x in every
pair), the planar path 50-100 µs per step either way, and the 9-step run
0.9-1.9 ms against 0.75-1.6 ms: its stalled step runs Newton twice, once
in the loop and once in the public re-solve, before the failing bisection.
Started from the explicit predictor, with the 2x2 systems in closed form,
three alternating runs against the former solve from the target by LAPACK
gave the reference 79-113 ms against 146-161 ms, the 80-lane rate pass
0.34-0.71 s against 0.82-0.96 s and the 320-lane one-run pass 0.59-0.72 s
against 0.89-1.15 s; the 9-step run stayed at about 2 ms.  The planar
path, which solves its one 2x2 system per iteration as a stack of one,
took 100-170 ms against 115-200 ms (medians of seven runs, five
alternations, faster in four).

The reference case runs twice: on the cubic's float pair
(``DriftSpec.on_float``), as ``stability`` does, and on an array-only copy
of the same spec, which evaluates the same callables on a reused
one-element array.  In two alternating runs against the former tree,
whose cube was the array power ``-(x**3)``, the float pair took 15.6-32.2
ms (2.2-4.5 µs per step) against 57-109 ms before, and the array-only copy
89-120 ms: a cube written as a product costs one more numpy call on an
array than the power did.  The scalar implicit step took 13-15 µs against
26-29 µs and the 9-step run 0.43-0.46 ms against 0.92-1.75 ms (minima).

Since a one-dimensional step runs its whole damped Newton in one float
loop (``_ScalarStep.solve``) and a single path stores its states through
a memoryview, two alternating runs against the former loop, which made a
step-object method call per residual and a numpy row store per step,
gave the reference on the float pair 8.0-13.6 ms (1.1-1.9 µs per step)
against 14.1-26.8 ms and on the array-only copy 51-67 ms against 52-102
ms, the scalar implicit step 7.7-11.6 µs against 8.4-13.8 µs and the
9-step run 0.18-0.31 ms against 0.21-0.42 ms (minima and medians).  The
planar path, whose steps still ran the array loop through step-object
method calls, took 81-110 ms against 77-140 ms.

Since the array loop for ``m >= 2`` is one function too,
``_VectorStep.solve``, five alternating runs against the former loop,
which called the step's ``start``, ``residual`` and ``newton``, gave the
planar path 152-177 ms against 97-172 ms (minima and medians) on a host
whose speed switched between two levels: the unchanged scalar implicit
step moved by as much in the same runs, so these runs tell the two
apart in neither direction.  Timed in one process instead, alternating
ten times over the 2048 step targets of that path, the fused solve took
58-78 µs per step against 73-81 µs before (minima and medians of three
such runs; faster in six to eight of ten), which is no claimed gain.
"""
from dataclasses import replace

import numpy as np
import pytest

from fbmsde import HurstVector, NoConvergenceError, Partition, child_seed, sample_multi
from fbmsde.drifts import CUBIC1D, PLANAR_CUBIC, make_linear_drift
from fbmsde.engine import NoiseBlock, backward_euler_block, backward_euler_runs
from fbmsde.harness import Ensemble
from fbmsde.integrate import (
    backward_euler,
    crank_nicolson,
    fundamental_matrix_block,
    reference_solution,
)
from fbmsde.limit import compute_U_block
from fbmsde.solver import solve_backward_step

GRID = Partition.uniform(1.0, 2048)
X0 = np.array([1.0, 1.0])
RATE_RUNS = [(1, 1.0)] + [(ratio, 1.0) for ratio in (64, 32, 16, 8, 4)]
LINEAR = make_linear_drift(np.array([[-1.0]]))
LINEAR_2X2 = make_linear_drift(np.array([[-1.0, 0.5], [-0.5, -1.0]]))
LIMIT_RUNS = [(1, 1.0)] + [(GRID.n_steps // n, 1.0) for n in (32, 64, 128, 256)]


@pytest.mark.parametrize("hursts, paths", [
    ((HurstVector.constant(0.7, 1),), 64),
    (tuple(HurstVector.constant(h, 2) for h in (0.6, 0.7, 0.8, 0.9)), 20),
], ids=["limit-64", "planar-80"])
def test_block_sampling(benchmark, hursts, paths):
    ensemble = Ensemble(grid=GRID, hursts=hursts, paths=paths, seed=11)
    block = benchmark.pedantic(ensemble.block, (range(ensemble.lanes),),
                               rounds=5, warmup_rounds=1)
    assert block.values.shape == (ensemble.lanes, 2049, hursts[0].dim)


def _block(lanes, dim=2):
    hv = HurstVector.constant(0.7, dim)
    return NoiseBlock.stack([sample_multi(GRID, hv, child_seed(11, i), method="circulant")
                             for i in range(lanes)])


@pytest.mark.parametrize("lanes", [20, 40, 80, 160, 320])
def test_one_run_pass(benchmark, lanes):
    block = _block(lanes)
    states, _ = benchmark.pedantic(backward_euler_block, (PLANAR_CUBIC, block, X0),
                                   rounds=3, warmup_rounds=1)
    assert np.all(np.isfinite(states))


def test_rate_pass(benchmark):
    block = _block(40)
    states, _ = benchmark.pedantic(backward_euler_runs,
                                   (PLANAR_CUBIC, block, X0, RATE_RUNS),
                                   rounds=3, warmup_rounds=1)
    assert [s.shape[1] for s in states] == [2049, 33, 65, 129, 257, 513]


def test_rate_pass_terminal_only(benchmark):
    block = _block(80)
    states, _ = benchmark.pedantic(backward_euler_runs,
                                   (PLANAR_CUBIC, block, X0, RATE_RUNS),
                                   {"keep": GRID.n_steps}, rounds=3, warmup_rounds=1)
    assert [s.shape[1] for s in states] == [2] * len(RATE_RUNS)


@pytest.mark.parametrize("spec, x0", [(LINEAR, [1.0]), (LINEAR_2X2, [1.0, 1.0])],
                         ids=["1x1", "2x2"])
def test_linear_limit_pass(benchmark, spec, x0):
    block = _block(64, spec.dim)
    states, counts = benchmark.pedantic(backward_euler_runs,
                                        (spec, block, np.array(x0), LIMIT_RUNS),
                                        rounds=3, warmup_rounds=1)
    assert counts[:, 0].sum() == 64 * (2048 + 32 + 64 + 128 + 256)


def test_failing_linear_pass(benchmark):
    # From x0 = 1e4 a step's direct solution misses the tolerance and the
    # Newton pass stalls on it; timed until the error.
    block = _block(64, 1)

    def until_the_error():
        with pytest.raises(NoConvergenceError, match="damping stalled"):
            backward_euler_runs(LINEAR, block, np.array([1e4]), LIMIT_RUNS)

    benchmark.pedantic(until_the_error, rounds=3, warmup_rounds=1)


@pytest.mark.parametrize("spec, x0", [(LINEAR, [1.0]), (PLANAR_CUBIC, [1.0, 1.0])],
                         ids=["linear", "planar_cubic"])
def test_flow_block(benchmark, spec, x0):
    (states,), _ = backward_euler_runs(spec, _block(64, spec.dim), np.array(x0),
                                       [(1, 1.0)])
    mats = benchmark.pedantic(fundamental_matrix_block, (spec, GRID, states),
                              rounds=3, warmup_rounds=1)
    assert mats.shape == (64, 2049, spec.dim, spec.dim)


@pytest.mark.parametrize("spec, x0", [(LINEAR, [1.0]), (PLANAR_CUBIC, [1.0, 1.0])],
                         ids=["linear", "planar_cubic"])
def test_u_block(benchmark, spec, x0):
    block = _block(64, spec.dim)
    (states,), _ = backward_euler_runs(spec, block, np.array(x0), [(1, 1.0)])
    u = benchmark.pedantic(compute_U_block,
                           (spec, GRID, states, block.values, GRID.n_steps),
                           rounds=3, warmup_rounds=1)
    assert u.shape == (64, spec.dim)


@pytest.mark.parametrize("spec, delta, c, iterations", [
    (CUBIC1D, 0.08, [5.3], 5),
    (PLANAR_CUBIC, 2.0 ** -11, [1.3, -0.4], 1),
    (LINEAR, 2.0 ** -11, [1.3], 1),
], ids=["cubic1d", "planar_cubic", "linear"])
def test_implicit_step(benchmark, spec, delta, c, iterations):
    result = benchmark(solve_backward_step, spec, delta, np.array(c))
    assert result.iterations == iterations


@pytest.mark.parametrize("spec", [CUBIC1D, replace(CUBIC1D, on_float=None)],
                         ids=["floats", "arrays"])
def test_stability_reference(benchmark, spec):
    grid = Partition.uniform(0.72, 7200)
    noise = sample_multi(grid, HurstVector.constant(0.6, 1), child_seed(0, 0),
                         method="circulant")
    traj = benchmark.pedantic(reference_solution, (spec, noise, np.array([5.0])),
                              rounds=5, warmup_rounds=1)
    assert np.all(np.isfinite(traj.states))


def test_planar_single_path(benchmark):
    noise = sample_multi(GRID, HurstVector.constant(0.7, 2), child_seed(11, 0),
                         method="circulant")
    traj = benchmark.pedantic(backward_euler, (PLANAR_CUBIC, noise, X0),
                              rounds=3, warmup_rounds=1)
    assert np.all(np.isfinite(traj.states))


def test_stalling_stability_run(benchmark):
    grid = Partition.uniform(0.72, 9)
    noise = sample_multi(grid, HurstVector.constant(0.6, 1), child_seed(0, 0),
                         method="circulant")
    traj = benchmark.pedantic(crank_nicolson, (CUBIC1D, noise, np.array([500.0])),
                              {"stability_mode": True}, rounds=20, warmup_rounds=1)
    assert np.isnan(traj.states).any()
