"""Micro-benchmarks of the implicit step and of the path-batched engine.

Not part of the test suite (the file name does not match ``test_*.py``);
run it with pytest-benchmark:

    python3 -m pytest tests/bench_engine.py --benchmark-only

The one-run cases time :func:`fbmsde.engine.backward_euler_block` on the
master grid of ``configs/example2.cfg`` (2048 steps) at 20, 40 and 80
lanes, which shows how little a block step costs per added lane.  The
rate case times the six-run pass of one rate block: the reference and the
five meshes of that config, as :func:`fbmsde.harness.sweep_strong_error`
runs them on 40 lanes.

The implicit-step cases time one :func:`fbmsde.solver.solve_backward_step`
on the scalar cubic (a coarse stability step from about 5, five Newton
iterations on floats) and on the planar cubic (a master-grid step, two
iterations with LAPACK), and :func:`fbmsde.integrate.reference_solution`
over the 7200-step master grid of ``configs/stability_example1.cfg``, the
single path that dominates a ``stability`` run.
"""
import numpy as np
import pytest

from fbmsde import HurstVector, Partition, child_seed, sample_multi
from fbmsde.drifts import CUBIC1D, PLANAR_CUBIC
from fbmsde.engine import NoiseBlock, backward_euler_block, backward_euler_runs
from fbmsde.integrate import reference_solution
from fbmsde.solver import solve_backward_step

GRID = Partition.uniform(1.0, 2048)
X0 = np.array([1.0, 1.0])
RATE_RUNS = [(1, 1.0)] + [(ratio, 1.0) for ratio in (64, 32, 16, 8, 4)]


def _block(lanes):
    hv = HurstVector.constant(0.7, 2)
    return NoiseBlock.stack([sample_multi(GRID, hv, child_seed(11, i), method="circulant")
                             for i in range(lanes)])


@pytest.mark.parametrize("lanes", [20, 40, 80])
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


@pytest.mark.parametrize("spec, delta, c, iterations", [
    (CUBIC1D, 0.08, [5.3], 5),
    (PLANAR_CUBIC, 2.0 ** -11, [1.3, -0.4], 2),
], ids=["cubic1d", "planar_cubic"])
def test_implicit_step(benchmark, spec, delta, c, iterations):
    result = benchmark(solve_backward_step, spec, delta, np.array(c))
    assert result.iterations == iterations


def test_stability_reference(benchmark):
    grid = Partition.uniform(0.72, 7200)
    noise = sample_multi(grid, HurstVector.constant(0.6, 1), child_seed(0, 0),
                         method="circulant")
    traj = benchmark.pedantic(reference_solution, (CUBIC1D, noise, np.array([5.0])),
                              rounds=5, warmup_rounds=1)
    assert np.all(np.isfinite(traj.states))
