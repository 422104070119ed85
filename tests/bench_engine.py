"""Micro-benchmarks of the path-batched engine on the planar cubic.

Not part of the test suite (the file name does not match ``test_*.py``);
run it with pytest-benchmark:

    python3 -m pytest tests/bench_engine.py --benchmark-only

The one-run cases time :func:`fbmsde.engine.backward_euler_block` on the
master grid of ``configs/example2.cfg`` (2048 steps) at 20, 40 and 80
lanes, which shows how little a block step costs per added lane.  The
rate case times the six-run pass of one rate block: the reference and the
five meshes of that config, as :func:`fbmsde.harness.sweep_strong_error`
runs them on 40 lanes.
"""
import numpy as np
import pytest

from fbmsde import HurstVector, Partition, child_seed, sample_multi
from fbmsde.drifts import PLANAR_CUBIC
from fbmsde.engine import NoiseBlock, backward_euler_block, backward_euler_runs

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
