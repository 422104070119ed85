import numpy as np
import pytest

from fbmsde import DomainError, GridError, Partition
from fbmsde.grids import MAX_STEPS, nested_indices


def test_uniform_grid_nodes():
    g = Partition.uniform(1.0, 4)
    assert np.array_equal(g.times, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    assert g.n_steps == 4
    assert g.t_final == 1.0
    assert g.mesh == 0.25


def test_uniform_grid_refuses_more_than_max_steps():
    # Checked before any node is computed: no array of this size is built.
    with pytest.raises(DomainError, match=f"steps must be at most {MAX_STEPS}, got"):
        Partition.uniform(1.0, MAX_STEPS + 1)


def test_deltas_of_nonuniform_grid():
    g = Partition(np.array([0.0, 0.1, 0.4, 1.0]))
    assert np.allclose(g.deltas(), [0.1, 0.3, 0.6])
    assert g.mesh == pytest.approx(0.6)


@pytest.mark.parametrize(
    "times",
    [
        [0.0],                  # fewer than two nodes
        [0.1, 0.2],             # does not start at zero
        [0.0, 0.5, 0.5, 1.0],   # not strictly increasing
        [0.0, -0.5],
        [0.0, np.nan],
        [0.0, np.inf],
    ],
)
def test_invalid_grids_rejected(times):
    with pytest.raises(GridError):
        Partition(np.array(times, dtype=float))


def test_grid_rejects_2d_input():
    with pytest.raises(GridError):
        Partition(np.zeros((2, 2)))


def test_times_are_read_only_copy():
    base = np.array([0.0, 1.0])
    g = Partition(base)
    base[1] = 5.0
    assert g.times[1] == 1.0
    with pytest.raises((ValueError, RuntimeError)):
        g.times[1] = 2.0


def test_subsample_keeps_every_kth_node():
    g = Partition.uniform(1.0, 8)
    c = g.subsample(4)
    assert np.array_equal(c.times, np.array([0.0, 0.5, 1.0]))
    # subsampled nodes are the same floats, not recomputed ones
    assert all(t in set(g.times.tolist()) for t in c.times.tolist())


def test_subsample_requires_divisibility():
    g = Partition.uniform(1.0, 8)
    with pytest.raises(GridError):
        g.subsample(3)
    from fbmsde import DomainError

    with pytest.raises(DomainError):
        g.subsample(0)


def test_index_of_exact_node():
    g = Partition.uniform(2.0, 8)
    assert g.index_of(0.0) == 0
    assert g.index_of(0.5) == 2
    assert g.index_of(2.0) == 8


def test_index_of_rejects_non_node():
    g = Partition.uniform(1.0, 4)
    with pytest.raises(GridError):
        g.index_of(0.3)
    with pytest.raises(GridError):
        g.index_of(1.5)


def test_equality_and_hash_are_exact():
    a = Partition.uniform(1.0, 4)
    b = Partition.uniform(1.0, 4)
    c = Partition(np.array([0.0, 0.25, 0.5, 0.75, 1.0 + 1e-15]))
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_nested_indices_maps_coarse_onto_fine():
    fine = Partition.uniform(1.0, 16)
    coarse = fine.subsample(4)
    idx = nested_indices(coarse, fine)
    assert np.array_equal(idx, [0, 4, 8, 12, 16])
    assert np.array_equal(fine.times[idx], coarse.times)


def test_nested_indices_rejects_non_nested():
    fine = Partition.uniform(1.0, 16)
    other = Partition(np.array([0.0, 0.3, 1.0]))
    with pytest.raises(GridError):
        nested_indices(other, fine)


def test_recomputed_linspace_is_nested_bit_exactly():
    # uniform grids built independently with the same endpoints share nodes
    fine = Partition.uniform(1.0, 64)
    coarse = Partition.uniform(1.0, 16)
    idx = nested_indices(coarse, fine)
    assert np.array_equal(fine.times[idx], coarse.times)
