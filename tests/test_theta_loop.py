"""The single-path θ-method loop against the loop it replaced.

``_oracle`` is the per-step loop that solved every implicit step with the
public :func:`fbmsde.solver.solve_backward_step`.  The integrators now step
on a step object built once per run (floats in one dimension) and call the
public solver only to re-solve a step that is not a plain converged Newton
solve; every state, every NaN row and every error must stay the oracle's,
bit for bit.  In the same way a one-dimensional drift's float pair must
give the runs of its array forms, and a run on the pair alone makes no
array call.
"""
from dataclasses import replace

import numpy as np
import pytest

from fbmsde import (
    DomainError,
    FbmPath,
    HurstVector,
    NoConvergenceError,
    Partition,
    SolveConfig,
    backward_euler,
    child_seed,
    crank_nicolson,
    forward_euler,
    make_linear_drift,
    reference_solution,
    sample_multi,
)
from fbmsde import drifts
from fbmsde.configio import ExperimentConfig
from fbmsde.drifts import CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC, DriftSpec
from fbmsde.errors import SolverError
from fbmsde.harness import stability_compare
from fbmsde.integrate import (
    THETA,
    _attach_step,
    _check_inputs,
    _explicit_overflow,
)
from fbmsde.solver import DEFAULT_SOLVE_CONFIG, _check_step_guard, solve_backward_step


def _oracle(scheme, spec, noise, x0, cfg=DEFAULT_SOLVE_CONFIG, stability_mode=False):
    """States of the θ-method with one public solver call per step."""
    theta = THETA[scheme]
    x0 = _check_inputs(spec, noise.dim, (noise.hurst,), x0)
    _check_step_guard(spec, theta * noise.grid.mesh)
    states = np.empty((noise.grid.times.size, spec.dim))
    states[0] = x0
    with np.errstate(all="ignore"):
        deltas = np.diff(noise.grid.times).tolist()
        increments = np.diff(noise.values, axis=0)
        for k, delta in enumerate(deltas):
            c = states[k]
            if theta < 1.0:
                c = c + (1.0 - theta) * delta * spec.eval(states[k])
            c = c + increments[k]
            if theta == 0.0:
                states[k + 1] = c
                continue
            if theta < 1.0 and not np.all(np.isfinite(c)):
                if not stability_mode:
                    raise _explicit_overflow(k)
                states[k + 1] = c
                continue
            try:
                states[k + 1] = solve_backward_step(spec, theta * delta, c, cfg).y
            except SolverError as exc:
                if not stability_mode:
                    _attach_step(exc, k)
                    raise
                states[k + 1] = np.nan
    return states


RUNS = {
    "bem": lambda spec, noise, x0, cfg: backward_euler(spec, noise, x0, cfg),
    "cn": lambda spec, noise, x0, cfg: crank_nicolson(spec, noise, x0, cfg),
    "cn-stability": lambda spec, noise, x0, cfg: crank_nicolson(
        spec, noise, x0, cfg, stability_mode=True),
    "em": lambda spec, noise, x0, cfg: forward_euler(spec, noise, x0),
}


def _expected(run, spec, noise, x0, cfg=DEFAULT_SOLVE_CONFIG):
    scheme = run.split("-")[0]
    cfg = DEFAULT_SOLVE_CONFIG if scheme == "em" else cfg
    return _oracle(scheme, spec, noise, x0, cfg, stability_mode=run == "cn-stability")


def _assert_same_outcome(run, spec, noise, x0, cfg=DEFAULT_SOLVE_CONFIG):
    """The run's states, or its error, are the oracle's."""
    try:
        want = _expected(run, spec, noise, x0, cfg)
    except Exception as exc:  # noqa: BLE001 - the oracle's error is the expectation
        with pytest.raises(type(exc)) as err:
            RUNS[run](spec, noise, x0, cfg)
        assert str(err.value) == str(exc)
        assert getattr(err.value, "step", None) == getattr(exc, "step", None)
        return None
    got = RUNS[run](spec, noise, x0, cfg).states
    assert got.tobytes() == want.tobytes()
    return got


def _linear(dim):
    rng = np.random.default_rng(40 + dim)
    return make_linear_drift(rng.standard_normal((dim, dim)) - 2.0 * np.eye(dim),
                             name=f"linear{dim}")


DRIFTS = {
    "cubic1d": (CUBIC1D, [0.8]),
    "doublewell1d": (DOUBLEWELL1D, [-1.3]),
    "planar_cubic": (PLANAR_CUBIC, [1.0, -0.7]),
    "linear1": (_linear(1), [1.0]),
    "linear2": (_linear(2), [1.0, 2.0]),
    "linear3": (_linear(3), [1.0, -1.0, 0.5]),
}


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("drift", sorted(DRIFTS))
def test_runs_equal_the_per_step_oracle_bit_for_bit(run, drift):
    spec, x0 = DRIFTS[drift]
    grid = Partition.uniform(1.0, 256)
    for path in range(3):
        noise = sample_multi(grid, HurstVector.constant(0.7, spec.dim),
                             child_seed(31, path), method="circulant")
        assert _assert_same_outcome(run, spec, noise, np.array(x0)) is not None


@pytest.mark.parametrize("run", ["bem", "cn", "cn-stability"])
def test_newton_cut_short_is_rescued_as_the_oracle_rescues_it(run):
    # One Newton iteration never meets the tolerance from these starts: every
    # step goes to the public solver, whose bisection rescues it.
    grid = Partition.uniform(0.72, 9)
    noise = sample_multi(grid, HurstVector.constant(0.6, 1), child_seed(3, 0),
                         method="circulant")
    states = _assert_same_outcome(run, CUBIC1D, noise, np.array([5.0]),
                                  SolveConfig(max_iter=1))
    assert np.isfinite(states).all()


def _stability_noise(seed):
    """The coarse path of a ``stability`` run: 9 steps of 0.08, H = 0.6."""
    grid = Partition.uniform(0.72, 9)
    return sample_multi(grid, HurstVector.constant(0.6, 1), child_seed(seed, 0),
                        method="circulant")


def test_stalling_crank_nicolson_keeps_the_oracle_nan_rows():
    for seed in range(4):
        states = _assert_same_outcome("cn-stability", CUBIC1D, _stability_noise(seed),
                                      np.array([500.0]))
        assert np.isnan(states).any()


def test_stalling_backward_euler_raises_the_oracle_error():
    grid = Partition.uniform(1.0, 1000)          # δ = 1e-3
    noise = sample_multi(grid, HurstVector.constant(0.6, 1), child_seed(5, 0),
                         method="circulant")
    with pytest.raises(NoConvergenceError) as err:
        _oracle("bem", CUBIC1D, noise, np.array([1e4]))
    assert err.value.step == 0
    assert str(err.value).startswith("step 0: damping stalled")
    _assert_same_outcome("bem", CUBIC1D, noise, np.array([1e4]))


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("drift", ["cubic1d", "planar_cubic"])
def test_non_finite_noise_gives_the_oracle_outcome(run, bad, drift):
    spec, x0 = DRIFTS[drift]
    grid = Partition.uniform(1.0, 8)
    values = sample_multi(grid, HurstVector.constant(0.7, spec.dim),
                          child_seed(8, 0), method="circulant").values.copy()
    values[3, 0] = bad
    noise = FbmPath(grid=grid, values=values, hurst=HurstVector.constant(0.7, spec.dim),
                    seed=0)
    try:
        _expected(run, spec, noise, np.array(x0))
    except (DomainError, SolverError):
        pass
    else:
        assert run in ("em", "cn-stability")
    _assert_same_outcome(run, spec, noise, np.array(x0))


# --- float forms against array forms ------------------------------------------

# The cubic without its float pair: the single path evaluates the same
# array callables on a one-element array.
CUBIC1D_ARRAYS = replace(CUBIC1D, on_float=None)


def _stability_cfg(x0):
    """``configs/stability_example1.cfg`` from ``x0``."""
    return ExperimentConfig(drift="example1", x0=(x0,), t_final=0.72,
                            hurst_values=(0.6,), schemes=("em", "cn", "bem"),
                            meshes=(0.08,), master_mesh=0.0001, mc_paths=1, seed=0)


def _stability_rows(monkeypatch, spec, x0):
    """Labels and value bytes of the stability rows of ``spec``, or its error."""
    monkeypatch.setitem(drifts._REGISTRY, "cubic1d", spec)
    try:
        rows = stability_compare(_stability_cfg(x0))
    except SolverError as exc:
        return type(exc), str(exc)
    return [row[:2] for row in rows], np.array([row[2] for row in rows]).tobytes()


@pytest.mark.parametrize("x0", [5.0, 500.0, 1e6])
def test_stability_rows_on_floats_equal_those_on_arrays(monkeypatch, x0):
    got = _stability_rows(monkeypatch, CUBIC1D, x0)
    assert got == _stability_rows(monkeypatch, CUBIC1D_ARRAYS, x0)
    if x0 == 1e6:       # the reference stalls at its first step
        assert got[0] is NoConvergenceError
        assert got[1].startswith("step 0: damping stalled")
        return
    labels, values = got
    values = np.frombuffer(values)
    em = [v for (scheme, _), v in zip(labels, values) if scheme == "em"]
    cn = [v for (scheme, _), v in zip(labels, values) if scheme == "cn"]
    assert not np.all(np.abs(em) < 1e6)         # em diverges from both starts
    assert np.isnan(cn).any() == (x0 == 500.0)  # cn stalls from 500


@pytest.mark.parametrize("x0", [5.0, 500.0])
def test_reference_on_floats_equals_the_reference_on_arrays(x0):
    noise = sample_multi(Partition.uniform(0.72, 7200), HurstVector.constant(0.6, 1),
                         child_seed(0, 0), method="circulant")
    want = reference_solution(CUBIC1D_ARRAYS, noise, np.array([x0])).states
    assert reference_solution(CUBIC1D, noise, np.array([x0])).states.tobytes() \
        == want.tobytes()


def _counted(fn, calls):
    def counting(x):
        calls.append(fn.__name__)
        return fn(x)
    return counting


@pytest.mark.parametrize("on_float", [CUBIC1D.on_float, None], ids=["floats", "arrays"])
def test_a_float_paired_single_path_makes_no_array_call(on_float):
    calls = []
    spec = DriftSpec("counted", 1, _counted(CUBIC1D.eval, calls),
                     _counted(CUBIC1D.jacobian, calls), 0.0, 3.0, on_float=on_float)
    calls.clear()       # construction checks the callables
    noise = sample_multi(Partition.uniform(1.0, 200), HurstVector.constant(0.7, 1),
                         child_seed(9, 0), method="circulant")
    states = backward_euler(spec, noise, np.array([5.0])).states
    assert states.tobytes() == backward_euler(CUBIC1D, noise, np.array([5.0])).states.tobytes()
    if on_float is None:
        assert len(calls) > 400         # a drift and a derivative per step at least
    else:
        assert calls == []


@pytest.mark.parametrize("matrix", [[[-2.0]], [[-1.0, 3.0], [-0.5, -2.0]]],
                         ids=["1x1", "2x2"])
def test_a_linear_single_path_makes_no_jacobian_call(matrix):
    linear = make_linear_drift(np.array(matrix))
    calls = []

    def drift(x):
        calls.append("eval")
        return linear.eval(x)

    def jacobian(x):
        calls.append("jacobian")
        return linear.jacobian(x)

    # Without the float pair, so that the 1x1 drift is evaluated on arrays.
    spec = replace(linear, eval=drift, jacobian=jacobian, on_float=None)
    calls.clear()       # construction checks the callables
    noise = sample_multi(Partition.uniform(1.0, 200), HurstVector.constant(0.7, spec.dim),
                         child_seed(9, 0), method="circulant")
    x0 = np.linspace(1.0, -0.5, spec.dim)
    states = backward_euler(spec, noise, x0).states
    assert states.tobytes() == backward_euler(linear, noise, x0).states.tobytes()
    # One residual check per step, and no Newton system.
    assert calls == ["eval"] * 200
