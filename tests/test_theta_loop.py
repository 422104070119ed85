"""The single-path θ-method loop against the loop it replaced.

``_oracle`` is the per-step loop that solved every implicit step with the
public :func:`fbmsde.solver.solve_backward_step`.  The integrators now step
on a step object built once per run (floats in one dimension) and call the
public solver only to re-solve a step that is not a plain converged Newton
solve; every state, every NaN row and every error must stay the oracle's,
bit for bit.
"""
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
    sample_multi,
)
from fbmsde.drifts import CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC
from fbmsde.errors import SolverError
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
