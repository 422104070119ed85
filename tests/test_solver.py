import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmsde import (
    DomainError,
    DriftSpec,
    LinearSolveFailure,
    NoConvergenceError,
    SolveConfig,
    StepTooLargeError,
    make_linear_drift,
    resolvent_norm_bound,
    solve_backward_step,
)
from fbmsde.drifts import CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC
from fbmsde.engine import _newton_rows


def real_cubic_root(c: float) -> float:
    """Unique real root of y^3 + y - c = 0, via the companion matrix."""
    roots = np.roots([1.0, 0.0, 1.0, -c])
    (root,) = [z.real for z in roots if abs(z.imag) < 1e-10]
    return root


# --- correctness oracles ----------------------------------------------------

def test_cubic_step_exact_rational_root():
    # y + y^3 = 2 factors as (y - 1)(y^2 + y + 2)
    r = solve_backward_step(CUBIC1D, 1.0, np.array([2.0]))
    assert r.y[0] == pytest.approx(1.0, abs=1e-12)
    assert r.residual <= 1e-12


@pytest.mark.parametrize("c", [-7.0, -0.3, 0.0, 0.5, 5.0, 50.0])
def test_cubic_step_against_companion_matrix(c):
    r = solve_backward_step(CUBIC1D, 1.0, np.array([c]))
    assert r.y[0] == pytest.approx(real_cubic_root(c), rel=1e-10, abs=1e-10)
    assert r.residual <= 1e-12


def test_linear_step_closed_form_and_iteration_count():
    spec = make_linear_drift(np.array([[-2.0]]))
    r = solve_backward_step(spec, 0.1, np.array([3.0]))
    # (1 + 0.2) y = 3
    assert r.y[0] == pytest.approx(3.0 / 1.2, rel=1e-14)
    # Newton is exact on linear problems
    assert r.iterations <= 2


def test_zero_step_returns_target_copy():
    c = np.array([4.0])
    r = solve_backward_step(CUBIC1D, 0.0, c)
    assert r.y[0] == 4.0
    assert r.iterations == 0
    r.y[0] = -1.0
    assert c[0] == 4.0


def test_planar_step_satisfies_equation():
    c = np.array([0.7, -1.1])
    delta = 0.25
    r = solve_backward_step(PLANAR_CUBIC, delta, c)
    res = r.y - delta * PLANAR_CUBIC(r.y) - c
    assert np.linalg.norm(res) <= 1e-12
    assert r.residual == pytest.approx(np.linalg.norm(res), abs=1e-15)


def test_bisection_rescues_starved_newton():
    # one Newton iteration cannot reach tol from c = 50; the scalar
    # bracketing fallback still must return the root
    r = solve_backward_step(CUBIC1D, 1.0, np.array([50.0]),
                            SolveConfig(tol=1e-12, max_iter=1))
    assert r.y[0] == pytest.approx(real_cubic_root(50.0), abs=1e-10)
    assert r.residual <= 1e-12
    # The rescue's root, pinned to the bit.
    assert r.y[0] == float.fromhex("0x1.cbfa1647e60f8p+1")
    assert r.iterations == 1


# --- guard rails and failure modes ------------------------------------------

def test_kappa_guard_trips_above_limit():
    with pytest.raises(StepTooLargeError):
        solve_backward_step(DOUBLEWELL1D, 1.0, np.array([0.5]))
    # the guard is strict: kappa * delta = 0.9 still solves
    r = solve_backward_step(DOUBLEWELL1D, 0.9, np.array([0.5]))
    assert r.residual <= 1e-12


def test_kappa_guard_can_be_disabled():
    # The guard reads the drift's declared kappa and skips kappa <= 0.
    # delta = 1 with b(y) = y - y^3 reduces to y^3 = c
    r = solve_backward_step(replace(DOUBLEWELL1D, kappa=0.0), 1.0, np.array([8.0]))
    assert r.y[0] == pytest.approx(2.0, abs=1e-10)


def test_step_too_large_is_a_value_error():
    with pytest.raises(ValueError):
        solve_backward_step(DOUBLEWELL1D, 2.0, np.array([0.0]))


def test_no_convergence_reports_residual():
    with pytest.raises(NoConvergenceError) as err:
        solve_backward_step(PLANAR_CUBIC, 0.3, np.array([0.3, 0.4]),
                            SolveConfig(tol=1e-30))
    assert err.value.residual is not None
    assert err.value.residual < 1e-10      # stalled at rounding level
    assert err.value.iterations >= 1


def test_no_convergence_scalar_when_bisection_cannot_help():
    with pytest.raises(NoConvergenceError):
        solve_backward_step(CUBIC1D, 1.0, np.array([5.0]),
                            SolveConfig(tol=1e-30))


def test_singular_newton_system_raises():
    swap = DriftSpec.pointwise("swap", 2,
                               lambda y: np.array([y[1], y[0]]),
                               lambda y: np.array([[0.0, 1.0], [1.0, 0.0]]),
                               1.0, 3.0)
    with pytest.raises(LinearSolveFailure):
        solve_backward_step(replace(swap, kappa=0.0), 1.0, np.array([1.0, 2.0]))


def test_invalid_inputs_rejected():
    with pytest.raises(DomainError):
        solve_backward_step(CUBIC1D, -0.1, np.array([1.0]))
    with pytest.raises(DomainError):
        solve_backward_step(CUBIC1D, math.nan, np.array([1.0]))
    with pytest.raises(DomainError):
        solve_backward_step(CUBIC1D, 0.1, np.array([np.inf]))
    with pytest.raises(DomainError):
        SolveConfig(tol=0.0)
    with pytest.raises(DomainError):
        SolveConfig(max_iter=0)


@given(st.floats(-30.0, 30.0), st.floats(0.001, 2.0))
@settings(max_examples=150, deadline=None)
def test_cubic_step_property(c, delta):
    r = solve_backward_step(CUBIC1D, delta, np.array([c]))
    assert r.residual <= 1e-12
    # dissipativity of the implicit map: |y| <= |c|
    assert abs(r.y[0]) <= abs(c) + 1e-12


# --- the one-dimensional step on floats -------------------------------------

# Targets of both signs from 1e-3 to 4e3; far beyond, the absolute
# tolerance stalls.
TARGETS_1D = np.concatenate([np.geomspace(1e-3, 4e3, 60),
                             -np.geomspace(1e-3, 4e3, 60)])


@pytest.mark.parametrize("spec, delta, halves", [
    (CUBIC1D, 0.08, False),
    (CUBIC1D, 1e-4, False),
    (DOUBLEWELL1D, 0.08, False),
    (DOUBLEWELL1D, 0.9, True),
    (make_linear_drift(np.array([[-2.0]])), 0.08, False),
])
def test_scalar_step_equals_engine_rows_bit_for_bit(spec, delta, halves):
    c = TARGETS_1D[:, None]
    y, tally, fallback = _newton_rows(spec, np.full(c.shape, delta), c,
                                      SolveConfig())
    assert not fallback.any()
    assert (tally[:, 1] > 0).any() == halves
    for row in range(c.shape[0]):
        r = solve_backward_step(spec, delta, c[row])
        assert r.y.shape == (1,)
        assert r.y.tobytes() == y[row].tobytes()
        assert r.iterations == tally[row, 0]


def test_scalar_singular_system_is_a_linear_solve_failure():
    # 1 - delta * 1 = 0: the division is never reached.
    with pytest.raises(LinearSolveFailure) as err:
        solve_backward_step(replace(make_linear_drift(np.array([[1.0]])), kappa=0.0),
                            1.0, np.array([2.0]))
    assert str(err.value) == \
        "singular Newton system at iterate with residual 2.000e+00"


def test_scalar_stall_keeps_its_message():
    with pytest.raises(NoConvergenceError) as err:
        solve_backward_step(CUBIC1D, 1e-3, np.array([1e4]))
    assert str(err.value) == \
        "damping stalled with residual 1.819e-12 above tol 1e-12"
    assert err.value.iterations == 15


# --- resolvent norm and its monotonicity bound -------------------------------

def test_resolvent_scalar_oracles():
    norm, bound = resolvent_norm_bound(np.array([[0.0]]), 1.0, 0.0)
    assert norm == pytest.approx(1.0)
    assert bound == pytest.approx(1.0)
    norm, bound = resolvent_norm_bound(np.array([[-1.0]]), 1.0, -1.0)
    assert norm == pytest.approx(0.5)
    assert bound == pytest.approx(0.5)


def test_resolvent_diagonal_oracle():
    # I - 0.5 diag(1, -5) = diag(0.5, 3.5): norm 2, bound 1/(1 - 0.5) = 2
    norm, bound = resolvent_norm_bound(np.diag([1.0, -5.0]), 0.5, 1.0)
    assert norm == pytest.approx(2.0)
    assert bound == pytest.approx(2.0)
    assert norm <= bound + 1e-12


def test_resolvent_skew_matrix_strictly_below_bound():
    skew = np.array([[0.0, 2.0], [-2.0, 0.0]])
    norm, bound = resolvent_norm_bound(skew, 1.0, 0.0)
    assert norm == pytest.approx(1.0 / np.sqrt(5.0))
    assert bound == pytest.approx(1.0)


def test_resolvent_rejects_bad_inputs():
    with pytest.raises(DomainError):
        resolvent_norm_bound(np.array([[1.0]]), 1.0, 1.0)     # lam * t = 1
    with pytest.raises(DomainError):
        resolvent_norm_bound(np.array([[1.0]]), 2.0, 1.0)     # lam * t > 1
    with pytest.raises(DomainError):
        resolvent_norm_bound(np.array([[1.0]]), -1.0, 0.0)
    with pytest.raises(DomainError):
        resolvent_norm_bound(np.zeros((2, 3)), 1.0, 0.0)
    with pytest.raises(LinearSolveFailure):
        resolvent_norm_bound(np.array([[1.0]]), 1.0, 0.5)     # singular system


def test_resolvent_bound_over_random_matrices(rng):
    # with lam the top eigenvalue of the symmetric part, norm <= bound
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        jac = rng.normal(size=(dim, dim))
        lam = float(np.max(np.linalg.eigvalsh(0.5 * (jac + jac.T))))
        t = 0.5 / max(lam, 1.0) if lam > 0 else float(rng.uniform(0.01, 2.0))
        norm, bound = resolvent_norm_bound(jac, t, lam)
        assert norm <= bound * (1.0 + 1e-9)


def test_resolvent_bound_stays_below_exponential_envelope():
    # 1 / (1 - x) <= e^{2x} on [0, 1/2], the regime used by the step guard
    for x in np.linspace(0.0, 0.5, 101):
        assert 1.0 / (1.0 - x) <= math.exp(2.0 * x) + 1e-12
