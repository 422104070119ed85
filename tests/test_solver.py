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
    SolverError,
    StepTooLargeError,
    make_linear_drift,
    resolvent_norm_bound,
    solve_backward_step,
)
from fbmsde.drifts import CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC
from fbmsde.engine import _newton_rows
from fbmsde.solver import (
    _ScalarStep,
    _solve_linear,
    _solve_small,
    _system_solver,
    _step_for,
    _VectorStep,
)


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

# Targets of both signs from 1e-3 to 4e3.  Beyond 2e4 the absolute
# tolerance stalls the cubic at delta = 1e-3 (the stall test's 3e4).
TARGETS_1D = np.concatenate([np.geomspace(1e-3, 4e3, 60),
                             -np.geomspace(1e-3, 4e3, 60)])


# ``halves``: some target halves a Newton update.  From the explicit
# predictor, doublewell1d halves at 0.08 as well as at 0.9.
@pytest.mark.parametrize("spec, delta, halves", [
    (CUBIC1D, 0.08, False),
    (CUBIC1D, 1e-4, False),
    (DOUBLEWELL1D, 0.08, True),
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


# Planar targets of radius 1e-3 to 1e2 in eight directions.
TARGETS_2D = np.array([[r * math.cos(a), r * math.sin(a)]
                       for r in np.geomspace(1e-3, 1e2, 15)
                       for a in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)])


@pytest.mark.parametrize("delta, halves", [
    (2.0 ** -11, False),
    (1e-3, False),
    (0.08, True),
    (0.9, False),
])
def test_planar_step_equals_engine_rows_bit_for_bit(delta, halves):
    c = TARGETS_2D
    y, tally, fallback = _newton_rows(PLANAR_CUBIC, np.full((c.shape[0], 1), delta),
                                      c, SolveConfig())
    assert not fallback.any()
    assert (tally[:, 1] > 0).any() == halves
    for row in range(c.shape[0]):
        r = solve_backward_step(PLANAR_CUBIC, delta, c[row])
        assert r.y.tobytes() == y[row].tobytes()
        assert r.iterations == tally[row, 0]


def test_planar_singular_system_falls_back_and_keeps_its_message():
    # I - J is singular for the swap at delta = 1; its residual at c and at
    # the predictor tie, so both loops start from c.
    c = np.array([[1.0, 2.0], [0.5, -0.25]])
    _, tally, fallback = _newton_rows(_SWAP, np.ones((2, 1)), c, SolveConfig())
    assert fallback.all()
    assert tally[:, 0].tolist() == [1, 1]
    with pytest.raises(LinearSolveFailure) as err:
        solve_backward_step(_SWAP, 1.0, c[0])
    assert str(err.value) == \
        "singular Newton system at iterate with residual 2.236e+00"


def test_scalar_singular_system_is_a_linear_solve_failure():
    # 1 - delta * 1 = 0: the division is never reached.
    with pytest.raises(LinearSolveFailure) as err:
        solve_backward_step(replace(make_linear_drift(np.array([[1.0]])), kappa=0.0),
                            1.0, np.array([2.0]))
    assert str(err.value) == \
        "singular Newton system at iterate with residual 2.000e+00"


def test_scalar_stall_keeps_its_message():
    with pytest.raises(NoConvergenceError) as err:
        solve_backward_step(CUBIC1D, 1e-3, np.array([3e4]))
    assert str(err.value) == \
        "damping stalled with residual 3.638e-12 above tol 1e-12"
    assert err.value.iterations == 17


# b(y) = -y with a reported derivative of 2 - 2.5 * 2^-30, so that at
# delta = 0.5 the Newton system is 1.25 * 2^-30 and a full update is about
# 1.2 * 2^30 times too long: only the last of the 31 tries, at scale
# 2^-30, lowers the residual, to a fifth of it.
_STEEP = 2.0 - 2.5 * 2.0 ** -30


def _long_update_spec(dim: int, calls: list) -> DriftSpec:
    def eval_(y):
        calls.append(y)
        return -y
    return DriftSpec.pointwise(f"long-update-{dim}d", dim, eval_,
                               lambda y: _STEEP * np.eye(dim), -1.0, 1.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_every_loop_lowers_the_residual_only_on_its_last_damping_try(dim):
    calls = []
    spec = _long_update_spec(dim, calls)
    cfg = SolveConfig()
    step = _step_for(spec)
    c = np.ones(dim)
    calls.clear()
    y, norm, iterations, stalled = step.solve(0.5, step.value(c), cfg)
    # The target and the predictor, then 31 tries in every iteration.
    assert (iterations, stalled, len(calls)) == (17, False, 2 + 17 * 31)
    assert norm <= cfg.tol
    rows, tally, _ = _newton_rows(spec, np.full((1, 1), 0.5), c[None], cfg)
    assert tally.tolist() == [[17, 17 * 30, 0]]
    assert rows[0].tobytes() == step.state(y).tobytes()


# --- the small linear solve ---------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_small_solve_of_a_stack_equals_each_system_alone(rng, m, k):
    a = np.eye(m) + 0.5 * rng.standard_normal((40, m, m))
    a[7] = 0.0          # singular
    b = rng.standard_normal((40, m, k))
    with np.errstate(all="raise"):
        x = _solve_small(a, b)
        assert np.isnan(_solve_small(a[7:8], b[7:8])).all()
    assert np.isnan(x[7]).all()
    for j in set(range(40)) - {7}:
        alone = _solve_small(a[j:j + 1], b[j:j + 1])[0]
        assert alone.tobytes() == x[j].tobytes()
        want = np.linalg.solve(a[j], b[j])
        if m == k == 1:
            assert np.array_equal(alone, want)    # the 1x1 LU solve divides
        else:
            # Two solvers agree to the condition number times rounding.
            assert np.linalg.norm(alone - want) <= \
                1e-14 * np.linalg.cond(a[j]) * np.linalg.norm(want)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_one_system_for_a_stack_equals_it_repeated(rng, m):
    # One (m, m) system for every right-hand side of a stack gives the
    # bytes of the same system repeated along the stack axis, NaNs and
    # infinities of non-finite right-hand sides included; a singular
    # system gives NaN rows.
    b = rng.standard_normal((40, m, 2)) * 10.0 ** rng.integers(-150, 150, (40, m, 2))
    b[3, 0, 0], b[5, -1, 1], b[8, 0, 1] = np.nan, np.inf, -np.nan
    b[9], b[11, -1] = -np.inf, np.inf
    regular = np.eye(m) + 0.5 * rng.standard_normal((m, m))
    singular = regular.copy()
    singular[-1] = 0.0
    for a in (regular, singular, np.zeros((m, m))):
        with np.errstate(all="ignore"):
            one = _solve_small(a, b)
            stacked = _solve_small(np.repeat(a[None], 40, axis=0), b)
            # The engine's linear pass writes into its own buffer.
            into = _system_solver(a)(b, np.full(b.shape, 7.0))
        assert one.tobytes() == stacked.tobytes()
        assert np.array_equal(np.isnan(one), np.isnan(stacked))
        assert into.tobytes() == one.tobytes()
    assert np.isnan(one).all()
    with np.errstate(all="ignore"):
        assert np.isnan(_solve_small(singular, b)).all()
        assert not np.isnan(_solve_small(regular, b[12:])).any()


# --- one step object, re-aimed ------------------------------------------------

_SWAP = replace(DriftSpec.pointwise("swap", 2, lambda y: np.array([y[1], y[0]]),
                                    lambda y: np.array([[0.0, 1.0], [1.0, 0.0]]),
                                    1.0, 3.0), kappa=0.0)
_UNSTABLE = replace(make_linear_drift(np.array([[1.0]])), kappa=0.0)

# (spec, cfg, steps within the guard); each mixes converging targets with
# stalls the bisection rescues or not, max_iter, and singular systems.
REAIM_CASES = {
    "cubic1d": (CUBIC1D, SolveConfig(), [1e-4, 1e-3, 0.08, 1.0]),
    "cubic1d-max_iter-2": (CUBIC1D, SolveConfig(max_iter=2), [1e-3, 0.08, 1.0]),
    "doublewell1d": (DOUBLEWELL1D, SolveConfig(), [1e-3, 0.08, 0.9]),
    "singular1d": (_UNSTABLE, SolveConfig(), [0.5, 1.0]),
    "planar_cubic": (PLANAR_CUBIC, SolveConfig(), [1e-3, 0.08, 0.9]),
    "singular2d": (_SWAP, SolveConfig(), [0.5, 1.0]),
}
_REAIM_TARGETS = st.floats(-50.0, 50.0) | st.floats(-1e6, 1e6)


@pytest.mark.parametrize("case", sorted(REAIM_CASES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_reaimed_step_solves_as_a_fresh_call(case, data):
    spec, cfg, steps = REAIM_CASES[case]
    step = _step_for(spec)
    sequence = data.draw(st.lists(
        st.tuples(st.sampled_from(steps), st.lists(_REAIM_TARGETS, min_size=spec.dim,
                                                   max_size=spec.dim)),
        min_size=1, max_size=8))
    returned = []
    for delta, target in sequence:
        c = np.array(target)
        try:
            y, norm, iterations, _ = step.solve(delta, step.value(c), cfg)
        except LinearSolveFailure:
            norm = math.nan
        try:
            fresh = solve_backward_step(spec, delta, c, cfg)
        except SolverError:
            # The public call fails only where Newton does not converge.
            assert not norm <= cfg.tol
            continue
        if not norm <= cfg.tol:
            continue        # rescued: an integrator re-solves it publicly
        got = step.state(y)
        assert got.tobytes() == fresh.y.tobytes()
        assert (norm, iterations) == (fresh.residual, fresh.iterations)
        assert not any(np.shares_memory(got, other) for other in [c] + returned)
        returned.append(got)


# The one-dimensional cases, and a 1x1 linear drift, whose float loop must
# take the decisions of the array loop: `_VectorStep.solve`, whose Newton
# system `_solve_small` solves by a division.
SCALAR_CASES = {name: case for name, case in REAIM_CASES.items() if case[0].dim == 1}
SCALAR_CASES["linear1"] = (make_linear_drift(np.array([[-2.0]])), SolveConfig(),
                           [1e-3, 0.08, 1.0])


def _solve_outcome(solve, delta, c, cfg):
    """The bits of ``y`` and the norm, the iterations and the stall flag
    of one solve, or its ``LinearSolveFailure`` message."""
    try:
        y, norm, iterations, stalled = solve(delta, c, cfg)
    except LinearSolveFailure as exc:
        return str(exc)
    return np.float64(y).tobytes(), np.float64(norm).tobytes(), iterations, stalled


@pytest.mark.parametrize("case", sorted(SCALAR_CASES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_float_loop_takes_the_array_loop_decisions(case, data):
    spec, cfg, steps = SCALAR_CASES[case]
    floats = _ScalarStep(spec)
    arrays = _VectorStep(spec)
    sequence = data.draw(st.lists(st.tuples(st.sampled_from(steps), _REAIM_TARGETS),
                                  min_size=1, max_size=8))
    for delta, c in sequence:
        want = _solve_outcome(arrays.solve, delta, np.array([c]), cfg)
        assert _solve_outcome(floats.solve, delta, c, cfg) == want


# Every case, and a 1x1 and a 2x2 linear drift: the single-path array
# loop against one row of the engine's `_newton_rows`.
ROW_CASES = dict(REAIM_CASES)
ROW_CASES["linear1"] = (make_linear_drift(np.array([[-1.0]])), SolveConfig(),
                        [1e-3, 0.08, 1.0])
ROW_CASES["linear2"] = (make_linear_drift(np.array([[-2.0, 1.0], [0.5, -3.0]])),
                        SolveConfig(), [1e-3, 0.08, 1.0])


@pytest.mark.parametrize("case", sorted(ROW_CASES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_vector_loop_takes_the_row_loop_decisions(case, data):
    spec, cfg, steps = ROW_CASES[case]
    delta = data.draw(st.sampled_from(steps))
    c = np.array(data.draw(st.lists(_REAIM_TARGETS, min_size=spec.dim,
                                    max_size=spec.dim)))
    rows = np.full((1, 1), delta)
    y, tally, fallback = _newton_rows(spec, rows, c[None], cfg)
    if spec.matrix is not None \
            and not np.isfinite(_solve_linear(spec.matrix, rows, c[None])).all():
        # The single path takes the predictor start; the row falls back.
        assert fallback[0]
        return
    try:
        got, norm, iterations, _ = _VectorStep(spec).solve(delta, c, cfg)
    except LinearSolveFailure:
        assert fallback[0]
        return
    assert (norm <= cfg.tol) == (not fallback[0])
    assert got.tobytes() == y[0].tobytes()
    assert iterations == tally[0, 0]


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
