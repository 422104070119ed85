import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmsde import (
    DomainError,
    DriftSpec,
    available_drifts,
    get_drift,
    make_linear_drift,
    register_drift,
)
from fbmsde.drifts import (
    CUBIC1D,
    DOUBLEWELL1D,
    PLANAR_CUBIC,
    _cubic1d_eval,
    _cubic1d_jac,
    _cubic1d_jac_float,
)
from oracles import drift_drift_product, noise_free_bound_check, verify_one_sided


# --- pointwise oracles ----------------------------------------------------

def test_cubic1d_values():
    b = CUBIC1D
    assert b(np.array([2.0])) == pytest.approx([-8.0])
    assert np.allclose(b.jacobian(np.array([2.0])), [[-12.0]])
    # (Db)b at x = 2: (-12) * (-8) = 96... worked by hand: J @ b
    assert drift_drift_product(b, np.array([2.0])) == pytest.approx([96.0])
    assert b.kappa == 0.0
    assert b.mu == 3.0
    assert b.dim == 1


def test_doublewell1d_values():
    b = DOUBLEWELL1D
    assert b(np.array([2.0])) == pytest.approx([-6.0])           # 2 - 8
    assert b(np.array([-1.0])) == pytest.approx([0.0])           # equilibrium
    assert np.allclose(b.jacobian(np.array([2.0])), [[-11.0]])  # 1 - 12
    # (Db)b at 2: (-11) * (-6) = 66
    assert drift_drift_product(b, np.array([2.0])) == pytest.approx([66.0])
    assert b.kappa == 1.0


def test_planar_cubic_values():
    b = PLANAR_CUBIC
    x = np.array([1.0, -1.0])
    # r^2 = 2: b1 = 1 + 1 - 1*2 = 0, b2 = 1 - 1 + 1*2 = 2
    assert b(x) == pytest.approx([0.0, 2.0])
    jac = b.jacobian(x)
    # d b1/dx = 1 - r^2 - 2x^2 = -3, d b1/dy = -1 - 2xy = 1
    # d b2/dx = 1 - 2xy = 3,       d b2/dy = 1 - r^2 - 2y^2 = -3
    assert np.allclose(jac, [[-3.0, 1.0], [3.0, -3.0]])
    assert b.dim == 2


def test_linear_drift_factory():
    mat = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = make_linear_drift(mat)
    x = np.array([2.0, 3.0])
    assert b(x) == pytest.approx([3.0, -2.0])
    assert np.allclose(b.jacobian(x), mat)
    # rotation is skew-symmetric: symmetric part vanishes
    assert b.kappa == pytest.approx(0.0, abs=1e-12)
    b2 = make_linear_drift(np.array([[2.0]]))
    assert b2.kappa == pytest.approx(2.0)


@pytest.mark.parametrize("spec", [CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC])
def test_jacobian_matches_finite_differences(spec, rng):
    # central differences at 100 points in the radius-3 box
    step = 1e-6
    for _ in range(100):
        x = rng.uniform(-3.0, 3.0, size=spec.dim)
        jac = np.asarray(spec.jacobian(x))
        fd = np.zeros_like(jac)
        for j in range(spec.dim):
            e = np.zeros(spec.dim)
            e[j] = step
            fd[:, j] = (spec(x + e) - spec(x - e)) / (2.0 * step)
        assert np.allclose(jac, fd, rtol=1e-5, atol=1e-5)


LINEAR = [make_linear_drift(np.random.default_rng(m).standard_normal((m, m)),
                            name=f"linear{m}") for m in range(1, 5)]


@pytest.mark.parametrize("spec", [CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC] + LINEAR,
                         ids=lambda spec: spec.name)
def test_one_state_evaluation_equals_row_evaluation(spec, rng):
    # Scalar integrators evaluate one state and the path-batched engine a
    # stack of them; lanes match the scalar runs only if both give the
    # same bits.
    xs = 3.0 * rng.standard_normal((20000, spec.dim))
    assert np.array_equal(np.stack([spec.eval(x) for x in xs]), spec.eval(xs))
    assert np.array_equal(np.stack([spec.jacobian(x) for x in xs]), spec.jacobian(xs))


def test_one_state_callables_need_the_pointwise_wrapper():
    # Given a stack of two states, this swaps the two states, not the
    # coordinates of each, and its constant Jacobian broadcasts silently.
    swap = (lambda y: np.array([y[1], y[0]]),
            lambda y: np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(DomainError, match="DriftSpec.pointwise"):
        DriftSpec("swap", 2, *swap, 1.0, 1.0)
    with pytest.raises(DomainError, match="DriftSpec.pointwise"):
        DriftSpec("swap", 2, lambda y: -y, swap[1], 1.0, 1.0)
    spec = DriftSpec.pointwise("swap", 2, *swap, 1.0, 1.0)
    xs = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(spec.eval(xs), [[2.0, 1.0], [4.0, 3.0]])
    assert spec.jacobian(xs).shape == (2, 2, 2)


# --- float forms of one-dimensional drifts ----------------------------------

FLOAT_PAIRED = [CUBIC1D, DOUBLEWELL1D, make_linear_drift(np.array([[-1.0]])),
                make_linear_drift(np.array([[0.37]]), name="linear_up")]


@pytest.mark.parametrize("spec", FLOAT_PAIRED, ids=lambda spec: spec.name)
@given(y=st.floats(-1e8, 1e8, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_float_forms_have_the_bits_of_the_array_forms(spec, y):
    b, db = spec.on_float
    one, stack = np.array([y]), np.array([[y], [1.5]])
    assert np.float64(b(y)).tobytes() == spec.eval(one)[0].tobytes() \
        == spec.eval(stack)[0, 0].tobytes()
    assert np.float64(db(y)).tobytes() == spec.jacobian(one)[0, 0].tobytes() \
        == spec.jacobian(stack)[0, 0, 0].tobytes()


def test_float_pair_is_checked_against_the_array_forms():
    # A power rounds apart from the product for some probe points.
    with pytest.raises(DomainError, match="float form of eval"):
        DriftSpec("cube", 1, _cubic1d_eval, _cubic1d_jac, 0.0, 3.0,
                  on_float=(lambda y: -(y ** 3), _cubic1d_jac_float))
    with pytest.raises(DomainError, match="float form of jacobian"):
        DriftSpec("cube", 1, _cubic1d_eval, _cubic1d_jac, 0.0, 3.0,
                  on_float=(CUBIC1D.on_float[0], lambda y: -3.0 * y * y))
    with pytest.raises(DomainError, match="only a one-dimensional drift"):
        replace(PLANAR_CUBIC, on_float=CUBIC1D.on_float)
    spec = DriftSpec("cube", 1, _cubic1d_eval, _cubic1d_jac, 0.0, 3.0,
                     on_float=CUBIC1D.on_float)
    assert spec.on_float == CUBIC1D.on_float


def test_only_one_dimensional_linear_drifts_evaluate_on_floats():
    scalar = make_linear_drift(np.array([[-2.0]]))
    assert pickle.loads(pickle.dumps(scalar)).on_float[0](3.0) == -6.0
    assert make_linear_drift(-np.eye(2)).on_float is None
    assert PLANAR_CUBIC.on_float is None
    assert DriftSpec.pointwise("p", 1, lambda y: -y, lambda y: -np.eye(1),
                               0.0, 1.0).on_float is None


def test_linear_drifts_record_their_matrix():
    matrix = np.array([[-1.0, 3.0], [-0.5, -2.0]])
    spec = make_linear_drift(matrix)
    assert np.array_equal(spec.matrix, matrix)
    assert not spec.matrix.flags.writeable
    assert np.array_equal(pickle.loads(pickle.dumps(spec)).matrix, matrix)
    # The matrix takes no part in == and hash.
    assert spec == spec and hash(spec) == hash(spec)
    assert spec != make_linear_drift(matrix)
    assert replace(spec, kappa=0.0).matrix is spec.matrix
    for other in (CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC):
        assert other.matrix is None
    assert DriftSpec.pointwise("p", 1, lambda y: -y, lambda y: -np.eye(1),
                               0.0, 1.0).matrix is None


@pytest.mark.parametrize("spec, matrix", [
    (make_linear_drift(np.array([[-1.0]])), np.array([[-2.0]])),
    (make_linear_drift(np.array([[-1.0]])), np.array([[-1.0, 0.0], [0.0, -1.0]])),
    (CUBIC1D, np.array([[0.0]])),
    (PLANAR_CUBIC, np.eye(2)),
], ids=["other-entry", "other-shape", "cubic1d", "planar_cubic"])
def test_a_matrix_must_be_the_jacobian(spec, matrix):
    with pytest.raises(DomainError, match="its matrix is not the Jacobian"):
        replace(spec, matrix=matrix)


@pytest.mark.parametrize("matrix, message", [
    ([[np.nan]], "linear drift needs a finite matrix, got [[nan]]"),
    ([[-1.0, np.inf], [0.0, -1.0]],
     "linear drift needs a finite matrix, got [[-1.0, inf], [0.0, -1.0]]"),
    # Each entry is finite, but M + M^T overflows.
    ([[1e308, 0.0], [0.0, -1e308]],
     "linear drift [[1e+308, 0.0], [0.0, -1e+308]] has no finite kappa: "
     "its symmetric part overflows"),
    # kappa is finite (M is skew), but M x overflows.
    ([[0.0, 1e308], [-1e308, 0.0]],
     "linear drift [[0.0, 1e+308], [-1e+308, 0.0]] overflows: M x is not "
     "finite for states with entries in [0.25, 2]"),
], ids=["nan", "inf", "overflow", "drift-overflow"])
def test_a_linear_drift_needs_a_finite_matrix_and_kappa(matrix, message):
    # Raised before anything overflows: a RuntimeWarning here fails the test.
    with pytest.raises(DomainError) as err:
        make_linear_drift(np.array(matrix))
    assert str(err.value) == message


@pytest.mark.parametrize("a", [-1e305, 1e300])
def test_a_large_coefficient_builds_without_warning(a):
    # The float pair is checked on probes up to 1e8, where y * a
    # overflows for the first coefficient; no RuntimeWarning may escape.
    spec = make_linear_drift(np.array([[a]]))
    assert spec.on_float[0](2.0) == 2.0 * a
    assert spec.kappa == a


# --- structural validation -------------------------------------------------

def test_check_state_validates_shape_and_dtype():
    with pytest.raises(DomainError):
        CUBIC1D.check_state(np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        PLANAR_CUBIC.check_state(np.array([1.0]))
    out = CUBIC1D.check_state([2])
    assert out.dtype == np.float64
    assert out.shape == (1,)


def test_make_linear_drift_rejects_non_square():
    with pytest.raises(DomainError):
        make_linear_drift(np.zeros((2, 3)))


def test_registry_lookup_and_aliases():
    assert get_drift("cubic1d") is CUBIC1D
    assert get_drift("example1") is CUBIC1D
    assert get_drift("example2") is PLANAR_CUBIC
    assert get_drift("doublewell1d") is DOUBLEWELL1D
    names = available_drifts()
    assert "cubic1d" in names and "planar_cubic" in names
    with pytest.raises(DomainError) as err:
        get_drift("no_such_drift")
    assert "cubic1d" in str(err.value)   # message lists what is available


def test_register_drift_conflict_handling():
    spec = DriftSpec("throwaway_linear", 1,
                     make_linear_drift(np.array([[-1.0]])).eval,
                     make_linear_drift(np.array([[-1.0]])).jacobian,
                     0.0, 3.0)
    register_drift(spec)
    try:
        assert get_drift("throwaway_linear") is spec
        with pytest.raises(DomainError):
            register_drift(spec)
        register_drift(spec, overwrite=True)
    finally:
        from fbmsde.drifts import _REGISTRY
        _REGISTRY.pop("throwaway_linear", None)


@pytest.mark.parametrize("name", ["example1", "example2", "linear"])
def test_register_drift_rejects_reserved_names(name):
    # An alias always resolves to its built-in, and a config reads
    # ``linear`` as the matrix drift, so such a spec could never be reached.
    with pytest.raises(DomainError, match="reserved"):
        register_drift(make_linear_drift(np.array([[-1.0]]), name=name))
    from fbmsde.drifts import _REGISTRY
    assert name not in _REGISTRY


# --- one-sided Lipschitz and growth checks ---------------------------------

@pytest.mark.parametrize("spec", [CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC])
def test_declared_kappa_is_honest(spec):
    report = verify_one_sided(spec, box_radius=3.0, samples=2000, seed=0)
    assert not report.violation
    assert report.max_quotient <= spec.kappa + 1e-9


def test_verify_one_sided_flags_violations():
    # b(x) = +x^3 is expansive: no finite kappa works, quotient grows
    grower = DriftSpec("grower", 1,
                       lambda x: x ** 3,
                       lambda x: 3.0 * x[..., None] ** 2,
                       0.0, 3.0)
    report = verify_one_sided(grower, box_radius=3.0, samples=500, seed=1)
    assert report.violation
    assert report.max_quotient > 1.0
    assert report.worst_point is not None


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=200, deadline=None)
def test_doublewell_one_sided_pair_property(x, y):
    # <b(x) - b(y), x - y> <= kappa |x - y|^2 for every pair
    bx = DOUBLEWELL1D(np.array([x]))[0]
    by = DOUBLEWELL1D(np.array([y]))[0]
    lhs = (bx - by) * (x - y)
    assert lhs <= DOUBLEWELL1D.kappa * (x - y) ** 2 + 1e-9


@given(
    st.floats(-3, 3), st.floats(-3, 3),
    st.floats(-3, 3), st.floats(-3, 3),
)
@settings(max_examples=200, deadline=None)
def test_planar_cubic_one_sided_pair_property(x1, x2, y1, y2):
    x = np.array([x1, x2])
    y = np.array([y1, y2])
    lhs = float((PLANAR_CUBIC(x) - PLANAR_CUBIC(y)) @ (x - y))
    assert lhs <= PLANAR_CUBIC.kappa * float((x - y) @ (x - y)) + 1e-9


@pytest.mark.parametrize("spec", [CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC])
def test_polynomial_growth_envelope(spec, rng):
    # |b(x)| <= C (1 + |x|^mu) on the radius-5 box, with a test-local C
    C = 4.0
    for _ in range(500):
        x = rng.uniform(-5.0, 5.0, size=spec.dim)
        norm_b = np.linalg.norm(spec(x))
        assert norm_b <= C * (1.0 + np.linalg.norm(x) ** spec.mu)


# --- noise-free a-priori bound ---------------------------------------------

@pytest.mark.parametrize("spec", [CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC])
def test_noise_free_bound_holds(spec):
    x0 = np.full(spec.dim, 1.5)
    report = noise_free_bound_check(spec, x0, t_final=2.0)
    assert report.ok
    assert report.max_ratio <= 1.0 + 1e-9
    assert np.isfinite(report.final_state).all()


def test_noise_free_bound_linear_decay():
    # dx = -x dt from 1.0: the numerical flow must shadow e^{-t}
    spec = make_linear_drift(np.array([[-1.0]]))
    report = noise_free_bound_check(spec, np.array([1.0]), t_final=1.0, steps=2000)
    assert report.ok
    assert report.final_state[0] == pytest.approx(np.exp(-1.0), rel=1e-3)
