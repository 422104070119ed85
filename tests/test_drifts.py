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
    noise_free_bound_check,
    register_drift,
    verify_one_sided,
)
from fbmsde.drifts import CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC


# --- pointwise oracles ----------------------------------------------------

def test_cubic1d_values():
    b = CUBIC1D
    assert b(np.array([2.0])) == pytest.approx([-8.0])
    assert np.allclose(b.jacobian(np.array([2.0])), [[-12.0]])
    # (Db)b at x = 2: (-12) * (-8) = 96... worked by hand: J @ b
    assert b.drift_drift_product(np.array([2.0])) == pytest.approx([96.0])
    assert b.kappa == 0.0
    assert b.mu == 3.0
    assert b.dim == 1


def test_doublewell1d_values():
    b = DOUBLEWELL1D
    assert b(np.array([2.0])) == pytest.approx([-6.0])           # 2 - 8
    assert b(np.array([-1.0])) == pytest.approx([0.0])           # equilibrium
    assert np.allclose(b.jacobian(np.array([2.0])), [[-11.0]])  # 1 - 12
    # (Db)b at 2: (-11) * (-6) = 66
    assert b.drift_drift_product(np.array([2.0])) == pytest.approx([66.0])
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
