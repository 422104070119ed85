"""Drift fields with one-sided Lipschitz certificates.

A :class:`DriftSpec` bundles a drift ``b``, its Jacobian, and two declared
constants: ``kappa`` with ``<x - y, b(x) - b(y)> <= kappa |x - y|^2`` for all
``x, y``, and a polynomial growth exponent ``mu``.  The implicit solver and
the integrators trust ``kappa`` as declared.

Each spec has one ``eval`` and one ``jacobian``, and both take one state or
a stack of states, so a lane of the path-batched engine has the bits of the
single path it replaces.  A one-dimensional spec may also carry the same
pair on Python floats (``on_float``), which the single-path solver uses to
step without numpy calls; construction checks it bit for bit against the
array forms.  A linear drift records its matrix (``matrix``), so that
each implicit step of it is one direct solve instead of Newton's loop.
All built-in drift functions live at module level so specs stay
picklable and Monte Carlo work can be farmed out to worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "DriftSpec",
    "register_drift",
    "get_drift",
    "available_drifts",
    "make_linear_drift",
]


@dataclass(frozen=True)
class DriftSpec:
    """Drift field together with its declared regularity constants.

    Attributes:
        name: registry identifier, recorded in trajectories and manifests.
        dim: state dimension ``m``.
        eval: callable mapping a state of shape ``(m,)`` to ``b(x)``.
        jacobian: callable mapping a state to the ``(m, m)`` Jacobian of ``b``.
        kappa: one-sided Lipschitz constant; may be negative.
        mu: polynomial growth exponent of ``|b|``.
        on_float: for ``dim == 1`` only, an optional pair ``(b, db)`` of
            callables mapping a Python float ``y`` to ``b(y)`` and
            ``b'(y)`` as floats; ``None`` if the drift has none.
        matrix: for the linear drift ``b(x) = A x`` only, the read-only
            ``(m, m)`` matrix ``A``; ``None`` for every other drift.  It
            takes no part in ``==`` and ``hash``, which compare the
            callables that hold it.

    Both array callables also take a stack of states, shape ``(M, m)``, and
    must give each row the bits of its one-state value, so that an engine
    lane equals its single path.  Construction checks this on ``dim + 1``
    states; :meth:`pointwise` wraps callables written for one state.  The
    float pair must give the bits of the array forms; construction checks
    it on those states and on :data:`FLOAT_PROBES`.  Like the array
    callables it must be module-level functions or ``partial`` objects of
    them, so that specs pickle.  The matrix must be the Jacobian at those
    states.
    """

    name: str
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    kappa: float
    mu: float
    on_float: tuple[Callable[[float], float], Callable[[float], float]] | None = None
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        states = _check_states(self.dim)
        for fn in (self.eval, self.jacobian):
            rows = np.stack([np.asarray(fn(x)) for x in states])
            try:
                same = np.array_equal(fn(states), rows, equal_nan=True)
            except (IndexError, TypeError, ValueError):
                same = False
            if not same:
                raise DomainError(f"drift {self.name!r} does not evaluate a stack of "
                                  f"states row by row; wrap one-state callables "
                                  f"with DriftSpec.pointwise")
        if self.on_float is not None:
            self._check_on_float(np.concatenate([states.ravel(), FLOAT_PROBES]))
        if self.matrix is not None and not (
                self.matrix.shape == (self.dim, self.dim)
                and np.array_equal(self.jacobian(states), np.broadcast_to(
                    self.matrix, (len(states), self.dim, self.dim)))):
            raise DomainError(f"drift {self.name!r}: its matrix is not the "
                              f"Jacobian of the drift")

    def _check_on_float(self, points: np.ndarray) -> None:
        """Require the float pair to give, at every point, the bits of the
        point's row when the array forms evaluate a stack, as an engine
        lane does."""
        if self.dim != 1:
            raise DomainError(f"drift {self.name!r} has dimension {self.dim}; only "
                              f"a one-dimensional drift evaluates on floats")
        b, db = self.on_float
        stack = points[:, None]
        # The far probes overflow a drift of large coefficients; an
        # infinity is compared by its bits as any other value.
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = (("eval", b, self.eval(stack)[:, 0]),
                     ("jacobian", db, self.jacobian(stack)[:, 0, 0]))
        for label, fn, want in pairs:
            try:
                got = np.array([fn(y) for y in points.tolist()], dtype=np.float64)
            except (ArithmeticError, TypeError, ValueError):
                got = None
            if got is None or got.tobytes() != np.asarray(want, np.float64).tobytes():
                raise DomainError(f"drift {self.name!r}: the float form of {label} "
                                  f"does not give the bits of its array form")

    @classmethod
    def pointwise(cls, name: str, dim: int, eval: Callable, jacobian: Callable,
                  kappa: float, mu: float) -> DriftSpec:
        """A spec from callables written for one state: a stack is
        evaluated row by row, and every value is converted to float64."""
        return cls(name, dim, partial(_pointwise, eval), partial(_pointwise, jacobian),
                   kappa, mu)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.eval(x)

    def check_state(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise DomainError(
                f"drift {self.name!r} expects states of shape ({self.dim},), "
                f"got {x.shape}")
        return x


def _check_states(dim: int) -> np.ndarray:
    """The ``dim + 1`` states, entries from 0.25 to 2, on which
    construction checks a spec."""
    return np.linspace(0.25, 2.0, (dim + 1) * dim).reshape(-1, dim)


def _pointwise(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    if x.ndim == 1:
        return np.asarray(fn(x), dtype=np.float64)
    return np.stack([np.asarray(fn(row), dtype=np.float64) for row in x])


# Both signs of 1e-3 to 1e8, where the float forms of a drift must give
# the bits of its array forms.
FLOAT_PROBES = np.concatenate([np.geomspace(1e-3, 1e8, 64), -np.geomspace(1e-3, 1e8, 64)])


# The built-in drifts take one state of shape ``(m,)`` or a stack of states
# of shape ``(M, m)``.  ``x.T[i]`` is coordinate ``i`` as a scalar or as a
# column, and ``np.array(...).T`` moves the coordinates back to the last
# axis, so both shapes run the same floating-point operations.  Jacobians are written
# column by column for the same reason: the full transpose turns the
# columns back into rows.  Squares and cubes of a coordinate are written
# as products, ``a * a`` and ``x * x * x``: a power goes through ``pow``,
# which rounds apart from the product for some arguments, and numpy's array
# power may round apart from Python's float power, while a product of two
# floats rounds the same way everywhere.  So the one-dimensional drifts'
# float forms, the ``*_float`` functions, run the same products on Python
# floats and give the bits of the array forms.

def _cubic1d_eval(x: np.ndarray) -> np.ndarray:
    return -(x * x * x)


def _cubic1d_jac(x: np.ndarray) -> np.ndarray:
    a = x.T[0]
    return np.array([[-3.0 * (a * a)]]).T


def _cubic1d_eval_float(y: float) -> float:
    return -(y * y * y)


def _cubic1d_jac_float(y: float) -> float:
    return -3.0 * (y * y)


def _doublewell1d_eval(x: np.ndarray) -> np.ndarray:
    return x - x * x * x


def _doublewell1d_jac(x: np.ndarray) -> np.ndarray:
    a = x.T[0]
    return np.array([[1.0 - 3.0 * (a * a)]]).T


def _doublewell1d_eval_float(y: float) -> float:
    return y - y * y * y


def _doublewell1d_jac_float(y: float) -> float:
    return 1.0 - 3.0 * (y * y)


def _planar_cubic_eval(x: np.ndarray) -> np.ndarray:
    xt = x.T
    a, b = xt[0], xt[1]
    r2 = a * a + b * b
    return np.array([a - b - a * r2, a + b - b * r2]).T


def _planar_cubic_jac(x: np.ndarray) -> np.ndarray:
    xt = x.T
    a, b = xt[0], xt[1]
    r2 = a * a + b * b
    return np.array([
        [1.0 - r2 - 2.0 * a * a, 1.0 - 2.0 * a * b],
        [-1.0 - 2.0 * a * b, 1.0 - r2 - 2.0 * b * b],
    ]).T


def _linear_eval(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Column by column rather than ``matrix @ x``: a matrix product may
    # block its sums differently for one state and for a stack.
    out = x[..., :1] * matrix[:, 0]
    for j in range(1, matrix.shape[1]):
        out = out + x[..., j:j + 1] * matrix[:, j]
    return out


def _linear_jac(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    # A filled array: a broadcast view costs more to build and to use.
    out = np.empty(x.shape[:-1] + matrix.shape)
    out[...] = matrix
    return out


def _linear_eval_float(a: float, y: float) -> float:
    return y * a


def _linear_jac_float(a: float, y: float) -> float:
    return a


def make_linear_drift(matrix: np.ndarray, name: str = "linear") -> DriftSpec:
    """Linear drift ``b(x) = M x`` with ``kappa`` set to the largest
    eigenvalue of the symmetric part of ``M``; the spec records ``M`` as
    its ``matrix``, and a 1x1 ``M = (a)`` also evaluates on floats, as
    ``y * a``.

    Raises:
        DomainError: ``M`` is not square, has a non-finite entry, its
            symmetric part overflows, so that ``kappa`` is not finite, or
            ``M x`` overflows on the states that construction checks.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"linear drift needs a square matrix, got {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise DomainError(f"linear drift needs a finite matrix, got {matrix.tolist()}")
    matrix = matrix.copy()
    matrix.flags.writeable = False
    # Entries near the float range overflow the symmetric part.
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = float(np.max(np.linalg.eigvalsh(0.5 * (matrix + matrix.T))))
    if not math.isfinite(kappa):
        raise DomainError(f"linear drift {matrix.tolist()} has no finite kappa: "
                          f"its symmetric part overflows")
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(_linear_eval(matrix, _check_states(len(matrix)))).all()
    if not finite:
        raise DomainError(f"linear drift {matrix.tolist()} overflows: M x is not "
                          f"finite for states with entries in [0.25, 2]")
    on_float = None
    if matrix.shape == (1, 1):
        a = float(matrix[0, 0])
        on_float = (partial(_linear_eval_float, a), partial(_linear_jac_float, a))
    return DriftSpec(
        name=name,
        dim=matrix.shape[0],
        eval=partial(_linear_eval, matrix),
        jacobian=partial(_linear_jac, matrix),
        kappa=kappa,
        mu=1.0,
        on_float=on_float,
        matrix=matrix,
    )


# The dissipative cubic contracts pairs of states everywhere, so kappa = 0.
CUBIC1D = DriftSpec(name="cubic1d", dim=1, eval=_cubic1d_eval,
                    jacobian=_cubic1d_jac, kappa=0.0, mu=3.0,
                    on_float=(_cubic1d_eval_float, _cubic1d_jac_float))

# x - x^3 has derivative 1 - 3x^2 <= 1 with equality at the origin.
DOUBLEWELL1D = DriftSpec(name="doublewell1d", dim=1, eval=_doublewell1d_eval,
                         jacobian=_doublewell1d_jac, kappa=1.0, mu=3.0,
                         on_float=(_doublewell1d_eval_float, _doublewell1d_jac_float))

# Rotation plus radial double-well; the symmetric Jacobian part is
# (1 - r^2) I - 2 xx^T, bounded above by the identity.
PLANAR_CUBIC = DriftSpec(name="planar_cubic", dim=2, eval=_planar_cubic_eval,
                         jacobian=_planar_cubic_jac, kappa=1.0, mu=3.0)

_REGISTRY: dict[str, DriftSpec] = {}
_ALIASES = {"example1": "cubic1d", "example2": "planar_cubic"}


def register_drift(spec: DriftSpec, overwrite: bool = False) -> None:
    if spec.name in _ALIASES or spec.name == "linear":
        raise DomainError(f"drift name {spec.name!r} is reserved for a built-in drift")
    if not overwrite and spec.name in _REGISTRY:
        raise DomainError(f"drift {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec


def get_drift(name: str) -> DriftSpec:
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        known = ", ".join(sorted(set(_REGISTRY) | set(_ALIASES)))
        raise DomainError(f"unknown drift {name!r}; available: {known}") from None


def available_drifts() -> list[str]:
    return sorted(set(_REGISTRY) | set(_ALIASES))


for _spec in (CUBIC1D, DOUBLEWELL1D, PLANAR_CUBIC):
    register_drift(_spec)
