"""Drift fields with one-sided Lipschitz certificates.

A :class:`DriftSpec` bundles a drift ``b``, its Jacobian, and two declared
constants: ``kappa`` with ``<x - y, b(x) - b(y)> <= kappa |x - y|^2`` for all
``x, y``, and a polynomial growth exponent ``mu``.  The implicit solver and
the integrators trust ``kappa``; :func:`verify_one_sided` probes it by
sampling, and :func:`noise_free_bound_check` exercises the matching a-priori
bound on noise-free trajectories.

Each spec has one ``eval`` and one ``jacobian``, and both take one state or
a stack of states, so a lane of the path-batched engine has the bits of the
single path it replaces.  All built-in drift functions live at module level
so specs stay picklable and Monte Carlo work can be farmed out to worker
processes.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "verify_one_sided",
    "noise_free_bound_check",
    "OneSidedReport",
    "NoiseFreeReport",
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

    Both callables also take a stack of states, shape ``(M, m)``, and must
    give each row the bits of its one-state value, so that an engine lane
    equals its single path.  Construction checks this on ``dim + 1``
    states; :meth:`pointwise` wraps callables written for one state.
    """

    name: str
    dim: int
    eval: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    kappa: float
    mu: float

    def __post_init__(self) -> None:
        states = np.linspace(0.25, 2.0, (self.dim + 1) * self.dim).reshape(-1, self.dim)
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

    @classmethod
    def pointwise(cls, name: str, dim: int, eval: Callable, jacobian: Callable,
                  kappa: float, mu: float) -> DriftSpec:
        """A spec from callables written for one state: a stack is
        evaluated row by row, and every value is converted to float64."""
        return cls(name, dim, partial(_pointwise, eval), partial(_pointwise, jacobian),
                   kappa, mu)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.eval(x)

    def drift_drift_product(self, x: np.ndarray) -> np.ndarray:
        """The vector ``(Jacobian b)(x) @ b(x)``, shape ``(m,)``."""
        return self.jacobian(x) @ self.eval(x)

    def check_state(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise DomainError(
                f"drift {self.name!r} expects states of shape ({self.dim},), "
                f"got {x.shape}")
        return x


def _pointwise(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    if x.ndim == 1:
        return np.asarray(fn(x), dtype=np.float64)
    return np.stack([np.asarray(fn(row), dtype=np.float64) for row in x])


# The built-in drifts take one state of shape ``(m,)`` or a stack of states
# of shape ``(M, m)``.  ``x.T[i]`` is coordinate ``i`` as a scalar or as a
# column, and ``np.array(...).T`` moves the coordinates back to the last
# axis, so both shapes run the same floating-point operations.  Jacobians are written
# column by column for the same reason: the full transpose turns the
# columns back into rows.  Squares of a coordinate are written ``a * a``:
# for a scalar ``a``, ``a**2`` goes through ``pow`` and can round apart
# from the array square.

def _cubic1d_eval(x: np.ndarray) -> np.ndarray:
    return -(x**3)


def _cubic1d_jac(x: np.ndarray) -> np.ndarray:
    a = x.T[0]
    return np.array([[-3.0 * (a * a)]]).T


def _doublewell1d_eval(x: np.ndarray) -> np.ndarray:
    return x - x**3


def _doublewell1d_jac(x: np.ndarray) -> np.ndarray:
    a = x.T[0]
    return np.array([[1.0 - 3.0 * (a * a)]]).T


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
    return np.broadcast_to(matrix, x.shape[:-1] + matrix.shape)


def make_linear_drift(matrix: np.ndarray, name: str = "linear") -> DriftSpec:
    """Linear drift ``b(x) = M x`` with ``kappa`` set to the largest
    eigenvalue of the symmetric part of ``M``."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DomainError(f"linear drift needs a square matrix, got {matrix.shape}")
    matrix = matrix.copy()
    matrix.flags.writeable = False
    kappa = float(np.max(np.linalg.eigvalsh(0.5 * (matrix + matrix.T))))
    return DriftSpec(
        name=name,
        dim=matrix.shape[0],
        eval=partial(_linear_eval, matrix),
        jacobian=partial(_linear_jac, matrix),
        kappa=kappa,
        mu=1.0,
    )


# The dissipative cubic contracts pairs of states everywhere, so kappa = 0.
CUBIC1D = DriftSpec(name="cubic1d", dim=1, eval=_cubic1d_eval,
                    jacobian=_cubic1d_jac, kappa=0.0, mu=3.0)

# x - x^3 has derivative 1 - 3x^2 <= 1 with equality at the origin.
DOUBLEWELL1D = DriftSpec(name="doublewell1d", dim=1, eval=_doublewell1d_eval,
                         jacobian=_doublewell1d_jac, kappa=1.0, mu=3.0)

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


@dataclass(frozen=True)
class OneSidedReport:
    """Result of sampling the one-sided Lipschitz quotient."""

    max_quotient: float
    kappa: float
    violation: bool
    worst_point: np.ndarray


def verify_one_sided(spec: DriftSpec, box_radius: float = 3.0,
                     samples: int = 2000, seed: int = 0,
                     slack: float = 1e-9) -> OneSidedReport:
    """Probe ``sup <x, J_b(y) x> / |x|^2`` over random points and directions.

    The supremum over all ``y`` of the largest eigenvalue of the symmetric
    Jacobian part equals the best one-sided constant, so sampled quotients
    must stay below ``spec.kappa`` up to ``slack``.
    """
    rng = np.random.default_rng(seed)
    worst = -np.inf
    worst_point = np.zeros(spec.dim)
    for _ in range(samples):
        y = rng.uniform(-box_radius, box_radius, size=spec.dim)
        x = rng.standard_normal(spec.dim)
        norm2 = float(x @ x)
        if norm2 == 0.0:
            continue
        jac = spec.jacobian(y)
        quotient = float(x @ (jac @ x)) / norm2
        if quotient > worst:
            worst = quotient
            worst_point = y
    return OneSidedReport(
        max_quotient=worst,
        kappa=spec.kappa,
        violation=bool(worst > spec.kappa + slack),
        worst_point=worst_point,
    )


@dataclass(frozen=True)
class NoiseFreeReport:
    """Outcome of the a-priori bound check on a noise-free trajectory."""

    ok: bool
    max_ratio: float
    final_state: np.ndarray


def noise_free_bound_check(spec: DriftSpec, x0: np.ndarray, t_final: float,
                           steps: int = 400, slack: float = 1.05) -> NoiseFreeReport:
    """Integrate the noise-free dynamics implicitly and compare against the
    a-priori bound ``|x_t|^2 <= (|x_0|^2 + t |b(0)|^2) exp((2 kappa + 1) t)``.

    ``max_ratio`` is the largest observed ``|x_t|^2 / bound(t)``; the check
    passes while it stays below ``slack``.
    """
    from .integrate import backward_euler
    from .grids import Partition
    from .fbm import HurstVector, zero_path

    x0 = spec.check_state(np.atleast_1d(np.asarray(x0, dtype=np.float64)))
    grid = Partition.uniform(t_final, steps)
    noise = zero_path(grid, HurstVector.constant(0.75, spec.dim))
    traj = backward_euler(spec, noise, x0)
    b0 = spec.eval(np.zeros(spec.dim))
    norms2 = np.sum(traj.states**2, axis=1)
    t = grid.times
    bound = (float(x0 @ x0) + t * float(b0 @ b0)) * np.exp((2.0 * spec.kappa + 1.0) * t)
    # t = 0 gives ratio |x0|^2 / |x0|^2; guard the x0 = 0 case.
    safe = np.where(bound > 0.0, bound, 1.0)
    ratios = np.where(bound > 0.0, norms2 / safe, np.where(norms2 > 0.0, np.inf, 0.0))
    max_ratio = float(np.max(ratios))
    return NoiseFreeReport(ok=bool(max_ratio <= slack),
                           max_ratio=max_ratio,
                           final_state=traj.states[-1].copy())
