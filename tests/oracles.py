"""Independent oracles that tests check the package against.

Not part of the test suite (the file name does not match ``test_*.py``),
and not part of the package: no command and no acceptance criterion runs
these.  Each re-derives something the package declares or computes by a
second route:

* :func:`verify_one_sided` samples the one-sided Lipschitz quotient that a
  :class:`~fbmsde.drifts.DriftSpec` declares as ``kappa``;
* :func:`noise_free_bound_check` compares a noise-free implicit run with
  the a-priori bound that ``kappa`` implies;
* :func:`solve_U_ode` integrates the linear equation of the limit process
  step by step, the second evaluator of what
  :func:`fbmsde.limit.compute_U` sums;
* :func:`drift_drift_product` is the term ``(J_b b)(x)`` of that equation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fbmsde import (
    DomainError,
    DriftSpec,
    FbmPath,
    GridError,
    HurstVector,
    Partition,
    Trajectory,
    backward_euler,
    zero_path,
)


def drift_drift_product(spec: DriftSpec, x: np.ndarray) -> np.ndarray:
    """The vector ``(Jacobian b)(x) @ b(x)``, shape ``(m,)``."""
    return spec.jacobian(x) @ spec.eval(x)


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


def solve_U_ode(spec: DriftSpec, traj: Trajectory, noise: FbmPath) -> Trajectory:
    """Integrate the linear equation for the limit process along ``traj``.

    The drift part ``J_b(X) U + (1/2)(J_b b)(X)`` is taken implicitly at the
    right node, the noise term ``(1/2) J_b(X) dB`` explicitly at the left
    node, matching the sums in :func:`fbmsde.limit.compute_U` to first
    order.
    """
    if traj.dim != spec.dim or noise.dim != spec.dim:
        raise DomainError("drift, trajectory and noise dimensions must agree")
    if traj.grid != noise.grid:
        raise GridError("trajectory and noise must share one grid")
    times = traj.grid.times
    m = spec.dim
    eye = np.eye(m)
    states = np.zeros((times.size, m))
    for k in range(times.size - 1):
        dt = times[k + 1] - times[k]
        db = noise.values[k + 1] - noise.values[k]
        jac_left = spec.jacobian(traj.states[k])
        jac_right = spec.jacobian(traj.states[k + 1])
        forcing = states[k] \
            + 0.5 * drift_drift_product(spec, traj.states[k + 1]) * dt \
            + 0.5 * (jac_left @ db)
        states[k + 1] = np.linalg.solve(eye - dt * jac_right, forcing)
    return Trajectory(grid=traj.grid, states=states, scheme="error_sde",
                      drift=spec.name, path_seed=noise.seed)
