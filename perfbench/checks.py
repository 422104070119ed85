"""Output checks that do not trust the program's own arithmetic.

Each check reads the files one ``fbmsde.cli.main`` call wrote and returns
a list of problems (empty when the output is correct).  Expected values
come from the theorems the experiments reproduce, from the defining
equation of each scheme, or from a recomputation in this file; nothing is
compared against a stored copy of earlier output.  The program is used
only to regenerate the noise (``sample_multi`` and ``coarsen`` with the
documented seed derivation) and, for the rate workload, to run the
``backward_euler`` that the recomputation is compared against.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

__all__ = ["check_rate", "check_rate_table", "check_rate_path", "check_limit",
           "check_limit_table", "linear_limit_closed_form", "check_stability",
           "check_stability_rows", "cubic_implicit_step", "check_failure"]

RATE_SLOPE_WINDOW = (0.95, 1.40)    # criterion 5: strong order 1
RATE_MESHES = tuple(2.0**-k for k in range(5, 10))
RATE_PATH_TOL = 1e-9                # own implicit Euler step vs backward_euler
LIMIT_REL_TOL = 1e-9                # closed form vs limit_comparison.csv
NZ_RATIO_WINDOW = (0.8, 1.25)       # criterion 8: n Z converges
Z_HALVING_WINDOW = (1.7, 2.3)       # criterion 8: Z halves with the mesh
STEP_REL_RESIDUAL = 1e-10           # bem and cn rows against their equations
EM_REL_TOL = 1e-9
SOLVER_TOL = 1e-12                  # SolveConfig's default absolute tolerance


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _config(text: str) -> dict[str, str]:
    pairs = (line.split("=", 1) for line in text.splitlines() if "=" in line)
    return {k.strip(): v.strip() for k, v in pairs}


def _rel_err(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) / np.maximum(1.0, np.abs(b))


def _noise(steps: int, t_final: float, hurst: float, dim: int, seed: int):
    """A master noise path, drawn as the harness draws it from a path seed."""
    from fbmsde import HurstVector, Partition, sample_multi

    return sample_multi(Partition.uniform(t_final, steps),
                        HurstVector.constant(hurst, dim), seed, method="circulant")


# ---------------------------------------------------------------- rate-planar

def slope(meshes, errors) -> float:
    """Least-squares slope of log error against log mesh."""
    x = np.log(np.asarray(meshes))
    y = np.log(np.asarray(errors))
    xc = x - x.mean()
    return float(xc @ (y - y.mean()) / (xc @ xc))


def check_rate_table(rows: list[dict[str, str]], hurst: float) -> list[str]:
    problems = []
    meshes = [float(r["mesh"]) for r in rows]
    errors = np.array([float(r["error"]) for r in rows])
    if meshes != list(RATE_MESHES):
        return [f"H={hurst}: meshes {meshes} are not 2^-5..2^-9"]
    if not np.all(np.isfinite(errors)) or np.any(errors <= 0.0):
        return [f"H={hurst}: errors {errors} not finite and positive"]
    if not np.all(np.diff(errors) < 0.0):
        problems.append(f"H={hurst}: errors {errors} do not decrease as the mesh halves")
    s = slope(meshes, errors)
    lo, hi = RATE_SLOPE_WINDOW
    if not lo <= s <= hi:
        problems.append(f"H={hurst}: fitted slope {s:.4f} outside [{lo}, {hi}]")
    return problems


def _planar_drift(y: np.ndarray) -> np.ndarray:
    r2 = y[0] * y[0] + y[1] * y[1]
    return np.array([y[0] - y[1] - y[0] * r2, y[0] + y[1] - y[1] * r2])


def _planar_jacobian(y: np.ndarray) -> np.ndarray:
    a, b = y
    r2 = a * a + b * b
    return np.array([[1.0 - r2 - 2.0 * a * a, -1.0 - 2.0 * a * b],
                     [1.0 - 2.0 * a * b, 1.0 - r2 - 2.0 * b * b]])


def implicit_euler_step_planar(dt: float, c: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``y - dt b(y) = c`` for the planar cubic with scipy.

    Returns the root and its residual norm.
    """
    from scipy.optimize import root

    def step(y):
        return y - dt * _planar_drift(y) - c, np.eye(2) - dt * _planar_jacobian(y)

    y = root(step, c, jac=True, method="hybr", tol=1e-14).x
    return y, float(np.linalg.norm(step(y)[0]))


def check_rate_path(cfg_seed: int, hurst: float, index: int) -> list[str]:
    """Every step of ``backward_euler`` on one master path against
    :func:`implicit_euler_step_planar` from the same previous state."""
    from fbmsde import backward_euler, child_seed, get_drift

    noise = _noise(2048, 1.0, hurst, 2, child_seed(cfg_seed, index))
    times, values = noise.grid.times, noise.values
    got = backward_euler(get_drift("example2"), noise, np.array([1.0, 1.0])).states
    worst = worst_residual = 0.0
    for k in range(times.size - 1):
        want, residual = implicit_euler_step_planar(
            times[k + 1] - times[k], got[k] + (values[k + 1] - values[k]))
        worst_residual = max(worst_residual, residual)
        worst = max(worst, float(_rel_err(got[k + 1], want).max()))
    if worst_residual > SOLVER_TOL:
        return [f"H={hurst} path {index}: the independent implicit Euler step left "
                f"a residual of {worst_residual:.3e}"]
    if worst > RATE_PATH_TOL:
        return [f"H={hurst} path {index}: a backward_euler step differs from an "
                f"independent implicit Euler step by {worst:.3e} (> {RATE_PATH_TOL:g})"]
    return []


def check_rate(op_dir: str, config_text: str) -> list[str]:
    cfg = _config(config_text)
    problems = []
    hursts = [float(h) for h in cfg["hurst"].split()]
    for h in hursts:
        target = os.path.join(op_dir, "out", f"rate_report_h{h:g}.csv")
        if not os.path.exists(target):
            problems.append(f"missing {target}")
            continue
        problems += check_rate_table(_read_csv(target), h)
    for h in (hursts[0], hursts[-1]):
        problems += check_rate_path(int(cfg["seed"]), h, 0)
    return problems


# --------------------------------------------------------------- limit-linear

def linear_limit_closed_form(values: np.ndarray, n_values, x0: float = 1.0,
                             t: float = 1.0) -> dict[str, np.ndarray]:
    """``limit_check`` for ``b(x) = -x`` and ``p = 1`` in closed form.

    ``values`` holds the noise at the master nodes, shape
    ``(paths, master_n + 1)``.  Backward Euler is ``y' = (y + dB) / (1 + dt)``
    on every grid, the trapezoid flow factor per master step is
    ``(1 - dt/2) / (1 + dt/2)``, and U is the left-point sum
    ``U = 1/2 sum_j Phi(t, s_j) J (b(X_j) dt + dB_j)`` with ``J = -1``.
    """
    paths, master_n = values.shape[0], values.shape[1] - 1
    dt = t / master_n

    def run(nodes, step):
        incs = np.diff(nodes, axis=1)
        y = np.full(paths, x0)
        states = [y]
        for k in range(incs.shape[1]):
            y = (y + incs[:, k]) / (1.0 + step)
            states.append(y)
        return np.stack(states, axis=1)

    ref = run(values, dt)
    factor = (1.0 - 0.5 * dt) / (1.0 + 0.5 * dt)
    phi = factor ** np.arange(master_n + 1)
    flow_to_t = phi[master_n] / phi[:master_n]
    u = 0.5 * np.sum(flow_to_t * (ref[:, :master_n] * dt - np.diff(values, axis=1)),
                     axis=1)
    dists, nz = [], []
    for n in n_values:
        coarse = run(values[:, ::master_n // n], t / n)
        scaled = n * (ref[:, -1] - coarse[:, -1])
        dists.append(np.abs(scaled - u))
        nz.append(np.abs(scaled))
    dists = np.stack(dists, axis=1)
    return {"lp_distance": dists.mean(axis=0),
            "stderr": dists.std(axis=0, ddof=1) / math.sqrt(paths),
            "mean_abs_nZ": np.stack(nz, axis=1).mean(axis=0),
            "mean_abs_U": np.full(len(n_values), np.abs(u).mean())}


def check_limit_table(rows: list[dict[str, str]], n_values) -> list[str]:
    """Criterion 8's properties of the table itself."""
    problems = []
    nz = np.array([float(r["mean_abs_nZ"]) for r in rows])
    ratios = nz[1:] / nz[:-1]
    lo, hi = NZ_RATIO_WINDOW
    if not np.all((ratios >= lo) & (ratios <= hi)):
        problems.append(f"consecutive mean |nZ| ratios {ratios} outside [{lo}, {hi}]")
    z = nz / np.asarray(n_values, dtype=np.float64)
    halving = z[:-1] / z[1:]
    lo, hi = Z_HALVING_WINDOW
    if not np.all((halving >= lo) & (halving <= hi)):
        problems.append(f"unscaled error ratios {halving} outside [{lo}, {hi}]")
    return problems


def check_limit(op_dir: str, config_text: str) -> list[str]:
    from fbmsde import child_seed

    cfg = _config(config_text)
    target = os.path.join(op_dir, "out", "limit_comparison.csv")
    if not os.path.exists(target):
        return [f"missing {target}"]
    rows = _read_csv(target)
    n_values = [int(n) for n in cfg["n_values"].split()]
    if [int(r["n"]) for r in rows] != n_values:
        return [f"n column {[r['n'] for r in rows]} is not {n_values}"]
    master_n = int(cfg["master_factor"]) * max(n_values)
    seed = int(cfg["seed"])
    values = np.stack([
        _noise(master_n, float(cfg["t"]), float(cfg["hurst"]), 1,
               child_seed(seed, i)).values[:, 0]
        for i in range(int(cfg["mc_paths"]))])
    want = linear_limit_closed_form(values, n_values, float(cfg["x0"]),
                                    float(cfg["t"]))
    problems = []
    for column, expected in want.items():
        got = np.array([float(r[column]) for r in rows])
        worst = float((np.abs(got - expected) / np.abs(expected)).max())
        if not worst <= LIMIT_REL_TOL:
            problems.append(f"{column} differs from the closed form by "
                            f"{worst:.3e} relative (> {LIMIT_REL_TOL:g})")
    return problems + check_limit_table(rows, n_values)


# ---------------------------------------------------------------- stiff-cubic

def cubic_implicit_step(c: float, dt: float) -> float:
    """Root of ``y + dt y^3 = c`` by Newton from ``y = c``.

    The map is increasing and convex on the side of ``c``, so the iterates
    approach the root monotonically from outside; stop when they do not move.
    """
    y = c
    for _ in range(500):
        nxt = y - (y + dt * y**3 - c) / (1.0 + 3.0 * dt * y * y)
        if abs(nxt) >= abs(y):
            return y
        y = nxt
    return y


def check_stability_rows(rows: list[dict[str, str]], x0: float, coarse_times,
                         coarse_values, master_times, master_values) -> list[str]:
    problems = []
    by_scheme: dict[str, list[float]] = {}
    for row in rows:
        by_scheme.setdefault(row["scheme"], []).append(float(row["value"]))
    steps = coarse_times.size - 1
    for scheme in ("em", "cn", "bem", "reference"):
        if len(by_scheme.get(scheme, [])) != steps:
            return [f"{scheme}: expected {steps} rows, got {len(by_scheme.get(scheme, []))}"]
    db = np.diff(coarse_values)
    dts = np.diff(coarse_times)

    with np.errstate(all="ignore"):
        prev = np.array([x0] + by_scheme["em"][:-1])
        want = prev + dts * -(prev**3) + db
    got = np.array(by_scheme["em"])
    if not np.array_equal(np.isfinite(got), np.isfinite(want)):
        problems.append("em: non-finite rows differ from the explicit recursion")
    finite = np.isfinite(got) & np.isfinite(want)
    if finite.any() and _rel_err(got[finite], want[finite]).max() > EM_REL_TOL:
        problems.append("em: rows differ from the explicit recursion")

    prev = x0
    for k, y in enumerate(by_scheme["bem"]):
        c = prev + db[k]
        scale = max(1.0, abs(c), dts[k] * abs(y) ** 3)
        if not math.isfinite(y) or abs(y + dts[k] * y**3 - c) > STEP_REL_RESIDUAL * scale:
            problems.append(f"bem row {k + 1} does not solve y + dt y^3 = y_prev + dB")
        elif abs(y) > abs(c) + SOLVER_TOL + 4.0 * np.finfo(float).eps * abs(c):
            problems.append(f"bem row {k + 1}: |Y| = {abs(y)!r} exceeds "
                            f"|Y_prev + dB| = {abs(c)!r}")
        prev = y

    prev = x0
    for k, y in enumerate(by_scheme["cn"]):
        if not math.isfinite(prev):
            if math.isfinite(y):
                problems.append(f"cn row {k + 1} is finite after a non-finite row")
        elif math.isfinite(y):
            half = 0.5 * dts[k]
            c = prev + half * -(prev**3) + db[k]
            scale = max(1.0, abs(c), half * abs(y) ** 3)
            if abs(y + half * y**3 - c) > STEP_REL_RESIDUAL * scale:
                problems.append(f"cn row {k + 1} does not solve the trapezoid equation")
        prev = y

    # The step map y_prev + dB -> y is 1-Lipschitz for -x^3, so a residual
    # of at most SOLVER_TOL per step lets the program's reference drift from
    # the exact implicit Euler by at most i * SOLVER_TOL after i steps;
    # the bound is doubled for rounding.
    y = x0
    master = [y]
    for k in range(master_times.size - 1):
        y = cubic_implicit_step(y + (master_values[k + 1] - master_values[k]),
                                master_times[k + 1] - master_times[k])
        master.append(y)
    ratio = (master_times.size - 1) // steps
    index = np.arange(1, steps + 1) * ratio
    want = np.array(master)[index]
    got = np.array(by_scheme["reference"])
    allowed = 2.0 * index * SOLVER_TOL + 4.0 * np.finfo(float).eps * np.abs(want)
    if not np.all(np.isfinite(got)) or np.any(np.abs(got - want) > allowed):
        problems.append("reference rows differ from an independent implicit Euler "
                        "on the master grid by more than the accumulated solver "
                        "tolerance")
    return problems


def check_stability(op_dir: str, config_text: str) -> list[str]:
    from fbmsde import child_seed, coarsen

    cfg = _config(config_text)
    target = os.path.join(op_dir, "out", "stability.csv")
    if not os.path.exists(target):
        return [f"missing {target}"]
    t_final = float(cfg["t_final"])
    master_steps = round(t_final / float(cfg["master_mesh"]))
    coarse_steps = round(t_final / float(cfg["meshes"]))
    noise = _noise(master_steps, t_final, float(cfg["hurst"]), 1,
                   child_seed(int(cfg["seed"]), 0))
    coarse = coarsen(noise, noise.grid.subsample(master_steps // coarse_steps))
    return check_stability_rows(_read_csv(target), float(cfg["x0"]),
                                coarse.grid.times, coarse.values[:, 0],
                                noise.grid.times, noise.values[:, 0])


def check_failure(stderr: str) -> list[str]:
    """A failed op must be the known Newton stall at step 0 of stiff-cubic's
    far starts; any other failure is a fault the benchmark reports."""
    if stderr.startswith("solver failure: step 0: damping stalled"):
        return []
    return [f"unexpected failure: {stderr.strip()[:200]}"]
