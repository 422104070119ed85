"""The benchmark's workloads: generated fbmsde configs, one round at a time.

A round is a fixed tuple of operations; every operation is one call of
``fbmsde.cli.main`` on a generated config file.  A run repeats the same
round until its time is up, so every round attempts the same operations
and fails the same ones.  The benchmark seed reaches the program only as
the ``seed`` key of the generated configs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["Op", "Workload", "WORKLOADS", "build"]

RATE_PATHS = 20         # noise paths per Hurst value in one rate-planar op
RATE_HURST = (0.6, 0.7, 0.8, 0.9)
LIMIT_PATHS = 128       # noise paths in one limit-linear op
LIMIT_THREADS = 2
# stiff-cubic starts whose configs take their seeds from the benchmark seed;
# none of them fails on any seed (the step-0 target stays below the size at
# which the absolute Newton tolerance falls under rounding).
STIFF_SEEDED_STARTS = (5.0, 50.0, 500.0)
STIFF_SEEDS_PER_START = 5
# Far starts with fixed seeds.  They do not depend on the benchmark seed,
# so the runs that fail on the solver's absolute tolerance fail in every
# run of the benchmark, and only those.
STIFF_FIXED = ((5e3, 0), (5e4, 0), (5e4, 14), (1e5, 0), (1e5, 8), (1e6, 0), (1e6, 6))


@dataclass(frozen=True)
class Op:
    """One ``fbmsde.cli.main`` call."""

    name: str           # directory of the op's config and outputs
    subcommand: str     # rate | limit | stability
    config: str         # config file text
    threads: int        # passed as --threads
    paths: int          # noise paths the op completes when it succeeds


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # (steps, t_final, hurst, dim) of every master grid the round samples;
    # set-up samples each once to fill the sampler's coefficient cache.
    warmup: tuple[tuple[int, float, float, int], ...]


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def rate_config(seed: int, paths: int = RATE_PATHS) -> str:
    """``configs/example2_smoke.cfg`` with a reduced path count."""
    return (
        "drift = example2\n"
        "x0 = 1.0 1.0\n"
        "t_final = 1.0\n"
        f"hurst = {' '.join(str(h) for h in RATE_HURST)}\n"
        "schemes = bem\n"
        "meshes = 2^-5 2^-6 2^-7 2^-8 2^-9\n"
        "master_mesh = 2^-11\n"
        f"mc_paths = {paths}\n"
        f"seed = {seed}\n")


def limit_config(seed: int, paths: int = LIMIT_PATHS) -> str:
    """``configs/limit_linear.cfg`` with a reduced path count."""
    return (
        "drift = linear\n"
        "linear_matrix = -1.0\n"
        "x0 = 1.0\n"
        "hurst = 0.7\n"
        "t = 1.0\n"
        "n_values = 32 64 128 256\n"
        "p = 1.0\n"
        f"mc_paths = {paths}\n"
        "master_factor = 8\n"
        f"seed = {seed}\n")


def stability_config(x0: float, seed: int) -> str:
    """``configs/stability_example1.cfg`` with another start and seed."""
    return (
        "drift = example1\n"
        f"x0 = {x0!r}\n"
        "t_final = 0.72\n"
        "hurst = 0.6\n"
        "schemes = em cn bem\n"
        "meshes = 0.08\n"
        "master_mesh = 0.0001\n"
        "mc_paths = 1\n"
        f"seed = {seed}\n")


def _rate_planar(seed: int) -> Workload:
    (cfg_seed,) = _seeds("rate-planar", seed, 1)
    op = Op("rate", "rate", rate_config(cfg_seed), 1,
            RATE_PATHS * len(RATE_HURST))
    return Workload("rate-planar", (op,),
                    tuple((2048, 1.0, h, 2) for h in RATE_HURST))


def _limit_linear(seed: int) -> Workload:
    (cfg_seed,) = _seeds("limit-linear", seed, 1)
    op = Op("limit", "limit", limit_config(cfg_seed), LIMIT_THREADS,
            LIMIT_PATHS)
    return Workload("limit-linear", (op,), ((2048, 1.0, 0.7, 1),))


def _stiff_cubic(seed: int) -> Workload:
    seeds = iter(_seeds("stiff-cubic", seed,
                        len(STIFF_SEEDED_STARTS) * STIFF_SEEDS_PER_START))
    pairs = [(x0, next(seeds)) for x0 in STIFF_SEEDED_STARTS
             for _ in range(STIFF_SEEDS_PER_START)]
    pairs += list(STIFF_FIXED)
    ops = tuple(Op(f"stab{i:02d}", "stability", stability_config(x0, s), 1, 1)
                for i, (x0, s) in enumerate(pairs))
    return Workload("stiff-cubic", ops, ((7200, 0.72, 0.6, 1),))


WORKLOADS = {
    "rate-planar": _rate_planar,
    "limit-linear": _limit_linear,
    "stiff-cubic": _stiff_cubic,
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
