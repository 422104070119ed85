"""The measured process of one benchmark run.

``run.py`` starts this file as a fresh interpreter, so its set-up time
covers interpreter start, ``import fbmsde``, writing the generated configs
and one warm-up sample per master grid.  It then repeats the workload's
round until ``--seconds`` have passed and writes what it measured to
``<workdir>/child.json``.  With ``--trace 1`` it adds one traced round
(and, for a workload that fans out, one traced single-process pass of the
same inputs) and writes the spans next to it.

Usage: python3 perfbench/child.py --workload NAME --seed N --seconds S
       --trace 0|1 --workdir DIR [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]

import workloads  # noqa: E402
from tracing import INNER_TARGETS, OUTER_TARGETS, PARALLEL_TARGETS, Tracer, \
    layer_metrics  # noqa: E402

# Layers whose figures come from the single-process pass when the workload
# fans out: their work runs inside the worker processes.
WORKER_LAYERS = ("fbm.", "solver.", "integrate.", "limit.", "harness.")


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _run_op(main, op, op_dir: str, threads: int) -> dict:
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([op.subcommand, "--config", os.path.join(op_dir, "run.cfg"),
                     "--threads", str(threads), "--out", os.path.join(op_dir, "out")])
    return {"op": op.name, "code": code, "stderr": err.getvalue()}


def run_round(main, workload, workdir: str, single: bool = False) -> dict:
    """Run every op of one round; ``single`` forces one process and writes
    to a separate output tree."""
    outcomes = []
    paths = 0
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for op in workload.ops:
        op_dir = os.path.join(workdir, op.name)
        if single:
            op_dir = os.path.join(op_dir, "single")
        outcome = _run_op(main, op, op_dir, 1 if single else op.threads)
        outcomes.append(outcome)
        if outcome["code"] == 0:
            paths += op.paths
    elapsed = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    return {"seconds": elapsed, "cpu_s": cpu, "paths": paths,
            "attempted": len(outcomes),
            "failed": sum(o["code"] != 0 for o in outcomes),
            "outcomes": outcomes}


def _snapshot(workload, workdir: str) -> dict[str, bytes]:
    files = {}
    for op in workload.ops:
        out_dir = os.path.join(workdir, op.name, "out")
        if os.path.isdir(out_dir):
            for name in sorted(os.listdir(out_dir)):
                with open(os.path.join(out_dir, name), "rb") as handle:
                    files[f"{op.name}/{name}"] = handle.read()
    return files


def _outcomes(round_: dict) -> list:
    return [(o["op"], o["code"], o["stderr"]) for o in round_["outcomes"]]


def _differences(label: str, first: dict[str, bytes], workload, workdir: str) -> list[str]:
    """Files of the output tree that differ from round 1's."""
    return [f"{label} output {name} differs from round 1"
            for name, data in _snapshot(workload, workdir).items()
            if first.get(name) != data]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import fbmsde
    from fbmsde.cli import main as fbmsde_main

    workload = workloads.build(args.workload, args.seed)
    for op in workload.ops:
        # A fanned-out op also runs once in one process, in its own tree.
        for sub in ("", "single") if op.threads > 1 else ("",):
            op_dir = os.path.join(args.workdir, op.name, sub)
            os.makedirs(op_dir, exist_ok=True)
            with open(os.path.join(op_dir, "run.cfg"), "w", encoding="utf-8") as handle:
                handle.write(op.config)
    for steps, t_final, hurst, dim in workload.warmup:
        fbmsde.sample_multi(fbmsde.Partition.uniform(t_final, steps),
                            fbmsde.HurstVector.constant(hurst, dim), 0,
                            method="circulant")
    ready = time.monotonic()
    result: dict = {"ready": ready, "fbmsde_file": fbmsde.__file__}
    if not args.setup_only:
        result.update(_measure(fbmsde_main, workload, args))
    with open(os.path.join(args.workdir, "child.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _measure(fbmsde_main, workload, args) -> dict:
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(fbmsde_main, workload, args.workdir))
        if len(rounds) == 1:
            first = _snapshot(workload, args.workdir)
        if time.perf_counter() - start >= args.seconds:
            break
    # Later rounds repeat the first and must reproduce it byte for byte.
    # Rounds overwrite one output tree, so only the last one's files are
    # compared; every round's exit codes and messages are.
    mismatches = _differences(f"round {len(rounds)}", first, workload, args.workdir)
    mismatches += [f"round {i + 1} outcomes differ from round 1"
                   for i, r in enumerate(rounds) if _outcomes(r) != _outcomes(rounds[0])]
    result = {"rounds": rounds, "peak_rss_mb": _peak_rss_mb(),
              "mismatches": mismatches}
    if args.trace:
        result.update(_traced(fbmsde_main, workload, args, rounds, first))
    return result


def _traced(fbmsde_main, workload, args, rounds, first) -> dict:
    fans_out = any(op.threads > 1 for op in workload.ops)
    tracer = Tracer()
    # Inner layers would be traced inside the workers, where spans are lost.
    targets = (OUTER_TARGETS, PARALLEL_TARGETS) if fans_out \
        else (OUTER_TARGETS, PARALLEL_TARGETS, INNER_TARGETS)
    with tracer.installed(*targets):
        traced = run_round(fbmsde_main, workload, args.workdir)
    extra_rounds = [traced]
    mismatches = _differences("traced round", first, workload, args.workdir)
    if _outcomes(traced) != _outcomes(rounds[0]):
        mismatches.append("traced round outcomes differ from round 1")
    layers = layer_metrics(tracer.spans)
    spans = {"round": tracer.spans}
    if fans_out:
        single_tracer = Tracer()
        with single_tracer.installed(OUTER_TARGETS, INNER_TARGETS):
            extra_rounds.append(run_round(fbmsde_main, workload, args.workdir,
                                          single=True))
        single = layer_metrics(single_tracer.spans)
        layers.update({k: v for k, v in single.items() if k.startswith(WORKER_LAYERS)})
        spans["single_process"] = single_tracer.spans
    untraced = [r["paths"] / r["seconds"] for r in rounds]
    layers["trace.overhead_paths_per_s"] = \
        traced["paths"] / traced["seconds"] - statistics.median(untraced)
    trace_path = os.path.join(os.path.dirname(args.workdir),
                              f"trace-{args.workload}.json")
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent", "attrs"],
                   "passes": spans}, handle, separators=(",", ":"))
    return {"layers": layers, "extra_rounds": extra_rounds,
            "trace_mismatches": mismatches}


if __name__ == "__main__":
    sys.exit(main())
