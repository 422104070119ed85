"""fbmsde benchmark: one workload, one seed, one JSON line of results.

Usage (from the repository root):

    python3 perfbench/run.py --workload rate-planar --seed 1 --seconds 15 --trace 0

Set-up is measured on several fresh interpreters (``child.py
--setup-only``) plus the measured one, and reported as their median.  The
measured interpreter repeats the workload's round for ``--seconds`` and
writes what it saw; this process then checks every distinct output with
``checks.py`` and prints the metrics named in ``BENCHMARK.json``: the
end-to-end ones with ``--trace 0``, the per-layer ones with ``--trace 1``.
The last line of standard output is the result object.  Without the
fbmsde sources under ``src/`` the run exits with code 2 and prints none.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0      # the whole run, set-up samples and checks included


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    # --threads is always passed; the environment must not override it.
    env.pop("FBMSDE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def _run_child(args, workdir: str, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run ``child.py`` once; return its set-up time and its report."""
    os.makedirs(workdir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    launched = time.monotonic()
    # A session of its own, so a timeout also ends the child's pool workers.
    with subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            _, stderr = proc.communicate(timeout=max(1.0, deadline - launched))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}:\n{stderr}")
    with open(os.path.join(workdir, "child.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    if not os.path.abspath(report["fbmsde_file"]).startswith(SRC + os.sep):
        raise RuntimeError(f"fbmsde was imported from {report['fbmsde_file']}, "
                           f"not from {SRC}")
    return report["ready"] - launched, report


def _check_outputs(workload, workdir: str, report: dict) -> list[str]:
    import checks

    check = {"rate": checks.check_rate, "limit": checks.check_limit,
             "stability": checks.check_stability}
    problems = list(report["mismatches"]) + list(report.get("trace_mismatches", []))
    outcomes = {o["op"]: o for o in report["rounds"][0]["outcomes"]}
    for op in workload.ops:
        op_dir = os.path.join(workdir, op.name)
        outcome = outcomes[op.name]
        if outcome["code"] != 0:
            found = checks.check_failure(outcome["stderr"])
        else:
            found = check[op.subcommand](op_dir, op.config)
        problems += [f"{op.name}: {p}" for p in found]
        single = os.path.join(op_dir, "single", "out", "limit_comparison.csv")
        if os.path.exists(single):
            with open(single, "rb") as a, \
                    open(os.path.join(op_dir, "out", "limit_comparison.csv"), "rb") as b:
                if a.read() != b.read():
                    problems.append(f"{op.name}: limit_comparison.csv differs between "
                                    f"--threads 1 and --threads {op.threads}")
    return problems


def _metric_specs(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _end_to_end(setups: list[float], report: dict) -> dict[str, float]:
    rounds = report["rounds"]
    if any(r["paths"] == 0 for r in rounds):
        raise RuntimeError("a round completed no path")
    return {
        "setup_s": statistics.median(setups),
        "paths_per_s": statistics.median(r["paths"] / r["seconds"] for r in rounds),
        "cpu_s_per_path": statistics.median(r["cpu_s"] / r["paths"] for r in rounds),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def main(argv: list[str] | None = None) -> int:
    sys.path[:0] = [SRC, HERE]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "fbmsde", "__init__.py")):
        print(f"perfbench: no fbmsde package under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setups = [_run_child(args, os.path.join(workdir, f"setup{i}"), deadline, True)[0]
                  for i in range(SETUP_SAMPLES - 1)]
        setup, report = _run_child(args, workdir, deadline, False)
        setups.append(setup)
        workload = workloads.build(args.workload, args.seed)
        problems = _check_outputs(workload, workdir, report)
        if args.trace:
            values = report["layers"]
            specs = _metric_specs("per_layer")
        else:
            values = _end_to_end(setups, report)
            specs = _metric_specs("end_to_end")
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if set(values) != set(specs):
        print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json "
              f"{sorted(specs)}", file=sys.stderr)
        return 1
    shutil.rmtree(workdir, ignore_errors=True)

    rounds = report["rounds"] + report.get("extra_rounds", [])
    for problem in problems:
        print(f"perfbench: incorrect output: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in specs.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
