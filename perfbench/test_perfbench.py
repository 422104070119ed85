"""The benchmark's own tests: its checks reject wrong outputs, its counts
repeat.  Run from the repository root with

    python3 -m pytest -q perfbench

They take about half a minute and are not part of the package's suite.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from child import run_round  # noqa: E402
from tracing import INNER_TARGETS, OUTER_TARGETS, PARALLEL_TARGETS, Tracer, \
    layer_metrics  # noqa: E402

from fbmsde.cli import main as fbmsde_main  # noqa: E402


def _run(tmp_path, subcommand: str, config: str, threads: int = 1) -> str:
    op_dir = tmp_path / subcommand
    op_dir.mkdir(exist_ok=True)
    (op_dir / "run.cfg").write_text(config)
    with contextlib.redirect_stdout(io.StringIO()):
        code = fbmsde_main([subcommand, "--config", str(op_dir / "run.cfg"),
                            "--threads", str(threads), "--out", str(op_dir / "out")])
    assert code == 0
    return str(op_dir)


def _rewrite(path: str, column: str, change) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    fields = list(rows[0])
    for i, row in enumerate(rows):
        row[column] = change(i, row)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture(scope="module")
def rate_dir(tmp_path_factory):
    config = workloads.rate_config(seed=4242)
    return _run(tmp_path_factory.mktemp("rate"), "rate", config), config


def test_rate_check_accepts_program_output(rate_dir):
    op_dir, config = rate_dir
    assert checks.check_rate(op_dir, config) == []


def test_rate_check_rejects_a_scaled_table(rate_dir, tmp_path):
    op_dir, _ = rate_dir
    target = os.path.join(op_dir, "out", "rate_report_h0.9.csv")
    rows = list(csv.DictReader(open(target, newline="")))
    assert checks.check_rate_table(rows, 0.9) == []
    # Errors scaled by mesh^-0.5: the same table with half an order less.
    for row in rows:
        row["error"] = repr(float(row["error"]) * float(row["mesh"]) ** -0.5)
    assert any("slope" in p for p in checks.check_rate_table(rows, 0.9))
    rows[2]["error"] = rows[1]["error"]
    assert any("decrease" in p for p in checks.check_rate_table(rows, 0.9))


def test_rate_path_check_matches_backward_euler():
    assert checks.check_rate_path(4242, 0.7, 1) == []


@pytest.fixture(scope="module")
def limit_dir(tmp_path_factory):
    config = workloads.limit_config(seed=777, paths=16)
    return _run(tmp_path_factory.mktemp("limit"), "limit", config), config


def test_limit_closed_form_matches_program_output(limit_dir):
    op_dir, config = limit_dir
    problems = checks.check_limit(op_dir, config)
    # 16 paths are too few for criterion 8's windows; only they may fail.
    assert [p for p in problems if "closed form" in p] == []


def test_limit_check_rejects_a_shifted_lp_distance(limit_dir):
    op_dir, config = limit_dir
    target = os.path.join(op_dir, "out", "limit_comparison.csv")
    _rewrite(target, "lp_distance",
             lambda i, row: repr(float(row["lp_distance"]) * (1.0 + 1e-7)))
    problems = checks.check_limit(op_dir, config)
    assert any(p.startswith("lp_distance differs") for p in problems)


def test_limit_table_properties():
    n_values = [32, 64, 128, 256]
    good = [{"mean_abs_nZ": v} for v in ("0.50", "0.52", "0.53", "0.535")]
    assert checks.check_limit_table(good, n_values) == []
    bad = [{"mean_abs_nZ": v} for v in ("0.50", "0.52", "0.70", "0.71")]
    assert len(checks.check_limit_table(bad, n_values)) == 2


@pytest.fixture
def stability_dir(tmp_path):
    config = workloads.stability_config(50.0, 3)
    return _run(tmp_path, "stability", config), config


def test_stability_check_accepts_program_output(stability_dir):
    op_dir, config = stability_dir
    assert checks.check_stability(op_dir, config) == []


@pytest.mark.parametrize("scheme, message", [
    ("bem", "bem row 3 does not solve"),
    ("cn", "cn row 3 does not solve"),
    ("em", "em: rows differ"),
    ("reference", "reference rows differ"),
])
def test_stability_check_rejects_a_moved_row(stability_dir, scheme, message):
    op_dir, config = stability_dir
    target = os.path.join(op_dir, "out", "stability.csv")
    rows = list(csv.DictReader(open(target, newline="")))
    index = [i for i, r in enumerate(rows) if r["scheme"] == scheme][2]
    if not np.isfinite(float(rows[index]["value"])):
        pytest.skip(f"{scheme} row 3 is not finite on this path")
    _rewrite(target, "value", lambda i, row: repr(float(row["value"]) * (1.0 + 1e-6))
             if i == index else row["value"])
    assert any(p.startswith(message) for p in checks.check_stability(op_dir, config))


def test_bem_bound_rejects_a_row_above_its_target():
    # From x0 = 0 with dB = 1e-3, a bem value 5e-12 above the target still
    # meets the residual bound, but |Y_1| <= |Y_0 + dB| fails.
    times = np.array([0.0, 0.08])
    noise = np.array([0.0, 1e-3])
    rows = [{"scheme": scheme, "T": "0.08", "value": repr(value)} for scheme, value in (
        ("em", 1e-3),
        ("cn", checks.cubic_implicit_step(1e-3, 0.04)),
        ("bem", 1e-3 + 5e-12),
        ("reference", checks.cubic_implicit_step(1e-3, 0.08)))]
    problems = checks.check_stability_rows(rows, 0.0, times, noise, times, noise)
    assert len(problems) == 1 and problems[0].startswith("bem row 1: |Y|")


def test_failure_check_accepts_only_the_step0_stall():
    assert checks.check_failure(
        "solver failure: step 0: damping stalled with residual 7.276e-12 "
        "above tol 1e-12\n") == []
    assert checks.check_failure("solver failure: step 3: damping stalled\n")
    assert checks.check_failure("error: noise has 2 coordinates\n")


def _traced_counts(workload, workdir, targets) -> dict:
    tracer = Tracer()
    with tracer.installed(*targets):
        run_round(fbmsde_main, workload, workdir)
    metrics = layer_metrics(tracer.spans)
    return {k: metrics[k] for k in ("solver.solves", "solver.newton_iterations",
                                    "integrate.steps", "csvio.bytes",
                                    "fbm.sample_calls", "solver.failures")}


def _small_workload(tmp_path, ops):
    for op in ops:
        os.makedirs(tmp_path / op.name, exist_ok=True)
        (tmp_path / op.name / "run.cfg").write_text(op.config)
    return workloads.Workload("small", tuple(ops), ())


def test_traced_counts_repeat_exactly(tmp_path):
    ops = [workloads.Op("rate", "rate", workloads.rate_config(9, paths=1), 1, 4),
           workloads.Op("stab", "stability", workloads.stability_config(5e4, 0), 1, 1),
           workloads.Op("stab2", "stability", workloads.stability_config(500.0, 9), 1, 1),
           workloads.Op("limit", "limit", workloads.limit_config(9, paths=2), 1, 2)]
    workload = _small_workload(tmp_path, ops)
    targets = (OUTER_TARGETS, PARALLEL_TARGETS, INNER_TARGETS)
    first = _traced_counts(workload, str(tmp_path), targets)
    second = _traced_counts(workload, str(tmp_path), targets)
    assert first == second
    assert first["solver.solves"] > 0 and first["csvio.bytes"] > 0
    # The 5e4 start fails on its first implicit step and is counted.
    assert first["solver.failures"] >= 1


def test_tracing_leaves_outputs_unchanged(tmp_path):
    ops = [workloads.Op("stab", "stability", workloads.stability_config(5.0, 1), 1, 1)]
    workload = _small_workload(tmp_path, ops)
    run_round(fbmsde_main, workload, str(tmp_path))
    plain = (tmp_path / "stab" / "out" / "stability.csv").read_bytes()
    _traced_counts(workload, str(tmp_path), (OUTER_TARGETS, INNER_TARGETS))
    assert (tmp_path / "stab" / "out" / "stability.csv").read_bytes() == plain


def test_self_time_excludes_children_and_sees_through_inline_maps():
    spans = [["harness.mc_strong_error", 0.0, 10.0, -1, None],
             ["_parallel.map_indexed", 1.0, 9.0, 0,
              {"workers": 1, "fanned_out": False, "cpu_s": 8.0}],
             ["integrate.backward_euler", 2.0, 6.0, 1, {"steps": 4}],
             ["solver.solve_backward_step", 3.0, 4.0, 2, {"iterations": 2}]]
    metrics = layer_metrics(spans)
    assert metrics["harness.self_s"] == pytest.approx(6.0)
    assert metrics["integrate.self_s"] == pytest.approx(3.0)
    assert metrics["parallel.efficiency"] == pytest.approx(1.0)
    assert metrics["solver.newton_iterations"] == 2


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    names = {m["name"] for m in spec["per_layer"]}
    produced = set(layer_metrics([])) | {"trace.overhead_paths_per_s"}
    assert names == produced
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
