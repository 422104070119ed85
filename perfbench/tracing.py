"""Span tracing around the public functions of each fbmsde layer.

A :class:`Tracer` replaces a function under the name its caller looks it up
by (``fbmsde.integrate.solve_backward_step`` is what ``backward_euler``
calls, so that is the name wrapped) and records one span per call: layer
name, start, end, parent span and a few counts taken from the arguments or
the result.  Spans stay in memory; the caller writes them out.

Nothing here changes the program's results; a wrapped call returns what
the original returns and re-raises what it raises.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import resource
import time

__all__ = ["Tracer", "INNER_TARGETS", "OUTER_TARGETS", "PARALLEL_TARGETS",
           "layer_metrics"]


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


# Attrs hooks see the call's arguments and its result, or the exception it
# raised; they return the counts recorded on the span.

def _steps(args, kwargs, result):
    return {"steps": int(args[1].grid.n_steps)}


def _iterations(args, kwargs, result):
    if isinstance(result, BaseException):
        return {}
    return {"iterations": int(result.iterations)}


def _bytes_at(position):
    def attrs(args, kwargs, result):
        if isinstance(result, BaseException):
            return {}
        return {"bytes": os.path.getsize(args[position])}
    return attrs


# (module, attribute, span name, attrs hook).  Inner targets run inside
# per-path work and therefore inside worker processes when threads > 1.
INNER_TARGETS = (
    ("fbmsde.harness", "sample_multi", "fbm.sample_multi", None),
    ("fbmsde.limit", "sample_multi", "fbm.sample_multi", None),
    ("fbmsde.integrate", "solve_backward_step", "solver.solve_backward_step",
     _iterations),
    ("fbmsde.harness", "backward_euler", "integrate.backward_euler", _steps),
    ("fbmsde.integrate", "backward_euler", "integrate.backward_euler", _steps),
    ("fbmsde.limit", "backward_euler", "integrate.backward_euler", _steps),
    ("fbmsde.harness", "forward_euler", "integrate.forward_euler", _steps),
    ("fbmsde.harness", "crank_nicolson", "integrate.crank_nicolson", _steps),
    ("fbmsde.limit", "fundamental_matrix_reference",
     "integrate.fundamental_matrix_reference", None),
    ("fbmsde.limit", "compute_U", "limit.compute_U", None),
)
# Outer targets run in the process that called fbmsde.cli.main.
OUTER_TARGETS = (
    ("fbmsde.harness", "mc_strong_error", "harness.mc_strong_error", None),
    ("fbmsde.cli", "stability_compare", "harness.stability_compare", None),
    ("fbmsde.cli", "limit_check", "harness.limit_check", None),
    ("fbmsde.cli", "write_rate_csv", "csvio.write_rate_csv", _bytes_at(1)),
    ("fbmsde.cli", "write_limit_csv", "csvio.write_limit_csv", _bytes_at(1)),
    ("fbmsde.cli", "write_stability_csv", "csvio.write_stability_csv",
     _bytes_at(1)),
    ("fbmsde.cli", "write_manifest", "csvio.write_manifest", _bytes_at(0)),
    ("fbmsde.cli", "load_config_file", "configio.load_config_file", None),
    ("fbmsde.cli", "experiment_config_from_mapping",
     "configio.experiment_config_from_mapping", None),
    ("fbmsde.cli", "limit_params_from_mapping",
     "configio.limit_params_from_mapping", None),
)
PARALLEL_TARGETS = (
    ("fbmsde.harness", "map_indexed", "_parallel.map_indexed", None),
    ("fbmsde.limit", "map_indexed", "_parallel.map_indexed", None),
)

# Span fields, kept as lists for a small footprint.
_NAME, _START, _END, _PARENT, _ATTRS = range(5)


class Tracer:
    """Records nested spans of wrapped calls in one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, attrs_hook):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[_END] = clock()
                span[_ATTRS] = {"error": type(exc).__name__}
                if attrs_hook is not None:
                    span[_ATTRS].update(attrs_hook(args, kwargs, exc))
                raise
            finally:
                stack.pop()
            span[_END] = clock()
            if attrs_hook is not None:
                span[_ATTRS] = attrs_hook(args, kwargs, result)
            return result

        return traced

    def _wrap_map(self, fn):
        """``map_indexed`` with the CPU time of whoever ran the workers."""
        inner = self._wrap("_parallel.map_indexed", fn, None)

        def traced(worker, payload, count, threads=1):
            fanned_out = threads > 1 and count > 1
            who = resource.RUSAGE_CHILDREN if fanned_out else resource.RUSAGE_SELF
            index = len(self.spans)
            cpu0 = _cpu(who)
            result = inner(worker, payload, count, threads)
            self.spans[index][_ATTRS] = {"workers": int(threads) if fanned_out else 1,
                                         "fanned_out": fanned_out,
                                         "cpu_s": _cpu(who) - cpu0}
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, *target_sets):
        """Wrap every target for the duration of the ``with`` block."""
        saved = []
        try:
            for targets in target_sets:
                for module_name, attr, name, hook in targets:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    if name == "_parallel.map_indexed":
                        setattr(module, attr, self._wrap_map(original))
                    else:
                        setattr(module, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its children.

    A ``_parallel.map_indexed`` span that ran in-process is transparent:
    its children count as children of its parent, because the per-path
    loop it runs is the caller's own work.
    """
    def transparent(span):
        return span[_NAME] == "_parallel.map_indexed" \
            and not (span[_ATTRS] or {}).get("fanned_out", True)

    own = [s[_END] - s[_START] for s in spans]
    for span in spans:
        parent = span[_PARENT]
        while parent >= 0 and transparent(spans[parent]):
            parent = spans[parent][_PARENT]
        if parent >= 0 and not transparent(span):
            own[parent] -= span[_END] - span[_START]
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times from one traced pass."""
    own = self_times(spans)
    out = {
        "fbm.sample_calls": 0, "fbm.sample_s": 0.0,
        "solver.solves": 0, "solver.newton_iterations": 0,
        "solver.failures": 0, "solver.solve_s": 0.0,
        "integrate.steps": 0, "integrate.self_s": 0.0, "integrate.flow_s": 0.0,
        "limit.quadrature_calls": 0, "limit.quadrature_s": 0.0,
        "harness.self_s": 0.0,
        "parallel.map_s": 0.0, "parallel.worker_cpu_s": 0.0,
        "csvio.write_s": 0.0, "csvio.bytes": 0, "configio.parse_s": 0.0,
    }
    worker_capacity_s = 0.0
    for span, self_s in zip(spans, own):
        name, attrs = span[_NAME], span[_ATTRS] or {}
        dur = span[_END] - span[_START]
        layer = name.split(".", 1)[0]
        if layer == "fbm":
            out["fbm.sample_calls"] += 1
            out["fbm.sample_s"] += dur
        elif layer == "solver":
            out["solver.solves"] += 1
            out["solver.solve_s"] += dur
            if "error" in attrs:
                out["solver.failures"] += 1
            else:
                out["solver.newton_iterations"] += attrs["iterations"]
        elif name == "integrate.fundamental_matrix_reference":
            out["integrate.flow_s"] += dur
        elif layer == "integrate":
            out["integrate.steps"] += attrs.get("steps", 0)
            out["integrate.self_s"] += self_s
        elif layer == "limit":
            out["limit.quadrature_calls"] += 1
            out["limit.quadrature_s"] += dur
        elif layer == "harness":
            out["harness.self_s"] += self_s
        elif layer == "_parallel":
            out["parallel.map_s"] += dur
            out["parallel.worker_cpu_s"] += attrs.get("cpu_s", 0.0)
            worker_capacity_s += attrs.get("workers", 1) * dur
        elif layer == "csvio":
            out["csvio.write_s"] += dur
            out["csvio.bytes"] += attrs.get("bytes", 0)
        elif layer == "configio":
            out["configio.parse_s"] += dur
    solves = out["solver.solves"]
    out["solver.us_per_solve"] = 1e6 * out["solver.solve_s"] / solves if solves else 0.0
    out["parallel.efficiency"] = (out["parallel.worker_cpu_s"] / worker_capacity_s
                                   if worker_capacity_s > 0.0 else 0.0)
    return out
