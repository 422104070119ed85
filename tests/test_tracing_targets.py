"""The names perfbench's tracer wraps still exist in the package.

``perfbench/tracing.py`` times each layer by replacing a module attribute
under the name its caller looks up, so a rename under ``src/fbmsde`` would
break ``perfbench/run.py --trace 1``.  This check names the missing
attribute; the benchmark's self-tests, collected with this suite, check
that the traced counts still add up.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = _tracing_module()
    targets = tracing.INNER_TARGETS + tracing.OUTER_TARGETS + tracing.PARALLEL_TARGETS
    assert targets
    missing = [(module, attr) for module, attr, _, _ in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
