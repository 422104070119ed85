"""Every import of the package is used, or kept on purpose for the tracer.

A module's import must be read somewhere in the module or be re-exported
through its ``__all__``.  The exception is a name that only
``perfbench/tracing.py`` reads, by wrapping it under the module attribute
that its callers look up: its import statement carries ``# noqa: F401``,
and the pair ``(module, name)`` must be one of the tracer's targets, so
these imports go when the tracer stops naming them.  The check reads the
source with :mod:`ast` alone.
"""
import ast
from pathlib import Path

from test_tracing_targets import _tracing_module

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fbmsde"


def _imports(tree):
    """``(name, node)`` for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _unused_imports():
    """``(module, name, noqa)`` for each import that no code of its module
    reads and its ``__all__`` does not list."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = _exported(tree)
        for name, node in _imports(tree):
            if name not in read and name not in exported:
                noqa = "# noqa: F401" in lines[node.lineno - 1]
                found.append((f"fbmsde.{path.stem}", name, noqa))
    return found


def test_every_import_is_used_or_a_tracer_target():
    tracing = _tracing_module()
    targets = {(module, attr) for module, attr, _, _ in
               tracing.INNER_TARGETS + tracing.OUTER_TARGETS + tracing.PARALLEL_TARGETS}
    unused = _unused_imports()
    assert [(module, name) for module, name, noqa in unused if not noqa] == []
    assert [(module, name) for module, name, noqa in unused
            if (module, name) not in targets] == []
