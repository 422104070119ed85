"""Every name that the package or one of its modules exports resolves.

A stale ``__all__`` entry breaks only a star-import, which no other test
performs.
"""
import importlib
import pkgutil

import pytest

import fbmsde

# Importing ``fbmsde.__main__`` runs the command line, and it exports nothing.
MODULES = ["fbmsde"] + sorted(f"fbmsde.{info.name}"
                              for info in pkgutil.iter_modules(fbmsde.__path__)
                              if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
