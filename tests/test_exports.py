"""The export lists stay true: every name in a module's `__all__` exists, and
the package re-exports only names that their modules export, so removing a
function from a module cannot leave a stale name behind in either list."""

import ast
import importlib
import pkgutil
from pathlib import Path

import permlin


def _modules():
    for info in pkgutil.iter_modules(permlin.__path__):
        yield importlib.import_module(f"permlin.{info.name}")


def test_every_exported_name_exists():
    missing = [f"{mod.__name__}.{name}" for mod in _modules()
               for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, missing


def test_the_package_imports_only_exported_names():
    tree = ast.parse(Path(permlin.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    stray = [f"{node.module}.{alias.name}" for node in imports for alias in node.names
             if alias.name not in getattr(importlib.import_module(f"permlin.{node.module}"), "__all__", ())]
    assert not stray, stray
