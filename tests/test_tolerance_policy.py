"""The tolerance and failure policies, pinned: every tolerance of the
library is a named constant in the `linalg` table (or, for the brute-force
checks, in `oracles`), and no public function takes a tolerance argument
except `is_equivariant`, whose callers may ask for a tighter bound.  Every
decomposition goes through the guarded layer in `linalg` (the oracles call
LAPACK directly to stay independent), and only `linalg` turns numpy's
LinAlgError into a package error.  numpy is the only runtime dependency, so
that layer wraps one LAPACK binding."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import permlin

SRC = Path(permlin.__file__).parent
TABLES = {"linalg.py", "oracles.py"}
SMALL = 1e-3


def _table_constants(tree: ast.Module) -> set[int]:
    """ids of the constants assigned directly to module-level names."""
    return {id(node.value) for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Constant)}


def test_small_float_literals_live_only_in_the_tolerance_tables():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = _table_constants(tree) if path.name in TABLES else set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < abs(node.value) < SMALL and id(node) not in allowed):
                stray.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert not stray, stray


def _public_callables():
    for info in pkgutil.iter_modules(permlin.__path__):
        mod = importlib.import_module(f"permlin.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    if inspect.isfunction(meth) and (mname == "__init__" or not mname.startswith("_")):
                        yield f"{info.name}.{name}.{mname}", meth


def test_only_is_equivariant_takes_a_tolerance():
    knobs = {(qualname, param)
             for qualname, fn in _public_callables()
             for param in inspect.signature(fn).parameters if "tol" in param}
    assert knobs == {("equivariant.is_equivariant", "tol")}


DECOMPOSITION = re.compile(r"^(svd\w*|eig\w*|solve|lstsq|pinv|inv|qr|cholesky|matrix_rank)$")
LINALG_MODULES = {"np.linalg", "numpy.linalg", "scipy.linalg"}


def _dotted(node) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _decomposition_uses(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and DECOMPOSITION.match(node.attr):
            if _dotted(node.value) in LINALG_MODULES:
                yield node.lineno, _dotted(node)
        elif isinstance(node, ast.ImportFrom) and node.module in LINALG_MODULES:
            for alias in node.names:
                if DECOMPOSITION.match(alias.name):
                    yield node.lineno, f"{node.module}.{alias.name}"


def test_decompositions_only_in_the_guarded_layer_and_the_oracles():
    stray = [f"{path.name}:{line} {name}"
             for path in sorted(SRC.glob("*.py")) if path.name not in TABLES
             for line, name in _decomposition_uses(ast.parse(path.read_text()))]
    assert not stray, stray


def test_linalg_error_is_caught_only_in_linalg():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                    _dotted(n).endswith("LinAlgError")
                    for n in ast.walk(node.type) if isinstance(n, (ast.Name, ast.Attribute))):
                stray.append(f"{path.name}:{node.lineno}")
    assert not stray, stray


def test_import_loads_no_scipy():
    script = ("import sys, permlin, permlin.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert res.stdout.strip() == "[]"
