"""The tolerance and failure policies, pinned: every tolerance of the
library is a named constant in the `linalg` table (or, for the brute-force
checks, in `oracles`), and no public function takes a tolerance argument.
Every decomposition goes through the guarded layer in `linalg` (the oracles call
LAPACK directly to stay independent), and only `linalg` turns numpy's
LinAlgError into a package error.  numpy is the only runtime dependency, so
that layer wraps one LAPACK binding.  The fast paths and their brute-force
checks stay apart: only the CLI front end imports `oracles`, and no module
imports a private helper of another.  Every real matrix from a caller is read
by `linalg.require_real`, the one float cast outside the tables.  One
commutator bound decides equivariance."""

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


def test_no_public_function_takes_a_tolerance():
    knobs = {(qualname, param)
             for qualname, fn in _public_callables()
             for param in inspect.signature(fn).parameters if "tol" in param}
    assert not knobs, knobs


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


def _permlin_imports(tree: ast.Module):
    """(line, module, name) per name imported from a permlin module; module
    is the permlin module's bare name, name None for a plain module import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "permlin"):
            base = (node.module or "").removeprefix("permlin").lstrip(".")
            for alias in node.names:
                if base:
                    yield node.lineno, base, alias.name
                else:  # from . import oracles
                    yield node.lineno, alias.name, None
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("permlin."):
                    yield node.lineno, alias.name.removeprefix("permlin."), None


def test_fast_paths_and_oracles_stay_apart():
    """Only the CLI front end reaches the oracles, and no module uses a
    private helper of another: the oracles stay apart from the fast paths
    they check, and a helper two modules share is public."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for line, module, name in _permlin_imports(ast.parse(path.read_text())):
            if module == "oracles" and path.name not in {"cli.py", "oracles.py"}:
                stray.append(f"{path.name}:{line} imports oracles")
            if name is not None and name.startswith("_"):
                stray.append(f"{path.name}:{line} imports {module}.{name}")
    assert not stray, stray


def _unread_parameters(tree: ast.Module):
    """(line, function, parameter) for each parameter its function's body
    never reads, nested functions and lambdas included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for param in params:
                if param not in read:
                    yield node.lineno, getattr(node, "name", "<lambda>"), param


def test_every_parameter_is_read():
    """A parameter no body reads is an input the result cannot depend on,
    such as a spectrum passed beside a rank vector that carries its blocks."""
    probe = ast.parse("def dimension(spec, rvec):\n    return sum(rvec.values)\n")
    assert list(_unread_parameters(probe)) == [(1, "dimension", "spec")]
    stray = [f"{path.name}:{line} {name}({param})"
             for path in sorted(SRC.glob("*.py"))
             for line, name, param in _unread_parameters(ast.parse(path.read_text()))]
    assert not stray, stray


def _float_coercions(tree: ast.Module):
    """(line, call) per np.asarray/np.array call that asks for dtype float."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _dotted(node.func) in {"np.asarray", "np.array",
                                                                 "numpy.asarray", "numpy.array"}:
            dtypes = [k.value for k in node.keywords if k.arg == "dtype"] + node.args[1:2]
            if any(isinstance(d, ast.Name) and d.id == "float" for d in dtypes):
                yield node.lineno, _dotted(node.func)


def test_real_matrices_are_read_only_by_the_gate():
    """`linalg.require_real` is the one reader of a real matrix from a caller:
    no other module casts to float, which would keep only the real part of a
    complex matrix, and the CLI leaves the complex check to the library."""
    probe = ast.parse("a = np.asarray(m, dtype=float)\nb = np.array(m, float)\nc = np.asarray(m)\n")
    assert [line for line, _ in _float_coercions(probe)] == [1, 2]
    stray = [f"{path.name}:{line} {call}"
             for path in sorted(SRC.glob("*.py")) if path.name not in TABLES
             for line, call in _float_coercions(ast.parse(path.read_text()))]
    cli = ast.parse((SRC / "cli.py").read_text())
    stray += [f"cli.py:{node.lineno} iscomplexobj" for node in ast.walk(cli)
              if isinstance(node, ast.Attribute) and node.attr == "iscomplexobj"]
    assert not stray, stray


MEMBERSHIP = "_commutes"


def test_one_equivariance_rule():
    """In `equivariant`, only the membership function reads STRUCTURE_TOL,
    and both `is_equivariant` and `classify_component` call it, so no second
    rule (an off-block or pattern mass after the base change) decides
    equivariance."""
    tree = ast.parse((SRC / "equivariant.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(node) -> int:
        return sum(isinstance(n, ast.Name) and n.id == "STRUCTURE_TOL" for n in ast.walk(node))

    assert MEMBERSHIP in functions
    assert reads(tree) == reads(functions[MEMBERSHIP]) > 0
    for caller in ("is_equivariant", "classify_component"):
        calls = {_dotted(n.func) for n in ast.walk(functions[caller]) if isinstance(n, ast.Call)}
        assert MEMBERSHIP in calls, caller
