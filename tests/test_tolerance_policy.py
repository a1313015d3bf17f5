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
function decides membership in every linear subspace, and one rule maps a
block to its frequency."""

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


def test_cli_loads_oracles_only_to_verify(tmp_path):
    """The brute-force `oracles` load only where the CLI uses them, in
    `verify` and `fit --candidates`: neither `import permlin.cli` nor a
    `demo-shift` run loads them, and a `verify` run does."""
    def run(*argv: str) -> str:
        return f"permlin.cli.main({list(argv)!r}); "

    loaded = "print('permlin.oracles' in sys.modules); "
    script = ("import sys, permlin.cli; " + loaded
              + run("demo-shift", "--height", "4", "--width", "4", "--samples", "40", "--rank", "3",
                    "--out", str(tmp_path / "demo.json")) + loaded
              + run("verify", "--cycle-type", "3x1", "--rank", "1", "--out", str(tmp_path / "verify.json")) + loaded)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    res = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert res.stdout.split() == ["False", "False", "True"]


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


MEMBERSHIP = "within_structure"
MEMBERSHIP_CALLERS = {"equivariant.py": ("is_equivariant", "classify_component", "factor_component"),
                      "optimize.py": ("_square_gram",), "invariant.py": ("psi_compress",),
                      "cli.py": ("cmd_verify",)}


def _owned_uses(tree: ast.Module, names: set[str]) -> list[tuple[str, str]]:
    """(innermost enclosing function or "<module>", name) per read of a name
    in `names`, bare or as an attribute, and per call of `math.frexp`."""
    found = []

    def visit(node, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load):
                name = _dotted(child)
                if name.rsplit(".", 1)[-1] in names or name == "math.frexp":
                    found.append((owner, name.rsplit(".", 1)[-1]))
                    continue
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, "<module>")
    return found


def test_one_membership_rule():
    """`linalg.within_structure` is the one membership rule: outside the
    independent `oracles`, it alone reads STRUCTURE_TOL (its definition
    aside) and alone picks the power of two that a pass is redone at
    (`math.frexp`), and each check of membership in a linear subspace calls
    it: equivariance, column equality of invariant maps, the symmetry of a
    caller's Gram and the dense commutator of `verify`.  So no second rule
    or rescale decides a structure."""
    probe = ast.parse("STRUCTURE_TOL = 1e-8\ndef f(a):\n    return a < linalg.STRUCTURE_TOL\n"
                      "def g(a):\n    def h():\n        return math.frexp(STRUCTURE_TOL)\n")
    assert _owned_uses(probe, {"STRUCTURE_TOL"}) == [("f", "STRUCTURE_TOL"), ("h", "frexp"), ("h", "STRUCTURE_TOL")]
    stray = [f"{path.name}:{owner} {name}" for path in sorted(SRC.glob("*.py")) if path.name != "oracles.py"
             for owner, name in _owned_uses(ast.parse(path.read_text()), {"STRUCTURE_TOL"})
             if (path.name, owner) != ("linalg.py", MEMBERSHIP)]
    assert not stray, stray
    linalg = ast.parse((SRC / "linalg.py").read_text())
    assert sorted(set(_owned_uses(linalg, {"STRUCTURE_TOL"}))) == [(MEMBERSHIP, "STRUCTURE_TOL"), (MEMBERSHIP, "frexp")]
    for module, callers in MEMBERSHIP_CALLERS.items():
        tree = ast.parse((SRC / module).read_text())
        functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        for caller in callers:
            calls = {_dotted(n.func).rsplit(".", 1)[-1] for n in ast.walk(functions[caller])
                     if isinstance(n, ast.Call)}
            assert MEMBERSHIP in calls, f"{module}:{caller}"


def _block_frequencies(tree: ast.Module) -> list[int]:
    """The line of each subtraction of a block's .m from its .l."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Attribute) and node.left.attr == "l"
            and isinstance(node.right, ast.Attribute) and node.right.attr == "m"]


def test_one_frequency_rule():
    """`spectral.Block.frequency` is the one place outside the independent
    `oracles` that maps a block to its frequency, L (l - m) / l: Q's grouping
    (`real_base_change`) and the orbit-sum blocks (`_orbit_blocks`) both
    read it."""
    probe = ast.parse("k = g * (blk.l - blk.m) // blk.l\nj = l - m\ni = blk.m - blk.l\n")
    assert _block_frequencies(probe) == [1]
    spectral = ast.parse((SRC / "spectral.py").read_text())
    block = next(n for n in spectral.body if isinstance(n, ast.ClassDef) and n.name == "Block")
    rule = next(n for n in block.body if isinstance(n, ast.FunctionDef) and n.name == "frequency")
    lines = _block_frequencies(rule)
    assert len(lines) == 1
    stray = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) if path.name != "oracles.py"
             for line in _block_frequencies(ast.parse(path.read_text()))]
    assert stray == [f"spectral.py:{lines[0]}"], stray
    for module, caller in (("spectral.py", "real_base_change"), ("equivariant.py", "_orbit_blocks")):
        tree = ast.parse((SRC / module).read_text())
        body = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == caller)
        assert any(isinstance(n, ast.Attribute) and n.attr == "frequency" for n in ast.walk(body)), caller
