"""CLI outputs pinned against golden files: `demo-shift` at three seeds, two
equivariant fits with the full component search, two `analyze` reports and
one equivariant factorization, each compared field by field with the file
under `tests/golden/` of the same name.

Keys, integers, strings and booleans (so every component, `component_source`
and `boundary_tie`) must match exactly.  A float may move by C_EPS machine
epsilons times the largest float of its top-level field, the scale on which
the rounding of a sum or a decomposition is absolute; a matrix object by
||dM||_F <= C_EPS eps ||M||_F.  So a different BLAS thread count passes, and
any change of a result fails.

A change that moves a number regenerates the files, with

    PYTHONPATH=src python tests/golden/regenerate.py

and lists the move in CHANGES.md as a change of test data.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from permlin.cli import main

from helpers import FIT_HEIGHT, FIT_WIDTH, write_fit_inputs

GOLDEN = Path(__file__).parent / "golden"
C_EPS = 64
EPS = np.finfo(float).eps
ROT = ["--perm", "(1 4 3 2)(5 8 7 6)", "--n", "9"]
FIT = ["fit", "--mode", "equivariant", "--cycle-type", f"{FIT_HEIGHT}x{FIT_WIDTH}", "--rank", "30"]

# name -> arguments after `permlin`; a fit also gets the X and Y of its seed
CASES = {
    "demo-shift-seed0": ["demo-shift", "--seed", "0"],
    "demo-shift-seed1": ["demo-shift", "--seed", "1"],
    "demo-shift-seed7": ["demo-shift", "--seed", "7"],
    "fit-equivariant-seed1": FIT,
    "fit-equivariant-seed7": FIT,
    "analyze-rotation": ["analyze", *ROT],
    "analyze-28x28": ["analyze", "--cycle-type", "28x28"],
    "factorize-equivariant": ["factorize", "--mode", "equivariant", *ROT, "--component", "1,0,1",
                              "--seed", "7"],
}
FIT_SEEDS = {"fit-equivariant-seed1": 1, "fit-equivariant-seed7": 7}


def run_case(name: str, workdir: Path) -> str:
    """The output text of one case, run in this process with files in workdir."""
    argv = list(CASES[name])
    if name in FIT_SEEDS:
        write_fit_inputs(FIT_SEEDS[name], workdir)
        argv += ["--x", str(workdir / "X.csv"), "--y", str(workdir / "Y.csv")]
    out = workdir / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text()


def _is_matrix(obj) -> bool:
    return isinstance(obj, dict) and set(obj) == {"rows", "cols", "data"}


def _largest_float(obj) -> float:
    if isinstance(obj, float):
        return abs(obj)
    children = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    return max((_largest_float(c) for c in children), default=0.0)


def assert_matches(want, got, scale: float, where: str) -> None:
    assert type(got) is type(want), f"{where}: {type(got).__name__} for {type(want).__name__}"
    if _is_matrix(want):
        assert (got["rows"], got["cols"]) == (want["rows"], want["cols"]), where
        a, b = np.array(want["data"]), np.array(got["data"])
        assert np.linalg.norm(b - a) <= C_EPS * EPS * np.linalg.norm(a), where
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            assert_matches(want[key], got[key], scale, f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (w, g) in enumerate(zip(want, got)):
            assert_matches(w, g, scale, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= C_EPS * EPS * scale, f"{where}: {got!r} for {want!r}"
    else:
        assert got == want, f"{where}: {got!r} for {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    got = json.loads(run_case(name, tmp_path))
    assert sorted(got) == sorted(want)
    for key in want:
        assert_matches(want[key], got[key], _largest_float(want[key]), key)


def test_comparison_catches_a_move_of_one_part_in_1e12():
    want = {"loss": 2.0, "per_block": [{"kept": [4.0, 1.0], "boundary_tie": False}],
            "minimizer": {"rows": 1, "cols": 2, "data": [1.0, -1.0]}}
    assert_matches(want, want, 0.0, "same")
    for got in ({**want, "loss": 2.0 * (1 + 1e-12)},
                {**want, "per_block": [{"kept": [4.0, 1.0 + 4e-12], "boundary_tie": False}]},
                {**want, "per_block": [{"kept": [4.0, 1.0], "boundary_tie": True}]},
                {**want, "minimizer": {"rows": 1, "cols": 2, "data": [1.0, -1.0 + 1e-12]}}):
        with pytest.raises(AssertionError):
            for key in want:
                assert_matches(want[key], got[key], _largest_float(want[key]), key)
