"""Builders the tests share that the library itself has no use for: the
identity permutation, circulant matrices, and matrix files written in the
formats `permlin.matio` reads."""

import json
from pathlib import Path

import numpy as np

from permlin.matio import matrix_to_json_obj
from permlin.perms import Permutation


def identity(n: int) -> Permutation:
    return Permutation(n, tuple(range(1, n + 1)))


def circulant(v) -> np.ndarray:
    """C_n(v): first row is v, each next row the previous shifted one step right."""
    v = np.asarray(v)
    return np.stack([np.roll(v, i) for i in range(v.shape[0])])


def write_matrix_csv(path, m: np.ndarray) -> None:
    """One row per line, entries as `matrix_to_json_obj` formats them:
    shortest round-trip floats, complex entries as "a+bi"."""
    obj = matrix_to_json_obj(m)
    data = [v if isinstance(v, str) else repr(v) for v in obj["data"]]
    cols = obj["cols"]
    Path(path).write_text("".join(",".join(data[i:i + cols]) + "\n" for i in range(0, len(data), cols)))


def write_matrix_json(path, m: np.ndarray) -> None:
    Path(path).write_text(json.dumps(matrix_to_json_obj(m), indent=2, sort_keys=True) + "\n")
