"""Builders the tests share that the library itself has no use for: the
identity and random permutations, circulant matrices, matrix files written in
the formats `permlin.matio` reads, and the restarted-ALS loss oracle."""

import json
from pathlib import Path

import numpy as np

from permlin.matio import matrix_to_json_obj
from permlin.perms import Permutation


def identity(n: int) -> Permutation:
    return Permutation(n, tuple(range(1, n + 1)))


def random_perm(rng, n: int) -> Permutation:
    return Permutation(n, tuple(rng.permutation(n) + 1))


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


def als_loss(x, y, r: int, rng, restarts: int, sweeps: int) -> float:
    """Least ||A B x - y||_F^2 over rank-r factorizations found by restarted
    alternating least squares, each restart from a unit-normal A drawn from
    `rng`: complex exactly when x or y is complex, so that on a complex-pair
    block the squared norm of the complex residual is the real block residual."""
    if r == 0:
        return float(np.linalg.norm(y) ** 2)
    xp = np.linalg.pinv(x)
    complex_data = np.iscomplexobj(x) or np.iscomplexobj(y)
    best = np.inf
    for _ in range(restarts):
        A = rng.standard_normal((y.shape[0], r))
        if complex_data:
            A = A + 1j * rng.standard_normal((y.shape[0], r))
        for _ in range(sweeps):
            B = np.linalg.pinv(A) @ y @ xp
            bx = B @ x
            A = y @ np.linalg.pinv(bx)
        best = min(best, float(np.linalg.norm(A @ bx - y) ** 2))
    return best
