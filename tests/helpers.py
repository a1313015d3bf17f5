"""Builders the tests share that the library itself has no use for: the
identity and random permutations, circulant matrices, the relative commutator
of a matrix with a permutation matrix, matrix files written in the formats
`permlin.matio` reads, the restarted-ALS loss oracle, the data files of the
golden fits, and a tracemalloc measurement of a block of code."""

import json
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from permlin.matio import matrix_to_json_obj
from permlin.perms import Permutation, permutation_matrix


def identity(n: int) -> Permutation:
    return Permutation(n, tuple(range(1, n + 1)))


def random_perm(rng, n: int) -> Permutation:
    return Permutation(n, tuple(rng.permutation(n) + 1))


def circulant(v) -> np.ndarray:
    """C_n(v): first row is v, each next row the previous shifted one step right."""
    v = np.asarray(v)
    return np.stack([np.roll(v, i) for i in range(v.shape[0])])


def commutator_ratio(m: np.ndarray, p: Permutation) -> float:
    """||P M - M P||_F / ||M||_F for P the permutation matrix of p."""
    pm = permutation_matrix(p)
    return float(np.linalg.norm(pm @ m - m @ pm) / np.linalg.norm(m))


def write_matrix_csv(path, m: np.ndarray) -> None:
    """One row per line, entries as `matrix_to_json_obj` formats them:
    shortest round-trip floats."""
    obj = matrix_to_json_obj(m)
    data = [repr(v) for v in obj["data"]]
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


FIT_HEIGHT, FIT_WIDTH, FIT_SAMPLES, FIT_NOISE = 8, 12, 384, 0.05


def write_fit_inputs(seed: int, workdir: Path) -> None:
    """X.csv and Y.csv in workdir: noisy bar images on the 8 x 12 grid and
    their clean versions, one column per sample (a denoising fit).  Copied
    from `perfbench/workloads.write_fit_inputs`, not imported, so that a
    change of the benchmark cannot move the golden outputs built on it."""
    rng = np.random.default_rng(seed)
    clean = np.zeros((FIT_SAMPLES, FIT_HEIGHT, FIT_WIDTH))
    for img in clean:
        for _ in range(rng.integers(1, 4)):
            if rng.random() < 0.5:
                img[rng.integers(FIT_HEIGHT), :] += rng.uniform(0.5, 1.5, FIT_WIDTH)
            else:
                img[:, rng.integers(FIT_WIDTH)] += rng.uniform(0.5, 1.5, FIT_HEIGHT)
        img[:] = np.roll(img, rng.integers(FIT_WIDTH), axis=1)
    noisy = clean + FIT_NOISE * rng.standard_normal(clean.shape)
    n = FIT_HEIGHT * FIT_WIDTH
    for name, data in (("X.csv", noisy), ("Y.csv", clean)):
        rows = data.reshape(FIT_SAMPLES, n).T
        text = "\n".join(",".join(repr(float(v)) for v in row) for row in rows)
        (Path(workdir) / name).write_text(text + "\n")


@contextmanager
def traced():
    """Trace the allocations of the `with` block.  The yielded record gets,
    when the block ends without an error, `peak`, the most bytes allocated
    at once inside it, and `held`, the bytes still allocated at its end;
    what was allocated before the block counts in neither."""
    record = SimpleNamespace(peak=None, held=None)
    tracemalloc.start()
    try:
        yield record
        record.held, record.peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
