"""Synthetic shift-equivariant image data for the end-to-end demo.

Images are height x width grids carrying a few random axis-aligned bars,
cyclically shifted in the horizontal direction, plus a little noise so the
sample Gram matrix has full rank.  Vectorization is row-major, so the
one-step horizontal shift acts by a permutation whose cycles are the rows.
"""

from __future__ import annotations

import numpy as np

from .perms import Permutation, consecutive_cycles

__all__ = ["horizontal_shift_permutation", "demo_shift_dataset"]


def horizontal_shift_permutation(height: int, width: int) -> Permutation:
    """The one-pixel cyclic horizontal shift on row-major height x width images."""
    return consecutive_cycles([width] * height)


def demo_shift_dataset(
    height: int = 32,
    width: int = 32,
    samples: int = 2000,
    seed: int = 0,
    noise: float = 0.05,
) -> np.ndarray:
    """n x d data matrix of randomly shifted images of 1-3 bars, n = height * width."""
    rng = np.random.default_rng(seed)
    n = height * width
    X = np.empty((n, samples))
    for s in range(samples):
        # the draws of a sample: its bars (row or column, index, height),
        # then its shift, then its noise
        bars = []
        for _ in range(rng.integers(1, 4)):
            row = rng.random() < 0.5
            bars.append((row, rng.integers(height if row else width), rng.uniform(0.5, 1.5)))
        shift = rng.integers(width)
        # each bar is added where the cyclic shift takes it: a row bar stays,
        # a column bar moves from column c to (c + shift) % width
        img = np.zeros((height, width))
        for row, i, value in bars:
            if row:
                img[i, :] += value
            else:
                img[:, (i + shift) % width] += value
        img += noise * rng.standard_normal((height, width))
        X[:, s] = img.ravel()
    return X
