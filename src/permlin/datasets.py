"""Synthetic shift-equivariant image data for the end-to-end demo.

Images are height x width grids carrying a few random axis-aligned bars,
cyclically shifted in the horizontal direction, plus a little noise so the
sample Gram matrix has full rank.  Vectorization is row-major, so the
one-step horizontal shift acts by a permutation whose cycles are the rows.

`demo_shift_chunks` draws the samples a chunk of columns at a time
(`linalg.chunks`), so a caller that needs only a sum over the samples, as
`demo-shift` needs only the Gram X X^T, never holds the n x d matrix.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .linalg import chunks
from .perms import Permutation, consecutive_cycles

__all__ = ["horizontal_shift_permutation", "demo_shift_chunks"]


def horizontal_shift_permutation(height: int, width: int) -> Permutation:
    """The one-pixel cyclic horizontal shift on row-major height x width images."""
    return consecutive_cycles([width] * height)


def demo_shift_chunks(
    height: int = 32,
    width: int = 32,
    samples: int = 2000,
    seed: int = 0,
    noise: float = 0.05,
) -> Iterator[np.ndarray]:
    """The columns of the n x d demo data matrix, n = height * width, in
    chunks of `linalg.chunks(samples, n)`: each an n x k array of k
    randomly shifted images of 1-3 bars, so a chunk holds at most
    max(SCRATCH, n) entries.  Each sample's draws are consecutive, samples
    in order."""
    rng = np.random.default_rng(seed)
    n = height * width
    for cols in chunks(samples, n):
        # sample-major, so that each image is written whole; its transpose
        # is the chunk of columns
        part = np.empty((cols.stop - cols.start, height, width))
        for img in part:
            # the draws of a sample: its bars (row or column, index, height),
            # then its shift, then its noise
            bars = []
            for _ in range(rng.integers(1, 4)):
                row = rng.random() < 0.5
                bars.append((row, rng.integers(height if row else width), rng.uniform(0.5, 1.5)))
            shift = rng.integers(width)
            # each bar is added where the cyclic shift takes it: a row bar
            # stays, a column bar moves from column c to (c + shift) % width
            img[:] = 0.0
            for row, i, value in bars:
                if row:
                    img[i, :] += value
                else:
                    img[:, (i + shift) % width] += value
            img += noise * rng.standard_normal((height, width))
        yield part.reshape(len(part), n).T

