import numpy as np
import pytest

import permlin.linalg
from permlin.datasets import demo_shift_chunks

from helpers import demo_shift_dataset


def rolled_dataset(height, width, samples, seed, noise):
    """The demo data as first written: each sample's bars drawn on an image,
    then the whole image rolled by its shift."""
    rng = np.random.default_rng(seed)
    n = height * width
    X = np.empty((n, samples))
    for s in range(samples):
        img = np.zeros((height, width))
        for _ in range(rng.integers(1, 4)):
            if rng.random() < 0.5:
                img[rng.integers(height), :] += rng.uniform(0.5, 1.5)
            else:
                img[:, rng.integers(width)] += rng.uniform(0.5, 1.5)
        img = np.roll(img, rng.integers(width), axis=1)
        img += noise * rng.standard_normal((height, width))
        X[:, s] = img.ravel()
    return X


SHAPES = [(32, 32, 300), (5, 9, 200), (1, 6, 50), (6, 1, 50), (1, 1, 20)]


@pytest.mark.parametrize("seed", [0, 1, 7, 31])
@pytest.mark.parametrize("height, width, samples", SHAPES)
def test_bars_placed_at_their_shift_match_the_rolled_images(height, width, samples, seed):
    """Adding each column bar at its shifted column draws the same numbers in
    the same order as rolling the image, and gives the same bits: the data
    matrix that the fit tests build with `helpers.demo_shift_dataset` is
    the rolled images."""
    got = demo_shift_dataset(height, width, samples, seed=seed, noise=0.05)
    assert np.array_equal(got, rolled_dataset(height, width, samples, seed, 0.05))


@pytest.mark.parametrize("scratch", [None, 1])
@pytest.mark.parametrize("seed", [0, 1, 7, 31])
@pytest.mark.parametrize("height, width, samples", SHAPES + [(16, 16, 300), (4, 6, 61)])
def test_chunks_are_the_data_in_bounded_steps(monkeypatch, height, width, samples, seed, scratch):
    """The chunks of `demo_shift_chunks`, side by side, are the rolled images
    bit for bit, also where the sample count is not a multiple of the chunk
    width (300 samples of 32 at 32x32 and 128 at 16x16; 61 of 1365 at 4x6,
    and of 1 with SCRATCH = 1).  Each chunk holds at most max(SCRATCH, n)
    entries, and SCRATCH = 1 makes a chunk of each sample."""
    if scratch is not None:
        monkeypatch.setattr(permlin.linalg, "SCRATCH", scratch)
    n = height * width
    parts = list(demo_shift_chunks(height, width, samples, seed=seed, noise=0.05))
    assert all(part.shape[0] == n and part.size <= max(permlin.linalg.SCRATCH, n) for part in parts)
    if scratch == 1:
        assert len(parts) == samples
    assert np.array_equal(np.hstack(parts), rolled_dataset(height, width, samples, seed, 0.05))
