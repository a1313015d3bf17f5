import numpy as np
import pytest

from permlin.datasets import demo_shift_dataset


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


@pytest.mark.parametrize("seed", [0, 1, 7, 31])
@pytest.mark.parametrize("height, width, samples", [(32, 32, 300), (5, 9, 200), (1, 6, 50),
                                                    (6, 1, 50), (1, 1, 20)])
def test_bars_placed_at_their_shift_match_the_rolled_images(height, width, samples, seed):
    """Adding each column bar at its shifted column draws the same numbers in
    the same order as rolling the image, and gives the same bits."""
    got = demo_shift_dataset(height, width, samples, seed=seed, noise=0.05)
    assert np.array_equal(got, rolled_dataset(height, width, samples, seed, 0.05))
