"""The three benchmark workloads: their inputs and their permlin invocations.

Why these three (the full reasoning is in README.md):

- shift-demo: the fixed `demo-shift` run at 32x32 (n=1024, 17 blocks of 32),
  dominated by dense LAPACK in `optimize` and `linalg`; it uses the energy
  heuristic, so a faster component search must leave it unchanged.
- search-fit: `fit --mode equivariant` with the full component search on
  8x12 shift images (n=96, r=30, 55,588 components): tens of thousands of
  candidate scorings, CSV reading and an 8.7 MB JSON emission.
- classify-48: a library call sequence on the 48x48 shift (n=2304, 25
  blocks) where the dense base change and its conjugations dominate.
"""

from __future__ import annotations

from pathlib import Path

WORKLOADS = ("shift-demo", "search-fit", "classify-48")
CLI_WORKLOADS = ("shift-demo", "search-fit")

# BLAS threads for every child process; 1 fits any machine (no more than nproc)
THREADS = "1"

SHIFT_ARGS = {"height": 32, "width": 32, "samples": 2000, "rank": 99}

FIT_HEIGHT, FIT_WIDTH = 8, 12
FIT_SAMPLES = 384
FIT_RANK = 30
FIT_NOISE = 0.05

CLASSIFY_SIDE = 48
CLASSIFY_RANK = 50


def shift_image(height: int, width: int) -> tuple[int, ...]:
    """One-line image (1-based) of the horizontal cyclic shift on row-major images."""
    return tuple(i * width + (j + 1) % width + 1 for i in range(height) for j in range(width))


def cli_argv(workload: str, seed: int, workdir: Path) -> list[str]:
    """Arguments after `permlin` for one operation of a CLI workload."""
    if workload == "shift-demo":
        args = ["demo-shift"]
        for key, value in SHIFT_ARGS.items():
            args += [f"--{key}", str(value)]
        return args + ["--seed", str(seed)]
    if workload == "search-fit":
        return ["fit", "--mode", "equivariant", "--cycle-type", f"{FIT_HEIGHT}x{FIT_WIDTH}",
                "--rank", str(FIT_RANK), "--x", str(workdir / "X.csv"), "--y", str(workdir / "Y.csv")]
    raise ValueError(f"{workload} is not a CLI workload")


def write_fit_inputs(seed: int, workdir: Path) -> None:
    """Noisy bar images X and their clean versions Y, as CSV (a denoising fit).

    Each bar's brightness varies along it.  With uniform bars every row of a
    clean image set would be alike, Y would have rank 1 in each frequency
    block, and the optimum would sit on a lower-rank component than the one
    the search names, so the classify check could not apply.
    """
    import numpy as np

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
        (workdir / name).write_text(text + "\n")


def planted_component(spectrum, seed: int) -> list[int]:
    """A random real rank vector of total rank CLASSIFY_RANK for the spectrum."""
    import numpy as np

    rng = np.random.default_rng(seed)
    blocks = spectrum.real_blocks
    values = [0] * len(blocks)
    remaining = CLASSIFY_RANK
    while remaining > 0:
        i = int(rng.integers(len(blocks)))
        mult = blocks[i].rank_multiplier
        if values[i] < blocks[i].size and mult <= remaining:
            values[i] += 1
            remaining -= mult
    return values
