"""Dense linear-algebra primitives: the guarded decompositions, numerical
rank, circulants, the complex-to-real realization embedding, and weighted
(Gram) inner products.

All routines work on plain numpy arrays; real matrices are float64, complex
ones complex128.

Every SVD and symmetric eigendecomposition of the library goes through
`svd` (thin), `svdvals` or `eigh` here; only the brute-force `oracles` call
LAPACK directly, to stay independent.  The three decide failures in one
place: an input with a NaN or infinite entry raises NonFiniteError before
LAPACK runs, and a LAPACK failure (numpy's LinAlgError) becomes
ConvergenceError.  `require_finite` is the same finiteness check for the
structure checks here and in the other modules.

This module holds the tolerance table of the whole library.  Every tolerance
is relative, by one rule: a check compares its deviation with the tolerance
times a norm of the matrix under test (no "1 +", no floor at 1), so scaling
the input by any c > 0 leaves every verdict unchanged.

    DEFAULT_TOL    1e-10  rank decisions: the rank floor of every fit (Gram
                          eigenvalues relative to the largest) and the
                          numerical rank (`rank_threshold`, singular values
                          relative to sigma_1 times the larger dimension);
                          also the exact patterns of `unrealize` (relative to
                          the largest entry) and `weighted_inner` (symmetry,
                          relative to the largest weight entry)
    TIE_TOL        1e-9   ties: a truncation flags a boundary tie when
                          sigma_r - sigma_{r+1} <= TIE_TOL sigma_1, and the
                          component search treats fit losses within
                          `tie_slack(Y)` = TIE_TOL ||Y||_F^2 as tied
    STRUCTURE_TOL  1e-8   membership in a linear subspace: equivariance,
                          off-block mass after the base change, and column
                          equality of invariant maps, each relative to
                          ||M||_F

The brute-force checks in `oracles` keep their own named tolerances so that
they stay independent of this module.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, IndefiniteError, NonFiniteError, StructuralError

DEFAULT_TOL = 1e-10
TIE_TOL = 1e-9
STRUCTURE_TOL = 1e-8

__all__ = [
    "require_finite",
    "svd",
    "svdvals",
    "eigh",
    "numeric_rank",
    "rank_threshold",
    "circulant",
    "realize",
    "unrealize",
    "weighted_inner",
    "DEFAULT_TOL",
    "TIE_TOL",
    "STRUCTURE_TOL",
    "tie_slack",
]


def tie_slack(y: np.ndarray) -> float:
    """Absolute slack within which two losses ||M X - Y||_F^2 count as tied:
    TIE_TOL times ||Y||_F^2, the loss of M = 0.  Relative to the data, so
    scaling Y scales the slack with every loss and leaves ties unchanged."""
    return TIE_TOL * float(np.linalg.norm(y) ** 2)


def require_finite(a, what: str = "matrix") -> np.ndarray:
    """`a` as an array; NonFiniteError when it has a NaN or infinite entry."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what} has NaN or infinite entries")
    return a


def _lapack(kernel, what: str, a, **kwargs):
    """kernel(a, **kwargs) on a finite `a`, with LAPACK failure as ConvergenceError."""
    a = require_finite(a, f"{what} input")
    try:
        return kernel(a, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{what} did not converge: {exc}") from exc


def svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD (u, s, vh) of a real or complex matrix: a = (u * s) @ vh."""
    return _lapack(np.linalg.svd, "SVD", a, full_matrices=False)


def svdvals(a: np.ndarray) -> np.ndarray:
    """Singular values of a real or complex matrix, in descending order."""
    return _lapack(np.linalg.svd, "SVD", a, compute_uv=False)


def eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a real symmetric or complex
    Hermitian matrix."""
    return _lapack(np.linalg.eigh, "eigendecomposition", h)


def rank_threshold(sigma_max: float, shape: tuple[int, ...]) -> float:
    """The one numerical-rank rule: a singular value counts toward the rank
    of a matrix of this shape when it exceeds DEFAULT_TOL * sigma_max *
    max(shape), sigma_max being the largest singular value of the matrix."""
    return DEFAULT_TOL * sigma_max * max(shape)


def numeric_rank(m: np.ndarray) -> int:
    """Count singular values above `rank_threshold`."""
    m = np.asarray(m)
    if m.size == 0:
        return 0
    s = svdvals(m)
    return int(np.sum(s > rank_threshold(s[0], m.shape)))


def circulant(v) -> np.ndarray:
    """C_n(v): first row is v, each next row the previous shifted one step right."""
    v = np.asarray(v)
    n = v.shape[0]
    return np.stack([np.roll(v, i) for i in range(n)])


def realize(z: np.ndarray) -> np.ndarray:
    """Entry-wise embedding a+bi -> [[a, -b], [b, a]], doubling both dimensions."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    m, n = z.shape
    out = np.empty((2 * m, 2 * n))
    out[0::2, 0::2] = z.real
    out[0::2, 1::2] = -z.imag
    out[1::2, 0::2] = z.imag
    out[1::2, 1::2] = z.real
    return out


def unrealize(m: np.ndarray) -> np.ndarray:
    """Inverse of realize, reading odd rows/columns; rejects entries that
    deviate from the pattern by more than DEFAULT_TOL * max |m_ij|."""
    m = require_finite(np.asarray(m, dtype=float))
    if m.ndim != 2 or m.shape[0] % 2 or m.shape[1] % 2:
        raise StructuralError(f"realization pattern needs even dimensions, got {m.shape}")
    a, b = m[0::2, 0::2], m[1::2, 0::2]
    a2, b2 = m[1::2, 1::2], -m[0::2, 1::2]
    scale = DEFAULT_TOL * np.abs(m).max(initial=0.0)
    dev = np.maximum(np.abs(a - a2), np.abs(b - b2))
    if dev.size and dev.max() > scale:
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise StructuralError(
            f"block ({i}, {j}) deviates from the realization pattern by {dev[i, j]:.3e}"
        )
    return a + 1j * b


def weighted_inner(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """<a, b>_w = trace(a w b^T) for symmetric PSD w; IndefiniteError when w
    is asymmetric by more than DEFAULT_TOL * max |w_ij|."""
    a, b, w = (require_finite(np.asarray(v, float), "weighted_inner input") for v in (a, b, w))
    asym = np.abs(w - w.T).max(initial=0.0)
    if asym > DEFAULT_TOL * np.abs(w).max(initial=0.0):
        raise IndefiniteError(f"weight matrix is asymmetric (max deviation {asym:.3e})")
    return float(np.trace(a @ w @ b.T))
