"""Dense linear-algebra primitives: the guarded decompositions, numerical
rank and the complex-to-real realization embedding.

All routines work on plain numpy arrays; real matrices are float64, complex
ones complex128.

Every SVD and symmetric eigendecomposition of the library goes through
`svd` (thin), `svdvals` or `eigh` here; only the brute-force `oracles` call
LAPACK directly, to stay independent.  The three decide failures in one
place: an input with a NaN or infinite entry raises NonFiniteError before
LAPACK runs, and a LAPACK failure (numpy's LinAlgError) becomes
ConvergenceError.  `require_finite` is that finiteness check, of any dtype;
`require_real` reads every real matrix a caller hands the library, and
rejects complex entries rather than cast them to their real part.

This module holds the tolerance table of the whole library.  Every tolerance
is relative, by one rule: a check compares its deviation with the tolerance
times a norm of the matrix under test (no "1 +", no floor at 1), so scaling
the input by any c > 0 leaves every verdict unchanged.  No function takes
a tolerance argument.

    DEFAULT_TOL    1e-10  rank decisions: the rank floor of every fit (Gram
                          eigenvalues relative to the largest) and the
                          numerical rank (`rank_threshold`, singular values
                          relative to sigma_1 times the larger dimension)
    TIE_TOL        1e-9   ties: a truncation flags a boundary tie when
                          sigma_r - sigma_{r+1} <= TIE_TOL sigma_1, checked
                          on the squares with a floor at the solver's error:
                          sigma_r^2 - sigma_{r+1}^2 <= max(TIE_TOL sigma_1
                          (sigma_r + sigma_{r+1}), k eps sigma_1^2) for k
                          singular values; and the
                          component search treats fit losses within
                          `tie_slack(Y)` = TIE_TOL ||Y||_F^2 as tied
    STRUCTURE_TOL  1e-8   membership in a linear subspace, relative to
                          ||M||_F: equivariance, one commutator bound
                          ||P M P^T - M||_F that `is_equivariant` and
                          `classify_component` share, and column equality
                          of invariant maps (`psi_compress`)

The brute-force checks in `oracles` keep their own named tolerances so that
they stay independent of this module.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, MatrixFormatError, NonFiniteError, SizeMismatchError

DEFAULT_TOL = 1e-10
TIE_TOL = 1e-9
STRUCTURE_TOL = 1e-8

__all__ = [
    "require_finite",
    "require_real",
    "require_data",
    "svd",
    "svdvals",
    "eigh",
    "numeric_rank",
    "rank_threshold",
    "realize",
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


def require_real(a, what: str, shape: tuple | None = None) -> np.ndarray:
    """`a` as a float64 matrix, the same object when it is one already.  In this
    order: MatrixFormatError unless its entries are real numbers, SizeMismatchError
    unless 2-D and of `shape` (None: any size), NonFiniteError for NaN or inf."""
    try:
        a = np.asarray(a)
    except ValueError:  # numpy's error for ragged nested sequences
        raise MatrixFormatError(f"{what} is a ragged nest of sequences, not a matrix") from None
    if a.dtype.kind not in "biuf":
        raise MatrixFormatError(f"{what} has {a.dtype} entries; a real matrix is needed")
    if a.ndim != 2 or shape and any(want not in (None, got) for want, got in zip(shape, a.shape)):
        raise SizeMismatchError(f"{what} has shape {a.shape}; expected a matrix of shape {shape or '(m, n)'}")
    return require_finite(a.astype(float, copy=False), what)


def require_data(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Real data matrices X and Y of a fit (`require_real`), with equal sample
    counts.  When Y is X the gate runs once and both are the same array."""
    same = y is x
    x = require_real(x, "X")
    y = x if same else require_real(y, "Y")
    if y.shape[1] != x.shape[1]:
        raise SizeMismatchError(f"X {x.shape} and Y {y.shape} need the same number of samples")
    return x, y


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
