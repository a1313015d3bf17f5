"""Dense linear-algebra primitives: the guarded decompositions, numerical
rank, the complex-to-real realization embedding and the chunks of every
bounded loop.

All routines work on plain numpy arrays; real matrices are float64, complex
ones complex128.

Every SVD and symmetric eigendecomposition of the library goes through
`svd` (thin), `svdvals`, `eigh` or `eigvalsh` here; only the brute-force
`oracles` call LAPACK directly, to stay independent.  The four decide
failures in one place: an input with a NaN or infinite entry raises
NonFiniteError before LAPACK runs, and a LAPACK failure (numpy's
LinAlgError) becomes ConvergenceError.  `require_finite` is that finiteness
check, of any dtype; `require_real` reads every real matrix a caller hands
the library, and rejects complex entries rather than cast them to their real
part.

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
                          ||M||_F, every verdict by `within_structure`:
                          equivariance ||P M P^T - M||_F (`is_equivariant`,
                          `classify_component`, `factor_component`), column
                          equality of invariant maps (`psi_compress`), and
                          the symmetry ||G - G^T||_F of a Gram that a caller
                          hands `autoencoder_loss` or
                          `solve_equivariant_gram` (`optimize._square_gram`)

One constant bounds memory, not a verdict:

    SCRATCH        2^15   entries per step of every bounded loop (`chunks`);
                          a larger unit is one step.  At 2^16, the pass of
                          `is_equivariant` on n = 1024 peaks above 0.15 n^2
                          float64 beyond M.  The symmetry check of a Gram
                          (`optimize._square_gram`) compares tiles of
                          floor(sqrt(SCRATCH))^2 entries.  The dense Gram
                          sum (`optimize.chunked_gram`) is sized by n
                          instead: blocks of ceil(n/8) samples and panels
                          of ceil(n/8) rows, inside G's own buffer

The brute-force checks in `oracles` keep their own named tolerances so that
they stay independent of this module.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator

import numpy as np

from .errors import ConvergenceError, MatrixFormatError, NonFiniteError, SizeMismatchError

DEFAULT_TOL = 1e-10
TIE_TOL = 1e-9
STRUCTURE_TOL = 1e-8
SCRATCH = 1 << 15

__all__ = [
    "require_finite",
    "require_real",
    "require_data",
    "svd",
    "svdvals",
    "eigh",
    "eigvalsh",
    "numeric_rank",
    "rank_threshold",
    "realize",
    "DEFAULT_TOL",
    "TIE_TOL",
    "STRUCTURE_TOL",
    "SCRATCH",
    "chunks",
    "within_structure",
    "tie_slack",
]


def chunks(count: int, unit: int) -> Iterator[slice]:
    """Slices covering range(count), each max(1, SCRATCH // unit) units of
    `unit` entries long, so that one holds at most max(SCRATCH, unit)
    entries.  SCRATCH is read on each call."""
    step = max(1, SCRATCH // max(unit, 1))
    return (slice(i, min(i + step, count)) for i in range(0, count, step))


def tie_slack(y: np.ndarray) -> float:
    """Absolute slack within which two losses ||M X - Y||_F^2 count as tied:
    TIE_TOL times ||Y||_F^2, the loss of M = 0.  Relative to the data, so
    scaling Y scales the slack with every loss and leaves ties unchanged."""
    return TIE_TOL * float(np.linalg.norm(y) ** 2)


def require_finite(a, what: str = "matrix") -> np.ndarray:
    """`a` as an array; NonFiniteError when it has a NaN or infinite entry.

    A NaN or infinite entry makes the sum of a numeric array NaN or
    infinite, so a finite sum answers in one reduction; only a sum that is
    not finite (a bad entry, or finite entries whose sum overflows) is
    checked entry by entry."""
    a = np.asarray(a)
    if a.dtype.kind in "biufc":
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(a.sum()):
                return a
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


# a sum of squares in this range has neither lost its small terms to
# underflow nor overflowed: every square that matters at a relative
# tolerance is a normal number
_SAFE_SQUARES = (np.finfo(float).tiny ** 0.5, np.finfo(float).max ** 0.5)


def within_structure(a: np.ndarray, squares: Callable[[int], tuple]) -> tuple[bool, int, list]:
    """The one membership rule: (sqrt(dev) <= STRUCTURE_TOL sqrt(norm), k,
    rest) of a pass squares(k) -> (dev, norm, *rest) over 2^k a, dev the
    squared deviation of 2^k a from a linear subspace, norm ||2^k a||_F^2.
    The pass runs at k = 0; when norm is not safe (`_SAFE_SQUARES`) and a is
    not zero, once more at the k that puts 2^k max |a_ij| in [1/2, 1), a
    scaling exact on normal numbers, which changes no verdict."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves the norm unsafe
        dev, norm, *rest = squares(0)
    k = 0
    if not _SAFE_SQUARES[0] <= norm <= _SAFE_SQUARES[1]:
        k = -math.frexp(max(float(a.max(initial=0.0)), -float(a.min(initial=0.0))))[1]  # 0 for a zero a
        if k:
            dev, norm, *rest = squares(k)
    return math.sqrt(dev) <= STRUCTURE_TOL * math.sqrt(norm), k, rest


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


def eigvalsh(h: np.ndarray) -> np.ndarray:
    """Eigenvalues, ascending, of a real symmetric or complex Hermitian matrix."""
    return _lapack(np.linalg.eigvalsh, "eigendecomposition", h)


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
