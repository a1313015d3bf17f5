"""Dense linear-algebra primitives: SVD, numerical rank, circulants, the
complex-to-real realization embedding, and weighted (Gram) inner products.

All routines work on plain numpy arrays; real matrices are float64, complex
ones complex128.  Tolerances are relative with default 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, IndefiniteError, SizeMismatchError, StructuralError

DEFAULT_TOL = 1e-10
# relative tie tolerance: a truncation flags a boundary tie when
# sigma_r - sigma_{r+1} <= TIE_TOL sigma_1, and the component search
# treats fit losses within `tie_slack(Y)` = TIE_TOL ||Y||_F^2 as tied
TIE_TOL = 1e-9

__all__ = [
    "SvdResult",
    "svd",
    "numeric_rank",
    "circulant",
    "realize",
    "unrealize",
    "weighted_inner",
    "psd_sqrt",
    "DEFAULT_TOL",
    "TIE_TOL",
    "tie_slack",
]


def tie_slack(y: np.ndarray, tie_tol: float = TIE_TOL) -> float:
    """Absolute slack within which two losses ||M X - Y||_F^2 count as tied:
    tie_tol times ||Y||_F^2, the loss of M = 0.  Relative to the data, so
    scaling Y scales the slack with every loss and leaves ties unchanged."""
    return tie_tol * float(np.linalg.norm(y) ** 2)


@dataclass(frozen=True)
class SvdResult:
    """Full SVD m = u @ diag(singular_values) @ vt with square orthogonal factors."""

    u: np.ndarray
    singular_values: np.ndarray
    vt: np.ndarray

    def reconstruct(self) -> np.ndarray:
        m, n = self.u.shape[0], self.vt.shape[0]
        S = np.zeros((m, n))
        np.fill_diagonal(S, self.singular_values)
        return self.u @ S @ self.vt


def svd(m: np.ndarray) -> SvdResult:
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise SizeMismatchError("matrix has non-finite entries")
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"SVD did not converge: {exc}") from exc
    return SvdResult(u, s, vt)


def numeric_rank(m: np.ndarray, rel_tol: float = DEFAULT_TOL) -> int:
    """Count singular values above rel_tol * sigma_max * max(rows, cols)."""
    m = np.asarray(m)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0] * max(m.shape)))


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


def unrealize(m: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Inverse of realize, reading odd rows/columns; rejects pattern violations."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] % 2 or m.shape[1] % 2:
        raise StructuralError(f"realization pattern needs even dimensions, got {m.shape}")
    a, b = m[0::2, 0::2], m[1::2, 0::2]
    a2, b2 = m[1::2, 1::2], -m[0::2, 1::2]
    scale = tol * (1.0 + np.abs(m).max(initial=0.0))
    dev = np.maximum(np.abs(a - a2), np.abs(b - b2))
    if dev.size and dev.max() > scale:
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise StructuralError(
            f"block ({i}, {j}) deviates from the realization pattern by {dev[i, j]:.3e}"
        )
    return a + 1j * b


def weighted_inner(a: np.ndarray, b: np.ndarray, w: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """<a, b>_w = trace(a w b^T) for symmetric PSD w."""
    a, b, w = np.asarray(a, float), np.asarray(b, float), np.asarray(w, float)
    asym = np.abs(w - w.T).max(initial=0.0)
    if asym > tol * (1.0 + np.abs(w).max(initial=0.0)):
        raise IndefiniteError(f"weight matrix is asymmetric (max deviation {asym:.3e})")
    return float(np.trace(a @ w @ b.T))


def psd_sqrt(w: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition; rejects indefinite input."""
    w = np.asarray(w, dtype=float)
    w = 0.5 * (w + w.T)
    vals, vecs = scipy.linalg.eigh(w)
    bound = -tol * max(1.0, np.abs(vals).max(initial=0.0))
    if vals.size and vals.min() < bound:
        raise IndefiniteError(f"matrix has negative eigenvalue {vals.min():.3e}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T
