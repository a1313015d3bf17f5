"""Squared-error loss minimization machinery.

Every fit is weighted Eckart-Young.  For data X (n x d) and Y (m x d), with
Gram G = X X^H (+ ridge * Id) and cross term C = Y X^H,

    ||M X - Y||_F^2 = ||Y||^2 - ||C G^{-1/2}||^2 + ||(M - C G^{-1}) G^{1/2}||_F^2,

and right-multiplication by G^{1/2} maps the rank <= r matrices onto
themselves, so the best rank <= r M is the truncated SVD of C G^{-1/2} times
G^{-1/2}.  `weighted_eckart_young` does this for real and complex data: one
eigendecomposition of G, one relative rank floor, one SVD.

For equivariant fits the real base change Q makes M = Q blockdiag(B_b) Q^T,
so with Xt = Q^T X and Yt = Q^T Y the loss is the sum over blocks b of
||B_b Xt_b - Yt_b||^2: independent regressions.  A real_plus or real_minus
block is a real regression of Yt_b on Xt_b.  A complex_pair block has
B_b = realize(Z), which acts on each row pair (2i, 2i+1) as multiplication by
the complex matrix Z: the complex regression of Yt_b[0::2] + i Yt_b[1::2] on
Xt_b[0::2] + i Xt_b[1::2].  The rank condition is per block, weaker than
full-rank X: each block Gram's smallest eigenvalue must exceed DEFAULT_TOL
times the largest eigenvalue over all blocks, so a block that holds only
rounding noise still fails.

A component's loss is a constant plus, per block, the tail sum of squared
singular values below its rank.  Under sum_b mult_b t_b = r the best component
is therefore a knapsack over blocks, solved exactly by the min-plus form of
the `count_components` recursion: no component is enumerated or refitted, at
any census size.  Enumerate-and-score survives in `oracles` as the reference
check and as the candidate listing `fit_equivariant` returns on request.

The tails only rank components.  The loss a fit reports is the residual
||B_b Xt_b - Yt_b||^2 of each block, summed, with B_b applied through its
rank-r factors (`WeightedEckartYoung.residual`), so no n x n matrix is formed
for it.  `constant + sum of tails` is the same number in exact arithmetic,
but it subtracts two nearly equal sums: on an exact fit it leaves rounding
error of order eps ||Y||^2 and either sign, where the residual is of order
eps^2 ||Y||^2.  The dense minimizer M = Q blockdiag(B_b) Q^T is built only when
`FitResult.minimizer` is first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import oracles
from .errors import ComponentError, RankDeficientError, SizeMismatchError
from .linalg import DEFAULT_TOL, TIE_TOL, eigh, realize, require_finite, svd, tie_slack
from .equivariant import RankVector, make_rank_vector
from .perms import Permutation
from .spectral import BaseChange, real_base_change

__all__ = [
    "EckartYoungResult",
    "BlockFit",
    "FitResult",
    "WeightedEckartYoung",
    "eckart_young",
    "weighted_eckart_young",
    "fit_rank_bounded",
    "fit_equivariant",
    "ed_degrees",
]


@dataclass(frozen=True)
class EckartYoungResult:
    truncated: np.ndarray
    kept: tuple[float, ...]
    dropped: tuple[float, ...]
    boundary_tie: bool


def _boundary_tie(s: np.ndarray, r: int) -> bool:
    """sigma_r - sigma_{r+1} <= TIE_TOL * sigma_1: relative to the largest
    singular value, so the flag does not change with the scale of the data."""
    return bool(0 < r < len(s) and s[r - 1] - s[r] <= TIE_TOL * s[0])


def eckart_young(u: np.ndarray, r: int) -> EckartYoungResult:
    """Closest rank <= r matrix in Frobenius norm, via truncated SVD.

    Ties sigma_r = sigma_{r+1} keep the lowest indices and set the boundary
    flag.  All binom(min(m, n), r) critical points of the distance are listed
    by `oracles.critical_points`.
    """
    u = np.asarray(u, dtype=float)
    q = min(u.shape)
    if not 0 <= r <= q:
        raise SizeMismatchError(f"rank {r} outside 0..{q}")
    U1, s, V1t = svd(u)
    trunc = (U1[:, :r] * s[:r]) @ V1t[:r]
    return EckartYoungResult(trunc, tuple(s[:r]), tuple(s[r:]), _boundary_tie(s, r))


@dataclass(frozen=True)
class BlockFit:
    """Per-block diagnostics: which weighted singular values were kept/dropped."""

    block: tuple[str, int, int]
    rank: int
    kept: tuple[float, ...]
    dropped: tuple[float, ...]
    boundary_tie: bool
    loss: float


@dataclass(frozen=True)
class FitResult:
    """The outcome of a fit.  `loss` is ||M X - Y||_F^2 of the minimizer M,
    computed from the factors the fit holds.  `minimizer` is M as a dense
    array, built on first read (for an equivariant fit an n x n product with
    the base change) and cached, so a fit whose minimizer is never read
    never allocates it."""

    _build_minimizer: Callable[[], np.ndarray] = field(repr=False, compare=False)
    loss: float
    component: Union[RankVector, str]
    per_block: tuple[BlockFit, ...]
    regularization: Optional[float] = None
    candidates: Optional[tuple[tuple[tuple[int, ...], float], ...]] = None
    constant_loss: Optional[float] = None
    component_source: Optional[str] = None
    # heuristic fits only: the heuristic component's loss minus the exact optimum
    search_gap: Optional[float] = None

    @cached_property
    def minimizer(self) -> np.ndarray:
        return self._build_minimizer()


@dataclass(frozen=True)
class WeightedEckartYoung:
    """min ||M X - Y||_F^2 over rank <= r matrices M, solved for every r at once.

    With C G^{-1/2} = left @ diag(svals) @ V^H, the minimizer of rank r is
    left[:, :r] diag(svals[:r]) right[:r] where right = V^H G^{-1/2}.
    tails[t] is the sum of svals[t:]**2, the loss above `constant` at rank t.
    """

    left: np.ndarray
    svals: np.ndarray
    right: np.ndarray
    tails: tuple[float, ...]
    constant: float

    def build(self, r: int) -> np.ndarray:
        return (self.left[:, :r] * self.svals[:r]) @ self.right[:r]

    def residual(self, r: int, x: np.ndarray, y: np.ndarray) -> float:
        """||build(r) x - y||_F^2, applying the rank-r factors right to left
        so that build(r) itself is never formed."""
        fitted = self.left[:, :r] @ (self.svals[:r, None] * (self.right[:r] @ x))
        return float(np.linalg.norm(fitted - y) ** 2)

    def block_fit(self, key: tuple[str, int, int], r: int) -> BlockFit:
        s = self.svals
        return BlockFit(key, r, tuple(s[:r]), tuple(s[r:]), _boundary_tie(s, r), self.tails[r])


def _checked_data(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Real data matrices with equal sample counts and finite entries."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 2 or y.shape[1] != x.shape[1]:
        raise SizeMismatchError(f"X {x.shape} and Y {y.shape} need the same number of samples")
    return require_finite(x, "data"), require_finite(y, "data")


def _gram_eigh(x: np.ndarray, ridge: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the Gram X X^H (+ ridge * Id) of real or complex data."""
    g = x @ x.conj().T
    if ridge is not None:
        if ridge <= 0:
            raise RankDeficientError("ridge must be positive")
        g[np.diag_indices_from(g)] += ridge
    return eigh(g)


def _check_rank_floor(vals: np.ndarray, top: float) -> None:
    """The one rank check of every fit: RankDeficientError unless the smallest
    Gram eigenvalue exceeds DEFAULT_TOL * top, where `top` is the largest Gram
    eigenvalue of the whole fit (of all blocks of an equivariant fit).  So the
    floor scales with the data, and a block of rounding noise still fails."""
    if not vals[0] > DEFAULT_TOL * top:
        raise RankDeficientError(
            f"data Gram nearly singular (eigenvalues {vals[0]:.3e} to {vals[-1]:.3e}, "
            f"largest of the fit {top:.3e}); supply more generic data or a ridge"
        )


def _solve_eigh(x: np.ndarray, y: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> WeightedEckartYoung:
    """Weighted Eckart-Young from the Gram eigendecomposition (vals, vecs)."""
    iroot = 1.0 / np.sqrt(vals)
    # C V diag(iroot) is C G^{-1/2} without its unitary right factor V^H:
    # same singular values and left vectors, one matrix product fewer.
    left, s, wh = svd(((y @ x.conj().T) @ vecs) * iroot)
    right = (wh * iroot) @ vecs.conj().T
    sq = s**2
    tails = np.append(np.cumsum(sq[::-1])[::-1], 0.0)
    constant = float(np.vdot(y, y).real - tails[0])
    return WeightedEckartYoung(left, s, right, tuple(float(v) for v in tails), constant)


def weighted_eckart_young(
    x: np.ndarray, y: np.ndarray, ridge: Optional[float] = None
) -> WeightedEckartYoung:
    """Solve min ||M X - Y||^2 (+ ridge ||M||^2) over rank <= r, for real or
    complex X and Y, as Eckart-Young on C G^{-1/2}.

    Raises RankDeficientError when the Gram G fails the rank floor on its own
    scale; NonFiniteError (checked before the Gram is formed) and
    ConvergenceError come from the `linalg` layer.
    """
    x, y = require_finite(x, "data"), require_finite(y, "data")
    vals, vecs = _gram_eigh(x, ridge)
    _check_rank_floor(vals, vals[-1])
    return _solve_eigh(x, y, vals, vecs)


def fit_rank_bounded(
    x: np.ndarray, y: np.ndarray, r: int, ridge: Optional[float] = None
) -> FitResult:
    """Global minimizer of ||M X - Y||_F^2 over all rank <= r matrices.

    A bound at or above min(m, n) is vacuous and gives plain least squares."""
    if r < 0:
        raise SizeMismatchError(f"rank bound {r} is negative")
    x, y = _checked_data(x, y)
    fit = weighted_eckart_young(x, y, ridge)
    r = min(r, len(fit.svals))
    blk = fit.block_fit(("dense", 0, 0), r)
    return FitResult(lambda: fit.build(r), fit.residual(r, x, y), "unconstrained", (blk,),
                     ridge, None, fit.constant)


def _complex_rows(a: np.ndarray) -> np.ndarray:
    """Row pairs (2i, 2i+1) of a realization block as complex rows."""
    return a[0::2] + 1j * a[1::2]


def _energy_component(blocks, fits, r: int) -> tuple[int, ...]:
    """Greedy rank allocation by descending marginal energy per rank unit.

    Heuristic only: mirrors concentrating the budget where the weighted
    singular values carry the most mass; never used unless asked for.
    """
    values = [0] * len(blocks)
    remaining = r
    while remaining > 0:
        best, best_gain = None, -1.0
        for i, blk in enumerate(blocks):
            t, mult = values[i], blk.rank_multiplier
            if t < blk.size and mult <= remaining:
                gain = float(fits[i].svals[t] ** 2) / mult
                if gain > best_gain:
                    best, best_gain = i, gain
        if best is None:
            raise ComponentError(
                f"energy heuristic cannot allocate remaining budget {remaining}; name a component"
            )
        values[best] += 1
        remaining -= blocks[best].rank_multiplier
    return tuple(values)


def _best_component(blocks, tails, r: int, slack: float) -> tuple[tuple[int, ...], float]:
    """Exact component search: minimize sum_b tails[b][t_b] subject to
    sum_b mult_b t_b = r and 0 <= t_b <= d_b, by min-plus dynamic programming.

    best[i, j] is the least tail sum of blocks i.. at total rank j (inf when
    no allocation reaches j).  The answer is rebuilt front to back taking at
    each block the smallest t that still reaches the optimum best[0, r]
    within `slack`: the lexicographically smallest near-optimal rank vector.
    Returns (rank vector, least tail sum).
    """
    if r < 0:
        raise ComponentError(f"no admissible component of total rank {r}")
    tails = [np.asarray(tail) for tail in tails]
    best = np.full((len(blocks) + 1, r + 1), np.inf)
    best[-1, 0] = 0.0
    for i in range(len(blocks) - 1, -1, -1):
        mult = blocks[i].rank_multiplier
        for t in range(min(len(tails[i]) - 1, r // mult) + 1):
            k = t * mult
            np.minimum(best[i, k:], tails[i][t] + best[i + 1, :r + 1 - k], out=best[i, k:])
    optimum = float(best[0, r])
    if optimum == np.inf:
        raise ComponentError(f"no admissible component of total rank {r}")
    bound = optimum + slack
    values, prefix, j = [], 0.0, r
    for i, blk in enumerate(blocks):
        mult = blk.rank_multiplier
        ts = np.arange(min(len(tails[i]) - 1, j // mult) + 1)
        reach = prefix + tails[i][ts] + best[i + 1, j - mult * ts]
        # max(): rounding in `prefix` must not lose the exact argmin
        t = int(np.flatnonzero(reach <= max(bound, reach.min()))[0])
        values.append(t)
        prefix += tails[i][t]
        j -= mult * t
    return tuple(values), optimum


def fit_equivariant(
    x: np.ndarray,
    y: np.ndarray,
    p: Permutation,
    r: int,
    component: Optional[RankVector] = None,
    search_limit: int = 10**6,
    heuristic: Optional[str] = None,
    ridge: Optional[float] = None,
    base_change: Optional[BaseChange] = None,
    candidates: bool = False,
) -> FitResult:
    """Minimize ||M X - Y||_F^2 over rank <= r equivariant matrices.

    With `component` given, fits that component only.  Otherwise finds the
    best component exactly, at any census size, by min-plus dynamic
    programming over the per-block tail tables; ties (losses within
    `tie_slack(y)` = TIE_TOL ||Y||_F^2 of the optimum) go to the
    lexicographically smallest rank vector.  With heuristic="energy" it fits
    the single greedily chosen component instead and sets `search_gap`, that
    component's loss minus the exact optimum.  ComponentError when no
    component has total rank r.

    With candidates=True, `candidates` lists every component of total rank r
    with its loss, scored by enumeration (`oracles.score_components`);
    `search_limit` bounds that listing only (SearchLimitError above it).
    Raises RankDeficientError when the Gram of any block fails the rank floor,
    whose scale is the largest block Gram eigenvalue.
    """
    x, y = _checked_data(x, y)
    bc = base_change if base_change is not None else real_base_change(p)
    n = bc.spectrum.n
    if x.shape[0] != n or y.shape[0] != n:
        raise SizeMismatchError(f"equivariant fit needs n x d data with n={n}")
    xt = bc.to_basis(x)
    yt = bc.to_basis(y)
    blocks = bc.spectrum.real_blocks
    pieces = list(zip(blocks, bc.block_slices))

    def rows(a, blk, sl):  # complex row pairs on a complex-pair block
        return _complex_rows(a[sl]) if blk.kind == "complex_pair" else a[sl]

    # every block Gram first: the rank floor's scale is their largest eigenvalue.
    # ||realize(Z)||_F^2 = 2 ||Z||_F^2 doubles the ridge on a complex-pair block.
    eighs = [_gram_eigh(rows(xt, blk, sl), ridge and ridge * (2.0 if blk.kind == "complex_pair" else 1.0))
             for blk, sl in pieces]
    top = max(vals[-1] for vals, _ in eighs)
    fits = []
    for (blk, sl), (vals, vecs) in zip(pieces, eighs):
        _check_rank_floor(vals, top)
        fits.append(_solve_eigh(rows(xt, blk, sl), rows(yt, blk, sl), vals, vecs))
    constant = sum(f.constant for f in fits)
    tails = [f.tails for f in fits]

    search_gap = None
    if component is not None:
        if component.field != "real":
            raise ComponentError("fit_equivariant needs a real-admissible rank vector")
        rvec = make_rank_vector(bc.spectrum, "real", component.values)
        if rvec.total_rank != r:
            raise ComponentError(f"component has total rank {rvec.total_rank}, expected {r}")
        best_values = rvec.values
        source = "named"
    elif heuristic is None:
        best_values = _best_component(blocks, tails, r, tie_slack(y))[0]
        source = "search"
    elif heuristic == "energy":
        optimum = _best_component(blocks, tails, r, 0.0)[1]
        best_values = _energy_component(blocks, fits, r)
        search_gap = max(0.0, sum(tail[t] for tail, t in zip(tails, best_values)) - optimum)
        source = "heuristic"
    else:
        raise ComponentError(f"unknown heuristic {heuristic!r}")
    listed = oracles.score_components(bc.spectrum, r, tails, constant, search_limit) if candidates else None

    # Q is orthogonal, so ||M X - Y||^2 is the sum of the block residuals
    per_block, loss = [], 0.0
    for (blk, sl), fit, t in zip(pieces, fits, best_values):
        per_block.append(fit.block_fit((blk.kind, blk.l, blk.m), t))
        loss += fit.residual(t, rows(xt, blk, sl), rows(yt, blk, sl))

    def minimizer() -> np.ndarray:  # Q blockdiag(B_b) Q^T
        blockdiag = np.zeros((n, n))
        for (blk, sl), fit, t in zip(pieces, fits, best_values):
            b = fit.build(t)
            blockdiag[sl, sl] = realize(b) if blk.kind == "complex_pair" else b
        return bc.unconjugate(blockdiag)

    rvec = make_rank_vector(bc.spectrum, "real", best_values)
    return FitResult(
        minimizer, loss, rvec, tuple(per_block), ridge, listed, constant, source, search_gap
    )


def ed_degrees(kind: str, dims: Sequence[int]) -> int:
    """Closed-form squared-error / Euclidean-distance degrees.

    determinantal(m, n, r) -> binom(min(m, n), r);
    invariant(m, k, r)     -> binom(min(m, k), min(r, k));
    realization_block(d, r) -> binom(d, r).
    """
    if kind == "determinantal":
        m, n, r = dims
        return math.comb(min(m, n), r)
    if kind == "invariant":
        m, k, r = dims
        return math.comb(min(m, k), min(r, k))
    if kind == "realization_block":
        d, r = dims
        return math.comb(d, r)
    raise SizeMismatchError(f"unknown degree kind {kind!r}")
