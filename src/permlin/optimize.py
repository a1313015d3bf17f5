"""Squared-error loss minimization machinery.

Every fit is weighted Eckart-Young.  For data X (n x d) and Y (m x d), with
Gram G = X X^H (+ ridge * Id) and cross term C = Y X^H,

    ||M X - Y||_F^2 = ||Y||^2 - ||C G^{-1/2}||^2 + ||(M - C G^{-1}) G^{1/2}||_F^2,

and right-multiplication by G^{1/2} maps the rank <= r matrices onto
themselves, so the best rank <= r M is the truncated SVD of C G^{-1/2} times
G^{-1/2}.  `weighted_eckart_young` does this for real and complex data in
reduced-rank-regression form (Izenman 1975), with two symmetric
eigendecompositions and no SVD: G = V diag(lambda) V^H, one relative rank
floor on lambda, then A = C V diag(lambda^{-1/2}) and A^H A = W diag(sigma^2)
W^H, whose eigenvalues are the squared singular values of C G^{-1/2}.  A
solve holds one basis, V diag(lambda^{-1/2}) W, and the rank-r minimizer is
decoder @ encoder with encoder = (V diag(lambda^{-1/2}) W_r)^H and

    decoder = Y (encoder X)^H,

since A W_r = C V diag(lambda^{-1/2}) W_r = Y X^H encoder^H, with C = Y X^H
free of the ridge: once the encoder is fixed, the decoder is C encoder^H.
Each sigma^2 carries an absolute error of about eps
sigma_1^2 (Golub & Van Loan, 8.6), so singular values below about
sqrt(eps k) sigma_1 are accurate only in absolute terms; the tie rule is
therefore checked on sigma^2, with a floor at that error.

When Y is X the fit is a linear autoencoder, and it needs the Gram alone:
the Gram route.  With mu = lambda - ridge, C = X X^H = G - ridge Id = V
diag(mu) V^H, so A^H A = diag(mu^2 / lambda) is already diagonal, with
sigma = mu lambda^{-1/2}, which grows with lambda: the basis is V
diag(lambda^{-1/2}) with its columns in descending order of lambda, and
the second eigendecomposition is never taken.  The rank-r minimizer V_r
diag(mu / lambda) V_r^H is, without a ridge, the projection onto the r
leading principal directions of X: PCA (Baldi & Hornik 1989).  Its decoder
C encoder^H is V_r diag(mu_r lambda_r^{-1/2}), and its loss ||(M - I) X||^2
= tr((M - I) C (M - I)^H) is

    sum_{i<r} (1 - mu_i / lambda_i)^2 mu_i + sum_{i>=r} mu_i,

a sum of non-negative terms, taken smallest first, so nothing cancels:
without a ridge the kept terms are exactly 0 and the loss is the tail sum
of the Gram's eigenvalues.  So the route holds no data and forms no
residual.  lambda - ridge would carry the absolute error of lambda, about
eps (lambda_1 + ridge), so that a ridge far above the Gram's eigenvalues
left the loss accurate only to about eps ridge per term; with a ridge, mu
is therefore read as the Rayleigh quotients v_i^H G v_i of the Gram
without its ridge (one more product per block), accurate to about eps
||G||, as the row route's residual is.  mu is clamped at 0, so that
rounding cannot break sigma's order.  A fit takes the route when Y is X by
identity (`y is x`), never by comparing values: `require_data` returns one
array for X given as both.  `solve_equivariant(X, X, ...)` sums each block
Gram over chunks of columns and never forms the block rows, so every
block, complex-pair blocks included, takes the route;
`solve_equivariant_gram(G, ...)` reads the same block Grams off the dense
Gram G = X X^T, as the diagonal blocks of Q^T G Q, so that its caller need
never hold X.  A fit of Y on X otherwise takes the row route, which holds X
and Y and reads its decoder and residual off them; a fit on a copy of X is
the reference for the Gram route.

Every Gram (dense, per block, or summed over chunks by `chunked_gram`) is
summed from finite data with numpy's overflow warnings off and then
checked: a Gram that overflows raises NonFiniteError that names it, where
data with a NaN or infinite entry are named as X.

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
any census size.  Enumerate-and-score lives in `oracles` only, as the
reference check and the candidate listing of `permlin fit --candidates`; it
rebuilds the tails from the singular values in `FitResult.per_block`.

The tails only rank components.  The loss a fit reports is, per block,
summed: on the row route the residual ||B_b Xt_b - Yt_b||^2, with B_b
applied through its rank-r factors, so no n x n matrix is formed for it;
on the Gram route the sum of non-negative eigenvalue terms above.
`constant + sum of tails` is the same number in exact arithmetic, but it
subtracts two nearly equal sums: on an exact fit it leaves rounding error
of order eps ||Y||^2 and either sign, where the residual is of order eps^2
||Y||^2.

Every number `demo-shift` reports is read from the Gram G = X X^T alone.
It sums G over chunks of samples (`chunked_gram`), never holding X; its
equivariant fits come from `solve_equivariant_gram(G, sigma)` and its
dense baseline from `autoencoder_loss(G, r)`, the best rank-r loss of X on
itself, without fitting it.  That loss is the sum of the n - r smallest
eigenvalues of G, from one eigenvalue decomposition without eigenvectors:
the Gram route's loss without a ridge.  The sum is taken directly,
smallest first, never as ||X||^2 minus the top-r sum, so it has no
cancellation: its absolute error is about (n - r) eps lambda_1, the
eigenvalues' own error, and at r >= n it is exactly 0.  `demo-shift`
takes that loss before the equivariant solve: `np.linalg.eigvalsh` always
copies its input, so with G the only array held there the run peaks at
2 G, the floor of an exact route through numpy.

Every fit is a solve, then a read: a `WeightedEckartYoung` holds its solve
(and on the row route its data), and its one `read(r, key)` serves both
routes: it gives the rank-r factors, their loss and the `BlockFit`.  The
block solves depend on neither the rank nor the component, so
`solve_equivariant` runs them once and `EquivariantSolve.fit` reads each
block at its rank of any component.  Every fit holds its minimizer as rank-r
factors M = decoder @ encoder, in `FitResult.factors`: arrays for a dense or
invariant fit, and for an equivariant fit the per-block factors, in a
`Parameterization` that places decoder and encoder on their first read.  The
dense M is formed only when `FitResult.minimizer` is first read.

An equivariant fit never holds a whole n x d or n x r array in the Q basis.
`_basis_chunks` changes the basis of X a chunk of columns at a time
(`linalg.chunks`).  On the row route `_block_rows` writes each chunk
straight into the per-block rows, so the solve holds the rows (X's size,
and Y's) and one chunk; on the Gram route `_block_grams` adds each chunk's
t_b t_b^H into its block Gram, so the solve holds sum_b d_b^2 entries and
one chunk beside X, and keeps no reference to X.  From a dense Gram,
`solve_equivariant_gram` holds G, the block Grams and the scratch of one
orbit-sum pass.  `solve_equivariant(X, X, ...)` keeps the chunked sums,
since G is the larger when n > d: at 64x64 with d = 1000, G is 134 MB and
X 31 MB.  A fit reads its loss,
component and `BlockFit`s from the blocks alone and holds only the
per-block factors, so a caller that never reads decoder or encoder (as
`demo-shift`) never places them.  Their first read forms decoder = Q D and encoder = (Q E^T)^T
together, a chunk of columns at a time, split inside a block wherever a
chunk ends, and holds the outputs, the per-block factors and one chunk; the
tilde factors D and E are formed only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ComponentError, NonFiniteError, RankDeficientError, SizeMismatchError, StructuralError
from . import linalg
from .linalg import (DEFAULT_TOL, TIE_TOL, chunks, eigh, eigvalsh, require_data, require_finite, require_real,
                     tie_slack, within_structure)
from .equivariant import Parameterization, RankVector, diagonal_blocks, make_rank_vector, parameterize_component
from .perms import Permutation
from .spectral import BaseChange, real_base_change

__all__ = [
    "BlockFit",
    "Factors",
    "FitResult",
    "WeightedEckartYoung",
    "EquivariantSolve",
    "weighted_eckart_young",
    "fit_rank_bounded",
    "autoencoder_loss",
    "chunked_gram",
    "solve_equivariant",
    "solve_equivariant_gram",
    "fit_equivariant",
    "ed_degrees",
]


def _boundary_tie(s: np.ndarray, r: int) -> bool:
    """sigma_r - sigma_{r+1} <= TIE_TOL * sigma_1, stated on the squares the
    solver computes, sigma_r^2 - sigma_{r+1}^2 <= TIE_TOL sigma_1 (sigma_r +
    sigma_{r+1}), with a floor of len(s) eps sigma_1^2: below it the squares
    carry only their absolute error of about eps sigma_1^2 and cannot tell two
    values apart.  Relative to sigma_1, so the flag does not change with the
    scale of the data."""
    if not 0 < r < len(s):
        return False
    sq = s**2
    floor = len(s) * np.finfo(float).eps * sq[0]
    return bool(sq[r - 1] - sq[r] <= max(TIE_TOL * s[0] * (s[r - 1] + s[r]), floor))


@dataclass(frozen=True)
class BlockFit:
    """Per-block diagnostics: which weighted singular values were kept/dropped."""

    block: tuple[str, int, int]
    rank: int
    kept: tuple[float, ...]
    dropped: tuple[float, ...]
    boundary_tie: bool
    loss: float


@dataclass(frozen=True, eq=False)
class Factors:
    """The rank-r factors of a dense or invariant fit, held as arrays:
    decoder m x r and encoder r x n."""

    decoder: np.ndarray
    encoder: np.ndarray


@dataclass(frozen=True)
class FitResult:
    """The outcome of a fit, from the `WeightedEckartYoung.read` of each of
    its solves: the minimizer M = decoder @ encoder as a linear autoencoder,
    with decoder m x r and encoder r x n, r the rank of the fit.  `loss` is
    ||M X - Y||_F^2, the sum of the reads' losses.  `factors` holds the
    decoder and encoder that `decoder` and `encoder` read: the arrays
    (`Factors`) of a dense or invariant fit, or an equivariant fit's
    `Parameterization`, which places them on first read.  `minimizer` is M
    as a dense array, formed on first read and cached.  So a fit whose
    factors are never read never allocates them, nor M."""

    factors: Union[Factors, Parameterization] = field(repr=False, compare=False)
    loss: float
    component: Union[RankVector, str]
    per_block: tuple[BlockFit, ...]
    regularization: Optional[float] = None
    constant_loss: Optional[float] = None
    component_source: Optional[str] = None

    @property
    def decoder(self) -> np.ndarray:
        return self.factors.decoder

    @property
    def encoder(self) -> np.ndarray:
        return self.factors.encoder

    @cached_property
    def minimizer(self) -> np.ndarray:
        return self.decoder @ self.encoder


@dataclass(frozen=True, eq=False)
class WeightedEckartYoung:
    """min ||M X - Y||_F^2 over rank <= r matrices M, solved for every r at once
    and read at any r by `read`.  It holds one basis, V diag(lambda^{-1/2}) W,
    for the Gram's eigendecomposition (lambda, V) and the eigenvectors W of
    A^H A for the eigenvalues svals**2, descending: its leading r columns are
    the rank-r encoder, conjugate-transposed.  tails[t] is the sum of
    svals[t:]**2, the loss above `constant` at rank t.  A solve of Y on X
    (the row route) holds its data `x` and `y`; a solve of X on itself (the
    Gram route, W = I) holds no data, only `lam` and `mu` = lam - ridge, the
    Gram's eigenvalues in the basis's column order.  It compares and hashes
    by identity: its fields hold arrays."""

    basis: np.ndarray = field(repr=False)
    svals: np.ndarray
    tails: tuple[float, ...]
    constant: float
    x: Optional[np.ndarray] = field(default=None, repr=False)
    y: Optional[np.ndarray] = field(default=None, repr=False)
    lam: Optional[np.ndarray] = field(default=None, repr=False)
    mu: Optional[np.ndarray] = field(default=None, repr=False)

    def read(self, r: int, key: tuple[str, int, int]) -> tuple[np.ndarray, np.ndarray, float, BlockFit]:
        """The rank-r minimizer's encoder = basis[:, :r]^H and decoder =
        Y (encoder X)^H, of r columns each; its loss ||decoder (encoder X) -
        Y||_F^2; and its `BlockFit`, labelled `key`.  On the row route the
        loss is the residual, applied right to left so that M is never
        formed.  On the Gram route the decoder is V_r diag(mu_r
        lambda_r^{-1/2}) and the loss, from the Gram's eigenvalues alone,
        is sum_{i<r} (1 - mu_i / lambda_i)^2 mu_i + sum_{i>=r} mu_i, summed
        smallest first: every term is non-negative, so nothing cancels.
        SizeMismatchError unless 0 <= r <= len(svals)."""
        s = self.svals
        if not 0 <= r <= len(s):
            raise SizeMismatchError(f"rank {r} outside 0..{len(s)}")
        encoder = self.basis[:, :r].conj().T.copy()  # a copy, so that a fit does not hold the basis
        if self.x is None:
            lam, mu = self.lam, self.mu
            decoder = self.basis[:, :r] * mu[:r]
            kept = ((lam[:r] - mu[:r]) / lam[:r]) ** 2 * mu[:r]
            loss = float(np.sort(np.concatenate((kept, mu[r:]))).sum())
        else:
            code = encoder @ self.x
            decoder = self.y @ code.conj().T
            loss = float(np.linalg.norm(decoder @ code - self.y) ** 2)
        return decoder, encoder, loss, BlockFit(key, r, tuple(s[:r]), tuple(s[r:]),
                                                _boundary_tie(s, r), self.tails[r])


def _finite_gram(g: np.ndarray) -> np.ndarray:
    """g, a Gram summed from finite data under `np.errstate(over="ignore",
    invalid="ignore")`: NonFiniteError when a product overflowed."""
    try:
        return require_finite(g)
    except NonFiniteError:
        raise NonFiniteError("Gram of X overflows; rescale the data") from None


def _gram(x: np.ndarray) -> np.ndarray:
    """The Gram X X^H of finite real or complex data (`_finite_gram`)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_gram(x @ x.conj().T)


def chunked_gram(parts, n: int) -> np.ndarray:
    """The Gram G = X X^T of real n x d data X given as chunks of its
    columns (`parts`, an iterable of n x k arrays, taken one at a time), so
    that X is never held.  Consecutive chunks, each read by `require_real`
    as "X", are copied in order into an n x w block B of w = ceil(n/8)
    samples, held sample by sample as the demo's chunks are; each full
    block, and the last, part-full one, is added to the lower triangle of G
    in row panels w rows tall, one product B[rows] B[:stop]^T at a time,
    so each is a rank-w update however narrow the chunks are.  The panels
    are packed, each contiguous, at the front of G's own buffer, because
    numpy adds a product into a strided view of G through a copy.  They
    take about 0.56 n^2 entries, and the block and one panel product (0.25
    n^2) live in the rest of that buffer, so nothing is allocated beyond G;
    where they do not fit (n <= 4 and n = 9) the buffer is made longer and
    G is its head.  At the end each row is moved to its place, last row
    first (a row never moves back, so no row still to move is
    overwritten), and the upper triangle is mirrored panel by panel;
    between them they write every entry of G, so the scratch left behind
    needs no clearing.  NonFiniteError for a chunk with a NaN or infinite
    entry, and for a Gram that overflows."""
    width = max(1, -(-n // 8))
    panels = [slice(i, min(i + width, n)) for i in range(0, n, width)]
    sizes = [(sl.stop - sl.start) * sl.stop for sl in panels]
    starts = np.cumsum([0] + sizes).tolist()
    buf = np.zeros(max(n * n, starts[-1] + n * width + max(sizes, default=0)))
    g = buf[:n * n].reshape(n, n)
    packed = [buf[a:b].reshape(-1, sl.stop) for sl, a, b in zip(panels, starts, starts[1:])]
    block = buf[starts[-1]:starts[-1] + n * width].reshape(width, n)
    product = buf[starts[-1] + n * width:]

    def add(held: np.ndarray) -> None:
        for sl, panel in zip(panels, packed):
            panel += np.matmul(held[:, sl].T, held[:, :sl.stop], out=product[:panel.size].reshape(panel.shape))

    filled = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for part in parts:
            part = require_real(part, "X", (n, None))
            taken = 0
            while taken < part.shape[1]:
                k = min(width - filled, part.shape[1] - taken)
                block[filled:filled + k] = part[:, taken:taken + k].T
                filled, taken = filled + k, taken + k
                if filled == width:
                    add(block)
                    filled = 0
        if filled:
            add(block[:filled])
    for sl, panel in zip(reversed(panels), reversed(packed)):
        for i in range(sl.stop - 1, sl.start - 1, -1):
            g[i, :sl.stop] = panel[i - sl.start]
    for sl in panels:
        g[:sl.start, sl] = g[sl, :sl.start].T
    return _finite_gram(g)


def _ridged_eigh(g: np.ndarray, ridge: Optional[float], gram_route: bool):
    """Eigendecomposition (lambda, V) of the Gram g + ridge * Id, the ridge
    added to g's diagonal in place and taken off again, and on the Gram
    route mu, lambda less the ridge: lambda itself without a ridge; with
    one, the Rayleigh quotients v_i^H g v_i of the Gram without it, accurate
    to about eps ||g|| where lambda - ridge is accurate only to about eps
    ridge.  SizeMismatchError for the Gram of data without rows, and
    RankDeficientError for a ridge that is not finite and positive."""
    if len(g) == 0:
        raise SizeMismatchError("data X has no rows")
    if ridge is None:
        vals, vecs = eigh(g)
        return vals, vecs, vals
    if not 0 < ridge < math.inf:  # NaN fails every comparison
        raise RankDeficientError(f"ridge must be finite and positive, got {ridge!r}")
    diagonal = g.diagonal().copy()
    g[np.diag_indices_from(g)] += ridge
    vals, vecs = eigh(g)
    g[np.diag_indices_from(g)] = diagonal
    mu = np.einsum("ij,ij->j", vecs.conj(), g @ vecs).real if gram_route else None
    return vals, vecs, mu


def _tails(s: np.ndarray) -> tuple[float, ...]:
    """tails[t] = sum of s[t:]**2, from the squares `oracles.block_tails`
    rebuilds them from."""
    return tuple(float(v) for v in np.append(np.cumsum((s**2)[::-1])[::-1], 0.0))


def _solve_rows(x: np.ndarray, y: np.ndarray, vals: np.ndarray, vecs: np.ndarray) -> WeightedEckartYoung:
    """The row route: weighted Eckart-Young of Y on X from the Gram
    eigendecomposition (vals, vecs), by the eigendecomposition of A^H A for
    the whitened cross term A, no SVD."""
    whiten = vecs  # scaled in place: V is not needed unscaled
    whiten *= 1.0 / np.sqrt(vals)
    # C V diag(lambda^{-1/2}) is C G^{-1/2} without its unitary right factor
    # V^H: the same singular values
    a = (y @ x.conj().T) @ whiten
    sq, w = eigh(a.conj().T @ a)
    q = min(a.shape)
    s, basis = np.sqrt(np.maximum(sq[::-1][:q], 0.0)), whiten @ w[:, ::-1][:, :q]
    tails = _tails(s)
    constant = float(np.vdot(y, y).real - tails[0])
    return WeightedEckartYoung(basis, s, tails, constant, x=x, y=y)


def _solve_gram(vals: np.ndarray, vecs: np.ndarray, mu: np.ndarray) -> WeightedEckartYoung:
    """The Gram route: weighted Eckart-Young of X on itself from the
    eigendecomposition (vals, vecs) of its Gram (+ ridge * Id) alone, and
    mu, vals less the ridge (`_ridged_eigh`).  A^H A = diag(mu^2 / lambda)
    is already diagonal (module docstring), and sigma = mu lambda^{-1/2}
    grows with lambda, so the basis is V diag(lambda^{-1/2}) with its
    columns reversed.  mu is clamped at 0, so that rounding cannot break
    sigma's order.  The constant, ||X||^2 minus the sum of sigma^2, is the
    sum of mu_i (lambda_i - mu_i) / lambda_i: 0 without a ridge, and never
    a difference of large sums."""
    lam = vals[::-1]
    mu = np.maximum(mu[::-1], 0.0)
    basis = vecs[:, ::-1]  # scaled in place: V is not needed unscaled
    basis *= 1.0 / np.sqrt(lam)
    s = mu / np.sqrt(lam)
    tails = _tails(s)
    constant = float(np.sort(mu * ((lam - mu) / lam)).sum())
    return WeightedEckartYoung(basis, s, tails, constant, lam=lam, mu=mu)


def _solve_blocks(grams, ridges, rows=None) -> tuple[WeightedEckartYoung, ...]:
    """Weighted Eckart-Young of each block from its Gram X_b X_b^H (`grams`,
    an iterable taken one Gram at a time) plus its ridge, one block for a
    dense or invariant fit, every Gram's eigendecomposition first.  Then the
    one rank check of every fit: SizeMismatchError for a block whose X has
    no rows, and RankDeficientError unless each Gram's smallest eigenvalue
    exceeds DEFAULT_TOL times the largest Gram eigenvalue over all blocks,
    so the floor scales with the data and a block of rounding noise still
    fails.  Then each block's solve: on the row route from its (X_b, Y_b)
    in `rows`, and with rows None on the Gram route of X on itself."""
    eighs = [_ridged_eigh(g, ridge, rows is None) for g, ridge in zip(grams, ridges)]
    _rank_floor([vals for vals, _, _ in eighs])
    if rows is None:
        return tuple(_solve_gram(*e) for e in eighs)
    return tuple(_solve_rows(x, y, vals, vecs) for (x, y), (vals, vecs, _) in zip(rows, eighs))


def _solve_dense(x: np.ndarray, y: np.ndarray, ridge: Optional[float]) -> WeightedEckartYoung:
    """The one-block solve of Y on X: the Gram route when Y is X, by
    identity (`require_data` returns one array for X given as both), never
    by comparing values."""
    return _solve_blocks(map(_gram, [x]), [ridge], None if y is x else [(x, y)])[0]


def _rank_floor(spectra) -> None:
    """The rank floor of every fit: RankDeficientError unless the smallest
    eigenvalue of each Gram (spectra: ascending eigenvalues, one array per
    Gram) exceeds DEFAULT_TOL times the largest eigenvalue over all of them."""
    low, top = min(vals[0] for vals in spectra), max(vals[-1] for vals in spectra)
    if not low > DEFAULT_TOL * top:
        raise RankDeficientError(f"data Gram nearly singular (smallest eigenvalue {low:.3e}, largest of "
                                 f"the fit {top:.3e}); supply more generic data or a ridge")


def weighted_eckart_young(
    x: np.ndarray, y: np.ndarray, ridge: Optional[float] = None
) -> WeightedEckartYoung:
    """Solve min ||M X - Y||^2 (+ ridge ||M||^2) over rank <= r, for real or
    complex X and Y, as Eckart-Young on C G^{-1/2}: on the Gram route when Y
    is X (the same array), otherwise on the row route.

    Raises RankDeficientError when the Gram G fails the rank floor on its own
    scale; NonFiniteError (checked before the Gram is formed) and
    ConvergenceError come from the `linalg` layer.
    """
    return _solve_dense(require_finite(x, "data"), require_finite(y, "data"), ridge)


def fit_rank_bounded(
    x: np.ndarray, y: np.ndarray, r: int, ridge: Optional[float] = None
) -> FitResult:
    """Global minimizer of ||M X - Y||_F^2 over all rank <= r matrices.

    A bound at or above min(m, n) is vacuous and gives plain least squares."""
    if r < 0:
        raise SizeMismatchError(f"rank bound {r} is negative")
    fit = _solve_dense(*require_data(x, y), ridge)
    decoder, encoder, loss, blk = fit.read(min(r, len(fit.svals)), ("dense", 0, 0))
    return FitResult(Factors(decoder, encoder), loss, "unconstrained", (blk,), ridge, fit.constant)


def _square_gram(gram) -> np.ndarray:
    """A Gram handed to the library, read by `require_real`: SizeMismatchError
    unless it is square, StructuralError when ||G - G^T||_F exceeds
    STRUCTURE_TOL ||G||_F.  ||G - G^T||_F^2 is summed over the t x t tiles
    on and below the diagonal, t = floor(sqrt(SCRATCH)), a diagonal tile
    once and any other twice (it stands for its mirror too), and ||G||_F^2
    over the row panels of `linalg.chunks`, which are views of a C-ordered
    G; so no temporary exceeds SCRATCH entries.  Both are summed again on
    2^k G when ||G||_F^2 under- or overflows (`linalg.within_structure`)."""
    g = require_real(gram, "Gram")
    if g.shape[0] != g.shape[1]:
        raise SizeMismatchError(f"Gram has shape {g.shape}; expected a square matrix")
    n, t = len(g), math.isqrt(linalg.SCRATCH)
    tiles = [slice(i, min(i + t, n)) for i in range(0, n, t)]

    def squares(k: int) -> tuple[float, float]:
        def scaled(a: np.ndarray) -> np.ndarray:
            return np.ldexp(a, k) if k else a

        def sum_sq(a: np.ndarray) -> float:
            a = np.ascontiguousarray(a)  # np.vdot copies an array it cannot read flat
            return float(np.vdot(a, a))

        dev = sum((1 if i == j else 2) * sum_sq(scaled(g[rows, cols]) - scaled(g[cols, rows].T))
                  for i, rows in enumerate(tiles) for j, cols in enumerate(tiles[:i + 1]))
        return dev, sum(sum_sq(scaled(g[rows])) for rows in chunks(n, n))

    if not within_structure(g, squares)[0]:
        raise StructuralError("Gram is not symmetric: ||G - G^T||_F exceeds STRUCTURE_TOL ||G||_F")
    return g


def autoencoder_loss(gram: np.ndarray, r: int) -> float:
    """The loss min ||M X - X||_F^2 over rank <= r matrices M, read from the
    Gram G = X X^T alone, so that a caller may release X first: the sum of
    the n - r smallest eigenvalues of G (Eckart-Young; Baldi & Hornik 1989),
    without the minimizer, from one eigenvalue decomposition and no
    eigenvectors.  G is read by `require_real` and must be square and
    symmetric (`_square_gram`); the decomposition reads its lower triangle.
    The same number as `fit_rank_bounded(x, x, r).loss` to rounding, 0.0 for
    r >= n, and the same rank floor and errors, with SizeMismatchError for a
    G that is not square and StructuralError for one that is not
    symmetric."""
    if r < 0:
        raise SizeMismatchError(f"rank bound {r} is negative")
    g = _square_gram(gram)
    if len(g) == 0:
        raise SizeMismatchError("data X has no rows")
    vals = eigvalsh(g)
    _rank_floor([vals])
    # summed as they are, smallest first: no difference of large sums
    return float(vals[:max(len(vals) - r, 0)].sum())


def _basis_chunks(bc: BaseChange, a: np.ndarray):
    """For each chunk of columns `cols` of a (`linalg.chunks`): cols and the
    rows of each block of Q^T a[:, cols]; on a complex-pair block the row
    pairs (2i, 2i+1) as the complex rows a_2i + i a_2i+1.  So Q^T a is never
    whole."""
    blocks = bc.spectrum.real_blocks
    for cols in chunks(a.shape[1], len(a)):
        t = bc.to_basis(a[:, cols])
        yield cols, [t[sl][0::2] + 1j * t[sl][1::2] if blk.kind == "complex_pair" else t[sl]
                     for blk, sl in zip(blocks, bc.block_slices)]


def _block_rows(bc: BaseChange, a: np.ndarray) -> list[np.ndarray]:
    """The rows of each block of Q^T a (`_basis_chunks`), written a chunk of
    columns at a time straight into the per-block arrays."""
    rows = [np.empty((blk.size, a.shape[1]), complex if blk.kind == "complex_pair" else float)
            for blk in bc.spectrum.real_blocks]
    for cols, parts in _basis_chunks(bc, a):
        for out, part in zip(rows, parts):
            out[:, cols] = part
    return rows


def _block_grams(bc: BaseChange, a: np.ndarray) -> list[np.ndarray]:
    """The Gram t_b t_b^H of the rows t_b of each block of Q^T a
    (`_basis_chunks`), summed over the chunks of columns: the block rows are
    never held, only the Grams and one chunk."""
    grams = [np.zeros((blk.size, blk.size), complex if blk.kind == "complex_pair" else float)
             for blk in bc.spectrum.real_blocks]
    with np.errstate(over="ignore", invalid="ignore"):
        for _, parts in _basis_chunks(bc, a):
            for g, part in zip(grams, parts):
                g += part @ part.conj().T
    return [_finite_gram(g) for g in grams]


def _energy_component(blocks, fits, r: int) -> tuple[int, ...]:
    """Greedy rank allocation by descending marginal energy per rank unit.

    Heuristic only: mirrors concentrating the budget where the weighted
    singular values carry the most mass; only `fit_equivariant` asks for it.
    ComponentError, as in the search, when no component has total rank r.
    """
    if not 0 <= r <= sum(blk.rows for blk in blocks):
        raise ComponentError(f"no admissible component of total rank {r}")
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
    if not 0 <= r <= sum(blk.rows for blk in blocks):  # the total rank never exceeds n
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


@dataclass(frozen=True, eq=False)
class EquivariantSolve:
    """The equivariant fit of Y on X, solved for every rank and component:
    per block of sigma's base change, the `WeightedEckartYoung` of its rows of
    Q^T X and Q^T Y (complex on a complex-pair block), or of its Gram alone
    when Y is X.  `slack` is
    `tie_slack(Y)`, the tie slack of the component search.  It compares and
    hashes by identity, as its base change and solves do."""

    base_change: BaseChange
    solves: tuple[WeightedEckartYoung, ...] = field(repr=False)
    ridge: Optional[float]
    constant: float
    slack: float

    def fit(self, r: int, component: Optional[RankVector] = None) -> FitResult:
        """The rank-r fit: of `component` when given; otherwise of the best
        component, found exactly by min-plus dynamic programming over the
        per-block tail tables, ties (losses within `slack`) going to the
        lexicographically smallest rank vector.  ComponentError when no
        component has total rank r, and for a named component of another
        spectrum or of another total rank."""
        spec = self.base_change.spectrum
        blocks = spec.real_blocks
        if component is None:
            values = _best_component(blocks, [s.tails for s in self.solves], r, self.slack)[0]
            rvec, source = make_rank_vector(spec, "real", values), "search"
        elif component.blocks != blocks:
            raise ComponentError(f"{component} is not a real component of this permutation")
        else:
            rvec, source = component, "named"
        if rvec.total_rank != r:  # a named component; the search meets r
            raise ComponentError(f"component has total rank {rvec.total_rank}, expected {r}")

        # Q is orthogonal, so ||M X - Y||^2 is the sum of the block residuals
        decoders, encoders, losses, per_block = zip(*(
            solve.read(t, (blk.kind, blk.l, blk.m)) for blk, solve, t in zip(blocks, self.solves, rvec.values)))
        par = parameterize_component(rvec, self.base_change.permutation, list(zip(decoders, encoders)),
                                     base_change=self.base_change)
        return FitResult(par, sum(losses), rvec, per_block, self.ridge, self.constant, source)


def _equivariant_solve(bc: BaseChange, grams, ridge: Optional[float], slack, rows=None) -> EquivariantSolve:
    """The `EquivariantSolve` of every block of bc from its Gram (`grams`, in
    the order of `bc.spectrum.real_blocks`) and, on the row route, its rows
    (`_solve_blocks`).  The component search's tie slack is `slack()`, read
    after the solves, so that data whose Gram overflows fail on the Gram."""
    # ||realize(Z)||_F^2 = 2 ||Z||_F^2 doubles the ridge on a complex-pair block
    ridges = [ridge and ridge * blk.rank_multiplier for blk in bc.spectrum.real_blocks]
    solves = _solve_blocks(grams, ridges, rows)
    return EquivariantSolve(bc, solves, ridge, sum(s.constant for s in solves), slack())


def solve_equivariant(
    x: np.ndarray, y: np.ndarray, p: Permutation, ridge: Optional[float] = None
) -> EquivariantSolve:
    """Change the basis of X, then of Y, and solve every block once.  When Y
    is X every block takes the Gram route: the solve sums each block Gram
    over chunks of columns (`_block_grams`) and holds neither block rows nor
    data.  RankDeficientError when the Gram of any block fails the rank
    floor, whose scale is the largest block Gram eigenvalue."""
    x, y = require_data(x, y)
    if x.shape[0] != p.n or y.shape[0] != p.n:
        raise SizeMismatchError(f"equivariant fit needs n x d data with n={p.n}")
    bc = real_base_change(p)
    if y is x:
        return _equivariant_solve(bc, _block_grams(bc, x), ridge, lambda: tie_slack(x))
    x_rows = _block_rows(bc, x)
    return _equivariant_solve(bc, map(_gram, x_rows), ridge, lambda: tie_slack(y),
                              list(zip(x_rows, _block_rows(bc, y))))


def solve_equivariant_gram(gram: np.ndarray, p: Permutation, ridge: Optional[float] = None) -> EquivariantSolve:
    """`solve_equivariant(X, X, p, ridge)` from the Gram G = X X^T alone,
    the equivariant counterpart of `autoencoder_loss(gram, r)`, so that a
    caller may sum G without ever holding X.  The block Grams are the
    diagonal blocks of Q^T G Q (`equivariant.diagonal_blocks`, one orbit-sum
    pass over G, no conjugation): a real block as it is, and a complex-pair
    block's real block R as the Gram of its complex rows, (R_00 + R_11) +
    i (R_10 - R_01) with R_ab = R[a::2, b::2].  The tie slack is TIE_TOL tr G
    (`tie_slack(X)`).  G is read by `require_real` and must be square and
    symmetric (`_square_gram`), as in `autoencoder_loss`, since the whole of
    it is read.  The same solve as from X to rounding, with the same
    errors."""
    g = _square_gram(gram)
    if len(g) != p.n:
        raise SizeMismatchError(f"equivariant fit needs n x d data with n={p.n}")
    bc = real_base_change(p)
    grams = (r[0::2, 0::2] + r[1::2, 1::2] + 1j * (r[1::2, 0::2] - r[0::2, 1::2])
             if blk.kind == "complex_pair" else r
             for blk, r in zip(bc.spectrum.real_blocks, diagonal_blocks(g, p)))
    return _equivariant_solve(bc, grams, ridge, lambda: TIE_TOL * float(np.trace(g)))


def fit_equivariant(
    x: np.ndarray,
    y: np.ndarray,
    p: Permutation,
    r: int,
    component: Optional[RankVector] = None,
    heuristic: Optional[str] = None,
    ridge: Optional[float] = None,
) -> FitResult:
    """Minimize ||M X - Y||_F^2 over rank <= r equivariant matrices: one
    `solve_equivariant` and one `EquivariantSolve.fit`, whose documentation
    gives the choice of component and the errors.

    heuristic="energy" fits the greedy allocation of `_energy_component` as
    a named component.  It is a shim for the benchmark's search-fit check,
    its last caller, and goes when that check compares against the exact
    fit (ROADMAP item 1).  ComponentError, before the solve, for an unknown
    heuristic and for a component named with one; and, as in the search,
    when no component has total rank r."""
    if heuristic not in (None, "energy"):
        raise ComponentError(f"unknown heuristic {heuristic!r}")
    if component is not None and heuristic is not None:
        raise ComponentError("name a component or a heuristic, not both")
    solve = solve_equivariant(x, y, p, ridge)
    if heuristic is not None:
        spec = solve.base_change.spectrum
        component = make_rank_vector(spec, "real", _energy_component(spec.real_blocks, solve.solves, r))
    return solve.fit(r, component)


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
