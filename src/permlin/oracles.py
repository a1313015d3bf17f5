"""Independent brute-force verifiers and the dense reference forms,
intentionally slow and simple.

These deliberately avoid the fast paths they cross-check: commutant dimension
comes from a dense nullspace of the stacked commutation system, component
counts and listings from one plain recursive enumeration, fit losses from
alternating least squares restarts, equivariant fits from the weighted
projection of the full least-squares solution onto the commutant (in the
dense base change), the best component from enumerating and scoring every
component, equivariance from the circulant pattern of cycle-by-cycle blocks,
and the ED degree of a determinantal variety from listing every critical
point.  The dense Q of the base change, its documented block form and the
complex T whose eigenspaces Q's blocks span live here too, as references,
and so do `unrealize` and `weighted_inner`, which only the checks use.
Hard size caps keep the full suite fast.

The library itself never calls this module; only the CLI (`fit --candidates`,
`verify`) and the tests do.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterator, Optional, Sequence

import numpy as np

from .equivariant import count_components
from .errors import (ComponentError, IndefiniteError, MatrixFormatError, SearchLimitError,
                     SizeCapError, SizeMismatchError, StructuralError)
from .linalg import realize, require_finite, tie_slack
from .perms import Permutation, cycle_decomposition, permutation_matrix
from .spectral import BaseChange, Block, BlockSpectrum, real_base_change

__all__ = [
    "nullspace_commutant_dim",
    "recursive_component_count",
    "als_low_rank",
    "block_tails",
    "score_components",
    "best_scored",
    "projection_fit_equivariant",
    "critical_points",
    "check_circulant_blocks",
    "dense_base_change",
    "expected_block_form",
    "vandermonde_base_change",
    "unrealize",
    "weighted_inner",
]

MAX_NULLSPACE_N = 16
MAX_COUNT_BLOCKS = 8
# largest census `recursive_component_count` lists one by one
MAX_COUNT_CENSUS = 100_000
MAX_ALS_DIM = 12
# size up to which `permlin verify` checks the component search by
# enumeration, and one generator's orbit sums by label averaging and the
# conjugation; at n <= 16 a real census has at most 90 components
MAX_SCORED_N = 16
# relative agreement required between a closed-form fit and its oracle
AGREEMENT_TOL = 1e-9
# Frobenius deviation per coordinate allowed between a base change's
# conjugation of P_sigma and its documented block form
BLOCK_FORM_TOL = 1e-9
# absolute singular-value cutoff of the nullspace oracle's rank; its
# commutation system has entries in {-1, 0, 1} and n <= MAX_NULLSPACE_N
NULLSPACE_RANK_TOL = 1e-9
# most critical points `critical_points` lists (SizeCapError above)
MAX_CRITICAL = 100_000
# largest entry off the circulant pattern, relative to ||M||_F, that
# `check_circulant_blocks` still accepts
CIRCULANT_TOL = 1e-8
# Frobenius norms whose squares are safe normal numbers: outside, numpy's
# norm has lost its small squares to underflow or overflowed
SAFE_NORMS = (np.finfo(float).tiny ** 0.25, np.finfo(float).max ** 0.25)
# largest deviation `unrealize` accepts from the pattern, relative to max |m_ij|
UNREALIZE_TOL = 1e-10
# largest entry of W - W^T `weighted_inner` accepts, relative to max |w_ij|
WEIGHT_SYMMETRY_TOL = 1e-10


def _real(a) -> np.ndarray:
    """a as a float array; MatrixFormatError for complex entries, which the
    cast would drop.  The oracles read their input here, not through
    `linalg.require_real`, to stay independent of the library."""
    if np.iscomplexobj(a):
        raise MatrixFormatError("oracle input has complex entries; a real matrix is needed")
    return np.asarray(a, dtype=float)


def nullspace_commutant_dim(gens: Sequence[Permutation]) -> int:
    """dim {M : M P_g = P_g M for all g} via the nullspace of the n^2 system."""
    if not gens:
        raise SizeMismatchError("need at least one generator")
    n = gens[0].n
    if n > MAX_NULLSPACE_N:
        raise SizeCapError(f"nullspace oracle capped at n <= {MAX_NULLSPACE_N}, got {n}")
    eye = np.eye(n)
    rows = []
    for g in gens:
        P = permutation_matrix(g).astype(float)
        # row-major vec: vec(M P) = kron(I, P^T) vec(M), vec(P M) = kron(P, I) vec(M)
        rows.append(np.kron(eye, P.T) - np.kron(P, eye))
    system = np.vstack(rows)
    return n * n - np.linalg.matrix_rank(system, tol=NULLSPACE_RANK_TOL)


def _rank_vectors(blocks: Sequence[Block], r: int) -> Iterator[tuple[int, ...]]:
    """Every (t_b) with 0 <= t_b <= d_b and sum_b mult_b t_b = r, by plain
    recursion in descending lexicographic order.  A branch is entered only
    when the later blocks can make up the rest of r (at most their capacity,
    and even if all have mult 2): with d_b >= 1 and mult_b in {1, 2} that is
    exact, so every call but the first lies on the way to a rank vector and
    the calls number at most 1 + blocks * census."""
    if not blocks:
        if r == 0:
            yield ()
        return
    first, rest = blocks[0], blocks[1:]
    mult = first.rank_multiplier
    room = sum(b.rows for b in rest)
    step = min((b.rank_multiplier for b in rest), default=1)
    for t in range(min(first.size, r // mult), -1, -1):
        left = r - t * mult
        if left <= room and left % step == 0:
            for tail in _rank_vectors(rest, left):
                yield (t, *tail)


def recursive_component_count(spec: BlockSpectrum, r: int, field: str) -> int:
    """Admissible rank vectors counted one by one (no DP table), capped by
    block count and by census size (`count_components`)."""
    blocks = spec.blocks(field)
    if len(blocks) > MAX_COUNT_BLOCKS:
        raise SizeCapError(f"counting oracle capped at {MAX_COUNT_BLOCKS} blocks, got {len(blocks)}")
    if count_components(spec, r, field) > MAX_COUNT_CENSUS:
        raise SizeCapError(f"counting oracle capped at censuses <= {MAX_COUNT_CENSUS}")
    return sum(1 for _ in _rank_vectors(blocks, r))


def als_low_rank(
    r: int,
    restarts: int = 100,
    u: Optional[np.ndarray] = None,
    x: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
    sweeps: int = 60,
    seed: int = 0,
) -> float:
    """Best loss over alternating-least-squares restarts on the factored problem.

    Either pass `u` (minimizes ||A B - u||_F^2) or `x` and `y` (minimizes
    ||A B x - y||_F^2).  An upper-bound certificate only.
    """
    if u is not None:
        y_ = _real(u)
        x_ = np.eye(y_.shape[1])
    elif x is not None and y is not None:
        x_, y_ = _real(x), _real(y)
    else:
        raise SizeMismatchError("pass either u or both x and y")
    m, n = y_.shape[0], x_.shape[0]
    if max(m, n, x_.shape[1]) > MAX_ALS_DIM:
        raise SizeCapError(f"ALS oracle capped at dimensions <= {MAX_ALS_DIM}")
    if r == 0:
        return float(np.linalg.norm(y_) ** 2)
    rng = np.random.default_rng(seed)
    xp = np.linalg.pinv(x_)
    best = np.inf
    for _ in range(restarts):
        A = rng.standard_normal((m, r))
        for _ in range(sweeps):
            B = np.linalg.pinv(A) @ y_ @ xp
            bx = B @ x_
            A = y_ @ np.linalg.pinv(bx)
        loss = float(np.linalg.norm(A @ bx - y_) ** 2)
        best = min(best, loss)
    return best


def block_tails(per_block) -> list[tuple[float, ...]]:
    """Each block's tail table tails[t] = sum of s[t:]**2 over its weighted
    singular values s, the kept and dropped values of one `BlockFit` of a
    fit's `per_block`.  The suffix sum is the one `optimize` ranks components
    with, so with the fit's `constant_loss` it gives bit-identical losses."""
    tails = []
    for blk in per_block:
        sq = np.asarray(blk.kept + blk.dropped) ** 2
        tails.append(tuple(float(v) for v in np.append(np.cumsum(sq[::-1])[::-1], 0.0)))
    return tails


def score_components(
    spec: BlockSpectrum,
    r: int,
    tails: Sequence[Sequence[float]],
    constant: float,
    limit: Optional[int] = None,
) -> tuple[tuple[tuple[int, ...], float], ...]:
    """Every admissible real component of total rank r with its loss
    constant + sum_b tails[b][t_b], in descending lexicographic order of the
    rank vector.  SearchLimitError, reporting the exact `count_components`,
    when the census exceeds `limit`."""
    if limit is not None:
        total = count_components(spec, r, "real")
        if total > limit:
            raise SearchLimitError(f"{total} components exceed the limit {limit}; raise it or pick a component")
    return tuple((values, _component_loss(tails, constant, values))
                 for values in _rank_vectors(spec.real_blocks, r))


def _component_loss(tails, constant: float, values: Sequence[int]) -> float:
    return constant + sum(tail[t] for tail, t in zip(tails, values))


def best_scored(scored: Sequence[tuple[tuple[int, ...], float]], slack: float) -> tuple[int, ...]:
    """The tie rule of the component search: the lexicographically smallest
    rank vector whose loss is within `slack` of the least loss.  Pass
    `linalg.tie_slack(y)` for the slack `optimize.fit_equivariant` uses."""
    if not scored:
        raise ComponentError("no admissible component to choose from")
    bound = min(loss for _, loss in scored) + slack
    return min(values for values, loss in scored if loss <= bound)


def _sqrt_pair(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Square root and inverse square root of a Hermitian positive definite matrix."""
    vals, vecs = np.linalg.eigh(0.5 * (h + h.conj().T))
    root = np.sqrt(vals)
    return (vecs * root) @ vecs.conj().T, (vecs / root) @ vecs.conj().T


def _decode_pattern(a: np.ndarray) -> np.ndarray:
    """The complex matrix of a real one that commutes with the pair structure."""
    re = 0.5 * (a[0::2, 0::2] + a[1::2, 1::2])
    im = 0.5 * (a[1::2, 0::2] - a[0::2, 1::2])
    return re + 1j * im


def projection_fit_equivariant(
    x: np.ndarray,
    y: np.ndarray,
    p: Permutation,
    r: int,
    component: Optional[Sequence[int]] = None,
) -> tuple[np.ndarray, float, tuple[tuple[tuple[int, ...], float], ...]]:
    """Equivariant fit by weighted projection, independent of the per-block
    regressions of `optimize.fit_equivariant`.

    In the Q basis: form the least-squares solution U = Y X^T W^{-1} with
    W = X X^T, project it onto the block-diagonal commutant orthogonally in
    <.,.>_W (U_b = (U W)_bb W_bb^{-1}), project each pair block onto the
    realization pattern under the doubled weight S = W_bb + P W_bb P^T, and
    solve each block by Eckart-Young on U_b W^{1/2} (complex on decoded pair
    blocks).  With `component` (block ranks) fits that component; otherwise
    scores every admissible component and keeps the least loss, ties to the
    smallest rank vector within `tie_slack(y)` (`best_scored`).  Returns
    (minimizer, loss of the minimizer, candidates as (rank vector, predicted
    loss)).
    """
    x, y = _real(x), _real(y)
    if p.n > MAX_ALS_DIM:
        raise SizeCapError(f"projection oracle capped at n <= {MAX_ALS_DIM}, got {p.n}")
    bc = real_base_change(p)
    q, q_inv = dense_base_change(bc)
    xt, yt = q_inv @ x, q_inv @ y
    w = xt @ xt.T
    u = np.linalg.solve(w, xt @ yt.T).T
    uw = u @ w
    u_proj = np.zeros_like(u)
    solvers = []
    for blk, sl in zip(bc.spectrum.real_blocks, bc.block_slices):
        wbb = w[sl, sl]
        ub = np.linalg.solve(wbb, uw[sl, sl].T).T
        u_proj[sl, sl] = ub
        if blk.kind == "complex_pair":
            P = np.kron(np.eye(blk.size), np.array([[0.0, 1.0], [-1.0, 0.0]]))
            S = wbb + P @ wbb @ P.T
            u0 = np.linalg.solve(S, (ub @ wbb + P @ ub @ wbb @ P.T).T).T
            diff = u0 - ub
            base = float(np.trace(diff @ wbb @ diff.T))
            root, iroot = _sqrt_pair(_decode_pattern(S))
            U1, s, V1h = np.linalg.svd(_decode_pattern(u0) @ root)
        else:
            base = 0.0
            root, iroot = _sqrt_pair(wbb)
            U1, s, V1h = np.linalg.svd(ub @ root)
        solvers.append((blk.kind, base, U1, s, V1h, iroot))
    diff = u - u_proj
    constant = (float(np.linalg.norm(yt) ** 2 - np.trace(u @ w @ u.T))
                + float(np.trace(diff @ w @ diff.T)))

    tails = [[base + float(np.sum(s[t:] ** 2)) for t in range(len(s) + 1)]
             for (_, base, _, s, _, _) in solvers]
    if component is not None:
        candidates = ((tuple(component), _component_loss(tails, constant, component)),)
    else:
        candidates = score_components(bc.spectrum, r, tails, constant)
    best = best_scored(candidates, tie_slack(y))
    B = np.zeros_like(w)
    for (kind, _, U1, s, V1h, iroot), sl, t in zip(solvers, bc.block_slices, best):
        b = ((U1[:, :t] * s[:t]) @ V1h[:t]) @ iroot
        B[sl, sl] = realize(b) if kind == "complex_pair" else b
    minimizer = q @ B @ q_inv
    return minimizer, float(np.linalg.norm(minimizer @ x - y) ** 2), candidates


def critical_points(u: np.ndarray, r: int) -> tuple[np.ndarray, ...]:
    """Every critical point of the distance from u to the rank <= r matrices,
    one subset-truncation of the SVD per r-subset of the singular values:
    binom(min(m, n), r) of them, all real, the ED degree of the determinantal
    variety (Draisma et al. 2016).  At most MAX_CRITICAL (SizeCapError)."""
    u = _real(u)
    q = min(u.shape)
    if not 0 <= r <= q:
        raise SizeMismatchError(f"rank {r} outside 0..{q}")
    n_crit = math.comb(q, r)
    if n_crit > MAX_CRITICAL:
        raise SizeCapError(f"{n_crit} critical points exceed cap {MAX_CRITICAL}")
    U1, s, V1t = np.linalg.svd(u, full_matrices=False)
    return tuple((U1[:, list(subset)] * s[list(subset)]) @ V1t[list(subset)]
                 for subset in combinations(range(q), r))


def check_circulant_blocks(m: np.ndarray, p: Permutation) -> bool:
    """Equivariance by the circulant pattern: with the labels of each cycle
    listed along sigma, every cycle-by-cycle block of M must be circulant
    (invariant under a simultaneous cyclic shift of rows and columns), up to
    CIRCULANT_TOL * ||M||_F in every entry."""
    m = _real(m)
    if m.shape != (p.n, p.n):
        raise SizeMismatchError(f"expected a {p.n} x {p.n} matrix, got {m.shape}")
    cycles = [[a - 1 for a in cyc] for cyc in cycle_decomposition(p).cycles]
    worst = 0.0
    for ci in cycles:
        for cj in cycles:
            sub = m[np.ix_(ci, cj)]
            worst = max(worst, np.abs(sub - np.roll(sub, (1, 1), axis=(0, 1))).max(initial=0.0))
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
    if not SAFE_NORMS[0] <= norm <= SAFE_NORMS[1] and m.any():  # in units of max |m_ij|: safe squares
        top = float(np.abs(m).max())
        worst, norm = worst / top, float(np.linalg.norm(m / top))
    return worst <= CIRCULANT_TOL * norm


def dense_base_change(bc: BaseChange) -> tuple[np.ndarray, np.ndarray]:
    """Q and Q^T of a base change as dense n x n arrays, from its factors:
    the block diagonal of the per-cycle factors in cycle-sorted order, rows
    unsorted and columns grouped."""
    n = bc.spectrum.n
    t = np.zeros((n, n))
    pos = 0
    for l in bc.spectrum.cycle_lengths:
        t[pos:pos + l, pos:pos + l] = bc.factors[l]
        pos += l
    q = t[np.argsort(bc.order)][:, list(bc.grouping)]
    return q, q.T


def expected_block_form(bc: BaseChange) -> np.ndarray:
    """The documented conjugated form Q^T P_sigma Q of the permutation a
    base change was built for: Id (+) -Id (+) realize(zeta_l^{l-m} Id) per
    pair block."""
    form = np.zeros((bc.spectrum.n, bc.spectrum.n))
    for b, sl in zip(bc.spectrum.real_blocks, bc.block_slices):
        if b.kind == "real_plus":
            form[sl, sl] = np.eye(b.size)
        elif b.kind == "real_minus":
            form[sl, sl] = -np.eye(b.size)
        else:
            zeta = np.exp(2j * np.pi * (b.l - b.m) / b.l)
            form[sl, sl] = realize(zeta * np.eye(b.size, dtype=complex))
    return form


def vandermonde_base_change(p: Permutation) -> tuple[np.ndarray, np.ndarray]:
    """T and T^{-1}, dense and complex, with T^{-1} P_sigma T diagonal: each
    complex block's eigenvalue e^{2 pi i m / l}, `size` times, in canonical
    order.  Built from the cycles alone: block (l, m) has one column per cycle
    (c_0, ..., c_{L-1}) along sigma with l | L, lambda^a at c_a, an
    eigenvector of P_sigma (row j reads entry sigma(j)).  These per-cycle
    Vandermonde columns (Davis 1979) are orthogonal, of squared norm L, so
    T^{-1} = diag(1 / L) T^H."""
    cycles = [np.asarray(c) - 1 for c in cycle_decomposition(p).cycles]
    blocks = BlockSpectrum.from_cycle_lengths(map(len, cycles)).complex_blocks
    columns = [(b, c) for b in blocks for c in cycles if len(c) % b.l == 0]
    t = np.zeros((p.n, len(columns)), dtype=complex)
    for k, (b, c) in enumerate(columns):
        t[c, k] = np.exp(2j * np.pi * b.m / b.l * np.arange(len(c)))
    norms = np.array([len(c) for _, c in columns], dtype=float)
    return t, t.conj().T / norms[:, None]


def unrealize(m: np.ndarray) -> np.ndarray:
    """Inverse of `linalg.realize`, reading odd rows/columns; StructuralError
    when an entry deviates from the pattern by more than UNREALIZE_TOL *
    max |m_ij|."""
    m = require_finite(_real(m))
    if m.ndim != 2 or m.shape[0] % 2 or m.shape[1] % 2:
        raise StructuralError(f"realization pattern needs even dimensions, got {m.shape}")
    a, b = m[0::2, 0::2], m[1::2, 0::2]
    a2, b2 = m[1::2, 1::2], -m[0::2, 1::2]
    scale = UNREALIZE_TOL * np.abs(m).max(initial=0.0)
    dev = np.maximum(np.abs(a - a2), np.abs(b - b2))
    if dev.size and dev.max() > scale:
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        raise StructuralError(
            f"block ({i}, {j}) deviates from the realization pattern by {dev[i, j]:.3e}"
        )
    return a + 1j * b


def weighted_inner(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    """<a, b>_w = trace(a w b^T) for symmetric PSD w; IndefiniteError when w
    is asymmetric by more than WEIGHT_SYMMETRY_TOL * max |w_ij|."""
    a, b, w = (require_finite(_real(v), "weighted_inner input") for v in (a, b, w))
    asym = np.abs(w - w.T).max(initial=0.0)
    if asym > WEIGHT_SYMMETRY_TOL * np.abs(w).max(initial=0.0):
        raise IndefiniteError(f"weight matrix is asymmetric (max deviation {asym:.3e})")
    return float(np.trace(a @ w @ b.T))
