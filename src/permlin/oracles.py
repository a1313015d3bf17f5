"""Independent brute-force verifiers, intentionally slow and simple.

These deliberately avoid the fast paths they cross-check: commutant dimension
comes from a dense nullspace of the stacked commutation system, component
counts from plain recursive enumeration, fit losses from alternating least
squares restarts, equivariant fits from the weighted projection of the
full least-squares solution onto the commutant, the best component from
enumerating and scoring every component, equivariance from the circulant
pattern of cycle-by-cycle blocks, and the ED degree of a determinantal
variety from listing every critical point.  Hard size caps keep the full
suite fast.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .equivariant import _rank_vectors
from .errors import ComponentError, SizeCapError, SizeMismatchError
from .linalg import realize, tie_slack
from .perms import Permutation, cycle_decomposition, permutation_matrix
from .spectral import BlockSpectrum, real_base_change

__all__ = [
    "nullspace_commutant_dim",
    "recursive_component_count",
    "als_low_rank",
    "score_components",
    "best_scored",
    "projection_fit_equivariant",
    "critical_points",
    "check_circulant_blocks",
]

MAX_NULLSPACE_N = 16
MAX_COUNT_BLOCKS = 8
MAX_COUNT_BOUND = 30
MAX_ALS_DIM = 12
# size up to which `permlin verify` checks the component search by
# enumeration; at n <= 16 a real census has at most 90 components
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


def recursive_component_count(spec: BlockSpectrum, r: int, field: str) -> int:
    """Plain recursive enumeration of admissible rank vectors (no DP table)."""
    if field == "complex":
        blocks = [(b.size, 1) for b in spec.complex_blocks]
    elif field == "real":
        blocks = [(b.size, b.rank_multiplier) for b in spec.real_blocks]
    else:
        raise SizeMismatchError(f"unknown field {field!r}")
    if len(blocks) > MAX_COUNT_BLOCKS:
        raise SizeCapError(f"counting oracle capped at {MAX_COUNT_BLOCKS} blocks, got {len(blocks)}")
    if any(d > MAX_COUNT_BOUND for d, _ in blocks):
        raise SizeCapError(f"counting oracle capped at bounds <= {MAX_COUNT_BOUND}")

    def rec(i: int, remaining: int) -> int:
        if i == len(blocks):
            return 1 if remaining == 0 else 0
        d, mult = blocks[i]
        return sum(rec(i + 1, remaining - t * mult) for t in range(min(d, remaining // mult) + 1))

    return rec(0, r) if r >= 0 else 0


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
        x_, y_ = np.eye(np.asarray(u).shape[1]), np.asarray(u, dtype=float)
    elif x is not None and y is not None:
        x_, y_ = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
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


def score_components(
    spec: BlockSpectrum,
    r: int,
    tails: Sequence[Sequence[float]],
    constant: float,
    limit: Optional[int] = None,
) -> tuple[tuple[tuple[int, ...], float], ...]:
    """Every admissible real component of total rank r with its loss
    constant + sum_b tails[b][t_b], in the order `enumerate_components`
    streams them.  SearchLimitError when the census exceeds `limit`."""
    return tuple((values, _component_loss(tails, constant, values))
                 for values in _rank_vectors(spec, r, "real", limit))


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if p.n > MAX_ALS_DIM:
        raise SizeCapError(f"projection oracle capped at n <= {MAX_ALS_DIM}, got {p.n}")
    bc = real_base_change(p)
    xt, yt = bc.inverse @ x, bc.inverse @ y
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
    minimizer = bc.matrix @ B @ bc.inverse
    return minimizer, float(np.linalg.norm(minimizer @ x - y) ** 2), candidates


def critical_points(u: np.ndarray, r: int) -> tuple[np.ndarray, ...]:
    """Every critical point of the distance from u to the rank <= r matrices,
    one subset-truncation of the SVD per r-subset of the singular values:
    binom(min(m, n), r) of them, all real, the ED degree of the determinantal
    variety (Draisma et al. 2016).  At most MAX_CRITICAL (SizeCapError)."""
    u = np.asarray(u, dtype=float)
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
    m = np.asarray(m, dtype=float)
    if m.shape != (p.n, p.n):
        raise SizeMismatchError(f"expected a {p.n} x {p.n} matrix, got {m.shape}")
    cycles = [[a - 1 for a in cyc] for cyc in cycle_decomposition(p).cycles]
    worst = 0.0
    for ci in cycles:
        for cj in cycles:
            sub = m[np.ix_(ci, cj)]
            worst = max(worst, np.abs(sub - np.roll(sub, (1, 1), axis=(0, 1))).max(initial=0.0))
    return worst <= CIRCULANT_TOL * np.linalg.norm(m)
