"""Invariant maps under a permutation group: M is invariant iff its columns
agree within each block of the induced partition, so the whole space
compresses to m x k matrices by deleting repeated columns (psi), with inverse
given by right-multiplication with the replication matrix E.

Rank-bounded invariant fitting compresses exactly: M X = psi(M) Xtilde where
Xtilde sums the rows of X within each block, so squared-error minimization
reduces to one unconstrained rank-bounded fit on the compressed problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvarianceError, SizeMismatchError
from .linalg import STRUCTURE_TOL, numeric_rank, require_data, require_real, svd
from .equivariant import determinantal_degree
from .optimize import FitResult, weighted_eckart_young
from .perms import (
    Partition,
    Permutation,
    cycle_decomposition,
    finest_common_coarsening,
    induced_partition,
    replication_matrix,
)

__all__ = [
    "InvariantSpace",
    "invariant_space",
    "psi_compress",
    "psi_expand",
    "invariant_dimension",
    "invariant_degree",
    "is_singular_point",
    "fit_invariant",
    "invariant_autoencoder",
    "invariant_project",
]

@dataclass(frozen=True)
class InvariantSpace:
    """Invariant m x n maps of rank <= r; rank caps at k, the block count."""

    m: int
    n: int
    r: int
    partition: Partition

    @property
    def k(self) -> int:
        return self.partition.k

    @property
    def effective_rank(self) -> int:
        return min(self.r, self.partition.k)


def invariant_space(gens: Sequence[Permutation], m: int, n: int, r: int) -> InvariantSpace:
    """The single partition (finest common coarsening) characterizes the space."""
    if not gens:
        raise SizeMismatchError("need at least one generator")
    if any(g.n != n for g in gens):
        raise SizeMismatchError("generators do not act on [n]")
    if not 0 <= r <= min(m, n):
        raise SizeMismatchError(f"rank bound {r} outside 0..{min(m, n)}")
    part = finest_common_coarsening([induced_partition(cycle_decomposition(g)) for g in gens])
    return InvariantSpace(m, n, r, part)


def psi_compress(m_mat: np.ndarray, part: Partition) -> np.ndarray:
    """Keep one column per block (the smallest label), after checking the
    columns within each block agree entrywise within STRUCTURE_TOL * ||M||_F."""
    m_mat = require_real(m_mat, "matrix", (None, part.n))
    bound = STRUCTURE_TOL * np.linalg.norm(m_mat)
    compact = m_mat[:, [b[0] - 1 for b in part.blocks]]
    dev = np.abs(m_mat - compact[:, part.labels]).max(axis=0, initial=0.0)
    worst = int(np.argmax(dev))
    if dev[worst] > bound:
        raise InvarianceError(f"columns of block {part.labels[worst]} differ by {dev[worst]:.3e} (> {bound:.3e})")
    return compact


def psi_expand(compact: np.ndarray, part: Partition) -> np.ndarray:
    return require_real(compact, "compact matrix", (None, part.k)) @ replication_matrix(part)


def invariant_dimension(space: InvariantSpace) -> int:
    r = space.effective_rank
    return r * (space.m + space.k - r)


def invariant_degree(space: InvariantSpace) -> int:
    """Degree of the compressed determinantal variety, in exact integers."""
    return determinantal_degree(space.m, space.k, space.effective_rank)


def is_singular_point(space: InvariantSpace, m_mat: np.ndarray) -> bool:
    """Singular iff the compressed rank drops below the effective rank bound."""
    compact = psi_compress(require_real(m_mat, "matrix", (space.m, space.n)), space.partition)
    if space.effective_rank >= min(space.m, space.k):
        return False
    return numeric_rank(compact) < space.effective_rank


def fit_invariant(
    x: np.ndarray,
    y: np.ndarray,
    space: InvariantSpace,
    ridge: Optional[float] = None,
) -> FitResult:
    """Minimize ||M X - Y||_F^2 over the invariant space, by weighted
    Eckart-Young on the compressed problem (row sums of X per block).

    Without a ridge, the Gram of the compressed data E X must clear the rank
    floor (RankDeficientError); X itself may be rank deficient."""
    x, y = require_data(x, y)
    if x.shape[0] != space.n or y.shape[0] != space.m:
        raise SizeMismatchError(
            f"data shapes {x.shape}, {y.shape} do not match the {space.m} x {space.n} space"
        )
    E = replication_matrix(space.partition).astype(float)
    fit = weighted_eckart_young(E @ x, y, ridge)  # M X = psi(M) (E X) exactly
    decoder, compact_encoder, loss, blk = fit.read(space.effective_rank, ("invariant", 1, 1))
    # the weight-shared encoder B' E: one column per partition block, repeated
    return FitResult(decoder, compact_encoder[:, space.partition.labels], loss,
                     "invariant", (blk,), ridge, fit.constant)


def invariant_autoencoder(space: InvariantSpace, m_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor an invariant matrix as decoder @ encoder with the weight-shared
    encoder B' E (columns tied within each block).

    At full rank the factors are exactly (compressed matrix, E); below it the
    compressed matrix is split through its SVD.  Rank above the bound is
    rejected.
    """
    compact = psi_compress(require_real(m_mat, "matrix", (space.m, space.n)), space.partition)
    r = space.effective_rank
    if numeric_rank(compact) > r:
        raise InvarianceError(f"matrix rank exceeds the bound {r}")
    E = replication_matrix(space.partition).astype(float)
    if r == space.k:
        return compact, E
    if not np.any(compact):
        return np.zeros((space.m, r)), E[:r, :]
    u1, s, v1t = svd(compact)
    decoder = u1[:, :r] * s[:r]
    encoder = v1t[:r, :] @ E
    return decoder, encoder


def invariant_project(m_mat: np.ndarray, part: Partition) -> np.ndarray:
    """Frobenius-orthogonal projection onto the invariant linear space:
    average the columns within each block."""
    m_mat = require_real(m_mat, "matrix", (None, part.n))
    sizes = np.bincount(part.labels)
    members, starts = np.argsort(part.labels, kind="stable"), np.cumsum(sizes) - sizes
    means = np.empty((m_mat.shape[0], part.k))
    for size in np.unique(sizes):  # one gather per block size; each mean is over one block's columns
        same = np.flatnonzero(sizes == size)
        means[:, same] = m_mat[:, members[starts[same, None] + np.arange(size)]].mean(axis=2)
    return means[:, part.labels]
