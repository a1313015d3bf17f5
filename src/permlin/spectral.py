"""Eigenvalue bookkeeping and the orthogonal base change of a permutation matrix.

For a permutation with cycle lengths l_1, ..., l_k, the eigenvalues of P are
roots of unity; d_l counts the cycles whose length l divides, and equals the
multiplicity of every primitive l-th root of unity e^{2 pi i m / l} with
gcd(m, l) = 1.

Each eigenvalue group is one `Block` of size d_l: over C one per primitive
root (kind "complex"); over R one real_plus block (eigenvalue 1), one
real_minus block (eigenvalue -1, when some cycle has even length) and one
complex_pair block per conjugate pair.  `Block.rank_multiplier` is the one
rule for how much total rank a unit of block rank costs: 2 on a complex pair,
whose realization doubles every rank, and 1 otherwise.
`BlockSpectrum.blocks(field)` is the one place a field's block list is
chosen, and `slices(field)` the one block layout, each block's coordinates.

The base change is the real, orthogonal Q of the commutant's block
decomposition: per cycle, a real DFT.  A block (l, m) meets every cycle
whose length L is a multiple of l, at the one frequency
`Block.frequency(L)` = L (l - m) / l (Davis 1979): 0 on the +1 block, L / 2
on the -1 block and 0 < k < L / 2 on a pair.  Per cycle, the orthonormal
vectors

    w_0   = v_0 / sqrt(L),
    w_k   = (v_k + v_{-k}) / sqrt(2 L),
    w_{-k} = (v_k - v_{-k}) / (sqrt(2 L) i),

the cos/sin recombination of the root-of-unity eigenvectors v_k (the
per-cycle Vandermonde), in half-complex order w_0, (w_1, w_{-1}), ...,
[w_{L/2}], turn each circulant into diag(1, R(zeta^1), R(zeta^2), ...
[, -1]) with 2 x 2 rotation-scaling blocks; frequency k starts at column
max(2k - 1, 0).  A grouping permutation then collects, block by block, the
frequency's column (two on a pair) of every cycle the block meets.
Conjugating P by Q yields

    Id_{d_1}  (+)  -Id_{d_2}  (+)  realize(zeta_l^{l-m} Id_{d_l})  per pair,

with pairs labeled by the representative m satisfying 1/2 < m/l < 1.

Q records the permutation sigma it was built for, so sigma alone names the
basis, and is held in factored form, never as an n x n array: the cycle-sort
order, one orthogonal l x l factor `_real_cycle_basis(l)` per distinct cycle
length, and the grouping.  Applying Q or Q^T to an n x k matrix is a gather
of rows, one batched l x l product per distinct length and a scatter:
O(n l k) work in place of O(n^2 k).  The dense Q exists only as a reference,
built from these factors by `oracles.dense_base_change`, which also
conjugates by it; the complex diagonalizing T, of which Q is the real form,
is the independent reference `oracles.vandermonde_base_change`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import ComponentError, SizeMismatchError
from .perms import CycleDecomposition, Permutation, cycle_decomposition

__all__ = [
    "Block",
    "BlockSpectrum",
    "BaseChange",
    "euler_phi",
    "eigen_multiplicities",
    "commutant_dimension",
    "cycle_runs",
    "real_base_change",
]


def euler_phi(l: int) -> int:
    return sum(1 for m in range(1, l + 1) if math.gcd(m, l) == 1)


@dataclass(frozen=True)
class Block:
    """One eigenvalue block, the unit a rank vector allots rank to.

    `kind` is "complex" for an eigenvalue group e^{2 pi i m / l} of the
    complex form, and "real_plus", "real_minus" or "complex_pair" in the
    real form.  `size` is d_l, the most rank the block can take.
    """

    kind: str
    l: int
    m: int
    size: int

    @property
    def rank_multiplier(self) -> int:
        """Total rank per unit of block rank: 2 on a complex pair, else 1."""
        return 2 if self.kind == "complex_pair" else 1

    @property
    def rows(self) -> int:
        return self.rank_multiplier * self.size

    def frequency(self, L: int) -> int:
        """The real-DFT frequency L (l - m) / l at which the block meets a
        cycle of length L, a multiple of l: the one block-to-frequency rule."""
        return L * (self.l - self.m) // self.l


@dataclass(frozen=True)
class BlockSpectrum:
    n: int
    cycle_lengths: tuple[int, ...]
    multiplicities: dict[int, int]
    complex_blocks: tuple[Block, ...]
    real_blocks: tuple[Block, ...]

    @staticmethod
    def from_cycle_lengths(lengths) -> "BlockSpectrum":
        lengths = tuple(int(x) for x in lengths)
        n = sum(lengths)
        ls = sorted({l for L in lengths for l in range(1, L + 1) if L % l == 0})
        d = {l: sum(1 for L in lengths if L % l == 0) for l in ls}
        cplx = [Block("complex", l, m, d[l]) for l in ls for m in range(1, l + 1) if math.gcd(m, l) == 1]
        real = [Block("real_plus", 1, 1, d[1])]
        if 2 in d:
            real.append(Block("real_minus", 2, 1, d[2]))
        real += [Block("complex_pair", l, m, d[l])
                 for l in ls if l >= 3 for m in range(l // 2 + 1, l) if math.gcd(m, l) == 1]
        return BlockSpectrum(n, lengths, d, tuple(cplx), tuple(real))

    def blocks(self, field: str) -> tuple[Block, ...]:
        """The canonical block list of field "complex" or "real"."""
        if field == "complex":
            return self.complex_blocks
        if field == "real":
            return self.real_blocks
        raise ComponentError(f"unknown field {field!r}")

    def slices(self, field: str) -> tuple[slice, ...]:
        """Each block's coordinate range, `rows` wide, in canonical order."""
        stops = list(accumulate((b.rows for b in self.blocks(field)), initial=0))
        return tuple(map(slice, stops, stops[1:]))


def eigen_multiplicities(c: CycleDecomposition) -> BlockSpectrum:
    return BlockSpectrum.from_cycle_lengths(c.lengths)


def commutant_dimension(c: CycleDecomposition) -> int:
    """dim of {M : M P = P M} = sum over l of phi(l) * d_l^2; same over R and C."""
    spec = eigen_multiplicities(c)
    return sum(euler_phi(l) * d * d for l, d in spec.multiplicities.items())


@dataclass(frozen=True, eq=False)
class BaseChange:
    """The orthogonal base change Q = T1 T2 T3 of `permutation`, in three factors.

    * `order`: the cycle sort T1, as 0-based labels in cycle-sorted order
      (cycles by smallest label, each followed along sigma^{-1});
    * `factors`: T2, one orthogonal l x l factor O_l per distinct cycle
      length l, applied to every cycle of that length;
    * `grouping`: T3, the cycle-sorted position of each basis coordinate.

    `to_basis` and `from_basis` apply Q^T = Q^{-1} and Q to the columns of
    an n x k matrix by indexing and one batched l x l product per distinct
    length, without forming Q; they gather in the order of `cycle_runs`.
    `block_slices` is the spectrum's real layout: each block's coordinate
    range, in canonical order.  It compares and hashes by identity:
    `factors` holds arrays.
    """

    permutation: Permutation
    spectrum: BlockSpectrum
    order: tuple[int, ...]
    factors: dict[int, np.ndarray]
    grouping: tuple[int, ...]

    @property
    def block_slices(self) -> tuple[slice, ...]:
        return self.spectrum.slices("real")

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list]:
        """The cycles regrouped by length, cycles of equal length side by side.

        Run position k holds label labels[k] and basis coordinate coords[k];
        label_pos and coord_pos invert these maps.  Each run is
        (start, stop, l, O_l) over run positions.
        """
        n = self.spectrum.n
        coord_of = np.empty(n, dtype=np.intp)
        coord_of[np.asarray(self.grouping, dtype=np.intp)] = np.arange(n)
        pos, runs, stop = [], [], 0
        for l, run in _run_positions(self.spectrum.cycle_lengths):
            pos.append(run.ravel())
            runs.append((stop, stop + run.size, l, self.factors[l]))
            stop += run.size
        pos = np.concatenate(pos)
        labels = np.asarray(self.order, dtype=np.intp)[pos]
        coords = coord_of[pos]
        return labels, coords, np.argsort(labels), np.argsort(coords), runs

    def _change(self, a: np.ndarray, into_basis: bool) -> np.ndarray:
        """Q^T a or Q a: gather the rows into runs of equal cycle length, one
        batched l x l product per run on its (cycles, l, cols) view, scatter
        into place."""
        a = np.asarray(a)
        n = self.spectrum.n
        if a.ndim != 2 or a.shape[0] != n:
            raise SizeMismatchError(f"base change of size {n} cannot act on the columns of shape {a.shape}")
        labels, coords, label_pos, coord_pos, runs = self._runs
        src, back = (labels, coord_pos) if into_basis else (coords, label_pos)
        g = np.take(a, src, axis=0).astype(np.result_type(a.dtype, float), copy=False)
        h = np.empty_like(g)
        for start, stop, l, f in runs:
            view = ((stop - start) // l, l, g.shape[1])
            np.matmul(f.T if into_basis else f, g[start:stop].reshape(view), out=h[start:stop].reshape(view))
        # into g, which is free now; mode="clip" never acts on a permutation
        # and, unlike the default, writes to `out` without a buffer
        return np.take(h, back, axis=0, out=g, mode="clip")

    def to_basis(self, x: np.ndarray) -> np.ndarray:
        """Q^T x, the coordinates of the columns of x in the new basis."""
        return self._change(x, True)

    def from_basis(self, z: np.ndarray) -> np.ndarray:
        """Q z."""
        return self._change(z, False)


def _cycle_sort_order(cd: CycleDecomposition) -> list[int]:
    """0-based label order: cycles by smallest label, each followed along
    sigma^{-1}, which is its first label and then the rest of it reversed.

    This ordering turns every diagonal block of the sorted P into the
    circulant with ones on the subdiagonal and in the top-right corner.
    """
    return [a - 1 for cyc in cd.cycles for a in (cyc[0], *reversed(cyc[1:]))]


def _run_positions(lengths) -> list[tuple[int, np.ndarray]]:
    """(l, positions) per distinct cycle length l, ascending: positions[c, a]
    is the cycle-sorted position of position a of the c-th cycle of length l."""
    lengths = np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    return [(l, starts[lengths == l][:, None] + np.arange(l)) for l in sorted(set(lengths.tolist()))]


def cycle_runs(cd: CycleDecomposition) -> list[tuple[int, np.ndarray]]:
    """(l, labels) per run of the cycles of length l, lengths ascending, in
    the order a base change gathers in: labels[c, a] is the 0-based label at
    position a of the run's c-th cycle, cycles by smallest label, each
    followed along sigma^{-1}, so sigma maps position a + 1 onto position a
    (mod l)."""
    order = np.asarray(_cycle_sort_order(cd), dtype=np.intp)
    return [(l, order[pos]) for l, pos in _run_positions(cd.lengths)]


def _real_cycle_basis(l: int) -> np.ndarray:
    """The orthogonal l x l factor of one cycle, its columns in half-complex
    real-DFT order: w_0, then the pair (w_k, w_{-k}) for 1 <= k < l/2, then
    w_{l/2} when l is even, so frequency k starts at column max(2k - 1, 0)."""
    zeta = np.exp(2j * np.pi / l)
    cols = [np.ones(l) / np.sqrt(l)]
    for k in range(1, (l - 1) // 2 + 1):
        v = zeta ** (np.arange(l) * k)
        cols += [np.sqrt(2.0 / l) * v.real, np.sqrt(2.0 / l) * v.imag]
    if l % 2 == 0:
        cols.append((zeta ** (np.arange(l) * (l // 2))).real / np.sqrt(l))
    return np.column_stack(cols)


def real_base_change(p: Permutation) -> BaseChange:
    """Orthogonal Q with Q^T P Q = Id (+) -Id (+) realization blocks per pair.

    T2 holds one `_real_cycle_basis(l)` factor O_l per distinct cycle length.
    The grouping T3 takes, block by block in canonical order and for each
    cycle the block meets in cycle order, the cycle-sorted position of the
    column of its frequency, and of the next column on a pair.
    """
    cd = cycle_decomposition(p)
    spec = eigen_multiplicities(cd)
    starts = list(accumulate(cd.lengths, initial=0))
    grouping = tuple(s + max(2 * b.frequency(L) - 1, 0) + j
                     for b in spec.real_blocks for L, s in zip(cd.lengths, starts) if L % b.l == 0
                     for j in range(b.rank_multiplier))
    factors = {l: _real_cycle_basis(l) for l in set(cd.lengths)}
    return BaseChange(p, spec, tuple(_cycle_sort_order(cd)), factors, grouping)
