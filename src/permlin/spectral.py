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
decomposition.  Per cycle, the orthonormal vectors

    w_0   = v_0 / sqrt(l),
    w_j   = (v_j + v_{-j}) / sqrt(2 l),
    w_{-j} = (v_j - v_{-j}) / (sqrt(2 l) i),

the cos/sin recombination of the root-of-unity eigenvectors v_j (the
per-cycle Vandermonde), turn each circulant into diag(1, [-1,] R(zeta^1),
R(zeta^2), ...) with 2x2 rotation-scaling blocks; a final grouping
permutation collects +1 coordinates, then -1 coordinates, then the rotation
pairs per eigenvalue pair.  Conjugating P by Q yields

    Id_{d_1}  (+)  -Id_{d_2}  (+)  realize(zeta_l^{l-m} Id_{d_l})  per pair,

with pairs labeled by the representative m satisfying 1/2 < m/l < 1.

Q records the permutation sigma it was built for, so sigma alone names the
basis, and is held in factored form, never as an n x n array: the cycle-sort
order, one orthogonal l x l factor `_real_cycle_basis(l)` per distinct cycle
length, and the grouping.  Applying Q or Q^T to an n x k matrix is a gather
of rows, one batched l x l product per distinct length and a scatter:
O(n l k) work in place of O(n^2 k).  The dense Q exists only as a reference,
built from these factors by `oracles.dense_base_change`; the complex
diagonalizing T, of which Q is the real form, is the independent reference
`oracles.vandermonde_base_change`.
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

    `to_basis`, `from_basis` and `conjugate` apply Q and Q^T = Q^{-1} by
    indexing and one batched l x l product per distinct length, without
    forming Q; they gather in the order of `cycle_runs`.  `block_slices` is
    the spectrum's real layout: each block's coordinate range, in canonical
    order.  It compares and hashes by identity: `factors` holds arrays.
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

    def _change(self, a: np.ndarray, axis: int, into_basis: bool) -> np.ndarray:
        """Q^T a or Q a (axis 0), a Q or a Q^T (axis 1): gather the rows
        (columns) into runs of equal cycle length, one batched l x l product
        per run on its (cycles, l, cols) view, scatter into place."""
        a = np.asarray(a)
        n = self.spectrum.n
        if a.ndim == 1 and axis == 0:
            return self._change(a[:, None], 0, into_basis)[:, 0]
        if a.ndim != 2 or a.shape[axis] != n:
            raise SizeMismatchError(f"base change of size {n} cannot act on axis {axis} of shape {a.shape}")
        labels, coords, label_pos, coord_pos, runs = self._runs
        src, back = (labels, coord_pos) if into_basis else (coords, label_pos)
        dtype = np.result_type(a.dtype, float)
        g = np.take(a, src, axis=axis).astype(dtype, copy=False)
        h = np.empty_like(g)
        for start, stop, l, f in runs:
            # Q^T a and a Q^T apply O^T; Q a and a Q apply O
            if axis == 0:
                view = ((stop - start) // l, l, g.shape[1])
                np.matmul(f.T if into_basis else f, g[start:stop].reshape(view),
                          out=h[start:stop].reshape(view))
            else:
                view = (g.shape[0], (stop - start) // l, l)
                np.matmul(g[:, start:stop].reshape(view), f if into_basis else f.T,
                          out=h[:, start:stop].reshape(view))
        # into g, which is free now; mode="clip" never acts on a permutation
        # and, unlike the default, writes to `out` without a buffer
        return np.take(h, back, axis=axis, out=g, mode="clip")

    def to_basis(self, x: np.ndarray) -> np.ndarray:
        """Q^T x, the coordinates of x in the new basis."""
        return self._change(x, 0, True)

    def from_basis(self, z: np.ndarray) -> np.ndarray:
        """Q z."""
        return self._change(z, 0, False)

    def conjugate(self, m: np.ndarray) -> np.ndarray:
        """Q^T m Q."""
        return self._change(self._change(m, 0, True), 1, True)


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


def _reduced_label(num: int, den: int) -> tuple[int, int]:
    """Reduce e^{2 pi i num/den} to its primitive label (l, m), with (1, 1) for 1."""
    num %= den
    if num == 0:
        return (1, 1)
    g = math.gcd(num, den)
    return (den // g, num // g)


def _group(lengths, keys: dict[int, list], blocks) -> tuple[int, ...]:
    """The grouping T3.  keys[l][j] names the block of position j inside every
    length-l cycle; for each (key, size) of `blocks` in canonical order, the
    cycle-sorted positions named key fill the block's range of `slices`."""
    positions: dict = {}
    offset = 0
    for l in lengths:
        for j, key in enumerate(keys[l]):
            positions.setdefault(key, []).append(offset + j)
        offset += l
    grouping: list[int] = []
    for key, size in blocks:
        cols = positions.get(key, [])
        if len(cols) != size:
            raise SizeMismatchError(f"block {key} collected {len(cols)} columns, expected {size}")
        grouping.extend(cols)
    return tuple(grouping)


def _real_cycle_basis(l: int) -> tuple[np.ndarray, list[tuple[str, int]]]:
    """Orthogonal l x l factor for one cycle plus per-coordinate tags.

    Tags are ("plus", 0), ("minus", 0), or ("pair", j) twice for each pair
    (w_j, w_{-j}); column order is w_0, w_{l/2} when l is even, then the pairs
    for j = 1, 2, ...
    """
    zeta = np.exp(2j * np.pi / l)
    cols = [np.ones(l) / np.sqrt(l)]
    tags: list[tuple[str, int]] = [("plus", 0)]
    if l % 2 == 0:
        v = zeta ** (np.arange(l) * (l // 2))
        cols.append(v.real / np.sqrt(l))
        tags.append(("minus", 0))
    for j in range(1, (l - 1) // 2 + 1):
        v = zeta ** (np.arange(l) * j)
        cols.append(np.sqrt(2.0 / l) * v.real)
        cols.append(np.sqrt(2.0 / l) * v.imag)
        tags.extend([("pair", j), ("pair", j)])
    return np.column_stack(cols), tags


def real_base_change(p: Permutation) -> BaseChange:
    """Orthogonal Q with Q^T P Q = Id (+) -Id (+) realization blocks per pair.

    T2 holds one `_real_cycle_basis(l)` factor O_l per distinct cycle length.
    """
    cd = cycle_decomposition(p)
    spec = eigen_multiplicities(cd)
    real_keys = {"plus": ("real_plus", 1, 1), "minus": ("real_minus", 2, 1)}
    factors, keys = {}, {}
    for l in set(cd.lengths):
        basis, tags = _real_cycle_basis(l)
        factors[l] = basis
        # a pair j in a length-l cycle carries eigenvalues zeta_l^{+-j} and is
        # labeled by the reduced (l', m') of (l - j)/l, with 1/2 < m'/l' < 1
        keys[l] = [real_keys[kind] if kind in real_keys else ("complex_pair", *_reduced_label(l - j, l))
                   for kind, j in tags]
    grouping = _group(cd.lengths, keys, [((b.kind, b.l, b.m), b.rows) for b in spec.real_blocks])
    return BaseChange(p, spec, tuple(_cycle_sort_order(cd)), factors, grouping)
