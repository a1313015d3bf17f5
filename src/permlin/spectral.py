"""Eigenvalue bookkeeping and base changes for permutation matrices.

For a permutation with cycle lengths l_1, ..., l_k, the eigenvalues of P are
roots of unity; d_l counts the cycles whose length l divides, and equals the
multiplicity of every primitive l-th root of unity e^{2 pi i m / l} with
gcd(m, l) = 1.

Two base changes are provided:

* the complex one, T = T1 T2 T3: a cycle-sorting permutation T1 (after which P
  is block diagonal with circulant blocks having ones on the subdiagonal and
  in the top-right corner), a blockwise Vandermonde T2 that diagonalizes the
  circulants, and an eigenvalue-grouping permutation T3.  The result groups
  equal eigenvalues, one diagonal group of size d_l per pair (l, m).

* the real, orthogonal one Q: per cycle, the orthonormal vectors

      w_0   = v_0 / sqrt(l),
      w_j   = (v_j + v_{-j}) / sqrt(2 l),
      w_{-j} = (v_j - v_{-j}) / (sqrt(2 l) i),

  built from the root-of-unity eigenvectors v_j, turn each circulant into
  diag(1, [-1,] R(zeta^1), R(zeta^2), ...) with 2x2 rotation-scaling blocks;
  a final grouping permutation collects +1 coordinates, then -1 coordinates,
  then the rotation pairs per eigenvalue pair.  Conjugating P by Q yields

      Id_{d_1}  (+)  -Id_{d_2}  (+)  realize(zeta_l^{l-m} Id_{d_l})  per pair,

  with pairs labeled by the representative m satisfying 1/2 < m/l < 1.

Both are held in factored form, never as n x n arrays: the cycle-sort order,
one l x l factor per distinct cycle length (the Vandermonde for the complex
base change, the orthogonal `_real_cycle_basis(l)` for the real one), and the
grouping.  Applying one to an n x k matrix is a gather of rows, one batched
l x l product per distinct length and a scatter: O(n l k) work in place of
O(n^2 k).  The dense matrix and inverse are built on request only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SizeMismatchError
from .linalg import realize
from .perms import CycleDecomposition, Permutation, cycle_decomposition

__all__ = [
    "ComplexBlock",
    "RealBlock",
    "BlockSpectrum",
    "BaseChange",
    "euler_phi",
    "eigen_multiplicities",
    "commutant_dimension",
    "complex_base_change",
    "real_base_change",
]


def euler_phi(l: int) -> int:
    return sum(1 for m in range(1, l + 1) if math.gcd(m, l) == 1)


@dataclass(frozen=True)
class ComplexBlock:
    """One eigenvalue group e^{2 pi i m / l}, gcd(m, l) = 1, of multiplicity size = d_l."""

    l: int
    m: int
    size: int


@dataclass(frozen=True)
class RealBlock:
    """One block of the real form: kind in {real_plus, real_minus, complex_pair}.

    `size` is d_l; a complex_pair block spans 2 * size rows and contributes
    2 * r to the total rank per unit of block rank r.
    """

    kind: str
    l: int
    m: int
    size: int

    @property
    def rows(self) -> int:
        return 2 * self.size if self.kind == "complex_pair" else self.size

    @property
    def rank_multiplier(self) -> int:
        return 2 if self.kind == "complex_pair" else 1


@dataclass(frozen=True)
class BlockSpectrum:
    n: int
    k: int
    cycle_lengths: tuple[int, ...]
    multiplicities: dict[int, int]
    complex_blocks: tuple[ComplexBlock, ...]
    real_blocks: tuple[RealBlock, ...]

    @staticmethod
    def from_cycle_lengths(lengths) -> "BlockSpectrum":
        lengths = tuple(int(x) for x in lengths)
        n = sum(lengths)
        ls = sorted({l for L in lengths for l in range(1, L + 1) if L % l == 0})
        d = {l: sum(1 for L in lengths if L % l == 0) for l in ls}
        cplx = []
        for l in ls:
            for m in range(1, l + 1):
                if math.gcd(m, l) == 1:
                    cplx.append(ComplexBlock(l, m, d[l]))
        real = [RealBlock("real_plus", 1, 1, d[1])]
        if 2 in d:
            real.append(RealBlock("real_minus", 2, 1, d[2]))
        for l in ls:
            if l >= 3:
                for m in range(l // 2 + 1, l):
                    if math.gcd(m, l) == 1:
                        real.append(RealBlock("complex_pair", l, m, d[l]))
        return BlockSpectrum(n, len(lengths), lengths, d, tuple(cplx), tuple(real))

    def complex_offsets(self) -> list[int]:
        offs, pos = [], 0
        for b in self.complex_blocks:
            offs.append(pos)
            pos += b.size
        return offs

    def real_offsets(self) -> list[int]:
        offs, pos = [], 0
        for b in self.real_blocks:
            offs.append(pos)
            pos += b.rows
        return offs


def eigen_multiplicities(c: CycleDecomposition) -> BlockSpectrum:
    return BlockSpectrum.from_cycle_lengths(c.lengths)


def commutant_dimension(c: CycleDecomposition) -> int:
    """dim of {M : M P = P M} = sum over l of phi(l) * d_l^2; same over R and C."""
    spec = eigen_multiplicities(c)
    return sum(euler_phi(l) * d * d for l, d in spec.multiplicities.items())


@dataclass(frozen=True)
class BaseChange:
    """An invertible base change T = T1 T2 T3, held as its three factors.

    * `order`: the cycle sort T1, as 0-based labels in cycle-sorted order
      (cycles by smallest label, each followed along sigma^{-1});
    * `factors`: T2, one l x l pair (F_l, F_l^{-1}) per distinct cycle length
      l, applied to every cycle of that length;
    * `grouping`: T3, the cycle-sorted position of each basis coordinate.

    `to_basis`, `from_basis`, `conjugate` and `unconjugate` apply T and T^{-1}
    by indexing and one batched l x l product per distinct length, without
    forming T or T^{-1}.  `matrix` @ `inverse` is the identity (for field "real"
    the matrix is orthogonal and inverse is its transpose); both are built
    densely on first access only, for oracles and tests.  `block_slices` maps
    each block of the layout (in canonical order) to its coordinate range.
    """

    field: str
    spectrum: BlockSpectrum
    block_slices: tuple[slice, ...]
    order: tuple[int, ...]
    factors: dict[int, tuple[np.ndarray, np.ndarray]]
    grouping: tuple[int, ...]

    @cached_property
    def _runs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list]:
        """The cycles regrouped by length, cycles of equal length side by side.

        Run position k holds label labels[k] and basis coordinate coords[k];
        label_pos and coord_pos invert these maps.  Each run is
        (start, stop, l, F_l, F_l^{-1}) over run positions.
        """
        n = self.spectrum.n
        lengths = np.asarray(self.spectrum.cycle_lengths)
        starts = np.cumsum(lengths) - lengths
        coord_of = np.empty(n, dtype=np.intp)
        coord_of[np.asarray(self.grouping, dtype=np.intp)] = np.arange(n)
        pos, runs, stop = [], [], 0
        for l, (f, f_inv) in sorted(self.factors.items()):
            pos.append((starts[lengths == l][:, None] + np.arange(l)).ravel())
            runs.append((stop, stop + len(pos[-1]), l, f, f_inv))
            stop += len(pos[-1])
        pos = np.concatenate(pos)
        labels = np.asarray(self.order, dtype=np.intp)[pos]
        coords = coord_of[pos]
        return labels, coords, np.argsort(labels), np.argsort(coords), runs

    def _change(self, a: np.ndarray, axis: int, into_basis: bool) -> np.ndarray:
        """T^{-1} a or T a (axis 0), a T or a T^{-1} (axis 1): gather the
        rows (columns) into runs of equal cycle length, one batched l x l
        product per run on its (cycles, l, cols) view, scatter into place."""
        a = np.asarray(a)
        n = self.spectrum.n
        if a.ndim == 1 and axis == 0:
            return self._change(a[:, None], 0, into_basis)[:, 0]
        if a.ndim != 2 or a.shape[axis] != n:
            raise SizeMismatchError(f"base change of size {n} cannot act on axis {axis} of shape {a.shape}")
        labels, coords, label_pos, coord_pos, runs = self._runs
        src, back = (labels, coord_pos) if into_basis else (coords, label_pos)
        dtype = np.result_type(a.dtype, *(f.dtype for _, _, _, f, _ in runs))
        g = np.take(a, src, axis=axis).astype(dtype, copy=False)
        h = np.empty_like(g)
        for start, stop, l, f, f_inv in runs:
            # T^{-1} a and a T^{-1} apply F^{-1}; T a and a T apply F
            if axis == 0:
                view = ((stop - start) // l, l, g.shape[1])
                np.matmul(f_inv if into_basis else f, g[start:stop].reshape(view),
                          out=h[start:stop].reshape(view))
            else:
                view = (g.shape[0], (stop - start) // l, l)
                np.matmul(g[:, start:stop].reshape(view), f if into_basis else f_inv,
                          out=h[:, start:stop].reshape(view))
        # into g, which is free now; mode="clip" never acts on a permutation
        # and, unlike the default, writes to `out` without a buffer
        return np.take(h, back, axis=axis, out=g, mode="clip")

    def to_basis(self, x: np.ndarray) -> np.ndarray:
        """inverse @ x, the coordinates of x in the new basis."""
        return self._change(x, 0, True)

    def from_basis(self, z: np.ndarray) -> np.ndarray:
        """matrix @ z."""
        return self._change(z, 0, False)

    def conjugate(self, m: np.ndarray) -> np.ndarray:
        """inverse @ m @ matrix."""
        return self._change(self._change(m, 0, True), 1, True)

    def unconjugate(self, b: np.ndarray) -> np.ndarray:
        """matrix @ b @ inverse."""
        return self._change(self._change(b, 0, False), 1, False)

    def _dense(self, k: int) -> np.ndarray:
        """T (k = 0) or T^{-1} (k = 1) as a dense array, from the block
        diagonal of the per-cycle factors in cycle-sorted order."""
        n = self.spectrum.n
        t = np.zeros((n, n), dtype=np.result_type(*(f[k].dtype for f in self.factors.values())))
        pos = 0
        for l in self.spectrum.cycle_lengths:
            t[pos:pos + l, pos:pos + l] = self.factors[l][k]
            pos += l
        unsort = np.argsort(self.order)
        grouping = list(self.grouping)
        return t[unsort][:, grouping] if k == 0 else t[grouping][:, unsort]

    @cached_property
    def matrix(self) -> np.ndarray:
        return self._dense(0)

    @cached_property
    def inverse(self) -> np.ndarray:
        return self._dense(1)

    def expected_block_form(self) -> np.ndarray:
        """The documented conjugated form of P under this base change."""
        if self.field == "complex":
            diag = np.concatenate(
                [np.full(b.size, np.exp(2j * np.pi * b.m / b.l)) for b in self.spectrum.complex_blocks]
            )
            return np.diag(diag)
        form = np.zeros((self.spectrum.n, self.spectrum.n))
        for b, sl in zip(self.spectrum.real_blocks, self.block_slices):
            if b.kind == "real_plus":
                form[sl, sl] = np.eye(b.size)
            elif b.kind == "real_minus":
                form[sl, sl] = -np.eye(b.size)
            else:
                zeta = np.exp(2j * np.pi * (b.l - b.m) / b.l)
                form[sl, sl] = realize(zeta * np.eye(b.size, dtype=complex))
        return form


def _cycle_sort_order(p: Permutation) -> list[int]:
    """0-based label order: cycles by smallest label, each followed along sigma^{-1}.

    This ordering turns every diagonal block of the sorted P into the
    circulant with ones on the subdiagonal and in the top-right corner.
    """
    inv = p.inverse()
    order = []
    for cyc in cycle_decomposition(p).cycles:
        cur = cyc[0]
        for _ in range(len(cyc)):
            order.append(cur - 1)
            cur = inv(cur)
    return order


def _reduced_label(num: int, den: int) -> tuple[int, int]:
    """Reduce e^{2 pi i num/den} to its primitive label (l, m), with (1, 1) for 1."""
    num %= den
    if num == 0:
        return (1, 1)
    g = math.gcd(num, den)
    return (den // g, num // g)


def _group(lengths, keys: dict[int, list], blocks) -> tuple[tuple[int, ...], tuple[slice, ...]]:
    """The grouping T3 and the block slices.  keys[l][j] names the block of
    position j inside every length-l cycle; for each (key, size) of `blocks`
    in canonical order, the cycle-sorted positions named key are collected."""
    positions: dict = {}
    offset = 0
    for l in lengths:
        for j, key in enumerate(keys[l]):
            positions.setdefault(key, []).append(offset + j)
        offset += l
    grouping: list[int] = []
    slices = []
    for key, size in blocks:
        cols = positions.get(key, [])
        if len(cols) != size:
            raise SizeMismatchError(f"block {key} collected {len(cols)} columns, expected {size}")
        slices.append(slice(len(grouping), len(grouping) + size))
        grouping.extend(cols)
    return tuple(grouping), tuple(slices)


def complex_base_change(p: Permutation) -> BaseChange:
    """T = T1 T2 T3 with T^{-1} P T diagonal, equal eigenvalues grouped.

    T2 holds one Vandermonde V_l = (zeta_l^{jk}) per distinct cycle length,
    with inverse conj(V_l) / l.
    """
    cd = cycle_decomposition(p)
    spec = eigen_multiplicities(cd)
    factors, keys = {}, {}
    for l in set(cd.lengths):
        zeta = np.exp(2j * np.pi / l)
        vander = zeta ** (np.outer(np.arange(l), np.arange(l)))
        factors[l] = (vander, np.conj(vander) / l)
        # position j inside a length-l cycle carries the eigenvalue zeta_l^{-j}
        keys[l] = [_reduced_label(l - j, l) for j in range(l)]
    grouping, slices = _group(cd.lengths, keys, [((b.l, b.m), b.size) for b in spec.complex_blocks])
    return BaseChange("complex", spec, slices, tuple(_cycle_sort_order(p)), factors, grouping)


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

    T2 holds one `_real_cycle_basis(l)` factor O_l per distinct cycle length,
    with inverse O_l^T.
    """
    cd = cycle_decomposition(p)
    spec = eigen_multiplicities(cd)
    real_keys = {"plus": ("real_plus", 1, 1), "minus": ("real_minus", 2, 1)}
    factors, keys = {}, {}
    for l in set(cd.lengths):
        basis, tags = _real_cycle_basis(l)
        factors[l] = (basis, basis.T)
        # a pair j in a length-l cycle carries eigenvalues zeta_l^{+-j} and is
        # labeled by the reduced (l', m') of (l - j)/l, with 1/2 < m'/l' < 1
        keys[l] = [real_keys[kind] if kind in real_keys else ("complex_pair", *_reduced_label(l - j, l))
                   for kind, j in tags]
    grouping, slices = _group(cd.lengths, keys, [((b.kind, b.l, b.m), b.rows) for b in spec.real_blocks])
    return BaseChange("real", spec, slices, tuple(_cycle_sort_order(p)), factors, grouping)
