"""Rank-bounded equivariant maps: commutant orbits, the irreducible-component
census over R and C, per-component dimension/degree, membership classification,
and weight-shared encoder/decoder parameterizations.

A square matrix M is equivariant under sigma iff M commutes with P_sigma.
After the real base change Q, the commutant becomes block diagonal: one free
d_1 x d_1 block (eigenvalue +1), one free d_2 x d_2 block (eigenvalue -1),
and one realization-patterned 2 d_l x 2 d_l block per eigenvalue pair (l, m)
with 1/2 < m/l < 1.  Bounding the total rank by r splits the variety into
irreducible components, one per admissible rank vector

    r_{1,1} + r_{2,1} + sum over pairs of 2 r_{l,m} = r,   0 <= r_{l,m} <= d_l

(over C the equation is the plain sum over all phi(l) eigenvalue groups).

A `RankVector` carries the blocks of the spectrum it was made on, so its
total rank, dimension, degree and parameter count are each one sum over its
(block, rank) pairs, read from the block's size d_l and `rank_multiplier`,
with no spectrum passed beside it.  A rank vector of another spectrum is
rejected wherever a permutation's component is read, and so is a base change
of another permutation, even of the same spectrum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    ComponentError,
    EquivarianceError,
    SearchLimitError,
    SizeMismatchError,
    StructuralError,
)
from . import linalg
from .linalg import (chunks, rank_threshold, realize, require_finite, require_real, svd, svdvals,
                     within_structure)
from .perms import CycleDecomposition, Permutation, cycle_decomposition, induced_partition, join_labels
from .spectral import BaseChange, Block, BlockSpectrum, cycle_runs, eigen_multiplicities, real_base_change

__all__ = [
    "RankVector",
    "ComponentDescriptor",
    "WeightSharingReport",
    "make_rank_vector",
    "Parameterization",
    "pair_orbit_labels",
    "orbit_average",
    "equivariant_project",
    "is_equivariant",
    "count_components",
    "enumerate_components",
    "describe_component",
    "component_dimension",
    "component_degree_complex",
    "determinantal_degree",
    "classify_component",
    "diagonal_blocks",
    "parameterize_component",
    "factor_component",
    "free_parameter_count",
]

# ---------------------------------------------------------------------------
# rank vectors and component descriptors


@dataclass(frozen=True)
class RankVector:
    """Per-block rank allocation labeling one irreducible component.

    `values` holds one rank per block of `blocks`, the field's canonical
    block list of the spectrum it was made on (`make_rank_vector`).  The
    blocks travel with the values, so no reader needs the spectrum, and a
    rank vector of another spectrum compares unequal and is rejected where
    a permutation's component is read.
    """

    field: str
    blocks: tuple[Block, ...] = field(repr=False)
    values: tuple[int, ...]

    @property
    def entries(self) -> tuple[tuple[int, int, int], ...]:
        """(l, m, r_{l,m}) per block."""
        return tuple((b.l, b.m, r) for b, r in zip(self.blocks, self.values))

    @property
    def total_rank(self) -> int:
        return sum(b.rank_multiplier * r for b, r in zip(self.blocks, self.values))


def make_rank_vector(spec: BlockSpectrum, field: str, values: Sequence[int]) -> RankVector:
    """Validate values against the spectrum's canonical block order:
    ComponentError unless each is an integer (numpy integers included,
    booleans not) in 0..d_l of its block."""
    blocks = spec.blocks(field)
    if len(values) != len(blocks):
        raise ComponentError(f"expected {len(blocks)} block ranks, got {len(values)}")
    checked = []
    for v, b in zip(values, blocks):
        try:
            t = operator.index(v)  # checked, not coerced: 1.9 and "1" raise TypeError
        except TypeError:
            t = None
        if t is None or isinstance(v, bool):
            raise ComponentError(f"rank {v!r} for block ({b.l},{b.m}) is not an integer")
        if not 0 <= t <= b.size:
            raise ComponentError(f"rank {t} for block ({b.l},{b.m}) outside 0..{b.size}")
        checked.append(t)
    return RankVector(field, blocks, tuple(checked))


@dataclass(frozen=True)
class ComponentDescriptor:
    rank_vector: RankVector
    dimension: int
    degree: Optional[int]  # complex field only; no proven formula over R
    block_shapes: tuple[tuple[str, int, int], ...]  # (variety kind, d_l, rank)


def determinantal_degree(m: int, n: int, r: int) -> int:
    """Degree of the rank <= r locus in m x n matrices, in exact integers."""
    deg = 1
    for i in range(n - r):
        deg = deg * math.factorial(m + i) * math.factorial(i)
        deg //= math.factorial(r + i) * math.factorial(m - r + i)
    return deg


def component_dimension(rvec: RankVector) -> int:
    return sum(b.rank_multiplier * (2 * b.size - r) * r for b, r in zip(rvec.blocks, rvec.values))


def component_degree_complex(rvec: RankVector) -> int:
    if rvec.field != "complex":
        raise ComponentError("degree formula is proven for complex components only")
    return math.prod(determinantal_degree(b.size, b.size, r) for b, r in zip(rvec.blocks, rvec.values))


def describe_component(rvec: RankVector) -> ComponentDescriptor:
    shapes = tuple(("realization" if b.kind == "complex_pair" else "determinantal", b.size, r)
                   for b, r in zip(rvec.blocks, rvec.values))
    degree = component_degree_complex(rvec) if rvec.field == "complex" else None
    return ComponentDescriptor(rvec, component_dimension(rvec), degree, shapes)


# ---------------------------------------------------------------------------
# counting and enumeration


def count_components(spec: BlockSpectrum, r: int, field: str) -> int:
    """Number of admissible rank vectors, exact, by bounded-composition DP."""
    blocks = spec.blocks(field)
    if not 0 <= r <= spec.n:  # the total rank never exceeds n
        return 0
    ways = [0] * (r + 1)
    ways[0] = 1
    for b in blocks:
        mult = b.rank_multiplier
        new = [0] * (r + 1)
        for j, w in enumerate(ways):
            if w:
                for t in range(min(b.size, (r - j) // mult) + 1):
                    new[j + t * mult] += w
        ways = new
    return ways[r]


def enumerate_components(
    spec: BlockSpectrum, r: int, field: str, limit: Optional[int] = 10**6
) -> Iterator[ComponentDescriptor]:
    """Stream descriptors in descending lexicographic order of the rank vector.

    Raises SearchLimitError (reporting the exact count) when the census
    exceeds `limit`; pass limit=None to stream regardless.  Branches that
    cannot reach total rank r are cut by the most rank the remaining blocks
    can hold.
    """
    if limit is not None:
        total = count_components(spec, r, field)
        if total > limit:
            raise SearchLimitError(f"{total} components exceed the limit {limit}; raise it or pick a component")
    blocks = spec.blocks(field)
    suffix_max = [0] * (len(blocks) + 1)
    for i in range(len(blocks) - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + blocks[i].rows

    def rec(i: int, remaining: int):
        if i == len(blocks):
            if remaining == 0:
                yield ()
            return
        mult = blocks[i].rank_multiplier
        for t in range(min(blocks[i].size, remaining // mult), -1, -1):
            rest = remaining - t * mult
            if rest <= suffix_max[i + 1]:
                for tail in rec(i + 1, rest):
                    yield (t,) + tail

    for values in rec(0, r):
        yield describe_component(RankVector(field, blocks, values))


# ---------------------------------------------------------------------------
# the commutant as a linear space


def _cycle_pair_labels(g: Permutation) -> tuple[np.ndarray, int]:
    """pair_orbit_labels of one permutation by the gcd rule, numbered
    densely through an offset table over ordered cycle pairs."""
    cd = cycle_decomposition(g)
    cyc = induced_partition(cd).labels  # cycles and blocks share the order by smallest label
    lengths = np.array(cd.lengths)
    members = np.concatenate(cd.cycles) - 1
    pos = np.empty(g.n, dtype=np.intp)
    pos[members] = np.arange(g.n) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    gcd = np.gcd.outer(lengths, lengths)
    offset = np.cumsum(gcd).reshape(gcd.shape) - gcd
    ci, cj = np.ix_(cyc, cyc)
    labels = pos[None, :] - pos[:, None]
    labels %= gcd[ci, cj]
    labels += offset[ci, cj]
    return labels, int(gcd.sum())


def pair_orbit_labels(gens: Sequence[Permutation]) -> tuple[np.ndarray, int]:
    """Orbit labels of the diagonal action (i, j) -> (g(i), g(j)) on index pairs.

    M commutes with every generator matrix iff M is constant on these orbits,
    so the orbit count is the commutant dimension and the indicator matrices
    form an exact 0/1 basis.  Returns (labels shaped n x n, orbit count).

    One generator g (the gcd rule): with i at position a of cycle C and j at
    position b of cycle C', one step adds 1 to both positions, so
    (b - a) mod gcd(|C|, |C'|) is invariant, and the lcm(|C|, |C'|) pairs of
    each residue form one orbit.  The pairs of C x C' thus split into
    gcd(|C|, |C'|) orbits, and the count is the sum of gcds over ordered
    cycle pairs.

    Several generators join their labels by `perms.join_labels`, numbering
    the orbits by their least label under the generator with the fewest.
    The labels are the projection route of several generators
    (`orbit_average`).  One generator's projection and block ranks read
    orbit sums instead, sum of gcd entries in place of n^2 labels
    (`_orbit_sums`), and check against these labels.
    """
    return join_labels([_cycle_pair_labels(g) for g in gens])


def orbit_average(m: np.ndarray, gens: Sequence[Permutation]) -> np.ndarray:
    """The projection onto the commutant of all of `gens` by averaging M over
    the n x n labels of `pair_orbit_labels`: the route of several generators,
    and the reference for the orbit sums of one."""
    m = require_real(m, "matrix", (gens[0].n,) * 2 if gens else None)  # before the n x n labels
    labels, count = pair_orbit_labels(gens)
    sums = np.bincount(labels.ravel(), weights=m.ravel(), minlength=count)
    sizes = np.bincount(labels.ravel(), minlength=count)
    return (sums / sizes)[labels]


def equivariant_project(m: np.ndarray, gens: Sequence[Permutation]) -> np.ndarray:
    """Frobenius-orthogonal projection onto the commutant: average over orbits.

    Several generators take `orbit_average`, over the n x n labels of
    `pair_orbit_labels`.  One generator takes no labels: its pair orbits are
    the wrapped diagonals of each cycle pair (C, C'), so each batch of the
    cycle-order pass (`_cycle_order`) is overwritten through the skew view
    by its orbit sums S (`_diagonal_sums`) over the orbit sizes
    lcm(|C|, |C'|), and written back by a column take and a row scatter."""
    if len(gens) != 1:
        return orbit_average(m, gens)
    m = require_real(m, "matrix", (gens[0].n,) * 2)
    runs = cycle_runs(cycle_decomposition(gens[0]))
    back = np.argsort(np.concatenate([labels.T.ravel() for _, labels in runs]))  # the pass's columns
    out = np.empty(m.shape)
    for r, cyc, x, views, work in _cycle_order(m, runs):
        for v in views:
            s = _diagonal_sums(v, work, anti=False)[0]
            (c, l, lc, cc), g = v.shape, s.shape[1]
            s /= l * lc // g
            doubled = np.broadcast_to(np.concatenate((s, s), axis=1)[:, None], (c, g, 2 * g, cc))
            # v[c, a, b, c'] = s[c, (b - a) mod g, c']
            v.reshape(c, l // g, g, lc // g, g, cc)[...] = _skew(doubled, -1)[:, None, :, None]
        ids, x = runs[r][1][cyc].ravel(), x.reshape(-1, m.shape[1])
        for i in chunks(len(x), m.shape[1]):
            part = x[i]
            out[ids[i]] = np.take(part, back, axis=1, out=work[:part.size].reshape(part.shape), mode="clip")
    return out


def _cycle_order(m: np.ndarray, runs: list) -> Iterator[tuple]:
    """M a batch of whole row cycles at a time (`linalg.chunks`), in the
    order of `runs` (`spectral.cycle_runs`): (r, cyc, x, views, work),
    x[c, a] the row at position a of cycle c of run r's cycles cyc, and
    views[r'][c, a, b, c'] x at position b of cycle c' of run r'.  sigma
    maps position a + 1 onto a, so here it is a roll by one along a and
    along b.  Each batch reuses x and `work`, which every step on x fills by
    chunks: no unit of a step exceeds 2 n, or 2 SCRATCH in a batch of
    several cycles, so work holds 2 max(SCRATCH, n) entries."""
    order = np.concatenate([labels.T.ravel() for _, labels in runs])
    n = order.size
    starts = np.cumsum([0] + [labels.size for _, labels in runs])
    x = np.empty((max(next(chunks(len(rows), l * n)).stop * l for l, rows in runs), n))  # the largest batch
    work = np.empty(2 * max(linalg.SCRATCH, n))
    for r, (l, rows) in enumerate(runs):
        for cyc in chunks(len(rows), l * n):
            ids = rows[cyc].ravel()
            for i in chunks(ids.size, n):
                # mode="clip" checks no index (these never clip) and fills `out` unbuffered
                part = np.take(m, ids[i], axis=0, out=work[:(i.stop - i.start) * n].reshape(-1, n), mode="clip")
                np.take(part, order, axis=1, out=x[i], mode="clip")
            got = x[:ids.size].reshape(-1, l, n)
            yield r, cyc, got, [got[..., a:b].reshape(-1, l, *labels.T.shape)
                                for (_, labels), a, b in zip(runs, starts, starts[1:])], work


def _skew(d: np.ndarray, sign: int, a0: int = 0) -> np.ndarray:
    """The strided view w[c, alpha, delta, c'] = d[c, alpha, (delta + sign (a0 + alpha)) mod g, c']
    of a table d doubled along axis 2, of length 2 g, for sign +-1 and a0 + alpha < g."""
    g = d.shape[2] // 2
    s0, s1, s2, s3 = d.strides
    return np.lib.stride_tricks.as_strided(d[:, :, a0 if sign > 0 else g - a0:], (*d.shape[:2], g, d.shape[3]),
                                           (s0, s1 + sign * s2, s2, s3), writeable=False)


def _diagonal_sums(v: np.ndarray, work: np.ndarray, anti: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(S, A) of a view v of `_cycle_order`, cycles of lengths l and l' with
    g = gcd(l, l'), by folding a and b mod g, then skew sums over chunks of
    alpha = a mod g doubled along b, in `work` (`_skew`):

        S[c, delta, c'] = sum of v[c, a, b, c'] over b - a = delta (mod g)
        A[c, s, c']     = the same sum over a + b = s (mod g)

    For g <= 2, a + b = b - a (mod g), and A is S; without `anti` as well."""
    c, l, lc, cc = v.shape
    g = math.gcd(l, lc)
    f = v.reshape(c, l // g, g, lc // g, g, cc)
    f = f.sum(axis=(1, 3)) if f.shape[1] * f.shape[3] > 1 else f[:, 0, :, 0]  # no fold, no copy
    s, a = np.zeros((2, c, g, cc))
    for al in chunks(g, 2 * c * g * cc):  # alphas
        d = work[:2 * f[:, al].size].reshape(c, -1, 2 * g, cc)
        d[:, :, :g] = d[:, :, g:] = f[:, al]
        s += _skew(d, 1, al.start).sum(axis=1)
        if anti and g > 2:
            a += _skew(d, -1, al.start).sum(axis=1)
    return s, a if anti and g > 2 else s


def _commutator(v: np.ndarray, work: np.ndarray) -> float:
    """||P M P^T - M||_F^2 over a view v of `_cycle_order`: sigma steps each
    position back by one, so each entry is v[c, a + 1, b + 1, c'] - v[c, a, b, c'],
    indices wrapped, by chunks of a: v at a + 1, in `work`, less v at a rolled along b."""
    c, l, lc, cc = v.shape
    total = 0.0
    for a in chunks(l, v[:, 0].size):
        y = work[:c * (a.stop - a.start) * lc * cc].reshape(c, -1, lc, cc)
        np.take(v, np.arange(a.start + 1, a.stop + 1) % l, axis=1, out=y, mode="clip")
        y[:, :, 1:] -= v[:, a, :-1]
        y[:, :, 0] -= v[:, a, -1]
        total += float(np.vdot(y, y))
    return total


def _orbit_sums(m: np.ndarray, cd: CycleDecomposition, sums: bool, k: int = 0) -> tuple[float, float, list]:
    """One cycle-order pass over M (`_cycle_order`), each batch scaled by
    2^k: of the scaled M, ||P M P^T - M||_F^2, ||M||_F^2 and, with `sums`,
    the tables (l, i, l', j, S, A) of each ordered pair of runs of
    `cycle_runs(cd)`, i and j the indices among all cycles of the runs'
    cycles, S and A their `_diagonal_sums`.  These sum
    M over the pair orbits (the gcd rule of `pair_orbit_labels`): the sum of
    gcd(l_c, l_c') over cycle pairs, the commutant dimension, not n^2."""
    runs = cycle_runs(cd)
    index = [np.flatnonzero(np.asarray(cd.lengths) == l) for l, _ in runs]
    tables = []
    for (l, _), i in (zip(runs, index) if sums else ()):
        for (lc, _), j in zip(runs, index):
            s = np.empty((len(i), math.gcd(l, lc), len(j)))
            tables.append((l, i, lc, j, s, s if s.shape[1] <= 2 else np.empty_like(s)))
    dev = norm = 0.0
    for r, cyc, x, views, work in _cycle_order(m, runs):
        if k:
            np.ldexp(x, k, out=x)
        norm += float(np.vdot(x, x))
        for rc, v in enumerate(views):
            dev += _commutator(v, work)
            if sums:
                s, a = tables[r * len(runs) + rc][4:]
                s[cyc], a[cyc] = _diagonal_sums(v, work)
    return dev, norm, tables


def diagonal_blocks(m: np.ndarray, p: Permutation) -> list[np.ndarray]:
    """The diagonal blocks of Q^T M Q for any real n x n M, one per real
    block of p in canonical order, read from the orbit sums of M: equal to
    (Q^T M Q)[sl, sl] over `bc.block_slices`, up to rounding, without
    conjugating (`oracles.dense_base_change` is the reference).
    `classify_component` reads its ranks from these."""
    m = require_real(m, "matrix", (p.n, p.n))
    cd = cycle_decomposition(p)
    return _orbit_blocks(_orbit_sums(m, cd, sums=True)[2], eigen_multiplicities(cd))


def _orbit_blocks(tables: list, spec: BlockSpectrum) -> list[np.ndarray]:
    """`diagonal_blocks` from the tables of `_orbit_sums`, by one real DFT
    along delta and s per run pair.

    A block meets a cycle pair (C, C') at positions a, b through
    cos 2 pi f a (and sin) scaled by sqrt(2 / |C|), where f = (l - m) / l,
    and k = f gcd(|C|, |C'|) is an integer, `Block.frequency` of that gcd,
    so with

        cos x cos y = [cos(y - x) + cos(x + y)] / 2,
        cos x sin y = [sin(y - x) + sin(x + y)] / 2,
        sin x cos y = [sin(x + y) - sin(y - x)] / 2,
        sin x sin y = [cos(y - x) - cos(x + y)] / 2

    the pair's 2 x 2 entry is [[Re plus, -Im plus], [Im minus, Re minus]]
    / sqrt(|C||C'|), with plus = S^(k) + A^(k), minus = S^(k) - A^(k), and
    ^ numpy's rfft along delta.  The +1 (k = 0) and -1 (k = g / 2) blocks have one
    coordinate per cycle, scaled by 1 / sqrt(|C|), and read Re S^(k) alone.
    """
    blocks = spec.real_blocks
    lengths = np.asarray(spec.cycle_lengths)
    members = [np.flatnonzero(lengths % b.l == 0) for b in blocks]
    out = [np.zeros((b.size, b.rank_multiplier) * 2) for b in blocks]
    for l, i, lc, j, s, a in tables:
        g, scale = s.shape[1], 1.0 / math.sqrt(l * lc)
        if g == 1:  # one frequency, S itself: scaled in place, with no complex copy
            s *= scale
            fs = fa = s
        else:
            fs = np.fft.rfft(s, axis=1) * scale
            fa = fs if a is s else np.fft.rfft(a, axis=1) * scale
        for blk, member, b4 in zip(blocks, members, out):
            if g % blk.l:  # the block meets the cycles whose length blk.l divides
                continue
            k = blk.frequency(g)
            if blk.kind == "complex_pair":
                plus, minus = fs[:, k] + fa[:, k], fs[:, k] - fa[:, k]
                entry = np.stack((plus.real, -plus.imag, minus.imag, minus.real), axis=-1)
            else:
                entry = fs[:, k].real
            # b4[c, x, c', y]; indices apart put (c, c') first
            b4[np.searchsorted(member, i)[:, None], :, np.searchsorted(member, j)] = \
                entry.reshape(len(i), len(j), *b4.shape[1::2])
    return [b4.reshape(b.rows, b.rows) for b, b4 in zip(blocks, out)]


def is_equivariant(m: np.ndarray, p: Permutation) -> bool:
    """The membership test of the library: M, read by `require_real`, is
    equivariant under sigma iff ||P_sigma M P_sigma^T - M||_F = ||P_sigma M - M P_sigma||_F
    <= STRUCTURE_TOL * ||M||_F (`linalg.within_structure`), both norms read
    in one cycle-order pass over M (`_orbit_sums`).  `classify_component`
    and `factor_component` apply the same test."""
    m = require_real(m, "matrix", (p.n, p.n))
    cd = cycle_decomposition(p)
    return within_structure(m, lambda k: _orbit_sums(m, cd, False, k))[0]


# ---------------------------------------------------------------------------
# classification and parameterization

_NOT_EQUIVARIANT = "P M P^T differs from M beyond STRUCTURE_TOL; input is not equivariant"


def classify_component(m: np.ndarray, p: Permutation, base_change: Optional[BaseChange] = None) -> RankVector:
    """Read per-block ranks of an equivariant matrix in the Q basis.

    In this order: the errors of `require_real`; EquivarianceError exactly
    when `is_equivariant` is False; SizeMismatchError for a base change of
    another permutation; StructuralError for an odd complex-pair rank.
    Without `base_change` only the spectrum is built, never a base change.

    Each rank is read from a diagonal block of Q^T M Q and divided by its
    block's rank multiplier, so complex-pair ranks are halved.  A
    realization has even rank, so an odd rank there certifies that the
    matrix lies outside every real component.

    The blocks are not conjugated (Q^T M Q by the dense Q of
    `oracles.dense_base_change` is their reference): they are read by a
    real DFT from the orbit sums of M, the wrapped-diagonal and
    anti-diagonal sums of each cycle pair (`diagonal_blocks`).  The
    commutator and the sums come from one cycle-order pass (`_orbit_sums`),
    which gathers M once, a batch of whole row cycles at a time, and builds
    no n x n array.
    """
    m = require_real(m, "matrix", (p.n, p.n))
    cd = cycle_decomposition(p)
    commutes, _, (tables,) = within_structure(m, lambda k: _orbit_sums(m, cd, True, k))
    if not commutes:
        raise EquivarianceError(_NOT_EQUIVARIANT)
    if base_change is not None and base_change.permutation != p:
        raise SizeMismatchError("base change is not the real base change of this permutation")
    return _ranked_blocks(p, cd, tables)[0]


def _ranked_blocks(p: Permutation, cd: CycleDecomposition, tables: list) -> tuple[RankVector, list[np.ndarray]]:
    """The rank vector of `classify_component` from the orbit-sum tables of
    one pass of `_orbit_sums` over an equivariant M, with the diagonal
    blocks that it was read from."""
    spec = eigen_multiplicities(cd)
    blocks = _orbit_blocks(tables, spec)
    svals = [svdvals(b) for b in blocks]
    # rank decisions share the numerical-rank threshold of the whole matrix,
    # so that numerically-zero blocks read as rank 0.  Q is orthogonal, so
    # ||M||_2 is the largest block singular value up to the off-block mass,
    # which the commutator bound keeps small.
    threshold = rank_threshold(max(s[0] for s in svals), (p.n, p.n))
    values = []
    for blk, s in zip(spec.real_blocks, svals):
        rank = int(np.sum(s > threshold))
        if rank % blk.rank_multiplier:
            raise StructuralError(f"block ({blk.l},{blk.m}) has odd rank {rank}; not in any real component")
        values.append(rank // blk.rank_multiplier)
    return make_rank_vector(spec, "real", values), blocks


def factor_component(m: np.ndarray, p: Permutation) -> Parameterization:
    """The factors of an equivariant M itself: a `Parameterization` of the
    component that `classify_component` reads, whose decoder @ encoder is M
    up to rounding.  The errors of `classify_component`, in its order, from
    the same one pass over M.

    Each block of rank t takes its thin SVD U s V^H and splits sqrt(s)
    between the factors at rank t: A = U_t sqrt(s_t), B = sqrt(s_t) V_t^H.
    A complex pair's block is the realization of Z = B[0::2, 0::2] +
    i B[1::2, 0::2], whose SVD is taken instead.  The blocks are read from
    2^k M (`linalg.within_structure`), and scaled back by 2^-k first."""
    m = require_real(m, "matrix", (p.n, p.n))
    cd = cycle_decomposition(p)
    commutes, k, (tables,) = within_structure(m, lambda k: _orbit_sums(m, cd, True, k))
    if not commutes:
        raise EquivarianceError(_NOT_EQUIVARIANT)
    rvec, blocks = _ranked_blocks(p, cd, tables)
    factors = []
    for blk, b, t in zip(rvec.blocks, blocks, rvec.values):
        b = np.ldexp(b, -k)
        if blk.kind == "complex_pair":
            b = b[0::2, 0::2] + 1j * b[1::2, 0::2]
        u, s, vh = svd(b)
        root = np.sqrt(s[:t])
        factors.append((u[:, :t] * root, root[:, None] * vh[:t]))
    return parameterize_component(rvec, p, factors=factors)


@dataclass(frozen=True)
class WeightSharingReport:
    """Tied-weight groups of the block-form factors (0-based matrix indices).

    Each group is one free parameter: a tuple of (row, col, sign) whose
    entries all carry the same value up to the sign.  Realization blocks tie
    diagonal entries equally and antidiagonal entries with opposite signs.
    `inactive_inputs` / `inactive_outputs` list coordinates (in the Q basis)
    belonging to blocks of rank zero.
    """

    decoder_groups: tuple[tuple[tuple[int, int, int], ...], ...]
    encoder_groups: tuple[tuple[tuple[int, int, int], ...], ...]
    inactive_inputs: tuple[int, ...]
    inactive_outputs: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Parameterization:
    """decoder @ encoder is the equivariant matrix; the tilde factors are the
    same maps written in the Q basis, where the block sparsity lives.  It
    holds the per-block factors, `block_factors`: (rows, A, B) per block of
    positive rank, realized on a complex pair.  The tilde decoder D holds A
    at those rows and at the block's columns, which follow the previous
    block's, and the tilde encoder E holds B at the same columns, transposed.

    Everything else is formed on first read and cached: decoder = Q D and
    encoder = (Q E^T)^T together, on the first read of either, a chunk of
    columns of D and E^T at a time (`linalg.chunks`), split inside a block
    wherever a chunk ends, written into the outputs, so the placement peaks
    at its outputs plus one chunk; D, E and their tied weights, `pattern`,
    each on its own.  It compares and hashes by identity:
    its fields hold arrays."""

    rank_vector: RankVector
    base_change: BaseChange = field(repr=False)
    block_factors: tuple[tuple[slice, np.ndarray, np.ndarray], ...] = field(repr=False)

    @property
    def decoder(self) -> np.ndarray:
        return self._placed[0]

    @property
    def encoder(self) -> np.ndarray:
        return self._placed[1]

    @cached_property
    def _placed(self) -> tuple[np.ndarray, np.ndarray]:
        bc, blocks = self.base_change, self.block_factors
        n, r = bc.spectrum.n, self.rank_vector.total_rank
        decoder, encoder = np.empty((n, r)), np.empty((r, n))
        for cols in chunks(r, n):
            decoder[:, cols] = bc.from_basis(_tilde(blocks, n, cols, encoder=False))
            encoder[cols] = bc.from_basis(_tilde(blocks, n, cols, encoder=True)).T
        return decoder, encoder

    @cached_property
    def tilde_decoder(self) -> np.ndarray:
        return _tilde(self.block_factors, self.base_change.spectrum.n, slice(0, self.rank_vector.total_rank),
                      encoder=False)

    @cached_property
    def tilde_encoder(self) -> np.ndarray:
        return _tilde(self.block_factors, self.base_change.spectrum.n, slice(0, self.rank_vector.total_rank),
                      encoder=True).T

    @cached_property
    def pattern(self) -> WeightSharingReport:
        return _weight_sharing(self.rank_vector, self.base_change)


def _tilde(blocks, n: int, cols: slice, encoder: bool) -> np.ndarray:
    """Columns `cols` of the n x r tilde decoder, or with `encoder` of the
    tilde encoder transposed, of `Parameterization.block_factors`: each
    block's A, or B^T, at its rows and the next columns, zero elsewhere."""
    out = np.zeros((n, cols.stop - cols.start))
    col = 0
    for rows, a, b in blocks:
        lo, hi = max(col, cols.start), min(col + a.shape[1], cols.stop)
        if lo < hi:
            out[rows, lo - cols.start:hi - cols.start] = (b.T if encoder else a)[:, lo - col:hi - col]
        col += a.shape[1]
    return out


def parameterize_component(
    rvec: RankVector,
    p: Permutation,
    factors: Optional[Sequence[tuple[np.ndarray, np.ndarray]]] = None,
    rng: Optional[np.random.Generator] = None,
    base_change: Optional[BaseChange] = None,
) -> Parameterization:
    """The decoder (n x r) and encoder (r x n) hitting the component rvec.

    Per block, the factors are free d x r_b / r_b x d matrices (complex for
    pair blocks, then realized), placed block-diagonally in the Q basis and
    conjugated back.  `factors` gives one pair per block, else `rng` draws
    them unit-normal: SizeMismatchError for a wrong count or shape,
    NonFiniteError for NaN or inf, StructuralError for complex on a +-1 block,
    ComponentError for a component of another permutation, all raised here;
    before them, SizeMismatchError for a `base_change` of another permutation.

    The call checks and realizes the per-block factors and places nothing:
    the `Parameterization` forms decoder = Q D and encoder = (Q E^T)^T on
    their first read, so a caller that needs only the blocks never holds an
    n x r array.
    """
    if base_change is not None and base_change.permutation != p:
        raise SizeMismatchError("base change is not the real base change of this permutation")
    bc = real_base_change(p) if base_change is None else base_change
    spec = bc.spectrum
    if rvec.blocks != spec.real_blocks:
        raise ComponentError(f"{rvec} is not a real component of this permutation")
    if factors is not None and len(factors) != len(rvec.blocks):
        raise SizeMismatchError(f"expected {len(rvec.blocks)} factor pairs, one per block, got {len(factors)}")
    if rng is None and factors is None:  # numpy.random costs 5 MB of RSS to load
        rng = np.random.default_rng(0)
    blocks = []
    for idx, (blk, sl, rb) in enumerate(zip(rvec.blocks, bc.block_slices, rvec.values)):
        if rb == 0:
            continue
        A, B = _block_factors(factors, idx, blk, rb, rng)
        blocks.append((sl, *((realize(A), realize(B)) if blk.kind == "complex_pair" else (A, B))))
    return Parameterization(rvec, bc, tuple(blocks))


def _weight_sharing(rvec: RankVector, bc: BaseChange) -> WeightSharingReport:
    """The tied weights of the tilde factors of component rvec."""
    dec_groups: list[tuple] = []
    enc_groups: list[tuple] = []
    inactive: list[int] = []
    col = 0
    for blk, sl, rb in zip(rvec.blocks, bc.block_slices, rvec.values):
        if rb == 0:
            inactive.extend(range(sl.start, sl.stop))
            continue
        pair = blk.kind == "complex_pair"
        dec_groups += _tied(sl.start, col, blk.size, rb, pair)
        enc_groups += _tied(col, sl.start, rb, blk.size, pair)
        col += blk.rank_multiplier * rb
    return WeightSharingReport(
        tuple(dec_groups), tuple(enc_groups), tuple(inactive), tuple(inactive)
    )


def _tied(r0: int, c0: int, rows: int, cols: int, pair: bool) -> list[tuple]:
    """The groups of one free rows x cols block placed at (r0, c0): one entry
    each, or with `pair` a realization 2 x 2 per entry, whose diagonal is tied
    equally and antidiagonal with opposite signs."""
    if not pair:
        return [((r0 + i, c0 + j, 1),) for i in range(rows) for j in range(cols)]
    return [group for i in range(rows) for j in range(cols) for group in (
        ((r0 + 2 * i, c0 + 2 * j, 1), (r0 + 2 * i + 1, c0 + 2 * j + 1, 1)),
        ((r0 + 2 * i + 1, c0 + 2 * j, 1), (r0 + 2 * i, c0 + 2 * j + 1, -1)))]


def _block_factors(factors, idx: int, blk: Block, rb: int, rng):
    d = blk.size
    if factors is not None:
        A, B = (require_finite(f, f"block ({blk.l},{blk.m}) factor") for f in factors[idx])
        if A.shape != (d, rb) or B.shape != (rb, d):
            raise SizeMismatchError(
                f"block ({blk.l},{blk.m}) factors must be {d}x{rb} and {rb}x{d}, got {A.shape}, {B.shape}"
            )
        if blk.kind != "complex_pair" and (np.iscomplexobj(A) or np.iscomplexobj(B)):
            raise StructuralError(f"block ({blk.l},{blk.m}) is real; its factors cannot be complex")
        return A, B
    if blk.kind == "complex_pair":
        A = rng.standard_normal((d, rb)) + 1j * rng.standard_normal((d, rb))
        B = rng.standard_normal((rb, d)) + 1j * rng.standard_normal((rb, d))
        return A, B
    return rng.standard_normal((d, rb)), rng.standard_normal((rb, d))


def free_parameter_count(rvec: RankVector) -> int:
    """Free parameters of the encoder+decoder pair for a real component.

    Real blocks contribute 2 d r (two d x r factors), pair blocks 4 d r
    (two complex d x r factors, two reals per entry).
    """
    if rvec.field != "real":
        raise ComponentError("a real-admissible rank vector is required")
    return sum(2 * b.rows * r for b, r in zip(rvec.blocks, rvec.values))
