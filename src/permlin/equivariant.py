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
from .linalg import STRUCTURE_TOL, rank_threshold, realize, require_finite, require_real, svdvals
from .perms import Permutation, cycle_decomposition, induced_partition, join_labels
from .spectral import BaseChange, Block, BlockSpectrum, real_base_change

__all__ = [
    "RankVector",
    "ComponentDescriptor",
    "WeightSharingReport",
    "Parameterization",
    "pair_orbit_labels",
    "equivariant_project",
    "is_equivariant",
    "count_components",
    "enumerate_components",
    "describe_component",
    "component_dimension",
    "component_degree_complex",
    "determinantal_degree",
    "classify_component",
    "parameterize_component",
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
    """
    return join_labels([_cycle_pair_labels(g) for g in gens])


def equivariant_project(m: np.ndarray, gens: Sequence[Permutation]) -> np.ndarray:
    """Frobenius-orthogonal projection onto the commutant: average over orbits."""
    m = require_real(m, "matrix", (gens[0].n,) * 2 if gens else None)  # before the n x n labels
    labels, count = pair_orbit_labels(gens)
    sums = np.bincount(labels.ravel(), weights=m.ravel(), minlength=count)
    sizes = np.bincount(labels.ravel(), minlength=count)
    return (sums / sizes)[labels]


def is_equivariant(m: np.ndarray, p: Permutation) -> bool:
    """The membership test of the library: M, read by `require_real`, is
    equivariant under sigma iff ||P_sigma M P_sigma^T - M||_F
    = ||P_sigma M - M P_sigma||_F <= STRUCTURE_TOL * ||M||_F.
    `classify_component` applies the same test."""
    return _commutes(require_real(m, "matrix", (p.n, p.n)), p)


def _commutes(m: np.ndarray, p: Permutation) -> bool:
    """The commutator bound of `is_equivariant` on a matrix already read."""
    img = np.asarray(p.image) - 1
    # row i of P_sigma is the unit vector e_{sigma(i)}, so P_sigma M P_sigma^T
    # is M gathered at (sigma(i), sigma(j)): one n x n copy
    dev = m[np.ix_(img, img)]
    dev -= m
    return np.linalg.norm(dev) <= STRUCTURE_TOL * np.linalg.norm(m)


# ---------------------------------------------------------------------------
# classification and parameterization


def _real_base_change(p: Permutation, bc: Optional[BaseChange]) -> BaseChange:
    """`bc`, or the real base change of p when None; SizeMismatchError for any other."""
    if bc is not None and (bc.field != "real" or bc.permutation != p):
        raise SizeMismatchError("base change is not the real base change of this permutation")
    return bc if bc is not None else real_base_change(p)


def classify_component(
    m: np.ndarray, p: Permutation, base_change: Optional[BaseChange] = None
) -> RankVector:
    """Read per-block ranks of an equivariant matrix in the Q basis.

    In this order: the errors of `require_real`; EquivarianceError exactly
    when `is_equivariant` is False, before the base change allocates
    anything n x n; SizeMismatchError for a base change of another
    permutation; StructuralError for an odd complex-pair rank.

    Each rank is read from a diagonal block of Q^T M Q and divided by its
    block's rank multiplier, so complex-pair ranks are halved.  A
    realization has even rank, so an odd rank there certifies that the
    matrix lies outside every real component.
    """
    m = require_real(m, "matrix", (p.n, p.n))
    if not _commutes(m, p):
        raise EquivarianceError("P M P^T differs from M beyond STRUCTURE_TOL; input is not equivariant")
    bc = _real_base_change(p, base_change)
    B = bc.conjugate(m)
    svals = [svdvals(B[sl, sl]) for sl in bc.block_slices]
    # rank decisions share the numerical-rank threshold of the whole matrix,
    # so that numerically-zero blocks read as rank 0.  Q is orthogonal, so
    # ||M||_2 is the largest block singular value up to the off-block mass,
    # which the commutator bound keeps small.
    threshold = rank_threshold(max(s[0] for s in svals), m.shape)
    values = []
    for blk, s in zip(bc.spectrum.real_blocks, svals):
        rank = int(np.sum(s > threshold))
        if rank % blk.rank_multiplier:
            raise StructuralError(
                f"block ({blk.l},{blk.m}) has odd rank {rank}; not in any real component"
            )
        values.append(rank // blk.rank_multiplier)
    return make_rank_vector(bc.spectrum, "real", values)


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


@dataclass(frozen=True)
class Parameterization:
    """decoder @ encoder is the equivariant matrix; the tilde factors are the
    same maps written in the Q basis, where the block sparsity lives.  The
    tied weights of the tilde factors, `pattern`, are listed on first read."""

    decoder: np.ndarray
    encoder: np.ndarray
    tilde_decoder: np.ndarray
    tilde_encoder: np.ndarray
    rank_vector: RankVector
    base_change: BaseChange = field(repr=False)

    @cached_property
    def pattern(self) -> WeightSharingReport:
        return _weight_sharing(self.rank_vector, self.base_change)


def parameterize_component(
    rvec: RankVector,
    p: Permutation,
    factors: Optional[Sequence[tuple[np.ndarray, np.ndarray]]] = None,
    rng: Optional[np.random.Generator] = None,
    base_change: Optional[BaseChange] = None,
) -> Parameterization:
    """Build decoder (n x r) and encoder (r x n) hitting the component rvec.

    Per block, the factors are free d x r_b / r_b x d matrices (complex for
    pair blocks, then realized), placed block-diagonally in the Q basis and
    conjugated back.  `factors` gives one pair per block, else `rng` draws
    them unit-normal: SizeMismatchError for a wrong count or shape,
    NonFiniteError for NaN or inf, StructuralError for complex on a +-1 block.
    """
    bc = _real_base_change(p, base_change)
    spec = bc.spectrum
    if rvec.blocks != spec.real_blocks:
        raise ComponentError(f"{rvec} is not a real component of this permutation")
    if factors is not None and len(factors) != len(rvec.blocks):
        raise SizeMismatchError(f"expected {len(rvec.blocks)} factor pairs, one per block, got {len(factors)}")
    if rng is None and factors is None:  # numpy.random costs 5 MB of RSS to load
        rng = np.random.default_rng(0)
    D = np.zeros((spec.n, rvec.total_rank))
    E = np.zeros((rvec.total_rank, spec.n))
    col = 0
    for idx, (blk, sl, rb) in enumerate(zip(rvec.blocks, bc.block_slices, rvec.values)):
        if rb == 0:
            continue
        A, B = _block_factors(factors, idx, blk, rb, rng)
        if blk.kind == "complex_pair":
            A, B = realize(A), realize(B)
        cols = slice(col, col + A.shape[1])
        D[sl, cols] = A
        E[cols, sl] = B
        col = cols.stop
    return Parameterization(bc.from_basis(D), bc.from_basis(E.T).T, D, E, rvec, bc)


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
