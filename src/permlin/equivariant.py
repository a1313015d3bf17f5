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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import (
    ComponentError,
    EquivarianceError,
    SearchLimitError,
    SizeMismatchError,
    StructuralError,
)
from .linalg import STRUCTURE_TOL, rank_threshold, realize, require_finite, svdvals
from .perms import Permutation, cycle_decomposition
from .spectral import BaseChange, BlockSpectrum, RealBlock, real_base_change

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

    Entries follow the canonical block order of BlockSpectrum for the given
    field.  Over R the total rank counts complex-pair entries twice.
    """

    field: str
    entries: tuple[tuple[int, int, int], ...]  # (l, m, r_{l,m})

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(r for (_, _, r) in self.entries)

    @property
    def total_rank(self) -> int:
        if self.field == "complex":
            return sum(self.values)
        total = 0
        for (l, m, r) in self.entries:
            total += 2 * r if l >= 3 else r
        return total


def _field_blocks(spec: BlockSpectrum, field: str) -> list[tuple[int, int, int, int]]:
    """(l, m, bound d_l, rank multiplier) per canonical block of the field."""
    if field == "complex":
        return [(b.l, b.m, b.size, 1) for b in spec.complex_blocks]
    if field == "real":
        return [(b.l, b.m, b.size, b.rank_multiplier) for b in spec.real_blocks]
    raise ComponentError(f"unknown field {field!r}")


def make_rank_vector(spec: BlockSpectrum, field: str, values: Sequence[int]) -> RankVector:
    """Validate values against the spectrum's canonical block order."""
    blocks = _field_blocks(spec, field)
    if len(values) != len(blocks):
        raise ComponentError(f"expected {len(blocks)} block ranks, got {len(values)}")
    entries = []
    for v, (l, m, d, _mult) in zip(values, blocks):
        v = int(v)
        if not 0 <= v <= d:
            raise ComponentError(f"rank {v} for block ({l},{m}) outside 0..{d}")
        entries.append((l, m, v))
    return RankVector(field, tuple(entries))


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


def component_dimension(spec: BlockSpectrum, rvec: RankVector) -> int:
    blocks = _field_blocks(spec, rvec.field)
    dim = 0
    for (_, _, r), (_, _, d, mult) in zip(rvec.entries, blocks):
        dim += mult * (2 * d - r) * r
    return dim


def component_degree_complex(spec: BlockSpectrum, rvec: RankVector) -> int:
    if rvec.field != "complex":
        raise ComponentError("degree formula is proven for complex components only")
    deg = 1
    for (_, _, r), b in zip(rvec.entries, spec.complex_blocks):
        deg *= determinantal_degree(b.size, b.size, r)
    return deg


def describe_component(spec: BlockSpectrum, rvec: RankVector) -> ComponentDescriptor:
    blocks = _field_blocks(spec, rvec.field)
    shapes = []
    for (l, _, r), (_, _, d, mult) in zip(rvec.entries, blocks):
        kind = "realization" if (rvec.field == "real" and mult == 2) else "determinantal"
        shapes.append((kind, d, r))
    degree = component_degree_complex(spec, rvec) if rvec.field == "complex" else None
    return ComponentDescriptor(rvec, component_dimension(spec, rvec), degree, tuple(shapes))


# ---------------------------------------------------------------------------
# counting and enumeration


def count_components(spec: BlockSpectrum, r: int, field: str) -> int:
    """Number of admissible rank vectors, exact, by bounded-composition DP."""
    if r < 0:
        return 0
    blocks = _field_blocks(spec, field)
    ways = [0] * (r + 1)
    ways[0] = 1
    for (_, _, d, mult) in blocks:
        new = [0] * (r + 1)
        for j, w in enumerate(ways):
            if w:
                top = min(d, (r - j) // mult)
                for t in range(top + 1):
                    new[j + t * mult] += w
        ways = new
    return ways[r]


def _rank_vectors(spec: BlockSpectrum, r: int, field: str, limit: Optional[int]) -> Iterator[tuple[int, ...]]:
    """Admissible block-rank tuples of total rank r, in descending
    lexicographic order.  The census is counted, at the call, only when a
    `limit` is given: SearchLimitError (reporting the count) above it."""
    if limit is not None:
        total = count_components(spec, r, field)
        if total > limit:
            raise SearchLimitError(f"{total} components exceed the limit {limit}; raise it or pick a component")
    blocks = _field_blocks(spec, field)
    suffix_max = [0] * (len(blocks) + 1)
    for i in range(len(blocks) - 1, -1, -1):
        (_, _, d, mult) = blocks[i]
        suffix_max[i] = suffix_max[i + 1] + d * mult

    def rec(i: int, remaining: int):
        if i == len(blocks):
            if remaining == 0:
                yield ()
            return
        (_, _, d, mult) = blocks[i]
        for t in range(min(d, remaining // mult), -1, -1):
            rest = remaining - t * mult
            if rest <= suffix_max[i + 1]:
                for tail in rec(i + 1, rest):
                    yield (t,) + tail

    return rec(0, r)


def enumerate_components(
    spec: BlockSpectrum, r: int, field: str, limit: Optional[int] = 10**6
) -> Iterator[ComponentDescriptor]:
    """Stream descriptors in descending lexicographic order of the rank vector.

    Raises SearchLimitError (reporting the exact count) when the census
    exceeds `limit`; pass limit=None to stream regardless.
    """
    for values in _rank_vectors(spec, r, field, limit):
        yield describe_component(spec, make_rank_vector(spec, field, values))


# ---------------------------------------------------------------------------
# the commutant as a linear space


def _cycle_pair_labels(g: Permutation) -> tuple[np.ndarray, int]:
    """pair_orbit_labels of one permutation by the gcd rule, numbered
    densely through an offset table over ordered cycle pairs."""
    cycles = cycle_decomposition(g).cycles
    lengths = np.array([len(c) for c in cycles])
    members = np.concatenate(cycles) - 1
    cyc = np.empty(g.n, dtype=np.intp)
    cyc[members] = np.repeat(np.arange(len(cycles)), lengths)
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

    Several generators join their partitions over the classes of the
    generator with the fewest, the base: root[c] is the least base class
    known to share an orbit with class c.  Each step takes one other
    generator, finds the least root over each of its classes, hooks the
    roots of the members onto it and then jumps root = root[root] until it
    stops changing, so chains collapse in a logarithmic number of gathers.
    The join ends once every other generator in a row leaves the roots
    constant on its classes, and the orbits are numbered by their root.
    """
    if not gens:
        raise SizeMismatchError("need at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise SizeMismatchError("generators act on different ground sets")
    if len(gens) == 1:
        return _cycle_pair_labels(gens[0])
    classes = sorted((_cycle_pair_labels(g) for g in gens), key=lambda c: c[1])
    base, nodes = classes[0][0].ravel(), classes[0][1]
    rest = [(labels.ravel(), count) for labels, count in classes[1:]]
    root = np.arange(nodes)
    settled = step = 0
    while settled < len(rest):
        labels, count = rest[step % len(rest)]
        step += 1
        current = root[base]
        least = np.full(count, nodes)
        np.minimum.at(least, labels, current)
        hooked = least[labels]
        if np.array_equal(hooked, current):
            settled += 1
            continue
        settled = 0
        np.minimum.at(root, current, hooked)
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    first = root == np.arange(nodes)
    return (np.cumsum(first) - 1)[root][base].reshape(n, n), int(first.sum())


def equivariant_project(m: np.ndarray, gens: Sequence[Permutation]) -> np.ndarray:
    """Frobenius-orthogonal projection onto the commutant: average over orbits."""
    m = require_finite(np.asarray(m, dtype=float))
    # checked before the n x n orbit labels are built
    if gens and m.shape != (gens[0].n, gens[0].n):
        raise SizeMismatchError(f"matrix shape {m.shape} does not match n={gens[0].n}")
    labels, count = pair_orbit_labels(gens)
    sums = np.bincount(labels.ravel(), weights=m.ravel(), minlength=count)
    sizes = np.bincount(labels.ravel(), minlength=count)
    return (sums / sizes)[labels]


def is_equivariant(m: np.ndarray, p: Permutation, tol: float = STRUCTURE_TOL) -> bool:
    """||P_sigma M P_sigma^T - M||_F <= tol * ||M||_F, which is
    ||P_sigma M - M P_sigma||_F since P_sigma is orthogonal.  NonFiniteError
    on a NaN or infinite entry."""
    m = require_finite(np.asarray(m, dtype=float))
    if m.shape != (p.n, p.n):
        raise SizeMismatchError(f"expected a {p.n} x {p.n} matrix, got {m.shape}")
    img = np.asarray(p.image) - 1
    # row i of P_sigma is the unit vector e_{sigma(i)}, so P_sigma M P_sigma^T
    # is M gathered at (sigma(i), sigma(j)): one n x n copy
    dev = m[np.ix_(img, img)]
    dev -= m
    return np.linalg.norm(dev) <= tol * np.linalg.norm(m)


# ---------------------------------------------------------------------------
# classification and parameterization


def _require_real(rvec: RankVector) -> None:
    if rvec.field != "real":
        raise ComponentError("a real-admissible rank vector is required")


def classify_component(
    m: np.ndarray, p: Permutation, base_change: Optional[BaseChange] = None
) -> RankVector:
    """Read per-block ranks of an equivariant matrix in the Q basis.

    EquivarianceError when the off-block mass after the base change exceeds
    STRUCTURE_TOL * ||M||_F.  Complex-pair block ranks are halved; an odd
    rank there certifies the matrix lies outside every real component and
    raises StructuralError.
    """
    m = np.asarray(m, dtype=float)
    bc = base_change if base_change is not None else real_base_change(p)
    B = bc.conjugate(m)
    svals = [svdvals(B[sl, sl]) for sl in bc.block_slices]
    for sl in bc.block_slices:
        B[sl, sl] = 0.0
    dev = np.linalg.norm(B)
    if dev > STRUCTURE_TOL * np.linalg.norm(m):
        raise EquivarianceError(f"off-block mass {dev:.3e} after base change; input is not equivariant")
    # rank decisions share the numerical-rank threshold of the whole matrix,
    # so that numerically-zero blocks read as rank 0.  Q is orthogonal, so
    # ||M||_2 is the largest block singular value up to the off-block mass
    # checked above.
    threshold = rank_threshold(max(s[0] for s in svals), m.shape)
    values = []
    for blk, s in zip(bc.spectrum.real_blocks, svals):
        rank = int(np.sum(s > threshold))
        if blk.kind == "complex_pair":
            if rank % 2:
                raise StructuralError(
                    f"block ({blk.l},{blk.m}) has odd rank {rank}; not in any real component"
                )
            rank //= 2
        values.append(rank)
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
    same maps written in the Q basis, where the block sparsity lives."""

    decoder: np.ndarray
    encoder: np.ndarray
    pattern: WeightSharingReport
    tilde_decoder: np.ndarray
    tilde_encoder: np.ndarray


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
    conjugated back.  Missing factors are sampled unit-normal from `rng`.
    """
    _require_real(rvec)
    bc = base_change if base_change is not None else real_base_change(p)
    spec = bc.spectrum
    make_rank_vector(spec, "real", rvec.values)  # bounds check against this spectrum
    if rng is None:
        rng = np.random.default_rng(0)
    n = spec.n
    r = rvec.total_rank
    D = np.zeros((n, r))
    E = np.zeros((r, n))
    dec_groups: list[tuple] = []
    enc_groups: list[tuple] = []
    inactive: list[int] = []
    col = 0
    for idx, (blk, sl, (_, _, rb)) in enumerate(zip(spec.real_blocks, bc.block_slices, rvec.entries)):
        d = blk.size
        if rb == 0:
            inactive.extend(range(sl.start, sl.stop))
            continue
        A, B = _block_factors(factors, idx, blk, rb, rng)
        if blk.kind == "complex_pair":
            D[sl, col:col + 2 * rb] = realize(A)
            E[col:col + 2 * rb, sl] = realize(B)
            ro, co = sl.start, col
            for i in range(d):
                for j in range(rb):
                    dec_groups.append(((ro + 2 * i, co + 2 * j, 1), (ro + 2 * i + 1, co + 2 * j + 1, 1)))
                    dec_groups.append(((ro + 2 * i + 1, co + 2 * j, 1), (ro + 2 * i, co + 2 * j + 1, -1)))
            for i in range(rb):
                for j in range(d):
                    enc_groups.append(((co + 2 * i, ro + 2 * j, 1), (co + 2 * i + 1, ro + 2 * j + 1, 1)))
                    enc_groups.append(((co + 2 * i + 1, ro + 2 * j, 1), (co + 2 * i, ro + 2 * j + 1, -1)))
            col += 2 * rb
        else:
            D[sl, col:col + rb] = A
            E[col:col + rb, sl] = B
            for i in range(d):
                for j in range(rb):
                    dec_groups.append(((sl.start + i, col + j, 1),))
            for i in range(rb):
                for j in range(d):
                    enc_groups.append(((col + i, sl.start + j, 1),))
            col += rb
    report = WeightSharingReport(
        tuple(dec_groups), tuple(enc_groups), tuple(inactive), tuple(inactive)
    )
    return Parameterization(bc.from_basis(D), bc.from_basis(E.T).T, report, D, E)


def _block_factors(factors, idx: int, blk: RealBlock, rb: int, rng):
    d = blk.size
    if factors is not None:
        A, B = factors[idx]
        A, B = np.asarray(A), np.asarray(B)
        if A.shape != (d, rb) or B.shape != (rb, d):
            raise SizeMismatchError(
                f"block ({blk.l},{blk.m}) factors must be {d}x{rb} and {rb}x{d}, got {A.shape}, {B.shape}"
            )
        return A, B
    if blk.kind == "complex_pair":
        A = rng.standard_normal((d, rb)) + 1j * rng.standard_normal((d, rb))
        B = rng.standard_normal((rb, d)) + 1j * rng.standard_normal((rb, d))
        return A, B
    return rng.standard_normal((d, rb)), rng.standard_normal((rb, d))


def free_parameter_count(spec: BlockSpectrum, rvec: RankVector) -> int:
    """Free parameters of the encoder+decoder pair for a real component.

    Real blocks contribute 2 d r (two d x r factors), pair blocks 4 d r
    (two complex d x r factors, two reals per entry).
    """
    _require_real(rvec)
    total = 0
    for blk, (_, _, rb) in zip(spec.real_blocks, rvec.entries):
        per_factor = 2 * blk.size * rb if blk.kind == "complex_pair" else blk.size * rb
        total += 2 * per_factor
    return total
