"""Permutations on [n] = {1, ..., n}, their cycle structure, induced partitions and their joins.

Labels are 1-based everywhere in the public interface.  A permutation sigma is
stored by its image tuple, image[j-1] = sigma(j).  Its matrix P has row j equal
to the transpose of the sigma(j)-th standard unit vector, so (P x)_j = x_{sigma(j)}
and P is orthogonal.

Cycle notation accepts strings like "(1 4 3 2)(5 8 7 6)"; labels not mentioned
are fixed points.  One-line image notation is a comma-separated list such as
"3,5,4,1,2".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

from .errors import PermParseError, SizeMismatchError

__all__ = [
    "Permutation",
    "CycleDecomposition",
    "Partition",
    "parse_permutation",
    "cycle_decomposition",
    "induced_partition",
    "permutation_matrix",
    "consecutive_cycles",
    "finest_common_coarsening",
    "join_labels",
    "replication_matrix",
]


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1, ..., n} given by its image tuple."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self):
        # checked, not coerced: numpy integers pass, floats and booleans do not
        bad = [v for v in (self.n, *self.image) if not isinstance(v, Integral) or isinstance(v, bool)]
        if bad:
            raise PermParseError(f"ground-set size and image entries must be integers, got {bad[0]!r}")
        if self.n <= 0:
            raise PermParseError(f"ground-set size must be positive, got {self.n}")
        if len(self.image) != self.n or sorted(self.image) != list(range(1, self.n + 1)):
            raise PermParseError(f"image {self.image} is not a bijection of [{self.n}]")

    def __call__(self, j: int) -> int:
        return self.image[j - 1]


@dataclass(frozen=True)
class CycleDecomposition:
    """Disjoint cycles covering [n], trivial 1-cycles included.

    Cycles are ordered by their smallest label; each cycle starts at its
    smallest label and follows sigma.
    """

    n: int
    cycles: tuple[tuple[int, ...], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cycles)

    @property
    def k(self) -> int:
        return len(self.cycles)


@dataclass(frozen=True)
class Partition:
    """A partition of [n] in canonical order.

    Blocks are sorted by smallest element, elements ascending within a block.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = sorted(x for b in self.blocks for x in b)
        if seen != list(range(1, self.n + 1)):
            raise SizeMismatchError(f"blocks do not partition [{self.n}]")

    @property
    def k(self) -> int:
        return len(self.blocks)

    @staticmethod
    def from_blocks(n: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        return Partition(n, canon)

    @cached_property
    def labels(self) -> np.ndarray:
        """Read-only 0-based block index per element: labels[x - 1] is the block of x."""
        labels = np.empty(self.n, dtype=np.intp)
        labels[np.concatenate(self.blocks) - 1] = np.repeat(np.arange(self.k), [len(b) for b in self.blocks])
        labels.flags.writeable = False
        return labels


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse cycle notation or a one-line image into a permutation of [n].

    Empty cycle text means the identity.  Raises PermParseError naming the
    offending token on duplicates, out-of-range labels, or bad parentheses.
    """
    stripped = text.strip()
    if "(" in stripped or stripped == "":
        body = stripped
        cycles = []
        pos = 0
        for m in _CYCLE_RE.finditer(body):
            if body[pos:m.start()].strip():
                raise PermParseError(f"unexpected text {body[pos:m.start()].strip()!r} between cycles")
            labels = [tok for tok in re.split(r"[\s,]+", m.group(1).strip()) if tok]
            if len(labels) < 2:
                raise PermParseError(f"cycle ({m.group(1).strip()}) needs at least two labels")
            cycles.append([_parse_label(tok, n) for tok in labels])
            pos = m.end()
        if body[pos:].strip():
            raise PermParseError(f"malformed parentheses near {body[pos:].strip()!r}")
        image = list(range(1, n + 1))
        used: set[int] = set()
        for cyc in cycles:
            for a in cyc:
                if a in used:
                    raise PermParseError(f"duplicate label {a}")
                used.add(a)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                image[a - 1] = b
        return Permutation(n, tuple(image))
    labels = [_parse_label(tok, n) for tok in re.split(r"[\s,]+", stripped) if tok]
    if len(labels) != n:
        raise PermParseError(f"one-line image has {len(labels)} entries, expected {n}")
    if len(set(labels)) != n:
        dup = next(x for x in labels if labels.count(x) > 1)
        raise PermParseError(f"duplicate label {dup}")
    return Permutation(n, tuple(labels))


def _parse_label(tok: str, n: int) -> int:
    try:
        v = int(tok)
    except ValueError:
        raise PermParseError(f"not an integer label: {tok!r}") from None
    if not 1 <= v <= n:
        raise PermParseError(f"label {v} out of range 1..{n}")
    return v


def cycle_decomposition(p: Permutation) -> CycleDecomposition:
    seen = [False] * p.n
    cycles = []
    for a in range(1, p.n + 1):
        if seen[a - 1]:
            continue
        cyc = [a]
        seen[a - 1] = True
        b = p(a)
        while b != a:
            cyc.append(b)
            seen[b - 1] = True
            b = p(b)
        cycles.append(tuple(cyc))
    return CycleDecomposition(p.n, tuple(cycles))


def induced_partition(c: CycleDecomposition) -> Partition:
    return Partition.from_blocks(c.n, c.cycles)


def permutation_matrix(p: Permutation) -> np.ndarray:
    """Dense integer P_sigma with row j = transpose of the sigma(j)-th unit vector."""
    P = np.zeros((p.n, p.n), dtype=np.int64)
    for j, s in enumerate(p.image):
        P[j, s - 1] = 1
    return P


def join_labels(parts: Sequence[tuple[np.ndarray, int]]) -> tuple[np.ndarray, int]:
    """Finest common coarsening of partitions of one set, each given as
    (dense labels 0..count-1 of any shape, count); returns the same for the join.

    The join runs over the blocks of the input with the fewest, the base:
    root[c] is the least base block known to share a joined block with block
    c.  Each step takes one other input, finds the least root over each of
    its blocks, hooks the roots of the members onto it and then jumps
    root = root[root] until it stops changing, so chains collapse in a
    logarithmic number of gathers.  The join ends once every other input in
    a row leaves the roots constant on its blocks, and the joined blocks are
    numbered by their root.
    """
    if not parts:
        raise SizeMismatchError("need at least one partition to join")
    if any(labels.shape != parts[0][0].shape for labels, _ in parts):
        raise SizeMismatchError("partitions to join are over different sets")
    if len(parts) == 1:
        return parts[0]
    classes = sorted(parts, key=lambda c: c[1])
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
    return (np.cumsum(first) - 1)[root][base].reshape(parts[0][0].shape), int(first.sum())


def consecutive_cycles(lengths: Sequence[int]) -> Permutation:
    """Cycles of the given lengths on runs of consecutive labels: (1 2 ... l_1)(l_1 + 1 ...)..."""
    image, start = [], 1
    for l in lengths:
        image += [*range(start + 1, start + l), start]
        start += l
    return Permutation(start - 1, tuple(image))


def finest_common_coarsening(parts: Sequence[Partition]) -> Partition:
    """Finest partition coarsening every input, by `join_labels`."""
    labels, count = join_labels([(q.labels, q.k) for q in parts])
    members = np.argsort(labels, kind="stable") + 1
    blocks = np.split(members, np.cumsum(np.bincount(labels, minlength=count))[:-1])
    return Partition.from_blocks(labels.size, (b.tolist() for b in blocks))


def replication_matrix(part: Partition) -> np.ndarray:
    """The k x n matrix E with column j = e_i whenever j lies in block i."""
    E = np.zeros((part.k, part.n), dtype=np.int64)
    E[part.labels, np.arange(part.n)] = 1
    return E
