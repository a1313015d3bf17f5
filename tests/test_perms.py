import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permlin.datasets import horizontal_shift_permutation
from permlin.errors import PermParseError, SizeMismatchError
from permlin.perms import (
    Partition,
    Permutation,
    consecutive_cycles,
    cycle_decomposition,
    finest_common_coarsening,
    induced_partition,
    parse_permutation,
    permutation_matrix,
    replication_matrix,
)

from helpers import identity


def refines(fine, coarse):
    """True iff every block of `fine` lies inside one block of `coarse`."""
    return all(len({coarse.labels[x - 1] for x in block}) == 1 for block in fine.blocks)


class TestParse:
    def test_cycle_notation(self):
        p = parse_permutation("(1 3 4)(2 5)", 5)
        assert p.image == (3, 5, 4, 1, 2)

    def test_empty_is_identity(self):
        assert parse_permutation("", 4).image == (1, 2, 3, 4)

    def test_duplicate_label_rejected(self):
        with pytest.raises(PermParseError, match="duplicate label 1"):
            parse_permutation("(1 2)(1 3)", 4)

    def test_one_line_image(self):
        assert parse_permutation("3,5,4,1,2", 5).image == (3, 5, 4, 1, 2)

    def test_commas_and_whitespace(self):
        assert parse_permutation("(1, 3 ,4) (2 5)", 5).image == (3, 5, 4, 1, 2)

    def test_out_of_range(self):
        with pytest.raises(PermParseError, match="out of range"):
            parse_permutation("(1 9)", 5)

    def test_malformed_parens(self):
        with pytest.raises(PermParseError):
            parse_permutation("(1 2", 3)

    def test_bad_image_length(self):
        with pytest.raises(PermParseError):
            parse_permutation("1,2", 3)

    @pytest.mark.parametrize("n, image", [(2, (2.0, 1.0)), (True, (1,)), (2, (2, True)), (2.0, (2, 1))],
                             ids=["float-image", "bool-size", "bool-image", "float-size"])
    def test_non_integer_rejected(self, n, image):
        with pytest.raises(PermParseError, match="must be integers"):
            Permutation(n, image)


class TestCycles:
    def test_rotation_cycle_lengths(self):
        p = parse_permutation("(1 4 3 2)(5 8 7 6)", 9)
        cd = cycle_decomposition(p)
        assert cd.lengths == (4, 4, 1)
        assert cd.k == 3

    def test_identity_trivial_cycles(self):
        cd = cycle_decomposition(identity(3))
        assert cd.lengths == (1, 1, 1)

    def test_cycles_start_at_smallest(self):
        p = parse_permutation("3,5,4,1,2", 5)
        assert cycle_decomposition(p).cycles == ((1, 3, 4), (2, 5))


class TestPartition:
    def test_induced(self):
        p = parse_permutation("(1 3 4)(2 5)", 5)
        part = induced_partition(cycle_decomposition(p))
        assert part.blocks == ((1, 3, 4), (2, 5))

    def test_different_perm_same_partition(self):
        a = parse_permutation("(1 3 4)(2 5)", 5)
        b = parse_permutation("(1 4 3)(2 5)", 5)
        assert induced_partition(cycle_decomposition(a)) == induced_partition(cycle_decomposition(b))

    def test_identity_singletons(self):
        part = induced_partition(cycle_decomposition(identity(2)))
        assert part.blocks == ((1,), (2,))

    def test_power_coprime_invariance(self):
        p = parse_permutation("(1 2 3 4 5 6)(7 8)", 8)
        base = induced_partition(cycle_decomposition(p))
        for t in (1, 5, 7):  # coprime to ord = 6
            image = p.image
            for _ in range(t - 1):
                image = tuple(p(j) for j in image)
            assert induced_partition(cycle_decomposition(Permutation(p.n, image))) == base


class TestPermutationMatrix:
    def test_example_matrix(self):
        P = permutation_matrix(parse_permutation("3,5,4,1,2", 5))
        expected = np.array([
            [0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1],
            [0, 0, 0, 1, 0],
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
        ])
        assert np.array_equal(P, expected)

    def test_identity(self):
        assert np.array_equal(permutation_matrix(identity(4)), np.eye(4, dtype=np.int64))

    def test_orthogonality_and_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            img = tuple(rng.permutation(7) + 1)
            p = Permutation(7, img)
            P = permutation_matrix(p)
            assert np.array_equal(P @ P.T, np.eye(7, dtype=np.int64))
            inverse = Permutation(7, tuple(int(j) + 1 for j in np.argsort(img)))
            assert np.array_equal(P @ permutation_matrix(inverse), np.eye(7, dtype=np.int64))

    def test_apply_matches_matrix(self):
        rng = np.random.default_rng(1)
        p = Permutation(6, tuple(rng.permutation(6) + 1))
        x = rng.standard_normal(6)
        assert np.allclose(permutation_matrix(p) @ x, x[np.asarray(p.image) - 1])


class TestCoarsening:
    def test_transitive_chaining(self):
        a = Partition.from_blocks(4, [{1, 2}, {3}, {4}])
        b = Partition.from_blocks(4, [{1}, {2, 3}, {4}])
        assert finest_common_coarsening([a, b]).blocks == ((1, 2, 3), (4,))

    def test_single_is_identity(self):
        a = Partition.from_blocks(3, [{1, 3}, {2}])
        assert finest_common_coarsening([a]) == a

    def test_coarsest_dominates(self):
        a = Partition.from_blocks(2, [{1}, {2}])
        b = Partition.from_blocks(2, [{1, 2}])
        assert finest_common_coarsening([a, b]).blocks == ((1, 2),)

    def test_mismatched_n(self):
        with pytest.raises(SizeMismatchError):
            finest_common_coarsening([Partition.from_blocks(2, [{1, 2}]), Partition.from_blocks(3, [{1, 2, 3}])])


@st.composite
def partitions(draw, n):
    owner = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    groups = {}
    for x, o in enumerate(owner, start=1):
        groups.setdefault(o, []).append(x)
    return Partition.from_blocks(n, groups.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(partitions(n), partitions(n), partitions(n))))
def test_coarsening_lattice_laws(triple):
    a, b, c = triple
    join = finest_common_coarsening
    assert join([a, b]) == join([b, a])
    assert join([a, join([b, c])]) == join([join([a, b]), c])
    assert join([a, a]) == a
    # the result coarsens every input
    assert refines(a, join([a, b])) and refines(b, join([a, b]))


def test_partition_labels():
    part = Partition.from_blocks(5, [{4, 2}, {1, 3}, {5}])
    assert part.labels.tolist() == [0, 1, 0, 1, 2]
    assert part.labels is part.labels and not part.labels.flags.writeable


def test_consecutive_cycles():
    assert consecutive_cycles([2, 1, 3]).image == (2, 1, 3, 5, 6, 4)
    assert cycle_decomposition(consecutive_cycles([2, 1, 3])).cycles == ((1, 2), (3,), (4, 5, 6))
    assert horizontal_shift_permutation(3, 4) == consecutive_cycles([4, 4, 4])


class TestReplication:
    def test_example(self):
        part = Partition.from_blocks(4, [{1, 3}, {2}, {4}])
        expected = np.array([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert np.array_equal(replication_matrix(part), expected)

    def test_singletons_identity(self):
        part = Partition.from_blocks(3, [{1}, {2}, {3}])
        assert np.array_equal(replication_matrix(part), np.eye(3, dtype=np.int64))

    def test_one_block(self):
        part = Partition.from_blocks(3, [{1, 2, 3}])
        assert np.array_equal(replication_matrix(part), np.ones((1, 3), dtype=np.int64))

    def test_one_per_column_and_rank(self):
        part = Partition.from_blocks(6, [{1, 4}, {2, 5, 6}, {3}])
        E = replication_matrix(part)
        assert np.array_equal(E.sum(axis=0), np.ones(6, dtype=np.int64))
        assert np.linalg.matrix_rank(E) == part.k
