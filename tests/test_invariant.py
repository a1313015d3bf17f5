import math

import numpy as np
import pytest

from permlin.errors import InvarianceError, RankDeficientError, SizeMismatchError
from permlin.invariant import (
    fit_invariant,
    invariant_autoencoder,
    invariant_degree,
    invariant_dimension,
    invariant_project,
    invariant_space,
    is_singular_point,
    psi_compress,
    psi_expand,
)
from permlin.linalg import numeric_rank
from permlin.perms import (
    Partition,
    Permutation,
    parse_permutation,
    permutation_matrix,
    replication_matrix,
)

from helpers import als_loss, identity

SIGMA5 = parse_permutation("(1 3 4)(2 5)", 5)


def rotation_perm(p: int) -> Permutation:
    """Quarter-turn rotation of a p x p grid, row-major labels."""
    image = []
    for i in range(p):
        for j in range(p):
            # the pixel landing at (i, j) comes from (p-1-j, i)
            image.append((p - 1 - j) * p + i + 1)
    return Permutation(p * p, tuple(image))


class TestInvariantSpace:
    def test_k_from_single_generator(self):
        space = invariant_space([SIGMA5], 4, 5, 2)
        assert space.k == 2 and space.effective_rank == 2

    def test_rotation_rank_cap(self):
        for p in (2, 3, 4, 5):
            rot = rotation_perm(p)
            space = invariant_space([rot], p * p, p * p, p * p)
            assert space.k == math.ceil(p * p / 4)

    def test_identity_full_space(self):
        space = invariant_space([identity(4)], 4, 4, 2)
        assert space.k == 4

    def test_generator_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            invariant_space([SIGMA5], 4, 6, 2)


class TestPsi:
    def test_compress_example(self):
        a, b, g, d = 1.3, -0.2, 0.7, 2.1
        M = np.array([[a, g, a, a, g], [b, d, b, b, d]])
        part = Partition.from_blocks(5, [{1, 3, 4}, {2, 5}])
        assert np.array_equal(psi_compress(M, part), [[a, g], [b, d]])

    def test_singleton_partition_identity(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((3, 4))
        part = Partition.from_blocks(4, [{1}, {2}, {3}, {4}])
        assert np.array_equal(psi_compress(M, part), M)

    def test_non_invariant_rejected(self):
        part = Partition.from_blocks(3, [{1, 2}, {3}])
        with pytest.raises(InvarianceError, match="block 0"):
            psi_compress(np.array([[1.0, 2.0, 3.0]]), part)

    def test_expand_worked_example(self):
        compact = np.array([[1, 0, 1], [2, 4, 1], [3, 4, 1], [0, 2, 1]], dtype=float)
        part = Partition.from_blocks(4, [{1, 3}, {2}, {4}])
        M = psi_expand(compact, part)
        expected = np.array([[1, 0, 1, 1], [2, 4, 2, 1], [3, 4, 3, 1], [0, 2, 0, 1]], dtype=float)
        assert np.array_equal(M, expected)

    def test_expand_zero(self):
        part = Partition.from_blocks(3, [{1, 2}, {3}])
        assert np.array_equal(psi_expand(np.zeros((2, 2)), part), np.zeros((2, 3)))

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        part = Partition.from_blocks(6, [{1, 4, 5}, {2}, {3, 6}])
        compact = rng.standard_normal((4, 3))
        M = psi_expand(compact, part)
        assert np.array_equal(psi_compress(M, part), compact)
        assert np.array_equal(psi_expand(psi_compress(M, part), part), M)


class TestDimensionDegree:
    def test_dim_example(self):
        space = invariant_space([parse_permutation("(1 2)(3 4)", 4)], 2, 4, 1)
        # m=2, k=2, r=1
        assert invariant_dimension(space) == 3

    def test_full_rank_degree_one(self):
        space = invariant_space([SIGMA5], 4, 5, 2)  # r = k = 2
        assert invariant_degree(space) == 1

    def test_determinant_hypersurface(self):
        # m = k = n', r = n'-1 gives the degree-n' determinant hypersurface
        for nprime in (2, 3, 4):
            ident = identity(nprime)
            space = invariant_space([ident], nprime, nprime, nprime - 1)
            assert invariant_degree(space) == nprime

    def test_rank_cap_in_dimension(self):
        space = invariant_space([SIGMA5], 4, 5, 4)  # r capped at k = 2
        assert space.effective_rank == 2
        assert invariant_dimension(space) == 2 * (4 + 2 - 2)


class TestSingular:
    def test_exact_rank_not_singular(self):
        rng = np.random.default_rng(2)
        space = invariant_space([SIGMA5], 4, 5, 1)
        compact = np.outer(rng.standard_normal(4), rng.standard_normal(2))
        assert not is_singular_point(space, psi_expand(compact, space.partition))

    def test_zero_singular(self):
        space = invariant_space([SIGMA5], 4, 5, 1)
        assert is_singular_point(space, np.zeros((4, 5)))

    def test_full_rank_bound_never_singular(self):
        space = invariant_space([SIGMA5], 4, 5, 2)  # r = min(m, k)
        assert not is_singular_point(space, np.zeros((4, 5)))

    def test_row_count_of_the_space_checked(self):
        # psi_compress sees only the columns; the space also fixes m = 4 rows
        space = invariant_space([SIGMA5], 4, 5, 1)
        rank1 = psi_expand(np.outer([1.0, 2.0, 3.0], [1.0, -1.0]), space.partition)
        for m in (np.zeros((3, 5)), rank1):
            with pytest.raises(SizeMismatchError, match=r"\(4, 5\)"):
                invariant_autoencoder(space, m)
            with pytest.raises(SizeMismatchError, match=r"\(4, 5\)"):
                is_singular_point(space, m)


class TestFitInvariant:
    def test_consistent_recovery(self):
        rng = np.random.default_rng(3)
        space = invariant_space([SIGMA5], 4, 5, 2)
        compact = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 2))
        M0 = psi_expand(compact, space.partition)
        X = rng.standard_normal((5, 12))
        fit = fit_invariant(X, M0 @ X, space)
        assert fit.loss <= 1e-8
        assert np.linalg.norm(fit.minimizer - M0) <= 1e-7

    def test_singleton_partition_reduces_to_eckart_young(self):
        rng = np.random.default_rng(4)
        space = invariant_space([identity(4)], 4, 4, 2)
        Y = rng.standard_normal((4, 4))
        fit = fit_invariant(np.eye(4), Y, space)
        u, s, vt = np.linalg.svd(Y)
        trunc = (u[:, :2] * s[:2]) @ vt[:2]
        assert np.linalg.norm(fit.minimizer - trunc) <= 1e-9

    def test_encoder_is_weight_shared(self):
        """The fit holds the paper's factors: an m x r decoder and the r x n
        encoder B' E, whose columns are equal within each partition block."""
        rng = np.random.default_rng(6)
        space = invariant_space([parse_permutation("(1 4)(2 5 6)", 6)], 4, 6, 2)
        fit = fit_invariant(rng.standard_normal((6, 14)), rng.standard_normal((4, 14)), space)
        assert fit.decoder.shape == (4, 2) and fit.encoder.shape == (2, 6)
        for block in space.partition.blocks:
            cols = fit.encoder[:, np.asarray(block) - 1]
            assert np.array_equal(cols, np.repeat(cols[:, :1], len(block), axis=1))
        assert np.array_equal(fit.minimizer, fit.decoder @ fit.encoder)

    def test_matches_als_oracle(self):
        rng = np.random.default_rng(5)
        part = Partition.from_blocks(6, [{1, 4}, {2, 5, 6}, {3}])
        gen = parse_permutation("(1 4)(2 5 6)", 6)
        space = invariant_space([gen], 4, 6, 2)
        assert space.partition == part
        X = rng.standard_normal((6, 14))
        Y = rng.standard_normal((4, 14))
        fit = fit_invariant(X, Y, space)
        # oracle on the compressed data: M X = psi(M) (E X)
        xt = replication_matrix(part).astype(float) @ X
        oracle = als_loss(xt, Y, 2, np.random.default_rng(1), restarts=80, sweeps=60)
        assert fit.loss <= oracle + 1e-6
        assert abs(fit.loss - oracle) <= 1e-5

    def test_rank_deficient_needs_ridge(self):
        rng = np.random.default_rng(6)
        space = invariant_space([SIGMA5], 3, 5, 2)
        X = np.zeros((5, 8))
        X[:2] = rng.standard_normal((2, 8))  # rank 2 < 5
        Y = rng.standard_normal((3, 8))
        # blocks {1,3,4} and {2,5}: E X = [x_1; x_2] has full row rank, so
        # X itself may be rank deficient
        fit = fit_invariant(X, Y, space)
        xt = replication_matrix(space.partition).astype(float) @ X
        oracle = als_loss(xt, Y, 2, np.random.default_rng(1), restarts=80, sweeps=60)
        assert fit.loss <= oracle + 1e-6
        assert abs(fit.loss - oracle) <= 1e-5
        fit = fit_invariant(X, Y, space, ridge=1e-6)
        assert fit.regularization == 1e-6

    def test_compressed_rank_deficient_needs_ridge(self):
        rng = np.random.default_rng(6)
        space = invariant_space([SIGMA5], 3, 5, 2)
        X = rng.standard_normal((5, 8))  # rank 5
        X[3] = -X[0] - X[2]  # block {1,3,4} sums to zero: E X has rank 1
        Y = rng.standard_normal((3, 8))
        with pytest.raises(RankDeficientError):
            fit_invariant(X, Y, space)
        fit = fit_invariant(X, Y, space, ridge=1e-6)
        assert fit.regularization == 1e-6

    def test_local_optimality_perturbations(self):
        rng = np.random.default_rng(20)
        space = invariant_space([SIGMA5], 4, 5, 1)
        X = rng.standard_normal((5, 12))
        Y = rng.standard_normal((4, 12))
        fit = fit_invariant(X, Y, space)
        compact = psi_compress(fit.minimizer, space.partition)
        eps = 1e-3
        for _ in range(200):
            g1 = rng.standard_normal((4, 4))
            g2 = rng.standard_normal((2, 2))
            cp = (np.eye(4) + eps * g1) @ compact @ (np.eye(2) + eps * g2)
            mp = psi_expand(cp, space.partition)  # stays invariant, rank preserved
            assert float(np.linalg.norm(mp @ X - Y) ** 2) >= fit.loss - 1e-9

    def test_output_is_invariant_and_rank_capped(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            space = invariant_space([SIGMA5], 4, 5, int(rng.integers(1, 4)))
            X = rng.standard_normal((5, 11))
            Y = rng.standard_normal((4, 11))
            fit = fit_invariant(X, Y, space)
            P = permutation_matrix(SIGMA5).astype(float)
            assert np.abs(fit.minimizer @ P - fit.minimizer).max() <= 1e-9
            assert numeric_rank(fit.minimizer) <= space.effective_rank


@pytest.mark.parametrize("ridge", [None, 1e-3, 1.0])
def test_loss_is_the_dense_residual(ridge):
    """The loss computed from the compressed factors is ||M X - Y||^2 of the
    expanded minimizer, on the spaces the fits above use."""
    rng = np.random.default_rng(21)
    spaces = [
        invariant_space([SIGMA5], 4, 5, 2),
        invariant_space([SIGMA5], 4, 5, 1),
        invariant_space([SIGMA5], 3, 5, 2),
        invariant_space([identity(4)], 4, 4, 2),
        invariant_space([parse_permutation("(1 4)(2 5 6)", 6)], 4, 6, 2),
    ]
    for space in spaces:
        x = rng.standard_normal((space.n, space.n + 7))
        y = rng.standard_normal((space.m, space.n + 7))
        fit = fit_invariant(x, y, space, ridge=ridge)
        scale = float(np.linalg.norm(y)) ** 2
        assert abs(fit.loss - float(np.linalg.norm(fit.minimizer @ x - y)) ** 2) <= 1e-12 * scale


class TestAutoencoder:
    def test_full_rank_factors_are_compact_and_replication(self):
        compact = np.array([[1, 0, 1], [2, 4, 1], [3, 4, 1], [0, 2, 1]], dtype=float)
        part = Partition.from_blocks(4, [{1, 3}, {2}, {4}])
        gen = parse_permutation("(1 3)", 4)
        space = invariant_space([gen], 4, 4, 3)
        M = psi_expand(compact, part)
        dec, enc = invariant_autoencoder(space, M)
        assert np.array_equal(dec, compact)
        assert np.array_equal(enc, replication_matrix(part).astype(float))

    def test_full_rank_fiber_has_replication_pattern(self):
        rng = np.random.default_rng(8)
        space = invariant_space([SIGMA5], 4, 5, 2)
        compact = rng.standard_normal((4, 2))
        M = psi_expand(compact, space.partition)
        dec, enc = invariant_autoencoder(space, M)
        assert np.linalg.norm(dec @ enc - M) <= 1e-9
        # encoder = T E for invertible T: columns tied per block
        E = replication_matrix(space.partition)
        for block in space.partition.blocks:
            cols = enc[:, [j - 1 for j in block]]
            assert np.abs(cols - cols[:, :1]).max() <= 1e-12

    def test_zero_matrix(self):
        space = invariant_space([SIGMA5], 4, 5, 1)
        dec, enc = invariant_autoencoder(space, np.zeros((4, 5)))
        assert np.array_equal(dec, np.zeros((4, 1)))
        assert np.array_equal(enc, replication_matrix(space.partition)[:1].astype(float))

    def test_low_rank_factorization(self):
        rng = np.random.default_rng(9)
        part = Partition.from_blocks(6, [{1, 4}, {2, 5, 6}, {3}])
        gen = parse_permutation("(1 4)(2 5 6)", 6)
        space = invariant_space([gen], 5, 6, 2)
        compact = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 3))
        M = psi_expand(compact, part)
        dec, enc = invariant_autoencoder(space, M)
        assert dec.shape == (5, 2) and enc.shape == (2, 6)
        assert np.linalg.norm(dec @ enc - M) <= 1e-9

    def test_rank_excess_rejected(self):
        rng = np.random.default_rng(10)
        space = invariant_space([SIGMA5], 4, 5, 1)
        compact = rng.standard_normal((4, 2))  # generically rank 2 > 1
        with pytest.raises(InvarianceError):
            invariant_autoencoder(space, psi_expand(compact, space.partition))

    def test_generic_encoder_has_k_distinct_columns(self):
        rng = np.random.default_rng(11)
        part = Partition.from_blocks(6, [{1, 4}, {2, 5, 6}, {3}])
        gen = parse_permutation("(1 4)(2 5 6)", 6)
        space = invariant_space([gen], 5, 6, 2)
        compact = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 3))
        _, enc = invariant_autoencoder(space, psi_expand(compact, part))
        distinct = {tuple(np.round(enc[:, j], 9)) for j in range(6)}
        assert len(distinct) == space.k


def test_eckart_young_critical_count_matches_degree():
    # the number of subset-truncation critical values on the compressed
    # problem equals binom(min(m,k), min(r,k))
    from permlin.optimize import ed_degrees
    from permlin.oracles import critical_points

    rng = np.random.default_rng(12)
    for m, k, r in [(3, 5, 2), (4, 4, 2), (5, 3, 1), (2, 2, 1)]:
        target = rng.standard_normal((m, k))
        crits = critical_points(target, min(r, k))
        assert len(crits) == ed_degrees("invariant", (m, k, r))
        losses = sorted(float(np.linalg.norm(c - target) ** 2) for c in crits)
        assert all(b - a > 1e-12 for a, b in zip(losses, losses[1:]))


def test_invariant_project_is_column_average():
    rng = np.random.default_rng(13)
    part = Partition.from_blocks(5, [{1, 3, 4}, {2, 5}])
    M = rng.standard_normal((3, 5))
    proj = invariant_project(M, part)
    assert np.allclose(proj[:, 0], M[:, [0, 2, 3]].mean(axis=1))
    # projection: idempotent, and residual orthogonal to the space
    assert np.allclose(invariant_project(proj, part), proj)
    assert abs(np.sum((M - proj) * proj)) <= 1e-9


def test_invariant_project_rejects_wrong_column_count():
    part = Partition.from_blocks(5, [{1, 3, 4}, {2, 5}])
    for cols in (4, 6):
        with pytest.raises(SizeMismatchError):
            invariant_project(np.ones((3, cols)), part)
