import numpy as np
import pytest

from permlin.equivariant import count_components, enumerate_components
from permlin.errors import ComponentError, MatrixFormatError, SizeCapError
from permlin.optimize import fit_equivariant
from permlin.oracles import (
    MAX_COUNT_CENSUS,
    als_low_rank,
    block_tails,
    check_circulant_blocks,
    critical_points,
    nullspace_commutant_dim,
    projection_fit_equivariant,
    recursive_component_count,
    score_components,
    unrealize,
    weighted_inner,
)
from permlin.perms import parse_permutation
from permlin.spectral import BlockSpectrum

from helpers import identity

ROT9 = parse_permutation("(1 4 3 2)(5 8 7 6)", 9)
CYCLE4 = parse_permutation("(1 2 3 4)", 4)


class TestNullspaceCommutant:
    def test_rotation_21(self):
        assert nullspace_commutant_dim([ROT9]) == 21

    def test_identity_16(self):
        assert nullspace_commutant_dim([identity(4)]) == 16

    def test_single_cycle_n(self):
        p = parse_permutation("(1 2 3 4 5 6)", 6)
        assert nullspace_commutant_dim([p]) == 6

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            nullspace_commutant_dim([identity(17)])


class TestRecursiveCount:
    def test_rotation_complex_17(self):
        spec = BlockSpectrum.from_cycle_lengths([4, 4, 1])
        assert recursive_component_count(spec, 3, "complex") == 17

    def test_zero_rank(self):
        spec = BlockSpectrum.from_cycle_lengths([4, 4, 1])
        assert recursive_component_count(spec, 0, "real") == 1

    def test_unknown_field(self):
        spec = BlockSpectrum.from_cycle_lengths([4, 4, 1])
        with pytest.raises(ComponentError, match="unknown field"):
            recursive_component_count(spec, 3, "quaternion")

    def test_size_cap(self):
        spec = BlockSpectrum.from_cycle_lengths([31])
        with pytest.raises(SizeCapError):
            recursive_component_count(spec, 3, "real")

    def test_calls_are_bounded_by_the_census(self, monkeypatch):
        # rank 97 of n=180: without the cut on what the later blocks can hold,
        # the recursion would walk every prefix whose sum stays below 97
        from permlin import oracles

        calls = [0]
        rank_vectors = oracles._rank_vectors

        def counted(blocks, r):
            calls[0] += 1
            return rank_vectors(blocks, r)

        monkeypatch.setattr(oracles, "_rank_vectors", counted)
        spec = BlockSpectrum.from_cycle_lengths([6] * 30)
        census = count_components(spec, 97, "real")
        assert recursive_component_count(spec, 97, "real") == census == 12056
        assert calls[0] <= 1 + len(spec.real_blocks) * census

    def test_census_cap(self):
        # 8 complex blocks of bound 30, within the other caps; 62,799,979 components
        spec = BlockSpectrum.from_cycle_lengths([8] * 30)
        assert count_components(spec, 40, "complex") > MAX_COUNT_CENSUS
        with pytest.raises(SizeCapError):
            recursive_component_count(spec, 40, "complex")


class TestScoreComponents:
    @pytest.mark.parametrize("lengths", [[4, 4, 1], [1, 2, 3, 4, 6], [12, 12], [5]])
    def test_lists_the_census_in_the_order_of_enumerate_components(self, lengths):
        # the oracle's plain recursion and the pruned fast enumeration are
        # separate code; both stream descending lexicographic order
        spec = BlockSpectrum.from_cycle_lengths(lengths)
        tails = [[0.0] * (b.size + 1) for b in spec.real_blocks]
        for r in range(spec.n + 2):
            listed = [v for v, _ in score_components(spec, r, tails, 0.0)]
            streamed = [d.rank_vector.values for d in enumerate_components(spec, r, "real", None)]
            assert listed == streamed
            assert len(listed) == count_components(spec, r, "real")

    def test_block_tails_rebuild_the_fit_losses_bit_for_bit(self):
        rng = np.random.default_rng(3)
        p = parse_permutation("(1 2 3 4 5 6)(7 8 9)", 10)
        x = rng.standard_normal((10, 30))
        y = rng.standard_normal((10, 30))
        spec = BlockSpectrum.from_cycle_lengths([6, 3, 1])
        for ridge in (None, 0.5):
            fit = fit_equivariant(x, y, p, 4, ridge=ridge)
            tails = block_tails(fit.per_block)
            assert [t[b.rank] for t, b in zip(tails, fit.per_block)] == [b.loss for b in fit.per_block]
            scored = dict(score_components(spec, 4, tails, fit.constant_loss))
            assert scored[fit.component.values] == fit.constant_loss + sum(b.loss for b in fit.per_block)


class TestAls:
    def test_consistent_data_reaches_zero(self):
        rng = np.random.default_rng(0)
        m0 = np.outer(rng.standard_normal(4), rng.standard_normal(4))
        x = rng.standard_normal((4, 10))
        assert als_low_rank(1, restarts=30, x=x, y=m0 @ x, seed=0) <= 1e-10

    def test_full_rank_matches_least_squares(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 8))
        y = rng.standard_normal((3, 8))
        ls = y @ x.T @ np.linalg.inv(x @ x.T)
        expected = float(np.linalg.norm(ls @ x - y) ** 2)
        assert als_low_rank(3, restarts=20, x=x, y=y, seed=0) <= expected + 1e-8

    def test_ed_form_matches_eckart_young(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((3, 3))
        s = np.linalg.svd(u, compute_uv=False)
        assert abs(als_low_rank(1, restarts=100, u=u, seed=0) - float(np.sum(s[1:] ** 2))) <= 1e-6

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            als_low_rank(1, x=np.zeros((13, 5)), y=np.zeros((13, 5)))


# each oracle takes a complex 4 x 4 matrix as its first matrix argument
COMPLEX_INPUT = {
    "check_circulant_blocks": lambda z: check_circulant_blocks(z, CYCLE4),
    "critical_points": lambda z: critical_points(z, 1),
    "als_low_rank": lambda z: als_low_rank(1, u=z),
    "projection_fit_equivariant": lambda z: projection_fit_equivariant(z, np.eye(4), CYCLE4, 1),
    "unrealize": unrealize,
    "weighted_inner": lambda z: weighted_inner(z, np.eye(4), np.eye(4)),
}


@pytest.mark.parametrize("oracle", sorted(COMPLEX_INPUT))
def test_oracles_reject_complex_input(oracle):
    """A complex matrix is rejected, not cast to its real part."""
    z = np.eye(4) + 1j * np.arange(16.0).reshape(4, 4)
    with pytest.raises(MatrixFormatError, match="complex"):
        COMPLEX_INPUT[oracle](z)
