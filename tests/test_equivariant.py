import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from permlin.equivariant import (
    classify_component,
    component_degree_complex,
    component_dimension,
    count_components,
    describe_component,
    determinantal_degree,
    enumerate_components,
    equivariant_project,
    free_parameter_count,
    is_equivariant,
    make_rank_vector,
    pair_orbit_labels,
    parameterize_component,
)
from permlin.errors import (
    ComponentError,
    EquivarianceError,
    NonFiniteError,
    SearchLimitError,
    SizeMismatchError,
    StructuralError,
)
from permlin.invariant import invariant_space
from permlin.linalg import numeric_rank, realize
from permlin.oracles import (
    check_circulant_blocks,
    dense_base_change,
    nullspace_commutant_dim,
    recursive_component_count,
)
from permlin.perms import Permutation, cycle_decomposition, parse_permutation, permutation_matrix
from permlin.spectral import (
    BlockSpectrum,
    commutant_dimension,
    complex_base_change,
    eigen_multiplicities,
    real_base_change,
)

from helpers import circulant, commutator_ratio, random_perm

ROT9 = parse_permutation("(1 4 3 2)(5 8 7 6)", 9)
CHI9 = parse_permutation("(1 2)(3 4)(6 8)", 9)
SHIFT9 = parse_permutation("(1 5 2)(3 4 7)(6 8 9)", 9)
SPEC9 = eigen_multiplicities(cycle_decomposition(ROT9))


def commutant_basis(gens):
    """0/1 indicator matrices of the pair orbits: a basis of the commutant."""
    labels, count = pair_orbit_labels(gens)
    return [(labels == c).astype(np.int64) for c in range(count)]


@st.composite
def generator_sets(draw):
    """1-3 permutations of one ground set of size n <= 12, each moving a
    random subset of labels: the identity, fixed points, or none fixed."""
    n = draw(st.integers(1, 12))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        moved = draw(st.lists(st.integers(0, n - 1), unique=True))
        image = list(range(1, n + 1))
        for a, b in zip(moved, draw(st.permutations(moved))):
            image[a] = b + 1
        gens.append(Permutation(n, tuple(image)))
    return gens


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_pair_orbit_labels_are_the_orbits(gens):
    # labels constant on orbits, with as many values as the commutant has
    # dimensions: that pins the orbit partition
    labels, count = pair_orbit_labels(gens)
    for g in gens:
        img = np.asarray(g.image) - 1
        assert np.array_equal(labels[np.ix_(img, img)], labels)
    assert np.array_equal(np.unique(labels), np.arange(count))
    assert count == nullspace_commutant_dim(gens)
    if len(gens) == 1:
        assert count == commutant_dimension(cycle_decomposition(gens[0]))
    # (i, i) and (j, j) share an orbit exactly when i and j share a block of
    # the invariant partition; both come from perms.join_labels
    n = gens[0].n
    diagonal = np.diagonal(labels)
    part = invariant_space(gens, n, n, 0).partition
    assert np.array_equal(diagonal[:, None] == diagonal, part.labels[:, None] == part.labels)


class TestCommutantBasis:
    def test_rotation_21(self):
        assert len(commutant_basis([ROT9])) == 21

    def test_rotation_reflection_15(self):
        assert len(commutant_basis([ROT9, CHI9])) == 15

    def test_rotation_reflection_shift_3(self):
        assert len(commutant_basis([ROT9, CHI9, SHIFT9])) == 3

    def test_elements_commute_exactly(self):
        gens = [ROT9, CHI9]
        mats = [permutation_matrix(g) for g in gens]
        for B in commutant_basis(gens):
            for P in mats:
                assert np.array_equal(B @ P, P @ B)

    def test_basis_is_orbit_partition(self):
        basis = commutant_basis([ROT9])
        total = sum(b for b in basis)
        assert np.array_equal(total, np.ones((9, 9), dtype=np.int64))

    def test_two_generator_tying_pattern(self):
        # adding the reflection ties alpha_4=alpha_2, beta_3=beta_2,
        # beta_4=beta_1, gamma_2=gamma_1, gamma_4=gamma_3, delta_4=delta_2
        labels, count = pair_orbit_labels([ROT9, CHI9])
        assert count == 15
        row = labels[0, :4]
        assert row[1] == row[3] and len({row[0], row[1], row[2]}) == 3
        row = labels[0, 4:8]
        assert row[0] == row[3] and row[1] == row[2] and row[0] != row[1]
        row = labels[4, :4]
        assert row[0] == row[1] and row[2] == row[3] and row[0] != row[2]
        row = labels[4, 4:8]
        assert row[1] == row[3] and len({row[0], row[1], row[2]}) == 3
        # border weights: constant per cycle rectangle, scalar corner separate
        assert len(set(labels[8, :4])) == 1 and len(set(labels[:4, 8])) == 1
        assert labels[8, 8] not in set(labels[8, :4])

    def test_three_generator_diagonal_tying(self):
        # with rotation, reflection and row shift all imposed, the diagonal of
        # both 4-cycles and the fixed point carry one shared weight
        labels, count = pair_orbit_labels([ROT9, CHI9, SHIFT9])
        assert count == 3
        assert labels[0, 0] == labels[4, 4] == labels[8, 8]

    @pytest.mark.parametrize(
        "cycles, count",
        [
            # S_64: the diagonal and everything off it
            (["(1 2)", "(" + " ".join(map(str, range(1, 65))) + ")"], 2),
            # the dihedral group of the 64-gon: one orbit per distance 0..32
            (["(2 64)(3 63)" + "".join(f"({k} {66 - k})" for k in range(4, 33)),
              "(1 64)(2 63)" + "".join(f"({k} {65 - k})" for k in range(3, 33))], 33),
        ],
    )
    def test_orbit_graph_of_large_diameter(self, cycles, count):
        # each generator's classes link only neighbouring pair differences,
        # so the join has to cross about n/2 of them
        gens = [parse_permutation(c, 64) for c in cycles]
        labels, got = pair_orbit_labels(gens)
        assert got == count
        for g in gens:
            img = np.asarray(g.image) - 1
            assert np.array_equal(labels[np.ix_(img, img)], labels)


class TestCirculantBlocks:
    def build_matrotequi(self, rng):
        """The rotation-equivariant 9 x 9 pattern from circulant blocks."""
        a, b, g, d = (rng.standard_normal(4) for _ in range(4))
        e = rng.standard_normal(5)
        M = np.zeros((9, 9))
        M[:4, :4] = circulant(a)
        M[:4, 4:8] = circulant(b)
        M[4:8, :4] = circulant(g)
        M[4:8, 4:8] = circulant(d)
        M[:4, 8] = e[2]
        M[4:8, 8] = e[3]
        M[8, :4] = e[0]
        M[8, 4:8] = e[1]
        M[8, 8] = e[4]
        return M

    def test_pattern_matrix_passes(self):
        rng = np.random.default_rng(0)
        M = self.build_matrotequi(rng)
        assert check_circulant_blocks(M, ROT9)
        assert is_equivariant(M, ROT9)

    def test_random_dense_fails(self):
        rng = np.random.default_rng(1)
        assert not check_circulant_blocks(rng.standard_normal((9, 9)), ROT9)

    def test_two_criteria_agree(self):
        rng = np.random.default_rng(2)
        agree = 0
        for _ in range(200):
            n = int(rng.integers(2, 13))
            p = random_perm(rng, n)
            if rng.random() < 0.5:
                M = rng.standard_normal((n, n))
            else:
                M = equivariant_project(rng.standard_normal((n, n)), [p])
            assert check_circulant_blocks(M, p) == is_equivariant(M, p)
            agree += 1
        assert agree == 200


class TestCounting:
    def test_rotation_complex_17(self):
        assert count_components(SPEC9, 3, "complex") == 17

    def test_rotation_real_5(self):
        assert count_components(SPEC9, 3, "real") == 5

    def test_mnist_scale_real(self):
        spec = BlockSpectrum.from_cycle_lengths([28] * 28)
        assert count_components(spec, 99, "real") == 72_425_986_088_826

    def test_zero_rank(self):
        assert count_components(SPEC9, 0, "real") == 1
        assert count_components(SPEC9, 0, "complex") == 1

    @pytest.mark.parametrize("r", [3, 10])
    def test_unknown_field_rejected_at_any_rank(self, r):
        with pytest.raises(ComponentError, match="unknown field"):
            count_components(SPEC9, r, "quaternion")

    def test_matches_recursive_oracle_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            lengths = rng.integers(1, 7, size=rng.integers(1, 4))
            spec = BlockSpectrum.from_cycle_lengths(lengths)
            r = int(rng.integers(0, spec.n + 1))
            for field in ("complex", "real"):
                blocks = spec.complex_blocks if field == "complex" else spec.real_blocks
                if len(blocks) <= 8:
                    assert count_components(spec, r, field) == recursive_component_count(spec, r, field)

    def test_unbounded_reduces_to_compositions(self):
        # when every bound d_l is at least r, the complex census is plain
        # stars-and-bars over the number of eigenvalue groups
        for lengths, r in [([4] * 5, 4), ([3] * 6, 5), ([6] * 7, 6)]:
            spec = BlockSpectrum.from_cycle_lengths(lengths)
            assert all(b.size >= r for b in spec.complex_blocks)
            n_blocks = len(spec.complex_blocks)
            assert count_components(spec, r, "complex") == math.comb(r + n_blocks - 1, n_blocks - 1)

    def test_total_lattice_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            lengths = rng.integers(1, 9, size=rng.integers(1, 5))
            spec = BlockSpectrum.from_cycle_lengths(lengths)
            for field, blocks in (("complex", spec.complex_blocks), ("real", spec.real_blocks)):
                total = sum(count_components(spec, r, field) for r in range(0, 3 * spec.n + 1))
                prod = 1
                for b in blocks:
                    prod *= b.size + 1
                assert total == prod


class TestEnumeration:
    def test_real_rotation_list_descending_lex(self):
        descs = list(enumerate_components(SPEC9, 3, "real"))
        assert [d.rank_vector.values for d in descs] == [
            (3, 0, 0), (2, 1, 0), (1, 2, 0), (1, 0, 1), (0, 1, 1)]
        assert [d.dimension for d in descs] == [9, 11, 9, 11, 9]

    def test_zero_rank_single_component(self):
        descs = list(enumerate_components(SPEC9, 0, "real"))
        assert len(descs) == 1
        assert descs[0].rank_vector.values == (0, 0, 0)
        assert descs[0].dimension == 0

    def test_complex_dimension_multiset(self):
        descs = list(enumerate_components(SPEC9, 3, "complex"))
        assert len(descs) == 17
        dims = sorted(d.dimension for d in descs)
        assert dims == [7] * 6 + [9] * 5 + [11] * 6

    def test_complex_maximal_components(self):
        maximal = {d.rank_vector.values for d in enumerate_components(SPEC9, 3, "complex")
                   if d.dimension == 11}
        assert (2, 1, 0, 0) in maximal and (1, 0, 1, 1) in maximal
        assert len(maximal) == 6

    def test_limit_exceeded_reports_count(self):
        with pytest.raises(SearchLimitError, match="17"):
            list(enumerate_components(SPEC9, 3, "complex", limit=10))


class TestDimensionDegree:
    def test_full_rank_degree_one(self):
        rvec = make_rank_vector(SPEC9, "complex", (3, 2, 2, 2))
        assert component_degree_complex(rvec) == 1

    def test_degree_formula_values(self):
        # 2x2 rank-1 block has degree 2; products multiply
        assert determinantal_degree(2, 2, 1) == 2
        assert determinantal_degree(3, 3, 1) == 6
        rvec = make_rank_vector(SPEC9, "complex", (3, 1, 1, 0))
        assert component_degree_complex(rvec) == 2 * 2

    def test_degree_against_exact_fraction_oracle(self):
        from fractions import Fraction
        from math import factorial

        for m in range(1, 8):
            for n in range(1, 8):
                for r in range(0, min(m, n) + 1):
                    v = Fraction(1)
                    for i in range(n - r):
                        v *= Fraction(factorial(m + i) * factorial(i),
                                      factorial(r + i) * factorial(m - r + i))
                    assert v.denominator == 1
                    assert determinantal_degree(m, n, r) == int(v)

    def test_real_degree_unsupported(self):
        rvec = make_rank_vector(SPEC9, "real", (1, 0, 1))
        with pytest.raises(ComponentError):
            component_degree_complex(rvec)
        assert describe_component(rvec).degree is None

    def test_real_dimension_doubles_pairs(self):
        rvec = make_rank_vector(SPEC9, "real", (1, 0, 1))
        assert component_dimension(rvec) == 1 * (6 - 1) + 2 * (4 - 1) * 1

    def test_bounds_validated(self):
        with pytest.raises(ComponentError):
            make_rank_vector(SPEC9, "real", (4, 0, 0))
        with pytest.raises(ComponentError):
            make_rank_vector(SPEC9, "real", (1, 0))

    @pytest.mark.parametrize("bad", [1.9, True, "1", np.float64(1.0), np.True_],
                             ids=["float", "bool", "str", "numpy-float", "numpy-bool"])
    def test_non_integer_rank_rejected(self, bad):
        with pytest.raises(ComponentError, match="not an integer"):
            make_rank_vector(SPEC9, "real", (bad, 0, 0))

    def test_numpy_integer_ranks_accepted(self):
        rvec = make_rank_vector(SPEC9, "real", np.array([1, 0, 1]))
        assert rvec.values == (1, 0, 1) and all(type(v) is int for v in rvec.values)


class TestClassify:
    def test_constructed_block_ranks(self):
        bc = real_base_change(ROT9)
        B = np.zeros((9, 9))
        B[:3, :3] = np.eye(3)
        q = dense_base_change(bc)[0]
        M = q @ B @ q.T
        assert classify_component(M, ROT9).values == (3, 0, 0)

    def test_generic_real_form_pattern(self):
        rng = np.random.default_rng(5)
        bc = real_base_change(ROT9)
        B = np.zeros((9, 9))
        B[:3, :3] = rng.standard_normal((3, 3))
        B[3:5, 3:5] = rng.standard_normal((2, 2))
        B[5:9, 5:9] = realize(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        q = dense_base_change(bc)[0]
        M = q @ B @ q.T
        got = classify_component(M, ROT9)
        assert got.values == (3, 2, 2)
        assert got.total_rank == 9 == numeric_rank(M)

    def test_round_trip_through_parameterization(self):
        rng = np.random.default_rng(6)
        trials = 0
        while trials < 500:
            n = int(rng.integers(3, 10))
            p = random_perm(rng, n)
            bc = real_base_change(p)
            spec = bc.spectrum
            for _ in range(10):
                r = int(rng.integers(0, n + 1))
                if count_components(spec, r, "real") == 0:
                    continue
                descs = list(enumerate_components(spec, r, "real"))
                rvec = descs[rng.integers(len(descs))].rank_vector
                par = parameterize_component(rvec, p, rng=rng, base_change=bc)
                got = classify_component(par.decoder @ par.encoder, p, base_change=bc)
                assert got.values == rvec.values
                trials += 1
        assert trials >= 500

    def test_non_equivariant_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(EquivarianceError):
            classify_component(rng.standard_normal((9, 9)), ROT9)

    def test_odd_pair_rank_rejected(self):
        # block-diagonal in the Q basis, but the pair block's single entry
        # 1.0 is off the realization pattern: P M != M P, so the membership
        # test rejects it before any rank is read
        bc = real_base_change(ROT9)
        B = np.zeros((9, 9))
        B[5, 5] = 1.0
        q = dense_base_change(bc)[0]
        M = q @ B @ q.T
        with pytest.raises(EquivarianceError):
            classify_component(M, ROT9)

    def test_odd_pair_rank_within_the_bound_rejected(self):
        # I on the +-1 blocks and one 2e-9 entry in the pair block: the
        # commutator is under the bound, but the pair block reads rank 1,
        # which no real component contains
        bc = real_base_change(ROT9)
        B = np.zeros((9, 9))
        B[:5, :5] = np.eye(5)
        B[5, 5] = 2e-9
        q = dense_base_change(bc)[0]
        M = q @ B @ q.T
        assert is_equivariant(M, ROT9)
        with pytest.raises(StructuralError, match="odd rank 1"):
            classify_component(M, ROT9)

    def test_long_cycle_within_the_commutator_bound_is_classified(self):
        # on a 100-cycle, u 1^T with u_i = cos(2 pi i / 100) is orthogonal to
        # the commutant and has commutator 2 sin(pi/100) ||u 1^T||: at distance
        # 5e-8 ||M|| the commutator is 3.1e-9 ||M||, inside the bound
        n = 100
        p = Permutation(n, tuple(range(2, n + 1)) + (1,))
        e = np.outer(np.cos(2 * np.pi * np.arange(n) / n), np.ones(n))
        m = np.eye(n) + 5e-8 * np.linalg.norm(np.eye(n)) / np.linalg.norm(e) * e
        P = permutation_matrix(p).astype(float)
        assert np.linalg.norm(P @ m @ P.T - m) <= 3.2e-9 * np.linalg.norm(m)
        assert is_equivariant(m, p)
        assert classify_component(m, p).total_rank == n

    def test_two_cycle_past_the_commutator_bound_rejected(self):
        # on (1 2), u v^T with u = (1, 1)/sqrt 2, v = (1, -1)/sqrt 2 anticommutes
        # with the swap: at distance 0.8e-8 ||M|| the commutator is 1.6e-8 ||M||
        p = parse_permutation("(1 2)", 2)
        c = np.array([[2.0, 1.0], [1.0, 2.0]])
        u, v = np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)
        m = c + 0.8e-8 * np.linalg.norm(c) * np.outer(u, v)
        assert not is_equivariant(m, p)
        with pytest.raises(EquivarianceError):
            classify_component(m, p)

    def test_off_pattern_pair_block_rejected(self):
        # block-diagonal in the Q basis with an even pair-block rank, but the
        # pair block diag(1, 2) is no realization: P M != M P
        p = parse_permutation("(1 2 3)", 3)
        q, q_inv = dense_base_change(real_base_change(p))
        M = q @ np.diag([1.0, 1.0, 2.0]) @ q_inv
        assert not is_equivariant(M, p)
        with pytest.raises(EquivarianceError, match="not equivariant"):
            classify_component(M, p)

    def test_singularity_law(self):
        # a matrix lies in the singular locus of the rank <= r set iff its
        # total rank is < r: classify rank-deficient constructions
        rng = np.random.default_rng(8)
        rvec = make_rank_vector(SPEC9, "real", (1, 1, 0))  # total 2 < 3
        par = parameterize_component(rvec, ROT9, rng=rng)
        M = par.decoder @ par.encoder
        got = classify_component(M, ROT9)
        assert got.total_rank == 2 < 3

    def test_base_change_of_another_permutation_rejected(self):
        # (1 2)(3 4 5) and (1 2 3)(4 5) share their spectrum, so their block
        # layouts agree, but the Q basis of one puts the other's blocks in place
        p = parse_permutation("(1 2)(3 4 5)", 5)
        q = parse_permutation("(1 2 3)(4 5)", 5)
        foreign = real_base_change(q)
        assert foreign.spectrum.real_blocks == real_base_change(p).spectrum.real_blocks
        rvec = make_rank_vector(eigen_multiplicities(cycle_decomposition(p)), "real", (1, 1, 1))
        par = parameterize_component(rvec, p, rng=np.random.default_rng(13))
        m = par.decoder @ par.encoder
        for bc in (foreign, complex_base_change(p)):
            with pytest.raises(SizeMismatchError, match="not the real base change"):
                classify_component(m, p, base_change=bc)
            with pytest.raises(SizeMismatchError, match="not the real base change"):
                parameterize_component(rvec, p, rng=np.random.default_rng(13), base_change=bc)
        assert classify_component(m, p, base_change=real_base_change(p)) == rvec


class TestParameterize:
    def test_fig3_sparsity_pattern(self):
        rng = np.random.default_rng(9)
        rvec = make_rank_vector(SPEC9, "real", (1, 0, 1))
        par = parameterize_component(rvec, ROT9, rng=rng)
        D, E = par.tilde_decoder, par.tilde_encoder
        assert D.shape == (9, 3) and E.shape == (3, 9)
        # rows 4-5 (0-based 3, 4) of the decoder and the matching encoder
        # columns are inactive
        assert np.all(D[3:5, :] == 0.0) and np.all(E[:, 3:5] == 0.0)
        assert par.pattern.inactive_inputs == (3, 4)
        # block sparsity: top-left 3x1 real block, bottom 4x2 realization block
        assert np.all(D[:3, 1:] == 0.0) and np.all(D[5:, 0] == 0.0)
        z = D[5:9, 1:3]
        assert np.allclose(z[0::2, 0::2], z[1::2, 1::2])
        assert np.allclose(z[0::2, 1::2], -z[1::2, 0::2])

    def test_rank1_invariant_type_component_is_block_constant_outer_product(self):
        rng = np.random.default_rng(10)
        rvec = make_rank_vector(SPEC9, "real", (1, 0, 0))
        par = parameterize_component(rvec, ROT9, rng=rng)
        M = par.decoder @ par.encoder
        assert numeric_rank(M) == 1
        # entries constant on each cycle x cycle rectangle
        cycles = [list(range(0, 4)), list(range(4, 8)), [8]]
        for ci in cycles:
            for cj in cycles:
                sub = M[np.ix_(ci, cj)]
                assert np.abs(sub - sub[0, 0]).max() <= 1e-12

    def test_zero_rank_vector(self):
        rvec = make_rank_vector(SPEC9, "real", (0, 0, 0))
        par = parameterize_component(rvec, ROT9)
        assert par.decoder.shape == (9, 0) and par.encoder.shape == (0, 9)
        assert np.all(par.decoder @ par.encoder == 0.0)

    def test_given_factors_and_shape_validation(self):
        rng = np.random.default_rng(11)
        rvec = make_rank_vector(SPEC9, "real", (2, 1, 1))
        factors = [
            (rng.standard_normal((3, 2)), rng.standard_normal((2, 3))),
            (rng.standard_normal((2, 1)), rng.standard_normal((1, 2))),
            (rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)),
             rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))),
        ]
        par = parameterize_component(rvec, ROT9, factors=factors)
        assert classify_component(par.decoder @ par.encoder, ROT9).values == rvec.values

    def test_given_factors_need_one_pair_per_block(self):
        rng = np.random.default_rng(14)
        rvec = make_rank_vector(SPEC9, "real", (1, 0, 1))
        short = [(rng.standard_normal((3, 1)), rng.standard_normal((1, 3)))]
        with pytest.raises(SizeMismatchError, match="factor pairs, one per block"):
            parameterize_component(rvec, ROT9, factors=short)

    @pytest.mark.parametrize("block, side, value", [(0, 0, np.nan), (2, 1, np.inf)])
    def test_given_factors_must_be_finite(self, block, side, value):
        rng = np.random.default_rng(15)
        rvec = make_rank_vector(SPEC9, "real", (1, 0, 1))
        factors = [[rng.standard_normal((3, 1)), rng.standard_normal((1, 3))],
                   [np.zeros((2, 0)), np.zeros((0, 2))],
                   [rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)),
                    rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))]]
        factors[block][side].flat[0] = value
        with pytest.raises(NonFiniteError):
            parameterize_component(rvec, ROT9, factors=factors)

    def test_given_factors_of_a_real_block_must_be_real(self):
        rng = np.random.default_rng(16)
        rvec = make_rank_vector(SPEC9, "real", (1, 0, 0))
        factors = [(rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)), rng.standard_normal((1, 3))),
                   (np.zeros((2, 0)), np.zeros((0, 2))),
                   (np.zeros((2, 0)), np.zeros((0, 2)))]
        with pytest.raises(StructuralError, match="cannot be complex"):
            parameterize_component(rvec, ROT9, factors=factors)

    def test_complex_only_vector_rejected(self):
        with pytest.raises(ComponentError):
            parameterize_component(make_rank_vector(SPEC9, "complex", (1, 0, 0, 0)), ROT9)

    def test_groups_cover_nonzero_support(self):
        rng = np.random.default_rng(12)
        rvec = make_rank_vector(SPEC9, "real", (1, 1, 1))
        par = parameterize_component(rvec, ROT9, rng=rng)
        covered = np.zeros(par.tilde_decoder.shape, dtype=bool)
        for group in par.pattern.decoder_groups:
            vals = []
            for (i, j, s) in group:
                covered[i, j] = True
                vals.append(s * par.tilde_decoder[i, j])
            assert np.ptp(vals) <= 1e-12  # equal up to recorded signs
        assert np.array_equal(covered, par.tilde_decoder != 0.0)


class TestFreeParameters:
    def test_mnist_architecture_count(self):
        spec = BlockSpectrum.from_cycle_lengths([28] * 28)
        # canonical block order: plus, minus, then pairs (l asc, m asc)
        by_label = {(b.l, b.m): i for i, b in enumerate(spec.real_blocks)}
        values = [0] * len(spec.real_blocks)
        architecture_ranks = {
            (1, 1): 13, (28, 27): 10, (14, 13): 9, (28, 25): 8, (7, 6): 7,
            (28, 23): 5, (14, 11): 3, (4, 3): 1,
        }
        for label, r in architecture_ranks.items():
            values[by_label[label]] = r
        rvec = make_rank_vector(spec, "real", values)
        assert rvec.total_rank == 99
        assert free_parameter_count(rvec) == 5544

    def test_dense_comparison(self):
        assert 2 * 99 * 784 == 155_232


def test_equivariant_project_properties():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((9, 9))
    proj = equivariant_project(M, [ROT9])
    assert commutator_ratio(proj, ROT9) <= 1e-12
    assert np.allclose(equivariant_project(proj, [ROT9]), proj)
    assert abs(np.sum((M - proj) * proj)) <= 1e-9
    # multi-generator projection lands in the smaller commutant
    proj3 = equivariant_project(M, [ROT9, CHI9, SHIFT9])
    for g in (ROT9, CHI9, SHIFT9):
        assert commutator_ratio(proj3, g) <= 1e-12


def test_equivariant_project_checks_the_shape_first():
    """A wrong-shaped matrix is rejected before the n x n orbit labels are
    built; against the 48x48 shift (n=2304) they take tens of megabytes."""
    import tracemalloc

    from permlin.datasets import horizontal_shift_permutation

    sigma = horizontal_shift_permutation(48, 48)
    m = np.ones((5, 5))
    tracemalloc.start()
    try:
        with pytest.raises(SizeMismatchError):
            equivariant_project(m, [sigma])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_classify_rejects_before_the_base_change():
    """A non-equivariant matrix is rejected by the commutator gather alone,
    before the conjugation allocates its n x n copies: against the 32x32
    shift (n=1024) the peak stays below 2.5 n^2 float64 beyond M."""
    import tracemalloc

    from permlin.datasets import horizontal_shift_permutation

    sigma = horizontal_shift_permutation(32, 32)
    m = np.random.default_rng(15).standard_normal((sigma.n, sigma.n))
    tracemalloc.start()
    try:
        with pytest.raises(EquivarianceError):
            classify_component(m, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * m.nbytes


def test_pair_orbit_labels_dimension_large():
    # shift on 784 pixels: commutant dimension = sum phi(l) d_l^2 = 784 * 28
    from permlin.datasets import horizontal_shift_permutation

    labels, count = pair_orbit_labels([horizontal_shift_permutation(28, 28)])
    assert count == 28 * 28 * 28


def test_is_equivariant_matches_dense_permutation_products():
    # indexing by the image replaces the dense products bit for bit
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        p = random_perm(rng, n)
        P = permutation_matrix(p).astype(float)
        img = np.asarray(p.image) - 1
        m = rng.standard_normal((n, n))
        assert np.array_equal(m[:, np.argsort(img)], m @ P)
        assert np.array_equal(m[img], P @ m)
        for eps in (0.0, 1e-10, 1e-6):
            near = equivariant_project(m, [p]) + eps * rng.standard_normal((n, n))
            dense = np.linalg.norm(near @ P - P @ near) <= 1e-8 * (1.0 + np.linalg.norm(near))
            assert is_equivariant(near, p) == dense


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.permutations(range(1, n + 1))),
       st.sampled_from(["none", "dense", "block"]), st.sampled_from([1e-4, 1e-2, 0.5]),
       st.integers(0, 2**32 - 1))
def test_classify_rejects_exactly_the_non_equivariant(image, kind, eps, seed):
    """classify_component raises EquivarianceError exactly when
    is_equivariant is False, away from the tolerance boundary.  The input is
    an equivariant matrix plus a perturbation of relative size eps <= 1/2
    (so that the sum is never zero): none, a
    dense one, or one that is block diagonal in the Q basis and so leaves
    the off-block mass at zero and moves the pair blocks off the
    realization pattern."""
    p = Permutation(len(image), tuple(image))
    n = p.n
    rng = np.random.default_rng(seed)
    bc = real_base_change(p)
    m = equivariant_project(rng.standard_normal((n, n)), [p])
    if kind == "dense":
        e = rng.standard_normal((n, n))
    else:
        e = np.zeros((n, n))
        if kind == "block":
            for sl in bc.block_slices:
                e[sl, sl] = rng.standard_normal((sl.stop - sl.start, sl.stop - sl.start))
            q, q_inv = dense_base_change(bc)
            e = q @ e @ q_inv
    if kind != "none":
        m = m + eps * np.linalg.norm(m) / np.linalg.norm(e) * e
    P = permutation_matrix(p).astype(float)
    rel = np.linalg.norm(P @ m - m @ P) / np.linalg.norm(m)
    assume(rel < 1e-12 or rel > 1e-6)
    try:
        classify_component(m, p, base_change=bc)
        rejected = False
    except EquivarianceError:
        rejected = True
    assert rejected == (not is_equivariant(m, p))
