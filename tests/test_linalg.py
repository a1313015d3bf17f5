import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from permlin.equivariant import classify_component, equivariant_project, is_equivariant
from permlin.errors import (
    ConvergenceError,
    IndefiniteError,
    MatrixFormatError,
    NonFiniteError,
    SizeMismatchError,
    StructuralError,
)
from permlin.invariant import (
    fit_invariant,
    invariant_autoencoder,
    invariant_project,
    invariant_space,
    is_singular_point,
    psi_compress,
    psi_expand,
)
from permlin.linalg import (
    eigh,
    numeric_rank,
    realize,
    require_data,
    require_real,
    svd,
    svdvals,
    within_structure,
)
from permlin.optimize import fit_equivariant, fit_rank_bounded, solve_equivariant, weighted_eckart_young
from permlin.oracles import unrealize, weighted_inner
from permlin.perms import Permutation, parse_permutation

from helpers import circulant, identity


class TestSvd:
    def test_diagonal(self):
        u, s, vh = svd(np.diag([3.0, 1.0]))
        assert np.allclose(s, [3.0, 1.0])
        assert np.allclose(np.abs(u), np.eye(2))

    def test_zero(self):
        assert np.allclose(svd(np.zeros((3, 2)))[1], 0.0)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 3))
        u, s, vh = svd(m)
        assert u.shape == (4, 3) and vh.shape == (3, 3)  # thin
        assert np.linalg.norm((u * s) @ vh - m) <= 1e-10 * (1 + np.linalg.norm(m))
        assert np.linalg.norm(u.T @ u - np.eye(3)) <= 1e-10
        assert np.linalg.norm(vh @ vh.T - np.eye(3)) <= 1e-10
        assert np.all(np.diff(s) <= 0)

    def test_complex_input(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        u, s, vh = svd(z)
        assert u.shape == (3, 3) and vh.shape == (3, 5)
        assert np.linalg.norm((u * s) @ vh - z) <= 1e-10 * np.linalg.norm(z)
        assert np.array_equal(svdvals(z), np.linalg.svd(z, compute_uv=False))

    def test_eigh_hermitian(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = a @ a.conj().T
        vals, vecs = eigh(h)
        assert np.all(np.diff(vals) >= 0)
        assert np.linalg.norm((vecs * vals) @ vecs.conj().T - h) <= 1e-10 * np.linalg.norm(h)


def _failure_sites(n):
    """Every caller of a decomposition that once let numpy's LinAlgError out,
    as a function of one n x n matrix."""
    cycle = Permutation(n, tuple(range(2, n + 1)) + (1,))
    space = invariant_space([identity(n)], n, n, 1)
    return {
        "svd": svd,
        "svdvals": svdvals,
        "eigh": eigh,
        "numeric_rank": numeric_rank,
        "classify_component": lambda m: classify_component(m, cycle),
        "is_singular_point": lambda m: is_singular_point(space, m),
        "invariant_autoencoder": lambda m: invariant_autoencoder(space, m),
        "eckart_young": lambda m: weighted_eckart_young(np.eye(len(m)), m),
    }


SITES = sorted(_failure_sites(2))
BAD = {"all_nan_3x3": np.full((3, 3), np.nan), "one_nan_2x2": np.array([[np.nan, 1.0], [0.0, 1.0]])}


class TestGuardedDecompositions:
    """One failure policy for every decomposition: a NaN or infinite input is
    NonFiniteError, a LAPACK failure is ConvergenceError."""

    @pytest.mark.parametrize("site", SITES)
    @pytest.mark.parametrize("bad", sorted(BAD))
    def test_non_finite_input(self, site, bad):
        m = BAD[bad]
        with pytest.raises(NonFiniteError):
            _failure_sites(m.shape[0])[site](m)

    @pytest.mark.parametrize("site", SITES)
    def test_lapack_failure(self, site, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        monkeypatch.setattr(np.linalg, "svd", fail)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            _failure_sites(3)[site](np.eye(3))

    def test_autoencoder_factor_svd_failure(self, monkeypatch):
        # numeric_rank's singular values succeed; the factoring SVD fails
        svd_of = np.linalg.svd

        def fail_with_vectors(a, full_matrices=True, compute_uv=True, **kwargs):
            if compute_uv:
                raise np.linalg.LinAlgError("forced failure")
            return svd_of(a, full_matrices=full_matrices, compute_uv=False, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fail_with_vectors)
        space = invariant_space([identity(3)], 3, 3, 1)
        with pytest.raises(ConvergenceError):
            invariant_autoencoder(space, np.outer([1.0, 2.0, 3.0], [1.0, 0.0, -1.0]))


class TestStructureChecksRejectNonFinite:
    def test_psi_compress(self):
        part = invariant_space([parse_permutation("(1 2)", 3)], 3, 3, 1).partition
        with pytest.raises(NonFiniteError):
            psi_compress(np.full((3, 3), np.nan), part)

    def test_unrealize(self):
        with pytest.raises(NonFiniteError):
            unrealize(np.full((2, 2), np.nan))

    def test_weighted_inner(self):
        a = np.ones((2, 2))
        for bad in (np.full((2, 2), np.nan), np.array([[np.inf, 0.0], [0.0, 1.0]])):
            with pytest.raises(NonFiniteError):
                weighted_inner(a, a, bad)
            with pytest.raises(NonFiniteError):
                weighted_inner(bad, a, np.eye(2))

    def test_is_equivariant(self):
        with pytest.raises(NonFiniteError):
            is_equivariant(np.full((3, 3), np.nan), parse_permutation("(1 2 3)", 3))

    def test_equivariant_project(self):
        bad = np.eye(3)
        bad[0, 1] = np.inf
        with pytest.raises(NonFiniteError):
            equivariant_project(bad, [parse_permutation("(1 2 3)", 3)])

    def test_invariant_project(self):
        part = invariant_space([parse_permutation("(1 2)", 3)], 3, 3, 1).partition
        with pytest.raises(NonFiniteError):
            invariant_project(np.full((3, 3), np.nan), part)

    def test_psi_expand(self):
        part = invariant_space([parse_permutation("(1 2)", 3)], 3, 3, 1).partition
        with pytest.raises(NonFiniteError):
            psi_expand(np.full((3, part.k), np.nan), part)


class TestRequireReal:
    """The one reader of a real matrix a caller passes in."""

    def test_float64_comes_back_uncopied(self):
        m = np.arange(6.0).reshape(2, 3)
        assert require_real(m, "M") is m
        got = require_real(np.arange(6).reshape(2, 3), "M", (2, None))
        assert got.dtype == np.float64 and np.array_equal(got, m)

    @pytest.mark.parametrize("bad, error", [
        (np.array([np.nan, 1j]), MatrixFormatError),  # complex before 1-D and NaN
        (np.array([["1.0", "2.0"]]), MatrixFormatError),  # text, even of numbers
        (np.array([[1.0, None]], dtype=object), MatrixFormatError),
        ([[1.0, 2.0, 3.0], [4.0]], MatrixFormatError),  # ragged rows
        (np.array([np.nan, 1.0]), SizeMismatchError),  # 1-D before NaN
        (np.full((2, 2, 2), np.nan), SizeMismatchError),
        (np.full((2, 2), np.nan), SizeMismatchError),  # shape before NaN
        (np.array([[1.0, 2.0, np.inf]]), NonFiniteError),
    ])
    def test_rejects_in_order(self, bad, error):
        with pytest.raises(error, match="^M "):
            require_real(bad, "M", (None, 3))

    def test_data_names_its_argument(self):
        with pytest.raises(MatrixFormatError, match="^Y has complex128 entries"):
            require_data(np.eye(2), np.eye(2) * 1j)
        with pytest.raises(SizeMismatchError, match="same number of samples"):
            require_data(np.eye(2), np.ones((2, 3)))

    @pytest.mark.parametrize("data", [[[1.0, 2.0], [3.0, 5.0]], np.array([[1, 2], [3, 5]]), np.eye(2)])
    def test_data_given_as_both_is_one_array(self, data, monkeypatch):
        """X given as both X and Y (a list, integers or float64) is gated once
        and comes back as one array, so a fit can tell that Y is X."""
        import permlin.linalg

        gated, require_finite = [], permlin.linalg.require_finite
        monkeypatch.setattr(permlin.linalg, "require_finite", lambda a, what: gated.append(what) or
                            require_finite(a, what))
        x, y = require_data(data, data)
        assert y is x and x.dtype == float and gated == ["X"]
        x, y = require_data(data, np.array(data, copy=True))
        assert y is not x and gated == ["X", "X", "Y"]


def _real_entry_points():
    """Each public entry point that reads a real matrix from its caller, as
    (call of that one matrix, a matrix the call accepts)."""
    p = parse_permutation("(1 2 3)", 3)
    space = invariant_space([parse_permutation("(1 2)", 3)], 3, 3, 1)
    y, tied = np.arange(9.0).reshape(3, 3), np.ones((3, 3))  # tied: columns 1 and 2 agree
    return {
        "fit_rank_bounded": (lambda m: fit_rank_bounded(m, y, 1), np.eye(3)),
        "solve_equivariant": (lambda m: solve_equivariant(m, y, p), np.eye(3)),
        "fit_equivariant": (lambda m: fit_equivariant(m, y, p, 1), np.eye(3)),
        "fit_invariant": (lambda m: fit_invariant(m, y, space), np.eye(3)),
        "equivariant_project": (lambda m: equivariant_project(m, [p]), np.eye(3)),
        "is_equivariant": (lambda m: is_equivariant(m, p), np.eye(3)),
        "classify_component": (lambda m: classify_component(m, p), np.eye(3)),
        "psi_compress": (lambda m: psi_compress(m, space.partition), tied),
        "is_singular_point": (lambda m: is_singular_point(space, m), tied),
        "invariant_autoencoder": (lambda m: invariant_autoencoder(space, m), tied),
        "psi_expand": (lambda m: psi_expand(m, space.partition), np.ones((3, space.partition.k))),
        "invariant_project": (lambda m: invariant_project(m, space.partition), np.eye(3)),
    }


CORRUPT = {
    "complex": (lambda m: m + 1j * np.ones_like(m), MatrixFormatError),
    "text": (lambda m: np.full(m.shape, "x"), MatrixFormatError),
    "row": (lambda m: m[0], SizeMismatchError),
}


class TestRealMatrixGate:
    """Every entry point reads its matrix through `require_real`: a complex
    matrix is never cast to its real part, and no numpy error escapes."""

    @pytest.mark.parametrize("case", sorted(CORRUPT))
    @pytest.mark.parametrize("site", sorted(_real_entry_points()))
    def test_rejects(self, site, case):
        call, good = _real_entry_points()[site]
        corrupt, error = CORRUPT[case]
        call(good)
        with pytest.raises(error):
            call(corrupt(good))


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(3)) == 3

    def test_outer_product(self):
        a, b = np.array([1.0, 2.0, -1.0]), np.array([3.0, 0.5])
        assert numeric_rank(np.outer(a, b)) == 1

    def test_threshold(self):
        assert numeric_rank(np.diag([1.0, 1e-14])) == 1

    def test_zero(self):
        assert numeric_rank(np.zeros((2, 2))) == 0


class TestWithinStructure:
    """The one membership rule runs its caller's pass at k = 0, and once
    more, at the k that puts 2^k max |a_ij| in [1/2, 1), only when
    ||a||_F^2 under- or overflows.  The pass here is the symmetry check."""

    @staticmethod
    def symmetry_pass(a):
        ks = []

        def squares(k):
            ks.append(k)
            b = np.ldexp(a, k)
            d = b - b.T
            return float(np.vdot(d, d)), float(np.vdot(b, b)), "rest"

        return ks, squares

    @staticmethod
    def matrix(asymmetry):
        a = np.random.default_rng(0).standard_normal((5, 5))
        a += a.T
        a[0, 1] += asymmetry * np.linalg.norm(a)
        return a

    @pytest.mark.parametrize("asymmetry, within", [(0.0, True), (1e-6, False)])
    def test_one_pass_at_a_safe_norm(self, asymmetry, within):
        a = self.matrix(asymmetry)
        ks, squares = self.symmetry_pass(a)
        assert within_structure(a, squares) == (within, 0, ["rest"])
        assert ks == [0]

    @pytest.mark.parametrize("exponent", [600, -600])
    @pytest.mark.parametrize("asymmetry, within", [(0.0, True), (1e-6, False)])
    def test_two_passes_at_an_unsafe_norm(self, exponent, asymmetry, within):
        a = np.ldexp(self.matrix(asymmetry), exponent)  # ||a||_F^2 overflows or underflows
        ks, squares = self.symmetry_pass(a)
        got, k, rest = within_structure(a, squares)
        assert (got, rest) == (within, ["rest"])
        assert ks == [0, k]
        assert 0.5 <= np.abs(np.ldexp(a, k)).max() < 1

    def test_zero_takes_one_pass(self):
        a = np.zeros((3, 3))
        ks, squares = self.symmetry_pass(a)
        assert within_structure(a, squares) == (True, 0, ["rest"])
        assert ks == [0]


class TestCirculant:
    def test_shift_block(self):
        C = circulant([0, 0, 0, 1])
        expected = np.array([
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
        ])
        assert np.array_equal(C, expected)

    def test_scalar(self):
        assert np.array_equal(circulant([5.0]), [[5.0]])

    def test_circulants_commute(self):
        rng = np.random.default_rng(1)
        v, w = rng.standard_normal(3), rng.standard_normal(3)
        A, B = circulant(v), circulant(w)
        assert np.allclose(A @ B, B @ A)


class TestRealize:
    def test_imaginary_unit(self):
        assert np.array_equal(realize(np.array([[1j]])), [[0.0, -1.0], [1.0, 0.0]])

    def test_real_input_scalar_blocks(self):
        out = realize(np.array([[2.0, 3.0]], dtype=complex))
        assert np.array_equal(out, [[2, 0, 3, 0], [0, 2, 0, 3]])

    def test_rank_doubles(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert numeric_rank(realize(z)) == 2 * np.linalg.matrix_rank(z)
        z[:, 1] = 1j * z[:, 0]  # complex rank 1
        assert numeric_rank(realize(z)) == 2

    def test_unrealize_round_trip(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert np.array_equal(unrealize(realize(z)), z)

    def test_unrealize_identity(self):
        assert unrealize(np.eye(2)) == np.array([[1.0 + 0j]])

    def test_unrealize_rejects_pattern_violation(self):
        with pytest.raises(StructuralError):
            unrealize(np.diag([1.0, 2.0]))

    def test_unrealize_odd_shape(self):
        with pytest.raises(StructuralError):
            unrealize(np.zeros((3, 4)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_realize_ring_homomorphism(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert np.linalg.norm(realize(z @ w) - realize(z) @ realize(w)) <= 1e-10 * (1 + np.linalg.norm(realize(z)) * np.linalg.norm(realize(w)))
    assert np.linalg.norm(realize(z + w) - (realize(z) + realize(w))) <= 1e-10


def test_circulant_commutes_with_shift():
    rng = np.random.default_rng(4)
    C = circulant(rng.standard_normal(5))
    P = circulant(np.eye(5)[4])  # (0,0,0,0,1)
    assert np.allclose(C @ P, P @ C)


class TestWeightedInner:
    def test_identity_weight(self):
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        assert weighted_inner(a, b, np.eye(4)) == pytest.approx(np.sum(a * b))

    def test_psd_nonnegative(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 6))
        a = rng.standard_normal((3, 4))
        assert weighted_inner(a, a, x @ x.T) >= 0

    def test_square_root_identity(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        w = rng.standard_normal((4, 5))
        w = w @ w.T
        vals, vecs = scipy.linalg.eigh(w)
        s = (vecs * np.sqrt(vals)) @ vecs.T
        lhs = weighted_inner(a, b, w)
        rhs = np.sum((a @ s) * (b @ s))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_asymmetric_rejected(self):
        with pytest.raises(IndefiniteError):
            weighted_inner(np.eye(2), np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))

