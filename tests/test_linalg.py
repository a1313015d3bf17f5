import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from permlin.errors import IndefiniteError, StructuralError
from permlin.linalg import (
    circulant,
    numeric_rank,
    realize,
    svd,
    unrealize,
    weighted_inner,
)


class TestSvd:
    def test_diagonal(self):
        res = svd(np.diag([3.0, 1.0]))
        assert np.allclose(res.singular_values, [3.0, 1.0])
        assert np.allclose(np.abs(res.u), np.eye(2))

    def test_zero(self):
        assert np.allclose(svd(np.zeros((3, 2))).singular_values, 0.0)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 3))
        res = svd(m)
        assert np.linalg.norm(res.reconstruct() - m) <= 1e-10 * (1 + np.linalg.norm(m))
        assert np.linalg.norm(res.u.T @ res.u - np.eye(4)) <= 1e-10
        assert np.linalg.norm(res.vt @ res.vt.T - np.eye(3)) <= 1e-10
        assert np.all(np.diff(res.singular_values) <= 0)


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

