import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from permlin.equivariant import (
    classify_component,
    equivariant_project,
    is_equivariant,
    make_rank_vector,
    parameterize_component,
)
from permlin.errors import ComponentError, SizeMismatchError
from permlin.linalg import realize
from permlin.optimize import solve_equivariant
from permlin.oracles import (
    dense_base_change,
    expected_block_form,
    nullspace_commutant_dim,
    vandermonde_base_change,
)
from permlin.perms import Permutation, cycle_decomposition, parse_permutation, permutation_matrix
from permlin.spectral import (
    BlockSpectrum,
    commutant_dimension,
    cycle_runs,
    eigen_multiplicities,
    euler_phi,
    real_base_change,
)

from helpers import identity, random_perm, traced

ROT9 = parse_permutation("(1 4 3 2)(5 8 7 6)", 9)


class TestMultiplicities:
    def test_rotation(self):
        spec = eigen_multiplicities(cycle_decomposition(ROT9))
        assert spec.multiplicities == {1: 3, 2: 2, 4: 2}
        assert len(spec.cycle_lengths) == 3

    def test_mnist_scale(self):
        spec = BlockSpectrum.from_cycle_lengths([28] * 28)
        assert spec.multiplicities == {l: 28 for l in (1, 2, 4, 7, 14, 28)}
        pairs = [b for b in spec.real_blocks if b.kind == "complex_pair"]
        reals = [b for b in spec.real_blocks if b.kind != "complex_pair"]
        assert len(pairs) == 13 and len(reals) == 2

    def test_identity(self):
        spec = eigen_multiplicities(cycle_decomposition(identity(5)))
        assert spec.multiplicities == {1: 5}
        assert spec.real_blocks[0].kind == "real_plus" and len(spec.real_blocks) == 1

    def test_block_size_sums(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = random_perm(rng, int(rng.integers(2, 15)))
            spec = eigen_multiplicities(cycle_decomposition(p))
            assert sum(b.size for b in spec.complex_blocks) == p.n
            assert sum(b.rows for b in spec.real_blocks) == p.n
            # one real pair entry per {m, l-m} pair with l >= 3
            for l, d in spec.multiplicities.items():
                if l >= 3:
                    n_pairs = sum(1 for b in spec.real_blocks if b.kind == "complex_pair" and b.l == l)
                    assert n_pairs == euler_phi(l) // 2

    def test_rank_multiplier_per_kind(self):
        spec = BlockSpectrum.from_cycle_lengths([1, 2, 3, 4])
        assert [(b.kind, b.rank_multiplier, b.rows) for b in spec.real_blocks] == [
            ("real_plus", 1, 4), ("real_minus", 1, 2), ("complex_pair", 2, 2), ("complex_pair", 2, 2)]
        assert {(b.kind, b.rank_multiplier) for b in spec.complex_blocks} == {("complex", 1)}
        assert spec.blocks("real") is spec.real_blocks and spec.blocks("complex") is spec.complex_blocks

    def test_unknown_field_rejected(self):
        spec = BlockSpectrum.from_cycle_lengths([4])
        for read in (spec.blocks, spec.slices):
            with pytest.raises(ComponentError, match="unknown field"):
                read("quaternion")

    def test_d_recount(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_perm(rng, int(rng.integers(2, 20)))
            cd = cycle_decomposition(p)
            spec = eigen_multiplicities(cd)
            for l, d in spec.multiplicities.items():
                assert d == sum(1 for L in cd.lengths if L % l == 0)


class TestCommutantDimension:
    def test_rotation_21(self):
        assert commutant_dimension(cycle_decomposition(ROT9)) == 21

    def test_identity_n_squared(self):
        assert commutant_dimension(cycle_decomposition(identity(5))) == 25

    def test_single_cycle_equals_n(self):
        for n in (2, 3, 6, 8):
            p = parse_permutation("(" + " ".join(map(str, range(1, n + 1))) + ")", n)
            assert commutant_dimension(cycle_decomposition(p)) == n
            assert nullspace_commutant_dim([p]) == n

    def test_matches_nullspace_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_perm(rng, int(rng.integers(2, 13)))
            assert commutant_dimension(cycle_decomposition(p)) == nullspace_commutant_dim([p])


def complex_form(p):
    """The diagonal the oracle T is documented to turn P_sigma into: each
    complex block's eigenvalue e^{2 pi i m / l}, `size` times, in canonical order."""
    spec = eigen_multiplicities(cycle_decomposition(p))
    return np.diag(np.concatenate([np.full(b.size, np.exp(2j * np.pi * b.m / b.l)) for b in spec.complex_blocks]))


class TestComplexBaseChange:
    """The complex diagonalizing T of `oracles.vandermonde_base_change`, the
    reference whose eigenspaces the real Q must span."""

    def test_worked_example_diagonal(self):
        p = parse_permutation("3,5,4,1,2", 5)
        T, T_inv = vandermonde_base_change(p)
        D = T_inv @ permutation_matrix(p) @ T
        off = D - np.diag(np.diag(D))
        assert np.linalg.norm(off) <= 1e-10
        # grouped canonical order: (1,1) twice, then -1, then zeta3, zeta3^2
        zeta3 = np.exp(2j * np.pi / 3)
        assert np.allclose(np.diag(D), [1, 1, -1, zeta3, zeta3**2])

    def test_ungrouped_diagonal_matches_display(self):
        # before grouping, the per-cycle Vandermonde diagonal is (1, z3^2, z3, 1, -1)
        import scipy.linalg

        p = parse_permutation("3,5,4,1,2", 5)
        from permlin.spectral import _cycle_sort_order

        order = _cycle_sort_order(cycle_decomposition(p))
        P = permutation_matrix(p).astype(complex)
        T1 = np.zeros((5, 5))
        for t, lab in enumerate(order):
            T1[lab, t] = 1.0
        z3 = np.exp(2j * np.pi / 3)
        V3 = np.array([[z3 ** (i * j) for j in range(3)] for i in range(3)])
        V2 = np.array([[1, 1], [1, -1]], dtype=complex)
        T2 = scipy.linalg.block_diag(V3, V2)
        D = np.linalg.solve(T2, T1.T @ P @ T1 @ T2)
        assert np.allclose(np.diag(D), [1, z3**2, z3, 1, -1])
        assert np.linalg.norm(D - np.diag(np.diag(D))) <= 1e-10

    def test_identity(self):
        T, T_inv = vandermonde_base_change(identity(3))
        assert np.array_equal(T, np.eye(3)) and np.array_equal(T_inv, np.eye(3))

    def test_rotation_eigenvalue_multiset(self):
        T, T_inv = vandermonde_base_change(ROT9)
        D = T_inv @ permutation_matrix(ROT9) @ T
        diag = np.diag(D)
        evals = np.linalg.eigvals(permutation_matrix(ROT9).astype(complex))
        # multiset equality against a direct numerical eigendecomposition
        assert np.allclose(np.sort_complex(diag), np.sort_complex(evals), atol=1e-9)
        for lam, count in [(1, 3), (-1, 2), (1j, 2), (-1j, 2)]:
            assert np.sum(np.abs(diag - lam) < 1e-9) == count

    def test_inverse_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_perm(rng, int(rng.integers(2, 12)))
            n = p.n
            T, T_inv = vandermonde_base_change(p)
            assert np.linalg.norm(T @ T_inv - np.eye(n)) <= 1e-10 * n
            D = T_inv @ permutation_matrix(p) @ T
            assert np.linalg.norm(D - complex_form(p)) <= 1e-9


class TestRealBaseChange:
    def test_rotation_block_form(self):
        bc = real_base_change(ROT9)
        q, q_inv = dense_base_change(bc)
        B = q_inv @ permutation_matrix(ROT9) @ q
        Ri = np.array([[0.0, -1.0], [1.0, 0.0]])
        expected = np.zeros((9, 9))
        expected[:3, :3] = np.eye(3)
        expected[3:5, 3:5] = -np.eye(2)
        expected[5:7, 5:7] = Ri
        expected[7:9, 7:9] = Ri
        assert np.linalg.norm(B - expected) <= 1e-9
        assert np.linalg.norm(B - expected_block_form(bc)) <= 1e-9

    def test_identity(self):
        bc = real_base_change(identity(4))
        assert np.allclose(dense_base_change(bc)[0], np.eye(4))

    def test_single_4cycle_factor_matches_display(self):
        p = parse_permutation("(1 4 3 2)", 4)
        bc = real_base_change(p)
        s2 = np.sqrt(2.0)
        O = 0.5 * np.array([
            [1, 1, s2, 0],
            [1, -1, 0, s2],
            [1, 1, -s2, 0],
            [1, -1, 0, -s2],
        ])
        q, q_inv = dense_base_change(bc)
        assert np.linalg.norm(q - O) <= 1e-12
        B = q_inv @ permutation_matrix(p) @ q
        expected = np.zeros((4, 4))
        expected[0, 0], expected[1, 1] = 1.0, -1.0
        expected[2:, 2:] = [[0, -1], [1, 0]]
        assert np.linalg.norm(B - expected) <= 1e-12

    def test_orthogonality_and_conjugation_random(self):
        rng = np.random.default_rng(4)
        for _ in range(15):
            p = random_perm(rng, int(rng.integers(2, 41)))
            bc = real_base_change(p)
            n = p.n
            Q, Q_inv = dense_base_change(bc)
            assert np.linalg.norm(Q @ Q.T - np.eye(n)) <= 1e-9
            B = Q_inv @ permutation_matrix(p) @ Q
            assert np.linalg.norm(B - expected_block_form(bc)) <= 1e-9

    def test_blocks_have_disjoint_eigenvalues(self):
        bc = real_base_change(ROT9)
        spectra = []
        B = expected_block_form(bc)
        for sl in bc.block_slices:
            spectra.append(set(np.round(np.linalg.eigvals(B[sl, sl]), 9)))
        for i in range(len(spectra)):
            for j in range(i + 1, len(spectra)):
                assert not (spectra[i] & spectra[j])

    def test_pair_block_is_realized_scalar(self):
        # the (l, m) pair block of the conjugated form is realize(zeta_l^{l-m} Id)
        p = parse_permutation("(1 2 3 4 5 6)", 6)
        bc = real_base_change(p)
        q, q_inv = dense_base_change(bc)
        B = q_inv @ permutation_matrix(p) @ q
        for blk, sl in zip(bc.spectrum.real_blocks, bc.block_slices):
            if blk.kind == "complex_pair":
                zeta = np.exp(2j * np.pi * (blk.l - blk.m) / blk.l)
                assert np.linalg.norm(B[sl, sl] - realize(zeta * np.eye(blk.size, dtype=complex))) <= 1e-10


# the factor's O^T x against numpy's FFT: the largest error seen over 20
# Gaussian x per length was 1.6 L eps ||x||
FFT_C = 4


def test_cycle_factor_is_the_real_dft():
    """Per cycle, the base change is a real DFT, pinned to numpy's FFT and
    not to the library: for L = 1..64, O^T x for the factor O of one
    L-cycle is rfft(x) in half-complex order, Re F_0 / sqrt(L), then
    sqrt(2 / L) (Re F_k, -Im F_k) for 1 <= k < L / 2, then Re F_{L/2} /
    sqrt(L) when L is even, within FFT_C L eps ||x||."""
    from permlin.perms import consecutive_cycles

    rng = np.random.default_rng(73)
    for L in range(1, 65):
        o = real_base_change(consecutive_cycles([L])).factors[L]
        x = rng.standard_normal((L, 20))
        f = np.fft.rfft(x, axis=0)
        want = np.empty((L, 20))
        want[0] = f[0].real / np.sqrt(L)
        k = np.arange(1, (L + 1) // 2)
        want[2 * k - 1], want[2 * k] = np.sqrt(2 / L) * f[k].real, -np.sqrt(2 / L) * f[k].imag
        if L % 2 == 0:
            want[L - 1] = f[L // 2].real / np.sqrt(L)
        err = np.abs(o.T @ x - want).max(axis=0)
        assert (err <= FFT_C * L * np.finfo(float).eps * np.linalg.norm(x, axis=0)).all(), L


@st.composite
def cycle_type_perms(draw, max_n=30):
    """A permutation of random cycle type on n <= max_n points, with the
    labels of its cycles shuffled."""
    n = draw(st.integers(1, max_n))
    lengths, left = [], n
    while left:
        lengths.append(draw(st.integers(1, left)))
        left -= lengths[-1]
    return perm_of_lengths(lengths, draw(st.integers(0, 2**32 - 1)))


def perm_of_lengths(lengths, seed):
    n = sum(lengths)
    labels = np.random.default_rng(seed).permutation(n) + 1
    image = [0] * n
    start = 0
    for l in lengths:
        cyc = labels[start:start + l]
        for a, b in zip(cyc, np.roll(cyc, -1)):
            image[a - 1] = int(b)
        start += l
    return Permutation(n, tuple(image))


@settings(max_examples=80, deadline=None)
@given(cycle_type_perms(), st.integers(0, 2**32 - 1))
@example(perm_of_lengths([1, 3, 1, 2, 3, 4, 6], 0), 0)
@example(identity(1), 0)
def test_factored_base_change_matches_dense(p, seed):
    """to_basis and from_basis agree with products by the dense Q and Q^T,
    on fixed points and mixed cycle lengths, and act on columns only."""
    bc = real_base_change(p)
    rng = np.random.default_rng(seed)
    n = p.n
    x = rng.standard_normal((n, int(rng.integers(0, 5))))
    T, T_inv = dense_base_change(bc)

    def close(fast, dense, a):
        assert fast.shape == dense.shape
        assert np.linalg.norm(fast - dense) <= 1e-12 * (1.0 + np.linalg.norm(a))

    close(bc.to_basis(x), T_inv @ x, x)
    close(bc.from_basis(x), T @ x, x)
    for change in (bc.to_basis, bc.from_basis):
        with pytest.raises(SizeMismatchError):
            change(rng.standard_normal(n))


@settings(max_examples=80, deadline=None)
@given(cycle_type_perms())
@example(perm_of_lengths([1, 3, 1, 2, 3, 4, 6], 0))
@example(identity(1))
def test_real_blocks_span_the_complex_eigenspaces(p):
    """Q is the real form of the oracle's complex T: the columns of Q at
    each real block lie in the span of T's columns at that block's
    eigenvalues, both conjugates on a pair block, and fill it."""
    bc = real_base_change(p)
    q = dense_base_change(bc)[0]
    t = vandermonde_base_change(p)[0]
    spec = bc.spectrum
    cols = {(b.l, b.m): sl for b, sl in zip(spec.complex_blocks, spec.slices("complex"))}
    for blk, sl in zip(spec.real_blocks, bc.block_slices):
        keys = [(blk.l, blk.m)] + ([(blk.l, blk.l - blk.m)] if blk.kind == "complex_pair" else [])
        span = np.hstack([t[:, cols[k]] for k in keys])
        assert span.shape[1] == sl.stop - sl.start
        coef = np.linalg.lstsq(span, q[:, sl], rcond=None)[0]
        assert np.linalg.norm(span @ coef - q[:, sl]) <= 1e-12 * p.n


def test_hot_paths_stay_matrix_free():
    """Fitting, classifying and parameterizing never build the dense base change."""
    p = perm_of_lengths([1, 2, 3, 4, 4, 6], 5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((p.n, 2 * p.n))
    y = rng.standard_normal((p.n, 2 * p.n))
    solve = solve_equivariant(x, y, p)
    bc = solve.base_change
    fit = solve.fit(5)
    assert classify_component(fit.minimizer, p, base_change=bc) == fit.component
    par = parameterize_component(fit.component, p, rng=rng, base_change=bc)
    assert classify_component(par.decoder @ par.encoder, p, base_change=bc) == fit.component
    # no n x n array is held, cached properties included
    assert not [k for k, v in vars(bc).items() if getattr(v, "shape", None) == (p.n, p.n)]


def test_one_generator_reads_orbit_sums_not_labels():
    """With one generator, projecting, classifying and `is_equivariant`
    build no n x n labels and change no basis, on the 32 x 32 shift and on
    n = 1024 labels in 40 fixed points and cycles of lengths 7, 9, 12, 24
    and 30 on shuffled labels.  Under tracemalloc, beyond M, projecting
    peaks at most 1.25 n^2 float64, its output alone being n^2; classifying
    peaks at most 0.25 n^2, since its one cycle-order pass over M holds a
    batch of whole row cycles, its scratch and the orbit-sum tables, and no
    n^2 copy.  `is_equivariant` holds the batch and its scratch alone, and
    its input check no n^2 mask: 0.12 n^2 on both, bounded at 0.15 n^2, a
    quarter above."""
    from permlin import equivariant, spectral
    from permlin.datasets import horizontal_shift_permutation
    from permlin.perms import consecutive_cycles

    rng = np.random.default_rng(21)
    # relabel i -> pi(i), so that no cycle is on contiguous labels
    mixed = consecutive_cycles([1] * 40 + [7, 9, 12] * 30 + [30] * 4 + [24])
    pi = rng.permutation(mixed.n)
    image = np.empty(mixed.n, dtype=int)
    image[pi] = pi[np.asarray(mixed.image) - 1] + 1
    mixed = Permutation(mixed.n, tuple(image.tolist()))
    cases = []
    for p in (horizontal_shift_permutation(32, 32), mixed):
        bc = real_base_change(p)
        rvec = make_rank_vector(bc.spectrum, "real", [min(2, b.size) for b in bc.spectrum.real_blocks])
        par = parameterize_component(rvec, p, rng=rng, base_change=bc)
        m = rng.standard_normal((p.n, p.n))
        cases.append((p, par.decoder @ par.encoder, rvec, m, equivariant.orbit_average(m, [p])))

    def refuse(*args, **kwargs):
        raise AssertionError("one generator took the n x n labels or a change of basis")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equivariant, "pair_orbit_labels", refuse)
        mp.setattr(equivariant, "_cycle_pair_labels", refuse)
        mp.setattr(spectral.BaseChange, "_change", refuse)
        for p, planted, rvec, m, reference in cases:
            for call, want, bound in ((lambda: equivariant_project(m, [p]), reference, 1.25),
                                      (lambda: classify_component(planted, p), rvec, 0.25),
                                      (lambda: is_equivariant(planted, p), True, 0.15)):
                with traced() as mem:
                    got = call()
                assert mem.peak <= bound * m.nbytes
                if isinstance(want, np.ndarray):
                    assert np.abs(got - want).max() <= 4 * p.n ** 2 * np.finfo(float).eps * np.abs(m).max()
                else:
                    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_cycle_sort_order_follows_sigma_inverse(image):
    # each cycle starts at its smallest label, and sigma maps every label of
    # the order onto the one before it
    from permlin.spectral import _cycle_sort_order

    p = Permutation(len(image), tuple(image))
    order = [a + 1 for a in _cycle_sort_order(cycle_decomposition(p))]
    start = 0
    for cyc in cycle_decomposition(p).cycles:
        run = order[start:start + len(cyc)]
        assert run[0] == cyc[0] and sorted(run) == sorted(cyc)
        assert all(p(b) == a for a, b in zip(run, run[1:]))
        start += len(cyc)
    assert start == p.n
    # cycle_runs regroups the same cycles by length: sigma maps position
    # a + 1 of each onto position a, cyclically
    runs = cycle_runs(cycle_decomposition(p))
    assert [l for l, _ in runs] == sorted(set(cycle_decomposition(p).lengths))
    assert sorted(np.concatenate([labels.ravel() for _, labels in runs]).tolist()) == list(range(p.n))
    for l, labels in runs:
        assert all(p(int(labels[c, (a + 1) % l]) + 1) == labels[c, a] + 1
                   for c in range(labels.shape[0]) for a in range(l))
