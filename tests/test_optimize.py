import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from permlin.datasets import demo_shift_dataset, horizontal_shift_permutation
from permlin.equivariant import (
    classify_component,
    count_components,
    enumerate_components,
    equivariant_project,
    is_equivariant,
    make_rank_vector,
)
from permlin.errors import (
    ComponentError,
    ConvergenceError,
    EquivarianceError,
    IndefiniteError,
    InvarianceError,
    NonFiniteError,
    RankDeficientError,
    SearchLimitError,
    SizeMismatchError,
    StructuralError,
)
from permlin.linalg import numeric_rank, realize, tie_slack, unrealize, weighted_inner
from permlin.oracles import (
    AGREEMENT_TOL,
    als_low_rank,
    best_scored,
    check_circulant_blocks,
    critical_points,
    projection_fit_equivariant,
)
from permlin.optimize import (
    eckart_young,
    ed_degrees,
    fit_equivariant,
    fit_rank_bounded,
    weighted_eckart_young,
)
from permlin.perms import Permutation, cycle_decomposition, parse_permutation
from permlin.spectral import eigen_multiplicities, real_base_change

ROT9 = parse_permutation("(1 4 3 2)(5 8 7 6)", 9)


def sel_to_target(x, y, ridge=None):
    """(U, W) with argmin ||M X - Y||_F^2 = argmin ||M - U||_W^2: U is the
    full-rank solution of `weighted_eckart_young`, W = X X^T (+ ridge * Id)."""
    fit = weighted_eckart_young(x, y, ridge)
    return fit.build(len(fit.svals)), x @ x.T + (ridge or 0.0) * np.eye(len(x))


def fit_realization_block(u_block, x_block, r):
    """Minimize ||B - u_block||^2 weighted by x_block x_block^T over
    realization matrices of complex rank <= r: the complex regression of the
    row pairs of U X on those of X, by `weighted_eckart_young`."""
    x_block = np.asarray(x_block, dtype=float)
    xc = x_block[0::2] + 1j * x_block[1::2]
    y_block = u_block @ x_block
    fit = weighted_eckart_young(xc, y_block[0::2] + 1j * y_block[1::2])
    return realize(fit.build(r))


class TestEckartYoung:
    def test_diagonal_truncation(self):
        res = eckart_young(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(res.truncated, np.diag([3.0, 2.0, 0.0]))
        assert res.kept == (3.0, 2.0) and res.dropped == (1.0,)

    def test_full_rank_unchanged(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 4))
        assert np.linalg.norm(eckart_young(m, 3).truncated - m) <= 1e-12

    def test_rank1_matches_als(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 3))
        res = eckart_young(m, 1)
        loss = np.linalg.norm(res.truncated - m) ** 2
        oracle = als_low_rank(1, restarts=100, u=m, seed=0)
        assert abs(loss - oracle) <= 1e-6

    def test_boundary_tie_flag(self):
        res = eckart_young(np.diag([2.0, 1.0, 1.0]), 2)
        assert res.boundary_tie
        assert not eckart_young(np.diag([2.0, 1.0, 0.5]), 2).boundary_tie

    def test_boundary_tie_flag_ignores_scale(self):
        u = np.random.default_rng(7).standard_normal((6, 6))
        flags = {eckart_young(c * u, 3).boundary_tie for c in (1e-10, 1.0, 1e6)}
        assert flags == {False}

    def test_all_critical_count_and_distinct_losses(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 3))
        crits = critical_points(m, 2)
        assert len(crits) == math.comb(3, 2)
        losses = sorted(float(np.linalg.norm(c - m) ** 2) for c in crits)
        assert all(b - a > 1e-12 for a, b in zip(losses, losses[1:]))

    def test_critical_cap(self):
        from permlin.errors import SizeCapError

        with pytest.raises(SizeCapError):
            critical_points(np.eye(40), 20)


class TestSelToTarget:
    def test_identity_data(self):
        rng = np.random.default_rng(3)
        y = rng.standard_normal((3, 4))
        u, w = sel_to_target(np.eye(4), y)
        assert np.allclose(u, y) and np.allclose(w, np.eye(4))

    def test_consistent_system(self):
        rng = np.random.default_rng(4)
        m0 = rng.standard_normal((3, 4))
        x = rng.standard_normal((4, 9))
        u, _ = sel_to_target(x, m0 @ x)
        assert np.linalg.norm(u - m0) <= 1e-9

    def test_objective_shift_constant(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 8))
        y = rng.standard_normal((2, 8))
        u, w = sel_to_target(x, y)
        diffs = []
        for _ in range(10):
            m = rng.standard_normal((2, 3))
            lhs = np.linalg.norm(m @ x - y) ** 2
            rhs = np.trace((m - u) @ w @ (m - u).T)
            diffs.append(lhs - rhs)
        assert np.ptp(diffs) <= 1e-9 * (1 + np.abs(diffs).max())

    def test_rank_deficient_rejected_then_ridge(self):
        rng = np.random.default_rng(6)
        x = np.vstack([rng.standard_normal((1, 6))] * 2)  # rank 1
        y = rng.standard_normal((2, 6))
        with pytest.raises(RankDeficientError):
            sel_to_target(x, y)
        u, w = sel_to_target(x, y, ridge=1e-3)
        assert np.all(np.isfinite(u))


class TestFitRankBounded:
    def test_full_rank_is_least_squares(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 10))
        y = rng.standard_normal((3, 10))
        fit = fit_rank_bounded(x, y, 4)
        ls = y @ x.T @ np.linalg.inv(x @ x.T)
        assert np.linalg.norm(fit.minimizer - ls) <= 1e-9

    def test_scaled_orthogonal_rows_reduce_to_plain_ey(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        x = 2.0 * q[:, :6]  # W = 4 Id
        y = rng.standard_normal((6, 6))
        fit = fit_rank_bounded(x, y, 2)
        u, _ = sel_to_target(x, y)
        assert np.linalg.norm(fit.minimizer - eckart_young(u, 2).truncated) <= 1e-9

    def test_matches_als_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 9))
        y = rng.standard_normal((3, 9))
        fit = fit_rank_bounded(x, y, 1)
        oracle = als_low_rank(1, restarts=100, x=x, y=y, seed=1)
        assert fit.loss <= oracle + 1e-6
        assert abs(fit.loss - oracle) <= 1e-5

    def test_loss_is_recomputed_residual(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((4, 9))
        y = rng.standard_normal((4, 9))
        fit = fit_rank_bounded(x, y, 2)
        assert fit.loss == pytest.approx(float(np.linalg.norm(fit.minimizer @ x - y) ** 2), abs=1e-12)
        # predicted = constant + per-block tail
        predicted = fit.constant_loss + sum(b.loss for b in fit.per_block)
        assert abs(predicted - fit.loss) <= 1e-9 * (1 + fit.loss)

    def test_local_optimality_perturbations(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal((5, 14))
        y = rng.standard_normal((5, 14))
        fit = fit_rank_bounded(x, y, 2)
        m = fit.minimizer
        eps = 1e-3
        for _ in range(200):
            g1 = rng.standard_normal((5, 5))
            g2 = rng.standard_normal((5, 5))
            mp = (np.eye(5) + eps * g1) @ m @ (np.eye(5) + eps * g2)  # rank preserved
            assert float(np.linalg.norm(mp @ x - y) ** 2) >= fit.loss - 1e-9

    def test_negative_rank_rejected(self):
        x = np.random.default_rng(12).standard_normal((4, 9))
        with pytest.raises(SizeMismatchError):
            fit_rank_bounded(x, x, -1)

    def test_orthogonal_sample_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 9))
        y = rng.standard_normal((4, 9))
        q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        base = fit_rank_bounded(x, y, 2).loss
        moved = fit_rank_bounded(x @ q, y @ q, 2).loss
        assert abs(base - moved) <= 1e-9 * (1 + base)


class TestFitRealizationBlock:
    def test_already_low_rank_identity_weight(self):
        rng = np.random.default_rng(12)
        z = np.outer(rng.standard_normal(3) + 1j * rng.standard_normal(3),
                     rng.standard_normal(3) + 1j * rng.standard_normal(3))
        u = realize(z)
        out = fit_realization_block(u, np.eye(6), 1)
        assert np.linalg.norm(out - u) <= 1e-9

    def test_identity_weight_matches_complex_svd(self):
        rng = np.random.default_rng(13)
        g = rng.standard_normal((6, 6))
        out = fit_realization_block(g, np.eye(6), 2)
        P = np.kron(np.eye(3), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        z0 = unrealize(0.5 * (g + P @ g @ P.T))
        uz, sz, vzt = np.linalg.svd(z0)
        assert np.linalg.norm(out - realize((uz[:, :2] * sz[:2]) @ vzt[:2])) <= 1e-8

    def test_pattern_and_rank_of_output(self):
        rng = np.random.default_rng(14)
        g = rng.standard_normal((8, 8))
        x = rng.standard_normal((8, 20))
        out = fit_realization_block(g, x, 2)
        unrealize(out)  # pattern holds exactly
        assert numeric_rank(out) <= 4

    def test_weighted_global_optimality_vs_complex_als(self):
        # the pair-block problem is a complex data fit: encode the block rows
        # of X as complex columns and run complex ALS
        rng = np.random.default_rng(15)
        d = 3
        x = rng.standard_normal((2 * d, 12))
        g = rng.standard_normal((2 * d, 2 * d))
        r = 1
        out = fit_realization_block(g, x, r)
        w = x @ x.T
        loss = np.trace((out - g) @ w @ (out - g).T)
        xc = x[0::2] + 1j * x[1::2]
        P = np.kron(np.eye(d), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        g0 = 0.5 * (g + P @ g @ P.T)
        zc = unrealize(g0)
        const = np.trace((g0 - g) @ w @ (g0 - g).T)
        best = np.inf
        for _ in range(60):
            A = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
            for _ in range(80):
                B = np.linalg.pinv(A) @ zc
                A = zc @ np.linalg.pinv(B)
            m = A @ B
            # weighted complex loss || realize(m - zc) ||_w^2
            diff = realize(m - zc)
            best = min(best, float(np.trace(diff @ w @ diff.T)))
        assert loss <= best + const + 1e-6


def sample_component_matrix(rng, p, spec, r):
    from permlin.equivariant import parameterize_component

    descs = list(enumerate_components(spec, r, "real"))
    rvec = descs[rng.integers(len(descs))].rank_vector
    par = parameterize_component(rvec, p, rng=rng)
    return rvec, par.decoder @ par.encoder


class TestFitEquivariant:
    def test_consistent_recovery(self):
        rng = np.random.default_rng(16)
        spec = eigen_multiplicities(cycle_decomposition(ROT9))
        rvec, m0 = sample_component_matrix(rng, ROT9, spec, 3)
        x = rng.standard_normal((9, 25))
        fit = fit_equivariant(x, m0 @ x, ROT9, 3)
        assert fit.loss <= 1e-8
        assert fit.component.values == rvec.values
        assert classify_component(fit.minimizer, ROT9).values == rvec.values

    def test_search_returns_best_of_candidates(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((9, 25))
        y = rng.standard_normal((9, 25))
        fit = fit_equivariant(x, y, ROT9, 3, candidates=True)
        assert len(fit.candidates) == 5
        assert all(fit.loss <= loss + 1e-9 for _, loss in fit.candidates)
        # each candidate loss is a genuine per-component fit loss
        for values, loss in fit.candidates:
            single = fit_equivariant(x, y, ROT9, 3,
                                     component=make_rank_vector(
                                         eigen_multiplicities(cycle_decomposition(ROT9)),
                                         "real", values))
            assert abs(single.loss - loss) <= 1e-8 * (1 + loss)

    def test_block_split_exactness(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((9, 30))
        y = rng.standard_normal((9, 30))
        fit = fit_equivariant(x, y, ROT9, 4)
        predicted = fit.constant_loss + sum(b.loss for b in fit.per_block)
        assert abs(predicted - fit.loss) <= 1e-9 * (1 + fit.loss)

    def test_named_component_only(self):
        rng = np.random.default_rng(19)
        spec = eigen_multiplicities(cycle_decomposition(ROT9))
        rvec = make_rank_vector(spec, "real", (1, 2, 0))
        x = rng.standard_normal((9, 20))
        y = rng.standard_normal((9, 20))
        fit = fit_equivariant(x, y, ROT9, 3, component=rvec)
        assert fit.component.values == (1, 2, 0)
        assert fit.candidates is None
        assert classify_component(fit.minimizer, ROT9).values == (1, 2, 0)

    def test_wrong_total_rank_rejected(self):
        spec = eigen_multiplicities(cycle_decomposition(ROT9))
        rvec = make_rank_vector(spec, "real", (1, 0, 0))
        with pytest.raises(ComponentError):
            fit_equivariant(np.eye(9), np.eye(9), ROT9, 3, component=rvec)

    def test_search_limit(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((9, 20))
        with pytest.raises(SearchLimitError):
            fit_equivariant(x, x, ROT9, 3, search_limit=2, candidates=True)
        # the limit bounds only the listing: the search itself still runs
        fit = fit_equivariant(x, x, ROT9, 3, search_limit=2)
        assert fit.component_source == "search" and fit.candidates is None

    @pytest.mark.parametrize("r", [-1, 10])
    def test_rank_outside_census_rejected(self, r):
        x = np.random.default_rng(22).standard_normal((9, 20))
        for kwargs in ({}, {"heuristic": "energy"}, {"candidates": True}):
            with pytest.raises(ComponentError, match="no admissible"):
                fit_equivariant(x, x, ROT9, r, **kwargs)

    def test_search_gap_of_energy_heuristic(self):
        # greedy allocation by energy per rank unit misses the optimum here,
        # because the budget mixes unit and complex-pair blocks
        rng = np.random.default_rng(1)
        x = rng.standard_normal((9, 30))
        y = rng.standard_normal((9, 30))
        exact = fit_equivariant(x, y, ROT9, 6)
        energy = fit_equivariant(x, y, ROT9, 6, heuristic="energy")
        assert exact.component.values == (1, 1, 2) and energy.component.values == (2, 2, 1)
        assert exact.search_gap is None
        assert energy.search_gap > 0.1
        assert abs(energy.search_gap - (energy.loss - exact.loss)) <= 1e-9 * (1 + energy.loss)

    def test_energy_heuristic_runs_and_is_flagged(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((9, 30))
        fit = fit_equivariant(x, x, ROT9, 3, heuristic="energy")
        assert fit.component_source == "heuristic"
        full = fit_equivariant(x, x, ROT9, 3)
        assert full.loss <= fit.loss + 1e-9

    def test_global_optimality_vs_blockwise_als_oracle(self):
        # brute-force oracle: per component, per block, restarted ALS in the
        # conjugated coordinates (complex ALS on pair blocks)
        rng = np.random.default_rng(22)
        for p, n in [(parse_permutation("(1 2 3)(4 5)", 6), 6),
                     (parse_permutation("(1 2 3 4)", 5), 5)]:
            x = rng.standard_normal((n, 14))
            y = rng.standard_normal((n, 14))
            r = 2
            fit = fit_equivariant(x, y, p, r)
            best = blockwise_als_best(x, y, p, r, rng)
            assert fit.loss <= best + 1e-5
            assert abs(fit.loss - best) <= 1e-5 * (1 + best)

    def test_globally_rank_deficient_data_full_rank_per_block(self):
        # the rank condition is per block: X of rank 3 < 5 still fits when
        # every block of Q^T X has full row rank, and the fit is optimal
        rng = np.random.default_rng(27)
        for p in [parse_permutation("(1 2 3)(4 5)", 5), parse_permutation("(1 2 3 4)", 5)]:
            bc = real_base_change(p)
            assert max(sl.stop - sl.start for sl in bc.block_slices) <= 3
            x = bc.matrix @ rng.standard_normal((5, 3))
            y = rng.standard_normal((5, 3))
            assert numeric_rank(x) == 3
            fit = fit_equivariant(x, y, p, 2)
            best = blockwise_als_best(x, y, p, 2, rng)
            assert fit.loss <= best + 1e-5
            assert abs(fit.loss - best) <= 1e-5 * (1 + best)

    def test_equivariance_and_rank_of_minimizer(self):
        rng = np.random.default_rng(23)
        from permlin.equivariant import is_equivariant

        x = rng.standard_normal((9, 30))
        y = rng.standard_normal((9, 30))
        fit = fit_equivariant(x, y, ROT9, 3)
        assert is_equivariant(fit.minimizer, ROT9, tol=1e-9)
        assert numeric_rank(fit.minimizer) <= 3

    def test_local_optimality_multiplicative_perturbations(self):
        rng = np.random.default_rng(24)
        bc = real_base_change(ROT9)
        x = rng.standard_normal((9, 30))
        y = rng.standard_normal((9, 30))
        fit = fit_equivariant(x, y, ROT9, 3)
        B = bc.conjugate(fit.minimizer)
        eps = 1e-3
        for _ in range(200):
            g1 = np.zeros((9, 9))
            g2 = np.zeros((9, 9))
            for blk, sl in zip(bc.spectrum.real_blocks, bc.block_slices):
                if blk.kind == "complex_pair":
                    g1[sl, sl] = realize(rng.standard_normal((blk.size, blk.size))
                                         + 1j * rng.standard_normal((blk.size, blk.size)))
                    g2[sl, sl] = realize(rng.standard_normal((blk.size, blk.size))
                                         + 1j * rng.standard_normal((blk.size, blk.size)))
                else:
                    g1[sl, sl] = rng.standard_normal((blk.size, blk.size))
                    g2[sl, sl] = rng.standard_normal((blk.size, blk.size))
            Bp = (np.eye(9) + eps * g1) @ B @ (np.eye(9) + eps * g2)
            Mp = bc.unconjugate(Bp)
            loss = float(np.linalg.norm(Mp @ x - y) ** 2)
            assert loss >= fit.loss - 1e-9


class TestFitEquivariantEdges:
    def test_identity_permutation_reduces_to_rank_bounded(self):
        rng = np.random.default_rng(30)
        ident = Permutation.identity(5)
        x = rng.standard_normal((5, 12))
        y = rng.standard_normal((5, 12))
        fit = fit_equivariant(x, y, ident, 2)
        plain = fit_rank_bounded(x, y, 2)
        assert abs(fit.loss - plain.loss) <= 1e-9 * (1 + plain.loss)
        assert np.linalg.norm(fit.minimizer - plain.minimizer) <= 1e-8

    def test_zero_rank_budget(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((9, 15))
        y = rng.standard_normal((9, 15))
        fit = fit_equivariant(x, y, ROT9, 0)
        assert np.all(fit.minimizer == 0.0)
        assert fit.loss == pytest.approx(float(np.linalg.norm(y) ** 2))

    def test_trivial_ground_set(self):
        ident = Permutation.identity(1)
        x = np.array([[1.0, 2.0, -1.0]])
        y = np.array([[2.0, 4.0, -2.0]])
        fit = fit_equivariant(x, y, ident, 1)
        assert fit.loss <= 1e-20

    def test_infeasible_budget_rejected(self):
        # a 3-cycle has blocks (plus: d=1, pair: d=1); total rank 2 is not
        # expressible as r_plus + 2 r_pair with r_plus <= 1 ... it is (0,1);
        # but rank 4 exceeds every combination
        p = parse_permutation("(1 2 3)", 3)
        with pytest.raises(ComponentError, match="no admissible"):
            fit_equivariant(np.eye(3), np.eye(3), p, 4)

    def test_ridge_handles_rank_deficient_data(self):
        rng = np.random.default_rng(32)
        x = np.zeros((9, 12))
        x[:4] = rng.standard_normal((4, 12))  # rank 4 < 9
        y = rng.standard_normal((9, 12))
        with pytest.raises(RankDeficientError):
            fit_equivariant(x, y, ROT9, 3)
        fit = fit_equivariant(x, y, ROT9, 3, ridge=1e-6)
        assert fit.regularization == 1e-6
        assert np.isfinite(fit.loss)
        from permlin.equivariant import is_equivariant

        assert is_equivariant(fit.minimizer, ROT9, tol=1e-8)

    @pytest.mark.parametrize("noise", [0.0, 1e-15])
    def test_data_constant_along_cycles_needs_ridge(self, noise):
        """X constant along each cycle lies in the +1 eigenspace, so every
        other block of Q^T X holds zeros or rounding noise.  A noise block is
        well conditioned on its own scale; the floor is relative to the
        largest Gram eigenvalue of all blocks, so it still fails."""
        from permlin.equivariant import is_equivariant

        rng = np.random.default_rng(33)
        x = rng.standard_normal((3, 40))[[0, 0, 0, 0, 1, 1, 1, 1, 2]]
        x += noise * rng.standard_normal(x.shape)
        y = rng.standard_normal((9, 40))
        with pytest.raises(RankDeficientError):
            fit_equivariant(x, y, ROT9, 3)
        fit = fit_equivariant(x, y, ROT9, 3, ridge=1e-3)
        assert np.linalg.norm(fit.minimizer) < 10.0
        assert is_equivariant(fit.minimizer, ROT9, tol=1e-8)
        assert abs(fit.loss - np.linalg.norm(fit.minimizer @ x - y) ** 2) <= 1e-9 * fit.loss


@st.composite
def equivariant_instances(draw):
    """A permutation of random cycle type on n <= 12 points with random
    labels, data with d >= n + 2 samples, a rank budget and a component pick.

    Square Gaussian X is too often ill-conditioned for agreement to 1e-9:
    the oracle's constant ||Y||^2 - tr(U W U^T) loses digits with cond(W)."""
    n = draw(st.integers(1, 12))
    lengths, left = [], n
    while left:
        lengths.append(draw(st.integers(1, left)))
        left -= lengths[-1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(n) + 1
    image = [0] * n
    start = 0
    for l in lengths:
        cyc = labels[start:start + l]
        for a, b in zip(cyc, np.roll(cyc, -1)):
            image[a - 1] = int(b)
        start += l
    d = draw(st.integers(n + 2, 2 * n + 2))
    x = rng.standard_normal((n, d))
    y = rng.standard_normal((n, d))
    return Permutation(n, tuple(image)), x, y, draw(st.integers(0, n)), draw(st.integers(0, 10**6))


def assert_agree(fast_m, fast_loss, m, loss, y):
    assert abs(fast_loss - loss) <= AGREEMENT_TOL * float(np.linalg.norm(y)) ** 2
    assert np.linalg.norm(fast_m - m) <= AGREEMENT_TOL * (1.0 + np.linalg.norm(m))


@settings(max_examples=60, deadline=None)
@given(equivariant_instances())
def test_fit_equivariant_matches_projection_oracle(instance):
    p, x, y, r, pick = instance
    spec = eigen_multiplicities(cycle_decomposition(p))
    descs = list(enumerate_components(spec, r, "real"))
    rvec = descs[pick % len(descs)].rank_vector
    named = fit_equivariant(x, y, p, r, component=rvec)
    m, loss, _ = projection_fit_equivariant(x, y, p, r, component=rvec.values)
    assert_agree(named.minimizer, named.loss, m, loss, y)

    searched = fit_equivariant(x, y, p, r, candidates=True)
    m, loss, candidates = projection_fit_equivariant(x, y, p, r)
    assert_agree(searched.minimizer, searched.loss, m, loss, y)
    assert [v for v, _ in searched.candidates] == [v for v, _ in candidates]
    scale = float(np.linalg.norm(y)) ** 2
    for (_, fast), (_, slow) in zip(searched.candidates, candidates):
        assert abs(fast - slow) <= AGREEMENT_TOL * scale


@settings(max_examples=100, deadline=None)
@given(equivariant_instances(), st.sampled_from(["random", "zero", "same", "planted"]))
def test_component_search_matches_enumeration(instance, target):
    """The min-plus search names the component that enumerate-and-score
    names over the same per-block tails, and fits it with the same loss.
    Y = 0 ties every component exactly; Y = M0 X with M0 on a component of
    lower rank ties, up to rounding, every component that contains it."""
    p, x, y, r, pick = instance
    if target == "zero":
        y = np.zeros_like(y)
    elif target == "same":
        y = x.copy()
    elif target == "planted":
        spec = eigen_multiplicities(cycle_decomposition(p))
        _, m0 = sample_component_matrix(np.random.default_rng(pick), p, spec, pick % (r + 1))
        y = m0 @ x
    fit = fit_equivariant(x, y, p, r, candidates=True)
    assert fit.component.values == best_scored(fit.candidates, tie_slack(y))
    if target == "zero":
        assert fit.component.values == min(v for v, _ in fit.candidates)
    assert fit_equivariant(x, y, p, r, component=fit.component).loss == fit.loss
    least = min(loss for _, loss in fit.candidates)
    assert fit.loss <= least + tie_slack(y) + 1e-9 * (1 + float(np.linalg.norm(y)) ** 2)


@settings(max_examples=60, deadline=None)
@given(equivariant_instances(), st.sampled_from([None, 1e-3, 1.0]))
def test_loss_is_the_dense_residual(instance, ridge):
    """The loss computed from the rank-r factors is ||M X - Y||^2 of the
    dense minimizer, with and without a ridge."""
    p, x, y, r, _ = instance
    scale = float(np.linalg.norm(y)) ** 2
    for fit in (fit_equivariant(x, y, p, r, ridge=ridge), fit_rank_bounded(x, y, r, ridge=ridge)):
        assert abs(fit.loss - float(np.linalg.norm(fit.minimizer @ x - y)) ** 2) <= 1e-12 * scale


def test_exact_fit_loss_is_at_rounding_level():
    """Y = M0 X with M0 equivariant of rank one in every block of the 6x8
    shift.  The block residuals give a loss of order eps^2 ||Y||^2; the tail
    form constant + sum of tails would leave rounding error of order
    eps ||Y||^2 here, of either sign."""
    from permlin.equivariant import parameterize_component

    sigma = horizontal_shift_permutation(6, 8)
    spec = eigen_multiplicities(cycle_decomposition(sigma))
    rvec = make_rank_vector(spec, "real", [1] * len(spec.real_blocks))
    par = parameterize_component(rvec, sigma, rng=np.random.default_rng(43))
    x = np.random.default_rng(44).standard_normal((sigma.n, 100))
    y = par.decoder @ par.encoder @ x
    scale = float(np.linalg.norm(y)) ** 2
    fit = fit_equivariant(x, y, sigma, rvec.total_rank)
    assert fit.component.values == rvec.values
    assert 0.0 <= fit.loss <= 1e-20 * scale
    assert 0.0 <= fit_rank_bounded(x, y, rvec.total_rank).loss <= 1e-20 * scale


def test_minimizer_is_built_on_first_read():
    """Fitting the 32x32 shift (n=1024) allocates less than one n x n float64
    array; the dense minimizer is built when first read, then cached."""
    import tracemalloc

    sigma = horizontal_shift_permutation(32, 32)
    n = sigma.n
    rng = np.random.default_rng(45)
    x = rng.standard_normal((n, 128))
    y = rng.standard_normal((n, 128))
    tracemalloc.start()
    try:
        fit = fit_equivariant(x, y, sigma, 99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n
    m = fit.minimizer
    assert fit.minimizer is m
    assert is_equivariant(m, sigma)
    assert abs(fit.loss - float(np.linalg.norm(m @ x - y)) ** 2) <= 1e-12 * float(np.linalg.norm(y)) ** 2

    # the projection oracle is capped at n <= 12: agreement on the 3x4 shift
    small = horizontal_shift_permutation(3, 4)
    x = rng.standard_normal((small.n, 20))
    y = rng.standard_normal((small.n, 20))
    fit = fit_equivariant(x, y, small, 5)
    m = fit.minimizer
    assert fit.minimizer is m
    assert_agree(m, fit.loss, *projection_fit_equivariant(x, y, small, 5)[:2], y)


def test_exact_search_at_image_scale():
    """12x16 shift images at r=50 have 16,980,080 components; the search is
    exact without listing them."""
    sigma = horizontal_shift_permutation(12, 16)
    assert count_components(eigen_multiplicities(cycle_decomposition(sigma)), 50, "real") == 16_980_080
    x = demo_shift_dataset(12, 16, samples=400, seed=3)
    exact = fit_equivariant(x, x, sigma, 50)
    energy = fit_equivariant(x, x, sigma, 50, heuristic="energy")
    dense = fit_rank_bounded(x, x, 50)
    slack = 1e-9 * (1 + float(np.linalg.norm(x)) ** 2)
    assert dense.loss <= exact.loss + slack
    assert exact.loss <= energy.loss + slack
    assert exact.component.total_rank == 50
    assert classify_component(exact.minimizer, sigma).values == exact.component.values
    assert 0.0 <= energy.search_gap <= energy.loss - exact.loss + slack


class TestScaleInvariance:
    """The rank floor is relative: fitting c X gives minimizer / c and the
    same loss, however small or large c is.  The tie rule of the component
    search is relative too: fitting c Y picks the same component.  Every
    structure check compares its deviation with a norm of the matrix under
    test, so its verdict on c M is its verdict on M."""

    def test_fits_scale_with_data(self):
        from permlin.invariant import fit_invariant, invariant_space

        rng = np.random.default_rng(40)
        x = rng.standard_normal((9, 30))
        y = rng.standard_normal((9, 30))
        space = invariant_space([ROT9], 9, 9, 2)
        fits = {
            "dense": lambda xs: fit_rank_bounded(xs, y, 3),
            "equivariant": lambda xs: fit_equivariant(xs, y, ROT9, 3),
            "invariant": lambda xs: fit_invariant(xs, y, space),
        }
        for name, fit in fits.items():
            base = fit(x)
            for c in (1e-6, 1.0, 1e6):
                scaled = fit(c * x)
                assert abs(scaled.loss - base.loss) <= 1e-9 * (1 + base.loss), (name, c)
                assert (np.linalg.norm(c * scaled.minimizer - base.minimizer)
                        <= 1e-9 * (1 + np.linalg.norm(base.minimizer))), (name, c)

    def test_component_does_not_change_with_the_scale_of_y(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((9, 25))
        y = rng.standard_normal((9, 25))
        # Y = M0 X with M0 on a rank-2 component: the components that contain
        # it tie up to rounding
        planted = sample_component_matrix(rng, ROT9, eigen_multiplicities(cycle_decomposition(ROT9)), 2)[1] @ x
        for target in (y, planted):
            base = fit_equivariant(x, target, ROT9, 3)
            for c in (1e-6, 1e6):
                scaled = fit_equivariant(x, c * target, ROT9, 3)
                assert scaled.component.values == base.component.values, c
                assert abs(scaled.loss - c**2 * base.loss) <= 1e-9 * c**2 * (1 + base.loss), c

    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1.0, 1e6])
    def test_structure_checks_reject_at_every_scale(self, c):
        from permlin.invariant import invariant_space, psi_compress

        a = c * np.random.default_rng(43).standard_normal((9, 9))
        assert not is_equivariant(a, ROT9)
        assert not check_circulant_blocks(a, ROT9)
        with pytest.raises(EquivarianceError):
            classify_component(a, ROT9)
        with pytest.raises(InvarianceError):
            psi_compress(a, invariant_space([ROT9], 9, 9, 3).partition)
        with pytest.raises(StructuralError):
            unrealize(a[:8, :8])
        with pytest.raises(IndefiniteError):
            weighted_inner(np.eye(9), np.eye(9), a)

    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1.0, 1e6])
    def test_structure_checks_accept_at_every_scale(self, c):
        from permlin.invariant import invariant_project, invariant_space, psi_compress

        rng = np.random.default_rng(44)
        a = rng.standard_normal((9, 9))
        # a rank-3 component: the block ranks must read the same at every scale
        rvec, planted = sample_component_matrix(rng, ROT9, eigen_multiplicities(cycle_decomposition(ROT9)), 3)
        for m in (c * equivariant_project(a, [ROT9]), c * planted):
            assert is_equivariant(m, ROT9)
            assert check_circulant_blocks(m, ROT9)
        assert classify_component(c * planted, ROT9).values == rvec.values
        part = invariant_space([ROT9], 9, 9, 3).partition
        inv = invariant_project(c * a, part)
        assert np.array_equal(psi_compress(inv, part), inv[:, [block[0] - 1 for block in part.blocks]])
        z = c * (a[:4, :4] + 1j * a[4:8, 4:8])
        assert np.array_equal(unrealize(realize(z)), z)
        w = c * (a @ a.T)
        assert weighted_inner(a, a, w) == pytest.approx(c * float(np.trace(a @ a @ a.T @ a.T)), rel=1e-12)


class TestBadInput:
    @pytest.mark.filterwarnings("error")
    def test_non_finite_data_rejected(self):
        from permlin.invariant import fit_invariant, invariant_space

        rng = np.random.default_rng(41)
        x = rng.standard_normal((9, 20))
        y = rng.standard_normal((9, 20))
        for bad in (np.nan, np.inf):
            xb = x.copy()
            xb[2, 3] = bad
            with pytest.raises(NonFiniteError):
                fit_rank_bounded(xb, y, 3)
            with pytest.raises(NonFiniteError):
                fit_equivariant(xb, y, ROT9, 3)
            with pytest.raises(NonFiniteError):
                fit_invariant(xb, y, invariant_space([ROT9], 9, 9, 2))
            yb = y.copy()
            yb[0, 0] = bad
            with pytest.raises(NonFiniteError):
                weighted_eckart_young(x, yb)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        rng = np.random.default_rng(42)
        x = rng.standard_normal((9, 20))
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            fit_rank_bounded(x, x, 3)
        monkeypatch.undo()
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceError):
            fit_equivariant(x, x, ROT9, 3)


def blockwise_als_best(x, y, p, r, rng):
    """Least loss over all components of restarted ALS per block, in the Q basis."""
    bc = real_base_change(p)
    spec = bc.spectrum
    xt, yt = bc.inverse @ x, bc.inverse @ y
    best = np.inf
    for desc in enumerate_components(spec, r, "real"):
        total = 0.0
        for blk, sl, (_, _, rb) in zip(spec.real_blocks, bc.block_slices,
                                       desc.rank_vector.entries):
            xb, yb = xt[sl], yt[sl]
            if blk.kind == "complex_pair":
                xc = xb[0::2] + 1j * xb[1::2]
                yc = yb[0::2] + 1j * yb[1::2]
                total += complex_als(xc, yc, rb, rng)
            else:
                total += real_als(xb, yb, rb, rng)
        best = min(best, total)
    return best


def real_als(x, y, r, rng, restarts=25, sweeps=60):
    if r == 0:
        return float(np.linalg.norm(y) ** 2)
    xp = np.linalg.pinv(x)
    best = np.inf
    for _ in range(restarts):
        A = rng.standard_normal((y.shape[0], r))
        for _ in range(sweeps):
            B = np.linalg.pinv(A) @ y @ xp
            bx = B @ x
            A = y @ np.linalg.pinv(bx)
        best = min(best, float(np.linalg.norm(A @ bx - y) ** 2))
    return best


def complex_als(x, y, r, rng, restarts=25, sweeps=60):
    """min ||A B x - y||^2 over complex rank-r factorizations; the squared
    norm of the complex residual equals the real block residual."""
    if r == 0:
        return float(np.linalg.norm(y) ** 2)
    xp = np.linalg.pinv(x)
    best = np.inf
    for _ in range(restarts):
        A = rng.standard_normal((y.shape[0], r)) + 1j * rng.standard_normal((y.shape[0], r))
        for _ in range(sweeps):
            B = np.linalg.pinv(A) @ y @ xp
            bx = B @ x
            A = y @ np.linalg.pinv(bx)
        best = min(best, float(np.linalg.norm(A @ bx - y) ** 2))
    return best


class TestEdDegrees:
    def test_determinantal_2x2_rank1(self):
        assert ed_degrees("determinantal", (2, 2, 1)) == 2

    def test_full_rank_one(self):
        assert ed_degrees("determinantal", (4, 6, 4)) == 1
        assert ed_degrees("invariant", (3, 3, 3)) == 1
        assert ed_degrees("realization_block", (5, 5)) == 1

    def test_invariant_formula(self):
        assert ed_degrees("invariant", (3, 5, 2)) == math.comb(3, 2)

    def test_realization_block_matches_complex_subset_count(self):
        rng = np.random.default_rng(25)
        for d, r in [(3, 1), (4, 2), (5, 2)]:
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u, s, vt = np.linalg.svd(z)
            from itertools import combinations

            crits = {tuple(subset) for subset in combinations(range(d), r)}
            assert len(crits) == ed_degrees("realization_block", (d, r))
