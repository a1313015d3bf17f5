import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from permlin import optimize
from permlin.datasets import horizontal_shift_permutation
from permlin.equivariant import (
    classify_component,
    count_components,
    enumerate_components,
    equivariant_project,
    is_equivariant,
    make_rank_vector,
    parameterize_component,
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
from permlin.linalg import DEFAULT_TOL, TIE_TOL, numeric_rank, realize, tie_slack
from permlin.oracles import (
    AGREEMENT_TOL,
    als_low_rank,
    best_scored,
    block_tails,
    check_circulant_blocks,
    critical_points,
    dense_base_change,
    projection_fit_equivariant,
    score_components,
    unrealize,
    weighted_inner,
)
from permlin.optimize import (
    autoencoder_loss,
    chunked_gram,
    ed_degrees,
    fit_equivariant,
    fit_rank_bounded,
    solve_equivariant,
    solve_equivariant_gram,
    weighted_eckart_young,
)
from permlin.perms import Permutation, consecutive_cycles, cycle_decomposition, parse_permutation
from permlin.spectral import eigen_multiplicities, real_base_change

from helpers import als_loss, commutator_ratio, demo_shift_dataset, identity, traced

ROT9 = parse_permutation("(1 4 3 2)(5 8 7 6)", 9)
EPS = np.finfo(float).eps


def listed(fit, p, r, limit=None):
    """Every component of total rank r with its loss, scored by the oracle
    from the fit's per-block singular values and constant."""
    spec = eigen_multiplicities(cycle_decomposition(p))
    return score_components(spec, r, block_tails(fit.per_block), fit.constant_loss, limit)


def sel_to_target(x, y, ridge=None):
    """(U, W) with argmin ||M X - Y||_F^2 = argmin ||M - U||_W^2: U is the
    full-rank solution of `weighted_eckart_young`, W = X X^T (+ ridge * Id)."""
    fit = weighted_eckart_young(x, y, ridge)
    decoder, encoder, _, _ = fit.read(min(len(x), len(y)), ("dense", 0, 0))
    return decoder @ encoder, x @ x.T + (ridge or 0.0) * np.eye(len(x))


def fit_realization_block(u_block, x_block, r):
    """Minimize ||B - u_block||^2 weighted by x_block x_block^T over
    realization matrices of complex rank <= r: the complex regression of the
    row pairs of U X on those of X, by `weighted_eckart_young`."""
    x_block = np.asarray(x_block, dtype=float)
    xc = x_block[0::2] + 1j * x_block[1::2]
    y_block = u_block @ x_block
    fit = weighted_eckart_young(xc, y_block[0::2] + 1j * y_block[1::2])
    decoder, encoder, _, _ = fit.read(r, ("complex_pair", 0, 0))
    return realize(decoder @ encoder)


def truncation(u, r):
    """The closest rank <= r matrix to u with its `BlockFit`: weighted
    Eckart-Young with X = I is plain Eckart-Young."""
    decoder, encoder, _, blk = weighted_eckart_young(np.eye(u.shape[1]), u).read(r, ("dense", 0, 0))
    return decoder @ encoder, blk


class TestEckartYoung:
    def test_diagonal_truncation(self):
        truncated, blk = truncation(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(truncated, np.diag([3.0, 2.0, 0.0]))
        assert blk.kept == (3.0, 2.0) and blk.dropped == (1.0,)

    def test_full_rank_unchanged(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 4))
        assert np.linalg.norm(truncation(m, 3)[0] - m) <= 1e-12

    def test_rank1_matches_als(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 3))
        loss = np.linalg.norm(truncation(m, 1)[0] - m) ** 2
        oracle = als_low_rank(1, restarts=100, u=m, seed=0)
        assert abs(loss - oracle) <= 1e-6

    def test_boundary_tie_flag(self):
        assert truncation(np.diag([2.0, 1.0, 1.0]), 2)[1].boundary_tie
        assert not truncation(np.diag([2.0, 1.0, 0.5]), 2)[1].boundary_tie
        # a wide gap between small singular values is no tie: the floor of
        # the rule sits at the solver's error, len(s) eps sigma_1^2
        assert not truncation(np.diag([1.0, 1e-5, 0.0]), 2)[1].boundary_tie

    def test_boundary_tie_flag_ignores_scale(self):
        u = np.random.default_rng(7).standard_normal((6, 6))
        flags = {truncation(c * u, 3)[1].boundary_tie for c in (1e-10, 1.0, 1e6)}
        assert flags == {False}

    @pytest.mark.parametrize("seed", range(8))
    def test_boundary_tie_of_an_exact_low_rank_target(self, seed):
        # the noise-level sigma^2 of an exact rank-2 fit carry an absolute
        # error of about eps sigma_1^2: their squares differ by less than
        # the rule's floor, while the sigma themselves, near sqrt(eps)
        # sigma_1, often differ by more than TIE_TOL sigma_1
        rng = np.random.default_rng(seed)
        n = 256
        m0 = rng.standard_normal((n, 2)) @ rng.standard_normal((2, n))
        x = rng.standard_normal((n, 300))
        assert fit_rank_bounded(x, m0 @ x, 4).per_block[0].boundary_tie

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 8), st.integers(1, 7), st.floats(-12, -6), st.floats(-100, 100),
           st.integers(0, 2**32 - 1))
    @example(6, 3, -9 + 1e-3, 0.0, 0)
    @example(6, 3, -9 - 1e-3, 0.0, 0)
    @example(2, 1, -9 - 1e-3, 100.0, 0)
    def test_boundary_tie_sits_on_the_side_of_tie_tol(self, n, r, log_gap, log_scale, seed):
        """The flag of a rank-r truncation is sigma_r - sigma_{r+1} <=
        TIE_TOL sigma_1, with the gap drawn log-uniformly across TIE_TOL
        sigma_1 and sigma_1 across 1e+-100.

        u = U diag(s) V^T for Haar U, V, with s_1, ..., s_r in [s_1 / 2, s_1]
        and s_{r+1} = s_r - gap, so that sigma_r + sigma_{r+1} > 0.99 s_1 and
        the rule's floor, n eps s_1^2, lies far below TIE_TOL s_1 (sigma_r +
        sigma_{r+1}).  The gap of the floats s_r - s_{r+1} is exact
        (Sterbenz).  Forming u moves each singular value by at most n^2 eps
        s_1, and each square by 2 n^2 eps s_1^2; forming A^T A and its eigh
        move each square by another n^2 eps s_1^2 and n eps s_1^2.  So the
        computed sigma_r^2 - sigma_{r+1}^2 is within 7 n^2 eps s_1^2 of the
        exact one, and the flag can leave the side the formula gives only
        when the gap is within 7 n^2 eps s_1^2 / (0.99 s_1) < 8 n^2 eps s_1
        of TIE_TOL s_1: only those draws go unasserted."""
        r = min(r, n - 1)
        rng = np.random.default_rng(seed)
        top = np.sort(np.append(rng.uniform(0.5, 1.0, r - 1), 1.0))[::-1]
        low = np.sort(rng.uniform(0.0, top[-1] - 10.0 ** log_gap, n - r - 1))[::-1]
        s = np.concatenate([top, [top[-1] - 10.0 ** log_gap], low]) * 10.0 ** log_scale
        gap = s[r - 1] - s[r]
        rotations = [np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2)]
        flag = truncation((rotations[0] * s) @ rotations[1].T, r)[1].boundary_tie
        if abs(gap - TIE_TOL * s[0]) > 8 * n * n * EPS * s[0]:
            assert flag == (gap <= TIE_TOL * s[0])

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
        assert np.linalg.norm(fit.minimizer - truncation(u, 2)[0]) <= 1e-9

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


class TestForeignRankVector:
    """A component of (1 2 3) read against (1 2) on three points: both real
    block lists have two entries, so the values (1, 1) are admissible on
    either, but they name different components (total ranks 3 and 2)."""

    P = parse_permutation("(1 2)", 3)
    FOREIGN = make_rank_vector(eigen_multiplicities(cycle_decomposition(parse_permutation("(1 2 3)", 3))),
                               "real", (1, 1))

    def data(self):
        rng = np.random.default_rng(23)
        return rng.standard_normal((3, 12)), rng.standard_normal((3, 12))

    def test_unequal_to_the_same_values_of_the_right_spectrum(self):
        own = make_rank_vector(eigen_multiplicities(cycle_decomposition(self.P)), "real", (1, 1))
        assert own.values == self.FOREIGN.values and own != self.FOREIGN
        assert (own.total_rank, self.FOREIGN.total_rank) == (2, 3)

    @pytest.mark.parametrize("r", [2, 3])
    def test_fit_equivariant_rejects(self, r):
        with pytest.raises(ComponentError, match="not a real component"):
            fit_equivariant(*self.data(), self.P, r, component=self.FOREIGN)

    @pytest.mark.parametrize("r", [2, 3])
    def test_solve_fit_rejects(self, r):
        solve = solve_equivariant(*self.data(), self.P)
        with pytest.raises(ComponentError, match="not a real component"):
            solve.fit(r, component=self.FOREIGN)

    def test_parameterize_component_rejects(self):
        with pytest.raises(ComponentError, match="not a real component"):
            parameterize_component(self.FOREIGN, self.P)


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

    def test_one_solve_reads_every_rank(self):
        """Reading one solve at several ranks gives the fits of separate
        calls, each held as n x r and r x n factors, r the total rank."""
        rng = np.random.default_rng(47)
        x = rng.standard_normal((9, 25))
        y = rng.standard_normal((9, 25))
        solve = solve_equivariant(x, y, ROT9)
        for r in (0, 3, 5, 3):
            fit = solve.fit(r)
            assert fit.component.total_rank == r
            assert fit.decoder.shape == (9, r) and fit.encoder.shape == (r, 9)
            again = fit_equivariant(x, y, ROT9, r)
            assert (again.loss, again.component, again.per_block) == (fit.loss, fit.component, fit.per_block)
            assert np.array_equal(again.minimizer, fit.minimizer)

    def test_search_returns_best_of_candidates(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((9, 25))
        y = rng.standard_normal((9, 25))
        fit = fit_equivariant(x, y, ROT9, 3)
        candidates = listed(fit, ROT9, 3)
        assert len(candidates) == 5
        assert all(fit.loss <= loss + 1e-9 for _, loss in candidates)
        # each candidate loss is a genuine per-component fit loss
        for values, loss in candidates:
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
        assert fit.component_source == "named"
        assert classify_component(fit.minimizer, ROT9).values == (1, 2, 0)

    def test_wrong_total_rank_rejected(self):
        spec = eigen_multiplicities(cycle_decomposition(ROT9))
        rvec = make_rank_vector(spec, "real", (1, 0, 0))
        with pytest.raises(ComponentError):
            fit_equivariant(np.eye(9), np.eye(9), ROT9, 3, component=rvec)

    def test_search_limit(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((9, 20))
        fit = fit_equivariant(x, x, ROT9, 3)
        with pytest.raises(SearchLimitError, match="^5 components exceed the limit 2"):
            listed(fit, ROT9, 3, limit=2)
        # the limit bounds only the listing: the search itself still runs
        assert fit.component_source == "search"

    @pytest.mark.parametrize("r", [-1, 10])
    def test_rank_outside_census_rejected(self, r):
        x = np.random.default_rng(22).standard_normal((9, 20))
        for kwargs in ({}, {"heuristic": "energy"}):
            with pytest.raises(ComponentError, match="no admissible"):
                fit_equivariant(x, x, ROT9, r, **kwargs)
        # nor has the oracle listing a component to offer at that rank
        fit = fit_equivariant(x, x, ROT9, 3)
        with pytest.raises(ComponentError, match="no admissible"):
            best_scored(listed(fit, ROT9, r), tie_slack(x))

    def test_search_gap_of_energy_heuristic(self):
        # greedy allocation by energy per rank unit misses the optimum here,
        # because the budget mixes unit and complex-pair blocks; the shim
        # fits its choice as a named component
        rng = np.random.default_rng(1)
        x = rng.standard_normal((9, 30))
        y = rng.standard_normal((9, 30))
        exact = fit_equivariant(x, y, ROT9, 6)
        energy = fit_equivariant(x, y, ROT9, 6, heuristic="energy")
        assert exact.component.values == (1, 1, 2) and energy.component.values == (2, 2, 1)
        assert (exact.component_source, energy.component_source) == ("search", "named")
        assert energy.loss - exact.loss > 0.1
        named = fit_equivariant(x, y, ROT9, 6, component=energy.component)
        assert named.loss == energy.loss

    def test_bad_choice_is_rejected_before_the_solve(self, monkeypatch):
        """An unknown heuristic, or a component named with a heuristic, is
        rejected before any base change: to_basis is never called."""
        from permlin.spectral import BaseChange

        calls = []
        to_basis = BaseChange.to_basis

        def counted(self, x):
            calls.append(x.shape)
            return to_basis(self, x)

        monkeypatch.setattr(BaseChange, "to_basis", counted)
        x = np.random.default_rng(23).standard_normal((9, 30))
        rvec = make_rank_vector(eigen_multiplicities(cycle_decomposition(ROT9)), "real", (1, 0, 1))
        for component, heuristic, match in ((None, "bogus", "unknown heuristic"),
                                            (rvec, "bogus", "unknown heuristic"),
                                            (rvec, "energy", "not both")):
            with pytest.raises(ComponentError, match=match):
                fit_equivariant(x, x, ROT9, 3, component, heuristic)
        assert calls == []
        fit_equivariant(x, x, ROT9, 3, rvec)
        assert calls == [x.shape]  # Y is X: one base change serves both

    def test_energy_heuristic_runs_and_is_flagged(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((9, 30))
        fit = fit_equivariant(x, x, ROT9, 3, heuristic="energy")
        assert fit.component_source == "named"
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
            x = dense_base_change(bc)[0] @ rng.standard_normal((5, 3))
            y = rng.standard_normal((5, 3))
            assert numeric_rank(x) == 3
            fit = fit_equivariant(x, y, p, 2)
            best = blockwise_als_best(x, y, p, 2, rng)
            assert fit.loss <= best + 1e-5
            assert abs(fit.loss - best) <= 1e-5 * (1 + best)

    def test_equivariance_and_rank_of_minimizer(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((9, 30))
        y = rng.standard_normal((9, 30))
        fit = fit_equivariant(x, y, ROT9, 3)
        assert commutator_ratio(fit.minimizer, ROT9) <= 1e-9
        assert numeric_rank(fit.minimizer) <= 3

    def test_local_optimality_multiplicative_perturbations(self):
        rng = np.random.default_rng(24)
        bc = real_base_change(ROT9)
        x = rng.standard_normal((9, 30))
        y = rng.standard_normal((9, 30))
        fit = fit_equivariant(x, y, ROT9, 3)
        q, q_inv = dense_base_change(bc)
        B = q_inv @ fit.minimizer @ q
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
            Mp = q @ Bp @ q_inv
            loss = float(np.linalg.norm(Mp @ x - y) ** 2)
            assert loss >= fit.loss - 1e-9


class TestFitEquivariantEdges:
    def test_identity_permutation_reduces_to_rank_bounded(self):
        rng = np.random.default_rng(30)
        ident = identity(5)
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
        ident = identity(1)
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

        assert is_equivariant(fit.minimizer, ROT9)

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
        assert is_equivariant(fit.minimizer, ROT9)
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

    searched = fit_equivariant(x, y, p, r)
    searched_candidates = listed(searched, p, r)
    m, loss, candidates = projection_fit_equivariant(x, y, p, r)
    assert_agree(searched.minimizer, searched.loss, m, loss, y)
    assert [v for v, _ in searched_candidates] == [v for v, _ in candidates]
    scale = float(np.linalg.norm(y)) ** 2
    for (_, fast), (_, slow) in zip(searched_candidates, candidates):
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
    fit = fit_equivariant(x, y, p, r)
    candidates = listed(fit, p, r)
    assert fit.component.values == best_scored(candidates, tie_slack(y))
    if target == "zero":
        assert fit.component.values == min(v for v, _ in candidates)
    assert fit_equivariant(x, y, p, r, component=fit.component).loss == fit.loss
    least = min(loss for _, loss in candidates)
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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.booleans(), st.integers(0, 2**32 - 1))
def test_squared_singular_values_match_an_svd(m, n, complex_data, seed):
    """The fit's sigma^2, eigenvalues of A^H A, are the squared singular
    values of C G^{-1/2} up to an absolute error of a few eps sigma_1^2 per
    dimension; the reference takes the SVD of C G^{-1/2} itself."""
    rng = np.random.default_rng(seed)

    def draw(rows):
        a = rng.standard_normal((rows, n + 4))
        return a + 1j * rng.standard_normal(a.shape) if complex_data else a

    x, y = draw(n), draw(m)
    lam, v = np.linalg.eigh(x @ x.conj().T)
    ref = np.linalg.svd((y @ x.conj().T) @ (v * lam**-0.5) @ v.conj().T, compute_uv=False) ** 2
    sq = weighted_eckart_young(x, y).svals ** 2
    assert len(sq) == min(m, n)
    assert np.abs(sq - ref).max() <= 10 * np.finfo(float).eps * ref[0] * max(m, n)


# the bound on ||M - M_ref||_F of `test_autoencoder_route_matches_the_two_eigh_route`,
# in units of n eps ||M_ref||_F lambda_1 / (lambda_r - lambda_{r+1}); the worst
# of 3,000 draws (every rank, scales 1e-100, 1 and 1e100, with and without a
# ridge) was 8.1
MINIMIZER_C = 32


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.sampled_from([None, 1e-3, 1.0]),
       st.sampled_from([1e-100, 1.0, 1e100]), st.integers(0, 2**32 - 1), equivariant_instances())
def test_autoencoder_route_matches_the_two_eigh_route(n, complex_data, ridge, scale, seed, instance):
    """A fit of X on itself (Y is X) takes the Gram route: sigma, the factors
    and the loss from the Gram's eigendecomposition alone.  The same fit on a
    copy of X takes the row route, which solves A^H A and forms the residual.
    At every scale, with the ridge scaled with the Gram: their sigma^2 agree
    within the bound of `test_squared_singular_values_match_an_svd`, their
    losses at every rank within `tie_slack`, and their minimizers within
    MINIMIZER_C n eps ||M|| times lambda_1 / (lambda_r - lambda_{r+1}), the
    condition of the rank-r eigenvectors (Davis-Kahan), with lambda the
    eigenvalues of the ridged Gram and lambda_{n+1} = 0.  An equivariant
    search (real data, complex-pair blocks included) picks the same
    component on either route, at the same loss within `tie_slack`."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n + 4))
    if complex_data:
        x = x + 1j * rng.standard_normal(x.shape)
    x *= scale
    ridge = ridge and ridge * scale**2
    fast, ref = weighted_eckart_young(x, x, ridge), weighted_eckart_young(x, x.copy(), ridge)
    sq, ref_sq = fast.svals**2, ref.svals**2
    assert len(sq) == n
    assert np.abs(sq - ref_sq).max() <= 10 * EPS * ref_sq[0] * n
    lam = np.append(np.linalg.eigvalsh(x @ x.conj().T + (ridge or 0.0) * np.eye(n))[::-1], 0.0)
    for r in range(n + 1):
        decoder, encoder, loss, _ = fast.read(r, ("dense", 0, 0))
        ref_decoder, ref_encoder, ref_loss, _ = ref.read(r, ("dense", 0, 0))
        assert abs(loss - ref_loss) <= tie_slack(x)
        m, ref_m = decoder @ encoder, ref_decoder @ ref_encoder
        condition = lam[0] / (lam[r - 1] - lam[r]) if r else 0.0
        assert np.linalg.norm(m - ref_m) <= MINIMIZER_C * n * EPS * np.linalg.norm(ref_m) * condition

    p, x, _, r, _ = instance
    x = scale * x
    fast, ref = solve_equivariant(x, x, p, ridge).fit(r), solve_equivariant(x, x.copy(), p, ridge).fit(r)
    assert fast.component.values == ref.component.values
    assert abs(fast.loss - ref.loss) <= tie_slack(x)


def test_autoencoder_fit_takes_one_eigh_per_block(monkeypatch):
    """A fit of X on itself decomposes its Grams and nothing more: one
    np.linalg.eigh for a dense fit, one per block of sigma for an equivariant
    solve, whose block solves hold no array of X's d columns: neither X nor
    its block rows.  A copy of X as Y takes the row route, two per block,
    and each block solve holds its rows."""
    sigma = horizontal_shift_permutation(3, 4)  # +1, -1 and complex-pair blocks
    x = np.random.default_rng(47).standard_normal((sigma.n, 30))
    eigh_of, calls = np.linalg.eigh, []

    def counted(h):
        calls.append(h.shape)
        return eigh_of(h)

    def data_columns(solve):
        return [v for v in vars(solve).values() if getattr(v, "ndim", 0) == 2 and v.shape[1] == x.shape[1]]

    monkeypatch.setattr(np.linalg, "eigh", counted)
    for data in (x, x.tolist()):
        calls.clear()
        fit_rank_bounded(data, data, 5)
        assert calls == [(sigma.n, sigma.n)]
    assert data_columns(weighted_eckart_young(x, x)) == []
    calls.clear()
    solve = solve_equivariant(x, x, sigma)
    nblocks = len(solve.base_change.spectrum.real_blocks)
    assert len(calls) == len(solve.solves) == nblocks == 3
    assert all(data_columns(s) == [] for s in solve.solves)
    calls.clear()
    assert all(len(data_columns(s)) == 2 for s in solve_equivariant(x, x.copy(), sigma).solves)
    assert len(calls) == 2 * nblocks


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 8), st.booleans(),
       st.sampled_from([None, 1e-3, 1.0]), st.integers(0, 2**32 - 1))
def test_read_forms_the_leading_factors_and_their_loss(m, n, r, complex_data, ridge, seed):
    """read(r) gives the leading r columns of the decoder and rows of the
    encoder of read(k) from the same solve, and as its loss the residual of
    those factors; fit_rank_bounded returns factors of rank r."""
    rng = np.random.default_rng(seed)

    def draw(rows):
        a = rng.standard_normal((rows, n + 4))
        return a + 1j * rng.standard_normal(a.shape) if complex_data else a

    x, y = draw(n), draw(m)
    r = min(r, m, n)
    solve = weighted_eckart_young(x, y, ridge)
    full_decoder, full_encoder, _, _ = solve.read(min(m, n), ("dense", 0, 0))
    decoder, encoder, loss, blk = solve.read(r, ("dense", 0, 0))
    for part, full in ((decoder, full_decoder[:, :r]), (encoder, full_encoder[:r])):
        assert part.shape == full.shape
        assert np.linalg.norm(part - full) <= 1e-12 * np.linalg.norm(full)
    residual = float(np.linalg.norm(decoder @ encoder @ x - y) ** 2)
    assert abs(loss - residual) <= 1e-12 * float(np.linalg.norm(y) ** 2)
    assert blk.rank == r and blk.loss == solve.tails[r]
    if not complex_data:
        fit = fit_rank_bounded(x, y, r, ridge)
        assert fit.decoder.shape == (m, r) and fit.encoder.shape == (r, n)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10), st.sampled_from([1e-100, 1.0, 1e100]), st.integers(0, 2**32 - 1))
@example(n=5, r=0, scale=1.0, seed=0)
@example(n=5, r=2, scale=1.0, seed=0)
@example(n=5, r=5, scale=1.0, seed=0)
@example(n=5, r=9, scale=1.0, seed=0)
def test_autoencoder_loss_is_the_fit_loss(n, r, scale, seed):
    """The sum of the n - r smallest eigenvalues of the Gram X X^T is the
    loss of the rank-r fit of X on itself within tie_slack(X), on the Gram
    route and on the row route (a copy of X), at every scale: at r = 0 it is
    ||X||_F^2 and at r >= n exactly 0.0."""
    x = scale * np.random.default_rng(seed).standard_normal((n, n + 4))
    loss = autoencoder_loss(x @ x.T, r)
    for y in (x, x.copy()):
        assert abs(loss - fit_rank_bounded(x, y, r).loss) <= tie_slack(x)
    if r == 0:
        assert abs(loss - float(np.linalg.norm(x)) ** 2) <= tie_slack(x)
    if r >= n:
        assert loss == 0.0


def test_autoencoder_loss_shares_the_fit_errors(monkeypatch):
    """The rank floor, with the message of the fit; a negative rank, X with
    no rows, and non-finite data, as the Gram of X and as X; and a LAPACK
    failure of the eigenvalue solver as ConvergenceError.  The Gram must be
    real and square."""
    from permlin.errors import MatrixFormatError

    rng = np.random.default_rng(49)
    x = rng.standard_normal((2, 12))
    deficient = np.vstack([x, x[0] + x[1]])
    floor = r"data Gram nearly singular \(smallest eigenvalue .*, largest of the fit .*\); supply more generic data"
    for loss in (lambda a, r: autoencoder_loss(a @ a.T, r), lambda a, r: fit_rank_bounded(a, a, r).loss):
        with pytest.raises(RankDeficientError, match=floor):
            loss(deficient, 1)
        with pytest.raises(SizeMismatchError, match="rank bound -1 is negative"):
            loss(x, -1)
        with pytest.raises(SizeMismatchError, match="data X has no rows"):
            loss(np.empty((0, 4)), 1)
        with pytest.raises(NonFiniteError):
            loss(np.where(np.eye(2, 12) > 0, np.nan, x), 1)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("forced failure")

    with pytest.raises(SizeMismatchError, match=r"Gram has shape \(2, 12\); expected a square matrix"):
        autoencoder_loss(x, 1)
    with pytest.raises(MatrixFormatError):
        autoencoder_loss(x @ x.T + 0j, 1)

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(ConvergenceError, match="forced failure"):
        autoencoder_loss(x @ x.T, 1)


# the Gram route of G = X X^T against the Gram route of X: the largest
# error seen over 3,000 draws of `test_gram_solve_matches_the_data_solve`
# was 3.1 n eps ||G||_2
GRAM_ROUTE_C = 16


@settings(max_examples=60, deadline=None)
@given(equivariant_instances(), st.booleans(), st.sampled_from([None, 1e-3, 1.0]),
       st.sampled_from([1e-100, 1.0, 1e100]))
def test_gram_solve_matches_the_data_solve(instance, one_cycle, ridge, scale):
    """`solve_equivariant_gram(X X^T, p)` reads its block Grams off the dense
    Gram; `solve_equivariant(X, X, p)` sums them over chunks of Q^T X.  On
    mixed cycles with fixed points, and on a single n-cycle (every block
    one cycle wide), at scales 1e+-100 with the ridge scaled with the Gram,
    their tails, constants and searched fits agree within GRAM_ROUTE_C n eps
    ||G||_2, and they search out the same component."""
    p, x, _, r, _ = instance
    if one_cycle:
        p = consecutive_cycles([p.n])
    x = scale * x
    ridge = ridge and ridge * scale**2
    g = x @ x.T
    fast, ref = solve_equivariant_gram(g, p, ridge), solve_equivariant(x, x, p, ridge)
    bound = GRAM_ROUTE_C * p.n * EPS * float(np.linalg.norm(g, 2))
    assert len(fast.solves) == len(ref.solves)
    for a, b in zip(fast.solves, ref.solves):
        assert np.abs(np.subtract(a.tails, b.tails)).max() <= bound
        assert abs(a.constant - b.constant) <= bound
    assert abs(fast.constant - ref.constant) <= bound
    assert abs(fast.slack - ref.slack) <= TIE_TOL * bound
    fast_fit, ref_fit = fast.fit(r), ref.fit(r)
    assert fast_fit.component.values == ref_fit.component.values
    assert abs(fast_fit.loss - ref_fit.loss) <= bound


@pytest.mark.parametrize("p", [consecutive_cycles([4, 2, 1, 1]), consecutive_cycles([8]), ROT9])
def test_gram_solve_shares_the_fit_errors(p):
    """From X X^T and from X: the rank floor, with the message of the fit,
    and the size check against sigma.  The Gram must be real and square,
    with the errors of `autoencoder_loss`."""
    from permlin.errors import MatrixFormatError

    rng = np.random.default_rng(53)
    floor = r"data Gram nearly singular \(smallest eigenvalue .*, largest of the fit .*\); supply more generic data"
    # every pixel alike: Q^T X is 0 outside the +1 block
    flat = np.ones((p.n, 1)) * rng.standard_normal(5)
    for solve in (lambda a: solve_equivariant_gram(a @ a.T, p), lambda a: solve_equivariant(a, a, p)):
        with pytest.raises(RankDeficientError, match=floor):
            solve(flat)
        with pytest.raises(SizeMismatchError, match=f"equivariant fit needs n x d data with n={p.n}"):
            solve(rng.standard_normal((p.n + 1, 3 * p.n)))
    x = rng.standard_normal((p.n, 3 * p.n))
    for gram, error in ((x, SizeMismatchError), (x @ x.T + 0j, MatrixFormatError)):
        with pytest.raises(error) as want:
            autoencoder_loss(gram, 1)
        with pytest.raises(error) as got:
            solve_equivariant_gram(gram, p)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("scratch", [None, 7])
def test_an_asymmetric_gram_is_rejected(monkeypatch, scratch):
    """A Gram from a caller must be symmetric within STRUCTURE_TOL ||G||_F.
    `solve_equivariant_gram` reads all of G, so on cycles (4, 2) with 12
    samples, G with its strict upper triangle negated would fit silently;
    it and `autoencoder_loss` raise one StructuralError with one message.
    An antisymmetric part of half the bound passes and one of twice the
    bound fails.  The exact G of `chunked_gram` and of X X^T passes.  All
    of it holds with X at 1e+-100 too, where ||G||_F^2 under- or overflows,
    and with a SCRATCH of 7, where the check runs over 2 x 2 tiles and
    one-row panels."""
    import permlin.linalg
    from permlin.linalg import STRUCTURE_TOL

    if scratch is not None:
        monkeypatch.setattr(permlin.linalg, "SCRATCH", scratch)
    p = consecutive_cycles([4, 2])
    rng = np.random.default_rng(71)
    x = rng.standard_normal((p.n, 12))
    g = x @ x.T
    negated = np.tril(g) - np.triu(g, 1)
    a = rng.standard_normal((p.n, p.n))
    a -= a.T
    a *= STRUCTURE_TOL * np.linalg.norm(g) / np.linalg.norm(a - a.T)
    asymmetric = r"Gram is not symmetric: \|\|G - G\^T\|\|_F exceeds STRUCTURE_TOL \|\|G\|\|_F"
    for scale in (1.0, 1e-100, 1e100):
        xs = scale * x
        for gram in (chunked_gram([xs[:, :5], xs[:, 5:]], p.n), xs @ xs.T):
            autoencoder_loss(gram, 3)
            solve_equivariant_gram(gram, p).fit(3)
        for gram, ok in ((scale**2 * negated, False), (scale**2 * (g + 0.5 * a), True),
                         (scale**2 * (g + 2 * a), False)):
            for call in (lambda: autoencoder_loss(gram, 3), lambda: solve_equivariant_gram(gram, p).fit(3)):
                if ok:
                    call()
                else:
                    with pytest.raises(StructuralError, match=asymmetric):
                        call()


# the Gram route's loss with a ridge against the row route's residual: the
# largest error of `test_ridged_gram_route_loss_is_accurate_to_the_gram` was
# 1.8 n eps ||G||_2
RIDGE_C = 8


@pytest.mark.parametrize("scale, ridge", [(1.0, 1e12), (1e-100, 1e-3), (1e100, 1e212), (1.0, 1.0)])
def test_ridged_gram_route_loss_is_accurate_to_the_gram(scale, ridge):
    """With a ridge far above the Gram's eigenvalues, lambda - ridge is
    accurate only to about eps ridge (21.149414 against the row route's
    21.149209 at ridge 1e12 on these unit data, and 8.7e-19 against
    2.1e-199 on them scaled by 1e-100); the Gram route reads mu as the
    Rayleigh quotients v_i^H G v_i of the Gram without its ridge, so at
    every rank its loss agrees with the row route's residual within RIDGE_C
    n eps ||G||_2, with no ridge term: the dense fit, and the equivariant
    fit from X and from X X^T."""
    x = scale * np.random.default_rng(0).standard_normal((4, 8))
    g = x @ x.T
    bound = RIDGE_C * 4 * EPS * float(np.linalg.norm(g, 2))
    p = consecutive_cycles([3, 1])
    equivariant = (solve_equivariant(x, x, p, ridge), solve_equivariant_gram(g, p, ridge))
    reference = solve_equivariant(x, x.copy(), p, ridge)
    for r in range(5):
        ref = fit_rank_bounded(x, x.copy(), r, ridge).loss
        assert abs(fit_rank_bounded(x, x, r, ridge).loss - ref) <= bound
        ref = reference.fit(r).loss
        for solve in equivariant:
            assert abs(solve.fit(r).loss - ref) <= bound


def test_a_gram_that_overflows_is_named():
    """Finite data whose Gram overflows: NonFiniteError that names the Gram
    of X, with no numpy warning (the tests turn warnings into errors), from
    the dense and equivariant fits on either route and from `chunked_gram`.
    Data with a NaN or infinite entry are still named as X, by
    `chunked_gram` in any chunk."""
    p = consecutive_cycles([4, 2])
    x = 1e200 * np.random.default_rng(59).standard_normal((p.n, 10))
    overflow = "Gram of X overflows; rescale the data"
    for fit in (lambda: fit_rank_bounded(x, x, 2), lambda: fit_rank_bounded(x, x.copy(), 2),
                lambda: fit_equivariant(x, x, p, 2), lambda: fit_equivariant(x, x.copy(), p, 2),
                lambda: chunked_gram([x[:, :4], x[:, 4:]], p.n)):
        with pytest.raises(NonFiniteError, match=overflow):
            fit()
    ok = x * 1e-200
    for bad in (np.nan, np.inf):
        broken = ok.copy()
        broken[1, 7] = bad
        for fit in (lambda: fit_rank_bounded(broken, broken, 2), lambda: chunked_gram([ok, broken], p.n)):
            with pytest.raises(NonFiniteError, match="X has NaN or infinite entries"):
                fit()


@pytest.mark.parametrize("ridge", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_a_ridge_that_is_not_finite_and_positive_is_named(monkeypatch, ridge):
    """One check rejects every ridge that is not finite and positive, NaN
    included, before any eigendecomposition, and names it: on the dense,
    invariant and equivariant fits, on the row and Gram routes, and from a
    caller's Gram."""
    import permlin.optimize
    from permlin.invariant import fit_invariant, invariant_space

    def fail(*args, **kwargs):
        raise AssertionError("a fit took an eigendecomposition")

    monkeypatch.setattr(permlin.optimize, "eigh", fail)
    rng = np.random.default_rng(67)
    x, y = rng.standard_normal((9, 30)), rng.standard_normal((9, 30))
    space = invariant_space([ROT9], 9, 9, 2)
    for fit in (lambda: fit_rank_bounded(x, y, 2, ridge), lambda: fit_rank_bounded(x, x, 2, ridge),
                lambda: fit_invariant(x, y, space, ridge=ridge),
                lambda: fit_equivariant(x, y, ROT9, 3, ridge=ridge),
                lambda: fit_equivariant(x, x, ROT9, 3, ridge=ridge),
                lambda: solve_equivariant_gram(x @ x.T, ROT9, ridge)):
        with pytest.raises(RankDeficientError, match=f"^ridge must be finite and positive, got {ridge!r}$"):
            fit()


@pytest.mark.parametrize("scratch", [None, 1, 7])
def test_chunked_gram_is_the_gram(monkeypatch, scratch):
    """`chunked_gram` of any split of X into column chunks is X X^T within
    rounding and exactly symmetric, whatever SCRATCH is: its panels and
    block are sized by n alone."""
    import permlin.linalg

    if scratch is not None:
        monkeypatch.setattr(permlin.linalg, "SCRATCH", scratch)
    x = np.random.default_rng(61).standard_normal((9, 23))
    want = x @ x.T
    for split in ([23], [1, 22], [5, 5, 5, 8]):
        g = chunked_gram(np.split(x, np.cumsum(split)[:-1], axis=1), 9)
        assert np.array_equal(g, g.T)
        assert np.abs(g - want).max() <= 4 * 9 * EPS * np.linalg.norm(want, 2)


def test_chunked_gram_holds_g_and_one_panel_product():
    """At n = 512, beyond G and the chunks the caller holds, `chunked_gram`
    allocates at most one row-panel product's worth, SCRATCH entries
    (256 KiB), where one X X^T of a chunk would be n^2 (2 MiB).  Its block
    and panel product now live in G's own buffer, far under this bound
    (`test_chunked_gram_allocates_nothing_beyond_g`)."""
    from permlin.linalg import SCRATCH

    n = 512
    parts = np.split(np.random.default_rng(67).standard_normal((n, 96)), 3, axis=1)
    with traced() as mem:
        g = chunked_gram(parts, n)
    assert mem.peak - g.nbytes <= 8 * SCRATCH + 16 * 1024


def _column_parts(x: np.ndarray, widths: list[int], layout: str) -> list[np.ndarray]:
    """x as consecutive chunks of columns of these widths, each a C- or
    F-ordered copy, or ("strided") a view strided in both dimensions."""
    parts, at = [], 0
    for k in widths:
        part = x[:, at:at + k]
        at += k
        if layout == "strided":
            wide = np.zeros((2 * len(x), 3 * k))
            wide[::2, ::3] = part
            parts.append(wide[::2, ::3])
        else:
            parts.append(np.array(part, order=layout))
    return parts


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 9, 130, 512])
def test_chunked_gram_fills_its_blocks_from_any_chunks(n, layout):
    """`chunked_gram` copies chunks into blocks of w = ceil(n/8) samples.
    Chunks of 1, w - 1, w, w + 1 and w + 1 columns and a short last one,
    which fill a block exactly, overrun it and leave it part full, each
    C-ordered, F-ordered or strided, sum to an exactly symmetric G within
    the rounding of any order of the sum: each entry within d eps of
    (|X| |X|^T)_ij of X X^T (twice gamma_d).  The small n take the longer
    buffer.  A NaN in the last chunk is named as X, and the same data at
    1e200 raise the Gram's overflow."""
    w = -(-n // 8)
    widths = [1, w - 1, w, w + 1, w + 1, max(1, w // 2)]
    d = sum(widths)
    x = np.random.default_rng(n).standard_normal((n, d))
    g = chunked_gram(_column_parts(x, widths, layout), n)
    assert g.shape == (n, n) and np.array_equal(g, g.T)
    assert np.all(np.abs(g - x @ x.T) <= d * EPS * (np.abs(x) @ np.abs(x).T))
    broken = _column_parts(x, widths, layout)
    broken[-1][n // 2, -1] = np.nan
    with pytest.raises(NonFiniteError, match="^X has NaN or infinite entries$"):
        chunked_gram(broken, n)
    with pytest.raises(NonFiniteError, match="^Gram of X overflows; rescale the data$"):
        chunked_gram(_column_parts(1e200 * x, widths, layout), n)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_chunked_gram_allocates_nothing_beyond_g(layout):
    """At n = 512 the packed panels take 0.56 n^2 entries of G's buffer, and
    the block of w = 64 samples and the one panel product (0.25 n^2) its
    tail: beyond G and the caller's chunks of 40 columns, C- or F-ordered,
    `chunked_gram` allocates at most 16 KiB, Python's own objects."""
    n = 512
    parts = _column_parts(np.random.default_rng(73).standard_normal((n, 200)), [40] * 5, layout)
    with traced() as mem:
        g = chunked_gram(parts, n)
    assert mem.peak - g.nbytes <= 16 * 1024


def _norm_f(m: np.ndarray) -> float:
    """||m||_F from a correctly rounded sum (`math.fsum`) of the squares of
    m scaled by a power of two, so that none under- or overflows."""
    e = math.frexp(np.abs(m).max())[1]
    return math.ldexp(math.sqrt(math.fsum((np.ldexp(m, -e) ** 2).ravel())), e)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["off-diagonal", "diagonal", "ragged"]), st.floats(-10, -6),
       st.sampled_from([1e-200, 1.0, 1e200]), st.booleans(), st.integers(0, 2**32 - 1))
@example("off-diagonal", -8 + 1e-6, 1.0, False, 0)
@example("off-diagonal", -8 - 1e-6, 1.0, False, 0)
@example("diagonal", -8 + 1e-6, 1e200, True, 1)
@example("ragged", -8 - 1e-6, 1e-200, True, 2)
def test_gram_symmetry_verdict_sits_on_the_side_of_structure_tol(tile, log_rel, scale, strided, seed):
    """`_square_gram` sums ||G - G^T||_F^2 over the t x t tiles on and
    below the diagonal, t = floor(sqrt(SCRATCH)); on n = 2t + 5 the last
    tile is ragged, 5 rows.  An exactly symmetric G at scale 1e-200, 1 or
    1e200 (where ||G||_F^2 under- or overflows), C-ordered or strided in
    both dimensions, gets one entry moved by 10^log_rel ||G||_F / sqrt(2),
    drawn log-uniformly across STRUCTURE_TOL = 1e-8: in an off-diagonal
    tile, in a diagonal tile, or in the ragged tile row, above or below the
    diagonal.  G - G^T then holds +-dev for the float difference dev the
    check takes too, and the test reads ||G||_F exactly (`_norm_f`), so
    only the library's own sums round: draws within n^2 eps of the bound,
    relative, leave the side unasserted.  The check raises StructuralError
    exactly when sqrt(2) dev exceeds STRUCTURE_TOL ||G||_F, and otherwise
    returns G itself."""
    from permlin.linalg import SCRATCH, STRUCTURE_TOL

    assert STRUCTURE_TOL == 1e-8  # the examples sit 1e-6 decades from it
    t = math.isqrt(SCRATCH)
    n = 2 * t + 5
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    g = scale * (a + a.T)
    if tile == "off-diagonal":
        i, j = int(rng.integers(t, 2 * t)), int(rng.integers(t))
    elif tile == "diagonal":
        i, j = (int(v) for v in rng.choice(t, 2, replace=False))
    else:
        i = int(rng.integers(2 * t, n))
        j = int(rng.choice([v for v in range(n) if v != i]))
    if rng.random() < 0.5:
        i, j = j, i
    g[i, j] += (1 if rng.random() < 0.5 else -1) * 10.0 ** log_rel * _norm_f(g) / math.sqrt(2)
    dev, norm = abs(g[i, j] - g[j, i]), _norm_f(g)
    if strided:
        wide = np.zeros((2 * n, 3 * n))
        wide[::2, ::3] = g
        g = wide[::2, ::3]
    try:
        assert optimize._square_gram(g) is g
        rejected = False
    except StructuralError:
        rejected = True
    if abs(math.sqrt(2) * dev / (STRUCTURE_TOL * norm) - 1) > n * n * EPS:
        assert rejected == (math.sqrt(2) * dev > STRUCTURE_TOL * norm)


def test_gram_symmetry_check_of_a_strided_gram_holds_two_scratches():
    """A strided G has no row panel to read in place: beyond G,
    `_square_gram` holds at most 2 SCRATCH entries at once, one tile
    difference and numpy's buffers for its transposed operand, or one
    row panel copied for its norm."""
    from permlin.linalg import SCRATCH

    n = 512
    a = np.random.default_rng(79).standard_normal((n, n))
    wide = np.zeros((2 * n, 3 * n))
    wide[::2, ::3] = a + a.T
    g = wide[::2, ::3]
    with traced() as mem:
        optimize._square_gram(g)
    assert mem.peak <= 2 * 8 * SCRATCH


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(4, 4, 2, 1), (3, 3, 2, 1), (6, 2, 1), (5, 2, 1, 1), (1, 1)]), st.floats(-12, -8),
       st.sampled_from([1e-100, 1.0, 1e100]), st.integers(0, 2**32 - 1))
@example((4, 4, 2, 1), -10 + 1e-2, 1.0, 0)
@example((4, 4, 2, 1), -10 - 1e-2, 1.0, 0)
@example((3, 3, 2, 1), -10 - 1e-2, 1e100, 1)
def test_rank_floor_sits_on_the_side_of_default_tol(lengths, log_ratio, scale, seed):
    """The rank floor of every fit of X on itself, lambda_min > DEFAULT_TOL
    lambda_max, with lambda_min / lambda_max drawn log-uniformly across
    DEFAULT_TOL and X across 1e+-100.  `autoencoder_loss` of X X^T, the
    dense fit and the equivariant fit, each of X on X (the Gram route) and
    on a copy (the row route), and the equivariant fit from X X^T agree, and
    each raises RankDeficientError exactly when the planted ratio is at most
    DEFAULT_TOL.

    X = Q diag(sqrt(lambda)) W^T for the dense base change Q of sigma and
    W of n orthonormal columns, so the rows of Q^T X are orthogonal: the
    dense Gram has the eigenvalues lambda, a real block Gram its rows' lambda
    and a complex-pair block Gram the sums lambda_2i + lambda_2i+1 of its row
    pairs.  lambda_max = 1 and lambda_min = ratio sit on two rows of real
    blocks, and every other lambda in [4 ratio, 1/4], so both spectra have
    the same extremes.  Forming W, X and a Gram and its eigh move each
    eigenvalue by at most about (n + d) n eps lambda_max, and by less than
    8 n (n + d) eps lambda_max in all: only draws whose ratio lies that
    close to DEFAULT_TOL go unasserted."""
    p = consecutive_cycles(list(lengths))
    bc = real_base_change(p)
    n, d = p.n, p.n + 4
    rng = np.random.default_rng(seed)
    real_rows = np.concatenate([np.arange(sl.start, sl.stop) for blk, sl in
                                zip(bc.spectrum.real_blocks, bc.block_slices) if blk.kind != "complex_pair"])
    top, low = rng.choice(real_rows, 2, replace=False)
    ratio = 10.0 ** log_ratio
    lam = 10.0 ** rng.uniform(np.log10(4 * ratio), np.log10(0.25), n)
    lam[top], lam[low] = 1.0, ratio
    w = np.linalg.qr(rng.standard_normal((d, n)))[0]
    x = scale * (dense_base_change(bc)[0] @ (np.sqrt(lam)[:, None] * w.T))
    verdicts = []
    for fit in (lambda: autoencoder_loss(x @ x.T, 1), lambda: fit_rank_bounded(x, x, 1),
                lambda: fit_rank_bounded(x, x.copy(), 1), lambda: fit_equivariant(x, x, p, 1),
                lambda: fit_equivariant(x, x.copy(), p, 1), lambda: solve_equivariant_gram(x @ x.T, p).fit(1)):
        try:
            fit()
            verdicts.append(True)
        except RankDeficientError:
            verdicts.append(False)
    if abs(ratio - DEFAULT_TOL) > 8 * n * (n + d) * EPS:
        assert verdicts == [ratio > DEFAULT_TOL] * 6


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(4, 2, 1), (4, 4, 2, 1), (6, 2, 1), (3, 2, 2, 1)]), st.floats(-11, -7),
       st.sampled_from([1e-100, 1.0, 1e100]), st.integers(0, 2**32 - 1))
@example((4, 2, 1), np.log10(2.6e-9), 1.0, 0)
@example((4, 4, 2, 1), -8.5, 1e100, 1)
def test_component_tie_sits_on_the_side_of_tie_tol(lengths, log_gap, scale, seed):
    """The search's tie rule, losses within tie_slack(Y) = TIE_TOL ||Y||_F^2
    of the least count as tied, with the loss gap between the two best
    components drawn log-uniformly across TIE_TOL ||Y||_F^2 and X across
    1e+-100.  The fit of X on itself (the Gram route), on a copy (the row
    route) and from X X^T each searches out the rank vector of
    `oracles.best_scored` on its own tails with slack tie_slack(Y), and that
    is the side the formula gives.

    X = Q diag(sqrt(lambda)) W^T as in the rank-floor test, so the rows of
    Q^T X are orthogonal and each block's squared singular values are its
    rows' lambda.  At rank 1 only the +1 and the -1 block can take the rank:
    lambda = 1 on a row of the +1 block and 1 - gap on a row of the -1
    block, every other lambda in [1/20, 1/4], so the losses of (0, 1, ...)
    and (1, 0, ...) differ by gap and the tie rule keeps the smaller vector
    (0, 1, ...) exactly when gap <= TIE_TOL sum(lambda).  The computed gap
    was within 0.1 n (n + d) eps of the planted one over 4,800 fits; only
    draws within 8 n (n + d) eps of the bound go unasserted."""
    p = consecutive_cycles(list(lengths))
    bc = real_base_change(p)
    n, d = p.n, p.n + 4
    rng = np.random.default_rng(seed)
    plus, minus = bc.block_slices[:2]
    gap = 10.0 ** log_gap
    lam = rng.uniform(0.05, 0.25, n)
    lam[rng.integers(plus.start, plus.stop)] = 1.0
    lam[rng.integers(minus.start, minus.stop)] = 1.0 - gap
    w = np.linalg.qr(rng.standard_normal((d, n)))[0]
    x = scale * (dense_base_change(bc)[0] @ (np.sqrt(lam)[:, None] * w.T))
    rest = (0,) * (len(bc.block_slices) - 2)
    want = (0, 1) + rest if gap <= TIE_TOL * lam.sum() else (1, 0) + rest
    if abs(gap - TIE_TOL * lam.sum()) > 8 * n * (n + d) * EPS:
        for solve in (solve_equivariant(x, x, p), solve_equivariant(x, x.copy(), p),
                      solve_equivariant_gram(x @ x.T, p)):
            fit = solve.fit(1)
            scored = score_components(bc.spectrum, 1, block_tails(fit.per_block), fit.constant_loss)
            assert fit.component.values == best_scored(scored, tie_slack(x)) == want


def test_read_rejects_a_rank_above_the_solve():
    fit = weighted_eckart_young(np.eye(3), np.ones((2, 3)))
    for r in (-1, 3):
        with pytest.raises(SizeMismatchError, match=f"rank {r} outside 0..2"):
            fit.read(r, ("dense", 0, 0))


def test_no_fit_path_takes_an_svd(monkeypatch):
    """The dense, invariant and equivariant fits (real and complex-pair
    blocks) solve with eigendecompositions only."""
    from permlin.invariant import fit_invariant, invariant_space

    def fail(*args, **kwargs):
        raise AssertionError("a fit called np.linalg.svd")

    rng = np.random.default_rng(3)
    x, y = rng.standard_normal((9, 30)), rng.standard_normal((9, 30))
    space = invariant_space([ROT9], 9, 9, 2)
    monkeypatch.setattr(np.linalg, "svd", fail)
    fits = [fit_rank_bounded(x, y, 3), fit_rank_bounded(x, y, 3, ridge=1.0),
            fit_invariant(x, y, space), fit_equivariant(x, y, ROT9, 3),
            fit_equivariant(x, y, ROT9, 3, heuristic="energy")]
    for fit in fits:
        assert fit.minimizer.shape == (9, 9) and np.isfinite(fit.loss)


def test_a_solve_holds_one_basis():
    """A dense solve retains, beyond the X and Y it was given, one k x k
    array: its basis, read for every rank.  Of X on itself and of X on Y."""
    rng = np.random.default_rng(48)
    k, d = 256, 400
    x = rng.standard_normal((k, d))
    for y in (x, rng.standard_normal((k, d))):
        with traced() as mem:
            solve = weighted_eckart_young(x, y)
        assert mem.held < 1.25 * 8 * k * k
        assert solve.basis.shape == (k, k)


def test_equivariant_solve_and_read_never_hold_q_basis_copies():
    """On the 32x32 shift demo data (n = 1024, d = 2000), beyond X: the
    solve of X on itself changes the basis of X by column chunks and sums
    each chunk's block rows into the block Grams, and peaks below 0.25
    X.nbytes (0.09 measured; 1.09 when it held the block rows, 2.0 when
    Q^T X was formed whole).  The high-pass fit, full rank on the upper half
    of the blocks by angle as in `demo-shift` (total rank 544), reads and
    keeps only its per-block factors: it peaks below 0.25 X.nbytes and holds
    below 0.05 X.nbytes (0.69 and 0.55 when it placed its 8.5 MB decoder
    and encoder).  Their first read places them by column chunks, split
    inside a block where a chunk ends, and peaks below 1.25 times their
    bytes (1.09 measured; 1.18 when a chunk held whole blocks, 2.5 with the
    whole tilde factors and their base changes)."""
    sigma = horizontal_shift_permutation(32, 32)
    x = demo_shift_dataset(32, 32, 2000, seed=1)
    with traced() as mem:
        solve = solve_equivariant(x, x, sigma)
    assert mem.peak < 0.25 * x.nbytes
    spec = solve.base_change.spectrum
    blocks = spec.real_blocks
    upper = np.argsort([(b.l - b.m) / b.l for b in blocks])[len(blocks) // 2:]
    rvec = make_rank_vector(spec, "real", [b.size if i in upper else 0 for i, b in enumerate(blocks)])
    assert rvec.total_rank == 544
    with traced() as mem:
        fit = solve.fit(rvec.total_rank, component=rvec)
    assert mem.peak < 0.25 * x.nbytes and mem.held < 0.05 * x.nbytes
    assert fit.component == rvec
    with traced() as mem:
        decoder, encoder = fit.decoder, fit.encoder
    assert mem.peak < 1.25 * (decoder.nbytes + encoder.nbytes)


def test_library_fit_memory_at_64x64():
    """The 64x64 shift (n = 4096, 33 blocks of 64) with d = 1000, X of
    31 MB: the solve of X on itself peaks below 0.25 X.nbytes, its block
    Grams, their eigenvectors and one column chunk (0.15 measured; 1.11 when
    it held the block rows), and the exact rank-99 fit without a read of
    its factors below 0.1 X.nbytes: the data plus O(sum of d_b^2), no n x n
    and no n x d copy.  The first read of its decoder places decoder and
    encoder by column chunks, split inside its rank-36 block, and peaks
    below 1.25 times their bytes (1.12 measured; 1.55 when a chunk held
    whole blocks)."""
    sigma = horizontal_shift_permutation(64, 64)
    x = demo_shift_dataset(64, 64, 1000, seed=1)
    with traced() as mem:
        solve = solve_equivariant(x, x, sigma)
    assert mem.peak < 0.25 * x.nbytes
    with traced() as mem:
        fit = solve.fit(99)
    assert mem.peak < 0.1 * x.nbytes
    assert fit.component.total_rank == 99
    with traced() as mem:
        decoder = fit.decoder
    assert mem.peak < 1.25 * (decoder.nbytes + fit.encoder.nbytes)


def test_minimizer_is_built_on_first_read():
    """Fitting the 32x32 shift (n=1024) allocates less than one n x n float64
    array; the dense minimizer is built when first read, then cached."""
    sigma = horizontal_shift_permutation(32, 32)
    n = sigma.n
    rng = np.random.default_rng(45)
    x = rng.standard_normal((n, 128))
    y = rng.standard_normal((n, 128))
    with traced() as mem:
        fit = fit_equivariant(x, y, sigma, 99)
    assert mem.peak < 8 * n * n
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


def test_solves_compare_and_hash_by_identity():
    """A base change, a block solve and an equivariant solve hold arrays, on
    which field-wise equality would be ambiguous, so each compares and
    hashes by identity, as `Parameterization` does: not even a copy with the
    same field values is equal."""
    rng = np.random.default_rng(49)
    solve = solve_equivariant(rng.standard_normal((9, 30)), rng.standard_normal((9, 30)), ROT9)
    for a in (solve, solve.base_change, solve.solves[0]):
        twin = dataclasses.replace(a)
        assert a == a and a != twin
        assert len({a, twin, a}) == 2
    assert real_base_change(ROT9) != real_base_change(ROT9)


def test_fits_pickle():
    """A fit holds arrays, not a closure, so every kind round-trips through
    pickle, before and after its minimizer is first read."""
    import pickle

    from permlin.invariant import fit_invariant, invariant_space

    rng = np.random.default_rng(46)
    x = rng.standard_normal((9, 30))
    y = rng.standard_normal((9, 30))
    fits = {
        "dense": fit_rank_bounded(x, y, 3),
        "equivariant": fit_equivariant(x, y, ROT9, 3),
        "invariant": fit_invariant(x, y, invariant_space([ROT9], 9, 9, 2)),
    }
    for name, fit in fits.items():
        for _ in range(2):
            restored = pickle.loads(pickle.dumps(fit))
            assert restored == fit, name
            assert np.array_equal(restored.decoder, fit.decoder), name
            assert np.array_equal(restored.encoder, fit.encoder), name
            assert np.array_equal(restored.minimizer, fit.minimizer), name


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

    @pytest.mark.parametrize("c", [1e-200, 1e-12, 1e-9, 1.0, 1e6, 1e200])
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

    @pytest.mark.parametrize("c", [1e-200, 1e-12, 1e-9, 1.0, 1e6, 1e200])
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

    def test_data_without_rows_rejected(self):
        empty, y = np.zeros((0, 3)), np.ones((2, 3))
        with pytest.raises(SizeMismatchError, match="no rows"):
            fit_rank_bounded(empty, y, 1)
        for target in (y, empty):
            with pytest.raises(SizeMismatchError, match="no rows"):
                weighted_eckart_young(empty, target)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("forced failure")

        rng = np.random.default_rng(42)
        x = rng.standard_normal((9, 20))
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            fit_rank_bounded(x, x, 3)
        monkeypatch.undo()
        eigh_of, calls = np.linalg.eigh, []

        def fail_at(k):
            def eigh(h):
                calls.append(h.shape)
                return fail() if len(calls) == k else eigh_of(h)
            return eigh

        # the second eigh of a dense fit is its A^H A solve, after the Gram's;
        # a copy of X as Y, since a fit of X on itself has no A^H A solve
        monkeypatch.setattr(np.linalg, "eigh", fail_at(2))
        with pytest.raises(ConvergenceError):
            fit_rank_bounded(x, x.copy(), 3)
        assert calls == [(9, 9), (9, 9)]
        # an equivariant fit decomposes every block Gram first, so the call
        # after them is the A^H A solve of the first block
        nblocks = len(real_base_change(ROT9).spectrum.real_blocks)
        calls.clear()
        monkeypatch.setattr(np.linalg, "eigh", fail_at(nblocks + 1))
        with pytest.raises(ConvergenceError):
            fit_equivariant(x, x.copy(), ROT9, 3)
        assert len(calls) == nblocks + 1


def blockwise_als_best(x, y, p, r, rng):
    """Least loss over all components of restarted ALS per block, in the Q basis."""
    bc = real_base_change(p)
    spec = bc.spectrum
    q_inv = dense_base_change(bc)[1]
    xt, yt = q_inv @ x, q_inv @ y
    best = np.inf
    for desc in enumerate_components(spec, r, "real"):
        total = 0.0
        for blk, sl, (_, _, rb) in zip(spec.real_blocks, bc.block_slices,
                                       desc.rank_vector.entries):
            xb, yb = xt[sl], yt[sl]
            if blk.kind == "complex_pair":
                xb, yb = xb[0::2] + 1j * xb[1::2], yb[0::2] + 1j * yb[1::2]
            total += als_loss(xb, yb, rb, rng, restarts=25, sweeps=60)
        best = min(best, total)
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
