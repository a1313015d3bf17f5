"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values.  Tolerances are pinned here, not configurable."""

import time
from itertools import combinations

import numpy as np

from permlin.datasets import demo_shift_dataset, horizontal_shift_permutation
from permlin.equivariant import (
    classify_component,
    component_dimension,
    count_components,
    enumerate_components,
    free_parameter_count,
    make_rank_vector,
    pair_orbit_labels,
    parameterize_component,
)
from permlin.invariant import fit_invariant, invariant_space, psi_compress, psi_expand
from permlin.linalg import numeric_rank, realize
from permlin.optimize import ed_degrees, fit_equivariant, fit_rank_bounded
from permlin.oracles import (
    als_low_rank,
    critical_points,
    dense_base_change,
    expected_block_form,
    nullspace_commutant_dim,
    unrealize,
)
from permlin.perms import (
    cycle_decomposition,
    parse_permutation,
    permutation_matrix,
)
from permlin.spectral import BlockSpectrum, commutant_dimension, eigen_multiplicities, real_base_change

from helpers import als_loss, random_perm

ROT9 = parse_permutation("(1 4 3 2)(5 8 7 6)", 9)
CHI9 = parse_permutation("(1 2)(3 4)(6 8)", 9)
SHIFT9 = parse_permutation("(1 5 2)(3 4 7)(6 8 9)", 9)


def test_criterion_1_commutant_dimensions():
    t0 = time.perf_counter()
    formula = commutant_dimension(cycle_decomposition(ROT9))
    dims = {
        "rotation": (formula, nullspace_commutant_dim([ROT9])),
        "rotation+reflection": (pair_orbit_labels([ROT9, CHI9])[1],
                                nullspace_commutant_dim([ROT9, CHI9])),
        "rotation+reflection+shift": (pair_orbit_labels([ROT9, CHI9, SHIFT9])[1],
                                      nullspace_commutant_dim([ROT9, CHI9, SHIFT9])),
    }
    elapsed = time.perf_counter() - t0
    assert dims["rotation"] == (21, 21)
    assert dims["rotation+reflection"] == (15, 15)
    assert dims["rotation+reflection+shift"] == (3, 3)
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: commutant dims 21/15/3 by formula and nullspace oracle ({elapsed:.3f}s)")


def test_criterion_2_rotation_component_census():
    spec = eigen_multiplicities(cycle_decomposition(ROT9))
    assert count_components(spec, 3, "complex") == 17
    cplx = list(enumerate_components(spec, 3, "complex"))
    dim_multiset = sorted(d.dimension for d in cplx)
    assert dim_multiset == [7] * 6 + [9] * 5 + [11] * 6
    assert count_components(spec, 3, "real") == 5
    real = list(enumerate_components(spec, 3, "real"))
    assert [d.rank_vector.values for d in real] == [
        (3, 0, 0), (2, 1, 0), (1, 2, 0), (1, 0, 1), (0, 1, 1)]
    assert [d.dimension for d in real] == [9, 11, 9, 11, 9]
    print("ACCEPTANCE 2 PASS: rotation census - 17 complex {11^6,9^5,7^6}, 5 real with dims (9,11,9,11,9)")


def test_criterion_3_mnist_scale_census():
    spec = BlockSpectrum.from_cycle_lengths([28] * 28)
    target = 72_425_986_088_826
    t0 = time.perf_counter()
    real_count = count_components(spec, 99, "real")
    elapsed = time.perf_counter() - t0
    complex_count = count_components(spec, 99, "complex")
    assert real_count == target
    assert complex_count != target
    assert elapsed < 1.0
    print(f"ACCEPTANCE 3 PASS: 28 cycles of 28, r=99 -> {real_count} via the REAL counter "
          f"({elapsed:.4f}s); complex counter gives {complex_count} (does not match)")


def test_criterion_4_parameter_accounting():
    spec = BlockSpectrum.from_cycle_lengths([28] * 28)
    by_label = {(b.l, b.m): i for i, b in enumerate(spec.real_blocks)}
    values = [0] * len(spec.real_blocks)
    for label, r in {(1, 1): 13, (28, 27): 10, (14, 13): 9, (28, 25): 8, (7, 6): 7,
                     (28, 23): 5, (14, 11): 3, (4, 3): 1}.items():
        values[by_label[label]] = r
    rvec = make_rank_vector(spec, "real", values)
    assert rvec.total_rank == 99
    sigma = horizontal_shift_permutation(28, 28)
    par = parameterize_component(rvec, sigma, rng=np.random.default_rng(0))
    assert par.decoder.shape == (784, 99) and par.encoder.shape == (99, 784)
    emitted = len(par.pattern.decoder_groups) + len(par.pattern.encoder_groups)
    assert emitted == 5544
    assert free_parameter_count(rvec) == 5544
    dense = 2 * 99 * 784
    assert dense == 155_232
    print(f"ACCEPTANCE 4 PASS: shift-architecture rank vector yields has {emitted} free "
          f"parameters (= 5,544); dense rank-99 factorization has {dense} (= 155,232)")


def test_criterion_5_ed_degrees():
    assert ed_degrees("determinantal", (2, 2, 1)) == 2
    rng = np.random.default_rng(0)
    checked = 0
    for m, k in [(2, 2), (3, 4), (4, 3), (5, 5), (3, 5)]:
        for r in range(1, min(m, k) + 1):
            target = rng.standard_normal((m, k))
            assert len(critical_points(target, min(r, k))) == ed_degrees("invariant", (m, k, r))
            checked += 1
    for d in (2, 3, 4, 5):
        for r in range(1, d + 1):
            z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            u, s, vt = np.linalg.svd(z)
            crits = [(u[:, list(c)] * s[list(c)]) @ vt[list(c), :]
                     for c in combinations(range(d), r)]
            assert len(crits) == ed_degrees("realization_block", (d, r))
            losses = sorted(float(np.linalg.norm(realize(c - z)) ** 2) for c in crits)
            assert all(b - a > 1e-12 for a, b in zip(losses, losses[1:]))
            checked += 1
    print(f"ACCEPTANCE 5 PASS: determinantal(2,2,1)=2; {checked} invariant/realization degree "
          "formulas match Eckart-Young subset enumeration exactly")


def test_criterion_6_fit_consistency_100_instances():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    n_equiv, n_inv = 0, 0
    while n_equiv < 60:
        n = int(rng.integers(3, 10))
        p = random_perm(rng, n)
        spec = eigen_multiplicities(cycle_decomposition(p))
        r = int(rng.integers(1, n + 1))
        descs = list(enumerate_components(spec, r, "real"))
        if not descs:
            continue
        rvec = descs[rng.integers(len(descs))].rank_vector
        par = parameterize_component(rvec, p, rng=rng)
        m0 = par.decoder @ par.encoder
        x = rng.standard_normal((n, n + 10))
        fit = fit_equivariant(x, m0 @ x, p, r)
        assert fit.loss <= 1e-8
        assert fit.component.values == rvec.values
        assert classify_component(m0, p).values == rvec.values
        n_equiv += 1
    while n_inv < 40:
        n = int(rng.integers(2, 10))
        m = int(rng.integers(2, 10))
        p = random_perm(rng, n)
        space = invariant_space([p], m, n, int(rng.integers(1, min(m, n) + 1)))
        compact = (rng.standard_normal((m, space.effective_rank))
                   @ rng.standard_normal((space.effective_rank, space.k)))
        m0 = psi_expand(compact, space.partition)
        x = rng.standard_normal((n, n + 10))
        fit = fit_invariant(x, m0 @ x, space)
        assert fit.loss <= 1e-8
        assert np.linalg.norm(fit.minimizer - m0) <= 1e-6 * (1 + np.linalg.norm(m0))
        n_inv += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"ACCEPTANCE 6 PASS: 100 consistent instances recovered (residual <= 1e-8, "
          f"components classified back) in {elapsed:.1f}s")


def test_criterion_7_oracle_equivalence_50_instances():
    rng = np.random.default_rng(2)
    count = 0
    # 25 dense rank-bounded fits vs plain ALS
    for _ in range(25):
        m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        r = int(rng.integers(1, min(m, n) + 1))
        x = rng.standard_normal((n, n + 6))
        y = rng.standard_normal((m, n + 6))
        fit = fit_rank_bounded(x, y, r)
        oracle = als_low_rank(r, restarts=30, x=x, y=y, seed=int(rng.integers(2**31)))
        assert fit.loss <= oracle + 1e-6
        count += 1
    # 15 invariant fits vs ALS on the compressed problem
    from permlin.perms import replication_matrix

    for _ in range(15):
        n, m = int(rng.integers(3, 8)), int(rng.integers(2, 6))
        p = random_perm(rng, n)
        space = invariant_space([p], m, n, int(rng.integers(1, min(m, n) + 1)))
        x = rng.standard_normal((n, n + 6))
        y = rng.standard_normal((m, n + 6))
        fit = fit_invariant(x, y, space)
        xt = replication_matrix(space.partition).astype(float) @ x
        oracle = als_loss(xt, y, space.effective_rank, rng, restarts=30, sweeps=50)
        assert fit.loss <= oracle + 1e-6
        count += 1
    # 10 exhaustive equivariant fits (n <= 6) vs blockwise restarted ALS
    done = 0
    while done < 10:
        n = int(rng.integers(3, 7))
        p = random_perm(rng, n)
        bc = real_base_change(p)
        spec = bc.spectrum
        r = int(rng.integers(1, n + 1))
        if count_components(spec, r, "real") == 0:
            continue
        x = rng.standard_normal((n, n + 8))
        y = rng.standard_normal((n, n + 8))
        fit = fit_equivariant(x, y, p, r)
        q_inv = dense_base_change(bc)[1]
        xt, yt = q_inv @ x, q_inv @ y
        best = np.inf
        for desc in enumerate_components(spec, r, "real"):
            total = 0.0
            for blk, sl, (_, _, rb) in zip(spec.real_blocks, bc.block_slices,
                                           desc.rank_vector.entries):
                xb, yb = xt[sl], yt[sl]
                if blk.kind == "complex_pair":
                    total += als_loss(xb[0::2] + 1j * xb[1::2], yb[0::2] + 1j * yb[1::2],
                                      rb, rng, restarts=20, sweeps=50)
                else:
                    total += als_loss(xb, yb, rb, rng, restarts=20, sweeps=50)
            best = min(best, total)
        assert fit.loss <= best + 1e-6
        assert abs(fit.loss - best) <= 1e-5 * (1 + best)
        count += 1
        done += 1
    assert count == 50
    print("ACCEPTANCE 7 PASS: 50 instances - closed-form losses <= ALS oracle + 1e-6, "
          "equal within 1e-5 on the exhaustive n <= 6 cases")


def test_criterion_8_structural_invariants():
    rng = np.random.default_rng(3)
    # realization is a ring homomorphism and doubles rank
    for _ in range(25):
        k = int(rng.integers(1, 5))
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        w = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        assert np.linalg.norm(realize(z @ w) - realize(z) @ realize(w)) <= 1e-10 * (
            1 + np.linalg.norm(z) * np.linalg.norm(w))
        assert np.linalg.norm(realize(z + w) - realize(z) - realize(w)) <= 1e-12
        assert numeric_rank(realize(z)) == 2 * np.linalg.matrix_rank(z)
        assert np.array_equal(unrealize(realize(z)), z)
    # psi round trips exactly
    for _ in range(25):
        n = int(rng.integers(2, 10))
        p = random_perm(rng, n)
        part = invariant_space([p], 3, n, 1).partition
        compact = rng.standard_normal((3, part.k))
        m = psi_expand(compact, part)
        assert np.array_equal(psi_compress(m, part), compact)
        assert np.array_equal(psi_expand(psi_compress(m, part), part), m)
    # orthogonality and conjugation residuals of the real base change
    for _ in range(15):
        n = int(rng.integers(2, 41))
        p = random_perm(rng, n)
        bc = real_base_change(p)
        q = dense_base_change(bc)[0]
        assert np.linalg.norm(q @ q.T - np.eye(n)) <= 1e-9
        B = q.T @ permutation_matrix(p) @ q
        assert np.linalg.norm(B - expected_block_form(bc)) <= 1e-9
    # finite-difference Jacobian rank of the parameterization = closed-form dim
    checked = 0
    while checked < 8:
        n = int(rng.integers(3, 11))
        p = random_perm(rng, n)
        spec = eigen_multiplicities(cycle_decomposition(p))
        r = int(rng.integers(1, n + 1))
        descs = list(enumerate_components(spec, r, "real"))
        if not descs:
            continue
        rvec = descs[rng.integers(len(descs))].rank_vector
        dim = component_dimension(rvec)
        blocks = [(blk, rb) for blk, (_, _, rb) in zip(spec.real_blocks, rvec.entries)]
        sizes = []
        for blk, rb in blocks:
            per = blk.size * rb * (2 if blk.kind == "complex_pair" else 1)
            sizes.append(2 * per)  # decoder + encoder factors
        theta0 = rng.standard_normal(sum(sizes))

        def matrix_at(theta):
            factors = []
            pos = 0
            for blk, rb in blocks:
                d = blk.size
                if blk.kind == "complex_pair":
                    na = 2 * d * rb
                    a = theta[pos:pos + na].reshape(d, rb, 2)
                    A = a[..., 0] + 1j * a[..., 1]
                    b = theta[pos + na:pos + 2 * na].reshape(rb, d, 2)
                    B = b[..., 0] + 1j * b[..., 1]
                    pos += 2 * na
                else:
                    na = d * rb
                    A = theta[pos:pos + na].reshape(d, rb)
                    B = theta[pos + na:pos + 2 * na].reshape(rb, d)
                    pos += 2 * na
                factors.append((A, B))
            par = parameterize_component(rvec, p, factors=factors)
            return (par.decoder @ par.encoder).ravel()

        h = 1e-6
        cols = []
        for i in range(len(theta0)):
            e = np.zeros_like(theta0)
            e[i] = h
            cols.append((matrix_at(theta0 + e) - matrix_at(theta0 - e)) / (2 * h))
        J = np.column_stack(cols) if cols else np.zeros((n * n, 0))
        s = np.linalg.svd(J, compute_uv=False) if J.size else np.array([])
        jac_rank = int(np.sum(s > 1e-6 * max(1.0, s[0] if s.size else 1.0)))
        assert jac_rank == dim, (rvec.values, jac_rank, dim)
        checked += 1
    print("ACCEPTANCE 8 PASS: realization ring homomorphism, rank doubling, psi round trips, "
          "base-change residuals <= 1e-9, Jacobian ranks match closed-form dimensions")


def test_criterion_9_demo_shift_loss_ordering():
    height, width, samples, rank = 16, 16, 500, 48
    X = demo_shift_dataset(height, width, samples, seed=0, noise=0.05)
    sigma = horizontal_shift_permutation(height, width)
    bc = real_base_change(sigma)
    spec = bc.spectrum

    dense = fit_rank_bounded(X, X, rank)
    energy = fit_equivariant(X, X, sigma, rank, heuristic="energy")

    c = rank // (sum(1 for b in spec.real_blocks if b.rank_multiplier == 1)
                 + 2 * sum(1 for b in spec.real_blocks if b.rank_multiplier == 2))
    equal_rvec = make_rank_vector(spec, "real", [min(c, b.size) for b in spec.real_blocks])
    equal = fit_equivariant(X, X, sigma, equal_rvec.total_rank, component=equal_rvec)

    angles = [0.0 if b.kind == "real_plus" else
              (np.pi if b.kind == "real_minus" else 2 * np.pi * (b.l - b.m) / b.l)
              for b in spec.real_blocks]
    order = np.argsort(angles)
    high_vals = [0] * len(spec.real_blocks)
    for i in order[len(order) // 2:]:
        high_vals[i] = spec.real_blocks[i].size
    high_rvec = make_rank_vector(spec, "real", high_vals)
    high = fit_equivariant(X, X, sigma, high_rvec.total_rank, component=high_rvec)

    assert dense.loss <= energy.loss + 1e-9
    assert energy.loss <= equal.loss + 1e-9
    assert equal.loss <= high.loss + 1e-9
    print("ACCEPTANCE 9 PASS: demo-shift losses ordered dense <= budgeted-equivariant <= "
          f"equal-split <= high-pass ({dense.loss:.4f} <= {energy.loss:.4f} <= "
          f"{equal.loss:.4f} <= {high.loss:.4f})")
