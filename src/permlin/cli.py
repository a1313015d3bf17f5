"""Command-line front end.

Subcommands: analyze, count, components, project, fit, factorize, verify,
demo-shift.  Outputs are JSON (sorted keys, fixed layout), so runs with the
same inputs and seed are byte-identical at a fixed BLAS thread count.
Across thread counts, LAPACK may sum in another order, so a float may move
in its last bits, within the golden gate of tests/test_golden.py.  Usage
errors exit 2; numerical or constraint errors exit 1 with a structured JSON
error on stderr.

Set PERMLIN_THREADS to pin the BLAS thread count before numpy loads.
"""

import argparse
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import datasets, equivariant, invariant, linalg, matio, optimize, oracles, spectral
from .errors import ComponentError, CyclicOnlyError, NonFiniteError, PermlinError
from .perms import consecutive_cycles, cycle_decomposition, parse_permutation, permutation_matrix

JSON_KW = dict(indent=2, sort_keys=True)


def _emit(obj, out_path=None):
    buf = io.StringIO()  # json.dumps would hold every chunk in one list first
    try:
        json.dump(obj, buf, allow_nan=False, **JSON_KW)
    except ValueError as exc:  # NaN or infinity: not valid JSON
        raise NonFiniteError(f"output is not finite: {exc}") from None
    buf.write("\n")
    if out_path:
        Path(out_path).write_text(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


def _add_perm_args(sp, allow_many=False):
    sp.add_argument("--perm", action="append", default=None,
                    help="permutation: cycle notation or one-line image"
                         + ("; repeat for several generators" if allow_many else ""))
    sp.add_argument("--n", type=int, default=None, help="ground-set size")
    sp.add_argument("--cycle-type", default=None,
                    help='cycle-type shorthand "AxB[,CxD...]": A cycles of length B')


def _cycle_lengths_from_type(text):
    lengths = []
    for part in text.split(","):
        a, _, b = part.strip().partition("x")
        try:
            count, length = int(a), int(b)
        except ValueError:
            raise PermlinError(f'bad cycle-type token {part.strip()!r}; expected "AxB"') from None
        if count < 1 or length < 1:
            raise PermlinError(f"cycle-type counts and lengths must be positive: {part.strip()!r}")
        lengths.extend([length] * count)
    return lengths


def _resolve_gens(args, allow_many=False):
    if args.cycle_type:
        if args.perm:
            raise PermlinError("pass either --perm or --cycle-type, not both")
        return [consecutive_cycles(_cycle_lengths_from_type(args.cycle_type))]
    if args.perm is None or args.n is None:
        raise PermlinError("need --perm with --n, or --cycle-type")
    gens = [parse_permutation(t, args.n) for t in args.perm]
    if len(gens) > 1 and not allow_many:
        raise CyclicOnlyError("this command handles a single (cyclic) generator only")
    return gens


def _spectrum_of(gen):
    return spectral.eigen_multiplicities(cycle_decomposition(gen))


def _component_arg(text, spec):
    """The real rank vector named by a --component value such as "1,0,1"."""
    if text is None:
        raise ComponentError("name a component with --component")
    try:
        values = [int(t) for t in text.split(",")]
    except ValueError:
        raise ComponentError(f"--component needs comma-separated integers, got {text!r}") from None
    return equivariant.make_rank_vector(spec, "real", values)


def _equivariant_only(args, *names):
    """PermlinError for an equivariant flag, which --mode invariant ignores."""
    for name in names:
        if getattr(args, name) not in (None, False):
            raise PermlinError(f"--{name.replace('_', '-')} applies to --mode equivariant only")


def _block_layout_json(spec):
    real = [{"kind": b.kind, "l": b.l, "m": b.m, "size": b.size, "rows": b.rows, "offset": sl.start}
            for b, sl in zip(spec.real_blocks, spec.slices("real"))]
    cplx = [{"l": b.l, "m": b.m, "size": b.size, "offset": sl.start}
            for b, sl in zip(spec.complex_blocks, spec.slices("complex"))]
    return {"complex_blocks": cplx, "real_blocks": real}


def cmd_analyze(args):
    gens = _resolve_gens(args, allow_many=True)
    report = {"n": gens[0].n, "generators": len(gens)}
    if len(gens) == 1:
        cd = cycle_decomposition(gens[0])
        spec = spectral.eigen_multiplicities(cd)
        report.update({
            "cycle_type": sorted(cd.lengths, reverse=True),
            "cycles": [list(c) for c in cd.cycles],
            "d_table": {str(l): d for l, d in sorted(spec.multiplicities.items())},
            "commutant_dimension": spectral.commutant_dimension(cd),
        })
        report.update(_block_layout_json(spec))
    else:
        _, dim = equivariant.pair_orbit_labels(gens)
        report["commutant_dimension"] = int(dim)
        report["note"] = "block layout is available for a single cyclic generator only"
    _emit(report, args.out)
    return 0


def cmd_count(args):
    spec = _spectrum_of(_resolve_gens(args)[0])
    count = equivariant.count_components(spec, args.rank, args.field)
    if args.out:
        _emit({"count": str(count), "field": args.field, "n": spec.n, "rank": args.rank}, args.out)
    print(count)
    return 0


def cmd_components(args):
    spec = _spectrum_of(_resolve_gens(args)[0])
    count = equivariant.count_components(spec, args.rank, args.field)
    descs = []
    for d in equivariant.enumerate_components(spec, args.rank, args.field, limit=args.limit):
        entry = {
            "rank_vector": list(d.rank_vector.values),
            "blocks": [{"l": l, "m": m, "rank": r} for (l, m, r) in d.rank_vector.entries],
            "dimension": d.dimension,
            "block_shapes": [{"kind": k, "size": s, "rank": r} for (k, s, r) in d.block_shapes],
        }
        if d.degree is not None:
            entry["degree"] = str(d.degree)
        if args.field == "real" and any(k == "realization" and r > 0 for (k, _, r) in d.block_shapes):
            entry["degree_note"] = "no proven real degree formula; conjectured square of the complex block degrees"
        descs.append(entry)
    _emit({"count": str(count), "field": args.field, "n": spec.n, "rank": args.rank,
           "components": descs}, args.out)
    return 0


def cmd_project(args):
    gens = _resolve_gens(args, allow_many=True)
    m = matio.read_matrix(args.matrix)
    if args.mode == "invariant":
        space = invariant.invariant_space(gens, m.shape[0], gens[0].n, min(m.shape))
        proj = invariant.invariant_project(m, space.partition)
    else:
        proj = equivariant.equivariant_project(m, gens)
    distance = float(np.linalg.norm(proj - m))
    payload = {"mode": args.mode, "distance": distance,
               "matrix": matio.matrix_to_json_obj(proj)}
    _emit(payload, args.out)
    return 0


def _fit_result_json(fit, extras=None):
    obj = {
        "loss": fit.loss,
        "component": (list(fit.component.values) if not isinstance(fit.component, str)
                      else fit.component),
        "minimizer": matio.matrix_to_json_obj(fit.minimizer),
        "per_block": [
            {"block": {"kind": b.block[0], "l": b.block[1], "m": b.block[2]},
             "rank": b.rank,
             "kept_singular_values": list(b.kept),
             "dropped_singular_values": list(b.dropped),
             "boundary_tie": b.boundary_tie,
             "loss": b.loss}
            for b in fit.per_block
        ],
        "ridge": fit.regularization,
    }
    if fit.component_source:
        obj["component_source"] = fit.component_source
    if extras:
        obj.update(extras)
    return obj


def cmd_fit(args):
    gens = _resolve_gens(args, allow_many=(args.mode == "invariant"))
    x = matio.read_matrix(args.x)
    y = matio.read_matrix(args.y)
    if args.mode == "invariant":
        _equivariant_only(args, "component", "candidates", "search_limit")
        space = invariant.invariant_space(gens, y.shape[0], x.shape[0], args.rank)
        fit = invariant.fit_invariant(x, y, space, ridge=args.ridge)
        extras = {"compact_factor": matio.matrix_to_json_obj(
            invariant.psi_compress(fit.minimizer, space.partition))}
    else:
        if args.search_limit is not None and not args.candidates:
            raise PermlinError("--search-limit applies to --candidates only")
        spec = _spectrum_of(gens[0])
        component = _component_arg(args.component, spec) if args.component else None
        fit = optimize.fit_equivariant(x, y, gens[0], args.rank, component=component, ridge=args.ridge)
        extras = None
        if args.candidates:
            limit = 10**6 if args.search_limit is None else args.search_limit
            listed = oracles.score_components(spec, args.rank, oracles.block_tails(fit.per_block),
                                              fit.constant_loss, limit)
            extras = {"candidates": [{"rank_vector": list(v), "loss": l} for v, l in listed]}
    _emit(_fit_result_json(fit, extras), args.out)
    return 0


def _weight_report_json(report):
    return {
        "decoder_groups": [[[r, c, s] for (r, c, s) in g] for g in report.decoder_groups],
        "encoder_groups": [[[r, c, s] for (r, c, s) in g] for g in report.encoder_groups],
        "inactive_inputs": list(report.inactive_inputs),
        "inactive_outputs": list(report.inactive_outputs),
    }


def cmd_factorize(args):
    gens = _resolve_gens(args, allow_many=(args.mode == "invariant"))
    if args.mode == "invariant":
        _equivariant_only(args, "component", "seed")
        if args.matrix is None:
            raise PermlinError("factorize --mode invariant needs --matrix")
        m = matio.read_matrix(args.matrix)
        space = invariant.invariant_space(
            gens, m.shape[0], gens[0].n, args.rank if args.rank is not None else min(m.shape))
        dec, enc = invariant.invariant_autoencoder(space, m)
        k = space.partition.k
        groups = []
        for i in range(enc.shape[0]):
            for block in space.partition.blocks:
                groups.append([[i, j - 1, 1] for j in block])
        payload = {
            "mode": "invariant",
            "decoder": matio.matrix_to_json_obj(dec),
            "encoder": matio.matrix_to_json_obj(enc),
            "weight_sharing": {"encoder_groups": groups, "distinct_encoder_columns": k},
            "free_parameters": dec.shape[0] * dec.shape[1] + enc.shape[0] * k,
        }
    else:
        spec = _spectrum_of(gens[0])
        if args.matrix:
            if args.seed is not None:
                raise PermlinError("--seed draws factors of a named component; --matrix is factored as given")
            par = equivariant.factor_component(matio.read_matrix(args.matrix), gens[0])
            if args.component is not None:
                named = _component_arg(args.component, spec)
                if par.rank_vector != named:
                    raise PermlinError(
                        f"matrix lies in component {list(par.rank_vector.values)}, not {list(named.values)}")
        else:
            par = equivariant.parameterize_component(
                _component_arg(args.component, spec), gens[0], rng=np.random.default_rng(args.seed or 0))
        rvec = par.rank_vector
        if args.rank is not None and args.rank != rvec.total_rank:
            raise PermlinError(f"--rank {args.rank} differs from the component's total rank {rvec.total_rank}")
        payload = {
            "mode": "equivariant",
            "rank_vector": list(rvec.values),
            "decoder": matio.matrix_to_json_obj(par.decoder),
            "encoder": matio.matrix_to_json_obj(par.encoder),
            "tilde_decoder": matio.matrix_to_json_obj(par.tilde_decoder),
            "tilde_encoder": matio.matrix_to_json_obj(par.tilde_encoder),
            "weight_sharing": _weight_report_json(par.pattern),
            "free_parameters": equivariant.free_parameter_count(rvec),
        }
    _emit(payload, args.out)
    return 0


def cmd_verify(args):
    gens = _resolve_gens(args, allow_many=True)
    rng = np.random.default_rng(args.seed)
    checks = []
    n = gens[0].n
    r = max(1, min(args.rank, n - 1))
    if n <= oracles.MAX_NULLSPACE_N:
        fast = equivariant.pair_orbit_labels(gens)[1]
        slow = oracles.nullspace_commutant_dim(gens)
        checks.append({"check": "commutant_dimension", "fast": int(fast), "oracle": int(slow),
                       "ok": bool(fast == slow)})
    if len(gens) == 1:
        spec = _spectrum_of(gens[0])
        for field in ("complex", "real"):
            fast = equivariant.count_components(spec, args.rank, field)
            if len(spec.blocks(field)) <= oracles.MAX_COUNT_BLOCKS and fast <= oracles.MAX_COUNT_CENSUS:
                slow = oracles.recursive_component_count(spec, args.rank, field)
                checks.append({"check": f"component_count_{field}", "fast": str(fast),
                               "oracle": str(slow), "ok": bool(fast == slow)})
    if n <= oracles.MAX_ALS_DIM:
        x = rng.standard_normal((n, n + 2))
        y = rng.standard_normal((n, n + 2))
        if x.shape[1] <= oracles.MAX_ALS_DIM:
            fast = optimize.fit_rank_bounded(x, y, r).loss
            slow = oracles.als_low_rank(r, restarts=40, x=x, y=y, seed=args.seed)
            checks.append({"check": "rank_bounded_fit_vs_als", "fast": fast, "oracle": slow,
                           "ok": bool(fast <= slow + linalg.tie_slack(y))})
        # the loss of X on itself from the Gram's eigenvalues against the
        # residual of the row route, a fit on a copy of X
        fast, slow = optimize.autoencoder_loss(x @ x.T, r), optimize.fit_rank_bounded(x, x.copy(), r).loss
        checks.append({"check": "autoencoder_loss_vs_fit", "fast": fast, "oracle": slow,
                       "ok": bool(abs(fast - slow) <= linalg.tie_slack(x))})
        if len(gens) == 1:
            bc = spectral.real_base_change(gens[0])
            q, q_inv = oracles.dense_base_change(bc)
            dev = float(np.linalg.norm(q_inv @ permutation_matrix(gens[0]) @ q - oracles.expected_block_form(bc)))
            checks.append({"check": "base_change_block_form", "fast": dev, "oracle": 0.0,
                           "ok": bool(dev <= oracles.BLOCK_FORM_TOL * n)})
            fit = optimize.fit_equivariant(x, y, gens[0], r)
            m, loss, _ = oracles.projection_fit_equivariant(x, y, gens[0], r)
            tol = oracles.AGREEMENT_TOL
            agree = (abs(fit.loss - loss) <= tol * float(np.linalg.norm(y)) ** 2
                     and np.linalg.norm(fit.minimizer - m) <= tol * np.linalg.norm(m))
            checks.append({"check": "equivariant_fit_vs_projection_oracle", "fast": fit.loss,
                           "oracle": loss, "ok": bool(agree)})
    if len(gens) == 1 and n <= oracles.MAX_SCORED_N:
        x = rng.standard_normal((n, n + 2))
        y = rng.standard_normal((n, n + 2))
        fit = optimize.fit_equivariant(x, y, gens[0], r)
        scored = oracles.score_components(spec, r, oracles.block_tails(fit.per_block), fit.constant_loss)
        fast, slow = fit.component.values, oracles.best_scored(scored, linalg.tie_slack(y))
        checks.append({"check": "component_search_vs_enumeration",
                       "fast": ",".join(map(str, fast)), "oracle": ",".join(map(str, slow)),
                       "ok": fast == slow})
        # the orbit-sum routes of one generator against label averaging and
        # the conjugation, on a matrix that is not equivariant
        m = rng.standard_normal((n, n))
        tol = oracles.AGREEMENT_TOL * float(np.linalg.norm(m))
        proj = equivariant.equivariant_project(m, gens)
        dev = float(np.linalg.norm(proj - equivariant.orbit_average(m, gens)))
        checks.append({"check": "equivariant_projection_vs_labels", "fast": dev, "oracle": 0.0,
                       "ok": bool(dev <= tol)})
        # the cycle-order commutator of is_equivariant against the dense P M P^T
        pm = permutation_matrix(gens[0]).astype(float)
        fast = [equivariant.is_equivariant(a, gens[0]) for a in (proj, m)]
        slow = [bool(np.linalg.norm(pm @ a @ pm.T - a) <= linalg.STRUCTURE_TOL * np.linalg.norm(a)) for a in (proj, m)]
        checks.append({"check": "commutator_vs_dense", "fast": ",".join(map(str, fast)),
                       "oracle": ",".join(map(str, slow)), "ok": fast == slow})
        bc = spectral.real_base_change(gens[0])
        q, q_inv = oracles.dense_base_change(bc)
        conj = q_inv @ m @ q
        dev = float(np.sqrt(sum(np.linalg.norm(b - conj[sl, sl]) ** 2 for b, sl in
                                zip(equivariant.diagonal_blocks(m, gens[0]), bc.block_slices))))
        checks.append({"check": "classify_blocks_vs_conjugate", "fast": dev, "oracle": 0.0,
                       "ok": bool(dev <= tol)})
        # the factors of a planted member of the searched component reproduce it
        planted = equivariant.parameterize_component(fit.component, gens[0], rng=rng)
        m = planted.decoder @ planted.encoder
        par = equivariant.factor_component(m, gens[0])
        dev = float(np.linalg.norm(par.decoder @ par.encoder - m))
        ok = par.rank_vector == fit.component and dev <= oracles.AGREEMENT_TOL * np.linalg.norm(m)
        checks.append({"check": "factorize_reconstructs", "fast": dev, "oracle": 0.0, "ok": bool(ok)})
    if len(gens) == 1 and n <= oracles.MAX_ALS_DIM:
        # the Gram route of X on itself against the projection oracle, on
        # data drawn after every other check's, so that none of theirs moves
        x = rng.standard_normal((n, n + 2))
        fit = optimize.fit_equivariant(x, x, gens[0], r)
        m, loss, _ = oracles.projection_fit_equivariant(x, x, gens[0], r)
        tol = oracles.AGREEMENT_TOL
        agree = (abs(fit.loss - loss) <= tol * float(np.linalg.norm(x)) ** 2
                 and np.linalg.norm(fit.minimizer - m) <= tol * np.linalg.norm(m))
        checks.append({"check": "equivariant_autoencoder_vs_projection_oracle", "fast": fit.loss,
                       "oracle": loss, "ok": bool(agree)})
    ok = all(c["ok"] for c in checks)
    _emit({"ok": ok, "checks": checks}, args.out)
    return 0 if ok else 1


def cmd_demo_shift(args):
    for name in ("height", "width", "samples"):
        if getattr(args, name) < 1:
            raise PermlinError(f"--{name} must be positive, got {getattr(args, name)}")
    rng_seed = args.seed
    sigma = datasets.horizontal_shift_permutation(args.height, args.width)
    spec = _spectrum_of(sigma)
    r = args.rank

    # X is both data and target, so every reported number is a function of
    # its Gram G = X X^T: the samples are drawn a chunk of columns at a time
    # and summed into G, and X is never held.  The equivariant solve reads
    # its block Grams off G, one eigh each; the dense baseline reports only
    # its loss, the tail sum of the eigenvalues of G: no eigenvectors, no
    # factors
    gram = optimize.chunked_gram(datasets.demo_shift_chunks(args.height, args.width, args.samples,
                                                            seed=rng_seed, noise=args.noise), sigma.n)
    solve = optimize.solve_equivariant_gram(gram, sigma)
    dense_loss = optimize.autoencoder_loss(gram, r)
    del gram
    slack, size = solve.slack, sigma.n * args.samples
    best = solve.fit(r)

    blocks = spec.real_blocks
    c = max(1, r // sum(b.rank_multiplier for b in blocks))
    equal_rvec = equivariant.make_rank_vector(spec, "real", [min(c, b.size) for b in blocks])
    equal = solve.fit(equal_rvec.total_rank, component=equal_rvec)

    # high-pass: zero rank on the low-frequency half of the blocks (by angle),
    # full rank on the rest; the angle is 0 on the +1 block (l = m = 1) and
    # pi on the -1 block (l = 2, m = 1)
    angles = [2 * np.pi * b.frequency(b.l) / b.l for b in blocks]
    order = np.argsort(angles)
    cut = len(order) // 2
    high_vals = [0] * len(blocks)
    for i in order[cut:]:
        high_vals[i] = blocks[i].size
    high_rvec = equivariant.make_rank_vector(spec, "real", high_vals)
    high = solve.fit(high_rvec.total_rank, component=high_rvec)

    payload = {
        "config": {"height": args.height, "width": args.width, "samples": args.samples,
                   "rank": r, "seed": rng_seed, "noise": args.noise},
        "losses_per_pixel": {
            "dense": dense_loss / size,
            "equivariant_search": best.loss / size,
            "equivariant_equal_rank": equal.loss / size,
            "equivariant_high_pass": high.loss / size,
        },
        "total_ranks": {
            "dense": r,
            "equivariant_search": best.component.total_rank,
            "equivariant_equal_rank": equal_rvec.total_rank,
            "equivariant_high_pass": high_rvec.total_rank,
        },
        "free_parameters": {
            "dense": 2 * r * sigma.n,
            "equivariant_search": equivariant.free_parameter_count(best.component),
        },
        "components": {
            "equivariant_search": list(best.component.values),
            "equivariant_equal_rank": list(equal_rvec.values),
            "equivariant_high_pass": list(high_rvec.values),
        },
        "ordering_ok": bool(
            dense_loss <= best.loss + slack
            and best.loss <= equal.loss + slack
            and equal.loss <= high.loss + slack
        ),
    }
    _emit(payload, args.out)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="permlin", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="cycle type, eigenvalue multiplicities, commutant dimension, block layout")
    _add_perm_args(sp, allow_many=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("count", help="count irreducible components")
    _add_perm_args(sp)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--field", choices=["real", "complex"], default="real")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("components", help="enumerate components with dimensions and degrees")
    _add_perm_args(sp)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--field", choices=["real", "complex"], default="real")
    sp.add_argument("--limit", type=int, default=10**6)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_components)

    sp = sub.add_parser("project", help="nearest point on the invariant/equivariant linear space")
    _add_perm_args(sp, allow_many=True)
    sp.add_argument("--mode", choices=["invariant", "equivariant"], required=True)
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_project)

    sp = sub.add_parser("fit", help="closed-form squared-error fit")
    _add_perm_args(sp, allow_many=True)
    sp.add_argument("--mode", choices=["invariant", "equivariant"], required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--component", help='comma-separated block ranks in canonical order (equivariant)')
    sp.add_argument("--candidates", action="store_true",
                    help="also list every component with its loss (equivariant; enumerates the census)")
    sp.add_argument("--search-limit", type=int,
                    help="largest census --candidates may list (default 10^6)")
    sp.add_argument("--ridge", type=float)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("factorize", help="autoencoder factors with the weight-sharing report")
    _add_perm_args(sp, allow_many=True)
    sp.add_argument("--mode", choices=["invariant", "equivariant"], required=True)
    sp.add_argument("--matrix")
    sp.add_argument("--rank", type=int)
    sp.add_argument("--component", help="comma-separated block ranks (equivariant); with --matrix, "
                                         "checked against the matrix's component")
    sp.add_argument("--seed", type=int,
                    help="seed of the factors drawn for --component without --matrix (default 0)")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_factorize)

    sp = sub.add_parser("verify", help="cross-check fast paths against brute-force oracles")
    _add_perm_args(sp, allow_many=True)
    sp.add_argument("--rank", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("demo-shift", help="synthetic shift-equivariant dataset + end-to-end fits")
    sp.add_argument("--height", type=int, default=32)
    sp.add_argument("--width", type=int, default=32)
    sp.add_argument("--samples", type=int, default=2000)
    sp.add_argument("--rank", type=int, default=99)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--noise", type=float, default=0.05)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_demo_shift)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except PermlinError as exc:
        sys.stderr.write(json.dumps(
            {"error": type(exc).__name__, "message": str(exc)}, **JSON_KW) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
