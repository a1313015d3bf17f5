"""Work the benchmark runs in its own child processes, with permlin imported.

    child.py classify --seed S --out F
        one timed classify-48 call sequence, then its checks
    child.py check-fit --workdir D --outputs F...
        search-fit checks on `permlin fit` outputs (outside any timed region)
    child.py trace --workload W --seed S --seconds N --workdir D --out F
        the traced run: operations in-process, alternating untraced and traced

Each writes one JSON document to --out (check-fit: to stdout).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import permlin as pl
import permlin.cli

import tracing
import workloads as wl

REL_TOL = 1e-9      # loss ordering between dense, searched and heuristic fits
ZERO_TOL = 1e-8     # projection distance, relative to 1 + ||M||_F
MIN_TRACED = 2      # traced operations per run; their counts must agree

SELF_TIMED = (
    "linalg.numeric_rank", "optimize.sel_to_target", "kernel.svd", "kernel.eigh", "kernel.solve",
    "optimize.fit_rank_bounded", "optimize.fit_equivariant", "optimize.eckart_young",
    "equivariant.count_components", "equivariant.enumerate_components",
    "cli.emit", "matio.read_matrix", "matio.matrix_to_json_obj",
    "spectral.real_base_change", "spectral.BaseChange.conjugate",
    "equivariant.classify_component", "equivariant.parameterize_component",
    "equivariant.equivariant_project", "equivariant.is_equivariant",
    "datasets.demo_shift_dataset",
)
CALL_COUNTED = ("linalg.numeric_rank", "kernel.svd", "spectral.real_base_change",
                "equivariant.make_rank_vector", "optimize.fit_equivariant")
COUNTERS = ("equivariant.enumerate_components.yielded", "optimize.candidates_scored",
            "spectral.q_bytes")
LAYER_TOTALS = ("cli", "matio", "datasets", "spectral", "linalg", "equivariant", "optimize", "kernel")


# ---------------------------------------------------------------------------
# classify-48


def classify_setup(seed: int):
    side = wl.CLASSIFY_SIDE
    sigma = pl.Permutation(side * side, wl.shift_image(side, side))
    spec = pl.eigen_multiplicities(pl.cycle_decomposition(sigma))
    return sigma, wl.planted_component(spec, seed)


def classify_sequence(sigma, values, seed: int) -> dict:
    """The timed library calls; returns what the checks need."""
    bc = pl.real_base_change(sigma)
    rvec = pl.make_rank_vector(bc.spectrum, "real", values)
    par = pl.parameterize_component(rvec, sigma, rng=np.random.default_rng(seed), base_change=bc)
    m = par.decoder @ par.encoder
    got = pl.classify_component(m, sigma, base_change=bc)
    equivariant = pl.is_equivariant(m, sigma)
    distance = float(np.linalg.norm(pl.equivariant_project(m, [sigma]) - m))
    return {"m": m, "got": got.values, "equivariant": equivariant, "distance": distance}


def classify_errors(out: dict, values) -> list[str]:
    errors = []
    if tuple(out["got"]) != tuple(values):
        errors.append(f"classify_component returned {list(out['got'])}, planted {list(values)}")
    if not out["equivariant"]:
        errors.append("planted matrix failed is_equivariant")
    if not out["distance"] <= ZERO_TOL * (1.0 + float(np.linalg.norm(out["m"]))):
        errors.append(f"projection distance {out['distance']:.3e} is not about 0")
    return errors


def cmd_classify(args) -> None:
    sigma, values = classify_setup(args.seed)
    t0 = time.perf_counter()
    out = classify_sequence(sigma, values, args.seed)
    wall = time.perf_counter() - t0
    Path(args.out).write_text(json.dumps({"wall_s": wall, "errors": classify_errors(out, values)}))


# ---------------------------------------------------------------------------
# search-fit checks


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def cmd_check_fit(args) -> None:
    workdir = Path(args.workdir)
    x, y = read_csv(workdir / "X.csv"), read_csv(workdir / "Y.csv")
    sigma = pl.Permutation(x.shape[0], wl.shift_image(wl.FIT_HEIGHT, wl.FIT_WIDTH))
    dense = pl.fit_rank_bounded(x, y, wl.FIT_RANK).loss
    energy = pl.fit_equivariant(x, y, sigma, wl.FIT_RANK, heuristic="energy").loss
    slack = REL_TOL * (1.0 + float(np.linalg.norm(y)) ** 2)
    report = []
    for path in args.outputs:
        errors = []
        out = json.loads(Path(path).read_text())
        mat = out["minimizer"]
        m = np.asarray(mat["data"], dtype=float).reshape(mat["rows"], mat["cols"])
        loss = out["loss"]
        if abs(float(np.linalg.norm(m @ x - y)) ** 2 - loss) > slack:
            errors.append("reported loss differs from ||M X - Y||^2 of the minimizer")
        if not dense <= loss + slack:
            errors.append(f"search loss {loss!r} below the dense rank-{wl.FIT_RANK} loss {dense!r}")
        if not loss <= energy + slack:
            errors.append(f"search loss {loss!r} above the energy-heuristic loss {energy!r}")
        if not pl.is_equivariant(m, sigma):
            errors.append("minimizer failed is_equivariant")
        got = list(pl.classify_component(m, sigma).values)
        if got != out["component"]:
            errors.append(f"minimizer classifies as {got}, output names {out['component']}")
        report.append(errors)
    print(json.dumps(report))


# ---------------------------------------------------------------------------
# traced run


def run_cli_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = permlin.cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def op_metrics(rec: tracing.Recorder, emitted: int) -> tuple[dict, dict, list]:
    """Per-layer times (s), counts, and span names with a negative self time."""
    self_ns, calls, negative = tracing.self_times(rec)
    times = {f"{name}.self_s": self_ns.get(name, 0) / 1e9 for name in SELF_TIMED}
    for layer in LAYER_TOTALS:
        times[f"{layer}.self_s"] = sum(v for k, v in self_ns.items() if k.startswith(layer + ".")) / 1e9
    counts = {f"{name}.calls": calls.get(name, 0) for name in CALL_COUNTED}
    counts.update({name: rec.counts.get(name, 0) for name in COUNTERS})
    counts["cli.emit.bytes"] = emitted
    return times, counts, sorted(negative)


def cmd_trace(args) -> None:
    workdir = Path(args.workdir)
    if args.workload == "classify-48":
        sigma, values = classify_setup(args.seed)
    else:
        argv = wl.cli_argv(args.workload, args.seed, workdir)
    tracer = tracing.Tracer()
    ops, walls, cpus, traced = [], {False: [], True: []}, [], []
    spans = None
    deadline = time.perf_counter() + args.seconds
    while len(traced) < MIN_TRACED or time.perf_counter() < deadline:
        is_traced = len(ops) % 2 == 1
        if is_traced:
            tracer.install()
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        record = {"code": 0, "stderr": "", "out": None, "errors": []}
        if args.workload == "classify-48":
            try:
                out = classify_sequence(sigma, values, args.seed)
            except Exception:
                record.update(code=1, stderr=traceback.format_exc())
                out = None
            emitted = 0
        else:
            record["code"], text, record["stderr"] = run_cli_in_process(argv)
            emitted = len(text.encode())
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if is_traced:
            tracer.uninstall()
            rec = tracer.take()
            traced.append(op_metrics(rec, emitted))
            spans = rec.spans
        else:
            cpus.append(ru1.ru_utime + ru1.ru_stime - ru0.ru_utime - ru0.ru_stime)
        walls[is_traced].append(wall)
        if args.workload == "classify-48":
            if out is not None:
                record["errors"] = classify_errors(out, values)
        else:
            record["out"] = str(workdir / f"trace-op{len(ops)}.json")
            Path(record["out"]).write_text(text)
        ops.append(record)

    metrics = {name: statistics.median(t[0][name] for t in traced) for name in traced[0][0]}
    counts = traced[0][1]
    metrics.update(counts)
    scored = counts["optimize.candidates_scored"]
    fitted = counts["optimize.fit_equivariant.calls"]
    metrics["optimize.search.useful_ratio"] = fitted / scored if scored else 1.0
    metrics["process.cpu_s"] = statistics.median(cpus)
    metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    self_check = []
    if any(t[1] != traced[0][1] for t in traced):
        self_check.append("count metrics differ between traced operations")
    if any(t[2] for t in traced):
        self_check.append("negative self time")
    Path(args.out).write_text(json.dumps({
        "ops": ops, "metrics": metrics, "self_check": self_check,
        "wall_s": {"untraced": walls[False], "traced": walls[True]},
    }))
    if args.spans:
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = spans[0][1] if spans else 0
        Path(args.spans).write_text(json.dumps({
            "names": names,
            "spans": [[index[n], s - t0, e - t0, p] for n, s, e, p in spans],
        }, separators=(",", ":")))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("classify")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_classify)
    sp = sub.add_parser("check-fit")
    sp.add_argument("--workdir", required=True)
    sp.add_argument("--outputs", nargs="+", required=True)
    sp.set_defaults(func=cmd_check_fit)
    sp = sub.add_parser("trace")
    sp.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--seconds", type=float, required=True)
    sp.add_argument("--workdir", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--spans")
    sp.set_defaults(func=cmd_trace)
    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
