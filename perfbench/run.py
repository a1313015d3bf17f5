"""permlin benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload shift-demo --seed 1 --seconds 30 --trace 0

permlin is imported from the `src/` next to this directory.  Inputs come
from --seed.  Operations repeat for --seconds (at least MIN_OPS of them),
correctness is checked afterwards, outside the timed region, and the
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are wall_s, peak_rss_mb and setup_s; every
operation runs in its own child process, so its peak RSS is that child's
alone (os.wait4).  The two times are the fastest sample of the run (see
best_of); their medians and quartiles are in the details line.  With
--trace 1 the operations run in-process in one child with span recorders
installed on every other operation (see tracing.py), and the metrics are
per-layer self times and counts.  The stdout line before the result holds
the environment and the per-operation samples; the same details and the
spans of the last traced operation are written under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SCHEMA_DIR = SRC / "permlin" / "schemas"

MIN_OPS = 3          # timed operations per run, however short --seconds is
CHILD_TIMEOUT = 150  # seconds; a child that takes longer is killed and counts as failed


def child_env() -> dict[str, str]:
    """Environment of every child: permlin from src/, one fixed BLAS thread count.

    PERMLIN_THREADS alone is not enough: `python -m permlin.cli` imports numpy
    (through the package) before cli.py reads it, so the BLAS variables are
    set here directly.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("PERMLIN_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = wl.THREADS
    return env


def environment(env: dict[str, str]) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "threads": {k: env[k] for k in ("PERMLIN_THREADS", "OMP_NUM_THREADS",
                                        "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_sha": sha,
    }


def spawn(argv: list[str], env: dict[str, str], stdout: Path, stderr: Path) -> dict:
    """Run one child to exit; wall time from spawn to exit and its own rusage."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "code": proc.returncode,
        "stderr": stderr.read_text(errors="replace"),
    }


def measure_setup(env: dict[str, str], workdir: Path) -> float:
    """Wall seconds of one fresh interpreter importing permlin and its CLI."""
    argv = [sys.executable, "-c", "import permlin, permlin.cli"]
    run = spawn(argv, env, workdir / "setup.out", workdir / "setup.err")
    if run["code"] != 0:
        raise RuntimeError(f"importing permlin failed: {run['stderr'].strip()}")
    return run["wall_s"]


def timed_ops(workload: str, seed: int, seconds: float, env, workdir: Path):
    """Operations for `seconds` (at least MIN_OPS), with a set-up sample before
    each and one after the last, so set-up is sampled across the whole run."""
    measure_setup(env, workdir)  # writes __pycache__ once
    ops, setup = [], []
    deadline = time.perf_counter() + seconds
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        setup.append(measure_setup(env, workdir))
        i = len(ops)
        out, err = workdir / f"op{i}.json", workdir / f"op{i}.err"
        if workload in wl.CLI_WORKLOADS:
            argv = [sys.executable, "-m", "permlin.cli"] + wl.cli_argv(workload, seed, workdir)
            op = spawn(argv, env, out, err)
        else:
            result = workdir / f"op{i}.result.json"
            argv = [sys.executable, str(BENCH_DIR / "child.py"), "classify",
                    "--seed", str(seed), "--out", str(result)]
            op = spawn(argv, env, workdir / f"op{i}.stdout", err)
            # for a library call sequence the operation is the calls, not the interpreter
            if op["code"] == 0:
                detail = json.loads(result.read_text())
                op["wall_s"], op["errors"] = detail["wall_s"], detail["errors"]
        op["out"] = str(out) if workload in wl.CLI_WORKLOADS else None
        ops.append(op)
    setup.append(measure_setup(env, workdir))
    return ops, setup


def traced_ops(workload: str, seed: int, seconds: float, env, workdir: Path, tag: str):
    detail = workdir / "trace.json"
    argv = [sys.executable, str(BENCH_DIR / "child.py"), "trace", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--workdir", str(workdir),
            "--out", str(detail), "--spans", str(OUT_DIR / f"{tag}.spans.json")]
    run = spawn(argv, env, workdir / "trace.stdout", workdir / "trace.stderr")
    if run["code"] != 0:
        raise RuntimeError(f"traced run failed: {run['stderr'].strip()}")
    return json.loads(detail.read_text())


# ---------------------------------------------------------------------------
# correctness


def _validator(name: str):
    import jsonschema
    from referencing import Registry, Resource

    schemas = {}
    for f in SCHEMA_DIR.glob("*.schema.json"):
        obj = json.loads(f.read_text())
        schemas[obj["$id"]] = obj
    registry = Registry().with_resources(
        (sid, Resource.from_contents(obj)) for sid, obj in schemas.items())
    return jsonschema.Draft202012Validator(schemas[f"{name}.schema.json"], registry=registry)


def check_ops(workload: str, seed: int, ops: list[dict], env, workdir: Path) -> None:
    """Fill op["errors"]: exit code, stderr, schema, and the workload's own checks.

    Operations of one run share their inputs, so their outputs should be
    byte-identical; an output equal to one already checked shares its verdict
    (validating the 8.7 MB search-fit output takes seconds).
    """
    schema = {"shift-demo": "demo_shift", "search-fit": "fit"}.get(workload)
    validator = _validator(schema) if schema else None
    verdicts: dict[str, list] = {}
    to_check = []
    for op in ops:
        errors = op.setdefault("errors", [])
        if op["code"] != 0:
            errors.append(f"exit code {op['code']}")
        if op["stderr"]:
            errors.append("stderr: " + op["stderr"].strip()[-500:])
        if validator is None or errors:
            continue
        text = Path(op["out"]).read_bytes()
        digest = hashlib.sha256(text).hexdigest()
        if digest in verdicts:
            op["errors"] = verdicts[digest]
            continue
        verdicts[digest] = errors
        try:
            payload = json.loads(text)
        except ValueError as exc:
            errors.append(f"output is not JSON: {exc}")
            continue
        errors.extend(f"schema: {e.message}" for e in validator.iter_errors(payload))
        if workload == "shift-demo":
            if payload.get("ordering_ok") is not True:
                errors.append("ordering_ok is not true")
            if payload.get("config", {}).get("seed") != seed:
                errors.append("config.seed does not echo --seed")
        elif not errors:
            to_check.append(op)
    if to_check:
        argv = [sys.executable, str(BENCH_DIR / "child.py"), "check-fit", "--workdir",
                str(workdir), "--outputs"] + [op["out"] for op in to_check]
        run = spawn(argv, env, workdir / "check.stdout", workdir / "check.stderr")
        if run["code"] != 0:
            for op in to_check:
                op["errors"].append("search-fit checks crashed: " + run["stderr"].strip()[-500:])
            return
        report = json.loads((workdir / "check.stdout").read_text())
        for op, errors in zip(to_check, report):
            op["errors"].extend(errors)


# ---------------------------------------------------------------------------


def best_of(samples: list[float]) -> float:
    """The fastest sample of a run: the reported value of a time metric.

    On a shared host the program's speed drops by up to 1.7x in phases of
    seconds to minutes (other tenants' load; the work stays the same).  A
    run's median then follows the share of the run that fell in slow
    phases, so medians of runs of the same code differ by up to half.
    Contention only adds time, so the fastest sample estimates the
    uncontended cost of the same work, as `timeit` reports it.
    """
    return min(samples)


def summary(samples: list[float]) -> dict:
    q = statistics.quantiles(samples, n=4)
    return {"n": len(samples), "median": statistics.median(samples),
            "q1": q[0], "q3": q[2], "max": max(samples)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "permlin" / "cli.py").is_file():
        print(f"perfbench: no permlin sources at {SRC / 'permlin'}", file=sys.stderr)
        return 2

    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        info = {"workload": args.workload, "seed": args.seed, "environment": environment(env)}
        if args.workload == "search-fit":
            wl.write_fit_inputs(args.seed, workdir)
        if args.trace:
            traced = traced_ops(args.workload, args.seed, args.seconds, env, workdir, tag)
            ops = traced["ops"]
            check_ops(args.workload, args.seed, ops, env, workdir)
            self_check = traced["self_check"]
            metrics = {}
            for name, value in sorted(traced["metrics"].items()):
                metrics[name] = {"value": value, "unit": metric_unit(name)}
            info["trace_wall_s"] = traced["wall_s"]
        else:
            ops, setup = timed_ops(args.workload, args.seed, args.seconds, env, workdir)
            check_ops(args.workload, args.seed, ops, env, workdir)
            self_check = []
            good = [op for op in ops if not op["errors"]] or ops
            samples = {"wall_s": [op["wall_s"] for op in good],
                       "peak_rss_mb": [op["peak_rss_mb"] for op in good],
                       "setup_s": setup,
                       "cpu_s": [op["cpu_s"] for op in good]}
            info["samples"] = {k: summary(v) | {"values": v} for k, v in samples.items()}
            metrics = {"wall_s": {"value": best_of(samples["wall_s"]), "unit": "s"},
                       "peak_rss_mb": {"value": statistics.median(samples["peak_rss_mb"]),
                                       "unit": "MB"},
                       "setup_s": {"value": best_of(setup), "unit": "s"}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in ops if op["errors"])
    info["errors"] = [op["errors"] for op in ops if op["errors"]] + self_check
    info["failed_ratio"] = failed / len(ops)
    print(json.dumps(info), flush=True)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(info, indent=1))
    result = {"correct": failed == 0 and not self_check, "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
