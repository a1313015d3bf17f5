"""Rewrite every golden output of tests/test_golden.py from the code in src/:

    PYTHONPATH=src python tests/golden/regenerate.py

or, with --report, write nothing and print how much of the C_EPS gate each
case uses: the largest move of a float, in machine epsilons times the scale
test_golden.py gives it (of a matrix, ||dM||_F in eps ||M||_F), and the
field where it is.  The report depends on the BLAS thread count, so pin it
with PERMLIN_THREADS.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import C_EPS, CASES, EPS, _is_matrix, _largest_float, assert_matches, run_case  # noqa: E402


def used(want, got, scale: float, where: str) -> tuple[float, str]:
    """The largest move of got from want in the units of the gate, and
    where it is, for got of want's layout (`assert_matches` has passed)."""
    if _is_matrix(want):
        a, b = np.array(want["data"]), np.array(got["data"])
        moved = float(np.linalg.norm(b - a))
        return (moved / (EPS * float(np.linalg.norm(a))) if moved else 0.0), where
    if isinstance(want, dict):
        items = [(want[k], got[k], f"{where}.{k}") for k in sorted(want)]
    elif isinstance(want, list):
        items = [(w, g, f"{where}[{i}]") for i, (w, g) in enumerate(zip(want, got))]
    elif isinstance(want, float) and got != want:
        return abs(got - want) / (EPS * scale), where
    else:
        return 0.0, where
    return max((used(w, g, scale, at) for w, g, at in items), key=lambda u: u[0], default=(0.0, where))


def report(name: str, text: str) -> str:
    want, got = json.loads((HERE / f"{name}.json").read_text()), json.loads(text)
    try:
        assert sorted(got) == sorted(want), "top-level keys differ"
        for key in want:
            assert_matches(want[key], got[key], _largest_float(want[key]), key)
    except AssertionError as exc:
        return f"{name}: outside the gate: {exc}"
    units, where = max((used(want[k], got[k], _largest_float(want[k]), k) for k in sorted(want)),
                       key=lambda u: u[0])
    return f"{name}: {units:.2f} of {C_EPS} eps" + (f" ({where})" if units else "")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--report", action="store_true", help="print each case's use of the gate; write nothing")
    args = ap.parse_args()
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            text = run_case(name, Path(tmp))
        if args.report:
            print(report(name, text))
        else:
            (HERE / f"{name}.json").write_text(text)
            print(f"wrote {name}.json")


if __name__ == "__main__":
    main()
