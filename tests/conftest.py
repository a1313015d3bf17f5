"""Imports `permlin` before any test module imports numpy: `permlin` reads
PERMLIN_THREADS into the BLAS thread variables, which BLAS reads only when
numpy loads, so `PERMLIN_THREADS=1 python -m pytest` runs at one BLAS
thread.  NUMPY_BEFORE_PERMLIN records whether something loaded numpy first,
for the test that pins this."""

import sys

NUMPY_BEFORE_PERMLIN = "numpy" in sys.modules

import permlin  # noqa: E402, F401
