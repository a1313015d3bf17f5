"""Matrix file formats for real matrices: CSV (one row per line, comma
separated) and the JSON object {"rows": m, "cols": n, "data": [...]} with
row-major data.  Every entry is a real number: a CSV token is read by
`float()`, and a JSON entry must be a JSON number, so a complex token such as
"1+2i" or a string entry is a MatrixFormatError naming the file, and a
complex array is not written.  Both are read; the CLI writes the JSON object,
floats with their shortest round-trip representation, so
decimal-representable values survive CSV -> JSON exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import MatrixFormatError, NonFiniteError, SizeMismatchError

__all__ = [
    "read_matrix",
    "matrix_to_json_obj",
    "matrix_from_json_obj",
]


def read_matrix(path) -> np.ndarray:
    """Read a real matrix from .csv or .json by extension.

    Rejects NaN and infinite entries with NonFiniteError, a missing or malformed file
    (complex and string entries included) with MatrixFormatError, and a ragged CSV or a
    JSON data length other than rows * cols with SizeMismatchError; every message names
    the file."""
    path = Path(path)
    try:
        if path.suffix.lower() == ".json":
            arr = matrix_from_json_obj(json.loads(path.read_text()))
        else:
            rows = [[float(tok) for tok in line.split(",")]
                    for line in path.read_text().splitlines() if line.strip()]
            if not rows or len({len(r) for r in rows}) != 1:
                raise SizeMismatchError("ragged or empty CSV matrix")
            arr = np.array(rows)
    except (MatrixFormatError, SizeMismatchError) as exc:
        raise type(exc)(f"matrix in {path}: {exc}") from None
    except (OSError, ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
        raise MatrixFormatError(f"cannot read a matrix from {path}: {type(exc).__name__}: {exc}") from None
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"matrix in {path} has NaN or infinite entries")
    return arr


def matrix_to_json_obj(m: np.ndarray) -> dict:
    """The JSON object of a real matrix; MatrixFormatError for a complex one,
    which `float()` would cast to its real part."""
    m = np.atleast_2d(np.asarray(m))
    if np.iscomplexobj(m):
        raise MatrixFormatError(f"cannot write {m.dtype} entries: a matrix file holds real numbers")
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": [float(v) for v in m.ravel()]}


def matrix_from_json_obj(obj: dict) -> np.ndarray:
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    # checked, not coerced: `type(v) is int` is False for floats, strings and booleans
    if not (type(rows) is int and type(cols) is int and rows >= 1 and cols >= 1):
        raise MatrixFormatError(f"rows and cols must be positive integers, got {rows!r} and {cols!r}")
    if type(data) is not list or not all(type(v) in (int, float) for v in data):
        raise MatrixFormatError("data must be a list of JSON numbers")
    if len(data) != rows * cols:
        raise SizeMismatchError(f"data length {len(data)} != rows*cols = {rows * cols}")
    return np.array([float(v) for v in data]).reshape(rows, cols)
