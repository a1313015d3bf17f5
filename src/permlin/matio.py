"""Matrix file formats: CSV (one row per line, comma separated, complex
entries as "a+bi") and the JSON object {"rows": m, "cols": n, "data": [...]}
with row-major data.  Both are read; the CLI writes the JSON object, floats
with their shortest round-trip representation, so decimal-representable
values survive CSV -> JSON exactly.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .errors import MatrixFormatError, NonFiniteError, SizeMismatchError

__all__ = [
    "read_matrix",
    "matrix_to_json_obj",
    "matrix_from_json_obj",
]

def _parse_entry(tok: str) -> complex:
    tok = tok.strip()
    if tok.endswith("i"):
        body = tok[:-1]
        m = re.match(r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?P<im>[+-](?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)$", body)
        if m:
            im = m.group("im")
            if im in ("+", "-"):
                im += "1"
            return complex(float(m.group("re")), float(im))
        if body in ("", "+"):
            return 1j
        if body == "-":
            return -1j
        return complex(0.0, float(body))
    return complex(float(tok), 0.0)


def _format_entry(v) -> str:
    if isinstance(v, complex) or np.iscomplexobj(np.asarray(v)):
        v = complex(v)
        if v.imag == 0.0:
            return repr(v.real)
        sign = "+" if v.imag >= 0 else "-"
        return f"{v.real!r}{sign}{abs(v.imag)!r}i"
    return repr(float(v))


def read_matrix(path) -> np.ndarray:
    """Read a matrix from .csv or .json by extension; complex promoted as needed.

    Rejects NaN and infinite entries with NonFiniteError, a missing or malformed file with
    MatrixFormatError, and a ragged CSV or a JSON data length other than rows * cols with
    SizeMismatchError; every message names the file."""
    path = Path(path)
    try:
        if path.suffix.lower() == ".json":
            arr = matrix_from_json_obj(json.loads(path.read_text()))
        else:
            rows = []
            for line in path.read_text().splitlines():
                if not line.strip():
                    continue
                rows.append([_parse_entry(tok) for tok in line.split(",")])
            if not rows or len({len(r) for r in rows}) != 1:
                raise SizeMismatchError("ragged or empty CSV matrix")
            arr = np.array(rows, dtype=complex)
            arr = arr.real.copy() if np.all(arr.imag == 0.0) else arr
    except (MatrixFormatError, SizeMismatchError) as exc:
        raise type(exc)(f"matrix in {path}: {exc}") from None
    except (OSError, ValueError, TypeError, KeyError, OverflowError, RecursionError) as exc:
        raise MatrixFormatError(f"cannot read a matrix from {path}: {type(exc).__name__}: {exc}") from None
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"matrix in {path} has NaN or infinite entries")
    return arr


def matrix_to_json_obj(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m))
    if np.iscomplexobj(m):
        data = [_format_entry(v) for v in m.ravel()]
    else:
        data = [float(v) for v in m.ravel()]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json_obj(obj: dict) -> np.ndarray:
    rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    # checked, not coerced: `type(v) is int` is False for floats, strings and booleans
    if not (type(rows) is int and type(cols) is int and rows >= 1 and cols >= 1):
        raise MatrixFormatError(f"rows and cols must be positive integers, got {rows!r} and {cols!r}")
    if type(data) is not list or any(isinstance(v, bool) for v in data):
        raise MatrixFormatError("data must be a list of numbers or entry strings, without booleans")
    if len(data) != rows * cols:
        raise SizeMismatchError(f"data length {len(data)} != rows*cols = {rows * cols}")
    vals = [_parse_entry(v) if isinstance(v, str) else complex(v) for v in data]
    arr = np.array(vals, dtype=complex).reshape(rows, cols)
    return arr.real.copy() if np.all(arr.imag == 0.0) else arr
