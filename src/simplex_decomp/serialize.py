"""Deterministic JSON/CSV emission with round-trip-safe floats.

Every float is printed with 17 significant digits, enough to reconstruct
the exact double, so repeated runs with identical inputs produce
byte-identical output.  A float ``ndarray`` is written in one
``str.format`` call through a nested template cached per shape; it
renders each element exactly as :func:`format_float` does, and an array
that one payload holds twice is formatted once.

The module imports no numpy.  It recognizes arrays and numpy scalars
through the numpy module already loaded, if any: without one, none exist.
Nor does it import ``json`` until a string needs escaping.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering of a finite double."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return format(x, ".17g")


def dumps(obj) -> str:
    """JSON text with deterministic key order and 17-digit floats."""
    # Text of each float array by id; the array is kept with its text, so
    # that its id cannot be reused while the call runs.
    return _emit(obj, {})


def _quote(text: str) -> str:
    """``json.dumps(text)``, without importing json for plain ASCII text."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json
    return json.dumps(text)


@lru_cache(maxsize=128)
def _template(shape: tuple[int, ...]) -> str:
    """Nested JSON list of ``{:.17g}`` fields for an array of ``shape``."""
    if not shape:
        return "{:.17g}"
    return "[" + ", ".join([_template(shape[1:])] * shape[0]) + "]"


def _emit_floats(np, a, memo: dict) -> str:
    hit = memo.get(id(a))
    if hit is None:
        finite = np.isfinite(a)
        if not finite.all():
            raise ValueError(f"cannot serialize non-finite float {a[~finite][0]}")
        hit = memo[id(a)] = (a, _template(a.shape).format(*a.ravel().tolist()))
    return hit[1]


def _emit(obj, memo: dict) -> str:
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
            return _emit_floats(np, obj, memo)
        if isinstance(obj, np.bool_):
            return "true" if obj else "false"
        if isinstance(obj, np.integer):
            return str(int(obj))
        if isinstance(obj, np.floating):
            return format_float(obj)
    if isinstance(obj, dict):
        items = (f"{_quote(str(k))}: {_emit(v, memo)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v, memo) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def encode_cmatrix(m):
    """Complex array as a float array whose last axis holds [re, im]."""
    import numpy as np
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1)


def decode_cmatrix(data):
    import numpy as np
    return np.array([[complex(re, im) for re, im in row] for row in data])


def csv_row(values) -> str:
    """One CSV line; floats rendered with 17 significant digits."""
    np = sys.modules.get("numpy")
    floats = float if np is None else (float, np.floating)
    parts = []
    for v in values:
        if isinstance(v, floats):
            parts.append(format_float(v))
        else:
            parts.append(str(v))
    return ",".join(parts)
