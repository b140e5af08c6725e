"""Deterministic JSON/CSV emission with round-trip-safe floats.

Every float is printed with 17 significant digits, enough to reconstruct
the exact double, so repeated runs with identical inputs produce
byte-identical output.  :func:`dumps` walks a payload once, leaving a
place for each float ``ndarray``, and then converts those arrays together
(``_floattext``, imported for the first payload that holds one), each
element exactly as :func:`format_float` renders it.  An array held twice
is converted twice.

The module imports no numpy.  It recognizes arrays and numpy scalars
through the numpy module already loaded, if any: without one, none exist.
Nor does it import ``json`` until a string needs escaping.
"""

from __future__ import annotations

import math
import sys


def format_float(x: float) -> str:
    """17-significant-digit decimal rendering of a finite double."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return format(x, ".17g")


def dumps(obj) -> str:
    """JSON text with deterministic key order and 17-digit floats."""
    # The text is written piece by piece and joined once, so that each
    # array's text is copied once more, not once per level of nesting.  A
    # float array leaves an empty piece, filled after the walk.
    parts: list[str] = []
    arrays: list = []  # (place in parts, array) of each float array
    try:
        _emit(obj, parts, arrays)
    finally:
        # Also when the walk raises: a non-finite value in an array emitted
        # before the error is then the one raised, so errors come in
        # emission order.
        if arrays:
            from ._floattext import format_arrays
            texts = format_arrays([a for _, a in arrays])
            for (i, _), text in zip(arrays, texts):
                parts[i] = text
    return "".join(parts)


def _quote(text: str) -> str:
    """``json.dumps(text)``, without importing json for plain ASCII text."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return f'"{text}"'
    import json
    return json.dumps(text)


def _emit(obj, parts: list, arrays: list) -> None:
    """Append the text of ``obj`` to ``parts``, and the place of each float
    array to ``arrays``."""
    if isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(", ")
            parts.append(f"{_quote(str(k))}: ")
            _emit(v, parts, arrays)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(", ")
            _emit(v, parts, arrays)
        parts.append("]")
    else:
        np = sys.modules.get("numpy")
        if np is not None and isinstance(obj, np.ndarray) and obj.dtype.kind == "f":
            arrays.append((len(parts), obj))
            parts.append("")
        else:
            parts.append(_leaf(obj))


def _leaf(obj) -> str:
    # A numpy float64 is a float, and a numpy str_ a str; no other numpy
    # type is one of the built-in types tested first.
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if obj is None:
        return "null"
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.bool_):
            return "true" if obj else "false"
        if isinstance(obj, np.integer):
            return str(int(obj))
        if isinstance(obj, np.floating):
            return format_float(obj)
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def encode_cmatrix(m):
    """Complex array as a float array whose last axis holds [re, im]."""
    import numpy as np
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], -1)


def decode_cmatrix(data):
    """Inverse of :func:`encode_cmatrix` for any shape, signed zeros kept."""
    import numpy as np
    parts = np.asarray(data, dtype=float)
    if parts.shape[-1:] != (2,):
        raise ValueError(f"expected [re, im] pairs on the last axis, got shape {parts.shape}")
    m = np.empty(parts.shape[:-1], dtype=complex)
    m.real = parts[..., 0]
    m.imag = parts[..., 1]
    return m


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
