"""Exact ``.17g`` text of float arrays, many elements per numpy pass.

:func:`format_arrays` writes each array as the nested JSON list that
``format(x, ".17g")`` per element gives, byte for byte, without calling
``dtoa`` for the elements it can convert exactly in numpy.

For |x| in (1e-6, 10) the decimal exponent k of x lies in [-6, 0], so
10**(16 - k) is an exact double, and Dekker's TwoProduct (Veltkamp split;
T. J. Dekker, Numer. Math. 18, 224, 1971) gives V = |x|·10**(16 - k)
exactly as hi + lo.  k is right when 1e16 <= V < 1e17, checked on the
exact pair, and V rounded half to even is the integer D of the 17
significant digits.  Only elementwise ufuncs are used (no ``dot``,
``einsum`` or fused multiply-add), so each operation rounds once and the
pair stays exact.  Zeros print ``0``/``-0``; any other element outside
that range is formatted by ``format`` in place.  The range holds every
entry of a factor, a Bloch vector or a SIC fiducial, all of modulus at
most 1.

The text of an element is one column of ``uint32`` words: sign, the
``0.000`` prefix of fixed notation below 1, the digits and point, the
exponent, and the list separator that follows the element in its array,
each from a lookup table and padded with NULs.  Deleting the NULs of the
transposed words (``bytes.translate``) gives the text.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# Elements converted per pass.  In a fresh process, passes of 2**14 fault in
# far fewer new pages than passes of 2**15 (about 3300 against 15000 minor
# faults for a decomposition at N = 12, count 4), at the same warm speed.
CHUNK = 1 << 14

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for doubles
_POW10 = np.array([float(10 ** p) for p in range(23)])  # exact: 5**22 < 2**53
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _words(texts) -> np.ndarray:
    """``uint32`` words holding the ASCII ``texts``, NUL-padded to 4 bytes."""
    return np.frombuffer(b"".join(t.encode().ljust(4, b"\0") for t in texts),
                         dtype=np.uint32)


# The words of a number:
#   0, 1  sign, the "0.000" prefix of fixed notation below 1, the first
#         digit and a slot for the point;
#   2..5  digits 2..17 in groups of four;
#   6..   the exponent of scientific notation, where any element of the
#         pass has one, and the separator that follows the element.
# An element that format() writes has these words, up to the separator,
# written row by row.  Every table index is in range,
# so np.take runs with mode="wrap", which skips its bounds check.
_HEAD = 2
_BODY = 6


def _prefix(k: int) -> str:
    return "0." + "0" * (-k - 1) if -4 <= k < 0 else ""


# Word 0 by (sign, k + 6); word 1 by (k + 6, first digit, point).
_HEAD0 = _words([(sign + _prefix(k) + "\0" * 5)[:4]
                 for sign in ("\0", "-") for k in range(-6, 1)])
_HEAD1 = _words([((_prefix(k) + "\0" * 5)[3:5] + str(first) + point)
                 for k in range(-6, 1) for first in range(10)
                 for point in ("\0", ".")])


def _digit_groups() -> np.ndarray:
    """Words of each group of four digits, 0000..9999, then of the same
    groups without their trailing zeros."""
    g = np.arange(10000, dtype=np.int32)
    groups = np.empty((2, 10000, 4), dtype=np.uint8)
    for j in range(4):
        groups[0, :, j] = g // 10 ** (3 - j) % 10 + 48
        # Digit j is a trailing zero when the digits from j on are all zero.
        groups[1, :, j] = groups[0, :, j] * (g % 10 ** (4 - j) != 0)
    return groups.view(np.uint32).ravel()


_GROUPS = _digit_groups()
# The exponent of scientific notation, by k + 6.
_EXPONENTS = _words([f"e-0{-k}" if k < -4 else "" for k in range(-6, 1)])


@lru_cache(maxsize=8)
def _separator_words(depth: int):
    """Words of the separator with code 2t (``]`` × t, ``, ``, ``[`` × t,
    t < depth) and 2d + 1 (``]`` × d, the end of an array of d dimensions),
    one row per word."""
    width = -(-2 * depth // 4) * 4
    rows = []
    for t in range(depth + 1):
        between = "]" * t + ", " + "[" * t if t < depth else ""
        rows += [between.encode().ljust(width, b"\0"), b"]" * t + b"\0" * (width - t)]
    return np.frombuffer(b"".join(rows), dtype=np.uint32).reshape(len(rows), -1).T.copy()


@lru_cache(maxsize=32)
def _separator_codes(shape: tuple[int, ...]):
    """Code of the separator that follows each element of ``shape``."""
    size = 1
    for n in shape:
        size *= n
    i = np.arange(1, size + 1)
    closed = np.zeros(size, dtype=np.uint8)
    block = 1
    for n in reversed(shape[1:]):
        block *= n
        closed += i % block == 0
    codes = 2 * closed
    codes[-1:] = 2 * len(shape) + 1
    codes.setflags(write=False)
    return codes


def _scaled(v, k):
    """V = v·10**(16 - k) as an exact pair hi + lo (Dekker's TwoProduct)."""
    p = 16 - k
    hi = v * np.take(_POW10, p)
    t = _SPLIT * v
    vh = t - (t - v)
    vl = v - vh
    ph, pl = np.take(_POW10_HI, p), np.take(_POW10_LO, p)
    lo = ((vh * ph - hi) + vh * pl + vl * ph) + vl * pl
    return hi, lo


def _outside(hi, lo):
    """V < 1e16 (-1), V >= 1e17 (+1) or neither (0), on the exact pair."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    return above.astype(np.intp) - below


def _rows(x, codes, depth: int):
    """Text rows of the float64 elements ``x``, separators included, as a
    (words, elements) ``uint32`` array: row i of the text is column i."""
    n = x.size
    ax = np.abs(x)
    exact = (ax > 1e-6) & (ax < 10)
    v = np.where(exact, ax, 1.0)
    k = np.log10(v)
    np.floor(k, out=k)
    k = k.astype(np.intp)
    np.clip(k, -6, 0, out=k)
    hi, lo = _scaled(v, k)
    # log10 may miss k by one next to a power of ten: step once, then any
    # element still outside goes to format().
    step = _outside(hi, lo)
    redo = np.flatnonzero(step)
    if redo.size:
        k[redo] = np.clip(k[redo] + step[redo], -6, 0)
        hi[redo], lo[redo] = _scaled(v[redo], k[redo])
        exact[redo] &= _outside(hi[redo], lo[redo]) == 0

    # D = round-half-even(hi + lo) = hi + rint(lo): hi is an even integer.
    # No double in the range rounds up to 10**17 (the largest one below a
    # power of ten is too far from it); one that did would go to format().
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    exact &= d < 10 ** 17

    top = d // 100000000
    low = d - top * 100000000
    first = top // 100000000
    top -= first * 100000000
    g1 = top // 10000
    g2 = top - g1 * 10000
    g3 = low // 10000
    g4 = low - g3 * 10000
    # A group is written without trailing zeros when all groups after it
    # are zero; the point, when all four are.
    z4 = g4 == 0
    z3 = z4 & (g3 == 0)
    z2 = z3 & (g2 == 0)
    z1 = z2 & (g1 == 0)
    first *= ax != 0
    point = (k == 0) | (k < -4)
    point &= ~z1

    # The exponent's word is left out where no element needs it.
    scientific = bool((k < -4).any())
    separators = _separator_words(depth)
    out = np.empty((_BODY + scientific + len(separators), n), dtype=np.uint32)
    np.take(_HEAD0, np.signbit(x) * 7 + (k + 6), out=out[0], mode="wrap")
    np.take(_HEAD1, ((k + 6) * 10 + first) * 2 + point, out=out[1], mode="wrap")
    for word, (g, stripped) in enumerate(((g1, z2), (g2, z3), (g3, z4), (g4, True)), _HEAD):
        np.take(_GROUPS, g + stripped * 10000, out=out[word], mode="wrap")
    if scientific:
        np.take(_EXPONENTS, k + 6, out=out[_BODY], mode="wrap")
    for word, table in enumerate(separators, _BODY + scientific):
        np.take(table, codes, out=out[word], mode="wrap")

    other = np.flatnonzero(~exact & (ax != 0))
    if other.size:
        values = x[other]
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"cannot serialize non-finite float {values[~finite][0]}")
        width = _BODY + scientific
        text = b"".join(format(f, ".17g").encode().ljust(4 * width, b"\0")
                        for f in values.tolist())
        out[:width, other] = np.frombuffer(text, dtype=np.uint32).reshape(-1, width).T
    return out


def format_arrays(arrays) -> list[str]:
    """``.17g`` nested-list text of each float array, as
    ``format(x, ".17g")`` writes each element.  A non-finite element raises
    ``ValueError``, naming the first one in the order given."""
    pieces = [[] for _ in arrays]
    batch, size = [], 0
    for i, a in enumerate(arrays):
        flat = a.reshape(-1)
        codes = _separator_codes(a.shape)
        for start in range(0, flat.size, CHUNK):
            part = flat[start:start + CHUNK]
            batch.append((i, a.ndim, part, codes[start:start + CHUNK]))
            size += part.size
            if size >= CHUNK:
                _convert(batch, pieces)
                batch, size = [], 0
    if batch:
        _convert(batch, pieces)
    return [_empty(a.shape) if a.size == 0 else "[" * a.ndim + "".join(p)
            for a, p in zip(arrays, pieces)]


def _convert(batch, pieces) -> None:
    x = np.concatenate([part for _, _, part, _ in batch], dtype=np.float64)
    codes = np.concatenate([c for _, _, _, c in batch])
    rows = _rows(x, codes, max(depth for _, depth, _, _ in batch))
    start = 0
    for i, _, part, _ in batch:
        end = start + part.size
        text = rows[:, start:end].T.tobytes().translate(None, b"\0")
        pieces[i].append(text.decode("ascii"))
        start = end


def _empty(shape: tuple[int, ...]) -> str:
    """Text of an array with no elements."""
    if shape[0] == 0:
        return "[]"
    return "[" + ", ".join([_empty(shape[1:])] * shape[0]) + "]"
