import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from simplex_decomp.serialize import (csv_row, decode_cmatrix, dumps,
                                      encode_cmatrix, format_float)


class TestFloatFormat:
    def test_seventeen_significant_digits(self):
        assert format_float(1.0 / 3.0) == "0.33333333333333331"
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(0.5) == "0.5"
        assert format_float(-1.0) == "-1"

    def test_round_trips_exactly(self):
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(500) * 10.0 ** rng.integers(-20, 20, 500):
            assert float(format_float(x)) == x

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))
        with pytest.raises(ValueError):
            format_float(float("inf"))


class TestDumps:
    def test_structure_and_parseability(self):
        obj = {"a": [1, 2.5, "x"], "b": {"c": True, "d": None}, "e": -0.0}
        text = dumps(obj)
        back = json.loads(text)
        assert back["a"] == [1, 2.5, "x"]
        assert back["b"] == {"c": True, "d": None}

    def test_numpy_scalars(self):
        text = dumps({"i": np.int64(3), "f": np.float64(0.25), "b": np.bool_(True)})
        assert json.loads(text) == {"i": 3, "f": 0.25, "b": True}

    def test_float_values_round_trip(self):
        rng = np.random.default_rng(1)
        values = list(rng.standard_normal(100))
        back = json.loads(dumps({"v": values}))
        assert back["v"] == values

    def test_deterministic_key_order(self):
        a = dumps({"x": 1, "y": 2})
        b = dumps({"x": 1, "y": 2})
        assert a == b == '{"x": 1, "y": 2}'

    # Every character, lone surrogates included, is quoted as json quotes it.
    @given(st.text(st.characters(exclude_categories=())))
    @example('plain ASCII: a-z, 0-9 and ~!')
    @example('a "quoted" word')
    @example('C:\\path')
    @example('\x00\x1f\x7f\u00e9\u2028\U0001f600\ud800')
    def test_strings_are_quoted_as_json_quotes_them(self, text):
        assert dumps(text) == json.dumps(text)
        assert dumps({text: [text]}) == f"{{{json.dumps(text)}: [{json.dumps(text)}]}}"

    def test_array_held_twice_writes_as_two_copies(self):
        a = np.arange(12.0).reshape(3, 4) / 7.0
        shared = {"x": a, "y": [a, {"z": a}]}
        copies = {"x": a.copy(), "y": [a.copy(), {"z": a.copy()}]}
        assert dumps(shared) == dumps(copies)

    def test_array_text_is_not_kept_between_calls(self):
        a = np.zeros(3)
        assert dumps([a, a]) == "[[0, 0, 0], [0, 0, 0]]"
        a[1] = 0.5
        assert dumps([a, a]) == "[[0, 0.5, 0], [0, 0.5, 0]]"

    def test_non_finite_array_held_twice_raises(self):
        a = np.array([1.0, np.nan])
        with pytest.raises(ValueError):
            dumps({"x": a, "y": a})


EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


def float_arrays(min_side=0):
    shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=min_side, max_side=6)
    return hnp.arrays(np.float64, shapes, elements=FINITE)


def per_scalar(a) -> str:
    """Nested-list rendering with one ``format_float`` call per scalar."""
    if a.ndim == 1:
        return "[" + ", ".join(format_float(x) for x in a) + "]"
    return "[" + ", ".join(per_scalar(x) for x in a) + "]"


class TestFloatArrays:
    @settings(deadline=None)
    @given(float_arrays())
    @example(np.array(EDGE_FLOATS))
    @example(np.zeros((2, 0, 3)))
    @example(np.zeros((0, 4)))
    def test_bytes_equal_per_scalar_rendering(self, a):
        assert dumps(a) == per_scalar(a)
        assert dumps({"a": a}) == '{"a": ' + per_scalar(a) + "}"

    @settings(deadline=None)
    @given(float_arrays())
    @example(np.array(EDGE_FLOATS))
    def test_json_returns_the_same_doubles(self, a):
        # -0.0 is written "-0", which only a reader that parses integers as
        # doubles returns with its sign.
        back = json.loads(dumps(a), parse_int=float)
        back = np.array(back, dtype=float).reshape(a.shape)
        assert back.tobytes() == a.tobytes()

    @settings(deadline=None)
    @given(float_arrays(min_side=1), st.sampled_from([np.nan, np.inf, -np.inf]),
           st.integers(min_value=0))
    def test_non_finite_entry_raises(self, a, bad, index):
        a.flat[index % a.size] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dumps(a)

    @settings(deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 5), st.integers(0, 5),
                                            st.just(2)), elements=FINITE))
    def test_complex_matrix_matches_nested_pairs(self, parts):
        m = np.empty(parts.shape[:2], dtype=complex)
        m.real, m.imag = parts[..., 0], parts[..., 1]
        pairs = [[[z.real, z.imag] for z in row] for row in m]
        assert dumps(encode_cmatrix(m)) == dumps(pairs)


class TestComplexMatrices:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        back = decode_cmatrix(json.loads(dumps(encode_cmatrix(m))))
        np.testing.assert_array_equal(back, m)

    def test_factor_stack_round_trips_bit_for_bit(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        m.real[0, 0] = -0.0
        m.imag[1, 2] = -0.0
        m.imag[2] = 0.0
        m[3, 1, 1] = complex(-0.0, -0.0)
        m[4] *= 1e-300
        # "-0" reads back as -0.0 only where integers parse as floats.
        back = decode_cmatrix(json.loads(dumps(encode_cmatrix(m)), parse_int=float))
        assert back.shape == m.shape
        assert back.tobytes() == m.tobytes()

    def test_decode_inverts_encode_for_any_shape(self):
        m = np.array([[[complex(-0.0, 1.5)]], [[complex(2.0, -0.0)]]])
        parts = encode_cmatrix(m)
        assert decode_cmatrix(parts).tobytes() == m.tobytes()
        assert decode_cmatrix(parts[0, 0, 0]).tobytes() == m[0, 0, 0].tobytes()


class TestCsv:
    def test_mixed_row(self):
        assert csv_row(["werner", 3, 0.5, 1.0 / 3.0]) == \
            "werner,3,0.5,0.33333333333333331"


def dtoa_text(values) -> str:
    """One-dimensional list text with one ``format(x, ".17g")`` per value."""
    return "[" + ", ".join([format(v, ".17g") for v in values]) + "]"


def assert_same_text(got: str, expected: str) -> None:
    """``got == expected``, reporting the first difference only: a diff of
    two texts of megabytes would take minutes."""
    if got != expected:
        i = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                 min(len(got), len(expected)))
        start = max(got.rfind("[", 0, i), got.rfind(" ", 0, i), 0)
        raise AssertionError(f"texts differ at {i}: {got[start:i + 30]!r} "
                             f"instead of {expected[start:i + 30]!r}")


class TestExactFloatText:
    """``dumps`` converts float arrays in numpy; every byte must equal what
    ``format(x, ".17g")`` writes for the same double."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(19)
        n = 1 << 20
        bits = rng.integers(0, 1 << 63, n, dtype=np.uint64)
        bits[1::2] |= np.uint64(1 << 63)
        # Seven in eight with exponents on both sides of the range converted
        # in numpy, (1e-6, 10), the rest anywhere (there dtoa is slow);
        # non-finite patterns become ones.
        band = n - n // 8
        exponent = rng.integers(1023 - 24, 1023 + 8, band, dtype=np.uint64)
        bits[:band] &= np.uint64((1 << 52) - 1 | 1 << 63)
        bits[:band] |= exponent << np.uint64(52)
        x = bits.view(np.float64)
        x[~np.isfinite(x)] = 1.0
        assert_same_text(dumps(x), dtoa_text(x.tolist()))

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([10.0 ** p for p in range(-8, 19)])
        x = np.concatenate([np.nextafter(powers, 0), powers,
                            np.nextafter(powers, np.inf)])
        x = np.concatenate([x, -x])
        assert_same_text(dumps(x), dtoa_text(x.tolist()))

    def test_ties_at_the_seventeenth_digit(self):
        # x·10**(16 - k) is halfway between two integers for x = j·2**(k - 17)
        # with j odd: the ties of each k converted in numpy.  m/2, m/4 and
        # m/8 of 16-digit m are the ties of k = 15 and 16, which format()
        # writes.
        rng = np.random.default_rng(20)
        ties = []
        for k in range(-6, 1):
            scale = 2.0 ** (k - 17)
            j = rng.integers(int(np.ceil(10.0 ** k / scale)), int(10.0 ** (k + 1) / scale), 3000)
            ties.append((j | 1) * scale)
        m = rng.integers(10 ** 15, 10 ** 16, 3000).astype(np.float64)
        m[::2] += 1 - m[::2] % 2  # odd ones end in a 5 when halved
        x = np.concatenate(ties + [m / 2, m / 4, m / 8])
        x = np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)])
        assert_same_text(dumps(x), dtoa_text(x.tolist()))

    def test_edge_values(self):
        x = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                      2.2250738585072014e-308, 1.7976931348623157e308,
                      -1.7976931348623157e308, 0.0001, 9.9999999999999991e-05,
                      1e-05, 9.9999999999999991e-06, 1e-06, 1.0000000000000002e-06,
                      np.nextafter(10.0, 0), np.nextafter(1e17, 0), 1e17,
                      np.nextafter(1e17, np.inf),
                      99999999999999999.0, 9999999999999998.0, 0.5, 1.0, 10.0])
        assert_same_text(dumps(x), dtoa_text(x.tolist()))
        assert dumps(np.array([0.0001, 9.9999999999999991e-05])) == \
            "[0.0001, 9.9999999999999991e-05]"
        assert dumps(np.array([-0.0, 0.0])) == "[-0, 0]"

    def test_float32_and_float16_as_doubles(self):
        x = np.array([0.1, 1 / 3, 3e-7, 65504.0, -2.5])
        for dtype in (np.float32, np.float16):
            a = x.astype(dtype)
            assert_same_text(dumps(a), dtoa_text(a.tolist()))

    def test_zero_dimensional_and_empty_arrays(self):
        assert dumps(np.array(0.1)) == "0.10000000000000001"
        assert dumps(np.array(-0.0)) == "-0"
        assert dumps(np.zeros(0)) == "[]"
        assert dumps(np.zeros((2, 0, 3))) == "[[], []]"
        assert dumps({"a": np.zeros((0, 4)), "b": np.array(3.0)}) == '{"a": [], "b": 3}'

    def test_payload_of_mixed_shapes(self):
        rng = np.random.default_rng(21)
        shapes = [(), (1,), (7,), (3, 4), (2, 1, 5), (1, 2, 1, 3), (2, 2, 2, 2, 2),
                  (0, 3), (40000,)]
        arrays = [np.asarray(rng.standard_normal(shape) * 10.0 ** rng.integers(-9, 19, shape))
                  for shape in shapes]
        arrays.append(rng.standard_normal((6, 6)).astype(np.float32))
        arrays.append(np.arange(12.0).reshape(3, 4).T)  # not C-contiguous
        payload = {"arrays": arrays, "again": arrays[3], "scalar": 0.25,
                   "nested": [{"x": arrays[4]}, (arrays[1], 2)]}
        expected = {"arrays": [per_scalar_any(a) for a in arrays],
                    "again": per_scalar_any(arrays[3]), "scalar": "0.25",
                    "nested": [{"x": per_scalar_any(arrays[4])},
                               (per_scalar_any(arrays[1]), "2")]}
        assert_same_text(dumps(payload), as_text(expected))

    def test_non_finite_names_the_first_in_emission_order(self):
        a = np.array([1.0, -np.inf, np.nan])
        with pytest.raises(ValueError, match="non-finite float -inf"):
            dumps({"a": a, "b": np.array([np.nan])})
        with pytest.raises(ValueError, match="non-finite float nan"):
            dumps({"b": np.array([np.nan]), "a": a})
        with pytest.raises(ValueError, match="non-finite float inf"):
            dumps([np.ones(40000), float("inf"), a])
        with pytest.raises(ValueError, match="non-finite float nan"):
            dumps([np.array([np.nan]), float("inf")])
        big = np.ones(100000)
        big[70000], big[90000] = np.nan, np.inf
        with pytest.raises(ValueError, match="non-finite float nan"):
            dumps([np.ones((3, 3)), big])


def per_scalar_any(a) -> str:
    """``per_scalar`` for any shape, 0-d included."""
    if a.ndim == 0:
        return format_float(a)
    if a.size == 0:
        return dumps(a.tolist())
    return per_scalar(a)


def as_text(obj) -> str:
    """JSON text of a payload whose leaves are already text."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f'"{k}": {as_text(v)}' for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(as_text(v) for v in obj) + "]"
    return obj
