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


class TestCsv:
    def test_mixed_row(self):
        assert csv_row(["werner", 3, 0.5, 1.0 / 3.0]) == \
            "werner,3,0.5,0.33333333333333331"
