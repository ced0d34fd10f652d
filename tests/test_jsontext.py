"""The byte formatter of trace.json against Python's own spellings:
``float.__repr__`` for every float64, ``str`` for ints."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbounds.jsontext import joined, json_cells

JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def texts(values, nonfinite=JSON_FLOATS) -> list[str]:
    return joined(json_cells(np.asarray(values), nonfinite)).split(", ")


def reprs(values, nonfinite=JSON_FLOATS) -> list[str]:
    return [nonfinite.get(text, text) for text in map(float.__repr__, values.tolist())]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_every_bit_pattern_prints_as_repr(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert texts(values) == reprs(values)


def _with_neighbours(values: np.ndarray) -> np.ndarray:
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


EDGES = {
    "powers of two": _with_neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
    "powers of ten": _with_neighbours(np.array([float(f"1e{k}") for k in range(-323, 309)])),
    "smallest subnormals": np.arange(1, 20_001, dtype=np.uint64).view(np.float64),
    # the two smallest subnormals, the ends of the positional layout, the
    # largest double and the negative zero
    "named": np.array([5e-324, 1e-323, 9.999999999999999e-05, 1e-4, 1e16,
                       9999999999999998.0, np.finfo(np.float64).max, -0.0, 0.0]),
}


@pytest.mark.parametrize("name", EDGES)
def test_edge_values_print_as_repr(name):
    values = EDGES[name]
    assert texts(values) == reprs(values)
    assert texts(-values) == reprs(-values)


def test_five_e_minus_324_takes_one_digit():
    # Java's two-digit minimum gave 4.9e-324, and without the decimal shift 5e-323
    assert texts(np.array([5e-324, 1e-323, 1.5e-323])) == ["5e-324", "1e-323", "1.5e-323"]


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64,
                                   np.uint8, np.uint16, np.uint32, np.uint64])
def test_ints_print_as_str(dtype):
    info = np.iinfo(dtype)
    rng = np.random.default_rng(info.bits)
    values = np.concatenate([np.array([info.min, info.max, 0, 1, 9, 10, 99, 100], dtype=dtype),
                             rng.integers(info.min, info.max, 500, dtype=dtype, endpoint=True)])
    assert texts(values) == list(map(str, values.tolist()))


def test_bools_print_as_json():
    assert texts(np.array([True, False, False])) == ["true", "false", "false"]


def test_non_finite_values_are_respelled():
    coins = {**JSON_FLOATS, "nan": "null"}
    values = np.array([np.nan, 0.25, -np.inf, np.inf, -np.nan, 1e300])
    assert texts(values, coins) == ["null", "0.25", "-Infinity", "Infinity", "null", "1e+300"]
    assert texts(np.full(3, np.inf), {**JSON_FLOATS, "inf": '"inf"'}) == ['"inf"'] * 3


def test_float32_prints_as_its_float64():
    values = np.array([0.1, 1e-40, 3.4e38], dtype=np.float32)
    assert texts(values) == reprs(values.astype(np.float64))


def test_rows_end_with_end_and_join_side_by_side():
    times, thetas = np.array([0, 500]), np.array([9.5, -math.inf])
    text = joined(b"[", json_cells(times, JSON_FLOATS),
                  json_cells(thetas, {**JSON_FLOATS, "-inf": '"-inf"'}, end=b"], "))
    assert text == '[0, 9.5], [500, "-inf"]'
