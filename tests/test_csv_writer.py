"""The CSV writer formats a row with one %-template against the per-value
``format(float(v), ".17g")`` it replaced, byte for byte."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynkit.cli import _OutputSink


def legacy_fmt(value) -> str:
    return format(float(value), ".17g")


def legacy_csv_bytes(header, rows):
    lines = [",".join(header)] + [",".join(legacy_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def written(tmp_path, header, rows):
    sink = _OutputSink(str(tmp_path))
    sink.csv("out.csv", header, rows)
    data = (tmp_path / "out.csv").read_bytes()
    assert sink.files == [{"name": "out.csv", "bytes": len(data),
                           "sha256": hashlib.sha256(data).hexdigest()}]
    return data


EDGE_VALUES = [0, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3,
               1e16, 1e17, 123456789012345678, -7, 2 ** 60, True,
               np.float64(0.1), np.float64(-0.0), np.float64(5e-324),
               np.int64(-12), np.float32(0.1)]


def test_edge_values_match_the_per_value_format(tmp_path):
    rows = [EDGE_VALUES[i:i + 3] for i in range(0, len(EDGE_VALUES) - 2, 3)]
    assert written(tmp_path, ("a", "b", "c"), rows) \
        == legacy_csv_bytes(("a", "b", "c"), rows)


@pytest.mark.parametrize("rows", [[], [(1,)], [(np.float64(2.5),)]])
def test_empty_and_single_column(tmp_path, rows):
    assert written(tmp_path, ("E",), rows) == legacy_csv_bytes(("E",), rows)


def test_zipped_numpy_columns_as_the_runners_pass_them(tmp_path):
    rng = np.random.default_rng(0)
    columns = [np.arange(2001) * 1e-3] + [rng.normal(size=2001) for _ in range(4)]
    header = ("t", "x_mean", "p_mean", "energy", "norm")
    assert written(tmp_path, header, zip(*columns)) \
        == legacy_csv_bytes(header, zip(*columns))


# derandomized, like the other property tests, so that every run of the suite
# makes the same allocations
@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(-2 ** 70, 2 ** 70)), max_size=5))
def test_any_finite_float_and_int_match_the_per_value_format(tmp_path_factory,
                                                             rows):
    tmp_path = tmp_path_factory.getbasetemp() / "csv"
    tmp_path.mkdir(exist_ok=True)
    assert written(tmp_path, ("x", "k"), rows) == legacy_csv_bytes(("x", "k"), rows)
