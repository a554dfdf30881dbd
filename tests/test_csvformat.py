"""Differential test of ``csvformat.format_rows`` against per-entry ``%.17g``,
byte for byte, on a fixed corpus of hard cases and on Hypothesis floats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudobath.csvformat import format_rows


def percent_rows(table) -> str:
    return "".join(",".join("%.17g" % x for x in row) + "\n" for row in table.tolist())


def assert_formats_like_percent(values, cols):
    values = np.asarray(values, dtype=float)
    table = np.append(values, np.zeros(-values.size % cols)).reshape(-1, cols)
    assert format_rows(table) == percent_rows(table)


def neighbours(values, ulps):
    """Each value and the doubles up to ``ulps`` steps either side of it."""
    out = [np.asarray(values, dtype=float)]
    for direction in (-np.inf, np.inf):
        v = out[0]
        for _ in range(ulps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


def corpus() -> dict:
    rng = np.random.default_rng(20260417)
    tiny = np.finfo(float).tiny
    powers = np.array([float(f"1e{k}") for k in range(-300, 300)])
    digits = "12345678901234567"
    return {
        "specials": [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, tiny,
                     np.nextafter(tiny, 0), 1e-310, np.finfo(float).max, 1e-269, 1e269,
                     1e-300, -1e-300, 3.0, -7.0, 0.1, 1.0 / 3.0, 2.5e17],
        "subnormals": rng.integers(1, 2**52, 500, dtype=np.int64).view(float),
        "powers of ten": neighbours(np.concatenate((powers, -powers)), 1),
        "notation switches": neighbours([1e-4, 1e-5, 1e16, 1e17, 1e15, 1e-3], 5),
        # x * 10^25 lies 4e-16 and 2e-16 below a half-integer, where the
        # double-double product rounds up: only the _HALF_MARGIN fallback to
        # % prints 4.8677287764934085e-09 and 4.9102966142601843e-09
        "near ties": [float.fromhex("0x1.4e81fd810348ap-28"),
                      float.fromhex("0x1.516eda0094298p-28")],
        # a decimal point after units digit u = 1..15, with 17 significant
        # digits and, but for u = 15, with fewer
        "interior points": [sign * float(f"{digits[:u + 1]}.{tail}") for sign in (1, -1)
                            for u in range(1, 16) for tail in (digits[u + 1:], "25")],
        # 23 and 24 bytes, the longest texts of fixed and exponent notation
        "widest entries": neighbours([-1.2345678901234567e-4, -9.8765432109876543e-4]
                                     + [sign * float(f"9.8765432109876543e{e}") for sign in (1, -1)
                                        for e in (-199, -101, 101, 199)], 2),
        "halves": np.concatenate((np.arange(-2000, 2001) * 0.005, 1e15 + np.arange(0, 64) * 0.25)),
        "integers": np.concatenate((np.arange(-100, 101), 10.0 ** np.arange(17) * 7)),
        "random bits": rng.integers(0, 2**64, 10000, dtype=np.uint64).view(float),
        "random magnitudes": rng.standard_normal(5000) * 10.0 ** rng.integers(-30, 30, 5000),
    }


@pytest.mark.parametrize("cols", [1, 34])
@pytest.mark.parametrize("name", sorted(corpus()))
def test_corpus_matches_percent_format(name, cols):
    assert_formats_like_percent(corpus()[name], cols)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_tables(shape):
    table = np.zeros(shape)
    assert format_rows(table) == percent_rows(table)


def test_accepts_a_list_of_rows():
    rows = [(20.0, 1.5e-7), (40.0, 3.0000000000000004e-9)]
    assert format_rows(rows) == "20,1.4999999999999999e-07\n40,3.0000000000000004e-09\n"


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=60), st.integers(1, 5))
def test_hypothesis_floats_match_percent_format(values, cols):
    assert_formats_like_percent(values, cols)
