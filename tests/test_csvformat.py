"""Differential test of ``csvformat.format_rows`` against per-entry ``%.17g``,
byte for byte, on a fixed corpus of hard cases and on Hypothesis floats, and
on tables whose columns copy, negate or nearly copy others, where it also
checks which columns take another's text."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudobath.csvformat import _sources, format_rows


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


def hinted_tables() -> dict:
    """Tables whose columns copy, negate or nearly copy others, each with the
    source column and the negation that each column's text should take."""
    rng = np.random.default_rng(20261020)
    base = rng.standard_normal(40) * 10.0 ** rng.integers(-20, 20, 40)
    # signed zeros, entries left to %, and a near tie
    base[:8] = [0.0, -0.0, np.nan, np.inf, -np.inf, -1e-300, 5e-324,
                float.fromhex("0x1.4e81fd810348ap-28")]
    other = rng.standard_normal(40)
    off = base.copy()
    off[17] = np.nextafter(off[17], np.inf)
    # equal magnitudes on the last row, a sign apart on row 20 alone
    flipped, unflipped = base.copy(), -base
    flipped[20], unflipped[20] = -base[20], base[20]
    return {
        "holds": (np.column_stack((base, other, base)), [0, 1, 0], []),
        "negates": (np.column_stack((base, other, -base)), [0, 1, 0], [2]),
        "off in one entry": (np.column_stack((base, other, off)), [0, 1, 2], []),
        # 0.0 and -0.0 swapped: equal as floats, not as bits
        "signed zeros": (np.column_stack((base, other, np.where(base == 0.0, -base, base))),
                         [0, 1, 2], []),
        # the copy's separator is the newline, its source's a comma
        "last column": (np.column_stack((base, -base, other, base)), [0, 0, 2, 0], [1]),
        "signs differ on an earlier row": (np.column_stack((base, flipped, unflipped)),
                                           [0, 1, 2], []),
        # -0.0 negated is 0.0
        "one row": (np.array([[1.5, -1.5, 1.5, 2.0, -0.0, 0.0]]), [0, 0, 0, 3, 4, 4], [1, 5]),
    }


@pytest.mark.parametrize("kind", sorted(hinted_tables()))
def test_hinted_pairs_change_no_text(kind):
    table, source, negated = hinted_tables()[kind]
    found_source, found_negated = _sources(table.view(np.uint64).T)
    assert found_source.tolist() == source
    assert np.flatnonzero(found_negated).tolist() == negated
    assert format_rows(table) == percent_rows(table)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data(), st.integers(1, 12), st.integers(1, 4))
def test_copied_and_negated_columns_match_percent_format(data, rows, cols):
    floats = st.one_of(st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]), st.floats())
    columns = [np.array(data.draw(st.lists(floats, min_size=rows, max_size=rows)))
               for _ in range(cols)]
    # each extra column copies a drawn one or flips its every sign bit
    for k, negate in data.draw(st.lists(st.tuples(st.integers(0, cols - 1), st.booleans()),
                                        max_size=6)):
        columns.append(-columns[k] if negate else columns[k])
    order = data.draw(st.permutations(range(len(columns))))
    table = np.column_stack([columns[k] for k in order])
    assert format_rows(table) == percent_rows(table)
