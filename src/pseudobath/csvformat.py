"""``%.17g`` formatting of a whole float table at once.

``format_rows(table)`` returns exactly
``"".join(",".join("%.17g" % x for x in row) + "\\n" for row in table)``.
``%.17g`` prints the 17-digit correctly rounded decimal of each double
(D. M. Gay, "Correctly rounded binary-decimal and decimal-binary
conversions", 1990), which numpy computes here for every entry in a few
whole-array passes:

- E = floor(log10 |x|) and D = round(|x| 10^(16-E)).  The product is taken
  against a double-double power of ten, its head part exactly (T. J. Dekker,
  Numer. Math. 18 (1971) 224), so the scaled value is off by about 1e-14 at
  most.  E moves by one where D falls outside [10^16, 10^17), and a rounding
  up to 10^17 carries into the exponent.
- Each entry becomes four 8-byte words, looked up in tables: the sign, the
  "0.000" of fixed notation below 1, the first digit and its decimal point;
  digits 1 to 16, one byte each, with the trailing zeros masked off; the
  exponent and the separator.  A decimal point after digit u = 1..15 goes in
  by shifting the digits after it one byte to the right.  Unused bytes are
  NUL, and the text is what remains when they are deleted.

Entries that this cannot settle are formatted by ``%`` one at a time: a
scaled value within 1e-7 of a half (where the rounding of a tie could
matter), an exponent that does not settle after one correction, and
non-finite values or magnitudes outside [1e-269, 1e269), where the power of
ten or its tail would leave the normal range.
"""

import numpy as np

#: Magnitudes formatted by the array path; others go through ``%``.
_MIN_ABS, _MAX_ABS = 1e-269, 1e269
#: Exponents that the array path can reach, with one correction and a carry.
_MAX_EXP = 272
#: Scaled values whose fraction is within this of 1/2 go through ``%``.
_HALF_MARGIN = 1e-7
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant

_tables = None


def _words(rows, size=8) -> np.ndarray:
    """One ``size``-byte word per string of at most ``size`` one-byte
    characters, padded with NUL."""
    return np.frombuffer(
        b"".join(r.encode("latin-1").ljust(size, b"\0") for r in rows), dtype=f"u{size}"
    )


def _powers_of_ten() -> np.ndarray:
    """Rows head, tail, and the high and low Dekker halves of head, of the
    double-double 10^(16-E) for E from -_MAX_EXP to _MAX_EXP, computed
    exactly from Python integers."""
    head, tail = [], []
    for s in range(16 + _MAX_EXP, 16 - _MAX_EXP - 1, -1):
        if s >= 0:
            hi = float(10**s)
            lo = float(10**s - int(hi))
        else:
            scale = 10**-s
            hi = 1 / scale
            num, den = hi.as_integer_ratio()
            lo = (den - num * scale) / (den * scale)
        head.append(hi)
        tail.append(lo)
    head = np.array(head)
    split = head * _SPLIT
    head_hi = split - (split - head)
    return np.array([head, tail, head_hi, head - head_hi])


def _load_tables() -> tuple:
    """The lookup tables, built on first use so that importing this module
    builds nothing:

    - powers: see _powers_of_ten;
    - cells[g]: the four digits of g = 0..9999 as a 4-byte cell;
    - significant[g]: how many of them run up to the last nonzero one;
    - keep[k, m]: the mask of the digits of group k (digits 4k+1..4k+4) that
      come no later than digit m;
    - shift[u, j]: the byte of an entry that byte 8 + j takes when a decimal
      point follows digit u (j = u, the point itself, is written after);
    - prefix[sign + 2 * zeros + 10 * digit + 100 * point]: "-" or NUL, then
      "", "0.", "0.0", "0.00" or "0.000", the first digit, "." or NUL;
    - suffix[2 * (E + _MAX_EXP + 1) + newline] in exponent notation and
      suffix[newline] in fixed notation: "e+07" and the like, then the
      separator.
    """
    global _tables
    if _tables is None:
        grid = np.zeros((10, 10, 10, 10, 4), dtype=np.uint8)
        significant = np.zeros(10000, dtype=np.int8)
        for k in range(4):
            # digit k of g varies along axis k of g's (10, 10, 10, 10) grid
            grid[..., k] = np.arange(ord("0"), ord("9") + 1).reshape((10,) + (1,) * (3 - k))
            significant[grid[..., k].ravel() > ord("0")] = k + 1
        cells = grid.reshape(10000, 4).view(np.uint32).ravel()
        keep = _words(("\xff" * min(max(m - 4 * k, 0), 4) for k in range(4) for m in range(17)), 4)
        j = np.arange(17)
        shift = 8 + j - (j > np.arange(16)[:, None])
        prefix = _words(
            sign + zeros.ljust(5, "\0") + str(digit) + point
            for point in ("\0", ".")
            for digit in range(10)
            for zeros in ("", "0.", "0.0", "0.00", "0.000")
            for sign in ("\0", "-")
        )
        exponents = [""] + [f"e{e:+03d}" for e in range(-_MAX_EXP, _MAX_EXP + 1)]
        suffix = _words(exp.ljust(5, "\0") + sep for exp in exponents for sep in ",\n")
        _tables = (_powers_of_ten(), cells, significant, keep.reshape(4, 17), shift, prefix, suffix)
    return _tables


def _scaled(ax: np.ndarray, e: np.ndarray, powers: np.ndarray):
    """Floor and nearest integer of ax * 10^(16 - e), as int64, and whether
    its fraction is within _HALF_MARGIN of 1/2."""
    index = e + _MAX_EXP
    head, tail, head_hi, head_lo = powers
    term = head.take(index)
    p = ax * term
    # Dekker: the rounding error of p, exactly, from ax = ax_hi + ax_lo
    ax_hi = ax * _SPLIT
    ax_lo = ax_hi - ax
    ax_hi -= ax_lo
    np.subtract(ax, ax_hi, out=ax_lo)
    head_hi.take(index, out=term)
    q = ax_hi * term
    q -= p
    head_lo.take(index, out=term)
    ax_hi *= term
    q += ax_hi
    term *= ax_lo
    head_hi.take(index, out=ax_hi)
    ax_lo *= ax_hi
    q += ax_lo
    q += term
    # then the tail of the power of ten
    tail.take(index, out=term)
    term *= ax
    q += term
    whole = p.astype(np.int64)
    np.floor(q, out=p)
    floor = whole + p.astype(np.int64)
    np.rint(q, out=p)
    q -= p
    whole += p.astype(np.int64)
    return floor, whole, np.abs(q, out=q) > 0.5 - _HALF_MARGIN


def _decimal(x: np.ndarray, powers: np.ndarray):
    """|x| = D 10^(E-16) with D the correctly rounded 17-digit integer: its
    first digit, its other 16 as four groups of four, and E; and a mask of
    the entries left to ``%``.  D = E = 0 for those and for zero."""
    ax = np.abs(x)
    fast = (ax >= _MIN_ABS) & (ax < _MAX_ABS)
    ax[~fast] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    floor, d, tie = _scaled(ax, e, powers)
    off = np.flatnonzero((floor < 10**16) | (floor >= 10**17))
    if off.size:
        e[off] += np.where(floor[off] < 10**16, -1, 1)
        floor, d[off], tie[off] = _scaled(ax[off], e[off], powers)
        tie[off[(floor < 10**16) | (floor >= 10**17)]] = True
    carry = d == 10**17
    d[carry] = 10**16
    e += carry
    unset = ~fast | tie
    d[unset] = 0
    e[unset] = 0
    lead = d // 10**16
    d -= lead * 10**16
    high = (d // 10**8).astype(np.int32)
    low = (d - high * np.int64(10**8)).astype(np.int32)
    groups = np.empty((4, x.size), dtype=np.int32)
    np.floor_divide(high, 10**4, out=groups[0])
    np.remainder(high, 10**4, out=groups[1])
    np.floor_divide(low, 10**4, out=groups[2])
    np.remainder(low, 10**4, out=groups[3])
    return lead.astype(np.int8), groups, e.astype(np.int16), unset & (x != 0.0)


def _layout(x: np.ndarray, cols: int) -> np.ndarray:
    """The text of each entry of x in four 8-byte words, NUL where unused,
    ending in the separator that follows it in a table of ``cols`` columns."""
    powers, cells, significant, keep, shift, prefix, suffix = _load_tables()
    lead, groups, e, slow = _decimal(x, powers)
    # index of the last nonzero digit (0 for zero) and of the units digit
    last = np.zeros(x.size, dtype=np.int8)
    in_group = significant.take(groups)
    for k in range(4):
        np.copyto(last, in_group[k] + 4 * k, where=in_group[k] > 0)
    fixed = (e >= -4) & (e < 17)
    units = np.where(fixed, e, 0).astype(np.int8)

    words = np.empty((x.size, 4), dtype=np.uint64)
    below_one = np.where(fixed & (e < 0), -e, 0)
    point = (units == 0) & (last > 0)
    words[:, 0] = prefix.take(np.signbit(x) + 2 * below_one + 10 * lead + 100 * point)
    # the digits up to the last nonzero one and the units digit
    kept = np.maximum(last, units)
    digits = words.view(np.uint32)
    for k in range(4):
        digits[:, 2 + k] = cells.take(groups[k]) & keep[k].take(kept)
    exponent = np.where(fixed, 0, 2 * (e + _MAX_EXP + 1))
    exponent[cols - 1 :: cols] += 1
    words[:, 3] = suffix.take(exponent)
    out = words.view(np.uint8)
    # the decimal point after units digits 1..15: fixed notation, so byte 24,
    # where the last digit moves, is NUL
    inner = np.flatnonzero((units > 0) & (last > units))
    u = units[inner]
    out[inner, 8:25] = np.take_along_axis(out[inner], shift[u], axis=1)
    out[inner, 8 + u] = ord(".")
    for i in np.flatnonzero(slow).tolist():
        entry = ("%.17g" % x[i]).encode()
        out[i, :29] = 0  # all but the separator
        out[i, : len(entry)] = np.frombuffer(entry, dtype=np.uint8)
    return words


def format_rows(table) -> str:
    """The rows of a 2-D float table as CSV text: each entry ``%.17g``,
    entries joined by commas, each row ended by a newline."""
    table = np.asarray(table, dtype=np.float64)
    rows, cols = table.shape
    if table.size == 0:
        return "\n" * rows
    return _layout(table.ravel(), cols).tobytes().translate(None, b"\0").decode("ascii")


__all__ = ["format_rows"]
