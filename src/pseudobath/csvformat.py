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

A column whose bits equal those of another, or equal them with every sign
flipped, as below the diagonal of a Hermitian matrix, need not be formatted
at all: columns are keyed by the magnitude bits of their last entry, each is
compared with the first column of its key on every row, and one that equals
it, or its negation, copies its four words, toggling the sign byte for a
negation.  A copy that this misses only costs the time of formatting it.
"""

import numpy as np

#: Magnitudes formatted by the array path; others go through ``%``.
_MIN_ABS, _MAX_ABS = 1e-269, 1e269
#: Exponents that the array path can reach, with one correction and a carry.
_MAX_EXP = 272
#: Scaled values whose fraction is within this of 1/2 go through ``%``.
_HALF_MARGIN = 1e-7
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant

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


def _tables() -> tuple:
    """The lookup tables of ``_layout``:

    - _CELLS[g]: the four digits of g = 0..9999 as a 4-byte cell;
    - _SIGNIFICANT[g]: how many of them run up to the last nonzero one;
    - _KEEP[k, m]: the mask of the digits of group k (digits 4k+1..4k+4) that
      come no later than digit m;
    - _SHIFT[u, j]: the byte of an entry that byte 8 + j takes when a decimal
      point follows digit u (j = u, the point itself, is written after);
    - _PREFIX[sign + 2 * zeros + 10 * digit + 100 * point]: "-" or NUL, then
      "", "0.", "0.0", "0.00" or "0.000", the first digit, "." or NUL;
    - _SUFFIX[E + _MAX_EXP + 1] in exponent notation and _SUFFIX[0] in fixed
      notation: "e+07" and the like, then a comma.
    """
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
    suffix = _words(exp.ljust(5, "\0") + "," for exp in exponents)
    return cells, significant, keep.reshape(4, 17), shift, prefix, suffix


#: Built once, when the module is imported.
_HEAD, _TAIL, _HEAD_HI, _HEAD_LO = _powers_of_ten()
_CELLS, _SIGNIFICANT, _KEEP, _SHIFT, _PREFIX, _SUFFIX = _tables()


def _scaled(ax: np.ndarray, e: np.ndarray):
    """Floor and nearest integer of ax * 10^(16 - e), as int64, and whether
    its fraction is within _HALF_MARGIN of 1/2."""
    index = e + _MAX_EXP
    term = _HEAD.take(index)
    p = ax * term
    # Dekker: the rounding error of p, exactly, from ax = ax_hi + ax_lo
    ax_hi = ax * _SPLIT
    ax_lo = ax_hi - ax
    ax_hi -= ax_lo
    np.subtract(ax, ax_hi, out=ax_lo)
    _HEAD_HI.take(index, out=term)
    q = ax_hi * term
    q -= p
    _HEAD_LO.take(index, out=term)
    ax_hi *= term
    q += ax_hi
    term *= ax_lo
    _HEAD_HI.take(index, out=ax_hi)
    ax_lo *= ax_hi
    q += ax_lo
    q += term
    # then the tail of the power of ten
    _TAIL.take(index, out=term)
    term *= ax
    q += term
    whole = p.astype(np.int64)
    np.floor(q, out=p)
    floor = whole + p.astype(np.int64)
    np.rint(q, out=p)
    q -= p
    whole += p.astype(np.int64)
    return floor, whole, np.abs(q, out=q) > 0.5 - _HALF_MARGIN


def _decimal(x: np.ndarray):
    """|x| = D 10^(E-16) with D the correctly rounded 17-digit integer: its
    first digit, its other 16 as four groups of four, and E; and a mask of
    the entries left to ``%``.  D = E = 0 for those and for zero."""
    ax = np.abs(x)
    fast = (ax >= _MIN_ABS) & (ax < _MAX_ABS)
    ax[~fast] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    floor, d, tie = _scaled(ax, e)
    off = np.flatnonzero((floor < 10**16) | (floor >= 10**17))
    if off.size:
        e[off] += np.where(floor[off] < 10**16, -1, 1)
        floor, d[off], tie[off] = _scaled(ax[off], e[off])
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


def _layout(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text of each entry of x in four 8-byte words, NUL where unused and
    ended by a comma (byte 29), and a mask of the entries whose text is left
    to ``%``."""
    lead, groups, e, slow = _decimal(x)
    # index of the last nonzero digit (0 for zero) and of the units digit
    last = np.zeros(x.size, dtype=np.int8)
    in_group = _SIGNIFICANT.take(groups)
    for k in range(4):
        np.copyto(last, in_group[k] + 4 * k, where=in_group[k] > 0)
    fixed = (e >= -4) & (e < 17)
    units = np.where(fixed, e, 0).astype(np.int8)

    words = np.empty((x.size, 4), dtype=np.uint64)
    below_one = np.where(fixed & (e < 0), -e, 0)
    point = (units == 0) & (last > 0)
    words[:, 0] = _PREFIX.take(np.signbit(x) + 2 * below_one + 10 * lead + 100 * point)
    # the digits up to the last nonzero one and the units digit
    kept = np.maximum(last, units)
    digits = words.view(np.uint32)
    for k in range(4):
        digits[:, 2 + k] = _CELLS.take(groups[k]) & _KEEP[k].take(kept)
    words[:, 3] = _SUFFIX.take(np.where(fixed, 0, e + _MAX_EXP + 1))
    out = words.view(np.uint8)
    # the decimal point after units digits 1..15: fixed notation, so byte 24,
    # where the last digit moves, is NUL
    inner = np.flatnonzero((units > 0) & (last > units))
    u = units[inner]
    out[inner, 8:25] = np.take_along_axis(out[inner], _SHIFT[u], axis=1)
    out[inner, 8 + u] = ord(".")
    return words, slow


def _sources(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The column whose text each column of a table takes, and whether that
    text is negated.  ``columns`` holds the table's uint64 bits, one row per
    column.  Columns are keyed by the magnitude bits of their last entry; a
    column takes the text of the first column of its key if its bits equal
    that column's on every row, or equal them with every sign bit flipped,
    and its own text otherwise.  The first column of a key takes its own."""
    sign = np.uint64(1 << 63)
    _, first, key = np.unique(columns[:, -1] & ~sign, return_index=True, return_inverse=True)
    source = first[key.ravel()]  # numpy 2.0 may shape the inverse like its input
    flipped = columns ^ columns[source]
    negated = (flipped == sign).all(axis=1)
    unequal = np.flatnonzero(~negated & flipped.any(axis=1))
    source[unequal] = unequal
    return source, negated


def _entries(table: np.ndarray) -> np.ndarray:
    """The text of each entry of a 2-D table as 32 bytes, NUL where unused
    and ending in its separator, one row of bytes per entry."""
    rows, cols = table.shape
    source, negated = _sources(table.view(np.uint64).T)
    own = source == np.arange(cols)
    words, slow = _layout(table[:, own].ravel())
    out = words.view(np.uint8).reshape(rows, -1, 32)
    if not own.all():
        pick = (np.cumsum(own) - 1)[source]
        out = out.take(pick, axis=1)
        slow = slow.reshape(rows, -1).take(pick, axis=1)
        # the sign byte of an entry off the % path is NUL or "-"
        out[:, negated, 0] ^= ord("-")
    out[:, -1, 29] = ord("\n")
    x, out = table.ravel(), out.reshape(-1, 32)
    for i in np.flatnonzero(slow).tolist():
        entry = ("%.17g" % x[i]).encode()
        out[i, :29] = 0  # all but the separator
        out[i, : len(entry)] = np.frombuffer(entry, dtype=np.uint8)
    return out


def format_rows(table) -> str:
    """The rows of a 2-D float table as CSV text: each entry ``%.17g``,
    entries joined by commas, each row ended by a newline."""
    table = np.asarray(table, dtype=np.float64)
    rows, _ = table.shape
    if table.size == 0:
        return "\n" * rows
    # the entries are freed before the NULs are deleted: holding them through
    # that step was measurably slower
    return _entries(table).tobytes().translate(None, b"\0").decode("ascii")


__all__ = ["format_rows"]
