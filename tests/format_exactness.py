"""Long exactness run of ``pseudobath.csvformat.format_rows``: compare it
with per-entry ``%.17g``, byte for byte, on seeded random 64-bit patterns and
on every power of ten with its neighbours two ulps either side.

    PYTHONPATH=src python tests/format_exactness.py [--values N] [--seed S]

Prints one line and exits 0 when everything matches; on a mismatch prints
the first differing value and exits 1.  Not collected by pytest: at the
default 10**7 values it takes tens of seconds.
"""

import argparse
import sys
import time

import numpy as np

from pseudobath.csvformat import format_rows

BATCH = 1 << 17
COLS = 32


def first_mismatch(values: np.ndarray):
    """The first value whose text differs from ``%.17g``, or None."""
    table = values.reshape(-1, COLS)
    text = format_rows(table)
    reference = "".join(",".join("%.17g" % x for x in row) + "\n" for row in table.tolist())
    if text == reference:
        return None
    for x in values.tolist():
        got = format_rows(np.array([[x]]))
        if got != "%.17g\n" % x:
            return x, got
    return "whole table differs", text[:80]


def powers_of_ten() -> np.ndarray:
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    near = [powers]
    for direction in (-np.inf, np.inf):
        v = powers
        for _ in range(2):
            v = np.nextafter(v, direction)
            near.append(v)
    near = np.concatenate(near)
    return np.concatenate((near, -near))


def batches(values: int, seed: int):
    """The powers of ten, then ``values`` random patterns rounded up to whole
    rows, as arrays of at most BATCH values."""
    fixed = powers_of_ten()
    yield np.append(fixed, np.zeros(-fixed.size % COLS))
    rng = np.random.default_rng(seed)
    for lo in range(0, values, BATCH):
        size = min(BATCH, values - lo)
        yield rng.integers(0, 2**64, size + -size % COLS, dtype=np.uint64).view(float)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--values", type=int, default=10**7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    checked = 0
    for values in batches(args.values, args.seed):
        bad = first_mismatch(values)
        if bad is not None:
            print(f"mismatch: {bad!r}")
            return 1
        checked += values.size
    print(f"{checked} values match %.17g byte for byte ({time.perf_counter() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
