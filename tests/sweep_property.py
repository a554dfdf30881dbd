"""Long run of the sweep property in ``test_cli.py``: on random sweeps, each
point writes, and fails with, exactly what it does alone through
``simulate``.  The same ``sweep_cases`` strategy and the same check, through
far more derandomized examples than Tier-1 draws.

    PYTHONPATH=src python tests/sweep_property.py [--examples N]

Prints how often each outcome of a point was reached, a status or an error
message with its numbers and JSON paths masked as ``#``, and how many
examples ran at each ``--jobs``.  Exits 0 when every example holds;
otherwise Hypothesis prints the shrunk failing example and the script exits
1 with its traceback.  Not collected by pytest.
"""

import argparse
import collections
import pathlib
import re
import sys
import tempfile
import time
import warnings

from hypothesis import HealthCheck, example, given, settings

from test_cli import THRESHOLD_OVERFLOW, check_sweep_is_its_points, sweep_cases


def outcome(entry: dict) -> str:
    """A manifest entry's status, or its error with numbers and paths masked."""
    return re.sub(r"\$[^:]*|[-+]?\d[\w.+-]*", "#", entry.get("error", entry["status"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Long run of test_cli.py's sweep property.")
    parser.add_argument("--examples", type=int, default=2000)
    args = parser.parse_args(argv)
    outcomes, jobs = collections.Counter(), collections.Counter()

    @settings(
        derandomize=True, database=None, max_examples=args.examples, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=sweep_cases())
    @example(case=THRESHOLD_OVERFLOW)
    def sweep_is_its_points(case):
        with tempfile.TemporaryDirectory() as tmp:
            manifest = check_sweep_is_its_points(pathlib.Path(tmp), *case)
        outcomes.update(outcome(entry) for entry in manifest)
        jobs[case[3]] += 1

    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as in Tier-1
        sweep_is_its_points()
    for text, count in outcomes.most_common():
        print(f"{count:7}  {text}")
    print(f"{sum(outcomes.values())} points in {sum(jobs.values())} examples held the sweep "
          f"property in {time.perf_counter() - start:.1f} s; examples by --jobs: "
          + ", ".join(f"{j}: {jobs[j]}" for j in sorted(jobs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
