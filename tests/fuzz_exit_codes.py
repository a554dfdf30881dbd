"""Long run of the exit-code property test in ``test_fuzz.py``: the same
``mutated_docs`` and ``ARGVS`` strategies and the same contract, through far
more derandomized examples than Tier-1 draws.

    PYTHONPATH=src python tests/fuzz_exit_codes.py [--examples N]

Every record type validates its fields when it is built, so the failure
paths of the constructors need far more inputs than Tier-1's 60.  Exits 0
when every example holds the contract; otherwise Hypothesis prints the
shrunk failing example and the script exits 1 with its traceback.  Not
collected by pytest.
"""

import argparse
import sys
import time
import warnings

from hypothesis import HealthCheck, given, settings

from test_fuzz import ARGVS, check_exit_contract, mutated_docs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Long run of test_fuzz.py's property test.")
    parser.add_argument("--examples", type=int, default=2000)
    args = parser.parse_args(argv)

    @settings(
        derandomize=True, database=None, max_examples=args.examples, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(doc=mutated_docs(), argv=ARGVS)
    def contract_holds(doc, argv):
        check_exit_contract(doc, argv)

    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # as in Tier-1
        contract_holds()
    print(f"{args.examples} examples held the exit-code contract "
          f"in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
