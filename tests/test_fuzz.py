"""Property test of the exit-code contract: on any mutation of a valid config
the command line returns 0, 2, 3 or 4, with one line on stderr for 2 and 3
(a sweep: one for each failing point), never raises, and leaves only strict
JSON (no NaN or Infinity token)."""

import contextlib
import copy
import io
import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from pseudobath.cli import main

# Numbers that break naive code, and values of the wrong type.  Integer sizes
# stay above the 10**12 cap so that nothing here is ever allocated.
SPECIAL = [
    math.nan, math.inf, -math.inf, 0, 0.0, -1, -0.5, 5e-324, 1e-300, 1e300, -1e300,
    10**12 + 1, 2**63 - 1, 10**400, -(10**400), True, "1", None, [], {}, [1.0], [[0.0, 0.0]],
]


def valid_doc(n: int, k: int) -> dict:
    """A dilatable N-level, K-peak config on small grids."""
    matrix = [[[1.0 + i if i == j else 0.1, 0.05 * (j - i)] for j in range(n)] for i in range(n)]
    peaks = [{"g": 0.3 + 0.1 * j, "gamma": 0.5 + 0.2 * j, "epsilon": 0.1 * j} for j in range(k)]
    psi = [[1.0 / math.sqrt(n + 1), 0.0]] * n
    return {
        "system": {"n": n, "matrix": matrix},
        "bath": {"peaks": peaks, "eta": 0.2},
        "initial": {"psi": psi, "psi0": [1.0 / math.sqrt(n + 1), 0.0]},
        "time": {"t_max": 2.0, "points": 11},
        "solver": {"oracle_steps": 40},
        "sweep": {"time.t_max": [1.0, 2.0]},
    }


def leaf_paths(node, path=()):
    """Paths (tuples of keys and indices) of every value below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from leaf_paths(value, path + (key,))


@st.composite
def mutated_docs(draw):
    doc = valid_doc(draw(st.integers(1, 4)), draw(st.integers(0, 2)))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(leaf_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(SPECIAL)))
    return doc


OPTION_VALUES = st.sampled_from(["nan", "inf", "-1", "0", "1e-6", "0.5", "20"])
ARGVS = st.one_of(
    st.just(["simulate"]),
    st.just(["check"]),
    st.just(["sweep", "--jobs", "1"]),  # one process: the fuzz starts no other
    st.builds(lambda v: ["compare", "--threshold", v], OPTION_VALUES),
    st.builds(
        lambda omega, t_min: ["cutoff-study", "--omegas", omega, "--t-min", t_min],
        OPTION_VALUES, OPTION_VALUES,
    ),
)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def check_exit_contract(doc, argv):
    """Run ``argv`` on the config ``doc`` and assert the exit-code contract;
    every .json file it leaves must parse as strict JSON."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.json")
        with open(config, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--config", config, "--out", out])
        for root, _, names in os.walk(out):
            for name in names:
                if name.endswith(".json"):
                    with open(os.path.join(root, name)) as fh:
                        json.load(fh, parse_constant=_reject_constant)
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        lines = err.getvalue().splitlines(keepends=True)
        assert lines and all(line.endswith("\n") for line in lines)
        # a sweep reports each failing point on a line of its own
        if len(lines) > 1:
            assert argv[0] == "sweep" and all(line.startswith("point_") for line in lines)
    else:
        assert err.getvalue() == ""


@settings(derandomize=True, database=None, max_examples=60, deadline=2000)
@given(doc=mutated_docs(), argv=ARGVS)
def test_every_input_ends_in_a_known_exit_code(doc, argv):
    check_exit_contract(doc, argv)
