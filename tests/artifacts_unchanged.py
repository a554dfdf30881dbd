"""Check that the command line writes the same files as at a base commit.

    python tests/artifacts_unchanged.py BASE_REF

Extracts ``git archive BASE_REF`` into a temporary directory (the
repository's ``.git`` is only read) and runs ``simulate``, ``check``,
``compare``, ``cutoff-study`` and ``sweep`` on the fixed configs below,
each in a fresh process that runs ``pseudobath.cli`` as ``python -m`` does,
once with the base's ``src`` and once with this checkout's.  Every
artifact, with each run's stdout, stderr and exit code, is compared byte for
byte.

The last bits of the numbers depend on numpy's CPU dispatch, so both trees
run on two dispatch paths: the native one, and the baseline one, with every
group of numpy's ``__cpu_dispatch__`` that this CPU offers switched off by
``NPY_DISABLE_CPU_FEATURES``.  Each process first checks that numpy reports
those groups off.  Base is compared with head within each path, never across
paths.  Prints one line and exits 0 when the two trees are identical on both
paths; otherwise lists the files that differ and exits 1.  Not collected by
pytest.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _config(matrix, peaks, eta, psi, psi0):
    return {
        "system": {"n": len(matrix), "matrix": matrix},
        "bath": {"peaks": [dict(zip(("g", "gamma", "epsilon"), p)) for p in peaks], "eta": eta},
        "initial": {"psi": psi, "psi0": psi0},
        "time": {"t_max": 5.0, "points": 201},
        "solver": {"oracle_steps": 2000},
    }


#: Two levels, two peaks, an Ohmic term above the dilation threshold.
OHMIC = _config(
    [[[1.0, 0.0], [0.1, -0.05]], [[0.1, 0.05], [1.3, 0.0]]],
    [(0.4, 0.8, 0.1), (0.3, 0.6, -0.2)], 0.5,
    [[0.6, 0.0], [0.0, 0.5]], [0.6244997998398398, 0.0],
)
#: The Ohmic config on a grid that prints t >= 10, where the decimal point
#: falls among the digits, and that crosses ``linalg.CHUNK_ROWS`` = 4096 rows.
LONG = dict(OHMIC, time={"t_max": 20.0, "points": 5001})
#: Three levels coupled in pairs by complex entries, on a grid of three rho
#: blocks, so that rho has entries below its diagonal with i, j >= 1.
THREE_LEVELS = dict(
    OHMIC,
    system={"n": 3, "matrix": [[[1.0, 0.0], [0.1, 0.05], [0.1, 0.1]],
                               [[0.1, -0.05], [1.3, 0.0], [0.1, 0.05]],
                               [[0.1, -0.1], [0.1, -0.05], [1.6, 0.0]]]},
    initial={"psi": [[0.3, 0.1], [0.3, 0.2], [0.3, 0.3]], "psi0": [0.7681145747868608, 0.0]},
    time={"t_max": 12.0, "points": 1201},
)
#: One level, one Lorentz peak, no Ohmic term.
LORENTZ = _config([[[0.5, 0.0]]], [(0.5, 0.4, 0.1)], 0.0, [[0.6, 0.0]], [0.8, 0.0])
#: The Lorentz config over four peak couplings and widths.
SWEEP = dict(LORENTZ, time={"t_max": 2.0, "points": 21},
             sweep={"bath.peaks[0].g": [0.3, 0.6], "bath.peaks[0].gamma": [0.2, 0.9]})
#: The sweep on a grid of 601 points, more than one rho block each, that fit
#: one propagation chunk together.
SWEEP_601 = dict(SWEEP, time={"t_max": 6.0, "points": 601})

#: The Lorentz config with H = -0.5 over seven baths: two that pass, one with
#: a negative width, one whose dilation threshold overflows, one that fails the
#: PSD check, one whose system norm exceeds 1 and one more that passes, each
#: at 201, 101 and 201 points, so that points of one process's share group in
#: several ways and fail at every stage.
FAILING_SWEEP = dict(
    LORENTZ, system={"n": 1, "matrix": [[[-0.5, 0.0]]]},
    sweep={
        "bath": [
            {"peaks": [{"g": g, "gamma": gamma, "epsilon": eps}], "eta": eta}
            for g, gamma, eps, eta in [
                (0.5, 0.4, 0.1, 0.0), (0.3, 0.9, -0.2, 0.0), (0.5, -1.0, 0.1, 0.0),
                (1e150, 0.4, 0.1, 1e10), (0.5, 0.4, 0.1, 0.5), (0.5, 0.4, 0.1, 2.0),
                (0.4, 0.6, 0.0, 0.0),
            ]
        ],
        "time.points": [201, 101, 201],
    },
)


def _wide_matrix(n):
    """A Hermitian n-level H with integer, float and signed-zero parts."""
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = [40 + i, -0.0]
        for j in range(i + 1, n):
            re, im = ((i + j) % 3 - 1, 0.01 * (j - i)) if (i + j) % 2 else (-0.0, 0)
            rows[i][j], rows[j][i] = [re, im], [re, -im]
    return rows


#: 24 levels, three peaks, an Ohmic term.
WIDE = _config(
    _wide_matrix(24), [(0.4, 0.8, 0.1), (0.3, 0.6, -0.2), (0.35, 0.7, 0.0)], 0.5,
    [[0.6, 0.0]] + [[0, -0.0]] * 23, [0.8, 0.0],
)
#: Two defects: a ``true`` entry in row 0 and a short row 2; the first one is reported.
TWO_DEFECTS = _config(
    [[[1.0, 0.0], [True, 0.0], [0, 0]], [[0, 0], [1.0, 0.0], [0, 0]], [[0, 0], [0, 0]]],
    [(0.5, 0.4, 0.1)], 0.0, [[0.6, 0.0], [0, 0], [0, 0]], [0.8, 0.0],
)

#: (name, config, command line after ``--config``/``--out``)
RUNS = [
    ("simulate-ohmic", OHMIC, ["simulate"]),
    ("simulate-long", LONG, ["simulate"]),
    ("simulate-lorentz", LORENTZ, ["simulate"]),
    ("simulate-three-levels", THREE_LEVELS, ["simulate"]),
    ("check-ohmic", OHMIC, ["check"]),
    ("compare-ohmic", OHMIC, ["compare"]),
    ("compare-lorentz", LORENTZ, ["compare", "--threshold", "1e-15"]),
    ("cutoff-study", OHMIC, ["cutoff-study", "--omegas", "5", "10", "20"]),
    ("cutoff-study-inf", OHMIC, ["cutoff-study", "--omegas", "20", "inf"]),
    ("sweep", SWEEP, ["sweep", "--jobs", "2"]),
    ("sweep-601-rows", SWEEP_601, ["sweep", "--jobs", "1"]),
    ("sweep-failing", FAILING_SWEEP, ["sweep", "--jobs", "3"]),
    ("check-wide-ints", WIDE, ["check"]),
    ("check-two-defects", TWO_DEFECTS, ["check"]),
]


#: Exit code of a run whose numpy does not report the disabled groups off.
DISPATCH_MISMATCH = 99

#: Checks that the groups named by argv[1] are off, then runs the command line.
_RUN_CLI = f"""
import runpy, sys
from numpy._core._multiarray_umath import __cpu_features__
on = [g for g in sys.argv.pop(1).split() if __cpu_features__[g]]
if on:
    sys.stderr.write(f"numpy dispatch groups not disabled: {{on}}\\n")
    sys.exit({DISPATCH_MISMATCH})
runpy.run_module("pseudobath.cli", run_name="__main__", alter_sys=True)
"""


#: This environment on numpy's native dispatch path.
NATIVE_ENV = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}


def dispatch_groups() -> str:
    """The groups of numpy's ``__cpu_dispatch__`` that this CPU offers."""
    code = ("from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__; "
            "print(' '.join(g for g in __cpu_dispatch__ if __cpu_features__[g]))")
    return subprocess.run([sys.executable, "-c", code], env=NATIVE_ENV, capture_output=True,
                          text=True, check=True).stdout.strip()


def run_all(src: pathlib.Path, out: pathlib.Path, disabled: str = ""):
    """Run every entry of RUNS with ``src`` on the path, into ``out/<name>``,
    with the numpy dispatch groups ``disabled`` (space-separated) off."""
    env = {**NATIVE_ENV, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1"}
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    where = subprocess.run(
        [sys.executable, "-c", "import pseudobath; print(pseudobath.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not pathlib.Path(where).is_relative_to(src):
        raise SystemExit(f"pseudobath imports from {where}, not from {src}")
    for name, doc, command in RUNS:
        run_dir = out / name
        run_dir.mkdir(parents=True)
        config = out / f"{name}.json"
        config.write_text(json.dumps(doc))
        argv = [*command[:1], "--config", str(config), "--out", str(run_dir), *command[1:]]
        result = subprocess.run(
            [sys.executable, "-c", _RUN_CLI, disabled, *argv], env=env,
            capture_output=True, timeout=300,
        )
        if result.returncode == DISPATCH_MISMATCH:
            raise SystemExit(f"{name}: {result.stderr.decode().strip()}")
        # the paths in messages name this tree's output directory
        for stream, data in (("stdout", result.stdout), ("stderr", result.stderr)):
            (run_dir / stream).write_bytes(data.replace(bytes(out), b"<out>"))
        (run_dir / "exit_code").write_text(f"{result.returncode}\n")


def tree(root: pathlib.Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare CLI artifacts with a base commit.")
    parser.add_argument("base_ref", help="commit, branch or tag to compare against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        base = tmp / "base"
        base.mkdir()
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", args.base_ref],
            capture_output=True, check=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        groups = dispatch_groups()
        paths = {"native": ""}
        if groups:
            paths[f"{groups} off"] = groups
        failed = False
        for label, disabled in paths.items():
            outputs = {}
            for side, src in (("base", base / "src"), ("head", ROOT / "src")):
                run_all(src, tmp / f"out-{side}", disabled)
                outputs[side] = tree(tmp / f"out-{side}")
                shutil.rmtree(tmp / f"out-{side}")
            old, new = outputs["base"], outputs["head"]
            differ = sorted(p for p in old.keys() | new.keys() if old.get(p) != new.get(p))
            for path in differ:
                print(f"{label}: differs: {path}" if path in old and path in new
                      else f"{label}: only in {'base' if path in old else 'head'}: {path}")
            total = len(old.keys() | new.keys())
            print(f"{label}: {len(differ)} of {total} files differ from {args.base_ref}"
                  if differ else
                  f"{label}: all {total} files of {len(RUNS)} runs identical to {args.base_ref}")
            failed = failed or bool(differ)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
