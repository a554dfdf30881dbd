"""Check that the command line writes the same files as at a base commit.

    python tests/artifacts_unchanged.py BASE_REF

Extracts ``git archive BASE_REF`` into a temporary directory (the
repository's ``.git`` is only read) and runs ``simulate``, ``check``,
``compare``, ``cutoff-study`` and ``sweep`` on the fixed configs below,
each in a fresh ``python -m pseudobath.cli`` process, once with the base's
``src`` and once with this checkout's.  Every artifact, with each run's
stdout, stderr and exit code, is compared byte for byte.  Prints one line
and exits 0 when the two trees are identical; otherwise lists the files
that differ and exits 1.  Not collected by pytest.
"""

import argparse
import json
import os
import pathlib
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
#: One level, one Lorentz peak, no Ohmic term.
LORENTZ = _config([[[0.5, 0.0]]], [(0.5, 0.4, 0.1)], 0.0, [[0.6, 0.0]], [0.8, 0.0])
#: The Lorentz config over four peak couplings and widths.
SWEEP = dict(LORENTZ, time={"t_max": 2.0, "points": 21},
             sweep={"bath.peaks[0].g": [0.3, 0.6], "bath.peaks[0].gamma": [0.2, 0.9]})


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
    ("check-ohmic", OHMIC, ["check"]),
    ("compare-ohmic", OHMIC, ["compare"]),
    ("compare-lorentz", LORENTZ, ["compare", "--threshold", "1e-15"]),
    ("cutoff-study", OHMIC, ["cutoff-study", "--omegas", "5", "10", "20"]),
    ("cutoff-study-inf", OHMIC, ["cutoff-study", "--omegas", "20", "inf"]),
    ("sweep", SWEEP, ["sweep", "--jobs", "2"]),
    ("check-wide-ints", WIDE, ["check"]),
    ("check-two-defects", TWO_DEFECTS, ["check"]),
]


def run_all(src: pathlib.Path, out: pathlib.Path):
    """Run every entry of RUNS with ``src`` on the path, into ``out/<name>``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1"}
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
            [sys.executable, "-m", "pseudobath.cli", *argv], env=env,
            capture_output=True, timeout=300,
        )
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
        outputs = {}
        for side, src in (("base", base / "src"), ("head", ROOT / "src")):
            run_all(src, tmp / f"out-{side}")
            outputs[side] = tree(tmp / f"out-{side}")

    old, new = outputs["base"], outputs["head"]
    differ = sorted(p for p in old.keys() | new.keys() if old.get(p) != new.get(p))
    for path in differ:
        print(f"differs: {path}" if path in old and path in new
              else f"only in {'base' if path in old else 'head'}: {path}")
    if differ:
        print(f"{len(differ)} of {len(old.keys() | new.keys())} files differ from {args.base_ref}")
        return 1
    print(f"all {len(new)} files of {len(RUNS)} runs identical to {args.base_ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
