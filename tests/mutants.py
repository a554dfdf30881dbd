"""Mutation run: every listed one-line change to ``src`` must fail Tier-1.

    python tests/mutants.py

First the whole of Tier-1 runs once on an unchanged copy of this checkout
(its tracked and untracked, not ignored files), which must pass, so that a
failure of a later run means the mutant was seen.  Then each mutant is
applied to a fresh copy in a temporary directory.  Its killing test file
runs first with ``pytest -x``; only if that file passes does the rest of
Tier-1 run.  Every pytest run is cut after ``TIMEOUT`` seconds.  Prints one
line per mutant and a summary, and exits 0 when every mutant is killed, 1
when one survives or times out, and 2 when the unchanged copy fails or a
mutant's old text does not occur exactly once in its file.  Not collected
by pytest.

R. A. DeMillo, R. J. Lipton & F. G. Sayward, "Hints on test data
selection", Computer 11 (1978) 34.
"""

import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: seconds before one pytest run counts as timed out
TIMEOUT = 300.0

#: (file, old text, new text, what the change breaks, killing test file)
MUTANTS = [
    ("src/pseudobath/pseudomode.py", '"min_eigenvalue_H": min_eig_h', '"min_eigenvalue_H": min_eig_v',
     "the report's min_eigenvalue_H is V's", "tests/test_cli.py"),
    ("src/pseudobath/pseudomode.py", '"E_alpha": e_alpha', '"E_alpha": bmin',
     "a block's E_alpha is its minimum", "tests/test_pseudomode.py"),
    ("src/pseudobath/pseudomode.py", '"psd_tolerance": psd_tolerance', '"psd_tolerance": 0.0',
     "the reported tolerance is 0", "tests/test_pseudomode.py"),
    ("src/pseudobath/pseudomode.py", '"passed": bmin >= -psd_tolerance', '"passed": bmin >= 0.0',
     "the per-block verdict ignores the tolerance", "tests/test_pseudomode.py"),
    ("src/pseudobath/pseudomode.py", "1e-10 * (1.0 + norm)", "1e-9 * (1.0 + norm)",
     "the PSD tolerance of V is ten times wider", "tests/test_pseudomode.py"),
    ("src/pseudobath/pseudomode.py", "p.epsilon - 0.5j * p.gamma", "-p.epsilon - 0.5j * p.gamma",
     "the sign of a peak's detuning in the generator", "tests/test_pseudomode.py"),
    ("src/pseudobath/config.py", "reshape(n, n, 2).tolist()", "reshape(n, n, 2).transpose(1, 0, 2).tolist()",
     "config_to_dict writes the transposed matrix", "tests/test_cli.py"),
    ("src/pseudobath/config.py", "and tokens[-1] not in target:", "and False:",
     "a sweep path's missing last key is set as a new key", "tests/test_cli.py"),
    ("src/pseudobath/csvformat.py", "_HALF_MARGIN = 1e-7", "_HALF_MARGIN = 0.0",
     "no near-tie entry falls back to %", "tests/test_csvformat.py"),
    ("src/pseudobath/csvformat.py", "shift = 8 + j - (j > np.arange(16)[:, None])",
     "shift = 8 + j + 0 * np.arange(16)[:, None]",
     "the digits after an interior point are not shifted", "tests/test_csvformat.py"),
    ("src/pseudobath/csvformat.py", 'out[inner, 8 + u] = ord(".")', 'out[inner, 9 + u] = ord(".")',
     "an interior point is written one byte to the right", "tests/test_csvformat.py"),
    ("src/pseudobath/linalg.py", "HERMITICITY_RTOL = 1e-12", "HERMITICITY_RTOL = 1e-11",
     "a ten times wider Hermiticity tolerance", "tests/test_model.py"),
    ("src/pseudobath/cli.py", "_RHO_PSD_TOL = 1e-10", "_RHO_PSD_TOL = 1e-9",
     "a ten times wider rho PSD tolerance", "tests/test_cli.py"),
    ("src/pseudobath/volterra.py", "h > 0.1 / omega", "h > 0.2 / omega",
     "the cutoff-step guard admits steps twice as coarse", "tests/test_cli.py"),
    ("src/pseudobath/volterra.py", "states=(4.0 * y_half - y) / 3.0,", "states=(4.0 * y_half - y) / 3.0 + 1e-9,",
     "+1e-9 on the Richardson combination", "tests/test_volterra.py"),
    ("src/pseudobath/model.py", "1.0 / (1.0 + 0.5j * eta)", "1.0 / (1.0 + 0.25j * eta)",
     "f = 1/(1 + i eta/4)", "tests/test_pseudomode.py"),
    ("src/pseudobath/model.py", "1.0 / (1.0 + 0.5j * eta)", "1.0 / (1.0 - 0.5j * eta)",
     "f = 1/(1 - i eta/2)", "tests/test_pseudomode.py"),
    ("src/pseudobath/model.py", "bath.eta * bath.cutoff / np.pi", "1.01 * bath.eta * bath.cutoff / np.pi",
     "the counterterm times 1.01", "tests/test_acceptance.py"),
    ("src/pseudobath/model.py", "np.exp(-(p.gamma / 2.0) * np.abs(tt)", "np.exp(-p.gamma * np.abs(tt)",
     "gamma/2 -> gamma in the Lorentz correlation", "tests/test_model.py"),
    ("src/pseudobath/dynamics.py", "_MAX_NORM2 = (1.0 + 1e-9) ** 2", "_MAX_NORM2 = (1.0 + 1e-4) ** 2",
     "the norm bound loosened to (1 + 1e-4)^2", "tests/test_dynamics.py"),
    ("src/pseudobath/dynamics.py", "step = t_max / (points - 1) if", "step = t_max / points if",
     "the step of a grid of points is t_max / points", "tests/test_linalg.py"),
    ("src/pseudobath/volterra.py", "times = np.linspace(0.0, t_max, steps + 1)",
     "times = np.arange(steps + 1) * h",
     "the oracle's last time can fall an ulp short of t_max", "tests/test_cli.py"),
    ("src/pseudobath/linalg.py", "expm(-1j * (CHUNK_ROWS * step) * blocks)",
     "expm(-1j * ((CHUNK_ROWS + 1) * step) * blocks)",
     "an off-by-one in the chunk propagator", "tests/test_linalg.py"),
    ("src/pseudobath/cli.py", "@functools.cache\ndef build_parser", "def build_parser",
     "every main call builds its own parser", "tests/test_cli.py"),
    ("src/pseudobath/cli.py", "(newlines[rows - 1 :: rows] + 1)", "(newlines[rows - 2 :: rows] + 1)",
     "a grouped point's rows are cut one row early", "tests/test_cli.py"),
    ("src/pseudobath/cli.py",
     "    dilation = pseudomode.check_dilation_closed_form(cfg.system, cfg.bath)\n    (error,)",
     "    dilation = None\n    (error,)",
     "simulate skips certification", "tests/test_cli.py"),
    ("src/pseudobath/cli.py",
     "                dilation = pseudomode.check_dilation_closed_form(cfg.system, cfg.bath)\n",
     "                dilation = None\n",
     "a sweep point skips certification", "tests/test_cli.py"),
    ("src/pseudobath/cli.py", "own_rows = itertools.chain([first], pieces)", "own_rows = pieces",
     "a point run alone skips the group's first piece", "tests/test_cli.py"),
    ("src/pseudobath/cli.py", "size = max(1, linalg.CHUNK_ROWS // points)",
     "size = max(2, linalg.CHUNK_ROWS // points)",
     "a group's stacked rows may exceed one propagation chunk", "tests/test_cli.py"),
    ("src/pseudobath/cli.py", '"final_ground_population": 1.0 - excited[-1]',
     '"final_ground_population": 1.0 + excited[-1]',
     "the report's final ground population is 1 + excited", "tests/test_cli.py"),
    ("src/pseudobath/cli.py", "    except BaseException:\n        with contextlib.suppress(OSError):",
     "    except Exception:\n        with contextlib.suppress(OSError):",
     "the writer keeps its .tmp after an interrupt", "tests/test_cli.py"),
    ("src/pseudobath/dynamics.py", "traj.times[bad[0] % len(traj.times)]", "traj.times[bad[0]]",
     "a stacked norm error reads the time at its flat row index", "tests/test_dynamics.py"),
    ("src/pseudobath/dynamics.py", 'raise LinAlgError(\n            f"system norm',
     'raise ValueError(\n            f"system norm',
     "the norm error is a ValueError, which no command maps to an exit code", "tests/test_cli.py"),
    ("src/pseudobath/csvformat.py", "    source[unequal] = unequal\n", "",
     "a column takes the text of its key's first column without the bit check",
     "tests/test_csvformat.py"),
    ("src/pseudobath/csvformat.py", "source = first[key.ravel()]", "source = np.arange(len(key))",
     "no repeated column is found", "tests/test_csvformat.py"),
    ("src/pseudobath/csvformat.py", '        out[:, negated, 0] ^= ord("-")\n', "",
     "a negated column keeps its source's sign", "tests/test_csvformat.py"),
]


def _copy_checkout(dest: pathlib.Path):
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout.decode().split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def _pytest(tree: pathlib.Path, args: list) -> str:
    """'passed', 'failed' or 'timeout' for one pytest run in ``tree``; a run
    past the timeout is killed with every process it started."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *args],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    return "passed" if code == 0 else "failed"


def _run_mutant(path, old, new, killer) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = pathlib.Path(tmp)
        _copy_checkout(tree)
        target = tree / path
        target.write_text(target.read_text().replace(old, new))
        outcome = _pytest(tree, ["-x", killer])
        if outcome == "passed":
            outcome = _pytest(tree, ["-x", "tests", f"--ignore={killer}"])
    return {"failed": "killed", "passed": "survived"}.get(outcome, outcome)


def main() -> int:
    bad = [(path, old) for path, old, *_ in MUTANTS if (ROOT / path).read_text().count(old) != 1]
    for path, old in bad:
        print(f"{path}: {old!r} does not occur exactly once")
    if bad:
        return 2

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        _copy_checkout(pathlib.Path(tmp))
        outcome = _pytest(pathlib.Path(tmp), ["tests"])
    if outcome != "passed":
        print(f"the unchanged checkout does not pass Tier-1 ({outcome})")
        return 2

    counts = {"killed": 0, "survived": 0, "timeout": 0}
    for path, old, new, why, killer in MUTANTS:
        began = time.perf_counter()
        outcome = _run_mutant(path, old, new, killer)
        counts[outcome] += 1
        print(f"{outcome:8} {time.perf_counter() - began:6.1f} s  {path}: {why}", flush=True)
    print(f"{len(MUTANTS)} mutants: {counts['killed']} killed, {counts['survived']} survived, "
          f"{counts['timeout']} timed out in {time.perf_counter() - start:.1f} s")
    return 0 if counts["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
