"""Command-line front end: simulation, dilation certification, cross-solver
comparison, cutoff-convergence studies and parameter sweeps.

Output files are deterministic: %.17g float formatting, sorted JSON keys,
LF line endings, no timestamps.  Identical configs therefore produce
byte-identical artifacts on one numpy build at one CPU dispatch level, with
one BLAS and ``OPENBLAS_NUM_THREADS`` fixed; the last bits of the computed
numbers differ across dispatch levels (see ``dynamics``).  CSV rows are
formatted _BLOCK_ROWS = 512 at a time by ``csvformat.format_rows``, whose
text is per-entry %.17g byte for byte; below rho's diagonal it copies the
text of each column that repeats its mirror's bits (re) or their negation
(im) on the block instead of formatting it again.

``simulate`` and ``sweep`` run one pipeline over groups of points
(``_simulate_group``), ``simulate`` being a group of one.  Within each
process of a sweep, consecutive points with equal N, K, t_max and points
form groups of as many as fit one propagation chunk (``linalg.CHUNK_ROWS``
rows): one stacked propagation, then one loop over batches of whole points
of at most _BLOCK_ROWS rows, each batch's rho checks and CSV text taken in
one call; a point of more rows is checked and formatted block by block.
Every point still writes, and fails with, exactly what it does alone.

Importing this module loads numpy and the modules ``check`` runs (config,
model, linalg, pseudomode); a command imports ``dynamics``, ``volterra`` and
``csvformat`` when it first runs them.
"""

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import pseudomode
from .config import (
    ConfigError,
    RunConfig,
    apply_override,
    config_to_dict,
    parse_config,
)
from .linalg import CHUNK_ROWS, LinAlgError
from .model import ModelError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_THRESHOLD = 4

class ArgumentError(ConfigError):
    """A command-line option, or the config section a command needs, is
    invalid."""


#: Rows of the density-matrix stack validated and formatted in one call: a
#: block of a point, or a batch of whole points of a group.  On the
#: simulate-dense benchmark (4001 rows, 2-core x86) 512 was 3-7 % faster
#: than 256; 1024 was mixed, 2048 6-13 % slower and 4096 20 % slower.
_BLOCK_ROWS = 512


#: Exception classes a command may raise, with their exit code and message prefix.
_ERROR_CODES = {
    ConfigError: (EXIT_CONFIG, "invalid config"),
    ModelError: (EXIT_CONFIG, "invalid input"),
    LinAlgError: (EXIT_NUMERICAL, "numerical failure"),
    MemoryError: (EXIT_CONFIG, "out of memory"),
    OSError: (EXIT_CONFIG, "file error"),
}
_KNOWN_ERRORS = tuple(_ERROR_CODES)


def _describe_error(exc: Exception) -> tuple[int, str]:
    """Exit code and one-line message for an exception in _KNOWN_ERRORS."""
    code, prefix = next(v for cls, v in _ERROR_CODES.items() if isinstance(exc, cls))
    return code, f"{prefix}: {exc}"


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text file written as ``path + ".tmp"`` and renamed to ``path`` when
    the block ends; if anything raises, the ``.tmp`` file is removed."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, data: str):
    with _atomic_open(path) as fh:
        fh.write(data)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _first_failure(ok: np.ndarray, t: np.ndarray, values: np.ndarray, what: str):
    """Raise LinAlgError at the first t where ``ok`` is false."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise LinAlgError(f"rho at t={float(t[bad[0]])} " + what.format(values[bad[0]]))


#: Largest accepted |rho - rho^dagger| entry, |tr rho - 1| and -min eig(rho).
_RHO_HERMITICITY_TOL = 1e-10
_RHO_TRACE_TOL = 1e-10
_RHO_PSD_TOL = 1e-10


def _validate_rho(t: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check the density-matrix invariants on a (T, N+1, N+1) stack; return
    the trace deviation and the smallest eigenvalue of each row.  NaN entries
    fail the Hermiticity check, so eigvalsh never sees them."""
    asym = np.abs(rho - rho.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    _first_failure(asym <= _RHO_HERMITICITY_TOL, t, asym, "not Hermitian (defect {:.3e})")
    trace_dev = np.abs(np.trace(rho, axis1=1, axis2=2).real - 1.0)
    _first_failure(trace_dev <= _RHO_TRACE_TOL, t, trace_dev, "trace deviates by {:.3e}")
    min_eig = np.linalg.eigvalsh(rho)[:, 0]
    _first_failure(min_eig >= -_RHO_PSD_TOL, t, min_eig, "not PSD (min eigenvalue {:.3e})")
    return trace_dev, min_eig


@functools.cache
def _hermitian_repeats(dim: int) -> tuple:
    """The (j, k) pairs of ``csvformat.format_rows`` for a CSV row of t, a
    Hermitian dim x dim rho as (re, im) pairs and the excited population:
    below the diagonal, re rho_ij repeats re rho_ji and im rho_ij negates
    im rho_ji."""
    col = [[1 + 2 * (dim * i + j) for j in range(dim)] for i in range(dim)]
    return tuple(
        pair
        for i in range(dim)
        for j in range(i)
        for pair in ((col[i][j], col[j][i]), (col[i][j] + 1, ~(col[j][i] + 1)))
    )


def _rows(piece, points: list, psi0: np.ndarray):
    """Yield, for each block of rows and then for each point i of ``points``
    in turn, the CSV text of those rows of point i with their largest trace
    deviation, smallest rho eigenvalue and last excited population; the
    group's stacked trajectory piece is ``piece`` and its ground amplitudes,
    one per point, are ``psi0``, shape (P, 1).  The points share one
    ``observables`` call and, per block of rows, one rho check and one
    ``format_rows`` call.  Raises at the first failure of any of them."""
    from . import dynamics
    from .csvformat import format_rows  # on first use: check and compare write no CSV

    t, count = piece.times, len(points)
    excited, rho = dynamics.observables(piece._replace(vectors=piece.vectors[points]), psi0[points])
    for lo in range(0, len(t), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        rows = len(t[block])
        t_block = np.tile(t[block], count)
        rho_block = rho[:, block].reshape(len(t_block), *rho.shape[2:])
        trace_dev, min_eig = _validate_rho(t_block, rho_block)
        table = np.column_stack(
            (t_block, rho_block.reshape(len(t_block), -1).view(float), excited[:, block].ravel())
        )
        text = format_rows(table, _hermitian_repeats(rho.shape[-1]))
        bounds = [0, len(text)]
        if count > 1:  # cut after every rows-th newline: each row ends in one
            newlines = np.flatnonzero(np.frombuffer(text.encode(), dtype=np.uint8) == 10)
            bounds[1:] = (newlines[rows - 1 :: rows] + 1).tolist()
        for q in range(count):
            rows_q = slice(q * rows, (q + 1) * rows)
            yield (
                text[bounds[q] : bounds[q + 1]],
                float(trace_dev[rows_q].max()),
                float(min_eig[rows_q].min()),
                float(excited[q, lo + rows - 1]),
            )


def _write_point(cfg: RunConfig, out_dir: str, dilation: dict, blocks):
    """Write one point's ``trajectory.csv`` a block of rows at a time, then
    its ``report.json``.  ``blocks`` yields (text, largest trace deviation,
    smallest rho eigenvalue, last excited population) per block; an error it
    raises removes the unfinished CSV and leaves ``out_dir`` empty."""
    levels = range(cfg.system.n + 1)
    rho_cols = [f"rho_{i}_{j}_{part}" for i in levels for j in levels for part in ("re", "im")]
    header = ["t", *rho_cols, "excited_population"]
    os.makedirs(out_dir, exist_ok=True)
    with _atomic_open(os.path.join(out_dir, "trajectory.csv")) as fh:
        fh.write(",".join(header) + "\n")
        summaries = []
        for text, *summary in blocks:
            fh.write(text)
            summaries.append(summary)
    trace_devs, min_eigs, excited = zip(*summaries)

    report = {
        "config": config_to_dict(cfg),
        "dilation": dilation,
        "trajectory": {
            "points": cfg.output_points,
            "final_excited_population": excited[-1],
            "final_ground_population": 1.0 - excited[-1],
            "max_trace_deviation": max(trace_devs),
            "min_rho_eigenvalue": min(min_eigs),
        },
        "tolerances": {
            "rho_hermiticity": _RHO_HERMITICITY_TOL,
            "rho_trace": _RHO_TRACE_TOL,
            "rho_psd": _RHO_PSD_TOL,
        },
    }
    _atomic_write(os.path.join(out_dir, "report.json"), _dump_json(report))


def _simulate_group(group: list) -> list:
    """Run ``simulate`` for each (cfg, out_dir) of a group of points with
    equal N, K, t_max and points; return each point's error, None where it
    succeeded.  Errors outside _KNOWN_ERRORS propagate.

    The group is propagated as one stack, yet each point ends as it ends
    alone, with its own files and its own first error, found in the order:
    grid and propagation, certification (no directory is left), directory
    and CSV file, system norm, rho checks block by block (an empty directory
    is left), the rest of the writes.  A group of several points fits one
    piece (``_run_share``).  Its live points, those that passed
    certification, are taken in batches of whole points of up to
    _BLOCK_ROWS rows that share a ``_rows`` call, and if it fails each point
    runs alone; a point of more rows is a batch of its own.  A group of one
    streams its pieces; only its time axis is held whole."""
    from . import dynamics

    cfg = group[0][0]
    pieces = dynamics.evolve_group(
        [(c.system, c.bath, c.initial) for c, _ in group], cfg.t_max, cfg.output_points
    )
    try:
        first = next(pieces)  # grid and propagation errors come before the dilation check
    except _KNOWN_ERRORS as exc:
        return [exc] * len(group)
    errors, dilations = [], []
    for cfg, _ in group:
        try:
            dilations.append(pseudomode.check_dilation_closed_form(cfg.system, cfg.bath))
            errors.append(None)
        except _KNOWN_ERRORS as exc:
            dilations.append(None)
            errors.append(exc)
    own_pieces = itertools.chain([first], pieces) if len(group) == 1 else [first]
    psi0 = np.array([[cfg.initial.psi0] for cfg, _ in group])
    live = [i for i in range(len(group)) if errors[i] is None]
    step = max(1, _BLOCK_ROWS // len(first.times))
    for lo in range(0, len(live), step):
        batch = live[lo : lo + step]
        shared = None
        if len(batch) > 1:
            with contextlib.suppress(*_KNOWN_ERRORS):
                shared = list(_rows(first, batch, psi0))
        for q, i in enumerate(batch):
            if shared is None:
                blocks = (block for piece in own_pieces for block in _rows(piece, [i], psi0))
            else:
                blocks = shared[q :: len(batch)]
            cfg, out_dir = group[i]
            try:
                _write_point(cfg, out_dir, dilations[i], blocks)
            except _KNOWN_ERRORS as exc:
                errors[i] = exc
    return errors


def cmd_simulate(cfg: RunConfig, args) -> int:
    (error,) = _simulate_group([(cfg, args.out)])
    if error is not None:
        raise error
    return EXIT_OK


def cmd_check(cfg: RunConfig, args) -> int:
    text = _dump_json(pseudomode.check_dilation_closed_form(cfg.system, cfg.bath))
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "dilation.json"), text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_compare(cfg: RunConfig, args) -> int:
    if not 0.0 <= args.threshold < math.inf:
        raise ArgumentError(f"--threshold must be finite and >= 0, got {args.threshold}")
    # certified as by check and simulate, before either route runs
    pseudomode.check_dilation_closed_form(cfg.system, cfg.bath)
    from . import dynamics, volterra

    steps = cfg.oracle_steps
    traj = dynamics.evolve(cfg.system, cfg.bath, cfg.initial, cfg.t_max, steps + 1)
    oracle = volterra.solve_integro_differential(
        cfg.system, cfg.bath, cfg.initial.psi, cfg.t_max, steps, extrapolate=True
    )
    sup, l2 = volterra.deviation_norms(traj, oracle)
    if not (math.isfinite(sup) and math.isfinite(l2)):
        raise LinAlgError(f"route deviation is not finite (sup {sup}, L2 {l2})")
    report = {
        "config": config_to_dict(cfg),
        "comparison": {
            "sup_deviation": sup,
            "l2_deviation": l2,
            "threshold": args.threshold,
            "oracle_steps": steps,
            "oracle_extrapolated": True,
            "oracle_error_estimate": oracle.error_estimate,
        },
    }
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "compare.json"), _dump_json(report))
    sys.stdout.write(_dump_json(report["comparison"]))
    return EXIT_OK if sup <= args.threshold else EXIT_THRESHOLD


def cmd_cutoff_study(cfg: RunConfig, args) -> int:
    if cfg.bath.eta <= 0.0:
        raise ArgumentError("cutoff-study requires an Ohmic bath (eta > 0)")
    if not (math.isfinite(args.t_min) and args.t_min <= cfg.t_max):
        raise ArgumentError(f"--t-min must be finite and <= t_max {cfg.t_max}, got {args.t_min}")
    from . import volterra

    steps = cfg.oracle_steps
    # the family checks every cutoff before its first march, so it runs first
    family = volterra.solve_cutoff_family(
        cfg.system, cfg.bath, args.omegas, cfg.initial.psi, cfg.t_max, steps
    )
    reference = volterra.solve_integro_differential(
        cfg.system, cfg.bath, cfg.initial.psi, cfg.t_max, steps, extrapolate=True
    )
    mask = reference.times >= args.t_min  # the last time is t_max
    from .csvformat import format_rows

    rows = []
    for omega, traj in zip(args.omegas, family):
        diff = np.linalg.norm(traj.states - reference.states, axis=1)
        sup = float(diff[mask].max())
        if not math.isfinite(sup):
            raise LinAlgError(f"deviation at cutoff {omega} is not finite ({sup})")
        rows.append((omega, sup))
    text = "Omega,sup_deviation\n" + format_rows(rows)
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "cutoff_study.csv"), text)
    sys.stdout.write(text)
    return EXIT_OK


def _run_share(share: list) -> list:
    """Exit code and error message (None on success) of each sweep point of
    ``share``, in order.  The points that parse are cut into runs of
    consecutive points with equal N, K, t_max and points, and each run into
    groups whose stacked rows fit one propagation chunk, each simulated as
    one group; a point of more rows than a chunk runs alone."""
    results = [None] * len(share)
    parsed = []
    for j, (text, out_dir) in enumerate(share):
        try:
            parsed.append((j, parse_config(text), out_dir))
        except _KNOWN_ERRORS as exc:
            results[j] = _describe_error(exc)
    runs = itertools.groupby(
        parsed, lambda p: (p[1].system.n, p[1].bath.k, p[1].t_max, p[1].output_points)
    )
    for (*_, points), run in runs:
        run = list(run)
        size = max(1, CHUNK_ROWS // points)
        for lo in range(0, len(run), size):
            group = run[lo : lo + size]
            errors = _simulate_group([(cfg, out_dir) for _, cfg, out_dir in group])
            for (j, _, _), exc in zip(group, errors):
                results[j] = (EXIT_OK, None) if exc is None else _describe_error(exc)
    return results


def _sweep_share(share, conn):
    """Worker process: run a share of the sweep and send back its results."""
    with np.errstate(all="ignore"):  # as in main
        conn.send(_run_share(share))


def _run_sweep(jobs: list, workers: int) -> list:
    """Results of every sweep point, in order.  This process runs the share
    jobs[0::workers]; worker w of workers - 1 child processes runs
    jobs[w::workers] and returns its results over a one-way pipe.  Workers
    are forked where the platform offers it, else spawned."""
    if workers == 1:
        return _run_share(jobs)
    import multiprocessing

    # forked workers inherit scipy.linalg and the modules a point runs; else
    # each imports them on its first point
    import scipy.linalg  # noqa: F401

    from . import csvformat, dynamics  # noqa: F401

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    context = multiprocessing.get_context(method)
    results = [None] * len(jobs)
    started = []
    try:
        for w in range(1, workers):
            recv, send = context.Pipe(duplex=False)
            proc = context.Process(target=_sweep_share, args=(jobs[w::workers], send))
            proc.start()
            send.close()  # then recv sees EOF if the worker dies
            started.append((proc, recv))
        results[0::workers] = _run_share(jobs[0::workers])
        for w, (proc, recv) in enumerate(started, 1):
            try:
                results[w::workers] = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"sweep worker {w} exited with code {proc.exitcode}") from None
    except BaseException:
        for proc, _ in started:
            proc.terminate()
        raise
    finally:
        for proc, recv in started:
            recv.close()
            proc.join()
    return results


def cmd_sweep(cfg: RunConfig, args) -> int:
    if not cfg.sweep:
        raise ArgumentError('sweep requires a non-empty "sweep" section in the config')
    if args.jobs < 1:
        raise ArgumentError(f"--jobs must be >= 1, got {args.jobs}")
    base_doc = config_to_dict(cfg)
    paths = sorted(cfg.sweep.keys())
    value_lists = [cfg.sweep[p] for p in paths]

    jobs = []
    manifest = []
    for index, combo in enumerate(itertools.product(*value_lists)):
        doc = json.loads(json.dumps(base_doc))
        for path, value in zip(paths, combo):
            apply_override(doc, path, value)
        doc.pop("sweep", None)
        point_dir = os.path.join(args.out, f"point_{index:04d}")
        jobs.append((json.dumps(doc), point_dir))
        manifest.append(
            {
                "index": index,
                "dir": f"point_{index:04d}",
                "params": {p: v for p, v in zip(paths, combo)},
            }
        )

    os.makedirs(args.out, exist_ok=True)
    # never more processes than points, nor more workers than usable CPUs
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    results = _run_sweep(jobs, min(args.jobs, len(jobs), cpus + 1))
    exit_code = EXIT_OK
    for entry, (code, error) in zip(manifest, results):
        if error is None:
            entry["status"] = "ok"
            continue
        entry.update(status="error", error=error)
        sys.stderr.write(f"{entry['dir']}: {error}\n")
        exit_code = exit_code or code
    _atomic_write(os.path.join(args.out, "manifest.json"), _dump_json(manifest))
    return exit_code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call (the first ``main``
    call) and then shared by every later one in the process, so callers must
    not change it.  Parsing keeps nothing in it: ``parse_args`` returns a
    fresh namespace each time."""
    parser = argparse.ArgumentParser(
        prog="pseudobath",
        description="Exact non-Markovian reduced dynamics via pseudomode "
        "effective Hamiltonians, with dilation certification and "
        "independent cross-validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="path to a JSON run config")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("simulate", help="run the pseudomode dynamics, emit CSV + report")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("check", help="certify the Markovian-dilation condition")
    add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("compare", help="cross-validate against the direct memory solver")
    add_common(p)
    p.add_argument(
        "--threshold",
        type=float,
        default=1e-6,
        help="nonzero exit if the sup deviation exceeds this",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("cutoff-study", help="finite-cutoff convergence study")
    add_common(p)
    p.add_argument(
        "--omegas", type=float, nargs="+", default=[20.0, 40.0, 80.0],
        help="cutoff frequencies to scan",
    )
    p.add_argument(
        "--t-min", type=float, default=0.5,
        help="start of the deviation window (the cutoff limit holds for t > 0)",
    )
    p.set_defaults(func=cmd_cutoff_study)

    p = sub.add_parser("sweep", help="cartesian parameter sweep of simulate")
    add_common(p)
    p.add_argument("--jobs", type=int, default=1, help="sweep processes, this one included")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    """Run one command; return its exit code.  The parser is built by the
    first call and reused by the later ones, so a process that calls ``main``
    once builds it once, as it always did."""
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "rb") as fh:
            cfg = parse_config(fh.read())
        # numpy's floating-point warnings stay off stderr: a non-finite
        # result fails a check that reports it
        with np.errstate(all="ignore"):
            return args.func(cfg, args)
    except _KNOWN_ERRORS as exc:
        code, message = _describe_error(exc)
        sys.stderr.write(message + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
