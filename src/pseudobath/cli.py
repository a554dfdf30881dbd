"""Command-line front end: simulation, dilation certification, cross-solver
comparison, cutoff-convergence studies and parameter sweeps.

Every file, a streamed CSV too, is written by ``_write_file`` as a ``.tmp``
file renamed into place.  Output files are deterministic: %.17g float
formatting, sorted JSON keys, LF line endings, no timestamps.  Identical
configs therefore produce byte-identical artifacts on one numpy build at one
CPU dispatch level, with one BLAS and ``OPENBLAS_NUM_THREADS`` fixed; the last
bits of the computed numbers differ across dispatch levels (see ``dynamics``).
CSV rows are formatted _BLOCK_ROWS = 512 at a time by ``csvformat.format_rows``,
whose text is per-entry %.17g byte for byte; it finds, on each block, columns
whose bits equal those of an earlier column, or their negation, as rho's below
its diagonal do, and copies their text instead of formatting it again.

Every command certifies before it propagates: an input fails at the first of
certification, grid and propagation, files, norm and rho.  ``simulate`` and
each sweep process run certified points in groups (``_simulate_group``),
``simulate`` a group of one.  A sweep share is read as one stream of
certified points; runs of them with equal N, K, t_max and points are cut into
groups that fit one propagation chunk (``linalg.CHUNK_ROWS`` rows), each
propagated as one stack, then checked and formatted in batches of whole
points of at most _BLOCK_ROWS rows, a point of more rows block by block.
Each point writes, and fails with, exactly what it does alone.

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


def _write_file(directory: str, name: str, chunks):
    """Make ``directory``, write the text ``chunks`` to ``name + ".tmp"`` in it
    and rename that to ``name``.  Every file goes through here; if anything
    raises, an interrupt included, the ``.tmp`` file is removed."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    try:
        with open(path + ".tmp", "w", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(path + ".tmp", path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(path + ".tmp")
        raise


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
        text = format_rows(table)
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
    """Write one point's ``trajectory.csv``, its header and then one block of
    rows at a time, and then its ``report.json``.  ``blocks`` yields (text,
    largest trace deviation, smallest rho eigenvalue, last excited population)
    per block as the CSV is written: an error it raises comes after any
    directory or file error, and leaves ``out_dir`` empty."""
    levels = range(cfg.system.n + 1)
    rho_cols = [f"rho_{i}_{j}_{part}" for i in levels for j in levels for part in ("re", "im")]
    summaries = []

    def csv():
        yield ",".join(["t", *rho_cols, "excited_population"]) + "\n"
        for text, *summary in blocks:
            summaries.append(summary)
            yield text

    _write_file(out_dir, "trajectory.csv", csv())
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
    _write_file(out_dir, "report.json", [_dump_json(report)])


def _simulate_group(group: list) -> list:
    """Run ``simulate`` for each (cfg, out_dir, dilation) of a group of
    certified points with equal N, K, t_max and points; return each point's
    error, None where it succeeded.  Errors outside _KNOWN_ERRORS propagate.

    The group is propagated as one stack, yet each point ends as it ends
    alone, with its own files and its own first error, found in the order:
    grid and propagation (no directory is left), directory and CSV file,
    system norm, rho checks block by block (an empty directory is left), the
    rest of the writes.  ``_run_share`` cuts groups from a stream of
    certified points, so a group is never empty, and one of several points
    fits one piece.  Its points go in batches of whole points of up to
    _BLOCK_ROWS rows that share a ``_rows`` call.  A point of more rows, or
    of a batch whose call fails, runs alone, streaming the group's pieces;
    only its time axis is held whole."""
    from . import dynamics

    cfg = group[0][0]
    pieces = dynamics.evolve_group(
        [(c.system, c.bath, c.initial) for c, _, _ in group], cfg.t_max, cfg.output_points
    )
    try:
        first = next(pieces)
    except _KNOWN_ERRORS as exc:
        return [exc] * len(group)
    errors = [None] * len(group)
    psi0 = np.array([[cfg.initial.psi0] for cfg, _, _ in group])
    step = max(1, _BLOCK_ROWS // len(first.times))
    for lo in range(0, len(group), step):
        batch = range(lo, min(lo + step, len(group)))
        shared = None
        if len(batch) > 1:
            with contextlib.suppress(*_KNOWN_ERRORS):
                shared = list(_rows(first, batch, psi0))
        for q, i in enumerate(batch):
            if shared is None:
                own_rows = itertools.chain([first], pieces)
                blocks = (block for piece in own_rows for block in _rows(piece, [i], psi0))
            else:
                blocks = shared[q :: len(batch)]
            try:
                _write_point(*group[i], blocks)
            except _KNOWN_ERRORS as exc:
                errors[i] = exc
    return errors


def cmd_simulate(cfg: RunConfig, args) -> int:
    dilation = pseudomode.check_dilation_closed_form(cfg.system, cfg.bath)
    (error,) = _simulate_group([(cfg, args.out, dilation)])
    if error is not None:
        raise error
    return EXIT_OK


def cmd_check(cfg: RunConfig, args) -> int:
    text = _dump_json(pseudomode.check_dilation_closed_form(cfg.system, cfg.bath))
    _write_file(args.out, "dilation.json", [text])
    sys.stdout.write(text)
    return EXIT_OK


def cmd_compare(cfg: RunConfig, args) -> int:
    if not 0.0 <= args.threshold < math.inf:
        raise ConfigError(f"--threshold must be finite and >= 0, got {args.threshold}")
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
    _write_file(args.out, "compare.json", [_dump_json(report)])
    sys.stdout.write(_dump_json(report["comparison"]))
    return EXIT_OK if sup <= args.threshold else EXIT_THRESHOLD


def cmd_cutoff_study(cfg: RunConfig, args) -> int:
    if cfg.bath.eta <= 0.0:
        raise ConfigError("cutoff-study requires an Ohmic bath (eta > 0)")
    if not (math.isfinite(args.t_min) and args.t_min <= cfg.t_max):
        raise ConfigError(f"--t-min must be finite and <= t_max {cfg.t_max}, got {args.t_min}")
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
    _write_file(args.out, "cutoff_study.csv", [text])
    sys.stdout.write(text)
    return EXIT_OK


def _run_share(share: list) -> list:
    """Exit code and error message (None on success) of each sweep point of
    ``share``, in order.  The share is read as one stream of certified
    points, each parsed and certified as it is reached (a failure records its
    result there); runs of them with equal N, K, t_max and points are cut
    into groups that fit one propagation chunk, each simulated as one."""
    results = [None] * len(share)

    def certified():
        for j, (text, out_dir) in enumerate(share):
            try:
                cfg = parse_config(text)
                dilation = pseudomode.check_dilation_closed_form(cfg.system, cfg.bath)
            except _KNOWN_ERRORS as exc:
                results[j] = _describe_error(exc)
                continue
            yield j, (cfg, out_dir, dilation)

    def shape(point):
        _, (cfg, _, _) = point
        return cfg.system.n, cfg.bath.k, cfg.t_max, cfg.output_points

    for (*_, points), run in itertools.groupby(certified(), shape):
        size = max(1, CHUNK_ROWS // points)
        while group := dict(itertools.islice(run, size)):  # index in the share: point
            for j, exc in zip(group, _simulate_group(list(group.values()))):
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
        raise ConfigError('sweep requires a non-empty "sweep" section in the config')
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    base_doc = config_to_dict(cfg)
    paths = sorted(cfg.sweep.keys())
    value_lists = [cfg.sweep[p] for p in paths]

    base_text = json.dumps(base_doc)
    jobs = []
    manifest = []
    for index, combo in enumerate(itertools.product(*value_lists)):
        doc = json.loads(base_text)
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
    _write_file(args.out, "manifest.json", [_dump_json(manifest)])
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
