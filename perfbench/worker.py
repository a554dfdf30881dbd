"""The measured process of one benchmark run.

``worker.py SPEC`` first times the import of ``pseudobath.cli`` from the
checkout plus the parsing of the workload's config (one set-up sample, as the
process is fresh).  It then makes one untimed warm-up call of ``main`` on the
workload's toy-size config and calls ``main`` on the full config repeatedly
for the spec's number of seconds.  Every output is checked, the warm-up's too.
With tracing on, traced and untraced calls alternate, so the tracing overhead
is measured in the same process.  It writes its samples, and any spans, to
the spec's result file.

``run.py`` starts it with the BLAS thread count pinned.
"""

import contextlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import time


# The speed of a shared machine drifts by tens of percent within a minute.
# Each timing is therefore rescaled by a calibration loop run right before and
# after it: reported seconds are seconds at the speed at which the loop takes
# CALIBRATION_REFERENCE_S.
CALIBRATION_LOOP = 300_000
CALIBRATION_REFERENCE_S = 0.020


class InvocationTimeout(Exception):
    """An invocation ran past its time limit."""


def calibration_seconds() -> float:
    """Time of a fixed pure-Python loop: a reading of the machine's current speed."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return time.perf_counter() - start


def normalized(seconds: float, before: float, after: float) -> float:
    return seconds * CALIBRATION_REFERENCE_S / (0.5 * (before + after))


def _import_cli(src: str):
    sys.path.insert(0, src)
    from pseudobath import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"pseudobath imported from {cli.__file__}, not from {src}")
    return cli


def timed_setup(src: str, config_path: str):
    """Import the CLI and parse the config; return the module and the raw and
    speed-normalized seconds that took.  Called first in a fresh process."""
    before = calibration_seconds()
    start = time.perf_counter()
    cli = _import_cli(src)
    with open(config_path, "rb") as fh:
        cli.parse_config(fh.read())
    seconds = time.perf_counter() - start
    return cli, [seconds, normalized(seconds, before, calibration_seconds())]


def _on_alarm(signum, frame):
    raise InvocationTimeout()


def _bytes_under(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, files in os.walk(path)
        for name in files
    )


def invoke(cli, argv, out_dir: str, timeout: float):
    """One call of ``cli.main``: (seconds, exit code or None, error or None)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    sink = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        error = None if code == 0 else f"exit code {code}: {sink.getvalue().strip()[-200:]}"
    except InvocationTimeout:
        code, error = None, f"timed out after {timeout} s"
    except (Exception, SystemExit) as exc:
        code, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, code, error


def measure(spec: dict) -> dict:
    cli, setup = timed_setup(spec["src"], spec["config"])
    # The benchmark's own modules load only after the set-up sample is taken.
    import spans
    import workloads

    workload = spec["workload"]
    out_dir = os.path.join(spec["run_dir"], "out")
    tracer = spans.Tracer(spec["run_dir"]) if spec["trace"] else None
    if tracer is not None:
        tracer.run_id = spec["run_id_base"]
    missing = []
    signal.signal(signal.SIGALRM, _on_alarm)

    result = {"attempted": 0, "failed": 0, "failures": [], "setup": [setup], "wall": [],
              "raw_wall": [], "traced_wall": [], "layers": [], "bytes_written": [],
              "missing": missing}

    def run_once(config_path: str, traced: bool, timed: bool):
        with open(config_path) as fh:
            doc = json.load(fh)
        ref = workloads.reference(workload, doc)
        argv = workloads.cli_args(workload, config_path, out_dir)
        if traced:
            tracer.run_id += 1
            missing[:] = tracer.install()
        before = calibration_seconds()
        try:
            seconds, code, error = invoke(cli, argv, out_dir, spec["timeout"])
        finally:
            if traced:
                tracer.uninstall()
        after = calibration_seconds()
        if traced:
            tracer.collect_children()
        if error is None:
            try:
                if spec["corrupt"]:
                    workloads.corrupt(workload, out_dir)
                workloads.check(workload, doc, out_dir, code, ref)
            except (workloads.CheckFailed, OSError, KeyError, TypeError, ValueError) as exc:
                error = f"output check: {exc}"
        result["attempted"] += 1
        if error is not None:
            result["failed"] += 1
            if len(result["failures"]) < 5:
                result["failures"].append(error)
            return
        if timed:
            result["traced_wall" if traced else "wall"].append(normalized(seconds, before, after))
            if not traced:
                result["raw_wall"].append(seconds)
            result["bytes_written"].append(_bytes_under(out_dir))
            if traced:
                summary = spans.summarize(tracer.spans, tracer.counts, tracer.run_id)
                summary["raw_wall_s"] = seconds
                result["layers"].append(summary)

    # The warm-up runs the same command on the toy-size config: it finishes
    # lazy imports and first-call set-up at a fraction of a full call's cost.
    run_once(spec["warmup_config"], traced=False, timed=False)
    start = time.monotonic()
    i = 0
    # At least one sample of each kind, even when one call outlasts the window.
    while time.monotonic() - start < spec["seconds"] or i < (2 if tracer else 1):
        run_once(spec["config"], traced=tracer is not None and i % 2 == 1, timed=True)
        i += 1
    shutil.rmtree(out_dir, ignore_errors=True)

    result["spans"] = tracer.spans if tracer is not None else []
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_mb"] = peak_kib / 1024.0
    return result


def main(argv) -> int:
    with open(argv[0]) as fh:
        spec = json.load(fh)
    result = measure(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
