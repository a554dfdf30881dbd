"""Benchmark of the pseudobath command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It generates the workload's config
from the seed and starts worker processes one after another.  Each one times
the import of ``pseudobath.cli`` plus config parsing (``setup_s``), then calls
``pseudobath.cli.main`` for its share of the S seconds and checks every
output.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

The benchmark's own processes run with one BLAS thread.  Scratch files go to
``.perfbench/`` in the checkout; the span file of the last traced run of each
workload stays there as ``trace-<workload>.json``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")

# Each worker process has its own memory layout (address-space randomization),
# which moves a call's time by up to 20 %.  The samples of several processes
# are pooled so that no single layout sets the median.
WORKER_PROCESSES = 4
INVOCATION_TIMEOUT_S = 20.0
# The whole run, set-up included, must end well inside 180 s.
RUN_DEADLINE_S = 165.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Layer metric that the workload's cost is predicted to sit in.
PREDICTED_DOMINANT = {
    "simulate-dense": "linalg.eigen_s",
    "compare-ohmic": "volterra.march_s",
    "check-wide": "pseudomode.certify_s",
}
TIME_METRICS = ("linalg.eigen_s", "linalg.ode_s", "pseudomode.certify_s",
                "pseudomode.assemble_s", "dynamics.evolve_s", "dynamics.observables_s",
                "volterra.march_s", "volterra.compare_s", "model.kernel_s",
                "config.parse_s", "cli.self_s")
COUNT_METRICS = ("linalg.eigen_calls", "linalg.ode_nfev", "pseudomode.certify_calls",
                 "dynamics.rho_count", "volterra.march_steps", "volterra.history_macs",
                 "trace.spans")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    return env


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, as (p, value)."""
    n = len(samples)
    if n < 11:
        return None
    j = n - 11
    return 100 * (j + 1) // n, sorted(samples)[j]


def _stop_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_worker(spec: dict, run_dir: str, deadline: float) -> dict:
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
        env=child_env(), cwd=ROOT, start_new_session=True,
        stdout=subprocess.DEVNULL,
    )
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # A call stuck where its timeout cannot reach (say, in a sweep's pool
        # worker) still ends as a counted failure, not as a stalled run.
        return {"attempted": 1, "failed": 1, "peak_rss_mb": 0.0, "killed": True,
                "failures": ["worker killed at the run deadline"]}
    finally:
        _stop_group(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(spec["result"]) as fh:
        return json.load(fh)


def _merge(results: list) -> dict:
    merged = {"attempted": 0, "failed": 0, "failures": [], "missing": [], "spans": [],
              "setup": [], "wall": [], "raw_wall": [], "traced_wall": [], "layers": [],
              "bytes_written": [], "peak_rss_mb": max(r["peak_rss_mb"] for r in results)}
    for r in results:
        for key, value in r.items():
            if key in ("attempted", "failed"):
                merged[key] += value
            elif key == "missing":
                merged[key] = sorted(set(merged[key]) | set(value))
            elif isinstance(value, list):
                merged[key].extend(value)
    merged["failures"] = merged["failures"][:5]
    return merged


def run(workload: str, seed: int, seconds: float, traced: bool,
        scale: str = "full", corrupt: bool = False) -> dict:
    """One benchmark run; returns the workers' pooled samples."""
    if not os.path.isfile(os.path.join(SRC, "pseudobath", "cli.py")):
        raise BenchError(f"no pseudobath sources under {SRC}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(SCRATCH, exist_ok=True)
    run_dir = os.path.join(SCRATCH, f"{workload}-seed{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        configs = {}
        for name, size in (("config", scale), ("warmup_config", "toy")):
            configs[name] = os.path.join(run_dir, f"{name}.json")
            with open(configs[name], "w") as fh:
                json.dump(workloads.make_config(workload, seed, size), fh, indent=1)
        results = []
        for k in range(WORKER_PROCESSES):
            # A worker whose calls all hang needs two timeouts; leave it room.
            if k and deadline - time.monotonic() < 2 * INVOCATION_TIMEOUT_S + 5:
                break
            spec = dict(
                configs, src=SRC, workload=workload, run_dir=run_dir,
                seconds=seconds / WORKER_PROCESSES, trace=traced, run_id_base=1000 * k,
                timeout=INVOCATION_TIMEOUT_S, corrupt=corrupt,
                result=os.path.join(run_dir, f"result-{k}.json"),
            )
            results.append(run_worker(spec, run_dir, deadline))
            if results[-1].get("killed"):
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = _merge(results)
    if traced:
        with open(os.path.join(SCRATCH, f"trace-{workload}.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "id", "parent", "run_id"],
                       "spans": result["spans"]}, fh)
    return result


def _median(values):
    return statistics.median(values) if values else 0.0


def _count(values):
    return statistics.median_low(values) if values else 0


def end_to_end(result: dict) -> dict:
    attempted = result["attempted"]
    return {
        "setup_s": {"value": _median([norm for _raw, norm in result["setup"]]), "unit": "s"},
        "wall_s": {"value": _median(result["wall"]), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "ok_ratio": {"value": (attempted - result["failed"]) / attempted, "unit": "ratio"},
    }


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    wall = _median(result["traced_wall"])
    metrics = {}
    for key in TIME_METRICS:
        metrics[key] = {"value": _median([s[key] for s in layers]), "unit": "s"}
    for key in COUNT_METRICS:
        metrics[key] = {"value": _count([s[key] for s in layers]), "unit": "count"}
    metrics["cli.bytes_written"] = {"value": _count(result["bytes_written"]), "unit": "B"}
    for layer in spans.LAYERS:
        self_s = _median([s[f"{layer}.self_s"] for s in layers])
        metrics[f"{layer}.self_s"] = {"value": self_s, "unit": "s"}
        share = _median([s[f"{layer}.self_s"] / s["raw_wall_s"] for s in layers])
        metrics[f"{layer}.share"] = {"value": share, "unit": "ratio"}
    untraced = _median(result["wall"])
    metrics["trace.wall_s"] = {"value": wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": wall - untraced, "unit": "s"}
    return metrics


def dominant_holds(workload: str, layers: list):
    """Whether the predicted layer metric is the largest layer time and takes
    over half of the traced wall time; None where no prediction was made."""
    predicted = PREDICTED_DOMINANT.get(workload)
    if predicted is None:
        return None
    medians = {k: _median([s[k] for s in layers]) for k in TIME_METRICS}
    share = _median([s[predicted] / s["raw_wall_s"] for s in layers])
    return max(medians, key=medians.get) == predicted and share > 0.5


def report_lines(workload: str, seed: int, result: dict, metrics: dict, traced: bool):
    lines = [f"workload {workload}, seed {seed}: {result['attempted']} invocations, "
             f"{result['failed']} failed"]
    lines += [f"  failure: {f}" for f in result["failures"]]
    if result["missing"]:
        lines.append(f"  not traced (absent from the package): {', '.join(result['missing'])}")
    samples = result["traced_wall" if traced else "wall"]
    tail = tail_percentile(samples)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                 else "no percentile has ten samples beyond it")
    lines.append(f"  {'traced ' if traced else ''}wall time: n={len(samples)}, "
                 f"median {_median(samples):.4f} s, {tail_text}")
    if not traced:
        lines.append(f"  before speed normalization: wall median {_median(result['raw_wall']):.4f} s, "
                     f"set-up median {_median([raw for raw, _ in result['setup']]):.4f} s")
    for name, m in metrics.items():
        lines.append(f"  {name:26s} {m['value']:.6g} {m['unit']}")
    if traced:
        holds = dominant_holds(workload, result["layers"])
        if holds is not None:
            lines.append(f"  predicted dominant layer metric {PREDICTED_DOMINANT[workload]}: "
                         f"{'holds' if holds else 'does not hold'}")
        counts = {k: {s[k] for s in result["layers"]} for k in COUNT_METRICS if k != "trace.spans"}
        unstable = [k for k, v in counts.items() if len(v) > 1]
        lines.append("  counts repeat across traced invocations" if not unstable
                     else f"  counts differ across traced invocations: {', '.join(unstable)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    samples = result["traced_wall" if args.trace else "wall"]
    metrics = per_layer(result) if args.trace else end_to_end(result)
    for line in report_lines(args.workload, args.seed, result, metrics, bool(args.trace)):
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0 and bool(samples),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
