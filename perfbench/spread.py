"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py [--workloads W ...] [--seeds 1-10] [--trace 0|1]
                                [--out FILE]

Runs ``run.py`` once per workload and seed, one run at a time, with
``run_seconds`` from BENCHMARK.json.  For each metric it prints the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and their distance
as a share of the median, next to the metric's bound.  The benchmark is
steady when every spread except that of ``setup_s`` is below a third of its
bound.  ``--out FILE`` merges every run's metrics, the summary and the
environment into FILE (JSON) under ``trace0`` or ``trace1``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment() -> dict:
    """Interpreter, library versions and CPU count that the runs used."""
    probe = subprocess.run(
        [sys.executable, "-c", "import json, platform, numpy, scipy; print(json.dumps("
         "{'python': platform.python_version(), 'numpy': numpy.__version__, "
         "'scipy': scipy.__version__}))"],
        env=run.child_env(), capture_output=True, text=True, check=True,
    )
    env = json.loads(probe.stdout)
    env["nproc"] = len(os.sched_getaffinity(0))
    env["blas_threads"] = run.THREAD_ENV
    return env


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values)}


def main(argv=None) -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=run.ROOT, capture_output=True, text=True,
            )
            elapsed = time.monotonic() - start
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            out = json.loads(lines[-1])
            runs.append({"seed": seed, "run_s": elapsed, "correct": out["correct"],
                         "attempted": out["attempted"], "failed": out["failed"],
                         "metrics": {k: v["value"] for k, v in out["metrics"].items()},
                         "notes": [ln.strip() for ln in lines[:-1]
                                   if "wall time" in ln or "predicted" in ln or "counts" in ln]})
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={out['correct']}, "
                  + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            summary[name] = summarize([r["metrics"][name] for r in runs])
            bound = bounds.get(name)
            line = (f"  {workload:15s} {name:24s} median {summary[name]['median']:.6g} "
                    f"spread {summary[name]['spread']:.4f}")
            if bound is not None:
                ok = name == "setup_s" or summary[name]["spread"] < bound / 3
                steady = steady and ok
                line += f" bound {bound} {'ok' if ok else 'TOO WIDE'}"
            print(line, flush=True)
        if not all(r["correct"] for r in runs):
            steady = False
            print(f"  {workload}: some runs were not correct", flush=True)
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc["environment"] = environment()
        doc.setdefault(f"trace{args.trace}", {}).update(record["workloads"])
        doc[f"trace{args.trace}_settings"] = {"run_seconds": record["run_seconds"],
                                             "seeds": record["seeds"]}
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    print("steady" if steady else "not steady")
    return 0 if steady else 2


if __name__ == "__main__":
    sys.exit(main())
