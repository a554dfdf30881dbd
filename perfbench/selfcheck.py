"""Self-check of the benchmark: does it count what it should?

    python3 perfbench/selfcheck.py

At toy size, for every workload it checks that

- an untraced and a traced run succeed and print exactly the metrics that
  BENCHMARK.json names;
- a run whose outputs are corrupted after each call counts every call as
  failed;

and then that a call which hangs (``"rtol": NaN`` makes DOP853 loop) is cut
at its timeout and counted as failed, and that ``run.py`` exits non-zero
without a result where the package sources are absent.  Exits 0 when all hold.
Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import workloads

HANG_TIMEOUT_S = 3.0


def _expect(problems: list, cond: bool, message: str):
    print(("ok   " if cond else "FAIL ") + message, flush=True)
    if not cond:
        problems.append(message)


def check_workloads(problems: list, bench: dict):
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    for workload in [w["name"] for w in bench["workloads"]]:
        result = run.run(workload, 1, 0.5, traced=False, scale="toy")
        metrics = run.end_to_end(result)
        _expect(problems, result["failed"] == 0 and result["wall"] != [],
                f"{workload}: toy run passes its output check ({result['failures']})")
        _expect(problems, set(metrics) == e2e, f"{workload}: end-to-end metrics match BENCHMARK.json")
        _expect(problems, all(m["value"] > 0 for m in metrics.values()),
                f"{workload}: no end-to-end metric is 0")

        result = run.run(workload, 1, 0.5, traced=True, scale="toy")
        metrics = run.per_layer(result)
        _expect(problems, result["failed"] == 0 and result["layers"] != [],
                f"{workload}: traced toy run passes ({result['failures']})")
        _expect(problems, set(metrics) == layer, f"{workload}: per-layer metrics match BENCHMARK.json")

        result = run.run(workload, 1, 0.5, traced=False, scale="toy", corrupt=True)
        ok_ratio = run.end_to_end(result)["ok_ratio"]["value"]
        _expect(problems, result["attempted"] > 0 and result["failed"] == result["attempted"],
                f"{workload}: corrupted outputs are all counted as failures "
                f"(ok_ratio {ok_ratio}, {result['failures'][:1]})")


def check_timeout(problems: list):
    run_dir = os.path.join(run.SCRATCH, f"selfcheck-hang-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        doc = workloads.make_config("simulate-dense", 1, "toy")
        doc["solver"]["rtol"] = float("nan")
        config = os.path.join(run_dir, "config.json")
        with open(config, "w") as fh:
            json.dump(doc, fh)
        spec = {
            "src": run.SRC, "workload": "simulate-dense", "config": config,
            "warmup_config": config, "run_dir": run_dir, "seconds": 0.1, "trace": False,
            "run_id_base": 0, "timeout": HANG_TIMEOUT_S, "corrupt": False,
            "result": os.path.join(run_dir, "result.json"),
        }
        result = run.run_worker(spec, run_dir, deadline=float("inf"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    _expect(problems, result["failed"] == result["attempted"] == 2
            and all("timed out" in f for f in result["failures"]),
            f"a hanging call is cut after {HANG_TIMEOUT_S} s and counted as failed "
            f"({result['failures'][:1]})")


def check_without_sources(problems: list):
    bare = os.path.join(run.SCRATCH, f"selfcheck-bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "check-wide", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _expect(problems, proc.returncode != 0 and proc.stdout.strip() == "",
            f"without the package sources run.py exits {proc.returncode} and prints no result")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    check_workloads(problems, bench)
    check_timeout(problems)
    check_without_sources(problems)
    print(f"{len(problems)} problem(s)" if problems else "self-check passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
