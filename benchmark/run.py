"""Benchmark of the cartanspaces CLI: cold and warm pass times per workload.

    python3 benchmark/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Workers run one at a time, each a fresh `python3` process
(`worker.py`), so at most two processes are alive.

--trace 0 prints the end-to-end metrics: `setup_s` (import plus first
catalog load, median over every worker), `cold_s` (first pass of a fresh
worker, median over workers), `warm_s` (later passes in the same worker,
median over all of them) and `peak_rss_mb` (median over workers).
--trace 1 runs one untraced and one traced worker and prints the
per-layer metrics from `tracer.py` plus `trace.overhead_s`.

Every sample of every worker, and for --trace 1 the counts and self times
of every wrapped function, go to `benchmark/out/<workload>-<seed>-<trace>.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# Workers per untraced run: enough cold samples for a median, few enough
# that each worker still fits a cold and a warm pass into its share.
WORKERS = {"ladder": 4, "survey": 5, "verify": 8, "reject": 6}
SETUP_PROBES = 5          # extra workers that only import and load
DEADLINE_S = 170.0        # every run ends within this


class WorkerError(RuntimeError):
    pass


def _worker(config: dict, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(config)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {config} ran out of time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {config} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _correct(results: list[dict]) -> bool:
    problems = [p for r in results for p in r["problems"]]
    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    digests = {r["digest"] for r in results}
    if len(digests) > 1:
        print("check failed: workers printed different outputs", file=sys.stderr)
    return not problems and len(digests) == 1


def run_untraced(workload: str, seed: int, seconds: float,
                 deadline: float) -> tuple[dict, list[dict]]:
    start = time.monotonic()
    setups = [_worker({"mode": "setup"}, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    count = WORKERS[workload]
    results = []
    for i in range(count):
        # what is left of the run, shared among the workers still to come
        budget = max(0.0, seconds - (time.monotonic() - start)) / (count - i)
        results.append(_worker({"workload": workload, "seed": seed, "mode": "timed",
                                "budget_s": budget, "deep": i == 0}, deadline))
    setups += [r["setup_s"] for r in results]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "cold_s": (statistics.median(r["cold_s"] for r in results), "s"),
        "warm_s": (statistics.median(t for r in results for t in r["warm_s"]), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB"),
    }
    return _result(results, metrics), results


def run_traced(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict]]:
    plain = _worker({"workload": workload, "seed": seed, "mode": "timed",
                     "budget_s": 0.0, "deep": True}, deadline)
    traced = _worker({"workload": workload, "seed": seed, "mode": "traced",
                      "budget_s": 0.0, "deep": True}, deadline)
    metrics = {name: (value, _unit(name)) for name, value in traced["layers"].items()}
    overhead = (traced["cold_s"] + sum(traced["warm_s"])
                - plain["cold_s"] - sum(plain["warm_s"]))
    metrics["trace.overhead_s"] = (overhead, "s")
    return _result([plain, traced], metrics), [plain, traced]


def _unit(name: str) -> str:
    kind = name.rsplit(".", 1)[1]
    return {"calls": "count", "self_ms": "ms", "cells": "count"}.get(kind, "ratio")


def _result(results: list[dict], metrics: dict) -> dict:
    return {
        "correct": _correct(results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cartanspaces", "__init__.py")):
        print(f"no package source under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result, records = run_traced(args.workload, args.seed, deadline)
        else:
            result, records = run_untraced(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    raw = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{args.trace}.json")
    with open(raw, "w") as fh:
        json.dump({"args": vars(args), "result": result, "workers": records}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
