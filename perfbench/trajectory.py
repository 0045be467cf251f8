"""Run every workload once untraced and once traced, and record the result.

Usage (from the root of a git checkout)::

    python3 perfbench/trajectory.py [--seed 0] [--out perfbench/results/BENCH_<sha>.json]

Prints every end-to-end metric of every workload with its unit,
including the workload-specific ones (``fail_frac``; ``refuse_s`` and
``moment_err_max`` on ``build_sweep``; ``fig_s``, ``converge_s`` and
``opo_s`` on ``cli_figures``), then writes one JSON file that holds,
per workload, the environment, the end-to-end metrics and every
per-layer metric.  Each file is one point of the performance trajectory
that later changes quote their before and after from.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench_runs", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return {"result": last, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]

    point = {}
    for workload in workloads.WORKLOADS:
        plain = run_one(workload, args.seed, seconds, 0)
        traced = run_one(workload, args.seed, seconds, 1)
        rec = plain["record"]
        point[workload] = {
            "env": rec["env"],
            "correct": plain["result"]["correct"] and traced["result"]["correct"],
            "attempted": plain["result"]["attempted"],
            "failed": plain["result"]["failed"],
            "end_to_end": {**rec["metrics"], **rec["extras"]},
            "per_layer": traced["result"]["metrics"],
            "per_layer_all": traced["record"]["per_layer_all"],
        }
        for name, m in point[workload]["end_to_end"].items():
            print(f"{workload:12s} {name:15s} {m['value']:.6g} {m['unit']}")

    sha = point[workloads.WORKLOADS[0]]["env"].get("git_sha") or "unknown"
    out = args.out or os.path.join(HERE, "results", f"BENCH_{sha[:7]}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(out, ROOT)}")
    return 0 if all(p["correct"] for p in point.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
