"""Benchmark of the thermalcoherent package and its command line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload build_sweep --seed 1 --seconds 35 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``build_sweep``  adaptive ``build_state`` calls and fixed-cutoff
  refusals in one warm worker interpreter;
* ``cli_verify``   ``thermalcoherent verify --seed <seed>`` in a fresh
  interpreter per pass;
* ``cli_figures``  ``fig1``, ``fig2``, ``fig3``, ``converge`` and ``opo``
  at default flags, each in a fresh interpreter.

The load is a closed loop: one job at a time from one process.  Passes
repeat until ``--seconds`` have elapsed and each metric is a median over
passes.  ``--trace 0`` prints the end-to-end metrics listed in
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced passes
and prints the per-layer metrics.  Every job's output is checked outside
the timed region.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a detailed
record, with the environment, goes to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

TIME_LIMIT_S = 170.0
# error shares and moment errors are reported at or above these floors
ERR_SHARE_FLOOR = 1e-9
MOMENT_ERR_FLOOR = 1e-12


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else math.nan


class Runner:
    """Spawns the fresh interpreters of one run and keeps the time limit."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def spawn(self, request: dict) -> dict:
        self.count += 1
        req_path = os.path.join(self.workdir, f"req{self.count}.json")
        res_path = os.path.join(self.workdir, f"res{self.count}.json")
        with open(req_path, "w", encoding="utf-8") as fh:
            json.dump({"src": os.path.join(ROOT, "src"), **request}, fh)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0.0:
            return {"error": "time limit reached before the job started", "timeout": True}
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, req_path, res_path],
                cwd=self.workdir,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            return {"error": "time limit reached", "timeout": True}
        if proc.returncode != 0 or not os.path.exists(res_path):
            return {
                "error": f"child exited with {proc.returncode}: {proc.stderr[-2000:]}",
                "elapsed_s": time.monotonic() - start,
            }
        with open(res_path, encoding="utf-8") as fh:
            return json.load(fh)


def _git_record() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"git_sha": None, "git_dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha or None, "git_dirty": bool(dirty)}


def run_sweep(runner: Runner, seed: int, seconds: int, trace: bool) -> dict:
    jobs = workloads.sweep_jobs(seed)
    res = runner.spawn({"mode": "sweep", "jobs": jobs, "seconds": seconds, "trace": trace})
    if "passes" not in res:
        raise BenchError(f"the sweep worker failed: {res.get('error')}")
    passes = res["passes"]
    for p in passes:
        spans = p.pop("spans")
        p["span_lists"] = [spans] if spans else []
    setup = [res["setup_s"], *res["probe_setup_s"]]
    return {"setup": setup, "passes": passes, "jobs": [j["name"] for j in jobs]}


def _cli_pass(runner: Runner, jobs: list[dict], traced: bool, setup: list[float]) -> dict:
    record = {"traced": traced, "checks": [], "span_lists": [], "times": {}, "timed_out": False}
    rss = []
    for job in jobs:
        res = runner.spawn({"mode": "cli", "argv": job["argv"], "trace": traced})
        if "setup_s" in res:
            setup.append(res["setup_s"])
            rss.append(res["peak_rss_mb"])
        ok, share, detail = workloads.check_cli_job(job["name"], res.get("exit_code"), runner.workdir)
        if res.get("error"):
            detail = f"{detail}; {res['error']}"
        record["checks"].append({"ok": ok, "err_share": share, "detail": detail})
        record["times"][job["name"]] = res.get("main_s", res.get("elapsed_s"))
        if res.get("spans"):
            record["span_lists"].append(res["spans"])
        if res.get("timeout"):
            record["timed_out"] = True
            break
    times = [t for t in record["times"].values() if t is not None]
    record["wall_s"] = sum(times) if len(times) == len(jobs) else None
    record["peak_rss_mb"] = max(rss, default=None)
    return record


def _probes(runner: Runner) -> list[float]:
    """Import times of one gap's fresh set-up probes."""
    probes = [runner.spawn({"mode": "probe"}) for _ in range(workloads.PROBES_PER_GAP)]
    return [p["setup_s"] for p in probes if "setup_s" in p]


def run_cli(runner: Runner, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    jobs = workloads.cli_jobs(workload, seed)
    setup, passes, durations = [], [], []
    probe_s = 0.0
    start = time.monotonic()
    while workloads.another_pass(time.monotonic() - start - probe_s, durations, seconds, 2 if trace else 1):
        probe_start = time.monotonic()
        setup += _probes(runner)
        began = time.monotonic()
        probe_s += began - probe_start
        record = _cli_pass(runner, jobs, trace and len(passes) % 2 == 1, setup)
        passes.append(record)
        durations.append(time.monotonic() - began)
        if record["timed_out"]:
            break
    setup += _probes(runner)
    return {"setup": setup, "passes": passes, "jobs": [j["name"] for j in jobs]}


def end_to_end(workload: str, data: dict, setup: list[float]) -> tuple[dict, dict]:
    """(the gated metrics, the workload-specific extras) of the untraced passes."""
    plain = [p for p in data["passes"] if not p["traced"]]
    checks = [c for p in data["passes"] for c in p["checks"]]
    failed = sum(not c["ok"] for c in checks)
    shares = [
        max((c["err_share"] for c in p["checks"] if c.get("err_share") is not None), default=0.0)
        for p in plain
    ]
    gated = {
        "setup_s": _median(setup),
        "wall_s": _median(p["wall_s"] for p in plain),
        "peak_rss_mb": _median(p["peak_rss_mb"] for p in plain),
        "pass_frac": 1.0 - failed / len(checks),
        "err_share_max": max(_median(shares), ERR_SHARE_FLOOR),
    }
    extras = {"fail_frac": (failed / len(checks), "ratio")}
    if workload == "build_sweep":
        errs = [max((c.get("moment_err", 0.0) for c in p["checks"]), default=0.0) for p in plain]
        extras["refuse_s"] = (_median(p.get("refuse_s") for p in plain), "s")
        extras["moment_err_max"] = (max(_median(errs), MOMENT_ERR_FLOOR), "abs")
    if workload == "cli_figures":
        for key, names in (("fig_s", ("fig1", "fig2", "fig3")), ("converge_s", ("converge",)), ("opo_s", ("opo",))):
            per_pass = [sum(p["times"][n] for n in names) for p in plain if all(p["times"].get(n) for n in names)]
            extras[key] = (_median(per_pass), "s")
    return gated, extras


def per_layer(data: dict) -> dict:
    """Median over traced passes of each per-layer metric, plus the tracing overhead."""
    import tracing

    traced = [p for p in data["passes"] if p["traced"]]
    plain = [p for p in data["passes"] if not p["traced"]]
    summaries = [tracing.summarize(p["span_lists"]) for p in traced]
    keys = sorted({k for s in summaries for k in s})
    out = {k: _median(s.get(k, 0.0) for s in summaries) for k in keys}
    out["trace.overhead_s"] = _median(p["wall_s"] for p in traced) - _median(p["wall_s"] for p in plain)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    deadline = time.monotonic() + TIME_LIMIT_S
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "thermalcoherent", "cli.py")):
        raise BenchError(f"no thermalcoherent sources under {os.path.join(ROOT, 'src')}")
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RUNS_DIR, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(workdir, deadline)

    probe = runner.spawn({"mode": "probe"})
    if "setup_s" not in probe:
        raise BenchError(f"the package does not import: {probe.get('error')}")
    env = {**probe["env"], **_git_record(), "seed": args.seed, "workload": args.workload,
           "seconds": args.seconds, "trace": args.trace}
    if args.workload == "build_sweep":
        data = run_sweep(runner, args.seed, args.seconds, bool(args.trace))
    else:
        data = run_cli(runner, args.workload, args.seed, args.seconds, bool(args.trace))
    setup = [probe["setup_s"], *data["setup"]]

    checks = [c for p in data["passes"] for c in p["checks"]]
    failed = sum(not c["ok"] for c in checks)
    gated, extras = end_to_end(args.workload, data, setup)
    if args.trace:
        layers = per_layer(data)
        wanted = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in wanted}
    else:
        layers = None
        wanted = spec["end_to_end"]
        values = {m["name"]: gated[m["name"]] for m in wanted}
    if not all(math.isfinite(v) for v in values.values()):
        raise BenchError(f"no complete pass within the time limit: {values}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "env": env,
        "metrics": metrics,
        "extras": {k: {"value": v, "unit": u} for k, (v, u) in extras.items()},
        "per_layer_all": layers,
        "setup_samples_s": setup,
        "passes": [
            {k: v for k, v in p.items() if k != "span_lists"} for p in data["passes"]
        ],
        "jobs": data.get("jobs"),
    }
    with open(os.path.join(RUNS_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(os.path.join(RUNS_DIR, f"{tag}-spans.json"), "w", encoding="utf-8") as fh:
            json.dump([p["span_lists"] for p in data["passes"] if p["traced"]], fh)

    print("env " + json.dumps(env, sort_keys=True))
    for c in checks:
        if not c["ok"]:
            print(f"FAILED CHECK: {c['detail']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, (value, unit) in extras.items():
            print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
