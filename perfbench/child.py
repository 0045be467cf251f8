"""One fresh interpreter of the benchmark: a set-up probe, a CLI job, or the sweep.

Usage: ``python3 child.py REQUEST.json RESULT.json``.  The request names
the checkout's ``src`` directory, the mode, and its inputs.  The import
of ``thermalcoherent`` and ``thermalcoherent.cli`` is timed first, before
anything else loads numpy; a CLI job then times ``cli.main`` on its own.
The result holds both times, the process's peak resident memory and,
when traced, the recorded spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time


def _import_package(src: str):
    start = time.perf_counter()
    sys.path.insert(0, src)
    import thermalcoherent
    import thermalcoherent.cli

    setup_s = time.perf_counter() - start
    origin = os.path.realpath(thermalcoherent.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"thermalcoherent was imported from {origin}, not from {src}")
    return thermalcoherent, setup_s


def environment() -> dict:
    """Interpreter, numpy, BLAS and thread settings of this process."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "thread_env": {k: os.environ.get(k) for k in threads},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _tracer(traced: bool):
    if not traced:
        return None
    import tracing

    return tracing.Tracer()


def run_cli(pkg, req: dict) -> dict:
    tracer = _tracer(req["trace"])
    if tracer is not None:
        tracer.install()
    log = io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            with tracer.span("job") if tracer is not None else contextlib.nullcontext():
                code = pkg.cli.main(req["argv"])
        except Exception as exc:  # reported as a failed job
            code, error = None, repr(exc)
        finally:
            main_s = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
    return {
        "main_s": main_s,
        "exit_code": code,
        "error": error,
        "log_tail": log.getvalue()[-2000:],
        "spans": tracer.spans if tracer is not None else None,
    }


def _probes(src: str) -> tuple[list[float], float]:
    """(import times, elapsed time) of fresh set-up probes started from here."""
    import workloads

    start = time.perf_counter()
    times = []
    for i in range(workloads.PROBES_PER_GAP):
        req_path, res_path = f"sweep-probe-req{i}.json", f"sweep-probe-res{i}.json"
        with open(req_path, "w", encoding="utf-8") as fh:
            json.dump({"src": src, "mode": "probe"}, fh)
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), req_path, res_path],
            capture_output=True,
            check=True,
            timeout=60,
        )
        with open(res_path, encoding="utf-8") as fh:
            times.append(json.load(fh)["setup_s"])
    return times, time.perf_counter() - start


def run_sweep(req: dict) -> dict:
    import sweep
    import workloads

    jobs = req["jobs"]
    # one full untimed pass first: in a fresh worker the first pass runs
    # about a third slower while its large arrays get fresh memory pages
    sweep.run_pass(jobs)
    passes, durations, setup = [], [], []
    probe_s = 0.0
    start = time.perf_counter()
    while workloads.another_pass(
        time.perf_counter() - start - probe_s, durations, req["seconds"], 2 if req["trace"] else 1
    ):
        times, spent = _probes(req["src"])
        setup += times
        probe_s += spent
        traced = req["trace"] and len(passes) % 2 == 1
        tracer = _tracer(traced)
        began = time.perf_counter()
        record = sweep.run_pass(jobs, tracer)
        durations.append(time.perf_counter() - began)
        record["traced"] = traced
        record["spans"] = tracer.spans if tracer is not None else None
        record["peak_rss_mb"] = _peak_rss_mb()
        passes.append(record)
    setup += _probes(req["src"])[0]
    return {"passes": passes, "probe_setup_s": setup}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        req = json.load(fh)
    pkg, setup_s = _import_package(req["src"])
    out = {"setup_s": setup_s}
    if req["mode"] == "probe":
        out["env"] = environment()
    elif req["mode"] == "cli":
        out.update(run_cli(pkg, req))
    elif req["mode"] == "sweep":
        out.update(run_sweep(req))
    else:
        raise SystemExit(f"unknown mode {req['mode']!r}")
    out["peak_rss_mb"] = _peak_rss_mb()
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
