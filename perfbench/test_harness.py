"""Self-tests of the benchmark harness.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``
(under a minute; one test runs ``verify --sabotage``).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import run  # noqa: E402
import sweep  # noqa: E402
import thermalcoherent as tc  # noqa: E402
import thermalcoherent.cli  # noqa: E402,F401
import tracing  # noqa: E402
import workloads  # noqa: E402


def _small_jobs():
    jobs = workloads.sweep_jobs(seed=3)
    small = [j for j in jobs if j["theta"] == 0.3 and j["tail_tol"] == 1e-8]
    refuse = [j for j in jobs if j["refuse"] and j["theta"] == 1.2 and j["d"] == 40]
    return small + refuse


def test_self_times_sum_to_traced_wall():
    tracer = tracing.Tracer()
    record = sweep.run_pass(_small_jobs(), tracer)
    assert tracing.installed_wrappers() == []
    spans = tracer.spans
    roots = [s for s in spans if s[3] == -1]
    assert len(roots) == len(_small_jobs())
    root_total = sum(end - start for _, start, end, _, _ in roots)
    assert math.isclose(sum(tracing.self_times(spans)), root_total, rel_tol=1e-9, abs_tol=1e-12)
    # the pass times each job just outside its root span
    assert root_total <= record["wall_s"] <= root_total + 1e-3 + 0.01 * root_total
    # the nested kernel calls were seen under the builds
    names = {s[0] for s in spans}
    assert {"tfd_states.build_state", "tfd_states.apply_exp_generator"} <= names
    summary = tracing.summarize([spans])
    assert summary["tfd_states.build_state.calls"] == len(_small_jobs())
    refused = [s for s in spans if s[0] == "tfd_states.build_state" and (s[4] or {}).get("error")]
    assert [s[4]["error"] for s in refused] == ["CutoffError"]


def test_wrappers_cover_by_name_imports_and_are_removed():
    originals = {label: fn for label, _, _, fn in tracing.discover()}
    tracer = tracing.Tracer()
    count = tracer.install()
    try:
        bound = set(tracing.installed_wrappers())
        assert count == len(bound)
        for name in (
            "thermalcoherent.tfd_states.apply_exp_generator",
            "thermalcoherent.quasiprob.apply_exp_generator",
            "thermalcoherent.opo.apply_exp_generator",
            "thermalcoherent.cli.build_state",
            "thermalcoherent.verification.build_state",
            "thermalcoherent.build_state",
            "thermalcoherent.verification._check_wigner",
            "thermalcoherent.cli.cmd_opo",
            "thermalcoherent.quasiprob.GaussianQP.evaluate",
        ):
            assert name in bound
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []
    assert tc.tfd_states.apply_exp_generator is originals["tfd_states.apply_exp_generator"]
    assert tc.quasiprob.GaussianQP.evaluate is originals["quasiprob.GaussianQP.evaluate"]
    assert tc.cli.cmd_fig1 is originals["cli.fig1"]


def test_untraced_run_installs_no_wrapper(monkeypatch, tmp_path):
    seen = []
    build = sweep._build
    main = tc.cli.main

    def spy_build(job):
        seen.append(tracing.installed_wrappers())
        return build(job)

    def spy_main(argv):
        seen.append(tracing.installed_wrappers())
        return main(argv)

    monkeypatch.setattr(sweep, "_build", spy_build)
    monkeypatch.setattr(tc.cli, "main", spy_main)
    monkeypatch.chdir(tmp_path)
    src = os.path.join(ROOT, "src")
    out = child.run_sweep({"src": src, "jobs": _small_jobs(), "seconds": 0, "trace": False})
    assert len(out["probe_setup_s"]) == 2 * workloads.PROBES_PER_GAP
    out = child.run_cli(tc, {"argv": ["fig1"], "trace": False})
    assert out["exit_code"] == 0 and out["spans"] is None
    assert seen and all(hits == [] for hits in seen)


def test_refusal_that_returns_a_state_fails():
    job = next(j for j in workloads.sweep_jobs(seed=0) if j["refuse"])
    state = tc.build_state(
        tc.StateKind.TROTTER,
        tc.DisplacementParams.invariant(0.8),
        tc.ThermalParams.from_theta(job["theta"]),
        tail_tol=job["tail_tol"],
    )
    assert not sweep.check_build(job, state)["ok"]
    assert sweep.check_build(job, tc.CutoffError("refused"))["ok"]
    assert not sweep.check_build(job, ValueError("other"))["ok"]


def test_wrong_state_fails_the_moment_check():
    job = next(j for j in workloads.sweep_jobs(seed=0) if j["kind"] == "ROUND" and j["theta"] == 0.7)
    wrong = tc.build_state(
        tc.StateKind.DOUBLE,
        tc.DisplacementParams.invariant(sweep._alpha(job)),
        tc.ThermalParams.from_theta(job["theta"]),
        tail_tol=job["tail_tol"],
    )
    check = sweep.check_build(job, wrong)
    assert not check["ok"] and check["err_share"] > 1.0


def test_sabotaged_verify_gives_nonzero_fail_frac(monkeypatch, tmp_path):
    monkeypatch.setattr(
        workloads, "cli_jobs", lambda workload, seed: [{"name": "verify", "argv": ["verify", "--sabotage"]}]
    )
    runner = run.Runner(str(tmp_path), time.monotonic() + 170.0)
    data = run.run_cli(runner, "cli_verify", 0, 0, False)
    gated, extras = run.end_to_end("cli_verify", data, [0.1])
    assert extras["fail_frac"][0] > 0.0
    assert gated["pass_frac"] < 1.0
    # the sabotaged check's error is still read from verify.json
    assert 1.0 < gated["err_share_max"] < math.inf


def test_checkout_without_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "results"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "cli_figures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("seed", [0, 7])
def test_seed_sets_only_phases(seed):
    jobs = workloads.sweep_jobs(seed)
    assert jobs == workloads.sweep_jobs(seed)
    base = workloads.sweep_jobs(seed + 1)
    strip = lambda js: [{k: v for k, v in j.items() if k != "phase"} for j in js]  # noqa: E731
    assert strip(jobs) == strip(base)
    assert [j["phase"] for j in jobs] != [j["phase"] for j in base]
