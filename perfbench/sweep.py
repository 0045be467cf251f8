"""The ``build_sweep`` passes, run inside one warm worker interpreter.

Each pass calls the public ``build_state`` once per job and times it;
the output checks run after the timed region.  A build job passes when
its state is normalised, its tail mass (recomputed here) is at most the
requested ``tail_tol``, and its moments match the closed form of
``gaussian_oracle.mode_means``.  A refusal job passes only if it raises
``CutoffError``.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

import thermalcoherent as tc
from thermalcoherent import gaussian_oracle

NORM_TOL = 1e-12
# Moments are quadratic in the amplitudes, and an amplitude error of
# sqrt(tail_tol) is what the discarded mass alone allows.
MOMENT_TOL_FACTOR = 10.0


def _moments(state) -> tuple[complex, float, float]:
    """(<a>, <n>, tail mass) of the ordinary mode, from the amplitudes."""
    d = state.dim_per_mode
    m = state.amplitudes.reshape(d, d)
    pops = np.abs(m) ** 2
    root = np.sqrt(np.arange(1.0, d))
    mean_a = complex(np.vdot(m[:-1, :], root[:, None] * m[1:, :]))
    mean_n = float(np.arange(d) @ pops.sum(axis=1))
    tail = float(pops[d - 2 :, :].sum() + pops[: d - 2, d - 2 :].sum())
    return mean_a, mean_n, tail


def check_build(job: dict, outcome) -> dict:
    """Pass/fail, moment error and its share of the tolerance for one job."""
    if job["refuse"]:
        ok = isinstance(outcome, tc.CutoffError)
        return {"ok": ok, "detail": type(outcome).__name__}
    if isinstance(outcome, BaseException):
        return {"ok": False, "detail": repr(outcome)}
    kind = tc.StateKind[job["kind"]]
    alpha = _alpha(job)
    theta = job["theta"]
    mean_a, mean_n, tail = _moments(outcome)
    exact_a, _ = gaussian_oracle.mode_means(kind, alpha, alpha.conjugate(), theta)
    exact_n = abs(exact_a) ** 2 + math.sinh(theta) ** 2
    err = max(abs(mean_a - exact_a), abs(mean_n - exact_n))
    share = err / (MOMENT_TOL_FACTOR * math.sqrt(job["tail_tol"]))
    norm_err = abs(float(np.linalg.norm(outcome.amplitudes)) - 1.0)
    ok = norm_err <= NORM_TOL and tail <= job["tail_tol"] and share <= 1.0
    return {
        "ok": ok,
        "moment_err": err,
        "err_share": share,
        "detail": f"d={outcome.dim_per_mode} tail={tail:.3e} norm_err={norm_err:.1e}",
    }


def _alpha(job: dict) -> complex:
    return job["alpha_abs"] * complex(math.cos(job["phase"]), math.sin(job["phase"]))


def _build(job: dict):
    alpha = _alpha(job)
    return tc.build_state(
        tc.StateKind[job["kind"]],
        tc.DisplacementParams.invariant(alpha),
        tc.ThermalParams.from_theta(job["theta"]),
        d=job["d"],
        tail_tol=job["tail_tol"],
    )


def run_pass(jobs: list[dict], tracer=None) -> dict:
    """Time one pass over ``jobs``, traced if a tracer is given; then check the outputs.

    The tracer's wrappers are installed for the timed jobs only, so the
    checks leave no spans.
    """
    outcomes, times = [], []
    if tracer is not None:
        tracer.install()
    try:
        for job in jobs:
            start = time.perf_counter()
            try:
                with tracer.span("job") if tracer is not None else contextlib.nullcontext():
                    outcome = _build(job)
            except Exception as exc:  # a failed job is counted, not fatal
                # a kept traceback would pin the failed build's arrays in a
                # reference cycle through this frame
                outcome = exc.with_traceback(None)
            times.append(time.perf_counter() - start)
            outcomes.append(outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
    checks = [check_build(job, out) for job, out in zip(jobs, outcomes)]
    for check, t in zip(checks, times):
        check["time_s"] = t
    return {
        "wall_s": sum(times),
        "refuse_s": sum(t for job, t in zip(jobs, times) if job["refuse"]),
        "checks": checks,
    }
