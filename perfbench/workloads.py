"""Workload definitions and the checks of the CLI jobs' output files.

The seed sets only the displacement phases of ``build_sweep`` and the
``--seed`` of ``verify``; rotation symmetry makes the phases
cost-neutral, so every seed asks for the same amount of work.
``cli_figures`` runs each subcommand at its default flags.  Standard
library only: the parent process never imports numpy.
"""

from __future__ import annotations

import json
import math
import os
import random

ALPHA_ABS = 0.8
SWEEP_KINDS = ("ROUND", "DOUBLE", "TROTTER")
SWEEP_THETAS = (0.3, 0.7, 1.2)
SWEEP_TOLS = (1e-8, 1e-12)
# the largest adaptive build (TROTTER chooses d=204 here)
LARGE_BUILD = ("TROTTER", 1.8, 1e-8)
# fixed cutoffs too small for the tolerance: each must raise CutoffError
REFUSALS = ((1.2, 40, 1e-8), (1.8, 100, 1e-8), (1.2, 76, 1e-12))

# default point counts of the figure subcommands
FIG_ROWS = {"fig1": 200, "fig2": 40001, "fig3": 40001}
SLOPE_TOL = 0.05
OPO_REL_TOL = 1e-6

WORKLOADS = ("build_sweep", "cli_verify", "cli_figures")
# set-up probes before each timed pass and after the last one: import
# time drifts with the machine's load, so its samples span the run as
# the passes do
PROBES_PER_GAP = 4


def another_pass(elapsed: float, durations: list[float], seconds: float, min_passes: int) -> bool:
    """Whether one more pass, as long as the longest so far, fits in ``seconds``."""
    if len(durations) < min_passes:
        return True
    return elapsed + max(durations) <= seconds


def sweep_jobs(seed: int) -> list[dict]:
    """The build jobs of one ``build_sweep`` pass, phases drawn from ``seed``."""
    rng = random.Random(seed)
    specs = [
        (kind, theta, tol, None)
        for kind in SWEEP_KINDS
        for theta in SWEEP_THETAS
        for tol in SWEEP_TOLS
    ]
    specs.append((*LARGE_BUILD, None))
    specs.extend(("TROTTER", theta, tol, d) for theta, d, tol in REFUSALS)
    return [
        {
            "name": f"{kind}-t{theta}-tol{tol:g}" + (f"-d{d}" if d else ""),
            "kind": kind,
            "theta": theta,
            "tail_tol": tol,
            "d": d,
            "refuse": d is not None,
            "alpha_abs": ALPHA_ABS,
            "phase": rng.uniform(0.0, 2.0 * math.pi),
        }
        for kind, theta, tol, d in specs
    ]


def cli_jobs(workload: str, seed: int) -> list[dict]:
    """The CLI jobs of one pass; each runs in a fresh interpreter."""
    if workload == "cli_verify":
        return [{"name": "verify", "argv": ["verify", "--seed", str(seed)]}]
    if workload == "cli_figures":
        return [{"name": name, "argv": [name]} for name in ("fig1", "fig2", "fig3", "converge", "opo")]
    raise ValueError(f"not a CLI workload: {workload!r}")


def _data_rows(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [ln for ln in lines[1:] if ln and not ln.startswith("#")]


def check_cli_job(name: str, exit_code, workdir: str) -> tuple[bool, float | None, str]:
    """(passed, worst error as a share of its tolerance, detail) of one CLI job.

    Reads the files the subcommand wrote at its default output paths in
    ``workdir``.  The share is None when the job left nothing to measure.
    """
    ok, share, detail = _check_outputs(name, workdir)
    if exit_code != 0:
        return False, share, f"exit code {exit_code}; {detail}"
    return ok, share, detail


def _check_outputs(name: str, workdir: str) -> tuple[bool, float | None, str]:
    try:
        if name == "verify":
            with open(os.path.join(workdir, "verify.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            errors = [c["max_error"] for c in summary["checks"]]
            if not errors or None in errors:
                return False, None, "a verify check could not be evaluated"
            share = max(e / c["tolerance"] for e, c in zip(errors, summary["checks"]))
            return summary["all_passed"] is True and share <= 1.0, share, f"all_passed={summary['all_passed']}"
        if name in FIG_ROWS:
            rows = _data_rows(os.path.join(workdir, f"{name}.csv"))
            ok = len(rows) == FIG_ROWS[name] and all(
                math.isfinite(float(v)) for v in rows[-1].split(",")
            )
            return ok, None, f"{len(rows)} rows, expected {FIG_ROWS[name]}"
        if name == "converge":
            with open(os.path.join(workdir, "converge.csv"), encoding="utf-8") as fh:
                tag = [ln for ln in fh.read().splitlines() if ln.startswith("# fitted_slope=")]
            slope = float(tag[-1].split("=", 1)[1])
            share = abs(slope + 1.0) / SLOPE_TOL
            return share <= 1.0, share, f"slope {slope:.6g}"
        if name == "opo":
            with open(os.path.join(workdir, "opo.json"), encoding="utf-8") as fh:
                m = json.load(fh)
            share = max(
                abs(m[key] - m[f"{key}_expected"]) / (OPO_REL_TOL * max(1.0, abs(m[f"{key}_expected"])))
                for key in ("mean_photon", "purity")
            )
            return share <= 1.0, share, f"mean_photon {m['mean_photon']:.12g}"
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return False, None, f"unreadable output: {exc!r}"
    raise ValueError(f"no check for job {name!r}")
