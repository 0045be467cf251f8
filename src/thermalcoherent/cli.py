"""Command line front end: figure data, convergence studies, verification.

Subcommands
-----------
fig1      mean-position amplification factors of the three kinds vs theta
fig2      P density of the combined-exponential state along the real axis
fig3      P densities of all three kinds on one axis
converge  finite-slice vs closed-form state distance as slices increase
verify    the full property-check registry, JSON summary + exit code
opo       parametric-oscillator demo: distances, purity, signal Q grid

All numeric output is CSV (comma separated, header row, 17 significant
digits, LF endings) or JSON (sorted keys, two-space indent).  Exit
codes: 0 success, 1 property failure, 2 bad arguments, 3 I/O failure,
4 cutoff overflow.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .equivalence import mode_means, phase_aligned_distance
from .fockspace import CutoffError
from .observables import PhysicalConstants, mean_amplitude_factor
from .opo import OpoParams, closed_unitary, signal_density, sliced_unitary
from .quasiprob import p_rep, q_func, q_func_numeric
from .tfd_states import (
    DisplacementParams,
    StateKind,
    ThermalParams,
    build_state,
    build_trotter_finite,
)
from .verification import run_all_checks

__all__ = ["main"]

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_OVERFLOW = 4

_CONFIG_KEYS = ("hbar", "lambda", "cutoff", "tail_tol", "seed", "out")
# opo holds dense d^2 x d^2 complex unitaries, 85 MB each at d = 48; their
# eigendecomposition and matrix powers grow as d^6 in time and d^4 in memory
_OPO_MAX_CUTOFF = 48


class _UsageError(Exception):
    """Bad argument combinations detected after parsing."""


@dataclass(frozen=True)
class RunConfig:
    """Common run settings shared by every subcommand."""

    hbar: float = 1.0
    lambda_: float = 1.0
    cutoff: int | None = None
    tail_tol: float = 1e-8
    seed: int = 0
    out: str | None = None

    def __post_init__(self) -> None:
        for label, v in (("hbar", self.hbar), ("lambda", self.lambda_)):
            if not (math.isfinite(v) and v > 0.0):
                raise _UsageError(f"{label} must be finite and positive, got {v}")
        if not (0.0 < self.tail_tol <= 1e-4):
            raise _UsageError(f"tail tolerance must lie in (0, 1e-4], got {self.tail_tol}")
        if self.cutoff is not None and self.cutoff < 2:
            raise _UsageError(f"cutoff must be at least 2, got {self.cutoff}")

    @property
    def constants(self) -> PhysicalConstants:
        return PhysicalConstants(hbar=self.hbar, lam=self.lambda_)


def _complex_arg(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


def _int_list_arg(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty integer list")
    return values


def _float_list_arg(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty float list")
    return values


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _csv_text(header: list[str], rows, comments: list[str] = ()) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.extend(comments)
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg: dict = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise _UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise _UsageError("config file must hold a JSON object")
        unknown = sorted(set(file_cfg) - set(_CONFIG_KEYS))
        if unknown:
            raise _UsageError(f"unknown config keys: {', '.join(unknown)}")

    def pick(flag_value, key: str, default):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            return file_cfg[key]
        return default

    # only verify takes --hbar, --lambda and --seed; only converge and opo
    # take --cutoff and --tail-tol
    cutoff = pick(getattr(args, "cutoff", None), "cutoff", None)
    return RunConfig(
        hbar=float(pick(getattr(args, "hbar", None), "hbar", 1.0)),
        lambda_=float(pick(getattr(args, "lambda_", None), "lambda", 1.0)),
        cutoff=None if cutoff is None else int(cutoff),
        tail_tol=float(pick(getattr(args, "tail_tol", None), "tail_tol", 1e-8)),
        seed=int(pick(getattr(args, "seed", None), "seed", 0)),
        out=pick(args.out, "out", None),
    )


def _out_path(rc: RunConfig, default: str) -> str:
    return rc.out if rc.out is not None else default


def _json_sidecar(csv_path: str) -> str:
    if csv_path.endswith(".csv"):
        return csv_path[: -len(".csv")] + ".json"
    return csv_path + ".json"


def cmd_fig1(args: argparse.Namespace, rc: RunConfig) -> int:
    if not (0.0 <= args.theta_min < args.theta_max):
        raise _UsageError(f"need 0 <= theta-min < theta-max, got [{args.theta_min}, {args.theta_max}]")
    if args.steps < 2:
        raise _UsageError(f"need at least 2 steps, got {args.steps}")
    thetas = np.linspace(args.theta_min, args.theta_max, args.steps)
    rows = (
        (
            t,
            mean_amplitude_factor(StateKind.ROUND, t),
            mean_amplitude_factor(StateKind.TROTTER, t),
            mean_amplitude_factor(StateKind.DOUBLE, t),
        )
        for t in thetas
    )
    _write_text(_out_path(rc, "fig1.csv"), _csv_text(["theta", "round", "trotter", "double"], rows))
    return EXIT_OK


def _p_curve_rows(mus: np.ndarray, curves: list[np.ndarray]):
    for i, mu in enumerate(mus):
        yield (mu, *(c[i] for c in curves))


def cmd_fig2(args: argparse.Namespace, rc: RunConfig) -> int:
    if args.points < 2 or not args.mu_min < args.mu_max:
        raise _UsageError("need mu-min < mu-max and at least 2 points")
    if any(t <= 0.0 for t in args.thetas):
        raise _UsageError("the P density needs theta > 0 (theta = 0 is a delta)")
    mus = np.linspace(args.mu_min, args.mu_max, args.points)
    curves = [p_rep(StateKind.TROTTER, args.alpha, t).evaluate(mus) for t in args.thetas]
    header = ["mu"] + [f"p_theta_{format(t, 'g')}" for t in args.thetas]
    _write_text(_out_path(rc, "fig2.csv"), _csv_text(header, _p_curve_rows(mus, curves)))
    return EXIT_OK


def cmd_fig3(args: argparse.Namespace, rc: RunConfig) -> int:
    if args.points < 2 or not args.mu_min < args.mu_max:
        raise _UsageError("need mu-min < mu-max and at least 2 points")
    if args.theta <= 0.0:
        raise _UsageError("the P density needs theta > 0 (theta = 0 is a delta)")
    mus = np.linspace(args.mu_min, args.mu_max, args.points)
    curves = [
        p_rep(kind, args.alpha, args.theta).evaluate(mus)
        for kind in (StateKind.ROUND, StateKind.TROTTER, StateKind.DOUBLE)
    ]
    header = ["mu", "p_round", "p_trotter", "p_double"]
    _write_text(_out_path(rc, "fig3.csv"), _csv_text(header, _p_curve_rows(mus, curves)))
    return EXIT_OK


def cmd_converge(args: argparse.Namespace, rc: RunConfig) -> int:
    if sorted(args.n_list) != args.n_list or len(set(args.n_list)) != len(args.n_list):
        raise _UsageError(f"slice counts must be strictly ascending, got {args.n_list}")
    if any(n < 1 for n in args.n_list):
        raise _UsageError("slice counts must be positive")
    zeta = args.zeta if args.zeta is not None else args.alpha.conjugate()
    dp = DisplacementParams(alpha=args.alpha, zeta=zeta)
    tp = ThermalParams.from_theta(args.theta)
    d = rc.cutoff if rc.cutoff is not None else 30
    reference = build_state(StateKind.TROTTER, dp, tp, d=d, tail_tol=rc.tail_tol)
    distances = []
    for n in args.n_list:
        finite = build_trotter_finite(dp, tp, n, d=d, tail_tol=rc.tail_tol)
        distances.append(phase_aligned_distance(reference.amplitudes, finite.amplitudes))
    slope = float(np.polyfit(np.log(args.n_list), np.log(distances), 1)[0])
    rows = zip(args.n_list, distances)
    comments = [f"# fitted_slope={_fmt(slope)}"]
    _write_text(_out_path(rc, "converge.csv"), _csv_text(["n_slices", "distance"], rows, comments))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, rc: RunConfig) -> int:
    results = run_all_checks(rc.constants, seed=rc.seed, sabotage=args.sabotage)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name}: max_error={res.max_error:.3e} tolerance={res.tolerance:.1e}")
    all_passed = all(res.passed for res in results)
    summary = {
        "all_passed": all_passed,
        "checks": [
            {
                # strict JSON has no Infinity; a check that could not even
                # be evaluated reports null and passed=false
                "max_error": res.max_error if math.isfinite(res.max_error) else None,
                "name": res.name,
                "passed": res.passed,
                "tolerance": res.tolerance,
            }
            for res in results
        ],
        "constants": {"hbar": rc.hbar, "lambda": rc.lambda_},
        "sabotage": args.sabotage,
        "seed": rc.seed,
    }
    _write_text(_out_path(rc, "verify.json"), _json_text(summary))
    if not all_passed:
        failing = ", ".join(res.name for res in results if not res.passed)
        print(f"property failure: {failing}", file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


def cmd_opo(args: argparse.Namespace, rc: RunConfig) -> int:
    op = OpoParams(
        chi2=args.chi2,
        g_s=args.g_s,
        g_i=args.g_i,
        t1=args.t1,
        t2=args.t2,
        n_slices=args.slices,
    )
    d = rc.cutoff if rc.cutoff is not None else 30
    if d > _OPO_MAX_CUTOFF:
        raise _UsageError(f"opo forms dense d^2 x d^2 unitaries; cutoff {d} exceeds {_OPO_MAX_CUTOFF}")
    # the cutoff check runs first, so a refused request skips the dense unitaries
    rho = signal_density(op, d, tail_tol=rc.tail_tol)
    # the eigendecomposition in closed_unitary sets the peak memory, so it
    # runs before the sliced product is held
    closed = closed_unitary(op, d)
    distance = float(np.linalg.norm(sliced_unitary(op, d) - closed, 2))
    mean_amp, _ = mode_means(StateKind.TROTTER, op.gamma_s, op.gamma_i, op.theta)
    metrics = {
        "closed_sliced_distance": distance,
        "cutoff": d,
        "gamma_i": [op.gamma_i.real, op.gamma_i.imag],
        "gamma_s": [op.gamma_s.real, op.gamma_s.imag],
        "mean_photon": rho.mean_photon(),
        "mean_photon_expected": abs(mean_amp) ** 2 + math.sinh(op.theta) ** 2,
        "n_slices": op.n_slices,
        "purity": rho.purity(),
        "purity_expected": 1.0 / math.cosh(2.0 * op.theta),
        "theta": op.theta,
    }
    sigma_q = q_func(StateKind.TROTTER, 1.0, abs(op.theta)).sigma
    offsets = np.linspace(-args.q_span, args.q_span, args.q_grid) * sigma_q
    rows = []
    for dx in offsets:
        for dy in offsets:
            mu = mean_amp + complex(dx, dy)
            rows.append((mu.real, mu.imag, q_func_numeric(rho, mu)))
    csv_path = _out_path(rc, "opo.csv")
    _write_text(csv_path, _csv_text(["re_mu", "im_mu", "q"], rows))
    _write_text(_json_sidecar(csv_path), _json_text(metrics))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None, help="output path")
    common.add_argument("--config", type=str, default=None,
                        help="JSON file with defaults for the flags")

    physics = argparse.ArgumentParser(add_help=False)
    physics.add_argument("--hbar", type=float, default=None, help="Planck constant (default 1)")
    physics.add_argument("--lambda", dest="lambda_", type=float, default=None,
                         help="quadrature scale lambda (default 1)")
    physics.add_argument("--seed", type=int, default=None, help="seed for randomized grids")

    fock = argparse.ArgumentParser(add_help=False)
    fock.add_argument("--cutoff", type=int, default=None,
                      help=f"per-mode Fock cutoff (default 30; opo allows at most {_OPO_MAX_CUTOFF})")
    fock.add_argument("--tail-tol", dest="tail_tol", type=float, default=None,
                      help="tail tolerance enforced at the cutoff (default 1e-8)")

    parser = argparse.ArgumentParser(
        prog="thermalcoherent",
        description="Thermal coherent states: figure data, checks, OPO demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", parents=[common],
                       help="mean-position factors e^t, (e^t-1)/t, 1 vs theta")
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=200)
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("fig2", parents=[common],
                       help="combined-exponential P density, real-axis slice")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--thetas", type=_float_list_arg, default=[0.4, 0.6, 0.8])
    p.add_argument("--mu-min", type=float, default=-2.0)
    p.add_argument("--mu-max", type=float, default=9.0)
    p.add_argument("--points", type=int, default=40001)
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("fig3", parents=[common],
                       help="P densities of all three kinds, real-axis slice")
    p.add_argument("--alpha", type=float, default=4.0)
    p.add_argument("--theta", type=float, default=0.4)
    p.add_argument("--mu-min", type=float, default=-1.0)
    p.add_argument("--mu-max", type=float, default=9.0)
    p.add_argument("--points", type=int, default=40001)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("converge", parents=[common, fock],
                       help="finite-slice distance to the closed form vs slice count")
    p.add_argument("--alpha", type=_complex_arg, default=complex(0.8))
    p.add_argument("--zeta", type=_complex_arg, default=None,
                   help="defaults to conj(alpha)")
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--n-list", dest="n_list", type=_int_list_arg,
                   default=[16, 32, 64, 128, 256, 512])
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("verify", parents=[common, physics], help="run the property-check registry")
    p.add_argument("--sabotage", action="store_true",
                   help="corrupt the equivalence map to prove failures are caught")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("opo", parents=[common, fock], help="parametric-oscillator demo")
    p.add_argument("--chi2", type=float, default=1.0)
    p.add_argument("--g-s", dest="g_s", type=_complex_arg, default=complex(0.8))
    p.add_argument("--g-i", dest="g_i", type=_complex_arg, default=complex(0.8))
    p.add_argument("--t1", type=float, default=0.4)
    p.add_argument("--t2", type=float, default=1.0)
    p.add_argument("--slices", type=int, default=64)
    p.add_argument("--q-grid", dest="q_grid", type=int, default=21)
    p.add_argument("--q-span", dest="q_span", type=float, default=3.0)
    p.set_defaults(func=cmd_opo)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rc = _resolve_config(args)
        return args.func(args, rc)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CutoffError as exc:
        print(f"overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
