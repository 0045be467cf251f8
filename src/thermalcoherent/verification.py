"""Named runtime checks of the package's own closed-form claims.

Each check rebuilds one identity from scratch at runtime (state
equivalences, eigen-residuals, the uncertainty product, quasiprobability
agreement, the completeness weight, the OPO identification) and reports
the worst error it saw against a fixed tolerance.  The CLI drives the
whole registry and turns any failure into a nonzero exit code, so a
broken build cannot silently emit figure data.

The ``sabotage`` flag deliberately flips one sign inside the
combined-to-round parameter map before the equivalence check runs; it
exists to prove the harness can actually catch a wrong implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _hyper
from .equivalence import (
    check_double_vs_round,
    check_trotter_vs_round,
    map_trotter_to_round,
    mode_means,
    xi_eigenvalue,
)
from .fockspace import CutoffError, reduced_density
from .gaussian_oracle import moments_from_cf, reduce_to_signal
from .observables import (
    PhysicalConstants,
    quadrature_moments_numeric,
    uncertainty_product,
)
from .opo import OpoParams, closed_unitary, signal_density
from .quasiprob import (
    completeness_defect,
    p_rep,
    q_func,
    q_func_numeric,
    wigner,
    wigner_numeric,
)
from .tfd_states import (
    DisplacementParams,
    StateKind,
    ThermalParams,
    build_state,
    xi_residual,
)

__all__ = ["CheckResult", "run_all_checks"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named property check."""

    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.max_error) and self.max_error <= self.tolerance


def _equiv_grid(rng: np.random.Generator):
    phases = rng.uniform(0.0, 2.0 * math.pi, size=2)
    for mag in (0.5, 1.0):
        for phase in phases:
            alpha = mag * complex(math.cos(phase), math.sin(phase))
            for theta in (0.3, 0.7):
                yield DisplacementParams.invariant(alpha), ThermalParams.from_theta(theta)


def _worst_equiv(rng: np.random.Generator, check) -> float:
    worst = 0.0
    for dp, tp in _equiv_grid(rng):
        try:
            res = check(dp, tp)
        except CutoffError:
            return math.inf
        worst = max(worst, res.distance, abs(res.phase_theta))
    return worst


def _check_trotter_equiv(rng: np.random.Generator, sabotage: bool) -> float:
    if not sabotage:
        return _worst_equiv(rng, check_trotter_vs_round)
    worst = 0.0
    for dp, tp in _equiv_grid(rng):
        res = map_trotter_to_round(dp.alpha, dp.zeta, tp.theta)
        # the corrupted round state need not fit the matched cutoff,
        # so it is built without tail enforcement and the distance
        # alone does the failing
        bad = res.alpha_round + 2.0 * dp.zeta.conjugate() * _hyper.coshm1_over(tp.theta)
        state = build_state(StateKind.TROTTER, dp, tp, tail_tol=1e-12)
        mapped = build_state(
            StateKind.ROUND,
            DisplacementParams(alpha=bad, zeta=res.zeta_round),
            tp,
            d=state.dim_per_mode,
            tail_tol=None,
        )
        worst = max(worst, float(np.linalg.norm(state.amplitudes - mapped.amplitudes)))
    return worst


def _check_double_equiv(rng: np.random.Generator) -> float:
    return _worst_equiv(rng, check_double_vs_round)


def _check_eigen_residual(rng: np.random.Generator) -> float:
    phase = rng.uniform(0.0, 2.0 * math.pi)
    alpha = 0.7 * complex(math.cos(phase), math.sin(phase))
    dp = DisplacementParams.invariant(alpha)
    tp = ThermalParams.from_theta(0.5)
    worst = 0.0
    for kind in StateKind:
        state = build_state(kind, dp, tp, tail_tol=1e-16)
        lam = xi_eigenvalue(kind, dp, tp)
        worst = max(worst, xi_residual(state, tp, lam))
    return worst


def _check_uncertainty(rng: np.random.Generator, pc: PhysicalConstants) -> float:
    phase = rng.uniform(0.0, 2.0 * math.pi)
    dp = DisplacementParams.invariant(0.9 * complex(math.cos(phase), math.sin(phase)))
    worst = 0.0
    for theta in (0.2, 0.8):
        tp = ThermalParams.from_theta(theta)
        expected = uncertainty_product(theta, pc)
        for kind in StateKind:
            state = build_state(kind, dp, tp, tail_tol=1e-12)
            qm = quadrature_moments_numeric(state, pc)
            got = qm.uncertainty_product
            if got < 0.5 * pc.hbar - 1e-10:
                return math.inf
            worst = max(worst, abs(got - expected))
    return worst


def _check_husimi() -> float:
    kind, alpha, theta = StateKind.ROUND, 1.0, 0.5
    state = build_state(kind, DisplacementParams.invariant(alpha), ThermalParams.from_theta(theta), tail_tol=1e-12)
    rho = reduced_density(state, "ordinary")
    closed = q_func(kind, alpha, theta)
    offsets = np.linspace(-2.0, 2.0, 5) * closed.sigma
    worst = 0.0
    for dx in offsets:
        for dy in offsets:
            mu = closed.mean + complex(dx, dy)
            worst = max(worst, abs(q_func_numeric(rho, mu) - closed.evaluate(mu)))
    return worst


def _check_wigner() -> float:
    kind, alpha, theta = StateKind.DOUBLE, 0.8, 0.4
    state = build_state(kind, DisplacementParams.invariant(alpha), ThermalParams.from_theta(theta), d=25)
    rho = reduced_density(state, "ordinary")
    closed = wigner(kind, alpha, theta)
    mus = closed.mean + closed.sigma * np.array([0.0, 1.0, -1.0 + 1.0j])
    got = wigner_numeric(rho, mus)
    return float(np.max(np.abs(got - closed.evaluate(mus))))


def _check_widths() -> float:
    worst = 0.0
    for theta in (0.1, 0.4, 0.9, 1.5):
        sp = p_rep(StateKind.DOUBLE, 0.0, theta).sigma
        sq = q_func(StateKind.DOUBLE, 0.0, theta).sigma
        sw = wigner(StateKind.DOUBLE, 0.0, theta).sigma
        worst = max(worst, abs(sq**2 - sp**2 - 0.5))
        worst = max(worst, abs(2.0 * sw**2 - sp**2 - sq**2))
    return worst


def _check_completeness() -> float:
    return completeness_defect(0.3, 12)


def _check_opo_identification() -> float:
    op = OpoParams(chi2=1.0, g_s=0.7, g_i=0.7, t1=0.5, t2=1.0, n_slices=1)
    d = 30
    column = closed_unitary(op, d)[:, 0]
    state = build_state(
        StateKind.TROTTER,
        DisplacementParams(alpha=op.gamma_s, zeta=op.gamma_i),
        ThermalParams.from_theta(op.theta),
        d=d,
    )
    return float(np.linalg.norm(column - state.amplitudes))


def _check_opo_moments() -> float:
    op = OpoParams(chi2=1.0, g_s=0.7, g_i=0.7, t1=0.5, t2=1.0, n_slices=1)
    rho = signal_density(op, d=30)
    gm = moments_from_cf(StateKind.TROTTER, op.gamma_s, op.gamma_i, op.theta)
    purity_err = abs(rho.purity() - reduce_to_signal(gm).purity())
    mean_amp, _ = mode_means(StateKind.TROTTER, op.gamma_s, op.gamma_i, op.theta)
    photon_err = abs(rho.mean_photon() - (abs(mean_amp) ** 2 + math.sinh(op.theta) ** 2))
    return max(purity_err, photon_err)


def run_all_checks(
    pc: PhysicalConstants = PhysicalConstants(),
    seed: int = 0,
    sabotage: bool = False,
) -> list[CheckResult]:
    """Run every registered check and collect the results.

    The seed feeds the random phases of the parameter grids; results are
    deterministic for a fixed seed.  ``sabotage`` corrupts the
    combined-to-round map so the equivalence check must come back
    failed.
    """
    rng = np.random.default_rng(seed)
    results = [
        CheckResult("equivalence.trotter_vs_round", _check_trotter_equiv(rng, sabotage), 1e-9),
        CheckResult("equivalence.double_vs_round", _check_double_equiv(rng), 1e-9),
        CheckResult("eigenvector.residual", _check_eigen_residual(rng), 1e-6),
        CheckResult("uncertainty.product", _check_uncertainty(rng, pc), 1e-7),
        CheckResult("quasiprob.husimi_agreement", _check_husimi(), 1e-7),
        CheckResult("quasiprob.wigner_agreement", _check_wigner(), 1e-6),
        CheckResult("quasiprob.width_identities", _check_widths(), 1e-14),
        CheckResult("quasiprob.completeness", _check_completeness(), 1e-3),
        CheckResult("opo.identification", _check_opo_identification(), 1e-9),
        CheckResult("opo.signal_moments", _check_opo_moments(), 1e-6),
    ]
    return results
