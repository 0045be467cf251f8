"""Maps between the three thermal coherent state conventions.

Both alternative orderings reduce to the squeeze-after-displace (ROUND)
form with modified amplitudes.  The interleaved-slice (TROTTER) state in
addition picks up a global phase proportional to Im(alpha*zeta), which
vanishes identically on the tilde-invariant slice zeta = conj(alpha).
Every state is therefore exp(i phase) U(theta) D(alpha', zeta')|0,0~>,
and :func:`round_form` is the one source of that record: the xi
eigenvalue and the mode means are read off it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _hyper
from .tfd_states import DisplacementParams, StateKind, ThermalParams, build_state

__all__ = [
    "EquivalenceResult",
    "check_double_vs_round",
    "check_trotter_vs_round",
    "finite_product_decomposition",
    "map_double_to_round",
    "map_trotter_to_round",
    "mode_means",
    "phase_aligned_distance",
    "round_form",
    "series_limits",
    "xi_eigenvalue",
]


@dataclass(frozen=True)
class EquivalenceResult:
    """Amplitudes and phase that re-express a state in ROUND form.

    ``distance`` is populated by the state-level checks; the purely
    algebraic maps leave it at ``nan``.
    """

    alpha_round: complex
    zeta_round: complex
    phase_theta: float
    distance: float = math.nan

    def __post_init__(self) -> None:
        if not math.isfinite(self.phase_theta):
            raise ValueError(f"phase must be finite, got {self.phase_theta!r}")
        if not math.isnan(self.distance) and self.distance < 0.0:
            raise ValueError(f"distance must be >= 0, got {self.distance!r}")


def map_trotter_to_round(alpha: complex, zeta: complex, theta: float) -> EquivalenceResult:
    """ROUND-form amplitudes and phase of the interleaved-slice state.

    alpha' = [alpha sinh(theta) + zeta* (1 - cosh(theta))] / theta and
    the same with alpha and zeta exchanged; the global phase is
    -i (sinh(theta) - theta)/theta**2 * (alpha zeta - conj(alpha zeta)),
    which is real because the bracket is purely imaginary.  At theta = 0
    the map is the identity with zero phase.  The map is analytic in
    theta, so a negative angle (a pump of the opposite sign) is accepted.
    """
    alpha = complex(alpha)
    zeta = complex(zeta)
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    sc = _hyper.sinhc(theta)
    cm = _hyper.coshm1_over(theta)
    alpha_round = alpha * sc - zeta.conjugate() * cm
    zeta_round = zeta * sc - alpha.conjugate() * cm
    # -i * c1 * (alpha zeta - conj(alpha zeta)) == 2 c1 Im(alpha zeta)
    phase = 2.0 * _hyper.sinhm_over_sq(theta) * (alpha * zeta).imag
    return EquivalenceResult(alpha_round=alpha_round, zeta_round=zeta_round, phase_theta=phase)


def map_double_to_round(alpha: complex, zeta: complex, theta: float) -> EquivalenceResult:
    """ROUND-form amplitudes of the displace-after-squeeze state.

    Exact for every theta, with no phase factor:
    alpha' = alpha cosh(theta) - zeta* sinh(theta), and symmetrically
    for zeta.  The inverse is the same map at -theta.
    """
    alpha = complex(alpha)
    zeta = complex(zeta)
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    ch = math.cosh(theta)
    sh = math.sinh(theta)
    return EquivalenceResult(
        alpha_round=alpha * ch - zeta.conjugate() * sh,
        zeta_round=zeta * ch - alpha.conjugate() * sh,
        phase_theta=0.0,
    )


def round_form(kind: StateKind, alpha: complex, zeta: complex, theta: float) -> EquivalenceResult:
    """ROUND-form amplitudes and phase of the state of the given kind.

    ROUND is the identity with zero phase; DOUBLE and TROTTER go
    through their maps.
    """
    if kind is StateKind.ROUND:
        return EquivalenceResult(alpha_round=complex(alpha), zeta_round=complex(zeta), phase_theta=0.0)
    if kind is StateKind.DOUBLE:
        return map_double_to_round(alpha, zeta, theta)
    if kind is StateKind.TROTTER:
        return map_trotter_to_round(alpha, zeta, theta)
    raise ValueError(f"unknown state kind {kind!r}")


def xi_eigenvalue(kind: StateKind, dp: DisplacementParams, tp: ThermalParams) -> complex:
    """Eigenvalue of xi on the thermal coherent state of the given kind.

    xi = U(theta) a U(theta)+, so on exp(i phase) U(theta) D(alpha', zeta')|0,0~>
    it acts as a does on the coherent factor: the eigenvalue is alpha'.
    """
    return round_form(kind, dp.alpha, dp.zeta, tp.theta).alpha_round


def mode_means(
    kind: StateKind, alpha: complex, zeta: complex, theta: float
) -> tuple[complex, complex]:
    """(<a>, <a~>) for the given kind at general (alpha, zeta).

    The displace-after-squeeze state keeps the amplitudes unchanged;
    every other kind mixes its ROUND-form amplitudes through the
    Bogoliubov coefficients, <a> = alpha' cosh(theta) + zeta'* sinh(theta)
    and its mirror.
    """
    alpha = complex(alpha)
    zeta = complex(zeta)
    if kind is StateKind.DOUBLE:
        return alpha, zeta
    rf = round_form(kind, alpha, zeta, theta)
    ch = math.cosh(theta)
    sh = math.sinh(theta)
    return (
        rf.alpha_round * ch + rf.zeta_round.conjugate() * sh,
        rf.zeta_round * ch + rf.alpha_round.conjugate() * sh,
    )


def finite_product_decomposition(
    alpha: complex,
    zeta: complex,
    theta: float,
    N: int,
    n: int,
) -> tuple[float, float, complex, complex]:
    """Collapse n interleaved 1/N slices into phase, squeeze, and displacement.

    Returns ``(phase, squeeze_angle, alpha_n, zeta_n)`` such that

        [U(theta/N) D(alpha/N, zeta/N)]**n
            = exp(i*phase) U(n*theta/N) D(alpha_n, zeta_n)

    with the partial sums

        alpha_n = (alpha/N) sum_{m<n} cosh(m theta/N)
                - (zeta*/N) sum_{m<n} sinh(m theta/N)

    (zeta_n symmetrically) and a phase built from
    sum_{m=1}^{n-1} (n-m) sinh(m theta/N).  Sums are accumulated with
    compensated summation so the result stays exact to rounding for N
    up to a million slices.
    """
    alpha = complex(alpha)
    zeta = complex(zeta)
    theta = float(theta)
    N = int(N)
    n = int(n)
    if N < 1:
        raise ValueError(f"slice count N must be >= 1, got {N}")
    if not 1 <= n <= N:
        raise ValueError(f"need 1 <= n <= N, got n={n}, N={N}")
    if theta < 0.0 or not math.isfinite(theta):
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    step = theta / N
    cosh_sum = math.fsum(math.cosh(m * step) for m in range(n))
    sinh_sum = math.fsum(math.sinh(m * step) for m in range(1, n))
    weighted = math.fsum((n - m) * math.sinh(m * step) for m in range(1, n))
    alpha_n = (alpha * cosh_sum - zeta.conjugate() * sinh_sum) / N
    zeta_n = (zeta * cosh_sum - alpha.conjugate() * sinh_sum) / N
    # (weighted/N**2)(alpha zeta - conj(alpha zeta)) is purely imaginary
    phase = 2.0 * (weighted / (N * N)) * (alpha * zeta).imag
    return phase, n * step, alpha_n, zeta_n


def series_limits(theta: float) -> tuple[float, float, float]:
    """Large-N limits of the three slice sums at fixed total angle theta.

    Returns ``(c1, c2, c3)`` where

        c1 = lim (1/N**2) sum_{m<N} (N-m) sinh(m theta/N)
           = (exp(theta) - 2 theta - exp(-theta)) / (2 theta**2),
        c2 = lim (1/N) sum_{m<N} cosh(m theta/N) = sinh(theta)/theta,
        c3 = lim (1/N) sum_{m<N} sinh(m theta/N) = (cosh(theta) - 1)/theta.

    c1 vanishes linearly (leading term theta/6) and c2 -> 1, c3 -> 0 as
    theta -> 0.
    """
    theta = float(theta)
    if theta < 0.0 or not math.isfinite(theta):
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    return (
        _hyper.sinhm_over_sq(theta),
        _hyper.sinhc(theta),
        _hyper.coshm1_over(theta),
    )


def phase_aligned_distance(ref: np.ndarray, cand: np.ndarray) -> float:
    """Euclidean distance after rotating away the global phase of ``cand``.

    The candidate is multiplied by conj(<ref|cand>)/|<ref|cand>| before
    subtracting; orthogonal vectors are left untouched.
    """
    ref = np.asarray(ref, dtype=complex).reshape(-1)
    cand = np.asarray(cand, dtype=complex).reshape(-1)
    if ref.shape != cand.shape:
        raise ValueError(f"shape mismatch: {ref.shape} vs {cand.shape}")
    overlap = np.vdot(ref, cand)
    if abs(overlap) > 0.0:
        cand = cand * (overlap.conjugate() / abs(overlap))
    return float(np.linalg.norm(ref - cand))


def _state_distance(kind, dp, tp, d, tail_tol) -> EquivalenceResult:
    result = round_form(kind, dp.alpha, dp.zeta, tp.theta)
    state = build_state(kind, dp, tp, d=d, tail_tol=tail_tol)
    mapped = build_state(
        StateKind.ROUND,
        DisplacementParams(alpha=result.alpha_round, zeta=result.zeta_round),
        tp,
        d=state.dim_per_mode,
        tail_tol=tail_tol,
    )
    target = np.exp(1j * result.phase_theta) * mapped.amplitudes
    dist = float(np.linalg.norm(state.amplitudes - target))
    return EquivalenceResult(
        alpha_round=result.alpha_round,
        zeta_round=result.zeta_round,
        phase_theta=result.phase_theta,
        distance=dist,
    )


def check_trotter_vs_round(dp, tp, d=None, tail_tol: float = 1e-20) -> EquivalenceResult:
    """Build both sides of the TROTTER -> ROUND identity and measure the gap.

    The distance includes the predicted global phase, i.e. it compares
    the raw vectors exp(i Theta) |round'> against |trotter> without any
    free phase alignment.
    """
    return _state_distance(StateKind.TROTTER, dp, tp, d, tail_tol)


def check_double_vs_round(dp, tp, d=None, tail_tol: float = 1e-20) -> EquivalenceResult:
    """Build both sides of the DOUBLE -> ROUND identity and measure the gap."""
    return _state_distance(StateKind.DOUBLE, dp, tp, d, tail_tol)
