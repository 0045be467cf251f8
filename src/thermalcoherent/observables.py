"""Expectation values and characteristic functions of thermal coherent states.

Quadrature conventions, with lam the oscillator mass-frequency scale:

    Q  = sqrt(hbar/2 lam) (a+ + a),    P  =  i sqrt(lam hbar/2) (a+ - a)
    Q~ = sqrt(hbar/2 lam) (a~+ + a~),  P~ = -i sqrt(lam hbar/2) (a~+ - a~)

The tilde-mode momentum carries the opposite sign because tilde
conjugation is antilinear; as a consequence [Q~, P~] = -i hbar.  The
full characteristic function is the expectation of the two-mode
displacement D(gamma, gamma'), with arguments related to real phase
space variables through :func:`char_function_args`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .equivalence import mode_means
from .fockspace import TwoModeState, annihilation_matrix, creation_matrix, embed
from .tfd_states import StateKind

__all__ = [
    "PhysicalConstants",
    "QuadratureMoments",
    "cf_full",
    "char_function_args",
    "chi_signal",
    "mean_amplitude_factor",
    "quadrature_operators",
    "uncertainty_product",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar and the oscillator scale lam."""

    hbar: float = 1.0
    lam: float = 1.0

    def __post_init__(self) -> None:
        for name in ("hbar", "lam"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    @property
    def q_scale(self) -> float:
        return math.sqrt(self.hbar / (2.0 * self.lam))

    @property
    def p_scale(self) -> float:
        return math.sqrt(self.lam * self.hbar / 2.0)


@dataclass(frozen=True)
class QuadratureMoments:
    """First and second moments of the ordinary-mode quadratures."""

    mean_q: float
    mean_p: float
    var_q: float
    var_p: float

    def __post_init__(self) -> None:
        if self.var_q <= 0.0 or self.var_p <= 0.0:
            raise ValueError("quadrature variances must be positive")

    @property
    def uncertainty_product(self) -> float:
        return math.sqrt(self.var_q * self.var_p)


def quadrature_operators(
    d: int, pc: PhysicalConstants = PhysicalConstants()
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dense (Q, P, Q~, P~) on the doubled space at per-mode cutoff d."""
    a = annihilation_matrix(d)
    ad = creation_matrix(d)
    q1 = pc.q_scale * embed(ad + a, "ordinary")
    p1 = 1j * pc.p_scale * embed(ad - a, "ordinary")
    q2 = pc.q_scale * embed(ad + a, "tilde")
    p2 = -1j * pc.p_scale * embed(ad - a, "tilde")
    return q1, p1, q2, p2


def char_function_args(q, p, q_tilde, p_tilde, pc: PhysicalConstants = PhysicalConstants()):
    """Displacement arguments (gamma, gamma') for real phase-space variables.

    gamma  = -i q  sqrt(hbar/2 lam) + p  sqrt(lam hbar/2)
    gamma' = -i q' sqrt(hbar/2 lam) - p' sqrt(lam hbar/2)

    With these arguments the displacement operator reads
    D(gamma, gamma') = exp[-i (q Q + p P + q' Q~ + p' P~)], so moments
    follow from derivatives of the characteristic function at the
    origin.  Works for exact number types as well as floats, which the
    finite-difference tests rely on.
    """
    gamma = -1j * pc.q_scale * q + pc.p_scale * p
    gamma_p = -1j * pc.q_scale * q_tilde - pc.p_scale * p_tilde
    return gamma, gamma_p


def _exp_any(z):
    """exp for builtin complex or exact multiprecision scalars."""
    if isinstance(z, (complex, float, int)):
        return cmath.exp(z)
    import mpmath

    return mpmath.exp(z)


def cf_full(alpha: complex, zeta: complex, theta: float, gamma, gamma_p):
    """Full two-mode characteristic function of the squeeze-after-displace state.

    Expectation of D(gamma, gamma') in U(theta) D(alpha, zeta) |0,0~>.
    Gaussian in (gamma, gamma') with a squeeze-mixed quadratic form and
    linear terms carrying the displacement amplitudes.  ``gamma`` and
    ``gamma_p`` may be any complex-like scalars supporting arithmetic
    and ``conjugate``; the hyperbolic coefficients are evaluated in
    double precision.
    """
    ch = math.cosh(theta)
    sh = math.sinh(theta)
    alpha = complex(alpha)
    zeta = complex(zeta)
    g, gp = gamma, gamma_p
    gc, gpc = g.conjugate(), gp.conjugate()
    quad = -0.5 * (
        (ch * ch + sh * sh) * (g * gc + gp * gpc) - 2.0 * ch * sh * (g * gp + gc * gpc)
    )
    lin = (
        (g * ch - gpc * sh) * alpha.conjugate()
        - (gc * ch - gp * sh) * alpha
        + (gp * ch - gc * sh) * zeta.conjugate()
        - (gpc * ch - g * sh) * zeta
    )
    return _exp_any(quad + lin)


def chi_signal(alpha: complex, theta: float, eta: complex) -> complex:
    """Ordinary-mode characteristic function on the tilde-invariant slice.

    Equal to cf_full at (gamma, gamma') = (eta, 0) with zeta = conj(alpha):

        chi(eta) = exp[-cosh(2 theta) |eta|^2 / 2
                       + (cosh + sinh)(theta) (conj(alpha) eta - alpha conj(eta))]
    """
    alpha = complex(alpha)
    eta = complex(eta)
    ch = math.cosh(theta)
    sh = math.sinh(theta)
    z = (
        -0.5 * (ch * ch + sh * sh) * (eta * eta.conjugate())
        + (ch + sh) * (alpha.conjugate() * eta - alpha * eta.conjugate())
    )
    return complex(cmath.exp(z))


def mean_amplitude_factor(kind: StateKind, theta: float) -> float:
    """Ratio <a>/alpha on the tilde-invariant slice zeta = conj(alpha).

    exp(theta) for ROUND, (exp(theta) - 1)/theta for TROTTER, and
    exactly 1 for DOUBLE; all three tend to 1 as theta -> 0.
    """
    if theta < 0.0 or not math.isfinite(theta):
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    return mode_means(kind, 1.0, 1.0, theta)[0].real


def uncertainty_product(theta: float, pc: PhysicalConstants = PhysicalConstants()) -> float:
    """Delta Q Delta P = (hbar/2) cosh(2 theta), independent of kind and alpha.

    Minimal exactly at theta = 0; thermal mixing costs sharpness in both
    quadratures simultaneously.
    """
    if theta < 0.0 or not math.isfinite(theta):
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    return 0.5 * pc.hbar * math.cosh(2.0 * theta)


def quadrature_moments_numeric(
    state: TwoModeState, pc: PhysicalConstants = PhysicalConstants()
) -> QuadratureMoments:
    """Ordinary-mode Q/P means and variances of a truncated state.

    The ladder operators only shift Fock indices, so Q psi and P psi are
    formed by row shifts of the (d, d) amplitude matrix and the second
    moments come from plain inner products; nothing of size d^2 by d^2
    is ever built.
    """
    d = state.dim_per_mode
    m = state.amplitudes.reshape(d, d)
    sq = np.sqrt(np.arange(1.0, d))[:, None]
    raised = np.zeros_like(m)
    raised[1:, :] = sq * m[:-1, :]
    lowered = np.zeros_like(m)
    lowered[:-1, :] = sq * m[1:, :]
    qm = pc.q_scale * (raised + lowered)
    pm = 1j * pc.p_scale * (raised - lowered)
    mean_q = np.vdot(m, qm).real
    mean_p = np.vdot(m, pm).real
    var_q = np.vdot(qm, qm).real - mean_q**2
    var_p = np.vdot(pm, pm).real - mean_p**2
    return QuadratureMoments(mean_q=mean_q, mean_p=mean_p, var_q=var_q, var_p=var_p)
