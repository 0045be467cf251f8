"""Closed-form Gaussian moments of the three state families.

Every thermal coherent state is Gaussian: a mean vector and a 4x4
covariance matrix over (Q, P, Q~, P~) determine it completely.  The
covariance is kind- and displacement-independent; only the means move.
This module hard-codes the covariance and takes the means from
:func:`equivalence.mode_means`, which gives the rest of the package an
independent oracle to test the Fock-space numerics against.

Because the tilde momentum is defined with a flipped sign, the
commutator matrix is block-diagonal with opposite orientations,
[Q, P] = i hbar but [Q~, P~] = -i hbar, and the physicality condition
cov + (i hbar/2) Omega >= 0 uses that Omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equivalence import mode_means
from .observables import PhysicalConstants
from .quasiprob import GaussianQP
from .tfd_states import StateKind

__all__ = [
    "GaussianMoments",
    "ReducedGaussian",
    "moments_from_cf",
    "reduce_to_signal",
    "reduced_to_qp",
    "symplectic_form",
]


def symplectic_form() -> np.ndarray:
    """Commutator matrix Omega with [R_j, R_k] = i hbar Omega_jk.

    Ordering (Q, P, Q~, P~); the tilde block is reversed because the
    tilde momentum carries the conjugated sign.
    """
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
        ]
    )


@dataclass(frozen=True)
class GaussianMoments:
    """Mean vector and symmetrized covariance over (Q, P, Q~, P~)."""

    mean: np.ndarray
    cov: np.ndarray
    hbar: float = 1.0

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (4,) or cov.shape != (4, 4):
            raise ValueError("need a length-4 mean and a 4x4 covariance")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("covariance must be symmetric")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def physicality_defect(self) -> float:
        """Smallest eigenvalue of cov + (i hbar/2) Omega; >= 0 for a state."""
        m = self.cov.astype(complex) + 0.5j * self.hbar * symplectic_form()
        return float(np.linalg.eigvalsh(m).min())


@dataclass(frozen=True)
class ReducedGaussian:
    """Gaussian description of the ordinary mode alone."""

    mean: np.ndarray
    cov: np.ndarray
    hbar: float = 1.0

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise ValueError("need a length-2 mean and a 2x2 covariance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def purity(self) -> float:
        """Tr rho^2 = (hbar/2)/sqrt(det cov); equals 1/cosh(2 theta) here."""
        return 0.5 * self.hbar / math.sqrt(float(np.linalg.det(self.cov)))


def moments_from_cf(
    kind: StateKind,
    alpha: complex,
    zeta: complex,
    theta: float,
    pc: PhysicalConstants = PhysicalConstants(),
) -> GaussianMoments:
    """Closed-form Gaussian moments, as derivatives of cf_full would give them.

    Means: <Q> = 2 sqrt(hbar/2 lam) Re<a>, <P> = 2 sqrt(lam hbar/2) Im<a>,
    with the tilde pair using <a~> and a sign flip on the momentum.
    Covariance: every quadrature variance is (hbar/2) cosh(2 theta) in
    its own scale; the only correlations are Q-Q~ and P-P~, both equal
    to (hbar/2) sinh(2 theta) in mixed scales and both positive.
    """
    amp, amp_t = mode_means(kind, alpha, zeta, theta)
    sq, sp = pc.q_scale, pc.p_scale
    mean = np.array(
        [
            2.0 * sq * amp.real,
            2.0 * sp * amp.imag,
            2.0 * sq * amp_t.real,
            -2.0 * sp * amp_t.imag,
        ]
    )
    c2 = math.cosh(2.0 * theta)
    s2 = math.sinh(2.0 * theta)
    cov = np.zeros((4, 4))
    cov[0, 0] = 2.0 * sq * sq * c2 * 0.5
    cov[1, 1] = 2.0 * sp * sp * c2 * 0.5
    cov[2, 2] = cov[0, 0]
    cov[3, 3] = cov[1, 1]
    cov[0, 2] = cov[2, 0] = sq * sq * s2
    cov[1, 3] = cov[3, 1] = sp * sp * s2
    return GaussianMoments(mean=mean, cov=cov, hbar=pc.hbar)


def reduce_to_signal(gm: GaussianMoments) -> ReducedGaussian:
    """Marginal Gaussian of the ordinary mode: drop the tilde rows and columns.

    For Gaussian states the reduced state of a mode subset is again
    Gaussian with the corresponding sub-blocks of mean and covariance.
    """
    return ReducedGaussian(mean=gm.mean[:2].copy(), cov=gm.cov[:2, :2].copy(), hbar=gm.hbar)


def reduced_to_qp(
    rg: ReducedGaussian, which: str, pc: PhysicalConstants = PhysicalConstants()
) -> GaussianQP:
    """Quasiprobability Gaussian ('P', 'Q' or 'W') implied by reduced moments.

    In the dimensionless mu plane the Wigner variance per component is
    half the dimensionless quadrature variance; the Husimi and
    Glauber-Sudarshan widths sit a half unit of vacuum above and below:
    sigma_Q^2 = sigma_W^2 + 1/4 and sigma_P^2 = sigma_W^2 - 1/4.
    """
    if which not in ("P", "Q", "W"):
        raise ValueError(f"which must be 'P', 'Q' or 'W', got {which!r}")
    if pc.hbar != rg.hbar:
        raise ValueError(f"constants disagree on hbar: {pc.hbar} vs {rg.hbar}")
    vq = rg.cov[0, 0] / (2.0 * pc.q_scale**2)
    vp = rg.cov[1, 1] / (2.0 * pc.p_scale**2)
    if abs(vq - vp) > 1e-10 * max(vq, vp):
        raise ValueError("anisotropic reduced state has no radial quasiprobabilities")
    mu = 0.5 * (rg.mean[0] / pc.q_scale + 1j * rg.mean[1] / pc.p_scale)
    var_w = 0.5 * (vq + vp) / 2.0
    var = {"W": var_w, "Q": var_w + 0.25, "P": var_w - 0.25}[which]
    if which == "P" and var <= 0.0:
        raise ValueError("zero-temperature state: its P function is a delta, not a Gaussian")
    return GaussianQP(mean=mu, sigma=math.sqrt(var), kind_tag=which)
