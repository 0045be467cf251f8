"""Quasiprobability densities of the reduced (ordinary-mode) state.

On the tilde-invariant slice zeta = conj(alpha) every kind reduces to a
displaced thermal state of the ordinary mode, so its Glauber-Sudarshan
P, Husimi Q and Wigner W densities are isotropic complex Gaussians

    G(mu; mean, sigma) = exp(-|mu - mean|^2 / 2 sigma^2) / (2 pi sigma^2)

with widths sinh(theta)/sqrt(2), cosh(theta)/sqrt(2) and
sqrt(cosh(2 theta))/2, and a mean equal to alpha times the kind factor.
The numeric routes below never assume Gaussianity and read only the
entries of the density matrix: the Husimi density is a coherent-state
sandwich, O(d^2) per point, and the Wigner density is the expectation
of the displaced parity, a finite Laguerre sum, also O(d^2) per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fockspace import CutoffError, DensityMatrix
from .observables import mean_amplitude_factor
from .tfd_states import StateKind, apply_exp_generator, default_cutoff

__all__ = [
    "GaussianQP",
    "completeness_constant",
    "completeness_defect",
    "p_rep",
    "q_func",
    "q_func_numeric",
    "wigner",
    "wigner_numeric",
]


@dataclass(frozen=True)
class GaussianQP:
    """Isotropic Gaussian density over the complex mu plane."""

    mean: complex
    sigma: float
    kind_tag: str

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError(f"width must be positive, got {self.sigma}")
        if self.kind_tag not in ("P", "Q", "W"):
            raise ValueError(f"kind_tag must be 'P', 'Q' or 'W', got {self.kind_tag!r}")

    def evaluate(self, mu):
        """Density value at a complex point or array of points."""
        mu = np.asarray(mu, dtype=complex)
        val = np.exp(-np.abs(mu - self.mean) ** 2 / (2.0 * self.sigma**2))
        val /= 2.0 * math.pi * self.sigma**2
        return float(val) if val.ndim == 0 else val


def _gaussian(kind: StateKind, alpha: complex, theta: float, sigma: float, tag: str) -> GaussianQP:
    if theta < 0.0 or not math.isfinite(theta):
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    mean = mean_amplitude_factor(kind, theta) * complex(alpha)
    return GaussianQP(mean=mean, sigma=sigma, kind_tag=tag)


def p_rep(kind: StateKind, alpha: complex, theta: float) -> GaussianQP:
    """Glauber-Sudarshan density, width sinh(theta)/sqrt(2).

    Degenerates to delta^2(mu - alpha) as theta -> 0; requesting
    theta = 0 exactly raises, since no Gaussian represents it.
    """
    if theta == 0.0:
        raise ValueError("at theta = 0 the P density is a delta function, not a Gaussian")
    return _gaussian(kind, alpha, theta, math.sinh(theta) / math.sqrt(2.0), "P")


def q_func(kind: StateKind, alpha: complex, theta: float) -> GaussianQP:
    """Husimi density (1/pi) <mu| rho |mu>, width cosh(theta)/sqrt(2)."""
    return _gaussian(kind, alpha, theta, math.cosh(theta) / math.sqrt(2.0), "Q")


def wigner(kind: StateKind, alpha: complex, theta: float) -> GaussianQP:
    """Wigner density, width sqrt(cosh(2 theta))/2.

    Sits between the P and Q widths: sigma_P^2 + 1/4 = sigma_W^2
    = sigma_Q^2 - 1/4, the vacuum half-unit per convolution step.
    """
    return _gaussian(kind, alpha, theta, 0.5 * math.sqrt(math.cosh(2.0 * theta)), "W")


def completeness_constant(theta: float) -> float:
    """Weight making squeeze-after-displace states resolve the identity.

    (1/pi) (cosh(theta) + sinh(theta))^2 = exp(2 theta)/pi over the
    plain d^2 alpha measure; reduces to the coherent-state 1/pi at
    theta = 0.
    """
    if theta < 0.0 or not math.isfinite(theta):
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    return math.exp(2.0 * theta) / math.pi


def _coherent_raw(mu: complex, d: int) -> np.ndarray:
    """Unnormalized coherent amplitudes exp(-|mu|^2/2) mu^n / sqrt(n!).

    Exact per retained level even when the cutoff clips most of the
    state, which is what overlap sums against low-occupation density
    matrices need.
    """
    mu = complex(mu)
    if abs(mu) ** 2 > 1200.0:
        raise CutoffError(f"coherent amplitude |mu|={abs(mu):.3g} too large")
    amps = np.empty(d, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(mu) ** 2)
    for n in range(1, d):
        amps[n] = amps[n - 1] * mu / math.sqrt(n)
    return amps


def q_func_numeric(rho: DensityMatrix, mu: complex) -> float:
    """Husimi density from the matrix elements: (1/pi) <mu| rho |mu>."""
    c = _coherent_raw(mu, rho.dim)
    val = np.vdot(c, rho.entries @ c).real / math.pi
    return float(val)


def wigner_numeric(rho: DensityMatrix, mus):
    """Wigner density from the matrix elements: (2/pi) Tr[rho D(mu) Pi D(mu)+].

    Pi is the parity (-1)^(a+ a).  The displaced parity has the exact
    elements (Cahill & Glauber 1969; Royer 1977)

        <m+k| D Pi D+ |m> = (-1)^m sqrt(m!/(m+k)!) (2 mu)^k
                            L_m^(k)(4|mu|^2) exp(-2|mu|^2),

    so the density is a finite sum over the upper triangle of rho with
    no grid, padding or refinement.  Each diagonal k is advanced in m
    by the Laguerre recurrence, for all k and all points at once: d
    array steps, O(d^2) work and d memory per point.  Returns a float
    for a scalar ``mus`` and an array of its shape otherwise.
    """
    mus = np.asarray(mus, dtype=complex)
    flat = mus.reshape(-1)
    x = 4.0 * np.abs(flat) ** 2
    if x.max(initial=0.0) > 1200.0:
        raise CutoffError("Wigner point too far out: exp(-2|mu|^2) underflows")
    d = rho.dim
    k = np.arange(d)[:, None]
    # rho[m, m+k] and rho[m+k, m] are conjugates, so off-diagonals count twice
    upper = rho.entries * (2.0 - np.eye(d))
    # row m = 0 is (2 mu)^k / sqrt(k!) exp(-2|mu|^2)
    steps = np.ones((d, flat.size), dtype=complex)
    steps[1:] = 2.0 * flat / np.sqrt(k[1:])
    cur = np.cumprod(steps, axis=0) * np.exp(-0.5 * x)
    prev = np.zeros_like(cur)
    total = (upper[0] @ cur).real
    for m in range(1, d):
        kk = k[: d - m]
        nxt = (2 * m - 1 + kk - x) * cur[: d - m] + np.sqrt((m - 1) * (m - 1 + kk)) * prev[: d - m]
        prev, cur = cur[: d - m], -nxt / np.sqrt(m * (m + kk))
        total += (upper[m, m:] @ cur).real
    w = (2.0 / math.pi) * total
    return float(w[0]) if mus.ndim == 0 else w.reshape(mus.shape)


# 8 nodes integrate polynomials of degree <= 15 exactly: levels up to 16
_RADIAL_NODES = 8


def completeness_defect(
    theta: float,
    d: int,
    n_angular: int = 64,
    levels: int = 6,
) -> float:
    """Distance from the weighted state integral to the identity.

    Integrates the reduced squeeze-after-displace projectors over the
    tilde-invariant plane, multiplies by the completeness weight, and
    reports the largest deviation from the identity on the lowest
    ``levels`` Fock levels in operator 2-norm, inside the d-level window
    the accumulator keeps.

    At alpha = r the reduced state is displaced thermal with mean
    r e^theta and occupation sinh(theta)**2, so each of its diagonal
    elements is a polynomial in u = r**2 of degree at most the level,
    times exp(-c u) with c = e^(2 theta)/cosh(theta)**2.  Gauss-Laguerre
    nodes in u for that weight integrate the radial direction exactly,
    with no radius cutoff.  The angular samples enter through the exact
    rotation relation rho(r e^{i phi})[n, p] = e^{i phi (n - p)} rho(r)[n, p],
    whose periodic trapezoid removes the off-diagonals, so one squeeze
    application per node covers the whole ring.

    Each node is built at its own internally adequate cutoff: a state
    at |alpha| = r carries roughly (r e^theta)^2 photons, and squeezing
    it inside a window sized for the identity block alone unitarily
    reflects escaping amplitude back into low levels.
    """
    if theta < 0.0 or not math.isfinite(theta):
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    if not 1 <= levels <= d:
        raise ValueError(f"need 1 <= levels <= d, got levels={levels}, d={d}")
    c = math.exp(2.0 * theta) / math.cosh(theta) ** 2
    nodes, weights = np.polynomial.laguerre.laggauss(_RADIAL_NODES)
    r = np.sqrt(nodes / c)
    # d^2 alpha = du dphi / 2; exp(nodes) undoes the weight the rule assumes
    wr = 0.5 * weights * np.exp(nodes) / c
    phis = np.arange(n_angular) * (2.0 * math.pi / n_angular)
    wphi = 2.0 * math.pi / n_angular
    n_idx = np.arange(d)
    ring = np.exp(1j * np.multiply.outer(phis, n_idx[:, None] - n_idx[None, :])).sum(axis=0)
    acc = np.zeros((d, d), dtype=complex)
    for ri, wi in zip(r, wr):
        d_i = max(d + 2, default_cutoff(math.exp(theta) * ri, theta))
        pair = np.outer(_coherent_raw(ri, d_i), _coherent_raw(ri, d_i))
        m = apply_exp_generator(pair, theta, 0.0, 0.0).reshape(d_i, d_i)
        corner = (m @ m.conj().T)[:d, :d]
        acc += (wi * wphi) * corner * ring
    acc *= completeness_constant(theta)
    block = acc[:levels, :levels] - np.eye(levels)
    return float(np.linalg.norm(block, 2))
