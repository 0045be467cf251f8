"""Quasiprobability densities of the reduced (ordinary-mode) state.

On the tilde-invariant slice zeta = conj(alpha) every kind reduces to a
displaced thermal state of the ordinary mode, so its Glauber-Sudarshan
P, Husimi Q and Wigner W densities are isotropic complex Gaussians

    G(mu; mean, sigma) = exp(-|mu - mean|^2 / 2 sigma^2) / (2 pi sigma^2)

with widths sinh(theta)/sqrt(2), cosh(theta)/sqrt(2) and
sqrt(cosh(2 theta))/2, and a mean equal to alpha times the kind factor.
The numeric routes below never assume Gaussianity: the Husimi density
is a coherent-state sandwich and the Wigner density is a direct
quadrature of the numerically evaluated characteristic function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fockspace import CutoffError, DensityMatrix, annihilation_matrix
from .observables import mean_amplitude_factor
from .tfd_states import StateKind, apply_exp_generator, default_cutoff

__all__ = [
    "GaussianQP",
    "QuadratureError",
    "QuadratureGrid",
    "char_signal_numeric",
    "completeness_constant",
    "completeness_defect",
    "p_rep",
    "q_func",
    "q_func_numeric",
    "wigner",
    "wigner_numeric",
    "wigner_numeric_many",
]


class QuadratureError(RuntimeError):
    """Raised when successive quadrature refinements fail to agree."""


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


@lru_cache(maxsize=8)
def _displacement_eigensystems(d: int):
    """Shared eigenvalues and the eigenvectors of both displacement directions.

    a+ - a = -i H1 and a+ + a = H2 with H1, H2 Hermitian; both are
    diagonalized once so D(x + iy) = exp(ixy) exp(x(a+-a)) exp(iy(a++a))
    can be evaluated on whole grids with small dense products.  H1 =
    S H2 S+ with S = diag(i^n), so only the real symmetric H2 is
    diagonalized and H1 shares its eigenvalues, with eigenvectors S V2.
    """
    a = annihilation_matrix(d)
    w, v2 = np.linalg.eigh((a.T + a).real)
    # exact powers of i: 1j**n drifts by 1e-12 at n ~ 330
    s = np.array([1.0, 1j, -1.0, -1j])[np.arange(d) % 4]
    return w, s[:, None] * v2, v2


def char_signal_numeric(rho: DensityMatrix, etas: np.ndarray, d_eval: int | None = None) -> np.ndarray:
    """Tr[rho D(eta)] evaluated exactly on an arbitrary set of points.

    The density matrix is zero-padded to ``d_eval`` levels so that
    displacements as large as the requested |eta| cannot push its
    support into the cutoff boundary; the default padding covers the
    largest displacement in ``etas`` plus the support of rho itself.

    The sum separates over the real and imaginary parts of eta, so it
    is evaluated on their distinct values: with n_x distinct real and
    n_y distinct imaginary parts it costs O(n_x d^2 + n_x n_y d) time
    and n_x n_y memory.  For a tensor grid that is the size of the
    output; for scattered points it is the square of their count.
    """
    etas = np.asarray(etas, dtype=complex)
    flat = etas.reshape(-1)
    r_max = float(np.abs(flat).max()) if flat.size else 0.0
    if d_eval is None:
        d_eval = max(rho.dim, math.ceil((r_max + math.sqrt(rho.dim) + 4.0) ** 2))
    if d_eval > 2048:
        raise CutoffError(f"characteristic function needs cutoff {d_eval} > 2048")
    padded = np.zeros((d_eval, d_eval), dtype=complex)
    padded[: rho.dim, : rho.dim] = rho.entries
    w, v1, v2 = _displacement_eigensystems(d_eval)
    # Tr[rho V1 E(x) V1+ V2 E(y) V2+] = sum_jk C[j,k] e^{-i x w_j} e^{i y w_k}
    cross = v1.conj().T @ v2
    weight = v2.conj().T @ padded @ v1
    c = cross * weight.T
    x = flat.real
    y = flat.imag
    xs, ix = np.unique(x, return_inverse=True)
    ys, iy = np.unique(y, return_inverse=True)
    ex = np.exp(-1j * np.outer(xs, w))
    ey = np.exp(1j * np.outer(ys, w))
    vals = ((ex @ c) @ ey.T)[ix, iy]
    vals *= np.exp(1j * x * y)
    return vals.reshape(etas.shape)


@dataclass(frozen=True)
class QuadratureGrid:
    """Square tensor trapezoid grid for the Wigner quadrature.

    ``half_width`` is the half side of the square in the eta plane;
    ``points`` the initial per-axis node count (kept odd so the origin
    is a node); refinement doubles the resolution until two successive
    values agree within ``tol`` or ``max_refinements`` is exhausted.
    """

    half_width: float
    points: int = 65
    tol: float = 1e-8
    max_refinements: int = 6

    def __post_init__(self) -> None:
        if not self.half_width > 0.0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.points < 9:
            raise ValueError(f"need at least 9 points per axis, got {self.points}")
        if self.points % 2 == 0:
            raise ValueError(f"points must be odd, got {self.points}")

    @classmethod
    def for_theta(cls, theta: float, **kw) -> "QuadratureGrid":
        """Half-width 6 max(1, sigma_Q sqrt(2)); generous for every theta."""
        return cls(half_width=6.0 * max(1.0, math.cosh(theta)), **kw)


def _wigner_on_grid(rho, mus: np.ndarray, half_width: float, n: int) -> np.ndarray:
    axis = np.linspace(-half_width, half_width, n)
    h = axis[1] - axis[0]
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    etas = axis[:, None] + 1j * axis[None, :]
    chi = char_signal_numeric(rho, etas)
    out = np.empty(mus.shape, dtype=complex)
    for i, mu in enumerate(mus.reshape(-1)):
        # e^{eta* mu - eta mu*} = e^{2i(x Im mu - y Re mu)} splits over axes
        u = w * np.exp(2j * axis * mu.imag)
        v = w * np.exp(-2j * axis * mu.real)
        out.reshape(-1)[i] = u @ chi @ v
    return out / (math.pi**2)


def wigner_numeric_many(rho: DensityMatrix, mus, grid: QuadratureGrid) -> np.ndarray:
    """Wigner density at many phase-space points from one refined quadrature.

    Integrates (1/pi^2) chi(eta) exp(eta* mu - eta mu*) over the square
    grid, doubling the resolution until the worst point moves by less
    than ``grid.tol``.  The characteristic function grid is shared by
    all requested points, so batching is much cheaper than per-point
    calls.
    """
    mus = np.asarray(mus, dtype=complex)
    n = grid.points
    prev = _wigner_on_grid(rho, mus, grid.half_width, n)
    for _ in range(grid.max_refinements):
        n = 2 * n - 1
        cur = _wigner_on_grid(rho, mus, grid.half_width, n)
        if np.max(np.abs(cur - prev)) <= grid.tol:
            return cur.real
        prev = cur
    raise QuadratureError(
        f"quadrature did not settle within {grid.tol:.1e} "
        f"after {grid.max_refinements} refinements"
    )


def wigner_numeric(rho: DensityMatrix, mu: complex, grid: QuadratureGrid) -> float:
    """Wigner density at a single point; see :func:`wigner_numeric_many`."""
    return float(wigner_numeric_many(rho, np.array([complex(mu)]), grid)[0])


def completeness_defect(
    theta: float,
    d: int,
    radius: float = 6.0,
    n_radial: int = 96,
    n_angular: int = 64,
    levels: int = 6,
) -> float:
    """Distance from the weighted state integral to the identity.

    Integrates the reduced squeeze-after-displace projectors over the
    tilde-invariant disk |alpha| <= radius with Gauss-Legendre nodes in
    radius and a periodic trapezoid in angle, multiplies by the
    completeness weight, and reports the largest deviation from the
    identity on the lowest ``levels`` Fock levels in operator 2-norm,
    inside the d-level window the accumulator keeps.

    Each radius sample is built at its own internally adequate cutoff:
    a state at |alpha| = r carries roughly (r e^theta)^2 photons, and
    squeezing it inside a window sized for the identity block alone
    unitarily reflects escaping amplitude back into low levels, which
    showed up as a percent-level excess on the block diagonal.  The
    angular samples enter through the exact rotation relation
    rho(r e^{i phi})[n, p] = e^{i phi (n - p)} rho(r)[n, p], so one
    squeeze application per radius covers the whole ring.
    """
    if theta < 0.0 or not math.isfinite(theta):
        raise ValueError(f"theta must be finite and >= 0, got {theta}")
    if not 1 <= levels <= d:
        raise ValueError(f"need 1 <= levels <= d, got levels={levels}, d={d}")
    nodes, weights = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * radius * (nodes + 1.0)
    wr = 0.5 * radius * weights * r  # includes the polar Jacobian
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
