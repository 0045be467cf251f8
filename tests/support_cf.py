"""Shared oracles for moment tests: quadrature actions and CF derivatives.

``apply_quadrature`` realizes one of the four quadratures as a shift
action on the (d, d) amplitude matrix of a two-mode state, so moment
checks scale to the cutoffs that tight tail tolerances require without
ever forming a d**2 x d**2 matrix.  ``cf_moments_fd`` differentiates
the closed-form characteristic function numerically in multiprecision
arithmetic, giving a derivative-based route to the same means and
covariances that the closed-form moment oracle hard-codes.
``char_signal_expm`` evaluates the single-mode characteristic function
Tr[rho D(eta)] of a density matrix with a dense matrix exponential.
"""

import numpy as np
from support_ops import displacement

from thermalcoherent import PhysicalConstants, cf_full, char_function_args

QUADRATURES = ("Q", "P", "Qt", "Pt")


def apply_quadrature(mat: np.ndarray, which: str, pc: PhysicalConstants) -> np.ndarray:
    """Apply Q, P, Q~ or P~ to a (d, d) two-mode amplitude matrix."""
    d = mat.shape[0]
    sq = np.sqrt(np.arange(1.0, d))
    raised = np.zeros_like(mat)
    lowered = np.zeros_like(mat)
    if which in ("Q", "P"):
        raised[1:, :] = sq[:, None] * mat[:-1, :]
        lowered[:-1, :] = sq[:, None] * mat[1:, :]
        if which == "Q":
            return pc.q_scale * (raised + lowered)
        return 1j * pc.p_scale * (raised - lowered)
    if which in ("Qt", "Pt"):
        raised[:, 1:] = sq[None, :] * mat[:, :-1]
        lowered[:, :-1] = sq[None, :] * mat[:, 1:]
        if which == "Qt":
            return pc.q_scale * (raised + lowered)
        return -1j * pc.p_scale * (raised - lowered)
    raise ValueError(f"unknown quadrature {which!r}")


def fock_moments(state, pc: PhysicalConstants):
    """Means and symmetrized covariance of all four quadratures.

    Since each quadrature R is Hermitian, <R_i R_j> = <R_i psi | R_j psi>
    and the symmetrized second moment is its real part; one application
    per quadrature suffices.
    """
    d = state.dim_per_mode
    mat = state.amplitudes.reshape(d, d)
    applied = [apply_quadrature(mat, w, pc).reshape(-1) for w in QUADRATURES]
    flat = state.amplitudes
    mean = np.array([np.vdot(flat, ap).real for ap in applied])
    cov = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            sym = np.vdot(applied[i], applied[j]).real
            cov[i, j] = sym - mean[i] * mean[j]
    return mean, cov


def cf_moments_fd(
    alpha: complex,
    zeta: complex,
    theta: float,
    pc: PhysicalConstants = PhysicalConstants(),
    h: float = 1e-5,
    dps: int = 40,
):
    """Means and covariance from central differences of the closed-form CF.

    The characteristic function is evaluated in multiprecision so the
    O(h**-2) amplification of the second-difference stencils costs no
    accuracy; the only residual error is the O(h**2) truncation of the
    stencils themselves.
    """
    import mpmath

    with mpmath.workdps(dps):
        step = mpmath.mpf(h)

        def cf(r):
            gamma, gamma_p = char_function_args(r[0], r[1], r[2], r[3], pc)
            return cf_full(alpha, zeta, theta, gamma, gamma_p)

        zero = [mpmath.mpf(0)] * 4

        def shifted(*pairs):
            r = list(zero)
            for idx, sign in pairs:
                r[idx] += sign * step
            return cf(r)

        mean = np.empty(4)
        for j in range(4):
            der = (shifted((j, +1)) - shifted((j, -1))) / (2 * step)
            mean[j] = float(mpmath.re(1j * der))
        cov = np.empty((4, 4))
        for j in range(4):
            djj = (shifted((j, +1)) - 2 + shifted((j, -1))) / step**2
            cov[j, j] = float(mpmath.re(-djj)) - mean[j] ** 2
        for j in range(4):
            for k in range(j + 1, 4):
                djk = (
                    shifted((j, +1), (k, +1))
                    - shifted((j, +1), (k, -1))
                    - shifted((j, -1), (k, +1))
                    + shifted((j, -1), (k, -1))
                ) / (4 * step**2)
                cov[j, k] = cov[k, j] = float(mpmath.re(-djk)) - mean[j] * mean[k]
    return mean, cov


def char_signal_expm(rho, etas, pad: int = 40) -> np.ndarray:
    """Tr[rho D(eta)] with D = expm(eta a+ - eta* a) at cutoff rho.dim + pad.

    The truncated exponential is wrong only near its top levels; the
    padding keeps those far above the support of rho for |eta| of order
    a few.
    """
    etas = np.asarray(etas, dtype=complex)
    d = rho.dim + pad
    padded = np.zeros((d, d), dtype=complex)
    padded[: rho.dim, : rho.dim] = rho.entries
    vals = [np.trace(padded @ displacement(d, complex(e))) for e in etas.flat]
    return np.array(vals).reshape(etas.shape)
