"""Batched exact operator actions used by the operator-identity tests.

Comparing products of squeeze and displacement operators at a finite
cutoff d is only meaningful on states that stay far away from the
truncation boundary: the operators are exact on the infinite space, and
a truncated exponential misrepresents the top Fock levels.  The helpers
here apply the operators exactly (small dense exponentials per
number-difference sector, per-mode exponentials for displacements) to a
batch of corner basis columns embedded in a larger working space, so
the corner-restricted gap between two operator expressions can be
measured without the boundary artifacts.
"""

from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from thermalcoherent import annihilation_matrix


@lru_cache(maxsize=4)
def _sector_eigs(d: int):
    """Eigendecompositions of the squeeze generator, one per n - m sector."""
    out = []
    for k in range(-(d - 1), d):
        size = d - abs(k)
        n0, m0 = max(k, 0), max(-k, 0)
        idx = np.array([(j + n0) * d + (j + m0) for j in range(size)])
        if size == 1:
            out.append((idx, None, None))
            continue
        j = np.arange(size - 1)
        coup = np.sqrt((j + n0 + 1.0) * (j + m0 + 1.0))
        b = np.zeros((size, size), dtype=complex)
        b[j + 1, j] = coup
        b[j, j + 1] = -coup
        # b is antihermitian; exp(theta*b) = V exp(-i theta w) V+ with w, V from i*b
        w, v = np.linalg.eigh(1j * b)
        out.append((idx, w, v))
    return out


def squeeze_apply(block: np.ndarray, theta: float) -> np.ndarray:
    """Apply exp[theta(a+ a~+ - a a~)] to a (d, d, batch) amplitude block."""
    d = block.shape[0]
    flat = block.reshape(d * d, -1)
    out = np.empty_like(flat)
    for idx, w, v in _sector_eigs(d):
        if w is None:
            out[idx[0]] = flat[idx[0]]
        else:
            out[idx] = (v * np.exp(-1j * theta * w)) @ (v.conj().T @ flat[idx])
    return out.reshape(block.shape)


@lru_cache(maxsize=8)
def displacement(d: int, amp: complex) -> np.ndarray:
    """Single-mode displacement exp(amp a+ - amp* a) at cutoff d."""
    a = annihilation_matrix(d)
    return expm(amp * a.conj().T - np.conj(amp) * a)


def displace_apply(block: np.ndarray, alpha: complex, zeta: complex) -> np.ndarray:
    """Apply the two-mode displacement D(alpha, zeta) to a (d, d, batch) block."""
    d = block.shape[0]
    out = (displacement(d, complex(alpha)) @ block.reshape(d, -1)).reshape(block.shape)
    # the tilde factor acts on axis 1 of every ordinary-mode row at once
    return np.matmul(displacement(d, complex(zeta)), out)


def corner_block(d_big: int, d_corner: int) -> np.ndarray:
    """Basis columns of the d_corner x d_corner corner inside a d_big space."""
    block = np.zeros((d_big, d_big, d_corner * d_corner), dtype=complex)
    n = np.repeat(np.arange(d_corner), d_corner)
    m = np.tile(np.arange(d_corner), d_corner)
    block[n, m, np.arange(d_corner * d_corner)] = 1.0
    return block


def product_identity_gaps(
    decomposition,
    alpha: complex,
    zeta: complex,
    theta: float,
    n_slices: int,
    n_max: int,
    d_corner: int,
    d_big: int,
) -> list[tuple[int, float]]:
    """Frobenius gaps between the n-slice product and its collapsed form.

    ``decomposition`` is the callable producing (phase, angle, alpha_n,
    zeta_n) for given (alpha, zeta, theta, N, n).  Both operator
    expressions act on the corner basis columns inside a d_big working
    space; the returned gap at each n upper-bounds the corner-restricted
    operator 2-norm difference.
    """
    cur = corner_block(d_big, d_corner)
    gaps = []
    for n in range(1, n_max + 1):
        cur = displace_apply(cur, alpha / n_slices, zeta / n_slices)
        cur = squeeze_apply(cur, theta / n_slices)
        phase, angle, alpha_n, zeta_n = decomposition(alpha, zeta, theta, n_slices, n)
        # D(alpha_n, zeta_n)|j, k~> = D|j> (x) D~|k>, the corner columns in corner_block order
        ord_cols = displacement(d_big, complex(alpha_n))[:, :d_corner]
        til_cols = displacement(d_big, complex(zeta_n))[:, :d_corner]
        rhs = (ord_cols[:, None, :, None] * til_cols[None, :, None, :]).reshape(d_big, d_big, -1)
        rhs = squeeze_apply(rhs, angle) * np.exp(1j * phase)
        gaps.append((n, float(np.linalg.norm(cur - rhs))))
    return gaps
