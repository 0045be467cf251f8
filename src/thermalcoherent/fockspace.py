"""Dense linear algebra on a truncated two-mode bosonic Fock space.

The two modes are the ordinary mode and its tilde partner.  Every
flattened two-mode object in this package uses the index convention

    idx = n_ordinary * d + n_tilde

with d the per-mode cutoff, i.e. the ordinary mode is always the first
Kronecker factor.  Operators are dense complex arrays of shape
(d*d, d*d), pure states are vectors of length d*d, and reduced density
matrices are (d, d) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CutoffError",
    "DensityMatrix",
    "TwoModeState",
    "annihilation_matrix",
    "coherent_vector",
    "creation_matrix",
    "embed",
    "number_matrix",
    "partial_trace",
    "reduced_density",
    "two_mode_tail_mass",
    "vacuum_two_mode",
]


class CutoffError(RuntimeError):
    """Raised when a Fock cutoff is too small for the requested object."""


def _check_cutoff(d: int) -> int:
    d = int(d)
    if d < 2:
        raise ValueError(f"cutoff must be at least 2, got {d}")
    return d


def annihilation_matrix(d: int) -> np.ndarray:
    """Single-mode annihilation operator truncated to d levels.

    Matrix elements <n-1|a|n> = sqrt(n); everything else vanishes.
    """
    d = _check_cutoff(d)
    return np.diag(np.sqrt(np.arange(1.0, d)), k=1).astype(complex)


def creation_matrix(d: int) -> np.ndarray:
    """Hermitian conjugate of :func:`annihilation_matrix`."""
    return annihilation_matrix(d).conj().T


def number_matrix(d: int) -> np.ndarray:
    """Single-mode photon number operator on d levels."""
    d = _check_cutoff(d)
    return np.diag(np.arange(d, dtype=float)).astype(complex)


def embed(op: np.ndarray, slot: str) -> np.ndarray:
    """Promote a single-mode operator to the two-mode space.

    Parameters
    ----------
    op : (d, d) array
        Single-mode operator.
    slot : {'ordinary', 'tilde'}
        Which tensor factor the operator acts on.  The ordinary mode is
        the first Kronecker factor, the tilde mode the second.
    """
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {op.shape}")
    d = _check_cutoff(op.shape[0])
    eye = np.eye(d, dtype=complex)
    if slot == "ordinary":
        return np.kron(op, eye)
    if slot == "tilde":
        return np.kron(eye, op)
    raise ValueError(f"slot must be 'ordinary' or 'tilde', got {slot!r}")


def _unitary_exp(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for a Hermitian matrix h, from its eigendecomposition.

    The eigenvectors of a Hermitian matrix are orthonormal, so the result
    is unitary to rounding (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).
    """
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def coherent_vector(mu: complex, d: int, tail_tol: float | None = 1e-8) -> np.ndarray:
    """Normalized coherent-state amplitudes mu**n / sqrt(n!) on d levels.

    Raises
    ------
    CutoffError
        If the top two levels carry more population than ``tail_tol``.
        Pass ``tail_tol=None`` to skip the check (useful far out in
        phase space where truncation is accepted deliberately).
    """
    d = _check_cutoff(d)
    mu = complex(mu)
    if abs(mu) ** 2 > 1200.0:
        raise CutoffError(f"coherent amplitude |mu|={abs(mu):.3g} too large to normalize")
    amps = np.empty(d, dtype=complex)
    amps[0] = 1.0
    for n in range(1, d):
        amps[n] = amps[n - 1] * mu / np.sqrt(n)
    amps /= np.linalg.norm(amps)
    if tail_tol is not None:
        tail = float(np.sum(np.abs(amps[d - 2 :]) ** 2))
        if tail > tail_tol:
            raise CutoffError(
                f"coherent state at |mu|={abs(mu):.3g} has tail mass {tail:.3e} "
                f"above {tail_tol:.3e} at cutoff d={d}"
            )
    return amps


def vacuum_two_mode(d: int) -> np.ndarray:
    """The two-mode vacuum |0, 0~> as a flat vector of length d*d."""
    d = _check_cutoff(d)
    vec = np.zeros(d * d, dtype=complex)
    vec[0] = 1.0
    return vec


def two_mode_tail_mass(psi: np.ndarray, d: int) -> float:
    """Population in the top two levels of either mode of a pure state."""
    mat = np.asarray(psi).reshape(d, d)
    pops = np.abs(mat) ** 2
    tail = pops[d - 2 :, :].sum() + pops[: d - 2, d - 2 :].sum()
    return float(tail)


@dataclass(frozen=True)
class TwoModeState:
    """A normalized pure state of the ordinary plus tilde mode pair.

    Attributes
    ----------
    dim_per_mode : int
        Per-mode cutoff d; the amplitude vector has length d*d.
    amplitudes : np.ndarray
        Flat complex amplitudes, index n_ordinary * d + n_tilde.
    tail_mass : float
        Population in the top two levels of either mode, a proxy for
        the truncation error of the construction that produced it.
    """

    dim_per_mode: int
    amplitudes: np.ndarray
    tail_mass: float

    @classmethod
    def from_vector(
        cls,
        vec: np.ndarray,
        d: int,
        tail_tol: float | None = None,
    ) -> "TwoModeState":
        d = _check_cutoff(d)
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        if vec.size != d * d:
            raise ValueError(f"expected {d * d} amplitudes, got {vec.size}")
        if not np.all(np.isfinite(vec)):
            raise ValueError("state vector contains non-finite amplitudes")
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        vec = vec / norm
        tail = two_mode_tail_mass(vec, d)
        if tail_tol is not None and tail > tail_tol:
            raise CutoffError(
                f"tail mass {tail:.3e} exceeds tolerance {tail_tol:.3e} at d={d}"
            )
        return cls(dim_per_mode=d, amplitudes=vec, tail_mass=tail)

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (n_ordinary, n_tilde)."""
        d = self.dim_per_mode
        return self.amplitudes.reshape(d, d)

    def expectation(self, op: np.ndarray) -> complex:
        """<psi| op |psi> for a dense two-mode operator."""
        op = np.asarray(op)
        if op.shape != (self.amplitudes.size, self.amplitudes.size):
            raise ValueError(f"operator shape {op.shape} does not match state")
        return complex(np.vdot(self.amplitudes, op @ self.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Validated single-mode density matrix on d levels."""

    dim: int
    entries: np.ndarray

    @classmethod
    def from_array(cls, arr: np.ndarray, atol: float = 1e-10) -> "DensityMatrix":
        arr = np.asarray(arr, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("density matrix contains non-finite entries")
        scale = max(1.0, float(np.abs(arr).max()))
        defect = float(np.abs(arr - arr.conj().T).max())
        if defect > atol * scale:
            raise ValueError(f"density matrix not Hermitian, defect {defect:.3e}")
        arr = 0.5 * (arr + arr.conj().T)
        tr = float(arr.trace().real)
        if abs(tr - 1.0) > 100.0 * atol:
            raise ValueError(f"density matrix trace {tr!r} is not 1")
        lo = float(np.linalg.eigvalsh(arr).min())
        if lo < -100.0 * atol:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3e}")
        return cls(dim=arr.shape[0], entries=arr)

    def purity(self) -> float:
        return float(np.vdot(self.entries, self.entries).real)

    def mean_photon(self) -> float:
        return float(np.sum(np.arange(self.dim) * self.entries.diagonal().real))


def partial_trace(rho_full: np.ndarray, keep: str, atol: float = 1e-10) -> DensityMatrix:
    """Trace out one mode of a two-mode density operator.

    Parameters
    ----------
    rho_full : (d*d, d*d) array
        Two-mode density operator in the flattened index convention.
    keep : {'ordinary', 'tilde'}
        The mode that survives.
    atol : float
        Hermiticity and positivity tolerance for input validation.
    """
    rho_full = np.asarray(rho_full, dtype=complex)
    if rho_full.ndim != 2 or rho_full.shape[0] != rho_full.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho_full.shape}")
    d = int(round(np.sqrt(rho_full.shape[0])))
    if d * d != rho_full.shape[0]:
        raise ValueError(f"matrix dimension {rho_full.shape[0]} is not a perfect square")
    scale = max(1.0, float(np.abs(rho_full).max()))
    defect = float(np.abs(rho_full - rho_full.conj().T).max())
    if defect > atol * scale:
        raise ValueError(f"two-mode density operator not Hermitian, defect {defect:.3e}")
    blocks = rho_full.reshape(d, d, d, d)  # [n_ord, n_til, m_ord, m_til]
    if keep == "ordinary":
        reduced = np.einsum("nkmk->nm", blocks)
    elif keep == "tilde":
        reduced = np.einsum("knkm->nm", blocks)
    else:
        raise ValueError(f"keep must be 'ordinary' or 'tilde', got {keep!r}")
    return DensityMatrix.from_array(reduced, atol=atol)


def reduced_density(state: TwoModeState, keep: str, atol: float = 1e-10) -> DensityMatrix:
    """Reduced density matrix of a pure two-mode state.

    Equivalent to ``partial_trace`` of the rank-one projector but formed
    directly from the (d, d) amplitude matrix, which is much cheaper.
    """
    mat = state.as_matrix()
    if keep == "ordinary":
        reduced = mat @ mat.conj().T
    elif keep == "tilde":
        reduced = mat.T @ mat.conj()
    else:
        raise ValueError(f"keep must be 'ordinary' or 'tilde', got {keep!r}")
    return DensityMatrix.from_array(reduced, atol=atol)
