"""Displaced two-mode squeezed states in the doubled Fock space.

Three inequivalent operator orderings produce three families of thermal
coherent states from the same displacement amplitudes (alpha, zeta) and
thermal mixing angle theta:

* ``ROUND``    squeeze after displacing,  U(theta) D(alpha, zeta) |0,0~>
* ``DOUBLE``   displace after squeezing,  D(alpha, zeta) U(theta) |0,0~>
* ``TROTTER``  the N -> infinity limit of interleaved 1/N slices, equal
  to a single exponential of the summed generators.

The mixing angle comes from the Bose occupation at inverse temperature
beta:  cosh(theta) = (1 - exp(-beta*eps))**-1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fockspace import (
    CutoffError,
    TwoModeState,
    _unitary_exp,
    annihilation_matrix,
    creation_matrix,
    embed,
    vacuum_two_mode,
)

__all__ = [
    "DisplacementParams",
    "StateKind",
    "ThermalParams",
    "apply_exp_generator",
    "build_state",
    "build_trotter_finite",
    "default_cutoff",
    "displacement_D",
    "generator_G",
    "improper_displacement",
    "improper_eigenvector",
    "squeeze_U",
    "theta_of_beta",
    "xi_operator",
]

MAX_ADAPTIVE_CUTOFF = 4096


class StateKind(Enum):
    """Operator ordering used to prepare a thermal coherent state."""

    ROUND = "round"
    DOUBLE = "double"
    TROTTER = "trotter"


def theta_of_beta(beta: float, epsilon: float) -> float:
    """Thermal mixing angle for inverse temperature beta and quantum epsilon.

    Defined by sinh(theta) = (exp(beta*epsilon) - 1)**-1/2, which also
    gives cosh(theta) = (1 - exp(-beta*epsilon))**-1/2.  beta = inf is
    allowed and maps to theta = 0.
    """
    if not beta > 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if math.isinf(beta):
        return 0.0
    return math.asinh(1.0 / math.sqrt(math.expm1(beta * epsilon)))


@dataclass(frozen=True)
class ThermalParams:
    """Inverse temperature, mode quantum, and the derived mixing angle."""

    beta: float
    epsilon: float
    theta: float

    def __post_init__(self) -> None:
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.epsilon > 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.theta < 0.0 or not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite and >= 0, got {self.theta}")
        expected = theta_of_beta(self.beta, self.epsilon)
        if abs(expected - self.theta) > 1e-12 * max(1.0, self.theta):
            raise ValueError(
                f"inconsistent parameters: theta_of_beta gives {expected!r}, "
                f"got theta={self.theta!r}"
            )

    @classmethod
    def from_beta(cls, beta: float, epsilon: float = 1.0) -> "ThermalParams":
        return cls(beta=beta, epsilon=epsilon, theta=theta_of_beta(beta, epsilon))

    @classmethod
    def from_theta(cls, theta: float, epsilon: float = 1.0) -> "ThermalParams":
        """Inverse map: the beta whose mixing angle is the given theta."""
        if theta < 0.0 or not math.isfinite(theta):
            raise ValueError(f"theta must be finite and >= 0, got {theta}")
        if theta == 0.0:
            beta = math.inf
        else:
            s = math.sinh(theta)
            beta = math.log1p(1.0 / (s * s)) / epsilon
        return cls(beta=beta, epsilon=epsilon, theta=theta)


@dataclass(frozen=True)
class DisplacementParams:
    """Displacement amplitudes of the ordinary and tilde modes."""

    alpha: complex
    zeta: complex
    tilde_invariant: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "zeta", complex(self.zeta))
        for name in ("alpha", "zeta"):
            val = getattr(self, name)
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise ValueError(f"{name} must be finite, got {val!r}")
        if self.tilde_invariant and self.zeta != self.alpha.conjugate():
            raise ValueError(
                f"tilde invariance requires zeta == conj(alpha); "
                f"got alpha={self.alpha!r}, zeta={self.zeta!r}"
            )

    @classmethod
    def invariant(cls, alpha: complex) -> "DisplacementParams":
        """Tilde-invariant parameters, zeta = conj(alpha)."""
        alpha = complex(alpha)
        return cls(alpha=alpha, zeta=alpha.conjugate(), tilde_invariant=True)


def generator_G(d: int) -> np.ndarray:
    """Hermitian squeeze generator G = i(a a~ - a~+ a+) on the doubled space."""
    a = annihilation_matrix(d)
    pair = np.kron(a, a)  # a a~, the ordinary mode being the first factor
    return 1j * (pair - pair.conj().T)


def displacement_D(alpha: complex, zeta: complex, d: int) -> np.ndarray:
    """Two-mode displacement exp(alpha a+ - alpha* a + zeta a~+ - zeta* a~).

    The two single-mode generators commute exactly, also after
    truncation, so the operator factorizes into a Kronecker product of
    single-mode exponentials exp(-i h) with h = i(z a+ - z* a) Hermitian.
    """
    a = annihilation_matrix(d)
    h_ord = 1j * (complex(alpha) * a.conj().T - np.conj(alpha) * a)
    h_til = 1j * (complex(zeta) * a.conj().T - np.conj(zeta) * a)
    return np.kron(_unitary_exp(h_ord), _unitary_exp(h_til))


def squeeze_U(theta: float, d: int) -> np.ndarray:
    """Thermal Bogoliubov unitary U = exp(i theta G) as a dense matrix.

    The generator conserves the photon-number difference between the
    modes, so the exponential is assembled block by block along the
    difference sectors; each block is exp(-i h) of the small Hermitian
    sector block h of -theta G.
    """
    theta = float(theta)
    dim = d * d
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(-(d - 1), d):
        size = d - abs(k)
        # basis of sector k: |j + max(k,0), j + max(-k,0)> for j = 0..size-1
        n0, m0 = max(k, 0), max(-k, 0)
        idx = np.array([(j + n0) * d + (j + m0) for j in range(size)])
        j = np.arange(size - 1)
        coup = theta * np.sqrt((j + n0 + 1.0) * (j + m0 + 1.0))
        block = np.zeros((size, size), dtype=complex)
        block[j + 1, j] = 1j * coup
        block[j, j + 1] = -1j * coup
        out[np.ix_(idx, idx)] = _unitary_exp(block)
    return out


def _generator_bound(theta: float, alpha: complex, zeta: complex, d: int) -> float:
    # Gershgorin bound on the spectral radius of the truncated generator
    # (largest absolute row sum); the Chebyshev expansion in
    # apply_exp_generator diverges if the spectrum ever leaves [-R, R]
    return 2.0 * abs(theta) * (d - 1) + 2.0 * (abs(alpha) + abs(zeta)) * math.sqrt(d)


def _bessel_j(x: float, cut: float) -> np.ndarray:
    """Bessel values J_0(x), ..., J_K(x) for x > 0, K the first order above x with 2|J_K| <= cut.

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1} runs down
    from an order where the bound |J_k(x)| <= (x/2)**k / k! is below
    cut / 1000, so the discarded start perturbs the result far below
    ``cut``, and is normalised by J_0 + 2 sum_k J_2k = 1.
    """
    log_half = math.log(0.5 * x)
    log_floor = math.log(1e-3 * cut)
    top = math.floor(x) + 1
    while top * log_half - math.lgamma(top + 1.0) > log_floor:
        top += 1
    vals = [0.0] * (top + 2)
    vals[top] = 1.0
    for k in range(top, 0, -1):
        prev = (2.0 * k / x) * vals[k] - vals[k + 1]
        if abs(prev) > 1e250:  # the values grow as 1/J_top; rescale before overflow
            vals = [v * 1e-250 for v in vals]
            prev *= 1e-250
        vals[k - 1] = prev
    j = np.array(vals[: top + 1])
    j /= j[0] + 2.0 * j[2::2].sum()
    small = np.flatnonzero(2.0 * np.abs(j[math.floor(x) + 1 :]) <= cut)
    return j[: math.floor(x) + 1 + small[0] + 1]


def apply_exp_generator(
    psi: np.ndarray,
    theta: float,
    alpha: complex,
    zeta: complex,
    tol: float = 1e-14,
) -> np.ndarray:
    """Apply exp[theta(a+ a~+ - a a~) + alpha a+ - alpha* a + zeta a~+ - zeta* a~].

    The generator A only shifts Fock indices by one per mode, so its
    action on the (d, d) amplitude matrix costs O(d**2).  A is
    anti-Hermitian with spectrum inside i[-R, R], R from
    :func:`_generator_bound`, so the exponential is the Chebyshev
    expansion exp(A) = J_0(R) + 2 sum_k (-i)**k J_k(R) T_k(iA/R)
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  With
    u_k = (-i)**k T_k(iA/R) psi the three-term recurrence becomes
    u_{k+1} = (2/R) A u_k + u_{k-1} with real coefficients 2 J_k(R).
    The series stops at the first order K > R with 2|J_K(R)| <= tol/10;
    as ||u_k|| <= ||psi||, the truncation error is at most
    sum_{k>K} 2|J_k(R)| ||psi||, about ``tol`` times the state norm.
    That takes about R + O(R**(1/3)) generator actions.
    """
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    d = int(round(math.sqrt(vec.size)))
    if d * d != vec.size:
        raise ValueError(f"state length {vec.size} is not a perfect square")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    theta = float(theta)
    alpha = complex(alpha)
    zeta = complex(zeta)
    bound = _generator_bound(theta, alpha, zeta, d)
    if bound == 0.0:
        return vec.copy()
    coef = 2.0 * _bessel_j(bound, 0.1 * tol)
    coef[0] *= 0.5
    scale = 2.0 / bound
    # Amplitude (n, m) sits at flat index n*w + m of a buffer with rows of
    # w = d + 1 and a zero last column, so every index shift of A is a
    # fixed flat offset and each term below acts on contiguous slices.
    # Coefficients vanish wherever a shift would leave the (d, d) block.
    w = d + 1
    root = np.zeros(w)
    root[: d - 1] = np.sqrt(np.arange(1.0, d))
    # (offset, rows, raising coefficient, lowering coefficient) of each
    # term of (2/R) A: the raising part adds up * src[i] at i + offset,
    # the lowering part subtracts down * src[i + offset] at i
    shifts = []
    if theta != 0.0:  # a+ a~+ - a a~ moves (n, m) by (1, 1)
        pair = ((scale * theta) * root[: d - 1, None] * root[None, :]).astype(complex)
        shifts.append((w + 1, d - 1, pair, pair))
    if alpha != 0.0:  # a+, a move n by one row
        col = root[: d - 1, None]
        shifts.append((w, d - 1, (scale * alpha) * col, (scale * alpha.conjugate()) * col))
    if zeta != 0.0:  # a~+, a~ move m by one column
        shifts.append((1, d, (scale * zeta) * root, (scale * zeta.conjugate()) * root))

    def block(buf: np.ndarray, start: int, rows: int) -> np.ndarray:
        return buf[start : start + rows * w].reshape(rows, w)

    def add_action(dst: np.ndarray, src: np.ndarray) -> None:
        # dst += (2/R) A src, each term through the work buffer
        for offset, rows, up, down in shifts:
            part = block(work, 0, rows)
            np.multiply(up, block(src, 0, rows), out=part)
            block(dst, offset, rows)[...] += part
            np.multiply(down, block(src, offset, rows), out=part)
            block(dst, 0, rows)[...] -= part

    prev, cur, work = (np.zeros((d + 1) * w, dtype=complex) for _ in range(3))
    block(prev, 0, d)[:, :d] = vec.reshape(d, d)
    add_action(cur, prev)
    cur *= 0.5  # u_1 = (1/R) A psi
    out = coef[0] * prev
    out += coef[1] * cur
    for c in coef[2:]:
        add_action(prev, cur)  # u_{k+1} overwrites u_{k-1}
        np.multiply(prev, c, out=work)
        out += work
        prev, cur = cur, prev
    return block(out, 0, d)[:, :d].reshape(-1)


def default_cutoff(magnitude: float, theta: float) -> int:
    """Initial per-mode cutoff for a displaced thermal state.

    Sized as (magnitude + 3)**2 plus ten times the thermal occupation
    sinh(theta)**2; callers double it until the tail mass test passes.
    """
    s = math.sinh(theta)
    return max(2, math.ceil((magnitude + 3.0) ** 2 + 10.0 * s * s))


def _build_vector(kind: StateKind, dp: DisplacementParams, theta: float, d: int) -> np.ndarray:
    vac = vacuum_two_mode(d)
    if kind is StateKind.ROUND:
        vec = apply_exp_generator(vac, 0.0, dp.alpha, dp.zeta)
        return apply_exp_generator(vec, theta, 0.0, 0.0)
    if kind is StateKind.DOUBLE:
        vec = apply_exp_generator(vac, theta, 0.0, 0.0)
        return apply_exp_generator(vec, 0.0, dp.alpha, dp.zeta)
    if kind is StateKind.TROTTER:
        return apply_exp_generator(vac, theta, dp.alpha, dp.zeta)
    raise ValueError(f"unknown state kind {kind!r}")


def _adaptive_build(build, magnitude: float, theta: float, d: int | None, tail_tol: float):
    """Run ``build(d)`` at the adaptive cutoff, doubling until the tail fits."""
    if d is not None:
        return TwoModeState.from_vector(build(d), d, tail_tol=tail_tol)
    d = default_cutoff(magnitude, theta)
    while d <= MAX_ADAPTIVE_CUTOFF:
        vec = build(d)
        try:
            return TwoModeState.from_vector(vec, d, tail_tol=tail_tol)
        except CutoffError:
            d *= 2
    raise CutoffError(
        f"adaptive cutoff exceeded {MAX_ADAPTIVE_CUTOFF} before the "
        f"tail mass dropped below {tail_tol:.3e}"
    )


def build_state(
    kind: StateKind,
    dp: DisplacementParams,
    tp: ThermalParams,
    d: int | None = None,
    tail_tol: float = 1e-8,
) -> TwoModeState:
    """Construct a thermal coherent state of the requested kind.

    With ``d=None`` the cutoff starts at :func:`default_cutoff` and is
    doubled until the tail mass falls below ``tail_tol``; an explicit
    ``d`` skips the search but still enforces the tolerance.
    """
    magnitude = max(abs(dp.alpha), abs(dp.zeta))
    return _adaptive_build(
        lambda dd: _build_vector(kind, dp, tp.theta, dd),
        magnitude,
        tp.theta,
        d,
        tail_tol,
    )


def build_trotter_finite(
    dp: DisplacementParams,
    tp: ThermalParams,
    N: int,
    d: int | None = None,
    tail_tol: float = 1e-8,
) -> TwoModeState:
    """The N-slice interleaved product state [U**(1/N) D**(1/N)]**N |0,0~>.

    Each slice applies the 1/N displacement first and the 1/N squeeze
    second.  N = 1 reproduces the ROUND ordering with the full
    amplitudes; N -> infinity converges to the TROTTER state at rate 1/N.
    """
    N = int(N)
    if N < 1:
        raise ValueError(f"slice count N must be >= 1, got {N}")
    theta = tp.theta
    a_slice = dp.alpha / N
    z_slice = dp.zeta / N
    t_slice = theta / N

    def build(dd: int) -> np.ndarray:
        vec = vacuum_two_mode(dd)
        for _ in range(N):
            vec = apply_exp_generator(vec, 0.0, a_slice, z_slice)
            vec = apply_exp_generator(vec, t_slice, 0.0, 0.0)
        return vec

    magnitude = max(abs(dp.alpha), abs(dp.zeta))
    return _adaptive_build(build, magnitude, theta, d, tail_tol)


def xi_operator(tp: ThermalParams, d: int) -> np.ndarray:
    """Thermal annihilation operator xi = cosh(theta) a - sinh(theta) a~+.

    This is U(theta) a U(theta)+; it kills the squeezed vacuum, and
    every thermal coherent state is one of its eigenvectors.
    """
    a = embed(annihilation_matrix(d), "ordinary")
    atd = embed(creation_matrix(d), "tilde")
    return math.cosh(tp.theta) * a - math.sinh(tp.theta) * atd


def xi_residual(state: TwoModeState, tp: ThermalParams, eigenvalue: complex) -> float:
    """Norm of (xi - eigenvalue) applied to the state.

    xi shifts one Fock index per mode, so its action is two shifted
    copies of the (d, d) amplitude matrix; no dense operator is formed,
    which keeps residual checks cheap at the large cutoffs that tight
    tail tolerances demand.
    """
    d = state.dim_per_mode
    m = state.amplitudes.reshape(d, d)
    sq = np.sqrt(np.arange(1.0, d))
    out = -complex(eigenvalue) * m
    # cosh(theta) a: row n picks up sqrt(n+1) m[n+1]
    out[:-1, :] += math.cosh(tp.theta) * sq[:, None] * m[1:, :]
    # -sinh(theta) a~+: column m picks up sqrt(m) m[:, m-1]
    out[:, 1:] -= math.sinh(tp.theta) * sq[None, :] * m[:, :-1]
    return float(np.linalg.norm(out))


def improper_displacement(f: complex, tp: ThermalParams) -> DisplacementParams:
    """Displacement amplitudes (mu, nu) of the improper xi eigenvector.

    exp(f xi+ - f* xi) is itself a two-mode displacement with
    mu = cosh(theta) f on the ordinary mode and nu = sinh(theta) f* on
    the tilde mode.  For f != 0 and finite temperature these violate
    tilde invariance by |mu* - nu| = |f| (cosh(theta) - sinh(theta)).
    """
    f = complex(f)
    mu = math.cosh(tp.theta) * f
    nu = math.sinh(tp.theta) * f.conjugate()
    return DisplacementParams(alpha=mu, zeta=nu)


def improper_eigenvector(
    f: complex,
    tp: ThermalParams,
    d: int | None = None,
    tail_tol: float = 1e-8,
) -> TwoModeState:
    """exp(f xi+ - f* xi) U(theta) |0,0~>, an eigenvector of xi with eigenvalue f.

    The state is a legitimate vector in the doubled space but lies
    outside the tilde-invariant subspace, which is what makes the
    family improper as a thermal-state expansion basis.
    """
    return build_state(StateKind.DOUBLE, improper_displacement(f, tp), tp, d, tail_tol)
