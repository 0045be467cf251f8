"""Optical parametric oscillator realization of the thermal coherent state.

A nondegenerate OPO with a classical pump alternates between two
evolutions per cavity round trip: parametric down-conversion in the
crystal, generating signal-idler pairs, and external coherent drives on
both modes.  Over N trips with fixed total crystal time T1 and drive
time T2 the sliced product approaches a single combined exponential,
and the state it prepares from the two-mode vacuum is the
combined-exponential (Trotter) thermal coherent state with

    theta = chi2 * T1,  alpha = g_s * T2,  zeta = g_i * T2,

once signal is read as the ordinary mode and idler as the tilde mode.
That identification is structural bookkeeping, not a physics claim:
here the idler is a real photon mode, while the tilde mode it stands in
for is a fictitious doubling degree of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fockspace import (
    DensityMatrix,
    TwoModeState,
    _unitary_exp,
    annihilation_matrix,
    embed,
    reduced_density,
    vacuum_two_mode,
)
from .tfd_states import apply_exp_generator, displacement_D, generator_G, squeeze_U

__all__ = [
    "OpoParams",
    "closed_unitary",
    "h_drive",
    "h_interaction",
    "signal_density",
    "sliced_unitary",
]


@dataclass(frozen=True)
class OpoParams:
    """Pump coupling, drives, and the round-trip time budget.

    ``chi2`` is the effective second-order coupling (classical pump
    amplitude absorbed), ``g_s`` and ``g_i`` the signal and idler drive
    amplitudes, ``t1`` and ``t2`` the total time spent in the crystal
    and in the drive region over all ``n_slices`` round trips.  The
    squeeze and displacement parameters are derived on demand so they
    can never go stale.
    """

    chi2: float
    g_s: complex
    g_i: complex
    t1: float
    t2: float
    n_slices: int = 1

    def __post_init__(self) -> None:
        if not math.isfinite(self.chi2):
            raise ValueError(f"coupling must be finite, got {self.chi2}")
        for label, t in (("t1", self.t1), ("t2", self.t2)):
            if not (math.isfinite(t) and t >= 0.0):
                raise ValueError(f"{label} must be finite and >= 0, got {t}")
        for label, g in (("g_s", self.g_s), ("g_i", self.g_i)):
            if not (math.isfinite(g.real) and math.isfinite(g.imag)):
                raise ValueError(f"{label} must be finite, got {g}")
        if self.n_slices < 1:
            raise ValueError(f"need at least one round trip, got {self.n_slices}")

    @property
    def theta(self) -> float:
        """Accumulated squeeze parameter chi2 * t1."""
        return self.chi2 * self.t1

    @property
    def gamma_s(self) -> complex:
        """Accumulated signal displacement g_s * t2."""
        return complex(self.g_s) * self.t2

    @property
    def gamma_i(self) -> complex:
        """Accumulated idler displacement g_i * t2."""
        return complex(self.g_i) * self.t2

    @property
    def total_time(self) -> float:
        """Round-trip time budget t1 + t2."""
        return self.t1 + self.t2


def h_interaction(chi2: float, d: int) -> np.ndarray:
    """Down-conversion Hamiltonian i*chi2*(as+ ai+ - as ai), with hbar = 1.

    Equal to -chi2 times the squeeze generator, so exp(-i t H) is the
    two-mode squeeze by chi2 * t.  A different hbar rescales H and the
    time step of exp(-i t H / hbar) together and so changes no unitary.
    """
    return -chi2 * generator_G(d)


def h_drive(g_s: complex, g_i: complex, d: int) -> np.ndarray:
    """Coherent drive Hamiltonian i*(g a+ - g* a) on both modes, with hbar = 1.

    exp(-i t H) displaces signal by g_s * t and idler by g_i * t.
    """
    a = annihilation_matrix(d)
    ad = a.conj().T
    g_s = complex(g_s)
    g_i = complex(g_i)
    h = g_s * embed(ad, "ordinary") - g_s.conjugate() * embed(a, "ordinary")
    h += g_i * embed(ad, "tilde") - g_i.conjugate() * embed(a, "tilde")
    return 1j * h


def sliced_unitary(op: OpoParams, d: int) -> np.ndarray:
    """Round-trip product [exp(-i t1 H_int / N) exp(-i t2 H_drv / N)]^N.

    The crystal slice is applied after the drive slice within each trip
    (it stands leftmost in the product).  The two slice unitaries are the
    squeeze U(theta / N) and the displacement D(gamma_s / N, gamma_i / N).
    """
    n = op.n_slices
    one_trip = squeeze_U(op.theta / n, d) @ displacement_D(op.gamma_s / n, op.gamma_i / n, d)
    return np.linalg.matrix_power(one_trip, n)


def closed_unitary(op: OpoParams, d: int) -> np.ndarray:
    """Single-exponential limit exp(-i (t1 H_int + t2 H_drv)).

    Expands to exp[-theta(as ai - as+ ai+) + gamma_s as+ - gamma_s* as
    + gamma_i ai+ - gamma_i* ai], the combined-exponential thermal
    coherent state preparation.  It is built from the dense Hamiltonians,
    independently of the ladder-shift action behind the state builders.
    """
    return _unitary_exp(op.t1 * h_interaction(op.chi2, d) + op.t2 * h_drive(op.g_s, op.g_i, d))


def signal_density(op: OpoParams, d: int, tail_tol: float | None = None) -> DensityMatrix:
    """Reduced signal-mode state of closed_unitary applied to the vacuum.

    The vacuum column of the closed unitary is computed by direct
    exponential action (identical result, without assembling the d^2 by
    d^2 matrix), then the idler is traced out.
    """
    vec = apply_exp_generator(vacuum_two_mode(d), op.theta, op.gamma_s, op.gamma_i)
    state = TwoModeState.from_vector(vec, d, tail_tol=tail_tol)
    return reduced_density(state, "ordinary")
