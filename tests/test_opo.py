"""Tests for the parametric-oscillator realization of the state family."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from thermalcoherent import (
    DisplacementParams,
    OpoParams,
    StateKind,
    ThermalParams,
    build_state,
    closed_unitary,
    coherent_vector,
    h_drive,
    h_interaction,
    signal_density,
    sliced_unitary,
    vacuum_two_mode,
)
from thermalcoherent.fockspace import annihilation_matrix
from thermalcoherent.tfd_states import displacement_D, generator_G, squeeze_U

D = 20
UNITARY_TOL = 1e-12
PARAMS = OpoParams(chi2=0.5, g_s=0.8 + 0.2j, g_i=0.3 - 0.4j, t1=1.2, t2=0.9)


def test_interaction_hamiltonian_is_hermitian():
    h = h_interaction(0.7, D)
    assert np.abs(h - h.conj().T).max() < 1e-14
    assert np.abs(h + 0.7 * generator_G(D)).max() == 0.0


def test_crystal_evolution_is_two_mode_squeeze():
    chi2, t1 = 0.4, 1.5
    u = expm(-1j * t1 * h_interaction(chi2, D))
    assert np.abs(u - squeeze_U(chi2 * t1, D)).max() < UNITARY_TOL


def test_drive_hamiltonian_vanishes_without_drives():
    assert np.abs(h_drive(0.0, 0.0, D)).max() == 0.0


def test_drive_evolution_displaces_both_modes():
    g_s, g_i, t2 = 0.6 - 0.1j, 0.25j, 1.4
    u = expm(-1j * t2 * h_drive(g_s, g_i, D))
    psi = u @ vacuum_two_mode(D)
    target = np.kron(
        coherent_vector(g_s * t2, D, tail_tol=None),
        coherent_vector(g_i * t2, D, tail_tol=None),
    )
    assert np.abs(psi - target).max() < 1e-11


def test_single_slice_is_crystal_after_drive():
    op = OpoParams(**{**PARAMS.__dict__, "n_slices": 1})
    crystal = expm(-1j * op.t1 * h_interaction(op.chi2, D))
    drive = expm(-1j * op.t2 * h_drive(op.g_s, op.g_i, D))
    assert np.abs(sliced_unitary(op, D) - crystal @ drive).max() < UNITARY_TOL


def test_slicing_moot_without_pump():
    base = dict(chi2=0.0, g_s=0.5 + 0.5j, g_i=-0.2j, t1=1.0, t2=1.0)
    u1 = sliced_unitary(OpoParams(**base, n_slices=1), D)
    u16 = sliced_unitary(OpoParams(**base, n_slices=16), D)
    assert np.abs(u16 - u1).max() < 1e-11


def test_slicing_error_is_first_order():
    d = 14
    closed = closed_unitary(PARAMS, d)
    errs = {}
    for n in (32, 64):
        op = OpoParams(**{**PARAMS.__dict__, "n_slices": n})
        errs[n] = np.linalg.norm(sliced_unitary(op, d) - closed)
    assert errs[32] / errs[64] == pytest.approx(2.0, abs=0.2)


def test_closed_unitary_limits():
    squeeze_only = OpoParams(chi2=0.45, g_s=0.0, g_i=0.0, t1=1.0, t2=1.0)
    assert np.abs(closed_unitary(squeeze_only, D) - squeeze_U(0.45, D)).max() < UNITARY_TOL
    drive_only = OpoParams(chi2=0.0, g_s=0.7j, g_i=0.4, t1=1.0, t2=1.0)
    assert (
        np.abs(closed_unitary(drive_only, D) - displacement_D(0.7j, 0.4, D)).max()
        < UNITARY_TOL
    )


def test_closed_unitary_prepares_combined_exponential_state():
    d = 24
    column = closed_unitary(PARAMS, d)[:, 0]
    dp = DisplacementParams(alpha=PARAMS.gamma_s, zeta=PARAMS.gamma_i)
    tp = ThermalParams.from_theta(PARAMS.theta)
    state = build_state(StateKind.TROTTER, dp, tp, d=d, tail_tol=None)
    assert np.abs(column - state.amplitudes).max() < 1e-10


def test_signal_density_thermal_without_drives():
    op = OpoParams(chi2=0.35, g_s=0.0, g_i=0.0, t1=1.0, t2=1.0)
    rho = signal_density(op, 40).entries
    t = math.tanh(op.theta) ** 2
    n = np.arange(rho.shape[0])
    assert np.abs(np.diag(rho) - (1.0 - t) * t**n).max() < 1e-12
    off = rho - np.diag(np.diag(rho))
    assert np.abs(off).max() < 1e-14


def test_signal_density_pure_without_pump():
    op = OpoParams(chi2=0.0, g_s=0.6 - 0.3j, g_i=0.2, t1=1.0, t2=1.0)
    rho = signal_density(op, 30).entries
    purity = np.trace(rho @ rho).real
    assert purity == pytest.approx(1.0, abs=1e-10)


def test_signal_density_photon_number():
    """<n> = sinh^2(theta) + |mean amplitude|^2 for the mixed case."""
    from thermalcoherent import mode_means

    d = 45
    rho = signal_density(PARAMS, d).entries
    a = annihilation_matrix(rho.shape[0])
    n_obs = np.trace(rho @ (a.conj().T @ a)).real
    mu_s, _ = mode_means(
        StateKind.TROTTER, PARAMS.gamma_s, PARAMS.gamma_i, PARAMS.theta
    )
    expected = math.sinh(PARAMS.theta) ** 2 + abs(mu_s) ** 2
    assert n_obs == pytest.approx(expected, abs=1e-8)


def test_params_validation_and_derived_values():
    assert PARAMS.theta == pytest.approx(0.6)
    assert PARAMS.gamma_s == pytest.approx((0.8 + 0.2j) * 0.9)
    assert PARAMS.gamma_i == pytest.approx((0.3 - 0.4j) * 0.9)
    assert PARAMS.total_time == pytest.approx(2.1)
    with pytest.raises(ValueError, match="finite"):
        OpoParams(chi2=math.inf, g_s=0.0, g_i=0.0, t1=1.0, t2=1.0)
    with pytest.raises(ValueError, match="t2"):
        OpoParams(chi2=0.1, g_s=0.0, g_i=0.0, t1=1.0, t2=-0.5)
    with pytest.raises(ValueError, match="g_i"):
        OpoParams(chi2=0.1, g_s=0.0, g_i=complex(math.nan, 0.0), t1=1.0, t2=1.0)
    with pytest.raises(ValueError, match="round trip"):
        OpoParams(chi2=0.1, g_s=0.0, g_i=0.0, t1=1.0, t2=1.0, n_slices=0)
