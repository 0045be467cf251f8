"""Tests for the truncated Fock-space primitives."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from thermalcoherent import (
    CutoffError,
    DensityMatrix,
    TwoModeState,
    annihilation_matrix,
    coherent_vector,
    creation_matrix,
    embed,
    number_matrix,
    partial_trace,
    reduced_density,
    two_mode_tail_mass,
    vacuum_two_mode,
)
from thermalcoherent.fockspace import _unitary_exp

RNG_SEED = 20240817


def test_ladder_action_on_number_states():
    d = 7
    a = annihilation_matrix(d)
    ad = creation_matrix(d)
    for n in range(1, d):
        e_n = np.zeros(d)
        e_n[n] = 1.0
        lowered = a @ e_n
        assert lowered[n - 1] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(lowered) == 1
    assert np.allclose(ad, a.conj().T)
    # the top level is annihilated by the truncated creation operator
    top = np.zeros(d)
    top[d - 1] = 1.0
    assert np.linalg.norm(ad @ top) == 0.0


def test_commutator_is_identity_except_top_corner():
    d = 9
    a = annihilation_matrix(d)
    comm = a @ creation_matrix(d) - creation_matrix(d) @ a
    expected = np.eye(d)
    expected[d - 1, d - 1] = 1.0 - d
    assert np.allclose(comm, expected, atol=1e-14)


def test_number_matrix_is_ad_a():
    d = 11
    assert np.allclose(
        number_matrix(d), creation_matrix(d) @ annihilation_matrix(d), atol=1e-14
    )
    assert np.allclose(number_matrix(d).diagonal(), np.arange(d))


def test_embed_index_convention():
    """Flat index n_ordinary * d + n_tilde, ordinary slot on the left."""
    d = 4
    n_ord = embed(number_matrix(d), "ordinary")
    n_til = embed(number_matrix(d), "tilde")
    for n in range(d):
        for m in range(d):
            basis = np.zeros(d * d)
            basis[n * d + m] = 1.0
            assert n_ord @ basis == pytest.approx(n * basis)
            assert n_til @ basis == pytest.approx(m * basis)


def test_embed_rejects_unknown_slot():
    with pytest.raises(ValueError):
        embed(number_matrix(3), "signal")


@pytest.mark.parametrize("scale", [0.0, 0.3, 7.5])
def test_unitary_exp_matches_expm_and_is_unitary(scale):
    rng = np.random.default_rng(RNG_SEED + 1)
    h = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = h + h.conj().T
    h *= scale / np.linalg.norm(h, 2)
    u = _unitary_exp(h)
    assert np.allclose(u @ u.conj().T, np.eye(8), atol=1e-13)
    assert np.allclose(u, expm(-1j * h), atol=1e-12)


def test_coherent_vector_poisson_statistics():
    mu = 1.3 + 0.4j
    d = 42
    amps = coherent_vector(mu, d)
    assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-14)
    nbar = abs(mu) ** 2
    pops = np.abs(amps) ** 2
    poisson = np.array(
        [math.exp(-nbar) * nbar**n / math.factorial(n) for n in range(d)]
    )
    assert np.allclose(pops, poisson, atol=1e-12)
    assert float(np.arange(d) @ pops) == pytest.approx(nbar, abs=1e-10)


def test_coherent_vector_tail_guard():
    with pytest.raises(CutoffError):
        coherent_vector(3.0, 6)
    # explicit opt-out skips the check
    amps = coherent_vector(3.0, 6, tail_tol=None)
    assert amps.shape == (6,)
    with pytest.raises(CutoffError):
        coherent_vector(40.0, 64)  # |mu|^2 too large to normalize at all


def test_coherent_vector_phase_convention():
    """c_n = mu**n / sqrt(n!) up to overall normalization, no extra phases."""
    mu = 0.7j
    amps = coherent_vector(mu, 12)
    ratio = amps[3] / amps[2]
    assert ratio == pytest.approx(mu / math.sqrt(3), abs=1e-14)


def test_vacuum_and_tail_mass():
    d = 8
    vac = vacuum_two_mode(d)
    assert vac[0] == 1.0
    assert np.count_nonzero(vac) == 1
    assert two_mode_tail_mass(vac, d) == 0.0
    # all population on the top ordinary level counts as tail
    top = np.zeros(d * d)
    top[(d - 1) * d] = 1.0
    assert two_mode_tail_mass(top, d) == pytest.approx(1.0)


def test_two_mode_state_normalizes_and_guards():
    d = 6
    vec = np.zeros(d * d, dtype=complex)
    vec[0] = 3.0
    vec[1] = 4.0j
    state = TwoModeState.from_vector(vec, d)
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-15)
    assert state.as_matrix()[0, 1] == pytest.approx(0.8j)
    with pytest.raises(ValueError):
        TwoModeState.from_vector(np.zeros(d * d), d)
    with pytest.raises(ValueError):
        TwoModeState.from_vector(vec[:5], d)
    heavy = np.zeros(d * d)
    heavy[(d - 1) * d + (d - 1)] = 1.0
    with pytest.raises(CutoffError):
        TwoModeState.from_vector(heavy, d, tail_tol=1e-8)


def test_expectation_shape_check():
    state = TwoModeState.from_vector(vacuum_two_mode(4), 4)
    ident = np.eye(16)
    assert state.expectation(ident) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        state.expectation(np.eye(15))


def test_density_matrix_validation():
    good = np.diag([0.6, 0.3, 0.1]).astype(complex)
    rho = DensityMatrix.from_array(good)
    assert rho.purity() == pytest.approx(0.46)
    assert rho.mean_photon() == pytest.approx(0.5)
    bad_herm = good.copy()
    bad_herm[0, 1] = 0.2
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix.from_array(bad_herm)
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix.from_array(2.0 * good)
    neg = np.diag([1.2, -0.2, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="negative"):
        DensityMatrix.from_array(neg)


def test_partial_trace_of_product_state():
    d = 24
    mu, nu = 0.9 - 0.3j, 0.5j
    psi = np.kron(coherent_vector(mu, d), coherent_vector(nu, d))
    rho_ord = partial_trace(np.outer(psi, psi.conj()), "ordinary")
    assert rho_ord.purity() == pytest.approx(1.0, abs=1e-10)
    assert rho_ord.mean_photon() == pytest.approx(abs(mu) ** 2, abs=1e-8)
    rho_til = partial_trace(np.outer(psi, psi.conj()), "tilde")
    assert rho_til.mean_photon() == pytest.approx(abs(nu) ** 2, abs=1e-8)


def test_partial_trace_agrees_with_reduced_density():
    rng = np.random.default_rng(RNG_SEED + 3)
    d = 10
    vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    state = TwoModeState.from_vector(vec, d)
    dense = np.outer(state.amplitudes, state.amplitudes.conj())
    for keep in ("ordinary", "tilde"):
        direct = partial_trace(dense, keep)
        shortcut = reduced_density(state, keep)
        assert np.allclose(direct.entries, shortcut.entries, atol=1e-12)


def test_partial_trace_purity_of_schmidt_diagonal():
    """Diagonal Schmidt amplitudes tanh(t)**n give purity 1/cosh(2t)."""
    t = 0.6
    d = 60
    vec = np.zeros(d * d, dtype=complex)
    for n in range(d):
        vec[n * d + n] = math.tanh(t) ** n
    state = TwoModeState.from_vector(vec, d)
    rho = reduced_density(state, "ordinary")
    assert rho.purity() == pytest.approx(1.0 / math.cosh(2.0 * t), abs=1e-10)


def test_partial_trace_input_validation():
    with pytest.raises(ValueError, match="square"):
        partial_trace(np.zeros((4, 5)), "ordinary")
    with pytest.raises(ValueError, match="perfect square"):
        partial_trace(np.eye(5), "ordinary")
    with pytest.raises(ValueError, match="keep"):
        partial_trace(np.eye(4) / 4.0, "both")
