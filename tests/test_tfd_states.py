"""Tests for thermal coherent state construction in the doubled space."""

import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from thermalcoherent import (
    CutoffError,
    DisplacementParams,
    StateKind,
    ThermalParams,
    TwoModeState,
    annihilation_matrix,
    apply_exp_generator,
    build_state,
    build_trotter_finite,
    coherent_vector,
    creation_matrix,
    default_cutoff,
    displacement_D,
    embed,
    generator_G,
    improper_displacement,
    improper_eigenvector,
    squeeze_U,
    theta_of_beta,
    vacuum_two_mode,
    xi_eigenvalue,
    xi_operator,
    xi_residual,
)
from thermalcoherent.tfd_states import _bessel_j, _generator_bound

DENSE_TOL = 1e-12
SCHMIDT_TOL = 1e-11


def _dense_combined_generator(theta, alpha, zeta, d):
    a = annihilation_matrix(d)
    ad = creation_matrix(d)
    gen = 1j * theta * generator_G(d)
    gen += complex(alpha) * embed(ad, "ordinary") - np.conj(alpha) * embed(a, "ordinary")
    gen += complex(zeta) * embed(ad, "tilde") - np.conj(zeta) * embed(a, "tilde")
    return gen


def test_theta_of_beta_bose_einstein():
    """sinh(theta)**2 must equal the Bose-Einstein occupation."""
    for beta, eps in [(0.5, 1.0), (2.0, 0.7), (10.0, 1.3)]:
        th = theta_of_beta(beta, eps)
        assert math.sinh(th) ** 2 == pytest.approx(
            1.0 / math.expm1(beta * eps), rel=1e-14
        )
    assert theta_of_beta(math.inf, 1.0) == 0.0


def test_theta_of_beta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        theta_of_beta(-1.0, 1.0)
    with pytest.raises(ValueError):
        theta_of_beta(1.0, 0.0)


def test_thermal_params_round_trip():
    tp = ThermalParams.from_beta(1.7, epsilon=0.9)
    back = ThermalParams.from_theta(tp.theta, epsilon=0.9)
    assert back.beta == pytest.approx(tp.beta, rel=1e-12)
    zero = ThermalParams.from_theta(0.0)
    assert math.isinf(zero.beta)
    with pytest.raises(ValueError, match="inconsistent"):
        ThermalParams(beta=1.0, epsilon=1.0, theta=0.3)


def test_displacement_params_invariance_flag():
    dp = DisplacementParams.invariant(0.4 - 0.2j)
    assert dp.zeta == dp.alpha.conjugate()
    assert dp.tilde_invariant
    with pytest.raises(ValueError, match="tilde invariance"):
        DisplacementParams(alpha=1.0, zeta=0.5, tilde_invariant=True)
    # unconstrained amplitudes are allowed when the flag is off
    free = DisplacementParams(alpha=1.0, zeta=0.5j)
    assert not free.tilde_invariant


def test_generator_is_hermitian_and_annihilates_vacuum_mean():
    d = 12
    g = generator_G(d)
    assert np.allclose(g, g.conj().T, atol=1e-14)
    vac = vacuum_two_mode(d)
    assert abs(np.vdot(vac, g @ vac)) == 0.0


def test_squeeze_matches_dense_exponential():
    d = 18
    theta = 0.63
    dense = expm(1j * theta * generator_G(d))
    assert np.allclose(squeeze_U(theta, d), dense, atol=DENSE_TOL)


def test_squeeze_vacuum_schmidt_amplitudes():
    """U(theta)|0,0~> has amplitudes tanh(theta)**n / cosh(theta) on |n,n>."""
    d = 30
    theta = 0.45
    psi = squeeze_U(theta, d) @ vacuum_two_mode(d)
    mat = psi.reshape(d, d)
    expected = np.array([math.tanh(theta) ** n / math.cosh(theta) for n in range(d)])
    assert np.allclose(np.diagonal(mat), expected, atol=SCHMIDT_TOL)
    off_diag = mat - np.diag(np.diagonal(mat))
    assert np.abs(off_diag).max() < SCHMIDT_TOL


def test_displacement_factorizes_into_coherent_product():
    d = 28
    alpha, zeta = 0.8 + 0.1j, -0.3 + 0.6j
    psi = displacement_D(alpha, zeta, d) @ vacuum_two_mode(d)
    product = np.kron(
        coherent_vector(alpha, d, tail_tol=None), coherent_vector(zeta, d, tail_tol=None)
    )
    assert np.allclose(psi, product, atol=1e-11)


@pytest.mark.parametrize("x", [0.05, 3.0, 80.0, 800.0])
def test_bessel_coefficients_match_mpmath(x):
    cut = 1e-15
    j = _bessel_j(x, cut)
    exact = np.array([float(mpmath.besselj(k, x)) for k in range(j.size)])
    assert np.abs(j - exact).max() <= 1e-14
    # the expansion stops at the first order above x whose term is below cut
    order = j.size - 1
    assert order > x
    assert 2.0 * abs(exact[order]) <= cut
    assert all(2.0 * abs(exact[k]) > cut for k in range(math.floor(x) + 1, order))


def test_bessel_values_survive_overflow_rescaling():
    """R = 3000 (theta = 1.8 near d = 816) rescales the backward recurrence."""
    x = 3000.0
    j = _bessel_j(x, 1e-15)
    assert j[0] ** 2 + 2.0 * (j[1:] ** 2).sum() == pytest.approx(1.0, abs=1e-13)
    for k in (0, 1, 2999, 3100, j.size - 1):
        assert j[k] == pytest.approx(float(mpmath.besselj(k, x, maxterms=10**6)), abs=1e-14)


@pytest.mark.parametrize(
    ("theta", "alpha", "zeta", "d"),
    [
        (0.4, 0.5 - 0.2j, 0.1 + 0.3j, 16),
        # one slice of the converge subcommand's 512-slice product
        (0.5 / 512, 0.8 / 512, 0.8 / 512, 30),
        # a wide spectrum: R = 2 theta (d - 1) + 2 (|alpha| + |zeta|) sqrt(d) ~ 114
        (1.2, 0.8 * np.exp(0.7j), 0.8 * np.exp(-0.7j), 40),
    ],
    ids=["d16", "slice-d30", "wide-d40"],
)
def test_apply_exp_generator_matches_dense_action(theta, alpha, zeta, d):
    rng = np.random.default_rng(7)
    vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    vec /= np.linalg.norm(vec)
    fast = apply_exp_generator(vec, theta, alpha, zeta)
    dense = expm(_dense_combined_generator(theta, alpha, zeta, d)) @ vec
    assert np.allclose(fast, dense, atol=1e-11)
    assert np.linalg.norm(fast - dense) <= 1e-11


def test_generator_bound_covers_spectrum():
    """The Chebyshev expansion needs the spectrum of A inside i[-R, R]."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(2, 13))
        theta = float(rng.uniform(0.0, 2.0))
        alpha, zeta = rng.normal(size=2) + 1j * rng.normal(size=2)
        gen = _dense_combined_generator(theta, alpha, zeta, d)
        radius = np.abs(np.linalg.eigvalsh(1j * gen)).max()
        assert radius <= _generator_bound(theta, alpha, zeta, d)


def test_apply_exp_generator_preserves_norm_at_large_cutoff():
    rng = np.random.default_rng(3)
    d = 204
    vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    vec /= np.linalg.norm(vec)
    alpha = 0.8 * np.exp(1.1j)
    out = apply_exp_generator(vec, 1.8, alpha, alpha.conjugate())
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "kind", [StateKind.ROUND, StateKind.DOUBLE, StateKind.TROTTER]
)
def test_build_state_matches_dense_route(kind):
    d = 22
    alpha = 0.6 + 0.3j
    dp = DisplacementParams.invariant(alpha)
    tp = ThermalParams.from_theta(0.5)
    state = build_state(kind, dp, tp, d=d, tail_tol=1e-6)
    disp = displacement_D(dp.alpha, dp.zeta, d)
    sq = squeeze_U(tp.theta, d)
    vac = vacuum_two_mode(d)
    if kind is StateKind.ROUND:
        dense = sq @ (disp @ vac)
    elif kind is StateKind.DOUBLE:
        dense = disp @ (sq @ vac)
    else:
        dense = expm(_dense_combined_generator(tp.theta, dp.alpha, dp.zeta, d)) @ vac
    dense /= np.linalg.norm(dense)
    assert np.allclose(state.amplitudes, dense, atol=1e-10)


def test_state_kinds_are_pairwise_distinct():
    dp = DisplacementParams.invariant(0.8)
    tp = ThermalParams.from_theta(0.5)
    states = {
        kind: build_state(kind, dp, tp, tail_tol=1e-12).amplitudes
        for kind in StateKind
    }
    kinds = list(StateKind)
    for i, k1 in enumerate(kinds):
        for k2 in kinds[i + 1 :]:
            a, b = states[k1], states[k2]
            n = min(a.size, b.size)
            gap = np.linalg.norm(a[:n] - b[:n])
            assert gap > 0.05, f"{k1} and {k2} should differ, got {gap:.3e}"


def test_adaptive_cutoff_meets_tail_tolerance():
    dp = DisplacementParams.invariant(1.1 + 0.4j)
    tp = ThermalParams.from_theta(0.7)
    state = build_state(StateKind.ROUND, dp, tp, tail_tol=1e-10)
    assert state.tail_mass <= 1e-10
    assert state.dim_per_mode >= default_cutoff(abs(dp.alpha), tp.theta)


def test_explicit_cutoff_too_small_raises():
    dp = DisplacementParams.invariant(2.5)
    tp = ThermalParams.from_theta(0.6)
    with pytest.raises(CutoffError):
        build_state(StateKind.ROUND, dp, tp, d=8, tail_tol=1e-8)


def test_default_cutoff_monotone():
    cuts = [default_cutoff(m, 0.5) for m in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(c2 >= c1 for c1, c2 in zip(cuts, cuts[1:]))
    assert all(isinstance(c, int) and c >= 4 for c in cuts)


def test_trotter_finite_single_slice_is_round():
    dp = DisplacementParams.invariant(0.7 - 0.1j)
    tp = ThermalParams.from_theta(0.4)
    d = 30
    one = build_trotter_finite(dp, tp, N=1, d=d, tail_tol=1e-10)
    round_state = build_state(StateKind.ROUND, dp, tp, d=d, tail_tol=1e-10)
    assert np.allclose(one.amplitudes, round_state.amplitudes, atol=1e-12)


def test_trotter_finite_converges_at_first_order():
    dp = DisplacementParams.invariant(0.8)
    tp = ThermalParams.from_theta(0.5)
    d = 36
    target = build_state(StateKind.TROTTER, dp, tp, d=d, tail_tol=1e-10)
    errs = []
    for n in (8, 16, 32):
        approx = build_trotter_finite(dp, tp, N=n, d=d, tail_tol=1e-10)
        errs.append(np.linalg.norm(approx.amplitudes - target.amplitudes))
    assert errs[0] > errs[1] > errs[2]
    for e1, e2 in zip(errs, errs[1:]):
        assert e1 / e2 == pytest.approx(2.0, abs=0.4)


def test_trotter_finite_rejects_bad_slice_count():
    dp = DisplacementParams.invariant(0.5)
    tp = ThermalParams.from_theta(0.3)
    with pytest.raises(ValueError):
        build_trotter_finite(dp, tp, N=0)


def test_xi_operator_dense_form():
    d = 14
    tp = ThermalParams.from_theta(0.8)
    expected = math.cosh(tp.theta) * embed(annihilation_matrix(d), "ordinary")
    expected -= math.sinh(tp.theta) * embed(creation_matrix(d), "tilde")
    assert np.allclose(xi_operator(tp, d), expected, atol=1e-14)


def test_xi_residual_matches_dense_operator():
    rng = np.random.default_rng(11)
    d = 12
    tp = ThermalParams.from_theta(0.6)
    vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    state = TwoModeState.from_vector(vec, d)
    lam = 0.3 - 0.2j
    dense = np.linalg.norm((xi_operator(tp, d) - lam * np.eye(d * d)) @ state.amplitudes)
    assert xi_residual(state, tp, lam) == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize(
    "kind", [StateKind.ROUND, StateKind.DOUBLE, StateKind.TROTTER]
)
def test_states_are_xi_eigenvectors(kind):
    dp = DisplacementParams.invariant(0.7 * np.exp(0.9j))
    tp = ThermalParams.from_theta(0.5)
    state = build_state(kind, dp, tp, tail_tol=1e-14)
    lam = xi_eigenvalue(kind, dp, tp)
    assert xi_residual(state, tp, lam) < 1e-6
    # a wrong eigenvalue leaves an O(1) residual
    assert xi_residual(state, tp, lam + 0.5) > 0.3


def test_round_eigenvalue_is_alpha_itself():
    dp = DisplacementParams.invariant(1.2 - 0.8j)
    tp = ThermalParams.from_theta(0.9)
    assert xi_eigenvalue(StateKind.ROUND, dp, tp) == dp.alpha


def test_eigenvalue_closed_forms():
    alpha, zeta, theta = 0.6 + 0.2j, -0.1 + 0.5j, 0.7
    dp = DisplacementParams(alpha=alpha, zeta=zeta)
    tp = ThermalParams.from_theta(theta)
    double = xi_eigenvalue(StateKind.DOUBLE, dp, tp)
    assert double == pytest.approx(
        alpha * math.cosh(theta) - np.conj(zeta) * math.sinh(theta)
    )
    trotter = xi_eigenvalue(StateKind.TROTTER, dp, tp)
    assert trotter == pytest.approx(
        alpha * math.sinh(theta) / theta
        - np.conj(zeta) * (math.cosh(theta) - 1.0) / theta
    )


def test_improper_displacement_violates_tilde_invariance():
    tp = ThermalParams.from_theta(0.6)
    f = 0.4 + 0.3j
    dp = improper_displacement(f, tp)
    violation = abs(dp.alpha.conjugate() - dp.zeta)
    expected = abs(f) * (math.cosh(tp.theta) - math.sinh(tp.theta))
    assert violation == pytest.approx(expected, rel=1e-12)
    assert violation > 0.0
    assert improper_displacement(0.0, tp).alpha == 0.0


def test_improper_eigenvector_satisfies_eigen_equation():
    tp = ThermalParams.from_theta(0.5)
    f = 0.6 - 0.2j
    state = improper_eigenvector(f, tp, tail_tol=1e-14)
    assert xi_residual(state, tp, f) < 1e-6
