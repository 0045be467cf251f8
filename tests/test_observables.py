"""Tests for quadrature operators, characteristic functions, and moments."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from thermalcoherent import (
    DisplacementParams,
    PhysicalConstants,
    QuadratureMoments,
    StateKind,
    ThermalParams,
    TwoModeState,
    build_state,
    cf_full,
    char_function_args,
    chi_signal,
    displacement_D,
    mean_amplitude_factor,
    moments_from_cf,
    quadrature_moments_numeric,
    quadrature_operators,
    round_form,
    uncertainty_product,
)

CF_TOL = 1e-9
MOMENT_TOL = 1e-8
KINDS = [StateKind.ROUND, StateKind.DOUBLE, StateKind.TROTTER]


def test_physical_constants_scales():
    pc = PhysicalConstants()
    assert pc.hbar == 1.0 and pc.lam == 1.0
    assert pc.q_scale == pytest.approx(1.0 / math.sqrt(2.0))
    assert pc.p_scale == pytest.approx(1.0 / math.sqrt(2.0))
    heavy = PhysicalConstants(hbar=2.0, lam=8.0)
    assert heavy.q_scale == pytest.approx(math.sqrt(2.0 / (2.0 * 8.0)))
    assert heavy.p_scale == pytest.approx(math.sqrt(8.0 * 2.0 / 2.0))
    with pytest.raises(ValueError):
        PhysicalConstants(hbar=-1.0)
    with pytest.raises(ValueError):
        PhysicalConstants(lam=0.0)


def test_quadrature_operators_commutator():
    d = 10
    pc = PhysicalConstants()
    q1, p1, q2, p2 = quadrature_operators(d, pc)
    for op in (q1, p1, q2, p2):
        assert np.allclose(op, op.conj().T, atol=1e-14)
    comm = q1 @ p1 - p1 @ q1
    # canonical commutator holds away from the truncation boundary
    low = [n * d + m for n in range(d - 1) for m in range(d)]
    expected = 1j * pc.hbar * np.eye(d * d)
    assert np.allclose(comm[np.ix_(low, low)], expected[np.ix_(low, low)], atol=1e-13)
    # ordinary and tilde blocks commute exactly
    cross = q1 @ p2 - p2 @ q1
    assert np.abs(cross).max() < 1e-14


def test_char_function_args_reproduce_displacement():
    """D(gamma, gamma') equals exp[-i(q Q + p P + q' Q~ + p' P~)]."""
    d = 12
    pc = PhysicalConstants()
    q, p, qt, pt = 0.7, -0.4, 0.2, 0.9
    gamma, gamma_p = char_function_args(q, p, qt, pt, pc)
    q1, p1, q2, p2 = quadrature_operators(d, pc)
    direct = expm(-1j * (q * q1 + p * p1 + qt * q2 + pt * p2))
    assert np.allclose(displacement_D(gamma, gamma_p, d), direct, atol=1e-11)


@pytest.mark.parametrize("kind", KINDS)
def test_cf_full_matches_numeric_expectation(kind):
    """Closed-form characteristic function against a dense matrix element.

    The closed form describes the squeeze-after-displace state, so the
    other two orderings enter through their mapped round amplitudes.
    The global phase of the ROUND form cancels in expectation values.
    """
    alpha, zeta, theta = 0.6 + 0.3j, 0.2 - 0.4j, 0.5
    dp = DisplacementParams(alpha=alpha, zeta=zeta)
    tp = ThermalParams.from_theta(theta)
    state = build_state(kind, dp, tp, tail_tol=1e-14)
    d = state.dim_per_mode
    rf = round_form(kind, alpha, zeta, theta)
    for gamma, gamma_p in [(0.4, 0.0), (0.0, -0.3j), (0.2 - 0.5j, 0.1 + 0.3j)]:
        closed = cf_full(rf.alpha_round, rf.zeta_round, theta, gamma, gamma_p)
        numeric = state.expectation(displacement_D(gamma, gamma_p, d))
        assert abs(closed - numeric) < CF_TOL


def test_cf_full_at_origin_is_one():
    assert cf_full(0.3 + 0.2j, 0.1j, 0.8, 0.0, 0.0) == pytest.approx(1.0)


def test_cf_full_gaussian_decay():
    """|CF| depends on gamma only through the squeeze-mixed quadratic form."""
    theta = 0.6
    ch2 = math.cosh(2.0 * theta)
    for g in (0.3, 0.7j, 0.5 - 0.2j):
        val = cf_full(0.0, 0.0, theta, g, 0.0)
        assert abs(val) == pytest.approx(math.exp(-0.5 * ch2 * abs(g) ** 2), rel=1e-12)


def test_chi_signal_is_cf_full_slice():
    alpha, theta = 0.8 - 0.2j, 0.45
    for eta in (0.3, -0.6j, 0.2 + 0.7j):
        assert chi_signal(alpha, theta, eta) == pytest.approx(
            cf_full(alpha, np.conj(alpha), theta, eta, 0.0), abs=1e-14
        )


def test_mean_amplitude_factor_values_and_ordering():
    e = math.e
    assert mean_amplitude_factor(StateKind.ROUND, 1.0) == pytest.approx(e)
    assert mean_amplitude_factor(StateKind.TROTTER, 1.0) == pytest.approx(e - 1.0)
    assert mean_amplitude_factor(StateKind.DOUBLE, 1.0) == 1.0
    for theta in (0.2, 0.7, 1.5):
        r = mean_amplitude_factor(StateKind.ROUND, theta)
        t = mean_amplitude_factor(StateKind.TROTTER, theta)
        dd = mean_amplitude_factor(StateKind.DOUBLE, theta)
        assert r > t > dd == 1.0
    for kind in KINDS:
        assert mean_amplitude_factor(kind, 0.0) == 1.0


def test_mean_amplitude_factor_small_angle():
    """The Trotter factor (e**t - 1)/t must be stable near t = 0."""
    t = 1e-9
    val = mean_amplitude_factor(StateKind.TROTTER, t)
    assert val == pytest.approx(1.0 + t / 2.0, abs=1e-15)


@pytest.mark.parametrize("kind", KINDS)
def test_mean_quadratures_match_numeric(kind):
    """The ordinary-mode block of moments_from_cf against a kernel-built state."""
    alpha, theta = 0.7 + 0.4j, 0.55
    dp = DisplacementParams.invariant(alpha)
    tp = ThermalParams.from_theta(theta)
    pc = PhysicalConstants()
    closed = moments_from_cf(kind, dp.alpha, dp.zeta, theta, pc)
    state = build_state(kind, dp, tp, tail_tol=1e-12)
    numeric = quadrature_moments_numeric(state, pc)
    assert numeric.mean_q == pytest.approx(closed.mean[0], abs=1e-9)
    assert numeric.mean_p == pytest.approx(closed.mean[1], abs=1e-9)
    assert numeric.var_q == pytest.approx(closed.cov[0, 0], abs=MOMENT_TOL)
    assert numeric.var_p == pytest.approx(closed.cov[1, 1], abs=MOMENT_TOL)


def test_quadrature_moments_numeric_against_dense_operators():
    """The shift-based moment evaluation agrees with dense matrices."""
    rng = np.random.default_rng(23)
    d = 12
    pc = PhysicalConstants(hbar=1.5, lam=0.8)
    vec = rng.normal(size=d * d) + 1j * rng.normal(size=d * d)
    state = TwoModeState.from_vector(vec, d)
    q1, p1, _, _ = quadrature_operators(d, pc)
    qm = quadrature_moments_numeric(state, pc)
    mean_q = state.expectation(q1).real
    mean_p = state.expectation(p1).real
    var_q = state.expectation(q1 @ q1).real - mean_q**2
    var_p = state.expectation(p1 @ p1).real - mean_p**2
    assert qm.mean_q == pytest.approx(mean_q, abs=1e-12)
    assert qm.mean_p == pytest.approx(mean_p, abs=1e-12)
    assert qm.var_q == pytest.approx(var_q, abs=1e-11)
    assert qm.var_p == pytest.approx(var_p, abs=1e-11)


def test_uncertainty_product_closed_form():
    pc = PhysicalConstants()
    for theta in (0.0, 0.3, 0.9, 1.6):
        prod = uncertainty_product(theta, pc)
        assert prod == pytest.approx(0.5 * pc.hbar * math.cosh(2.0 * theta), rel=1e-14)
        assert prod >= 0.5 * pc.hbar
    assert uncertainty_product(0.0) == pytest.approx(0.5)
    scaled = uncertainty_product(0.4, PhysicalConstants(hbar=3.0))
    assert scaled == pytest.approx(1.5 * math.cosh(0.8), rel=1e-14)


def test_quadrature_moments_validation():
    with pytest.raises(ValueError):
        QuadratureMoments(mean_q=0.0, mean_p=0.0, var_q=-0.1, var_p=0.5)
    qm = QuadratureMoments(mean_q=1.0, mean_p=2.0, var_q=0.5, var_p=0.5)
    assert qm.uncertainty_product == pytest.approx(0.5)


def test_variances_are_displacement_independent():
    theta = 0.65
    small = moments_from_cf(StateKind.ROUND, 0.1, 0.1, theta)
    large = moments_from_cf(StateKind.ROUND, 2.0 + 1.0j, 2.0 - 1.0j, theta)
    assert small.cov[0, 0] == large.cov[0, 0]
    assert small.cov[1, 1] == large.cov[1, 1]
