"""Tests for the algebraic maps between state-preparation orderings."""

import math

import mpmath
import numpy as np
import pytest

import support_ops
from thermalcoherent import _hyper
from thermalcoherent import (
    DisplacementParams,
    EquivalenceResult,
    ThermalParams,
    apply_exp_generator,
    check_double_vs_round,
    check_trotter_vs_round,
    displacement_D,
    finite_product_decomposition,
    map_double_to_round,
    map_trotter_to_round,
    phase_aligned_distance,
    series_limits,
    squeeze_U,
    vacuum_two_mode,
)

STATE_TOL = 1e-9
OPERATOR_TOL = 1e-9


def test_trotter_map_closed_form():
    alpha, zeta, theta = 0.6 + 0.2j, -0.1 + 0.5j, 0.7
    res = map_trotter_to_round(alpha, zeta, theta)
    sinhc = math.sinh(theta) / theta
    coshm1 = (math.cosh(theta) - 1.0) / theta
    assert res.alpha_round == pytest.approx(alpha * sinhc - np.conj(zeta) * coshm1)
    assert res.zeta_round == pytest.approx(zeta * sinhc - np.conj(alpha) * coshm1)
    c1 = (math.sinh(theta) - theta) / theta**2
    assert res.phase_theta == pytest.approx(2.0 * c1 * (alpha * zeta).imag, rel=1e-13)


def test_trotter_map_phase_vanishes_on_invariant_slice():
    """zeta = conj(alpha) makes alpha*zeta real, so the phase is exactly zero."""
    for alpha in (0.8, 0.5 - 1.1j, 0.3j):
        res = map_trotter_to_round(alpha, np.conj(alpha), 0.6)
        assert res.phase_theta == 0.0


def test_trotter_map_zero_angle_is_identity():
    alpha, zeta = 0.4 + 0.1j, 0.2 - 0.7j
    res = map_trotter_to_round(alpha, zeta, 0.0)
    assert res.alpha_round == alpha
    assert res.zeta_round == zeta
    assert res.phase_theta == 0.0


def test_double_map_closed_form_and_inverse():
    alpha, zeta, theta = 0.9 - 0.4j, 0.3 + 0.2j, 0.55
    res = map_double_to_round(alpha, zeta, theta)
    ch, sh = math.cosh(theta), math.sinh(theta)
    assert res.alpha_round == pytest.approx(alpha * ch - np.conj(zeta) * sh)
    assert res.zeta_round == pytest.approx(zeta * ch - np.conj(alpha) * sh)
    assert res.phase_theta == 0.0
    # the Bogoliubov rotation inverts cleanly
    back_alpha = res.alpha_round * ch + np.conj(res.zeta_round) * sh
    back_zeta = res.zeta_round * ch + np.conj(res.alpha_round) * sh
    assert back_alpha == pytest.approx(alpha, abs=1e-13)
    assert back_zeta == pytest.approx(zeta, abs=1e-13)


def test_trotter_map_at_negative_angle():
    """The map is analytic in theta: a negative angle off the invariant slice.

    ThermalParams refuses theta < 0, so both sides are built with the
    kernel directly: exp(theta G + alpha a+ - ... )|0,0~> against
    exp(i phase) U(theta) D(alpha', zeta')|0,0~>.
    """
    alpha, zeta, theta, d = 0.5 + 0.3j, -0.2 + 0.6j, -0.4, 40
    res = map_trotter_to_round(alpha, zeta, theta)
    assert res.phase_theta != 0.0
    vac = vacuum_two_mode(d)
    trotter = apply_exp_generator(vac, theta, alpha, zeta)
    displaced = apply_exp_generator(vac, 0.0, res.alpha_round, res.zeta_round)
    mapped = np.exp(1j * res.phase_theta) * apply_exp_generator(displaced, theta, 0.0, 0.0)
    assert np.linalg.norm(trotter - mapped) < STATE_TOL


def test_series_limits_match_partial_sums():
    """Brute-force slice sums at N = 10**4 sit within O(1/N) of the limits."""
    n_slices = 10_000
    for theta in (0.2, 0.5, 0.9):
        step = theta / n_slices
        m = np.arange(n_slices, dtype=float)
        c2_partial = math.fsum(np.cosh(m * step)) / n_slices
        c3_partial = math.fsum(np.sinh(m[1:] * step)) / n_slices
        c1_partial = math.fsum((n_slices - m[1:]) * np.sinh(m[1:] * step)) / n_slices**2
        c1, c2, c3 = series_limits(theta)
        assert c2_partial == pytest.approx(c2, abs=1e-3)
        assert c3_partial == pytest.approx(c3, abs=1e-3)
        assert c1_partial == pytest.approx(c1, abs=1e-3)


def test_series_limits_small_angle_behavior():
    c1, c2, c3 = series_limits(1e-8)
    assert c1 == pytest.approx(1e-8 / 6.0, rel=1e-6)
    assert c2 == pytest.approx(1.0, abs=1e-15)
    assert c3 == pytest.approx(0.5e-8, rel=1e-6)
    with pytest.raises(ValueError):
        series_limits(-0.1)


HYPER_REFERENCES = {
    "sinhc": lambda t: mpmath.sinh(t) / t,
    "coshm1_over": lambda t: (mpmath.cosh(t) - 1) / t,
    "sinhm_over_sq": lambda t: (mpmath.sinh(t) - t) / t**2,
}


@pytest.mark.parametrize("name", sorted(HYPER_REFERENCES))
def test_hyper_quotients_match_mpmath(name):
    """A few ulps of 50-digit arithmetic on a log grid across every switch, both signs."""
    fn, ref = getattr(_hyper, name), HYPER_REFERENCES[name]
    worst = 0.0
    with mpmath.workdps(50):
        for t in np.logspace(-8.0, math.log10(30.0), 2000):
            for x in (float(t), -float(t)):
                exact = ref(mpmath.mpf(x))
                worst = max(worst, float(abs((fn(x) - exact) / exact)))
    assert worst < 4.0 * np.finfo(float).eps, f"{name}: {worst:.3e}"


def test_support_helpers_match_dense_operators():
    """The batched sector/mode actions agree with dense truncated exponentials.

    On a block of corner columns that stays well inside the cutoff the
    exact actions and the dense matrices coincide; this pins down the
    helper before it is trusted for operator-identity measurements.
    """
    d_big, d_corner = 34, 5
    theta, alpha, zeta = 0.4, 0.3 - 0.2j, 0.25j
    block = support_ops.corner_block(d_big, d_corner)
    cols = block.reshape(d_big * d_big, -1)
    squeezed = support_ops.squeeze_apply(block, theta).reshape(d_big * d_big, -1)
    assert np.allclose(squeeze_U(theta, d_big) @ cols, squeezed, atol=1e-11)
    displaced = support_ops.displace_apply(block, alpha, zeta)
    dense = displacement_D(alpha, zeta, d_big) @ cols
    assert np.allclose(dense, displaced.reshape(d_big * d_big, -1), atol=1e-11)


@pytest.mark.parametrize("n,n_slices,theta", [(3, 8, 0.7), (8, 16, 0.7), (5, 5, 0.35)])
def test_finite_product_operator_identity(n, n_slices, theta):
    """[U(t/N) D(a/N, z/N)]**n equals the collapsed phase-squeeze-displace form.

    The two operator expressions are compared on the d = 20 corner with
    working headroom above it, since the identity concerns the operators
    themselves rather than their truncation artifacts.  The headroom
    must absorb the squeeze-driven spread of the highest corner levels,
    which grows quickly with the accumulated angle n*theta/N.
    """
    alpha, zeta = 0.6 + 0.2j, 0.4 - 0.5j
    gaps = support_ops.product_identity_gaps(
        finite_product_decomposition,
        alpha,
        zeta,
        theta,
        n_slices,
        n_max=n,
        d_corner=20,
        d_big=72,
    )
    for step, gap in gaps:
        assert gap < OPERATOR_TOL, f"n={step}, N={n_slices}: gap {gap:.3e}"


def test_finite_product_single_slice_exact():
    """n = 1 collapses to the slice itself, no headroom needed."""
    d = 20
    alpha, zeta, theta = 0.6 + 0.2j, 0.4 - 0.5j, 0.7
    n_slices = 4
    slice_op = squeeze_U(theta / n_slices, d) @ displacement_D(
        alpha / n_slices, zeta / n_slices, d
    )
    phase, angle, alpha_1, zeta_1 = finite_product_decomposition(
        alpha, zeta, theta, n_slices, 1
    )
    assert phase == 0.0
    assert angle == pytest.approx(theta / n_slices)
    rhs = squeeze_U(angle, d) @ displacement_D(alpha_1, zeta_1, d)
    assert np.linalg.norm(slice_op - rhs) < 1e-12


def test_finite_product_phase_real_for_invariant_params():
    phase, _, _, _ = finite_product_decomposition(0.8, 0.8, 0.5, 16, 16)
    assert phase == 0.0


def test_finite_product_validation():
    with pytest.raises(ValueError):
        finite_product_decomposition(0.1, 0.1, 0.5, 0, 0)
    with pytest.raises(ValueError):
        finite_product_decomposition(0.1, 0.1, 0.5, 4, 5)
    with pytest.raises(ValueError):
        finite_product_decomposition(0.1, 0.1, -0.5, 4, 2)


def test_full_product_approaches_trotter_map():
    """At n = N the collapsed amplitudes converge to the series limits."""
    alpha, zeta, theta = 0.7 - 0.2j, 0.3 + 0.4j, 0.6
    exact = map_trotter_to_round(alpha, zeta, theta)
    gaps = []
    for n_slices in (64, 256, 1024):
        _, _, alpha_n, _ = finite_product_decomposition(
            alpha, zeta, theta, n_slices, n_slices
        )
        gaps.append(abs(alpha_n - exact.alpha_round))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 1e-3


def test_trotter_check_on_invariant_slice():
    dp = DisplacementParams.invariant(0.8 + 0.3j)
    tp = ThermalParams.from_theta(0.5)
    res = check_trotter_vs_round(dp, tp)
    assert res.distance < STATE_TOL
    assert res.phase_theta == 0.0


def test_trotter_check_with_general_amplitudes():
    """The identity holds off the invariant slice, phase included."""
    dp = DisplacementParams(alpha=0.5, zeta=0.4j)
    tp = ThermalParams.from_theta(0.6)
    res = check_trotter_vs_round(dp, tp)
    assert res.distance < STATE_TOL
    assert res.phase_theta != 0.0


def test_double_check_distance():
    dp = DisplacementParams(alpha=0.9 - 0.1j, zeta=0.2 + 0.6j)
    tp = ThermalParams.from_theta(0.7)
    res = check_double_vs_round(dp, tp)
    assert res.distance < STATE_TOL
    assert res.phase_theta == 0.0


def test_phase_aligned_distance_properties():
    rng = np.random.default_rng(3)
    vec = rng.normal(size=40) + 1j * rng.normal(size=40)
    vec /= np.linalg.norm(vec)
    assert phase_aligned_distance(vec, np.exp(1.3j) * vec) < 1e-14
    other = rng.normal(size=40) + 1j * rng.normal(size=40)
    other -= vec * np.vdot(vec, other)
    other /= np.linalg.norm(other)
    assert phase_aligned_distance(vec, other) == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValueError):
        phase_aligned_distance(vec, vec[:10])


def test_equivalence_result_validation():
    with pytest.raises(ValueError):
        EquivalenceResult(alpha_round=0.0, zeta_round=0.0, phase_theta=math.nan)
    with pytest.raises(ValueError):
        EquivalenceResult(
            alpha_round=0.0, zeta_round=0.0, phase_theta=0.0, distance=-1.0
        )
