"""Tests for quasiprobability densities, numeric transforms, completeness."""

import math
import subprocess
import sys

import numpy as np
import pytest
import support_cf

from thermalcoherent import (
    CutoffError,
    DensityMatrix,
    DisplacementParams,
    GaussianQP,
    StateKind,
    ThermalParams,
    build_state,
    chi_signal,
    coherent_vector,
    completeness_constant,
    completeness_defect,
    mean_amplitude_factor,
    p_rep,
    q_func,
    q_func_numeric,
    reduced_density,
    wigner,
    wigner_numeric,
)

GRID_TOL = 1e-6
WIDTH_TOL = 1e-14
KINDS = [StateKind.ROUND, StateKind.DOUBLE, StateKind.TROTTER]


def _reduced_round(alpha, theta, tail_tol=1e-12):
    dp = DisplacementParams.invariant(alpha)
    tp = ThermalParams.from_theta(theta)
    state = build_state(StateKind.ROUND, dp, tp, tail_tol=tail_tol)
    return reduced_density(state, "ordinary")


def test_gaussian_qp_evaluate_scalar_and_array():
    g = GaussianQP(mean=1.0 + 1.0j, sigma=0.7, kind_tag="Q")
    peak = g.evaluate(1.0 + 1.0j)
    assert isinstance(peak, float)
    assert peak == pytest.approx(1.0 / (2.0 * math.pi * 0.49))
    pts = np.array([[1.0 + 1.0j, 0.0], [2.0, 3.0j]])
    vals = g.evaluate(pts)
    assert vals.shape == (2, 2)
    assert vals[0, 0] == pytest.approx(peak)


def test_gaussian_qp_normalization():
    """Radial integral of the density over the plane equals one."""
    g = GaussianQP(mean=0.4 - 0.2j, sigma=1.3, kind_tag="W")
    r = np.linspace(0.0, 12.0, 4001)
    phi = np.linspace(0.0, 2.0 * math.pi, 257)
    mus = g.mean + r[:, None] * np.exp(1j * phi[None, :])
    vals = g.evaluate(mus)
    integral = np.trapezoid(np.trapezoid(vals, phi, axis=1) * r, r)
    assert integral == pytest.approx(1.0, abs=1e-5)


def test_gaussian_qp_validation():
    with pytest.raises(ValueError):
        GaussianQP(mean=0.0, sigma=0.0, kind_tag="Q")
    with pytest.raises(ValueError):
        GaussianQP(mean=0.0, sigma=1.0, kind_tag="X")


@pytest.mark.parametrize("theta", [0.1, 0.4, 0.9, 1.5])
def test_width_closed_forms_and_identities(theta):
    sig_p = p_rep(StateKind.ROUND, 1.0, theta).sigma
    sig_q = q_func(StateKind.ROUND, 1.0, theta).sigma
    sig_w = wigner(StateKind.ROUND, 1.0, theta).sigma
    assert sig_p == pytest.approx(math.sinh(theta) / math.sqrt(2.0), rel=1e-15)
    assert sig_q == pytest.approx(math.cosh(theta) / math.sqrt(2.0), rel=1e-15)
    assert sig_w == pytest.approx(0.5 * math.sqrt(math.cosh(2.0 * theta)), rel=1e-15)
    assert abs(sig_q**2 - sig_p**2 - 0.5) < WIDTH_TOL
    assert abs(2.0 * sig_w**2 - (sig_p**2 + sig_q**2)) < WIDTH_TOL
    assert sig_p < sig_w < sig_q


@pytest.mark.parametrize("kind", KINDS)
def test_density_means_scale_with_kind(kind):
    alpha, theta = 0.9 - 0.6j, 0.7
    factor = mean_amplitude_factor(kind, theta)
    for density in (p_rep, q_func, wigner):
        assert density(kind, alpha, theta).mean == pytest.approx(factor * alpha)


def test_p_rep_delta_limit():
    """sigma_P * sqrt(2) / theta -> 1 from above as theta -> 0."""
    for theta in (1e-2, 1e-3, 1e-4, 1e-5):
        ratio = p_rep(StateKind.ROUND, 1.0, theta).sigma * math.sqrt(2.0) / theta
        assert abs(ratio - 1.0) < theta**2
    with pytest.raises(ValueError, match="delta"):
        p_rep(StateKind.ROUND, 1.0, 0.0)


def test_q_func_numeric_on_simple_states():
    d = 25
    vac = np.zeros((d, d), dtype=complex)
    vac[0, 0] = 1.0
    rho_vac = DensityMatrix.from_array(vac)
    for mu in (0.0, 0.7, 1.2j, -0.4 + 0.9j):
        assert q_func_numeric(rho_vac, mu) == pytest.approx(
            math.exp(-abs(mu) ** 2) / math.pi, abs=1e-12
        )
    nu = 0.8 - 0.3j
    coh = coherent_vector(nu, d)
    rho_coh = DensityMatrix.from_array(np.outer(coh, coh.conj()))
    for mu in (0.0, nu, 1.0 + 0.5j):
        assert q_func_numeric(rho_coh, mu) == pytest.approx(
            math.exp(-abs(mu - nu) ** 2) / math.pi, abs=1e-9
        )


def test_q_func_numeric_matches_closed_form():
    alpha, theta = 1.0 + 0.4j, 0.5
    rho = _reduced_round(alpha, theta)
    closed = q_func(StateKind.ROUND, alpha, theta)
    offsets = np.array([0.0, 0.8, -1.2j, 1.5 + 1.5j, -2.0 + 0.5j])
    for mu in closed.mean + offsets * closed.sigma:
        assert q_func_numeric(rho, mu) == pytest.approx(
            closed.evaluate(mu), abs=GRID_TOL
        )


@pytest.mark.parametrize("k", [0, 1, 2], ids=["vacuum", "fock1", "fock2"])
def test_wigner_numeric_on_vacuum(k):
    """Fock state |k>: (2/pi) (-1)^k L_k(4|mu|^2) exp(-2|mu|^2), negative at 0 for odd k."""
    d = 20
    fock = np.zeros((d, d), dtype=complex)
    fock[k, k] = 1.0
    rho = DensityMatrix.from_array(fock)
    laguerre_k = [0.0] * k + [1.0]
    for mu in (0.0, 0.5, 0.3 - 0.8j, 1.1 + 0.4j):
        x = 4.0 * abs(mu) ** 2
        lag = np.polynomial.laguerre.lagval(x, laguerre_k)
        expected = 2.0 / math.pi * (-1) ** k * lag * math.exp(-0.5 * x)
        assert wigner_numeric(rho, mu) == pytest.approx(expected, abs=1e-12)


def test_wigner_numeric_matches_closed_form():
    alpha, theta = 0.8, 0.4
    rho = _reduced_round(alpha, theta)
    closed = wigner(StateKind.ROUND, alpha, theta)
    mus = closed.mean + np.array([0.0, 1.0, -1.0j, 2.0 + 2.0j]) * closed.sigma
    vals = wigner_numeric(rho, mus)
    assert np.abs(vals - closed.evaluate(mus)).max() < GRID_TOL
    # a scalar point gives a float equal to the batch entry
    one = wigner_numeric(rho, mus[1])
    assert isinstance(one, float)
    assert one == pytest.approx(vals[1], abs=1e-12)
    assert wigner_numeric(rho, mus.reshape(2, 2)).shape == (2, 2)
    # far enough out, exp(-2|mu|^2) underflows and the point is refused
    with pytest.raises(CutoffError):
        wigner_numeric(rho, 20.0)


@pytest.mark.parametrize("kind", KINDS)
def test_wigner_numeric_rounding_level(kind):
    """At tail_tol 1e-16 the parity sum meets the closed form to rounding."""
    alpha, theta = 0.6 + 0.3j, 0.5
    state = build_state(
        kind, DisplacementParams.invariant(alpha), ThermalParams.from_theta(theta), tail_tol=1e-16
    )
    rho = reduced_density(state, "ordinary")
    closed = wigner(kind, alpha, theta)
    span = np.linspace(-3.0, 3.0, 5)
    mus = closed.mean + closed.sigma * (span[:, None] + 1j * span[None, :])
    assert np.abs(wigner_numeric(rho, mus) - closed.evaluate(mus)).max() < 1e-14


@pytest.mark.parametrize(
    "etas",
    [
        np.array([0.0, 0.4, -0.3j, 0.5 + 0.5j, -1.0 + 0.2j]),
        np.linspace(-1.2, 1.2, 7)[:, None] + 1j * np.linspace(-1.0, 1.0, 5)[None, :],
    ],
    ids=["scattered", "grid-7x5"],
)
def test_char_signal_numeric_matches_closed_form(etas):
    """The closed-form chi_signal against Tr[rho D(eta)] with a dense exponential."""
    alpha, theta = 0.7 + 0.2j, 0.45
    rho = _reduced_round(alpha, theta, tail_tol=1e-13)
    vals = support_cf.char_signal_expm(rho, etas)
    assert vals.shape == etas.shape
    expected = np.vectorize(lambda e: chi_signal(alpha, theta, e))(etas)
    assert np.abs(vals - expected).max() < 1e-9
    assert vals.flat[np.argmin(np.abs(etas))] == pytest.approx(1.0, abs=1e-12)


def test_wigner_quadrature_peak_memory():
    """The verify Wigner check stays small in a fresh interpreter.

    The peak is read from VmHWM, which starts afresh at exec; the
    child's ru_maxrss would still carry the test process's own peak.
    """
    script = (
        "import numpy as np\n"
        "from thermalcoherent import (DisplacementParams, StateKind,\n"
        "    ThermalParams, build_state, reduced_density, wigner_numeric)\n"
        "state = build_state(StateKind.DOUBLE, DisplacementParams.invariant(0.8),\n"
        "                    ThermalParams.from_theta(0.4), d=25)\n"
        "rho = reduced_density(state, 'ordinary')\n"
        "wigner_numeric(rho, np.array([0.0, 1.0, -1.0 + 1.0j]))\n"
        "with open('/proc/self/status') as fh:\n"
        "    print(next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:')) / 1024.0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 150.0


def test_completeness_constant_values():
    assert completeness_constant(0.0) == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert completeness_constant(0.5) == pytest.approx(math.e / math.pi, rel=1e-15)
    with pytest.raises(ValueError):
        completeness_constant(-0.2)


def test_completeness_defect_small():
    assert completeness_defect(0.3, 12) < 1e-3
    # the theta = 0 case reduces to coherent-state completeness
    assert completeness_defect(0.0, 10, n_angular=48) < 1e-3


def test_completeness_defect_validation():
    with pytest.raises(ValueError):
        completeness_defect(-0.1, 12)
    with pytest.raises(ValueError):
        completeness_defect(0.3, 8, levels=9)


def test_reduced_density_rotation_relation():
    """rho(r e^{i phi})[n, p] = e^{i phi (n - p)} rho(r)[n, p]."""
    r, phi, theta = 0.9, 0.8, 0.5
    rho_r = _reduced_round(r, theta).entries
    rho_rot = _reduced_round(r * np.exp(1j * phi), theta).entries
    d = min(rho_r.shape[0], rho_rot.shape[0])
    n = np.arange(d)
    ring = np.exp(1j * phi * (n[:, None] - n[None, :]))
    assert np.abs(rho_rot[:d, :d] - ring * rho_r[:d, :d]).max() < 1e-12
