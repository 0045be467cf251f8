"""Acceptance suite: every shipped claim, one printed verdict per criterion.

Each test rechecks one deliverable at its stated tolerance and writes a
single PASS/FAIL line to the real stdout (bypassing capture) so a full
run always ends with thirteen verdict lines, green or red.
"""

import math
import time

import numpy as np
import pytest
import support_cf
import support_ops

from thermalcoherent import (
    DisplacementParams,
    OpoParams,
    PhysicalConstants,
    StateKind,
    ThermalParams,
    build_state,
    check_double_vs_round,
    check_trotter_vs_round,
    closed_unitary,
    completeness_defect,
    finite_product_decomposition,
    improper_displacement,
    moments_from_cf,
    p_rep,
    q_func,
    q_func_numeric,
    quadrature_moments_numeric,
    reduced_density,
    series_limits,
    signal_density,
    sliced_unitary,
    uncertainty_product,
    wigner,
    wigner_numeric,
    xi_eigenvalue,
    xi_residual,
)
from thermalcoherent.cli import main

SUITE_START = time.perf_counter()
SUITE_BUDGET_S = 300.0

KINDS = (StateKind.ROUND, StateKind.TROTTER, StateKind.DOUBLE)

# |alpha| x phase x theta grid with the tilde-invariant pairing zeta = conj(alpha)
GRID = [
    (mag * complex(math.cos(ph), math.sin(ph)), theta)
    for mag in (0.4, 0.8, 1.2)
    for ph in (0.3, 1.9, 4.4)
    for theta in (0.2, 0.5, 0.8)
]


_CAPTURE = None


@pytest.fixture(autouse=True)
def _verdict_stream(capsys):
    """Expose the capture fixture so verdict lines can bypass capture."""
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d} {label}: {detail}"
    with _CAPTURE.disabled():
        print(line, flush=True)
    assert ok, line


def _read_rows(path):
    lines = path.read_text().splitlines()
    rows = [
        [float(cell) for cell in line.split(",")]
        for line in lines[1:]
        if not line.startswith("#")
    ]
    return np.array(rows), [line for line in lines[1:] if line.startswith("#")]


def _gauss2d(x: np.ndarray, mean: float, sigma: float) -> np.ndarray:
    return np.exp(-((x - mean) ** 2) / (2.0 * sigma**2)) / (2.0 * math.pi * sigma**2)


def test_01_mean_position_factors(tmp_path):
    out = tmp_path / "fig1.csv"
    t0 = time.perf_counter()
    code = main(["fig1", "--out", str(out)])
    runtime = time.perf_counter() - t0
    rows, _ = _read_rows(out)
    theta = rows[:, 0]
    closed = np.column_stack(
        [
            np.exp(theta),
            np.where(theta > 0.0, np.expm1(theta) / np.where(theta > 0.0, theta, 1.0), 1.0),
            np.ones_like(theta),
        ]
    )
    worst = np.abs(rows[:, 1:] - closed).max()
    positive = theta > 0.0
    ordered = bool(
        np.all(rows[positive, 3] < rows[positive, 2])
        and np.all(rows[positive, 2] < rows[positive, 1])
    )
    ok = code == 0 and len(rows) == 200 and worst <= 1e-12 and ordered and runtime < 1.0
    _report(1, "mean-position factors", ok,
            f"max_dev={worst:.3e} ordered={ordered} runtime={runtime:.2f}s")


def test_02_p_density_slices(tmp_path):
    out = tmp_path / "fig2.csv"
    code = main(["fig2", "--out", str(out)])
    rows, _ = _read_rows(out)
    mu = rows[:, 0]
    thetas = (0.4, 0.6, 0.8)
    worst = 0.0
    worst_norm = 0.0
    for col, t in enumerate(thetas, start=1):
        mean = 2.0 * math.expm1(t) / t
        sigma = math.sinh(t) / math.sqrt(2.0)
        worst = max(worst, np.abs(rows[:, col] - _gauss2d(mu, mean, sigma)).max())
        # the density is radially symmetric about its mean, so the right
        # half of the emitted slice integrates the whole plane
        right = mu >= mean
        r = mu[right] - mean
        total = np.trapezoid(rows[right, col] * 2.0 * math.pi * r, r)
        total += math.pi * r[0] ** 2 * rows[right, col][0]
        worst_norm = max(worst_norm, abs(total - 1.0))
    ok = code == 0 and len(rows) == 40001 and worst <= 1e-10 and worst_norm <= 1e-6
    _report(2, "combined-exponential P density", ok,
            f"max_dev={worst:.3e} norm_dev={worst_norm:.3e}")


def test_03_three_kind_p_density(tmp_path):
    out = tmp_path / "fig3.csv"
    code = main(["fig3", "--out", str(out)])
    rows, _ = _read_rows(out)
    mu = rows[:, 0]
    t = 0.4
    sigma = math.sinh(t) / math.sqrt(2.0)
    means = (4.0 * math.exp(t), 4.0 * math.expm1(t) / t, 4.0)
    worst = max(
        np.abs(rows[:, col] - _gauss2d(mu, mean, sigma)).max()
        for col, mean in enumerate(means, start=1)
    )
    ok = code == 0 and worst <= 1e-10
    _report(3, "three-kind P density", ok, f"max_dev={worst:.3e}")


def test_04_slice_convergence(tmp_path):
    out = tmp_path / "converge.csv"
    t0 = time.perf_counter()
    code = main(["converge", "--out", str(out)])
    runtime = time.perf_counter() - t0
    rows, comments = _read_rows(out)
    slope = float(comments[0].split("=", 1)[1])
    ok = (
        code == 0
        and list(rows[:, 0]) == [16.0, 32.0, 64.0, 128.0, 256.0, 512.0]
        and abs(slope + 1.0) <= 0.2
        and runtime < 60.0
    )
    _report(4, "slice convergence", ok, f"slope={slope:.4f} runtime={runtime:.1f}s")


def test_05_kind_equivalences():
    worst = 0.0
    worst_phase = 0.0
    for alpha, theta in GRID:
        dp = DisplacementParams.invariant(alpha)
        tp = ThermalParams.from_theta(theta)
        res_t = check_trotter_vs_round(dp, tp)
        res_d = check_double_vs_round(dp, tp)
        worst = max(worst, res_t.distance, res_d.distance)
        worst_phase = max(worst_phase, abs(res_t.phase_theta), abs(res_d.phase_theta))
    ok = worst <= 1e-9 and worst_phase == 0.0
    _report(5, "kind equivalences", ok,
            f"max_distance={worst:.3e} max_phase={worst_phase:.1e}")


def test_06_finite_product_identity():
    alpha, zeta, theta = 0.7, 0.7j, 0.6
    worst = 0.0
    checked = 0
    # headroom above the compared corner grows with the largest collapsed
    # squeeze angle n*theta/N reached inside each sweep row
    for n_slices in range(1, 17):
        d_big = 128 if n_slices <= 8 else (112 if n_slices <= 12 else 88)
        gaps = support_ops.product_identity_gaps(
            finite_product_decomposition, alpha, zeta, theta,
            n_slices=n_slices, n_max=min(8, n_slices), d_corner=20, d_big=d_big,
        )
        worst = max(worst, max(g for _, g in gaps))
        checked += len(gaps)
    example = support_ops.product_identity_gaps(
        finite_product_decomposition, alpha, zeta, theta,
        n_slices=8, n_max=3, d_corner=25, d_big=88,
    )
    worst_example = example[-1][1]
    ok = worst <= 1e-9 and worst_example <= 1e-9
    _report(6, "finite-product identity", ok,
            f"max_gap={worst:.3e} over {checked} (n,N) pairs, example_gap={worst_example:.3e}")


def test_07_series_limits_brute_force():
    n = 10**6
    worst = 0.0
    for theta in (0.2, 0.4, 0.8):
        m = np.arange(n, dtype=float)
        x = m * (theta / n)
        s_weighted = math.fsum((n - m) * np.sinh(x)) / n**2
        s_cosh = math.fsum(np.cosh(x)) / n
        s_sinh = math.fsum(np.sinh(x)) / n
        c1, c2, c3 = series_limits(theta)
        worst = max(worst, abs(s_weighted - c1), abs(s_cosh - c2), abs(s_sinh - c3))
    ok = worst <= 1e-5
    _report(7, "series limits at N=1e6", ok, f"max_dev={worst:.3e}")


def test_08_uncertainty_product():
    pc = PhysicalConstants()
    worst = 0.0
    floor_ok = True
    for alpha, theta in GRID:
        dp = DisplacementParams.invariant(alpha)
        tp = ThermalParams.from_theta(theta)
        expected = uncertainty_product(theta, pc)
        for kind in KINDS:
            state = build_state(kind, dp, tp, tail_tol=1e-12)
            got = quadrature_moments_numeric(state, pc).uncertainty_product
            worst = max(worst, abs(got - expected))
            floor_ok = floor_ok and got >= 0.5 * pc.hbar - 1e-12
    ok = worst <= 1e-7 and floor_ok
    _report(8, "uncertainty product", ok,
            f"max_dev={worst:.3e} floor_respected={floor_ok}")


def test_09_xi_eigenvector_criterion():
    worst_residual = 0.0
    worst_round = 0.0
    for alpha, theta in GRID:
        dp = DisplacementParams.invariant(alpha)
        tp = ThermalParams.from_theta(theta)
        for kind in KINDS:
            state = build_state(kind, dp, tp, tail_tol=1e-16)
            lam = xi_eigenvalue(kind, dp, tp)
            worst_residual = max(worst_residual, xi_residual(state, tp, lam))
        worst_round = max(
            worst_round, abs(xi_eigenvalue(StateKind.ROUND, dp, tp) - alpha)
        )
    violations = []
    for f in (0.3, 0.7j, -0.5 + 0.2j):
        idp = improper_displacement(f, ThermalParams.from_theta(0.5))
        violations.append(abs(idp.alpha.conjugate() - idp.zeta))
    improper_positive = all(v > 0.0 for v in violations)
    ok = worst_residual <= 1e-6 and worst_round <= 1e-12 and improper_positive
    _report(9, "xi eigenvector criterion", ok,
            f"max_residual={worst_residual:.3e} round_eigenvalue_dev={worst_round:.1e} "
            f"improper_positive={improper_positive}")


def test_10_quasiprobability_agreement():
    alpha, theta = 1.0, 0.5
    worst_q = 0.0
    worst_w = 0.0
    for kind in KINDS:
        state = build_state(
            kind, DisplacementParams.invariant(alpha), ThermalParams.from_theta(theta),
            tail_tol=1e-12,
        )
        rho = reduced_density(state, "ordinary")
        closed_q = q_func(kind, alpha, theta)
        span = np.linspace(-4.0, 4.0, 9)
        for dx in span:
            for dy in span:
                mu = closed_q.mean + closed_q.sigma * complex(dx, dy)
                worst_q = max(worst_q, abs(q_func_numeric(rho, mu) - closed_q.evaluate(mu)))
        closed_w = wigner(kind, alpha, theta)
        span_w = np.linspace(-4.0, 4.0, 5)
        mus = (closed_w.mean + closed_w.sigma * (span_w[:, None] + 1j * span_w[None, :])).ravel()
        got = wigner_numeric(rho, mus)
        worst_w = max(worst_w, float(np.abs(got - closed_w.evaluate(mus)).max()))
    worst_width = 0.0
    for t in (0.1, 0.4, 0.9, 1.5):
        sp = p_rep(StateKind.ROUND, 0.0, t).sigma
        sq = q_func(StateKind.ROUND, 0.0, t).sigma
        sw = wigner(StateKind.ROUND, 0.0, t).sigma
        worst_width = max(
            worst_width, abs(sq**2 - sp**2 - 0.5), abs(2.0 * sw**2 - sp**2 - sq**2)
        )
    delta_ok = all(
        abs(p_rep(StateKind.ROUND, 0.0, t).sigma * math.sqrt(2.0) / t - 1.0) < t
        for t in (1e-2, 1e-3, 1e-4, 1e-5)
    )
    ok = worst_q <= 1e-6 and worst_w <= 1e-6 and worst_width <= 1e-14 and delta_ok
    _report(10, "quasiprobability agreement", ok,
            f"husimi={worst_q:.3e} wigner={worst_w:.3e} widths={worst_width:.1e} "
            f"delta_limit={delta_ok}")


def test_11_completeness():
    defect = completeness_defect(0.3, 12)
    ok = defect <= 1e-3
    _report(11, "weighted completeness", ok, f"defect={defect:.3e}")


def test_12_gaussian_oracle_equivalence():
    pc = PhysicalConstants()
    alpha, zeta, theta = 0.6 + 0.3j, 0.2 - 0.4j, 0.5
    dp = DisplacementParams(alpha=alpha, zeta=zeta)
    worst_fock = 0.0
    for kind in KINDS:
        gm = moments_from_cf(kind, alpha, zeta, theta)
        state = build_state(kind, dp, ThermalParams.from_theta(theta), tail_tol=1e-14)
        mean_n, cov_n = support_cf.fock_moments(state, pc)
        iu = np.triu_indices(4)
        worst_fock = max(
            worst_fock,
            float(np.abs(gm.mean - mean_n).max()),
            float(np.abs(gm.cov[iu] - cov_n[iu]).max()),
        )
    mean_fd, cov_fd = support_cf.cf_moments_fd(alpha, zeta, theta, pc, h=1e-5)
    gm = moments_from_cf(StateKind.ROUND, alpha, zeta, theta)
    iu = np.triu_indices(4)
    worst_fd = max(
        float(np.abs(gm.mean - mean_fd).max()), float(np.abs(gm.cov[iu] - cov_fd[iu]).max())
    )
    ok = worst_fock <= 1e-8 and worst_fd <= 1e-6
    _report(12, "gaussian oracle equivalence", ok,
            f"fock_dev={worst_fock:.3e} fd_dev={worst_fd:.3e} (14 moments per kind)")


def test_13_opo_identification():
    op = OpoParams(chi2=1.0, g_s=0.7, g_i=0.7, t1=0.5, t2=1.0)
    d = 30
    closed = closed_unitary(op, d)
    state = build_state(
        StateKind.TROTTER,
        DisplacementParams(alpha=op.gamma_s, zeta=op.gamma_i),
        ThermalParams.from_theta(op.theta),
        d=d,
    )
    ident = float(np.linalg.norm(closed[:, 0] - state.amplitudes))
    errs = []
    n_values = (8, 16, 32, 64)
    for n in n_values:
        sliced = sliced_unitary(
            OpoParams(chi2=1.0, g_s=0.7, g_i=0.7, t1=0.5, t2=1.0, n_slices=n), d
        )
        errs.append(float(np.linalg.norm(sliced - closed)))
    slope = float(np.polyfit(np.log(n_values), np.log(errs), 1)[0])
    rho = signal_density(op, d)
    purity_dev = abs(rho.purity() - 1.0 / math.cosh(2.0 * op.theta))
    mean_amp = op.gamma_s * math.expm1(op.theta) / op.theta
    photon_dev = abs(rho.mean_photon() - (abs(mean_amp) ** 2 + math.sinh(op.theta) ** 2))
    elapsed = time.perf_counter() - SUITE_START
    ok = (
        ident <= 1e-9
        and abs(slope + 1.0) <= 0.2
        and purity_dev <= 1e-6
        and photon_dev <= 1e-6
        and elapsed < SUITE_BUDGET_S
    )
    _report(13, "parametric-oscillator identification", ok,
            f"state_gap={ident:.3e} slope={slope:.3f} purity_dev={purity_dev:.1e} "
            f"photon_dev={photon_dev:.1e} suite={elapsed:.0f}s")
