"""End-to-end tests of the command line interface."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from thermalcoherent import (
    OpoParams,
    StateKind,
    annihilation_matrix,
    mean_amplitude_factor,
    p_rep,
    signal_density,
)
from thermalcoherent.cli import main

VERIFY_KEYS = ["all_passed", "checks", "constants", "sabotage", "seed"]
CHECK_KEYS = ["max_error", "name", "passed", "tolerance"]
OPO_KEYS = [
    "closed_sliced_distance",
    "cutoff",
    "gamma_i",
    "gamma_s",
    "mean_photon",
    "mean_photon_expected",
    "n_slices",
    "purity",
    "purity_expected",
    "theta",
]


def _read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [
        [float(cell) for cell in line.split(",")]
        for line in lines[1:]
        if not line.startswith("#")
    ]
    comments = [line for line in lines[1:] if line.startswith("#")]
    return header, rows, comments


def test_fig1_values_and_format(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--steps", "3", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    header, rows, _ = _read_rows(out)
    assert header == ["theta", "round", "trotter", "double"]
    assert len(rows) == 3
    # theta = 0 row is exact: every kind leaves the mean in place
    assert out.read_text().splitlines()[1] == "0,1,1,1"
    theta_mid = rows[1][0]
    assert theta_mid == pytest.approx(1.0)
    assert rows[1][1] == pytest.approx(math.e, rel=1e-15)
    assert rows[1][2] == pytest.approx(math.e - 1.0, rel=1e-15)
    assert rows[1][3] == 1.0


def test_fig1_seventeen_digit_roundtrip(tmp_path):
    out = tmp_path / "fig1.csv"
    assert main(["fig1", "--steps", "40", "--theta-max", "1.7", "--out", str(out)]) == 0
    _, rows, _ = _read_rows(out)
    for theta, round_f, trotter_f, double_f in rows:
        assert round_f == mean_amplitude_factor(StateKind.ROUND, theta)
        assert trotter_f == mean_amplitude_factor(StateKind.TROTTER, theta)
        assert double_f == mean_amplitude_factor(StateKind.DOUBLE, theta)


def test_fig2_curves_match_closed_form(tmp_path):
    out = tmp_path / "fig2.csv"
    code = main(
        ["fig2", "--alpha", "2.0", "--thetas", "0.4,0.8", "--points", "11",
         "--mu-min", "-1.0", "--mu-max", "7.0", "--out", str(out)]
    )
    assert code == 0
    header, rows, _ = _read_rows(out)
    assert header == ["mu", "p_theta_0.4", "p_theta_0.8"]
    arr = np.array(rows)
    for col, theta in ((1, 0.4), (2, 0.8)):
        closed = p_rep(StateKind.TROTTER, 2.0, theta).evaluate(arr[:, 0])
        assert np.abs(arr[:, col] - closed).max() < 1e-15


def test_fig3_has_one_curve_per_kind(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--points", "7", "--out", str(out)]) == 0
    header, rows, _ = _read_rows(out)
    assert header == ["mu", "p_round", "p_trotter", "p_double"]
    assert len(rows) == 7


def test_fig2_rejects_zero_theta(tmp_path, capsys):
    code = main(["fig2", "--thetas", "0.4,0.0", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "delta" in capsys.readouterr().err


def test_converge_slope_comment(tmp_path):
    out = tmp_path / "converge.csv"
    code = main(["converge", "--n-list", "8,16,32,64", "--out", str(out)])
    assert code == 0
    header, rows, comments = _read_rows(out)
    assert header == ["n_slices", "distance"]
    dists = [r[1] for r in rows]
    assert dists == sorted(dists, reverse=True)
    assert len(comments) == 1 and comments[0].startswith("# fitted_slope=")
    slope = float(comments[0].split("=", 1)[1])
    assert slope == pytest.approx(-1.0, abs=0.2)


def test_converge_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["converge", "--n-list", "4,8,16"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_converge_rejects_unsorted_slice_counts(tmp_path, capsys):
    code = main(["converge", "--n-list", "16,8", "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert "ascending" in capsys.readouterr().err


def test_converge_cutoff_overflow_exits_4(tmp_path, capsys):
    code = main(
        ["converge", "--alpha", "3.0", "--cutoff", "8", "--out", str(tmp_path / "c.csv")]
    )
    assert code == 4
    assert "overflow" in capsys.readouterr().err


def test_verify_json_schema_and_exit(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 10
    assert all(line.startswith("PASS") for line in printed)
    doc = json.loads(out.read_text())
    assert sorted(doc) == VERIFY_KEYS
    assert doc["all_passed"] is True
    assert doc["sabotage"] is False
    assert doc["seed"] == 0
    assert sorted(doc["constants"]) == ["hbar", "lambda"]
    assert len(doc["checks"]) == 10
    for check in doc["checks"]:
        assert sorted(check) == CHECK_KEYS
        assert check["passed"] is True
        assert check["max_error"] <= check["tolerance"]


def test_verify_sabotage_fails_with_exit_1(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert main(["verify", "--sabotage", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "FAIL  equivalence.trotter_vs_round" in captured.out
    assert "property failure: equivalence.trotter_vs_round" in captured.err
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is False
    assert doc["sabotage"] is True
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    assert failed == ["equivalence.trotter_vs_round"]


def test_opo_outputs_csv_and_sidecar(tmp_path):
    out = tmp_path / "opo.csv"
    code = main(["opo", "--slices", "64", "--q-grid", "5", "--out", str(out)])
    assert code == 0
    header, rows, _ = _read_rows(out)
    assert header == ["re_mu", "im_mu", "q"]
    assert len(rows) == 25
    assert all(r[2] >= 0.0 for r in rows)
    doc = json.loads((tmp_path / "opo.json").read_text())
    assert sorted(doc) == OPO_KEYS
    assert doc["n_slices"] == 64
    assert doc["theta"] == pytest.approx(0.4)
    assert doc["purity"] == pytest.approx(doc["purity_expected"], abs=1e-6)
    assert doc["mean_photon"] == pytest.approx(doc["mean_photon_expected"], abs=1e-6)
    assert 0.0 < doc["closed_sliced_distance"] < 0.5


OPO_REL_TOL = 1e-6


@pytest.mark.parametrize(
    "drives",
    [
        {"g_i": 0.3},
        {"g_s": 0.5 + 0.4j},
        {"chi2": -1.0, "g_i": 0.2 - 0.5j},
    ],
)
def test_opo_expected_mean_off_invariant_slice(tmp_path, drives):
    """mean_photon_expected and the Q-grid centre hold for any drives and either sign of chi2.

    The grid centre is checked against <a> = Tr(rho a) of the signal state.
    """
    op = OpoParams(**{"chi2": 1.0, "g_s": 0.8, "g_i": 0.8, "t1": 0.4, "t2": 1.0, **drives})
    flags = ["--chi2", repr(op.chi2), "--g-s", str(op.g_s), "--g-i", str(op.g_i)]
    out = tmp_path / "opo.csv"
    assert main(["opo", *flags, "--slices", "2", "--q-grid", "3", "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "opo.json").read_text())
    assert doc["theta"] == pytest.approx(op.theta)
    expected = doc["mean_photon_expected"]
    assert abs(doc["mean_photon"] - expected) <= OPO_REL_TOL * max(1.0, expected)
    rho = signal_density(op, 30).entries
    mean_a = np.trace(rho @ annihilation_matrix(rho.shape[0]))
    _, rows, _ = _read_rows(out)
    assert abs(complex(rows[4][0], rows[4][1]) - mean_a) <= OPO_REL_TOL


def test_opo_tail_overflow_exits_4(tmp_path, capsys):
    """A drive too strong for the cutoff is refused, not truncated silently."""
    out = tmp_path / "opo.csv"
    code = main(["opo", "--g-s", "3", "--g-i", "3", "--t1", "1.5", "--out", str(out)])
    assert code == 4
    assert "overflow" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_defaults_and_flag_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "run.json"
    cfg_out = tmp_path / "from_config.csv"
    cfg.write_text(json.dumps({"out": str(cfg_out), "seed": 3}))
    monkeypatch.chdir(tmp_path)
    assert main(["fig1", "--steps", "3", "--config", str(cfg)]) == 0
    assert cfg_out.exists()
    flag_out = tmp_path / "from_flag.csv"
    assert main(["fig1", "--steps", "3", "--config", str(cfg), "--out", str(flag_out)]) == 0
    assert flag_out.read_bytes() == cfg_out.read_bytes()


def test_config_file_rejections(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"cutof": 12}))
    assert main(["fig1", "--steps", "3", "--config", str(bad_key)]) == 2
    assert "unknown config keys: cutof" in capsys.readouterr().err
    old_key = tmp_path / "epsilon.json"
    old_key.write_text(json.dumps({"epsilon": 1.0}))
    assert main(["verify", "--config", str(old_key)]) == 2
    assert "unknown config keys: epsilon" in capsys.readouterr().err
    not_json = tmp_path / "broken.json"
    not_json.write_text("{not json")
    assert main(["fig1", "--steps", "3", "--config", str(not_json)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unwritable_output_exits_3(tmp_path, capsys):
    target = tmp_path / "missing" / "fig1.csv"
    assert main(["fig1", "--steps", "3", "--out", str(target)]) == 3
    assert "i/o failure" in capsys.readouterr().err


def test_bad_flag_value_exits_2(capsys):
    assert main(["fig1", "--steps", "many"]) == 2
    capsys.readouterr()
    assert main(["converge", "--alpha", "1+2x"]) == 2
    capsys.readouterr()
    assert main(["fig1", "--tail-tol", "0.5"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--cutoff", "5"],
        ["fig1", "--cutoff", "2"],
        ["fig2", "--tail-tol", "1e-9"],
        ["fig1", "--hbar", "2"],
        ["opo", "--seed", "3"],
        ["converge", "--lambda", "2"],
        ["verify", "--epsilon", "1"],
    ],
)
def test_cutoff_flags_rejected_where_unused(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_opo_cutoff_bound_exits_2_at_once(tmp_path, capsys):
    """opo refuses a cutoff whose dense d^2 x d^2 unitaries would not fit."""
    out = tmp_path / "opo.csv"
    start = time.perf_counter()
    assert main(["opo", "--cutoff", "49", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "exceeds 48" in capsys.readouterr().err
    assert not out.exists()


def test_console_entry_point(tmp_path):
    out = tmp_path / "fig1.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "thermalcoherent.cli", "fig1", "--steps", "3",
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert out.read_text().splitlines()[1] == "0,1,1,1"


def test_runtime_imports_neither_scipy_nor_mpmath(tmp_path):
    """The runtime stays numpy-only although the tests use scipy and mpmath."""
    script = (
        "import sys\n"
        "from thermalcoherent.cli import main\n"
        "assert main(['opo', '--q-grid', '3', '--slices', '2', '--out', sys.argv[1]]) == 0\n"
        "print(sorted({'scipy', 'mpmath'} & set(sys.modules)))\n"
    )
    out = tmp_path / "opo.csv"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert out.with_suffix(".json").exists()
