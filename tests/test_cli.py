import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cmwave.cli
from cmwave.cli import main
from cmwave.measures import StandardLinearSolid
from cmwave.verification import PVConvergenceError
from cmwave.wavenumber import JumpExtrapolationError, dispersion_attenuation

CC_ARGS = ["--model", "cole-cole", "--a", "1.5", "--alpha", "0.5",
           "--tau", "1e-13", "--cinf", "5000"]


# the subprocesses import cmwave from this checkout's src/
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(Path(__file__).resolve().parents[1] / "src"),
                  os.environ.get("PYTHONPATH"))))}


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "cmwave", *args],
                          capture_output=True, text=True, env=SRC_ENV)


def read_table(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(v) for v in line.split(",")])
    return header, np.array(rows)


def test_curves_fig1_row_count(tmp_path):
    out = tmp_path / "cc.csv"
    rc = main(["curves", *CC_ARGS, "--range", "1e-3:1e3", "--ppd", "20",
               "-o", str(out)])
    assert rc == 0
    header, rows = read_table(out)
    assert header == ["omega_MHz", "attenuation_per_m", "dispersion_per_m",
                      "phase_speed_m_per_s"]
    assert rows.shape == (121, 4)
    assert np.all(np.diff(rows[:, 1]) > 0)      # attenuation rises
    assert np.all(np.diff(rows[:, 3]) > 0)      # phase speed rises


def test_curves_sls_comparison(tmp_path):
    out = tmp_path / "sls.csv"
    rc = main(["curves", "--model", "sls", "--a", "1.5", "--tau", "1e-13",
               "--cinf", "5000", "--range", "1e-3:1e3", "--ppd", "5",
               "-o", str(out)])
    assert rc == 0
    _, rows = read_table(out)
    assert rows.shape[0] == 31


def test_curves_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["curves", *CC_ARGS, "--range", "1e-2:1e2", "--ppd", "4"]
    assert main([*argv, "-o", str(a)]) == 0
    assert main([*argv, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_empty_range_exits_2():
    proc = run_cli(["curves", *CC_ARGS, "--range", "10:1", "--ppd", "20"])
    assert proc.returncode == 2


def test_missing_parameter_exits_2():
    proc = run_cli(["curves", "--model", "cole-cole", "--range", "1:10"])
    assert proc.returncode == 2
    assert "requires" in proc.stderr


def test_spectrum_cc_tail_slope(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", *CC_ARGS, "--range", "1e7:1e19", "--ppd", "10",
               "-o", str(out)])
    assert rc == 0
    _, rows = read_table(out)
    r, h = rows[:, 0], rows[:, 1]
    tail = r > 1e16
    slope = np.polyfit(np.log(r[tail]), np.log(h[tail]), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.02)


def test_spectrum_supports(tmp_path):
    out = tmp_path / "cd.csv"
    main(["spectrum", "--model", "cole-davidson", "--b", "0.5", "--gamma",
          "0.5", "--tau", "1e-13", "--cinf", "5000", "--range", "1e10:1e15",
          "--ppd", "30", "-o", str(out)])
    _, rows = read_table(out)
    r, h = rows[:, 0], rows[:, 1]
    # support of the full Cole-Davidson measure starts at (1-b^(1/gamma))/tau
    edge = (1 - 0.5 ** 2) * 1e13
    assert np.all(h[r < 0.99 * edge] == 0.0)
    assert np.all(h[(r > 1.05 * edge) & (np.abs(r / 1e13 - 1) > 0.05)] > 0.0)

    out2 = tmp_path / "sls.csv"
    main(["spectrum", "--model", "sls", "--a", "1.5", "--tau", "1e-13",
          "--cinf", "5000", "--range", "1e11:1e15", "--ppd", "30",
          "-o", str(out2)])
    _, rows2 = read_table(out2)
    r2, h2 = rows2[:, 0], rows2[:, 1]
    band = (r2 > 1e13 / 1.5 * 1.01) & (r2 < 1e13 * 0.99)
    assert np.all(h2[band] > 0.0)
    assert np.all(h2[(r2 < 1e13 / 1.5 * 0.99) | (r2 > 1.01e13)] == 0.0)


def test_greens_csv(tmp_path):
    out = tmp_path / "g.csv"
    rc = main(["greens", "--model", "sls", "--a", "1.5", "--tau", "2e-6",
               "--cinf", "5000", "--x", "0.05", "--T", "4e-5", "--n", "4096",
               "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    meta = [line for line in lines if line.startswith("#")]
    assert any("wavefront_time=1e-05" in m for m in meta)
    assert any("dc_step_amplitude=" in m for m in meta)
    header, rows = read_table(out)
    assert header == ["t_seconds", "u"]
    assert rows.shape == (4096, 2)
    # pre-wavefront samples are quiet
    pre = rows[rows[:, 0] < 1e-5 - 2 * (rows[1, 0] - rows[0, 0])]
    assert np.max(np.abs(pre[:, 1])) <= 1e-6 * np.max(np.abs(rows[:, 1]))


def test_verify_pass_and_fail(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["verify", "--model", "sls", "--a", "1.5", "--tau", "1e-13",
               "--cinf", "5000", "-o", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["pass"] is True
    assert len(report["checks"]) >= 5

    out_bad = tmp_path / "bad.json"
    rc = main(["verify", "--model", "synthetic-bad", "-o", str(out_bad)])
    assert rc == 1
    report = json.loads(out_bad.read_text())
    assert report["pass"] is False


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=cole-cole\na=1.5\nalpha=0.5\ntau=1e-13\n"
                   "cinf=5000\nrange=1e-2:1e2\nppd=4\n")
    out1 = tmp_path / "o1.csv"
    rc = main(["curves", "--model", "cole-cole", "--config", str(cfg),
               "--range", "1e-2:1e2", "--ppd", "4", "-o", str(out1)])
    assert rc == 0
    # flags override the file
    out2 = tmp_path / "o2.csv"
    rc = main(["curves", "--model", "cole-cole", "--config", str(cfg),
               "--range", "1e-2:1e2", "--ppd", "2", "-o", str(out2)])
    assert rc == 0
    _, r1 = read_table(out1)
    _, r2 = read_table(out2)
    assert r1.shape[0] == 17 and r2.shape[0] == 9


def test_malformed_config_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not a key value line\n")
    proc = run_cli(["curves", "--model", "cole-cole", "--config", str(cfg),
                    "--range", "1:10"])
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    ["--model", "power-law", "--acoef", "0.0065", "--gammaexp", "0.75",
     "--dim", "3"],
    ["--model", "finite-band", "--height", "1", "--rlo", "0", "--rhi", "2",
     "--cinf", "5000"],
])
def test_unsupported_greens_medium_exits_2(argv, capsys):
    rc = main(["greens", *argv, "--x", "1", "--T", "1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_nonfinite_cinf_exits_2(capsys):
    rc = main(["curves", "--model", "cole-cole", "--a", "1.5", "--alpha",
               "0.5", "--tau", "1e-13", "--cinf", "inf", "--range", "1:10",
               "--ppd", "2"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("exc", [JumpExtrapolationError, PVConvergenceError])
def test_numerical_errors_exit_3(exc, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc("did not converge")

    monkeypatch.setattr(cmwave.cli, "kk_residual", fail)
    rc = main(["verify", "--model", "sls", "--a", "1.5", "--tau", "1e-13",
               "--cinf", "5000"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_curves_above_the_sls_support_edge_match_closed_form(tmp_path):
    # 1e-4 above the SLS support edge 1/(a tau), where the density has its
    # inverse-square-root singularity; the grid engine never samples the
    # edge itself
    out = tmp_path / "edge.csv"
    lo = 1.0001 / (1.5e-13 * 1e6)   # MHz
    rc = main(["curves", "--model", "sls", "--a", "1.5", "--tau", "1e-13",
               "--cinf", "5000", "--range", f"{lo!r}:{lo * 10.0!r}",
               "--ppd", "4", "-o", str(out)])
    assert rc == 0
    _, rows = read_table(out)
    assert rows.shape == (5, 4)
    sls = StandardLinearSolid(a=1.5, tau=1e-13,
                              g_inf=(5000.0 / np.sqrt(1.5)) ** 2)
    beta = dispersion_attenuation(sls, -1j * rows[:, 0] * 1e6)
    np.testing.assert_allclose(rows[:, 1], beta.real, rtol=1e-8, atol=0.0)
    np.testing.assert_allclose(rows[:, 2], -beta.imag, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("model_args", [
    ["--model", "cole-cole", "--a", "1.0001", "--alpha", "0.01"],
    ["--model", "havriliak-negami", "--b", "0.5", "--alpha", "0.01",
     "--gamma", "0.6"],
    ["--model", "cole-davidson", "--b", "0.5", "--gamma", "0.01"],
], ids=["cc-alpha-0.01", "hn-alpha-0.01", "cd-gamma-0.01"])
def test_window_beyond_double_range_exits_3(model_args):
    proc = run_cli(["curves", *model_args, "--tau", "1e-9", "--cinf", "3000",
                    "--range", "1e-3:1e3", "--ppd", "1"])
    assert proc.returncode == 3
    assert "numerical failure" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_mittag_leffler_path_leaves_mpmath_unloaded():
    code = ("import sys, cmwave, cmwave.cli\n"
            "from cmwave.mittag_leffler import cole_cole_relaxation_modulus\n"
            "cc = cmwave.ColeCole(a=1.5, alpha=0.5, tau=1e-13, g_inf=1.0)\n"
            "cole_cole_relaxation_modulus(cc, 1e-13)\n"
            f"rc = cmwave.cli.main(['verify', *{CC_ARGS!r}])\n"
            "assert rc == 0, rc\n"
            "assert 'mpmath' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
