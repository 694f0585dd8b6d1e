import argparse
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
from cmwave.wavenumber import dispersion_attenuation

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
    # the synthesis record, one additive diag_ line per key
    diag = dict(m[2:].split("=", 1) for m in meta if m.startswith("# diag_"))
    assert diag["diag_pad_factor"] == "32"
    assert diag["diag_bins"] == str(4096 * 32 // 2)
    assert 0.0 < float(diag["diag_alias_ratio"]) \
        < float(diag["diag_alias_limit"]) == 1e-4
    assert diag["diag_alias_kind"] in ("ringing", "wrap")
    # an SLS has no small-p peel: bin 0 carries c_lin
    assert float(diag["diag_c_lin"]) < 0.0
    assert not {"diag_peel_exponents", "diag_frac_timescale",
                "diag_contour_nodes"} & diag.keys()
    header, rows = read_table(out)
    assert header == ["t_seconds", "u"]
    assert rows.shape == (4096, 2)
    # pre-wavefront samples are quiet
    pre = rows[rows[:, 0] < 1e-5 - 2 * (rows[1, 0] - rows[0, 0])]
    assert np.max(np.abs(pre[:, 1])) <= 1e-6 * np.max(np.abs(rows[:, 1]))


def test_greens_3d_records_its_peel(tmp_path):
    # a Cole-Cole 3D synthesis peels the exact small-p function of beta at
    # pad 64, adds it back on 44-node contours, one per log-time window,
    # and says so in its header
    out = tmp_path / "g3.csv"
    assert main(["greens", *CC_ARGS, "--x", "8e-9", "--T", "6.4e-12",
                 "--n", "4096", "--dim", "3", "-o", str(out)]) == 0
    meta = [line for line in out.read_text().splitlines()
            if line.startswith("# diag_")]
    diag = dict(m[2:].split("=", 1) for m in meta)
    assert float(diag["diag_frac_timescale"]) == 3.2e-12
    assert int(diag["diag_contour_nodes"]) == 4 * 44
    assert diag["diag_pad_factor"] == "64"
    assert diag["diag_bins"] == str(4096 * 64 // 2)
    assert diag["diag_alias_kind"] in ("ringing", "wrap")
    assert "diag_c_lin" not in diag
    assert "diag_peel_exponents" not in diag


def test_curves_records_its_quadrature(tmp_path):
    # the DispersionCurve record as diag_ lines after the # cmwave line,
    # ahead of the table, which reads as before
    out = tmp_path / "cc.csv"
    assert main(["curves", *CC_ARGS, "--range", "1:10", "--ppd", "2",
                 "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# cmwave curves config_sha256=")
    diag = dict(line[2:].split("=", 1) for line in lines[1:3])
    assert int(diag["diag_nodes"]) > 0
    assert 0.0 <= float(diag["diag_rel_error"]) <= 1e-8
    assert lines[3] == "omega_MHz,attenuation_per_m,dispersion_per_m," \
        "phase_speed_m_per_s"
    assert read_table(out)[1].shape == (3, 4)


def test_verify_pass_and_fail(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["verify", "--model", "sls", "--a", "1.5", "--tau", "1e-13",
               "--cinf", "5000", "-o", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["pass"] is True
    assert len(report["checks"]) >= 5
    # each check carries the seconds it took, next to the keys it had
    for check in report["checks"]:
        assert set(check) == {"name", "pass", "worst_violation", "location",
                              "grid", "elapsed_s"}
        assert 0.0 <= check["elapsed_s"] < 60.0

    out_bad = tmp_path / "bad.json"
    rc = main(["verify", "--model", "synthetic-bad", "-o", str(out_bad)])
    assert rc == 1
    report = json.loads(out_bad.read_text())
    assert report["pass"] is False


@pytest.mark.parametrize("model_args", [
    ["--model", "cole-cole", "--a", "1.5", "--alpha", "0.2"],
    ["--model", "cole-cole", "--a", "1.65", "--alpha", "0.53"],
    ["--model", "havriliak-negami", "--b", "0.5", "--alpha", "0.3",
     "--gamma", "0.5"],
    ["--model", "havriliak-negami", "--b", "0.81", "--alpha", "0.56",
     "--gamma", "0.96"],
    ["--model", "cole-cole", "--a", "5.24", "--alpha", "0.10"],
], ids=["cc-0.2", "cc-0.53", "hn-0.3", "hn-0.81", "cc-5.24-0.10"])
def test_verify_passes_on_small_p_tails(model_args, tmp_path):
    # admissible models whose 1D causality synthesis raised (exit 3) or
    # leaked 1.2e-5 of its peak (exit 1) while the small-p tail was fitted;
    # the last raised (exit 3) while the Taylor series of lam was peeled,
    # summed beyond its radius 1/a
    out = tmp_path / "rep.json"
    assert main(["verify", *model_args, "--tau", "1e-13", "--cinf", "5000",
                 "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    causality = [c for c in report["checks"] if c["name"] == "causality"]
    assert causality[0]["worst_violation"] <= 1e-5


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


def exit_code(argv):
    """main's return code, or the code of argparse's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


SLS_GREENS = ["--model", "sls", "--a", "1.5", "--tau", "2e-6", "--cinf",
              "5000", "--x", "0.05", "--T", "4e-5"]


@pytest.mark.parametrize("line, argv", [
    ("model=foo", ["greens", *SLS_GREENS[2:]]),
    ("dim=2", ["greens", *SLS_GREENS]),
    ("ppd=x", ["curves", *CC_ARGS, "--range", "1:10"]),
    ("mod=sls", ["greens", *SLS_GREENS[2:]]),
    ("output=out.csv", ["greens", *SLS_GREENS]),
], ids=["bad-model", "bad-dim", "bad-int", "inexact-key", "output-key"])
def test_config_faults_exit_2(line, argv, tmp_path, capsys):
    # a config line is the flag --key=value of the subcommand, checked as
    # that flag is; keys are exact option names, and output is no key
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{line}\n")
    out = tmp_path / "out.csv"
    assert exit_code([*argv, "--config", str(cfg), "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err
    assert not out.exists()


def test_flags_win_wherever_they_stand(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model=cole-cole\na=1.5\nalpha=0.5\ntau=1e-13\n"
                   "cinf=5000\nrange=1e-2:1e2\nppd=4\n")
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    assert main(["curves", "--ppd", "2", "--config", str(cfg),
                 "-o", str(before)]) == 0
    assert main(["curves", "--config", str(cfg), "--ppd", "2",
                 "-o", str(after)]) == 0
    assert read_table(before)[1].shape[0] == 9
    assert before.read_bytes() == after.read_bytes()


@pytest.mark.parametrize("argv", [
    ["curves", *CC_ARGS, "--range", "1e-2:1e2", "--ppd", "4"],
    ["spectrum", *CC_ARGS, "--range", "1e11:1e15", "--ppd", "4"],
    ["greens", *SLS_GREENS, "--n", "4096", "--dim", "3"],
    ["verify", "--model", "synthetic-bad"],
], ids=["curves", "spectrum", "greens", "verify"])
def test_config_file_run_is_the_flag_run(argv, tmp_path):
    # the same options from a file give the same bytes, header hash included
    flags = argv[1:]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k[2:]} = {v}\n"
                           for k, v in zip(flags[::2], flags[1::2])))
    by_flags, by_file = tmp_path / "flags.out", tmp_path / "file.out"
    code = main([*argv, "-o", str(by_flags)])
    assert main([argv[0], "--config", str(cfg), "-o", str(by_file)]) == code
    if argv[0] == "verify":
        # each check's elapsed_s is a timing, which no two runs share; the
        # reports are the same bytes once those are set aside
        reports = [json.loads(path.read_text())
                   for path in (by_flags, by_file)]
        for report in reports:
            for check in report["checks"]:
                assert check.pop("elapsed_s") >= 0.0
        assert json.dumps(reports[0], indent=2) \
            == json.dumps(reports[1], indent=2)
    else:
        assert by_flags.read_bytes() == by_file.read_bytes()


def test_two_calls_build_no_second_parser(monkeypatch, tmp_path):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(2):
        assert main(["curves", *CC_ARGS, "--range", "1:10", "--ppd", "1",
                     "-o", str(tmp_path / "c.csv")]) == 0
    assert built == []


def test_synthetic_bad_outside_verify_exits_2(capsys):
    rc = main(["curves", "--model", "synthetic-bad", "--range", "1:10"])
    assert rc == 2
    assert "verify" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--model", "power-law", "--acoef", "0.0065", "--gammaexp", "0.75",
     "--dim", "3"],
    ["--model", "finite-band", "--height", "1", "--rlo", "0", "--rhi", "2",
     "--cinf", "5000"],
    # fluids (b = 1) other than the power-law
    ["--model", "havriliak-negami", "--b", "1", "--alpha", "0.77", "--gamma",
     "0.65", "--tau", "1e-13", "--cinf", "5000"],
    ["--model", "cole-davidson", "--b", "1", "--gamma", "0.5", "--tau",
     "1e-13", "--cinf", "5000"],
])
def test_unsupported_greens_medium_exits_2(argv, capsys):
    rc = main(["greens", *argv, "--x", "1", "--T", "1"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_power_law_greens_example_is_positive_and_matches_talbot(tmp_path):
    # the README's fluid example: v1 = F * mu_x / 2 >= 0 for a complete
    # Bernstein beta, so no sample may dip below the alias limit; a Talbot
    # inversion of (C/2) p^(g-2) e^(-C x p^g), kappa = C p^g, checks the
    # values away from t = 0, where Talbot itself is unreliable
    import math

    import mpmath

    a_coef, g, x = 0.0065, 0.75, 1.0
    out = tmp_path / "pl.csv"
    assert main(["greens", "--model", "power-law", "--acoef", str(a_coef),
                 "--gammaexp", str(g), "--x", str(x), "--T", "1",
                 "-o", str(out)]) == 0
    _, rows = read_table(out)
    t, u = rows[:, 0], rows[:, 1]
    peak = np.max(np.abs(u))
    assert u.min() >= -1e-4 * peak
    c = a_coef * math.pi * g / math.sin(math.pi * g)
    with mpmath.workdps(30):
        for k in (205, 1024, 2048, 3072, 4095):     # t from 0.05 T on
            ref = float(mpmath.invertlaplace(
                lambda p: 0.5 * c * p ** (g - 2)
                * mpmath.exp(-c * x * p ** g),
                t[k], method="talbot"))
            assert abs(u[k] - ref) <= 1e-5 * peak, t[k]


def test_nonfinite_cinf_exits_2(capsys):
    rc = main(["curves", "--model", "cole-cole", "--a", "1.5", "--alpha",
               "0.5", "--tau", "1e-13", "--cinf", "inf", "--range", "1:10",
               "--ppd", "2"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("exc", [PVConvergenceError])
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


def _loaded_scipy(code):
    """Run ``code`` in a fresh interpreter; it sets ``result``.  Returns
    that and the scipy modules loaded at the end, in load order."""
    script = (f"{code}\n"
              "import json, sys\n"
              "print(json.dumps([result, [m for m in sys.modules "
              "if m.split('.')[0] == 'scipy']]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_cmwave_loads_no_scipy():
    _, scipy_mods = _loaded_scipy(
        "import cmwave, cmwave.cli, cmwave.greens, cmwave.verification, "
        "cmwave.mittag_leffler, cmwave.asymptotics\nresult = None")
    assert scipy_mods == []


# every --model choice with options that each subcommand accepts, and its
# Green's function record; synthetic-bad has no medium
_RELAXATION_RECORD = ["--x", "8e-9", "--T", "6.4e-12"]
_MODEL_ARGV = {
    "cole-cole": (CC_ARGS, _RELAXATION_RECORD),
    "sls": (["--model", "sls", "--a", "1.5", "--tau", "1e-13", "--cinf",
             "5000"], _RELAXATION_RECORD),
    "havriliak-negami": (["--model", "havriliak-negami", "--b", "0.5",
                          "--alpha", "0.77", "--gamma", "0.65", "--tau",
                          "1e-13", "--cinf", "5000"], _RELAXATION_RECORD),
    "cole-davidson": (["--model", "cole-davidson", "--b", "0.5", "--gamma",
                       "0.5", "--tau", "1e-13", "--cinf", "5000"],
                      _RELAXATION_RECORD),
    "power-law": (["--model", "power-law", "--acoef", "0.0065",
                   "--gammaexp", "0.75"], ["--x", "1", "--T", "1"]),
    "finite-band": (["--model", "finite-band", "--height", "1e-7", "--rlo",
                     "1e5", "--rhi", "1e6", "--cinf", "5000"],
                    ["--x", "0.05", "--T", "4e-5"]),
    "synthetic-bad": (["--model", "synthetic-bad"], ["--x", "1", "--T", "1"]),
}

# (subcommand flags, exit code) per model: verify needs a relaxation model
# or synthetic-bad, 3D synthesis a solid, every other command a medium
_NO_SCIPY_RUNS = {
    model: [
        (["curves", *argv, "--range", "1e-3:1e3", "--ppd", "5"],
         2 if model == "synthetic-bad" else 0),
        (["spectrum", *argv, "--range", "1e10:1e15", "--ppd", "5"],
         2 if model == "synthetic-bad" else 0),
        (["greens", *argv, *record],
         2 if model == "synthetic-bad" else 0),
        (["greens", *argv, *record, "--dim", "3"],
         2 if model in ("synthetic-bad", "power-law") else 0),
        (["verify", *argv],
         {"synthetic-bad": 1, "power-law": 2, "finite-band": 2}.get(model, 0)),
    ]
    for model, (argv, record) in _MODEL_ARGV.items()
}


def test_every_command_and_model_runs_without_scipy():
    assert set(_MODEL_ARGV) == set(cmwave.cli._MODELS)
    runs = [argv for model_runs in _NO_SCIPY_RUNS.values()
            for argv, _ in model_runs]
    # the assertion names the first command after which scipy is loaded
    codes, scipy_mods = _loaded_scipy(
        "import os, sys, cmwave.cli\n"
        "result = []\n"
        f"for argv in {runs!r}:\n"
        "    result.append(cmwave.cli.main([*argv, '-o', os.devnull]))\n"
        "    assert 'scipy' not in sys.modules, argv\n")
    assert codes == [code for model_runs in _NO_SCIPY_RUNS.values()
                     for _, code in model_runs]
    assert scipy_mods == []


def test_only_the_scalar_route_loads_scipy():
    # the one-point attenuation of the benchmark's sweep loads
    # scipy.integrate when it first integrates
    (before, value), scipy_mods = _loaded_scipy(
        "import sys, cmwave\n"
        "cc = cmwave.ColeCole(a=1.5, alpha=0.5, tau=1e-13, g_inf=1.0)\n"
        "before = 'scipy' in sys.modules\n"
        "result = [before, cmwave.attenuation(cc, 1e13)]\n")
    assert not before
    assert value > 0.0
    assert "scipy.integrate" in scipy_mods


@pytest.mark.parametrize("argv, code, read", [
    # 1201 rows, more than a pipe holds: the writer meets the closed pipe
    (["curves", *CC_ARGS, "--range", "1e-3:1e3", "--ppd", "200"], 0, 1),
    (["verify", "--model", "synthetic-bad"], 1, 0),
], ids=["curves-head-1", "verify-fails-head-0"])
def test_closed_stdout_keeps_the_exit_code(argv, code, read):
    # the reader takes ``read`` lines and closes the pipe, as
    # `cmwave ... | head -1` does
    proc = subprocess.Popen([sys.executable, "-m", "cmwave", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=SRC_ENV)
    lines = [proc.stdout.readline() for _ in range(read)]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == code
    assert err == ""
    assert all(line.startswith(b"# cmwave") for line in lines)
