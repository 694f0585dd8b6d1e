"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at run time.
"""

import json
import math
import time

import numpy as np
import pytest

import cmwave as cw
from cmwave.asymptotics import fit_loglog_slope
from cmwave.cli import main as cli_main
from cmwave.dispersion import attenuation, dispersion, phase_speed
from cmwave.greens import causality_metric, green1d, green3d, \
    wavefront_smoothness
from cmwave.mittag_leffler import cole_cole_relaxation_modulus, \
    mittag_leffler
from cmwave.verification import cbf_check, cm_check_relaxation, \
    halfplane_grid, kk_residual, positive_axis_grid
from cmwave.wavenumber import MeasureMedium, branch_cut_density, \
    complex_modulus, wave_number

RHO = 1.0
C_INF = 5000.0
TAU = 1e-13
G_INF = RHO * (C_INF / math.sqrt(1.5)) ** 2
G0 = RHO * C_INF ** 2

CC = cw.ColeCole(a=1.5, alpha=0.5, tau=TAU, g_inf=G_INF, rho=RHO)
SLS = cw.StandardLinearSolid(a=1.5, tau=TAU, g_inf=G_INF, rho=RHO)
HN = cw.HavriliakNegami(b=0.5, alpha=1 / 1.3, gamma=1.3 / 2, tau=TAU,
                        g0=G0, rho=RHO)
CD = cw.ColeDavidson(b=0.5, gamma=0.5, tau=TAU, g0=G0, rho=RHO)
FB_MEDIUM = cw.MeasureMedium(cw.make_finiteband_measure(1e-5, 0.1 / TAU,
                                                        1.0 / TAU),
                             c_inf=C_INF)

# 50-digit quadrature of gamma int_0^inf y^(gamma-1)/(1+y^2) dy
LOWFREQ_COEF = {
    0.25: 1.0261721529770309,
    0.5: 1.1107207345395916,
    0.75: 1.2751632692780539,
}


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_finite_band_exact():
    t0 = time.time()
    band = cw.make_finiteband_measure(1.0, 1.0, 2.0)
    worst = 0.0
    for w in np.logspace(-4, 4, 100):
        exact = w * (math.atan(2.0 / w) - math.atan(1.0 / w))
        worst = max(worst, abs(attenuation(band, w) / exact - 1.0))
    elapsed = time.time() - t0
    report(1, "finite-band exactness",
           worst <= 1e-10 and elapsed < 1.0,
           f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_power_law_exact():
    t0 = time.time()
    worst = 0.0
    for gamma, coef in LOWFREQ_COEF.items():
        meas = cw.make_powerlaw_measure(1.0, gamma)
        for w in np.logspace(-4, 4, 17):
            val = attenuation(meas, w) / w ** gamma
            worst = max(worst, abs(val / coef - 1.0))
    elapsed = time.time() - t0
    report(2, "power-law exactness",
           worst <= 1e-8 and elapsed < 5.0,
           f"worst rel {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_jump_formula_consistency():
    t0 = time.time()
    cases = [
        (CC, cw.measures.cc_spectral_density,
         np.logspace(-3, 3, 100) / TAU),
        (HN, cw.measures.hn_spectral_density,
         np.logspace(-3, 3, 100) / TAU),
        (SLS, cw.measures.sls_spectral_density,
         np.linspace(1 / 1.5 + 0.004, 1.0 - 0.004, 100) / TAU),
        (CD, cw.measures.cd_spectral_density,
         np.concatenate([np.linspace(0.78, 0.97, 30),
                         np.logspace(math.log10(1.1), 3, 70)]) / TAU),
    ]
    worst = 0.0
    for model, dens, grid in cases:
        h = np.asarray(dens(model, grid))
        o = np.asarray(branch_cut_density(model, grid))
        worst = max(worst, float(np.max(np.abs(h - o) / np.abs(o))))
    elapsed = time.time() - t0
    report(3, "jump-formula consistency",
           worst <= 1e-6 and elapsed < 10.0,
           f"worst rel {worst:.2e} on 4x100 points, {elapsed:.2f}s")


def test_criterion_04_asymptotic_exponents():
    t0 = time.time()
    # windows chosen inside the asymptotic regime: nearer the relaxation
    # rate the next-order (tau w)^alpha corrections bend the local slope
    # by a few 0.01
    slopes = {
        "cc-high": (fit_loglog_slope(
            lambda w: attenuation(cw.spectral_measure(CC), w), 1e4 / TAU),
            1 - CC.alpha),
        "cc-low": (fit_loglog_slope(
            lambda w: attenuation(cw.spectral_measure(CC), w), 1e-7 / TAU),
            1 + CC.alpha),
        "hn-high": (fit_loglog_slope(
            lambda w: attenuation(cw.spectral_measure(HN), w), 1e5 / TAU),
            1 - HN.alpha * HN.gamma),
        "cd-low": (fit_loglog_slope(
            lambda w: attenuation(cw.spectral_measure(CD), w), 1e-4 / TAU),
            2.0),
    }
    worst = max(abs(got - want) for got, want in slopes.values())
    elapsed = time.time() - t0
    report(4, "asymptotic exponents",
           worst <= 0.01 and elapsed < 30.0,
           f"worst |slope error| {worst:.4f}, {elapsed:.1f}s")


def test_criterion_05_speed_ordering_and_limits():
    ok = True
    detail = []
    for model in (CC, SLS, HN, CD):
        grid = np.logspace(-4, 4, 1000) / TAU
        c = np.array([phase_speed(model, w) for w in grid])
        ok &= bool(np.all((c > model.c0) & (c < model.c_inf)))
        ok &= bool(np.all(np.diff(c) >= 0.0))
        hi = phase_speed(model, 1e4 / TAU)
        lo = phase_speed(model, 1e-4 / TAU)
        ok &= abs(hi / model.c_inf - 1) <= 5e-3
        ok &= abs(lo / model.c0 - 1) <= 5e-3
        detail.append(f"{type(model).__name__}: c in ({c[0]:.0f},{c[-1]:.0f})")
    ratio = CC.c_inf / CC.c0
    ok &= abs(ratio - math.sqrt(1.5)) <= 1e-10
    report(5, "speed ordering and limits", ok,
           f"c_inf/c0 - sqrt(1.5) = {ratio - math.sqrt(1.5):.2e}")


def test_criterion_06_kramers_kronig():
    t0 = time.time()
    models = (CC, SLS, HN, CD, FB_MEDIUM)
    pairs = [(0.01, 0.3), (0.1, 1.0), (1.0, 10.0), (0.03, 3.0),
             (0.3, 30.0)]
    worst = 0.0
    for model in models:
        meas = (model.measure if isinstance(model, MeasureMedium)
                else cw.spectral_measure(model))
        for f0, f in pairs:
            w0, w = f0 / TAU, f / TAU
            res = kk_residual(model, w, w0)
            worst = max(worst, res / attenuation(meas, w))
    elapsed = time.time() - t0
    report(6, "Kramers-Kronig residual",
           worst <= 0.01 and elapsed < 60.0,
           f"worst rel {worst:.2e} over 5 models x 5 pairs, {elapsed:.1f}s")


def test_criterion_07_causality():
    t0 = time.time()
    worst = 0.0
    for x in (1e-3, 1e-2):
        cc = cw.ColeCole(a=1.5, alpha=0.5, tau=x / 44800.0, g_inf=G_INF,
                         rho=RHO)
        w1 = green1d(cc, x=x, n_samples=4096, T=4 * x / cc.c_inf,
                     pad_factor=1024)
        w3 = green3d(cc, x=x, n_samples=4096, T=4 * x / cc.c_inf,
                     pad_factor=1024)
        sls = cw.StandardLinearSolid(a=1.5, tau=(x / C_INF) / 50,
                                     g_inf=G_INF, rho=RHO)
        s1 = green1d(sls, x=x, n_samples=4096, T=4 * x / sls.c_inf)
        s3 = green3d(sls, x=x, n_samples=4096, T=4 * x / sls.c_inf)
        for wave in (w1, w3, s1, s3):
            worst = max(worst, causality_metric(wave))
    elapsed = time.time() - t0
    report(7, "causality",
           worst <= 1e-6 and elapsed < 30.0,
           f"worst pre-front/peak {worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_wavefront_regimes():
    t0 = time.time()
    from cmwave.asymptotics import classify_wavefront

    x = 0.04
    sls = cw.StandardLinearSolid(a=1.5, tau=5e-6, g_inf=G_INF, rho=RHO)
    w_sls = green1d(sls, x=x, n_samples=4096, T=4 * x / sls.c_inf,
                    taper=False)
    jump_metric = wavefront_smoothness(w_sls, 0)[0]

    x = 1e-3
    cc = cw.ColeCole(a=1.5, alpha=0.5, tau=x / 44800.0, g_inf=G_INF,
                     rho=RHO)
    w_cc = green1d(cc, x=x, n_samples=4096, T=4 * x / cc.c_inf, taper=False)
    cc_metrics = wavefront_smoothness(w_cc, 3)

    ok = (jump_metric >= 0.5
          and all(v <= 0.1 for v in cc_metrics.values())
          and classify_wavefront(sls).tag == "discontinuity-possible"
          and classify_wavefront(cc).tag == "smoothed")
    elapsed = time.time() - t0
    report(8, "wavefront regimes", ok and elapsed < 30.0,
           f"SLS jump {jump_metric:.2f}, CC metrics "
           f"{max(cc_metrics.values()):.2e}, {elapsed:.1f}s")


def test_criterion_09_cm_cbf_batteries():
    t0 = time.time()
    ok = True
    for model in (CC, SLS, HN, CD):
        hp = halfplane_grid(1.0 / model.tau)
        ax = positive_axis_grid(1.0 / model.tau)
        ok &= cm_check_relaxation(model, hp, ax).passed
        ok &= cbf_check(lambda p: wave_number(model, p), hp, ax).passed
        ok &= cbf_check(lambda p: complex_modulus(model, p), hp, ax).passed
        ok &= cbf_check(lambda p: wave_number(model, p) ** 2 / p, hp,
                        ax).passed
    hp = halfplane_grid(1.0)
    ax = positive_axis_grid(1.0)
    bad1 = cbf_check(lambda p: (p / (1 + p)) ** 2 / p, hp, ax)
    bad2 = cbf_check(lambda p: (2e-4 * p + np.power(p, 0.3)) ** 2 / p, hp,
                     ax)
    ok &= (not bad1.passed) and (not bad2.passed)
    elapsed = time.time() - t0
    report(9, "CM/CBF batteries", ok and elapsed < 10.0,
           f"counterexamples flagged, {elapsed:.1f}s")


def test_criterion_10_mittag_leffler():
    t0 = time.time()
    from scipy.special import erfcx

    worst_exp = max(abs(mittag_leffler(1.0, 1.0, -x) - math.exp(-x))
                    / math.exp(-x) for x in np.linspace(0, 20, 11))
    worst_erfcx = max(abs(mittag_leffler(0.5, 1.0, -x) - float(erfcx(x)))
                      / float(erfcx(x)) for x in np.linspace(0, 10, 21))

    from scipy.integrate import quad

    worst_laplace = 0.0
    for pt in np.logspace(-1, 2, 10):
        p = pt / TAU

        def integrand(u):
            return cole_cole_relaxation_modulus(CC, u / p) \
                * math.exp(-u) / p

        total = 0.0
        grid = sorted({0.0, min(pt * 1e-6, 60.0), min(pt * 1e-3, 60.0),
                       min(pt, 60.0), min(10 * pt, 60.0), 60.0})
        for a, b in zip(grid, grid[1:]):
            v, _ = quad(integrand, a, b, limit=400, epsabs=1e-30,
                        epsrel=1e-11)
            total += v
        target = complex(complex_modulus(CC, p + 0j)).real / p
        worst_laplace = max(worst_laplace, abs(total / target - 1.0))
    elapsed = time.time() - t0
    ok = worst_exp <= 1e-12 and worst_erfcx <= 1e-8 \
        and worst_laplace <= 1e-6 and elapsed < 10.0
    report(10, "Mittag-Leffler", ok,
           f"exp {worst_exp:.1e}, erfcx {worst_erfcx:.1e}, "
           f"laplace {worst_laplace:.1e}, {elapsed:.1f}s")


def test_criterion_11_figure_tables(tmp_path):
    cc_csv = tmp_path / "fig1_cc.csv"
    sls_csv = tmp_path / "fig1_sls.csv"
    base = ["--tau", "1e-13", "--cinf", "5000", "--ppd", "20"]
    assert cli_main(["curves", "--model", "cole-cole", "--a", "1.5",
                     "--alpha", "0.5", *base, "--range", "1e-3:1e3",
                     "-o", str(cc_csv)]) == 0
    assert cli_main(["curves", "--model", "sls", "--a", "1.5", *base,
                     "--range", "1e-3:1e3", "-o", str(sls_csv)]) == 0

    def load(path):
        rows = [line for line in path.read_text().splitlines()
                if line and not line.startswith("#")]
        return np.array([[float(v) for v in r.split(",")]
                         for r in rows[1:]])

    cc_tab, sls_tab = load(cc_csv), load(sls_csv)
    ok = cc_tab.shape == (121, 4) and sls_tab.shape == (121, 4)
    ok &= bool(np.all(np.diff(cc_tab[:, 1]) > 0))
    ok &= bool(np.all(np.diff(cc_tab[:, 3]) > 0))

    # near the band edge (tau omega ~ 1) Cole-Cole attenuation sits below
    # the Standard Linear Solid's
    edge_cc = tmp_path / "edge_cc.csv"
    edge_sls = tmp_path / "edge_sls.csv"
    assert cli_main(["curves", "--model", "cole-cole", "--a", "1.5",
                     "--alpha", "0.5", *base, "--range", "3e6:3e7",
                     "-o", str(edge_cc)]) == 0
    assert cli_main(["curves", "--model", "sls", "--a", "1.5", *base,
                     "--range", "3e6:3e7", "-o", str(edge_sls)]) == 0
    ok &= bool(np.all(load(edge_cc)[:, 1] < load(edge_sls)[:, 1]))

    # four distinct Fig. 2 families at b = 0.5 (CC uses a = 1/(1-b) = 2)
    fig2 = []
    fam_args = [
        ["--model", "cole-davidson", "--b", "0.5", "--gamma", "0.5"],
        ["--model", "havriliak-negami", "--b", "0.5", "--alpha",
         str(1 / 1.3), "--gamma", str(1.3 / 2)],
        ["--model", "havriliak-negami", "--b", "0.5", "--alpha",
         str(1.3 / 2), "--gamma", str(1 / 1.3)],
        ["--model", "cole-cole", "--a", "2.0", "--alpha", "0.5"],
    ]
    for i, fam in enumerate(fam_args):
        out = tmp_path / f"fig2_{i}.csv"
        assert cli_main(["curves", *fam, *base, "--range", "1e-3:1e3",
                         "-o", str(out)]) == 0
        fig2.append(load(out))
    for i in range(4):
        for j in range(i + 1, 4):
            gap = np.max(np.abs(np.log(fig2[i][:, 1] / fig2[j][:, 1])))
            ok &= gap > 0.1
    report(11, "figure reproduction", ok,
           "Fig.1 ordering and four distinct Fig.2 families")
