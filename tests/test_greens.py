import io
import math

import numpy as np
import pytest

import cmwave as cw
from cmwave.greens import (
    Waveform,
    causality_metric,
    green1d,
    green3d,
    wavefront_smoothness,
)
from cmwave.wavenumber import MeasureMedium, beta_at_infinity

RHO = 1.0
C_INF = 5000.0
G_INF = RHO * (C_INF / math.sqrt(1.5)) ** 2


def elastic_medium():
    return MeasureMedium(cw.zero_measure(), c_inf=C_INF)


def cc_resolvable(x):
    # tau tied to x so the wavefront smoothing spans ~100 samples and the
    # spectrum has decayed at Nyquist for n = 4096, T = 4 x / c_inf
    return cw.ColeCole(a=1.5, alpha=0.5, tau=x / 44800.0, g_inf=G_INF,
                       rho=RHO)


def test_input_validation():
    medium = elastic_medium()
    with pytest.raises(ValueError):
        green1d(medium, x=-1.0, n_samples=4096, T=1.0)
    with pytest.raises(ValueError):
        green1d(medium, x=1.0, n_samples=1000, T=1.0)
    with pytest.raises(ValueError):
        green1d(medium, x=1.0, n_samples=4096, T=1e-5)  # T < x/c


def test_elastic_step():
    medium = elastic_medium()
    w = green1d(medium, x=1.0, n_samples=4096, T=8e-4)
    k = round(w.wavefront_time / w.dt)
    target = 1.0 / (2.0 * C_INF)
    assert causality_metric(w) < 1e-12
    assert w.samples[k + 3] == pytest.approx(target, rel=1e-10)
    assert w.samples[-1] == pytest.approx(target, rel=1e-10)
    assert w.dc_step_amplitude == pytest.approx(target, rel=1e-14)
    # all of the transition happens within two samples of the front
    in_transition = (w.samples > 1e-8 * target) \
        & (w.samples < (1 - 1e-8) * target)
    assert np.sum(in_transition) <= 2


def test_sls_jump_step_and_causality():
    sls = cw.StandardLinearSolid(a=1.5, tau=2e-6, g_inf=G_INF, rho=RHO)
    x = 0.05
    w = green1d(sls, x=x, n_samples=4096, T=4 * x / sls.c_inf)
    assert causality_metric(w) <= 1e-6
    k = round(w.wavefront_time / w.dt)
    jump = math.exp(-beta_at_infinity(sls) * x) / (2 * sls.c_inf)
    assert w.samples[k + 1] == pytest.approx(jump, rel=0.02)
    # long-time limit is the residue step 1/(2 c0)
    assert w.samples[-1] == pytest.approx(1 / (2 * sls.c0), rel=1e-3)
    assert w.dc_step_amplitude == pytest.approx(1 / (2 * sls.c0), rel=1e-14)


@pytest.mark.parametrize("x", [1e-3, 1e-2])
def test_cc_causality(x):
    cc = cc_resolvable(x)
    w = green1d(cc, x=x, n_samples=4096, T=4 * x / cc.c_inf,
                pad_factor=1024)
    assert causality_metric(w) <= 1e-6


@pytest.mark.parametrize("x", [1e-3, 1e-2])
def test_sls_causality_small_x(x):
    sls = cw.StandardLinearSolid(a=1.5, tau=(x / C_INF) / 50, g_inf=G_INF,
                                 rho=RHO)
    w = green1d(sls, x=x, n_samples=4096, T=4 * x / sls.c_inf)
    assert causality_metric(w) <= 1e-6


def test_causality_metric_flags_shifted_waveform():
    medium = elastic_medium()
    w = green1d(medium, x=1.0, n_samples=4096, T=8e-4)
    shifted = Waveform(
        time_grid=w.time_grid,
        samples=np.roll(w.samples, -10),
        x=w.x,
        wavefront_time=w.wavefront_time,
        dc_step_amplitude=w.dc_step_amplitude,
    )
    assert causality_metric(shifted) > 0.5


def test_wavefront_smoothness_separates_regimes():
    # SLS: finite band, all moments finite -> the front carries a jump
    sls = cw.StandardLinearSolid(a=1.5, tau=5e-6, g_inf=G_INF, rho=RHO)
    x = 0.04
    w_sls = green1d(sls, x=x, n_samples=4096, T=4 * x / sls.c_inf,
                    taper=False)
    m_sls = wavefront_smoothness(w_sls, 3)
    assert m_sls[0] >= 0.5

    # CC: algebraic spectral tail -> smoothed front, all metrics small
    x = 1e-3
    cc = cc_resolvable(x)
    w_cc = green1d(cc, x=x, n_samples=4096, T=4 * x / cc.c_inf, taper=False)
    m_cc = wavefront_smoothness(w_cc, 3)
    assert all(v <= 0.1 for v in m_cc.values())

    # elastic: exact discontinuity
    w_el = green1d(elastic_medium(), x=1.0, n_samples=4096, T=8e-4,
                   taper=False)
    assert wavefront_smoothness(w_el, 0)[0] >= 0.9


def test_strongly_singular_no_gap():
    fluid = MeasureMedium(cw.make_powerlaw_measure(0.0065, 0.75),
                          c_inf=math.inf)
    w = green1d(fluid, x=1.0, n_samples=4096, T=1.0)
    assert w.wavefront_time is None
    peak = np.max(np.abs(w.samples))
    above = np.nonzero(np.abs(w.samples) > 1e-9 * peak)[0]
    gaps = np.diff(above)
    assert gaps.max() < 4096 // 10
    with pytest.raises(ValueError):
        causality_metric(w)


def test_green3d_causality_and_delta():
    sls = cw.StandardLinearSolid(a=1.5, tau=2e-6, g_inf=G_INF, rho=RHO)
    x = 0.05
    w3 = green3d(sls, x=x, n_samples=4096, T=4 * x / sls.c_inf)
    assert causality_metric(w3) <= 1e-6
    want = math.exp(-beta_at_infinity(sls) * x) / sls.c_inf ** 2 \
        / (4 * math.pi * x)
    assert w3.front_delta_area == pytest.approx(want, rel=1e-6)

    x_cc = 1e-3
    cc = cc_resolvable(x_cc)
    w3c = green3d(cc, x=x_cc, n_samples=4096, T=4 * x_cc / cc.c_inf,
                  pad_factor=1024)
    assert causality_metric(w3c) <= 1e-6
    assert w3c.front_delta_area == 0.0


def test_green3d_matches_finite_difference():
    sls = cw.StandardLinearSolid(a=1.5, tau=2e-6, g_inf=G_INF, rho=RHO)
    x = 0.05
    T = 4 * x / sls.c_inf
    w3 = green3d(sls, x=x, n_samples=4096, T=T)
    h = x / 1000
    up = green1d(sls, x=x + h, n_samples=4096, T=T).samples
    um = green1d(sls, x=x - h, n_samples=4096, T=T).samples
    fd = -(up - um) / (2 * h) / (2 * math.pi * x)
    k = round(w3.wavefront_time / w3.dt)
    body = np.zeros(4096, dtype=bool)
    body[k + 8:] = True
    i = int(np.argmax(np.abs(w3.samples * body)))
    assert w3.samples[i] == pytest.approx(fd[i], rel=1e-3)


def test_elastic_3d_energy_at_front():
    w3 = green3d(elastic_medium(), x=1.0, n_samples=4096, T=8e-4)
    k = round(w3.wavefront_time / w3.dt)
    total = np.sum(w3.samples ** 2)
    front = np.sum(w3.samples[k - 1:k + 3] ** 2)
    assert front >= (1 - 1e-9) * total


def test_doubling_resolution_converged():
    x = 1e-3
    cc = cc_resolvable(x)
    T = 4 * x / cc.c_inf
    w1 = green1d(cc, x=x, n_samples=4096, T=T)
    w2 = green1d(cc, x=x, n_samples=8192, T=T)
    peak = np.max(np.abs(w1.samples))
    # compare on the shared grid, including the mid-rise region
    k = round(w1.wavefront_time / w1.dt)
    for idx in (k + 20, k + 60, int(np.argmax(np.abs(w1.samples)))):
        assert abs(w2.samples[2 * idx] - w1.samples[idx]) <= 1e-4 * peak


def test_waveform_csv_roundtrip(tmp_path):
    w = green1d(elastic_medium(), x=1.0, n_samples=4096, T=8e-4)
    buf = io.StringIO()
    w.to_csv(buf, metadata={"model": "elastic"})
    text = buf.getvalue().splitlines()
    assert text[0] == "# model=elastic"
    assert any(line.startswith("# wavefront_time=") for line in text[:5])
    header_idx = text.index("t_seconds,u")
    assert len(text) - header_idx - 1 == 4096
    t0, u0 = text[header_idx + 1].split(",")
    assert float(t0) == 0.0
    assert float(u0) == pytest.approx(w.samples[0])


@pytest.mark.parametrize("synth", [green1d, green3d])
def test_spectral_decay_error_raised(synth):
    from cmwave.greens import SpectralDecayError

    # extreme fractional content at minimal padding cannot reach the
    # aliasing tolerance; the synthesis must refuse rather than return a
    # polluted waveform
    hn = cw.HavriliakNegami(b=0.5, alpha=0.3, gamma=0.9, tau=1e-13,
                            g0=RHO * C_INF ** 2, rho=RHO)
    x = 16 * hn.c_inf * hn.tau
    with pytest.raises(SpectralDecayError):
        synth(hn, x=x, n_samples=4096, T=4 * x / hn.c_inf, pad_factor=8)


def test_cd_gamma_one_keeps_the_front_jump():
    # Cole-Davidson with gamma = 1 equals the SLS with a = 1/(1 - b); its
    # finite beta(inf) keeps the front jump out of the FFT remainder
    x = 1e-2
    tau = (x / C_INF) / 50
    sls = cw.StandardLinearSolid(a=2.0, tau=tau, g_inf=RHO * C_INF ** 2 / 2,
                                 rho=RHO)
    cd = cw.ColeDavidson(b=0.5, gamma=1.0, tau=tau, g0=RHO * C_INF ** 2,
                         rho=RHO)
    w_sls = green1d(sls, x=x, n_samples=4096, T=4 * x / C_INF)
    w_cd = green1d(cd, x=x, n_samples=4096, T=4 * x / C_INF)
    assert causality_metric(w_cd) <= 2.0 * causality_metric(w_sls)
    assert causality_metric(w_cd) <= 1e-6


def _parent_beta(model, p):
    # the complex-arithmetic closed form: np.power on every bin
    if isinstance(model, cw.ColeCole):
        xa = (model.tau * p) ** model.alpha
        q = model.g_inf * (1.0 + model.a * xa) / (1.0 + xa)
        deficit = model.g_inf * (model.a - 1.0) / (1.0 + xa)
    else:
        relaxed = (1.0 + (model.tau * p) ** model.alpha) ** -model.gamma
        q = model.g0 * (1.0 - model.b * relaxed)
        deficit = model.g0 * model.b * relaxed
    root_q, root_g0 = np.sqrt(q), math.sqrt(model.g0)
    return p * math.sqrt(model.rho) * deficit \
        / (root_q * root_g0 * (root_g0 + root_q))


def _peel_reference(name, args, p):
    if name == "_step_peel":
        v, = args
        return v / p
    if name == "_exp_peel":
        c, theta = args
        return c / (p + 1.0 / theta)
    if name == "_kink_peel":
        j1, la, lb = args
        return j1 / ((p + la) * (p + lb))
    terms, thetas, weights = args
    poles = sum(a_i / (1.0 + th_i * p) for a_i, th_i in zip(weights, thetas))
    return sum(c * p ** (e - 1.0) * poles for e, c in terms)


@pytest.mark.parametrize("family", ["cc", "hn"])
@pytest.mark.parametrize("synth", [green1d, green3d])
def test_bins_match_the_complex_arithmetic_spectrum(monkeypatch, family,
                                                    synth):
    # every peel the synthesis builds, and its spectrum, on the bins
    # p = -i omega, against the plain complex expressions; Cole-Cole with
    # 2 alpha < 0.95 carries two fractional terms
    import cmwave.greens as greens

    x = 1e-3
    tau = x / 44800.0
    model = cw.ColeCole(a=1.5, alpha=0.4, tau=tau, g_inf=G_INF, rho=RHO) \
        if family == "cc" else \
        cw.HavriliakNegami(b=0.5, alpha=1 / 1.3, gamma=0.65, tau=tau,
                           g0=RHO * C_INF ** 2, rho=RHO)
    built = []
    for name in ("_step_peel", "_exp_peel", "_kink_peel", "_frac_peel"):
        def record(*args, _name=name, _make=getattr(greens, name)):
            peel = _make(*args)
            built.append((_name, args, peel))
            return peel
        monkeypatch.setattr(greens, name, record)
    T = 4 * x / model.c_inf
    synth(model, x=x, n_samples=4096, T=T)
    dim = 1 if synth is green1d else 3
    expect = {"_exp_peel", "_kink_peel"} if dim == 3 else \
        {"_step_peel", "_exp_peel", "_kink_peel", "_frac_peel"}
    assert {name for name, _, _ in built} == expect
    if dim == 1:
        terms = next(args for name, args, _ in built
                     if name == "_frac_peel")[0]
        assert len(terms) == (2 if family == "cc" else 1)

    p = -1j * greens._bins(4096, T, 256)[1]
    for name, args, peel in built:
        out = np.zeros_like(p)
        peel.subtract(out, p)
        ref = _peel_reference(name, args, p)
        assert np.all(np.abs(out + ref) <= 1e-13 * np.abs(ref)), name

    beta = _parent_beta(model, p)
    lam = 1.0 / model.c_inf + beta / p
    ref = 0.5 * lam * np.exp(-x * beta) / p if dim == 1 else \
        lam * np.exp(-x * beta) * lam / (4.0 * math.pi * x)
    got = greens._spectrum(model, x, dim, p)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


def test_waveform_diagnostics():
    x = 1e-3
    cc = cc_resolvable(x)
    w = green1d(cc, x=x, n_samples=4096, T=4 * x / cc.c_inf)
    d = w.diagnostics
    assert d["pad_factor"] == 256
    assert d["bins"] == 4096 * 256 // 2
    assert d["alias_limit"] == 1e-4
    assert 0.0 < d["alias_ratio"] < d["alias_limit"]

    w3 = green3d(cc, x=x, n_samples=4096, T=4 * x / cc.c_inf,
                 pad_factor=1024)
    assert w3.diagnostics["pad_factor"] == 1024
    assert w3.diagnostics["bins"] == 4096 * 1024 // 2

    fluid = MeasureMedium(cw.make_powerlaw_measure(0.0065, 0.75),
                          c_inf=math.inf)
    wf = green1d(fluid, x=1.0, n_samples=4096, T=1.0)
    assert wf.diagnostics == {"pad_factor": 32, "bins": 4096 * 32 // 2}

    # a waveform built by hand carries an empty record
    assert Waveform(time_grid=w.time_grid, samples=w.samples, x=x,
                    wavefront_time=w.wavefront_time,
                    dc_step_amplitude=0.0).diagnostics == {}
