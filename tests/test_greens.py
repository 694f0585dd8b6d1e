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
    # n_samples, pad_factor: int powers of two; x, T: positive and finite;
    # on every path
    fluid = MeasureMedium(cw.make_powerlaw_measure(0.0065, 0.75),
                          c_inf=math.inf)
    for synth, model in ((green1d, medium), (green3d, medium),
                         (green1d, fluid)):
        for kw in ({"n_samples": 4096.0}, {"T": math.nan}, {"T": math.inf},
                   {"x": math.nan}, {"x": math.inf}):
            args = {"x": 1.0, "n_samples": 4096, "T": 1.0, **kw}
            with pytest.raises(ValueError):
                synth(model, **args)
    for bad in (0, -2, 2.5, 3, 48, True, 32.0, "32"):
        with pytest.raises(ValueError):
            green1d(medium, x=1.0, n_samples=4096, T=8e-4, pad_factor=bad)
        with pytest.raises(ValueError):
            green3d(medium, x=1.0, n_samples=4096, T=8e-4, pad_factor=bad)
        with pytest.raises(ValueError):
            green1d(fluid, x=1.0, n_samples=4096, T=1.0, pad_factor=bad)


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


@pytest.mark.parametrize("k_front", [1, 4094])
def test_wavefront_smoothness_stays_on_the_grid(k_front):
    # a front at sample 1 would read u[-1], the end of the grid, and one
    # at n - 2 would read past it: both are refused at every order
    n = 4096
    t = np.arange(n) * 1e-9
    step = Waveform(time_grid=t, samples=np.where(t >= t[k_front], 1.0, 0.0),
                    x=1.0, wavefront_time=float(t[k_front]),
                    dc_step_amplitude=1.0)
    for order in range(4):
        with pytest.raises(ValueError, match="too close to the ends"):
            wavefront_smoothness(step, order)
    # two samples further in, every stencil fits and the jump scores 1
    inner = 3 if k_front == 1 else n - 3
    step.wavefront_time = float(t[inner])
    step.samples = np.where(t >= t[inner], 1.0, 0.0)
    assert wavefront_smoothness(step, 3)[0] == 1.0


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


def _half_order_reference(a_coef, x, t):
    """The power-law fluid with gamma = 1/2 in closed form: kappa = C p^(1/2),
    C = a pi/2, so v1 <-> (C/2) p^(-3/2) e^(-k p^(1/2)) with k = C x is
    (C/2) [2 sqrt(t/pi) e^(-k^2/4t) - k erfc(k/(2 sqrt t))], 0 at t = 0."""
    c = a_coef * math.pi / 2.0
    k = c * x
    return np.array([0.5 * c * (2.0 * math.sqrt(s / math.pi)
                                * math.exp(-k * k / (4.0 * s))
                                - k * math.erfc(k / (2.0 * math.sqrt(s))))
                     if s > 0.0 else 0.0 for s in t])


@pytest.mark.parametrize("a_coef, x", [(0.05, 1.0), (1.0, 0.1)])
def test_half_order_fluid_matches_the_closed_form(a_coef, x):
    # every sample, the p^0 term of the small-p expansion (bin 0) included
    fluid = MeasureMedium(cw.make_powerlaw_measure(a_coef, 0.5),
                          c_inf=math.inf)
    w = green1d(fluid, x=x, n_samples=4096, T=1.0)
    ref = _half_order_reference(a_coef, x, w.time_grid)
    assert np.max(np.abs(w.samples - ref)) <= 1e-5 * np.max(np.abs(ref))


@pytest.mark.parametrize("model", [
    cw.HavriliakNegami(b=1.0, alpha=0.77, gamma=0.65, tau=1e-13,
                       g0=RHO * C_INF ** 2, rho=RHO),
    cw.ColeDavidson(b=1.0, gamma=0.5, tau=1e-13, g0=RHO * C_INF ** 2,
                    rho=RHO),
], ids=["hn", "cd"])
def test_fluids_other_than_the_power_law_are_not_implemented(model):
    # the medium is refused before the sampling is looked at
    for T in (1e-11, math.nan):     # below x/c_inf, and no number
        with pytest.raises(NotImplementedError,
                           match="fluid media other than the power-law"):
            green1d(model, x=1e-6, n_samples=4096, T=T)
        with pytest.raises(NotImplementedError,
                           match="3D synthesis requires G_inf > 0"):
            green3d(model, x=1e-6, n_samples=4096, T=T)


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
    # the rows as the numpy scalars format themselves, one at a time
    assert text[header_idx + 1:] == [
        f"{t:.16e},{u:.16e}" for t, u in zip(w.time_grid, w.samples)]
    # a path, str or os.PathLike, is opened and closed: the same text
    path = tmp_path / "w.csv"
    w.to_csv(path, metadata={"model": "elastic"})
    w.to_csv(str(path) + ".2", metadata={"model": "elastic"})
    assert path.read_text() == (tmp_path / "w.csv.2").read_text() \
        == buf.getvalue()


@pytest.mark.parametrize("synth, pad", [(green1d, 8), (green3d, 1)],
                         ids=["green1d", "green3d"])
def test_spectral_decay_error_raised(synth, pad):
    from cmwave.greens import SpectralDecayError

    # extreme fractional content at minimal padding cannot reach the
    # aliasing tolerance; the synthesis must refuse rather than return a
    # polluted waveform.  In 3D the exact small-p peel leaves a remainder
    # that decays like s^(-2 - alpha), and at pad 8 it wraps to 1.7e-5 of
    # the peak, inside the tolerance; with no padding at all (pad 1) the
    # period is the window itself, the remainder is still 5e-3 of the peak
    # at its end, and that wraps onto the front
    hn = cw.HavriliakNegami(b=0.5, alpha=0.3, gamma=0.9, tau=1e-13,
                            g0=RHO * C_INF ** 2, rho=RHO)
    x = 16 * hn.c_inf * hn.tau
    with pytest.raises(SpectralDecayError):
        synth(hn, x=x, n_samples=4096, T=4 * x / hn.c_inf, pad_factor=pad)


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
    # p = -i omega, against the plain complex expressions; in 1D the
    # fractional peel carries every non-integer k alpha and 1 + k alpha
    # below 2: 0.4, 0.8, 1.2, 1.6, 1.4 and 1.8 for Cole-Cole with
    # alpha = 0.4, and alpha, 2 alpha and 1 + alpha for Havriliak-Negami
    # with alpha = 1/1.3; in 3D every 1 + k alpha below 2: 1.4 and 1.8, and
    # 1 + alpha
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
    expect = {"_exp_peel", "_kink_peel", "_frac_peel"} if dim == 3 else \
        {"_step_peel", "_exp_peel", "_kink_peel", "_frac_peel"}
    assert {name for name, _, _ in built} == expect
    terms = next(args for name, args, _ in built if name == "_frac_peel")[0]
    assert len(terms) == {(1, "cc"): 6, (1, "hn"): 3,
                          (3, "cc"): 2, (3, "hn"): 1}[dim, family]

    p = -1j * greens._bins(4096 * 64, T / 4096, 1, 4096 * 64 // 2 + 1)
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
    T = 4 * x / cc.c_inf
    w = green1d(cc, x=x, n_samples=4096, T=T)
    d = w.diagnostics
    assert d["pad_factor"] == 64
    assert d["bins"] == 4096 * 64 // 2
    assert d["alias_limit"] == 1e-4
    assert 0.0 < d["alias_ratio"] < d["alias_limit"]
    # alpha = 1/2: p^(1/2) and p^(3/2) peeled (k alpha = 1.5 and
    # 1 + alpha merged), p^1 exact in bin 0
    assert d["peel_exponents"] == [0.5, 1.5]
    assert len(d["peel_coefficients"]) == 2
    assert all(isinstance(c, float) for c in d["peel_coefficients"])
    assert isinstance(d["c_lin"], float) and d["c_lin"] < 0.0
    assert d["frac_timescale"] == T / 2

    # 3D peels p^(k alpha) of lam^2 as e = 1 + k alpha below 2 (alpha = 1/2:
    # e = 1.5), at pad 64 and the same timescale; bin 0 is exact, no c_lin
    w3 = green3d(cc, x=x, n_samples=4096, T=T)
    d3 = w3.diagnostics
    assert d3["pad_factor"] == 64
    assert d3["bins"] == 4096 * 64 // 2
    assert d3["peel_exponents"] == [1.5]
    assert len(d3["peel_coefficients"]) == 1
    assert all(isinstance(c, float) for c in d3["peel_coefficients"])
    assert d3["frac_timescale"] == T / 2
    assert "c_lin" not in d3
    assert 0.0 < d3["alias_ratio"] < d3["alias_limit"]
    w3 = green3d(cc, x=x, n_samples=4096, T=T, pad_factor=1024)
    assert w3.diagnostics["pad_factor"] == 1024
    assert w3.diagnostics["bins"] == 4096 * 1024 // 2

    hn = cw.HavriliakNegami(b=0.5, alpha=1 / 1.3, gamma=0.65, tau=x / 44800,
                            g0=RHO * C_INF ** 2, rho=RHO)
    assert green1d(hn, x=x, n_samples=4096, T=T).diagnostics[
        "pad_factor"] == 64
    for solid in (cw.StandardLinearSolid(a=1.5, tau=2e-6, g_inf=G_INF,
                                         rho=RHO),
                  cw.ColeDavidson(b=0.5, gamma=0.5, tau=2e-6,
                                  g0=RHO * C_INF ** 2, rho=RHO)):
        for synth in (green1d, green3d):
            ds = synth(solid, x=0.05, n_samples=4096,
                       T=0.2 / C_INF).diagnostics
            assert ds["pad_factor"] == 32
            assert ds["peel_exponents"] == []

    fluid = MeasureMedium(cw.make_powerlaw_measure(0.0065, 0.75),
                          c_inf=math.inf)
    wf = green1d(fluid, x=1.0, n_samples=4096, T=1.0)
    assert wf.diagnostics["pad_factor"] == 32
    assert wf.diagnostics["bins"] == 4096 * 32 // 2
    assert wf.diagnostics["alias_limit"] == 1e-4
    assert 0.0 < wf.diagnostics["alias_ratio"] < 1e-4
    # s_k = 0.75 (k + 1) - 2: -1.25 and -0.5 peeled, as e = s_k + 1
    assert wf.diagnostics["peel_exponents"] == pytest.approx([-0.25, 0.5])
    assert wf.diagnostics["frac_timescale"] == 1.0 / 64

    # a waveform built by hand carries an empty record
    assert Waveform(time_grid=w.time_grid, samples=w.samples, x=x,
                    wavefront_time=w.wavefront_time,
                    dc_step_amplitude=0.0).diagnostics == {}


def _block_cases():
    x = 1e-3
    tau = x / 44800.0
    cc = cw.ColeCole(a=1.5, alpha=0.4, tau=tau, g_inf=G_INF, rho=RHO)
    hn = cw.HavriliakNegami(b=0.5, alpha=1 / 1.3, gamma=0.65, tau=tau,
                            g0=RHO * C_INF ** 2, rho=RHO)
    sls = cw.StandardLinearSolid(a=1.5, tau=2e-6, g_inf=G_INF, rho=RHO)
    fluid = MeasureMedium(cw.make_powerlaw_measure(0.0065, 0.75),
                          c_inf=math.inf)
    return [(green1d, cc, x, 4 * x / C_INF), (green3d, hn, x, 4 * x / C_INF),
            (green1d, sls, 0.05, 0.2 / C_INF),
            (green3d, sls, 0.05, 0.2 / C_INF), (green1d, fluid, 1.0, 1.0)]


@pytest.mark.parametrize("case", range(5),
                         ids=["cc-1d", "hn-3d", "sls-1d", "sls-3d", "fluid"])
def test_waveforms_do_not_depend_on_the_block_size(monkeypatch, case):
    # each bin goes through the same operations whichever block it falls
    # in: blocks that divide no bin count, a prime one, and one block for
    # every bin (a single full-length pass) give the same bits
    import cmwave.greens as greens

    synth, model, x, T = _block_cases()[case]
    ref = synth(model, x=x, n_samples=4096, T=T)
    for block in (3000, 1531, 1 << 22):
        monkeypatch.setattr(greens, "_BLOCK", block)
        w = synth(model, x=x, n_samples=4096, T=T)
        assert np.array_equal(w.samples, ref.samples), block
        assert w.diagnostics == ref.diagnostics


def _cc3d_array_peak(pad_factor):
    """The tracemalloc peak of a Cole-Cole 3D synthesis at n = 8192, and
    its bins."""
    import tracemalloc

    x = 1e-3
    cc = cw.ColeCole(a=1.5, alpha=0.4, tau=x / 44800.0, g_inf=G_INF,
                     rho=RHO)
    tracemalloc.start()
    try:
        w = green3d(cc, x=x, n_samples=8192, T=4 * x / C_INF,
                    pad_factor=pad_factor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, w.diagnostics["bins"]


def test_synthesis_array_peak():
    # a 1M-bin synthesis (pad 256) holds the irfft input and output
    # (16 MB each) plus one block's temporaries, not full-length ones
    peak, bins = _cc3d_array_peak(256)
    assert bins == 8192 * 256 // 2
    assert peak <= 48e6


def test_synthesis_array_peak_at_the_default_pad():
    # at the default pad 64, 262k bins, the irfft input and output take
    # 4 MB each; one block's temporaries and the add-back's Mittag-Leffler
    # rows are the rest
    peak, bins = _cc3d_array_peak(None)
    assert bins == 8192 * 64 // 2
    assert peak <= 24e6


def _verify_settings(model):
    """x, n and T of the causality check of ``cmwave verify``."""
    x = 16.0 * model.c_inf * model.tau
    return x, 4096, 4.0 * x / model.c_inf


def _mp_lam_of_y(model, y):
    """sqrt(rho/Q) as a function of y = (tau p)^alpha, in mpmath."""
    import mpmath

    if isinstance(model, (cw.ColeCole, cw.StandardLinearSolid)):
        q = model.g_inf * (1 + model.a * y) / (1 + y)
    else:
        q = model.g0 * (1 - model.b * (1 + y) ** -mpmath.mpf(model.gamma))
    return mpmath.sqrt(model.rho / q)


def _talbot_green(model, x, s, dim):
    """v1 (dim 1) or v3 (dim 3) at s after the wavefront: the Talbot
    inversion of lam exp(-beta x)/(2 p) or lam^2 exp(-beta x)/(4 pi x),
    beta = p (lam - 1/c_inf), at 30 digits."""
    import mpmath

    alpha = mpmath.mpf(getattr(model, "alpha", 1.0))
    slow = 1 / mpmath.sqrt(model.g0 / model.rho)

    def spectrum(p):
        lam = _mp_lam_of_y(model, (mpmath.mpf(model.tau) * p) ** alpha)
        decay = mpmath.exp(-p * (lam - slow) * x)
        if dim == 1:
            return lam * decay / (2 * p)
        return lam ** 2 * decay / (4 * mpmath.pi * x)

    with mpmath.workdps(30):
        return float(mpmath.invertlaplace(spectrum, s, method="talbot"))


def _assert_matches_talbot(model, dim, rel):
    """The synthesis at verify's settings against the Talbot inversion at
    1, 4, 10, 20 and 40 tau after the front, to ``rel`` of the peak."""
    x, n, T = _verify_settings(model)
    w = (green1d if dim == 1 else green3d)(model, x=x, n_samples=n, T=T)
    peak = np.max(np.abs(w.samples))
    k_front = math.ceil(w.wavefront_time / w.dt)
    for s_tau in (1.0, 4.0, 10.0, 20.0, 40.0):
        k = k_front + round(s_tau * model.tau / w.dt)
        s = w.time_grid[k] - w.wavefront_time
        ref = _talbot_green(model, x, s, dim)
        assert abs(w.samples[k] - ref) <= rel * peak, s_tau


@pytest.mark.parametrize("model", [
    cw.ColeCole(a=1.5, alpha=0.2, tau=1e-13, g_inf=G_INF, rho=RHO),
    cw.ColeCole(a=1.65, alpha=0.53, tau=1e-13,
                g_inf=RHO * C_INF ** 2 / 1.65, rho=RHO),
    cw.HavriliakNegami(b=0.5, alpha=1 / 1.3, gamma=0.65, tau=1e-13,
                       g0=RHO * C_INF ** 2, rho=RHO),
    cw.StandardLinearSolid(a=1.5, tau=1e-13, g_inf=G_INF, rho=RHO),
    cw.ColeDavidson(b=0.5, gamma=0.5, tau=1e-13, g0=RHO * C_INF ** 2,
                    rho=RHO),
], ids=["cc-0.2", "cc-0.53", "hn", "sls", "cd"])
def test_green1d_matches_talbot_after_the_front(model):
    # verify's synthesis against an independent inversion, 1 to 40 tau
    # after the front (closer in, Talbot itself fails for alpha = 0.2);
    # with the small-p tail fitted rather than peeled, Cole-Cole 0.53 was
    # off by a flat 1.2e-5 of the peak
    _assert_matches_talbot(model, 1, 1e-5)


@pytest.mark.parametrize("model", [
    cw.ColeCole(a=1.5, alpha=0.2, tau=1e-13, g_inf=G_INF, rho=RHO),
    cw.ColeCole(a=1.5, alpha=0.4, tau=1e-13, g_inf=G_INF, rho=RHO),
    cw.ColeCole(a=1.65, alpha=0.53, tau=1e-13,
                g_inf=RHO * C_INF ** 2 / 1.65, rho=RHO),
    cw.HavriliakNegami(b=0.5, alpha=1 / 1.3, gamma=0.65, tau=1e-13,
                       g0=RHO * C_INF ** 2, rho=RHO),
], ids=["cc-0.2", "cc-0.4", "cc-0.53", "hn"])
def test_green3d_matches_talbot_after_the_front(model):
    # the 3D synthesis at verify's settings; with the small-p tail fitted
    # rather than peeled, at pad 256, Cole-Cole 0.2 and 0.4 were off by a
    # flat 4.1e-6 and 1.2e-6 of the peak, and the peel reads 3e-8 or less
    _assert_matches_talbot(model, 3, 1e-6)


@pytest.mark.parametrize("synth, a, alpha, tau, c_inf, x, n", [
    (green1d, 1.4904714807984418, 0.397555550673278, 8.141453573916591e-07,
     5020.862251170911, 0.03662589675936873, 4096),
    (green3d, 1.3169130854657851, 0.3812379124283325, 1.4302904029012982e-07,
     5448.360570590012, 0.006982293100752019, 8192),
], ids=["1d", "3d"])
def test_a_sample_ulps_after_the_arrival_reads_no_spike(synth, a, alpha, tau,
                                                        c_inf, x, n):
    # T = 4 x/c_inf puts the arrival within rounding of a sample: here
    # sample k + 1 lies 2e-13 dt and 4e-13 dt after it, where the
    # fractional add-back's pole terms cancel only to the rounding of their
    # weights (1.7e-2 of the peak in 1D, 1.1e-5 in 3D, before it was set to
    # its flat value there); that sample lies on the smooth front
    model = cw.ColeCole(a=a, alpha=alpha, tau=tau,
                        g_inf=(c_inf / math.sqrt(a)) ** 2)
    T = 4 * x / c_inf
    w = synth(model, x=x, n_samples=n, T=T)
    k = math.floor(w.wavefront_time / w.dt)
    assert 0.0 < (k + 1) * w.dt - w.wavefront_time < 1e-12 * w.dt
    u = w.samples
    assert abs(u[k + 1] - (u[k] + u[k + 2]) / 2) <= 1e-6 * np.max(np.abs(u))


def _mp_small_p_terms(model, x):
    """The exponents and coefficients of q(p) = p V(p) - 1/(2 c0) below
    p^2, from mpmath Taylor coefficients of lam(y) = sqrt(rho/Q) in
    y = (tau p)^alpha: q = (lam - lam(0))/2 - x p lam (lam - 1/c_inf)/2 +
    O(p^2).  Returns {exponent rounded to 9 digits: coefficient}."""
    import mpmath

    alpha = getattr(model, "alpha", 1.0)
    n = int(2.0 / alpha) + 1
    with mpmath.workdps(40):
        slow = 1 / mpmath.sqrt(model.g0 / model.rho)
        ell = mpmath.taylor(lambda y: _mp_lam_of_y(model, y), 0, n - 1)
        m = [sum(ell[j] * ell[k - j] for j in range(k + 1)) - slow * ell[k]
             for k in range(n)]
        out = {}
        for k in range(n):
            scale = mpmath.mpf(model.tau) ** (k * mpmath.mpf(alpha))
            for e, c in ((k * alpha, ell[k] * scale / 2),
                         (1 + k * alpha, -x * m[k] * scale / 2)):
                if 0 < e < 2 - 1e-9:
                    key = round(e, 9)
                    out[key] = out.get(key, 0) + float(c)
    return out


def _mp_small_p_terms3d(model, x):
    """The exponents e = 1 + k alpha and coefficients of the terms
    p^(k alpha), 0 < k alpha < 1, of the 3D spectrum, from mpmath Taylor
    coefficients of lam(y)^2/(4 pi x) in y = (tau p)^alpha.  Returns
    {exponent rounded to 9 digits: coefficient}."""
    import mpmath

    alpha = getattr(model, "alpha", 1.0)
    n = int(1.0 / alpha) + 1
    with mpmath.workdps(40):
        ell2 = mpmath.taylor(lambda y: _mp_lam_of_y(model, y) ** 2
                             / (4 * mpmath.pi * x), 0, n - 1)
        return {round(1 + k * alpha, 9):
                float(ell2[k] * mpmath.mpf(model.tau)
                      ** (k * mpmath.mpf(alpha)))
                for k in range(1, n) if k * alpha < 1 - 1e-9}


@pytest.mark.parametrize("model", [
    cw.ColeCole(a=1.5, alpha=0.4, tau=1e-13, g_inf=G_INF, rho=RHO),
    cw.ColeCole(a=1.65, alpha=0.53, tau=1e-13,
                g_inf=RHO * C_INF ** 2 / 1.65, rho=RHO),
    cw.ColeCole(a=1.5, alpha=0.5, tau=1e-13, g_inf=G_INF, rho=RHO),
    cw.HavriliakNegami(b=0.5, alpha=1 / 1.3, gamma=0.65, tau=1e-13,
                       g0=RHO * C_INF ** 2, rho=RHO),
    cw.HavriliakNegami(b=0.81, alpha=0.56, gamma=0.96, tau=1e-13,
                       g0=RHO * C_INF ** 2, rho=RHO),
    cw.StandardLinearSolid(a=1.5, tau=1e-13, g_inf=G_INF, rho=RHO),
    cw.ColeDavidson(b=0.5, gamma=0.5, tau=1e-13, g0=RHO * C_INF ** 2,
                    rho=RHO),
], ids=["cc-0.4", "cc-0.53", "cc-0.5", "hn", "hn-0.81", "sls", "cd"])
def test_small_p_terms_are_the_taylor_coefficients(model):
    # the float series arithmetic against 40-digit Taylor coefficients:
    # every peeled exponent, and c_lin, the exact p^1 coefficient in bin 0,
    # of the 1D spectrum, and every peeled exponent of the 3D one
    x, n, T = _verify_settings(model)
    d = green1d(model, x=x, n_samples=n, T=T).diagnostics
    want = _mp_small_p_terms(model, x)
    c_lin = want.pop(1.0)
    assert d["c_lin"] == pytest.approx(c_lin, rel=1e-12)
    got = dict(zip((round(e, 9) for e in d["peel_exponents"]),
                   d["peel_coefficients"]))
    assert got.keys() == want.keys()
    for e, c in want.items():
        assert got[e] == pytest.approx(c, rel=1e-11), e
    # 3D: the p^(k alpha) terms of lam^2/(4 pi x), below p^1
    d3 = green3d(model, x=x, n_samples=n, T=T).diagnostics
    want3 = _mp_small_p_terms3d(model, x)
    got3 = dict(zip((round(e, 9) for e in d3["peel_exponents"]),
                    d3["peel_coefficients"]))
    assert got3.keys() == want3.keys()
    for e, c in want3.items():
        assert got3[e] == pytest.approx(c, rel=1e-11), e


def test_finite_band_c_lin_is_the_second_inverse_moment():
    # beta = p int h/(p + r) dr is analytic at p = 0 for a band above 0:
    # nothing is peeled, and c_lin = -int h/r^2 dr/2 - x D/(2 c0)
    height, r_lo, r_hi = 1e-7, 1e5, 1e6
    medium = MeasureMedium(cw.make_finiteband_measure(height, r_lo, r_hi),
                           c_inf=C_INF)
    x = 0.05
    d = green1d(medium, x=x, n_samples=4096, T=4e-5).diagnostics
    d_const = height * math.log(r_hi / r_lo)
    c0 = 1.0 / (1.0 / C_INF + d_const)
    want = -0.5 * height * (1.0 / r_lo - 1.0 / r_hi) - 0.5 * x * d_const / c0
    assert d["peel_exponents"] == []
    assert d["c_lin"] == pytest.approx(want, rel=1e-8)
