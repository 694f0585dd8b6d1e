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


def _decay_cases():
    """(synthesis, model, x, T, pad_factor, advice) of syntheses that must
    raise SpectralDecayError, and the advice its message gives."""
    tau = 1e-13
    x, T = 16 * C_INF * tau, 64 * tau      # verify's settings
    # extreme fractional content at minimal padding: the relaxation tail
    # wraps around the period
    hn = cw.HavriliakNegami(b=0.5, alpha=0.3, gamma=0.9, tau=tau,
                            g0=RHO * C_INF ** 2, rho=RHO)
    wrap = "increase pad_factor or T"
    # fronts and a fluid start too sharp for the sampling rate: they ring
    # at the Nyquist rate over the whole period, whatever the padding
    ring = "increase n_samples"
    cd = cw.ColeDavidson(b=0.41, gamma=0.94, tau=tau, g0=RHO * C_INF ** 2,
                         rho=RHO)
    cc = cw.ColeCole(a=1.1, alpha=0.55, tau=tau, g_inf=RHO * C_INF ** 2 / 1.1,
                     rho=RHO)

    def fluid(a_coef):
        return MeasureMedium(cw.make_powerlaw_measure(a_coef, 0.5),
                             c_inf=math.inf)

    return {"green1d": (green1d, hn, x, T, 1, wrap),
            "green3d": (green3d, hn, x, T, 1, wrap),
            "fluid-wrap": (green1d, fluid(1.0), 1.0, 1.0, None, wrap),
            "cd-ring-1d": (green1d, cd, x, T, None, ring),
            "cc-ring-3d": (green3d, cc, x, T, None, ring),
            "fluid-ring": (green1d, fluid(0.0065), 0.1, 1.0, None, ring)}


@pytest.mark.parametrize("case", list(_decay_cases()))
def test_spectral_decay_error_raised(case):
    # the synthesis must refuse rather than return a polluted waveform, and
    # say which resolution to raise.  The exact small-p peel leaves a
    # remainder that decays like s^-3 or faster, and at pad 8 it wraps to
    # 6e-6 of the peak in 1D and at pad 4 to 6e-6 in 3D, inside the
    # tolerance; with no padding at all (pad 1) the period is the window
    # itself, and the remainder left at its end wraps onto the front (2.7e-2
    # and 2.8e-3 of the peak).  Over the alias window a wrapped tail changes
    # from sample to sample by at most 0.22 of its largest value, the
    # ringing by 1.5 to 1.7 times it
    from cmwave.greens import SpectralDecayError

    synth, model, x, T, pad, advice = _decay_cases()[case]
    with pytest.raises(SpectralDecayError, match=advice):
        synth(model, x=x, n_samples=4096, T=T, pad_factor=pad)


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
    if name == "_small_p_peel":
        # G from the complex-arithmetic beta, over the six-pole sum
        import cmwave.greens as greens

        model, x, dim, c0, theta_f, _ = args
        beta = _parent_beta(model, p)
        lam = 1.0 / model.c_inf + beta / p
        poles = sum(a_i / (1.0 + th_i * p)
                    for th_i, a_i in zip(*greens._frac_poles(theta_f, 6, 2)))
        if dim == 1:
            return 0.5 * (lam * (1.0 - x * beta + (x * beta) ** 2 / 2.0)
                          - 1.0 / c0) * poles / p
        return (lam ** 2 * (1.0 - x * beta) - 1.0 / c0 ** 2) * poles \
            / (4.0 * math.pi * x)
    terms, thetas, weights = args
    poles = sum(a_i / (1.0 + th_i * p) for a_i, th_i in zip(weights, thetas))
    return sum(c * p ** (e - 1.0) * poles for e, c in terms)


def _record_peels(monkeypatch):
    """A list that collects (name, args, peel) of every peel the synthesis
    builds."""
    import cmwave.greens as greens

    built = []
    for name in ("_step_peel", "_exp_peel", "_kink_peel", "_frac_peel",
                 "_small_p_peel"):
        def record(*args, _name=name, _make=getattr(greens, name)):
            peel = _make(*args)
            built.append((_name, args, peel))
            return peel
        monkeypatch.setattr(greens, name, record)
    return built


@pytest.mark.parametrize("family", ["cc", "hn"])
@pytest.mark.parametrize("synth", [green1d, green3d])
def test_bins_match_the_complex_arithmetic_spectrum(monkeypatch, family,
                                                    synth):
    # every peel the synthesis builds, and its spectrum, on the bins
    # p = -i omega, against the plain complex expressions: the exact
    # small-p peel G from the beta of the bins (in 1D with the step, ramp
    # and kink).  An algebraic tail leaves the 3D spectrum no 1/p or 1/p^2
    # term (exp(-beta x) decays faster than any power), so no ramp or kink
    # peel is built there
    import cmwave.greens as greens

    x = 1e-3
    tau = x / 44800.0
    model = cw.ColeCole(a=1.5, alpha=0.4, tau=tau, g_inf=G_INF, rho=RHO) \
        if family == "cc" else \
        cw.HavriliakNegami(b=0.5, alpha=1 / 1.3, gamma=0.65, tau=tau,
                           g0=RHO * C_INF ** 2, rho=RHO)
    built = _record_peels(monkeypatch)
    T = 4 * x / model.c_inf
    synth(model, x=x, n_samples=4096, T=T)
    dim = 1 if synth is green1d else 3
    expect = {"_small_p_peel"} if dim == 3 else \
        {"_step_peel", "_exp_peel", "_kink_peel", "_small_p_peel"}
    assert {name for name, _, _ in built} == expect

    p = -1j * greens._bins(4096 * 64, T / 4096, 1, 4096 * 64 // 2 + 1)
    beta = greens.dispersion_attenuation(model, p)
    for name, args, peel in built:
        out = np.zeros_like(p)
        peel.subtract(out, p, beta)
        ref = _peel_reference(name, args, p)
        assert np.all(np.abs(out + ref) <= 1e-13 * np.abs(ref)), name

    beta_ref = _parent_beta(model, p)
    lam = 1.0 / model.c_inf + beta_ref / p
    ref = 0.5 * lam * np.exp(-x * beta_ref) / p if dim == 1 else \
        lam * np.exp(-x * beta_ref) * lam / (4.0 * math.pi * x)
    got = greens._spectrum(model, x, dim, p, beta)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


@pytest.mark.parametrize("n_poles, n_tail", [(4, 1), (6, 2)])
def test_pole_weights_meet_their_conditions(n_poles, n_tail):
    # sum A_i = 1; sum A_i theta_i^-j = 0 below the tail conditions; and
    # sum A_i theta_i^j = 0 for j = 1 .. n_tail, each to the rounding of
    # its largest term
    import cmwave.greens as greens

    theta_f = 3.2e-12
    thetas, weights = greens._frac_poles(theta_f, n_poles, n_tail)
    assert np.array_equal(thetas, theta_f * 0.5 ** np.arange(n_poles))
    for j in range(-n_tail, n_poles - n_tail):
        terms = weights * thetas ** -j
        want = 1.0 if j == 0 else 0.0
        assert abs(terms.sum() - want) <= 1e-14 * np.abs(terms).sum(), j


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
    # the pre-front level of a passing synthesis is roundoff, which changes
    # by more than its size from sample to sample
    assert d["alias_kind"] == "ringing"
    # the exact small-p peel: its pole timescale, and the off-axis beta
    # evaluations of its add-back, 44 per log-time window (4 windows from
    # dt to 3072 dt); bin 0 is the remainder's limit 0, no c_lin, and no
    # exponent is peeled on its own
    assert d["frac_timescale"] == T / 2
    assert d["contour_nodes"] == 4 * 44
    assert "c_lin" not in d and "peel_exponents" not in d

    # 3D: the same peel, pad and timescale; bin 0 is 1/(4 pi x c0^2)
    w3 = green3d(cc, x=x, n_samples=4096, T=T)
    d3 = w3.diagnostics
    assert d3["pad_factor"] == 64
    assert d3["bins"] == 4096 * 64 // 2
    assert d3["frac_timescale"] == T / 2
    assert d3["contour_nodes"] == 4 * 44
    assert "c_lin" not in d3 and "peel_exponents" not in d3
    assert 0.0 < d3["alias_ratio"] < d3["alias_limit"]
    w3 = green3d(cc, x=x, n_samples=4096, T=T, pad_factor=1024)
    assert w3.diagnostics["pad_factor"] == 1024
    assert w3.diagnostics["bins"] == 4096 * 1024 // 2

    hn = cw.HavriliakNegami(b=0.5, alpha=1 / 1.3, gamma=0.65, tau=x / 44800,
                            g0=RHO * C_INF ** 2, rho=RHO)
    assert green1d(hn, x=x, n_samples=4096, T=T).diagnostics[
        "pad_factor"] == 64
    # a wrapped relaxation tail inside the limit: Havriliak-Negami at pad 8
    tau = 1e-13
    hn_wrap = cw.HavriliakNegami(b=0.5, alpha=0.3, gamma=0.9, tau=tau,
                                 g0=RHO * C_INF ** 2, rho=RHO)
    dw = green1d(hn_wrap, x=16 * C_INF * tau, n_samples=4096, T=64 * tau,
                 pad_factor=8).diagnostics
    assert dw["alias_kind"] == "wrap"
    assert 1e-6 < dw["alias_ratio"] < dw["alias_limit"]
    for solid in (cw.StandardLinearSolid(a=1.5, tau=2e-6, g_inf=G_INF,
                                         rho=RHO),
                  cw.ColeDavidson(b=0.5, gamma=0.5, tau=2e-6,
                                  g0=RHO * C_INF ** 2, rho=RHO)):
        for synth in (green1d, green3d):
            ds = synth(solid, x=0.05, n_samples=4096,
                       T=0.2 / C_INF).diagnostics
            # no small-p peel: bin 0 carries c_lin in 1D
            assert ds["pad_factor"] == 32
            assert not {"peel_exponents", "frac_timescale",
                        "contour_nodes"} & ds.keys()
            assert ("c_lin" in ds) == (synth is green1d)
            assert ds["alias_kind"] in ("ringing", "wrap")

    fluid = MeasureMedium(cw.make_powerlaw_measure(0.0065, 0.75),
                          c_inf=math.inf)
    wf = green1d(fluid, x=1.0, n_samples=4096, T=1.0)
    assert wf.diagnostics["pad_factor"] == 32
    assert wf.diagnostics["bins"] == 4096 * 32 // 2
    assert wf.diagnostics["alias_limit"] == 1e-4
    assert 0.0 < wf.diagnostics["alias_ratio"] < 1e-4
    # s_k = 0.75 (k + 1) - 2: -1.25 and -0.5 peeled, as e = s_k + 1
    assert wf.diagnostics["peel_exponents"] == pytest.approx([-0.25, 0.5])
    assert len(wf.diagnostics["peel_coefficients"]) == 2
    assert wf.diagnostics["frac_timescale"] == 1.0 / 64
    assert "contour_nodes" not in wf.diagnostics

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


def _talbot_green(model, x, s, dim, delta=0.0, method="talbot"):
    """v1 (dim 1) or v3 (dim 3) at s after the wavefront: the Talbot (or
    ``method``) inversion of lam exp(-beta x)/(2 p) or
    lam^2 exp(-beta x)/(4 pi x), beta = p (lam - 1/c_inf), at 30 digits,
    less the constant ``delta`` (the front delta's area, which inverts to
    delta(s), 0 after the front)."""
    import mpmath

    alpha = mpmath.mpf(getattr(model, "alpha", 1.0))
    slow = 1 / mpmath.sqrt(model.g0 / model.rho)

    def spectrum(p):
        lam = _mp_lam_of_y(model, (mpmath.mpf(model.tau) * p) ** alpha)
        decay = mpmath.exp(-p * (lam - slow) * x)
        if dim == 1:
            return lam * decay / (2 * p)
        return lam ** 2 * decay / (4 * mpmath.pi * x) - delta

    with mpmath.workdps(30):
        return float(mpmath.invertlaplace(spectrum, s, method=method))


def _assert_matches_talbot(model, dim, rel, method="talbot",
                           s_taus=(1.0, 4.0, 10.0, 20.0, 40.0)):
    """The synthesis at verify's settings against the Talbot (or
    ``method``) inversion at ``s_taus`` tau after the front, to ``rel`` of
    the peak."""
    x, n, T = _verify_settings(model)
    w = (green1d if dim == 1 else green3d)(model, x=x, n_samples=n, T=T)
    peak = np.max(np.abs(w.samples))
    k_front = math.ceil(w.wavefront_time / w.dt)
    for s_tau in s_taus:
        k = k_front + round(s_tau * model.tau / w.dt)
        s = w.time_grid[k] - w.wavefront_time
        ref = _talbot_green(model, x, s, dim, w.front_delta_area, method)
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
    cw.StandardLinearSolid(a=1.5, tau=1e-13, g_inf=G_INF, rho=RHO),
    cw.ColeDavidson(b=0.5, gamma=1.0, tau=1e-13, g0=RHO * C_INF ** 2,
                    rho=RHO),
], ids=["cc-0.2", "cc-0.4", "cc-0.53", "hn", "sls", "cd-1"])
def test_green3d_matches_talbot_after_the_front(model):
    # the 3D synthesis at verify's settings; with the small-p tail fitted
    # rather than peeled, at pad 256, Cole-Cole 0.2 and 0.4 were off by a
    # flat 4.1e-6 and 1.2e-6 of the peak, and the peel reads 3e-8 or less.
    # The SLS and Cole-Davidson with gamma = 1 carry a front delta, whose
    # constant spectrum the reference leaves out
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


def _cc(a, alpha):
    return cw.ColeCole(a=a, alpha=alpha, tau=1e-13,
                       g_inf=RHO * C_INF ** 2 / a, rho=RHO)


def _hn(b, alpha, gamma):
    return cw.HavriliakNegami(b=b, alpha=alpha, gamma=gamma, tau=1e-13,
                              g0=RHO * C_INF ** 2, rho=RHO)


@pytest.mark.parametrize("model, rel", [
    (_cc(1.5, 0.4), 1e-7), (_cc(1.65, 0.53), 1e-7),
    (_hn(0.5, 1 / 1.3, 0.65), 1e-7), (_cc(13.36, 0.59), 1e-6),
], ids=["cc-0.4", "cc-0.53", "hn", "cc-13.36"])
@pytest.mark.parametrize("dim", [1, 3])
def test_exact_small_p_peel_matches_talbot(model, rel, dim):
    # with the Taylor series of lam peeled instead, these read 3.3e-7,
    # 2.4e-7, 2.8e-8 and 4.1e-5 of the peak in 1D, and 9e-9, 7.1e-5 (cc-13.36)
    # in 3D; the exact peel reads at most 1.6e-9 on the first three and
    # 3.7e-7 on cc-13.36
    _assert_matches_talbot(model, dim, rel)


@pytest.mark.parametrize("model", [_cc(7.44, 0.17), _cc(5.24, 0.10)],
                         ids=["cc-7.44-0.17", "cc-5.24-0.10"])
@pytest.mark.parametrize("dim", [1, 3])
def test_strong_cole_cole_relaxation_matches_de_hoog(model, dim):
    # a (tau/theta_f)^alpha = 32^-alpha a of 4.2 and 3.7, beyond the radius
    # 1/a of the Taylor series of lam: the series peel raised
    # SpectralDecayError on both, in 1D and 3D.  Talbot's contour fails
    # this close to a strongly attenuated front, de Hoog's does not
    _assert_matches_talbot(model, dim, 1e-6, method="dehoog",
                           s_taus=(1.0, 4.0, 20.0, 40.0))


@pytest.mark.parametrize("model", [
    _cc(10.0, 0.05), _cc(100.0, 0.3), _hn(0.95, 0.1, 0.2), _hn(0.5, 0.02, 0.5),
], ids=["cc-10-0.05", "cc-100-0.3", "hn-0.95-0.1-0.2", "hn-0.5-0.02-0.5"])
def test_green1d_passes_verify_causality_beyond_the_series_radius(model):
    # models on which the Taylor-series peel raised or leaked more than
    # verify's 1e-5 of the peak before the front
    x, n, T = _verify_settings(model)
    assert causality_metric(green1d(model, x=x, n_samples=n, T=T)) <= 1e-5


def _mp_lam(model):
    """lam(p) = sqrt(rho/Q(p)) for real p > 0, in mpmath."""
    import mpmath

    alpha = mpmath.mpf(getattr(model, "alpha", 1.0))
    return lambda p: _mp_lam_of_y(model, (mpmath.mpf(model.tau) * p) ** alpha)


@pytest.mark.parametrize("model", [
    _cc(1.5, 0.4), _cc(1.65, 0.53), _cc(1.5, 0.5), _hn(0.5, 1 / 1.3, 0.65),
    _hn(0.81, 0.56, 0.96),
], ids=["cc-0.4", "cc-0.53", "cc-0.5", "hn", "hn-0.81"])
@pytest.mark.parametrize("dim", [1, 3])
def test_small_p_remainder_vanishes_like_p_to_the_2_plus_alpha(model, dim):
    # the spectrum less the step (1D) and the exact small-p peel G, in
    # 100-digit arithmetic with the pole weights solved exactly, tends to
    # bin 0's value (0 in 1D, 1/(4 pi x c0^2) in 3D) as c2 p^2 +
    # c3 p^(2 + alpha) + ...: no singular power below p^2 is left, and the
    # leading one is p^(2 + alpha).  So D(p)/p^2 = c2 + c3 p^alpha + ...,
    # and its differences over p_j = p0 4^-j shrink by 4^-alpha per step;
    # p0 theta_f = 1e-9 puts the p^3 and p^(2 + 2 alpha) terms out of sight
    import mpmath

    x, n, T = _verify_settings(model)
    theta_f = green1d(model, x=x, n_samples=n, T=T).diagnostics[
        "frac_timescale"]
    alpha = getattr(model, "alpha", 1.0)
    with mpmath.workdps(100):
        lam = _mp_lam(model)
        slow = 1 / mpmath.mpf(model.c_inf)
        inv_c0 = _mp_lam_of_y(model, 0)
        thetas = [mpmath.mpf(theta_f) / 2 ** i for i in range(6)]
        rows = [[th ** -j for th in thetas] for j in range(4)] \
            + [[th ** j for th in thetas] for j in (1, 2)]
        weights = mpmath.lu_solve(mpmath.matrix(rows),
                                  mpmath.matrix([1, 0, 0, 0, 0, 0]))

        def rest(p):
            ell = lam(p)
            xb = x * p * (ell - slow)
            poles = sum(a / (1 + th * p) for a, th in zip(weights, thetas))
            if dim == 1:
                return (ell * mpmath.exp(-xb) - inv_c0
                        - (ell * (1 - xb + xb ** 2 / 2) - inv_c0) * poles) \
                    / (2 * p)
            return (ell ** 2 * mpmath.exp(-xb)
                    - (ell ** 2 * (1 - xb) - inv_c0 ** 2) * poles
                    - inv_c0 ** 2) / (4 * mpmath.pi * x)

        p0 = mpmath.mpf(1e-9) / theta_f
        ratio = [rest(p0 / 4 ** j) / (p0 / 4 ** j) ** 2 for j in range(6)]
        steps = [ratio[j] - ratio[j + 1] for j in range(5)]
        for j in range(4):
            assert float(steps[j + 1] / steps[j]) == pytest.approx(
                4.0 ** -alpha, rel=0.05), j


def _mp_c_lin(model, x):
    """The p^1 coefficient of q(p) = p V(p) - 1/(2 c0) of the 1D spectrum,
    q = (lam - lam(0))/2 - x p lam (lam - 1/c_inf)/2 + O(p^2), for a medium
    whose lam is a power series in tau p: from 40-digit Taylor
    coefficients."""
    import mpmath

    with mpmath.workdps(40):
        ell = mpmath.taylor(lambda y: _mp_lam_of_y(model, y), 0, 1)
        slow = 1 / mpmath.sqrt(model.g0 / model.rho)
        return float(ell[1] * model.tau / 2
                     - x * ell[0] * (ell[0] - slow) / 2)


@pytest.mark.parametrize("model", [
    cw.StandardLinearSolid(a=1.5, tau=1e-13, g_inf=G_INF, rho=RHO),
    cw.ColeDavidson(b=0.5, gamma=0.5, tau=1e-13, g0=RHO * C_INF ** 2,
                    rho=RHO),
], ids=["sls", "cd"])
def test_c_lin_is_the_p1_coefficient_of_the_series(model):
    # a band above r = 0 leaves beta analytic at p = 0: bin 0 is c_lin,
    # from the measure's second inverse moment, which matches the Taylor
    # coefficient of the spectrum
    x, n, T = _verify_settings(model)
    d = green1d(model, x=x, n_samples=n, T=T).diagnostics
    assert d["c_lin"] == pytest.approx(_mp_c_lin(model, x), rel=1e-12)


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
    assert "peel_exponents" not in d
    assert d["c_lin"] == pytest.approx(want, rel=1e-8)


def _mp_spectrum(model, x, dim):
    """The 1D or 3D spectrum as a function of real p > 0, in mpmath."""
    import mpmath

    if isinstance(model, MeasureMedium):
        # a finite band: beta = h p log((p + r_hi)/(p + r_lo))
        r_lo, r_hi = model.measure.support
        height = mpmath.mpf(model.measure((r_lo + r_hi) / 2))
        slow = 1 / mpmath.mpf(model.c_inf)

        def lam(p):
            return slow + height * mpmath.log((p + r_hi) / (p + r_lo))
    else:
        alpha = mpmath.mpf(getattr(model, "alpha", 1.0))
        # lam at y = inf, so that beta = p (lam - slow) holds no p^1 term
        slow = mpmath.sqrt(model.rho / (model.a * mpmath.mpf(model.g_inf))) \
            if isinstance(model, (cw.ColeCole, cw.StandardLinearSolid)) \
            else mpmath.sqrt(model.rho / mpmath.mpf(model.g0))

        def lam(p):
            return _mp_lam_of_y(model, (mpmath.mpf(model.tau) * p) ** alpha)

    def spectrum(p):
        ell = lam(p)
        decay = mpmath.exp(-p * (ell - slow) * x)
        if dim == 1:
            return ell * decay / (2 * p)
        return ell ** 2 * decay / (4 * mpmath.pi * x)

    return spectrum


def _mp_constant_term(f, p0, top):
    """The p^0 coefficient of f(p) = sum_j c_j p^j, j = top, top - 1, ...,
    solved from f at p0 2^i, i = 0 .. 5 (in u = 2^i, whose p^0 coefficient
    is the same)."""
    import mpmath

    powers = range(top, top - 6, -1)
    coef = mpmath.lu_solve(
        mpmath.matrix([[mpmath.mpf(2) ** (i * j) for j in powers]
                       for i in range(6)]),
        mpmath.matrix([f(mpmath.mpf(p0) * 2 ** i) for i in range(6)]))
    return coef[top]


def _large_p_cases():
    tau = 1e-13
    return {
        "sls": cw.StandardLinearSolid(a=1.5, tau=tau, g_inf=G_INF, rho=RHO),
        "cd-1": cw.ColeDavidson(b=0.5, gamma=1.0, tau=tau,
                                g0=RHO * C_INF ** 2, rho=RHO),
        "band": MeasureMedium(cw.make_finiteband_measure(1e-7, 1e5, 1e6),
                              c_inf=C_INF),
        "cc": cw.ColeCole(a=1.5, alpha=0.4, tau=tau, g_inf=G_INF, rho=RHO),
        "hn": cw.HavriliakNegami(b=0.5, alpha=1 / 1.3, gamma=0.65, tau=tau,
                                 g0=RHO * C_INF ** 2, rho=RHO),
    }


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("case", list(_large_p_cases()))
def test_large_p_peel_coefficients_match_the_expansion(monkeypatch, case,
                                                       dim):
    # the front delta, ramp and kink coefficients the synthesis forms from
    # the moments m0, m1, m2 of the measure, against the large-p limits of
    # p^k (spectrum - the lower-order peels) in 50-digit arithmetic, far
    # above every rate of the synthesis.  An algebraic tail (Cole-Cole,
    # Havriliak-Negami) leaves the spectrum no 1/p or 1/p^2 term: the 3D
    # synthesis builds no ramp or kink, and the 1D kink only undoes the
    # ramp's -c/(theta p^2).  The small-p peel is left out of the limits:
    # its pole sum is O(p^-4), so G is O(p^-3) or smaller and adds nothing
    # to them
    import mpmath

    import cmwave.greens as greens

    model = _large_p_cases()[case]
    if case == "band":
        x, n, T = 0.05, 4096, 4e-5
    else:
        x, n, T = _verify_settings(model)
    built = _record_peels(monkeypatch)
    w = (green1d if dim == 1 else green3d)(model, x=x, n_samples=n, T=T)
    got = {name: args for name, args, _ in built}
    finite_mass = case in ("sls", "cd-1", "band")
    assert ("_exp_peel" in got) == ("_kink_peel" in got) \
        == (dim == 1 or finite_mass)
    assert ("_small_p_peel" in got) == (not finite_mass)
    theta = T * w.diagnostics["pad_factor"] / greens._THETA_FRACTION
    if "_exp_peel" in got:
        assert got["_exp_peel"][1] == theta
    r_hi = model.measure.support[1] if case == "band" else 1 / model.tau
    with mpmath.workdps(50):
        spectrum = _mp_spectrum(model, x, dim)

        def limit(k, names):
            """The p^0 coefficient of p^k (spectrum - front delta - the
            named peels); the rounding of the synthesis' own lower-order
            coefficients leaves p^1 and p^2 terms, which the fit
            separates."""
            def f(p):
                rest = spectrum(p) - w.front_delta_area - sum(
                    _peel_reference(name, [mpmath.mpf(a) for a in args], p)
                    for name, args, _ in built if name in names)
                return p ** k * rest
            return _mp_constant_term(f, 1e6 * max(n / T, r_hi), k)

        want = {"_exp_peel": limit(1, ("_step_peel",)),
                "_kink_peel": limit(2, ("_step_peel", "_exp_peel"))}
        if dim == 3:    # the 1D spectrum has no p^0 term
            want["front_delta_area"] = limit(0, ()) + w.front_delta_area
    for key, value in want.items():
        have = w.front_delta_area if key == "front_delta_area" \
            else got.get(key, (0.0,))[0]
        # where a coefficient is 0 its limit is below 1e-1000 of its scale
        assert have == pytest.approx(float(value), rel=1e-7, abs=1e-300), key


def test_syntheses_evaluate_beta_only_on_the_imaginary_axis(monkeypatch):
    # every peel coefficient comes from an exact expansion, so a synthesis
    # fills every bin from beta on p = -i omega, and evaluates it nowhere
    # else but at the nodes of the small-p add-back's contours (a medium
    # whose measure reaches r = 0), which it counts in its diagnostics
    import cmwave.greens as greens
    import cmwave.wavenumber as wavenumber

    seen = []
    evaluate = wavenumber.dispersion_attenuation

    def record(model, p):
        seen.append(np.asarray(p, dtype=complex))
        return evaluate(model, p)

    for module in (greens, wavenumber):
        monkeypatch.setattr(module, "dispersion_attenuation", record)
    cases = [(case, model, x, T) for case, model in _large_p_cases().items()
             for x, _, T in [_verify_settings(model) if case != "band"
                             else (0.05, 4096, 4e-5)]]
    cases.append(("elastic", elastic_medium(), 1.0, 8e-4))
    cases.append(("cd", cw.ColeDavidson(b=0.5, gamma=0.5, tau=1e-13,
                                        g0=RHO * C_INF ** 2, rho=RHO),
                  16 * C_INF * 1e-13, 64e-13))
    off_axis = {}
    for case, model, x, T in cases:
        for synth in (green1d, green3d):
            seen.clear()
            d = synth(model, x=x, n_samples=4096, T=T).diagnostics
            on = sum(p.size for p in seen if not p.real.any())
            off = sum(p.size for p in seen if p.real.any())
            assert on == d["bins"], (case, synth)
            assert off == d.get("contour_nodes", 0), (case, synth)
            off_axis[case, synth.__name__] = off
    # Cole-Cole and Havriliak-Negami at verify's settings: 44 nodes in each
    # of 4 log-time windows, dt to 3072 dt after the front
    assert off_axis == {key: 176 if key[0] in ("cc", "hn") else 0
                        for key in off_axis}, off_axis
    fluid = MeasureMedium(cw.make_powerlaw_measure(0.0065, 0.75),
                          c_inf=math.inf)
    seen.clear()
    green1d(fluid, x=1.0, n_samples=4096, T=1.0)
    assert seen and all(not p.real.any() for p in seen)


def _domain_draws(per_family=20, seed=2027):
    """Seeded models over each family's admissible domain, per_family each,
    at tau 1e-13 and c_inf 5000: Cole-Cole a log-uniform in 1.01-20 and
    alpha in 0.05-0.99; the SLS a log-uniform in 1.01-100;
    Havriliak-Negami b in 0.05-0.95, alpha and gamma in 0.05-1;
    Cole-Davidson b in 0.05-0.95 and gamma in 0.05-1."""
    rng = np.random.default_rng(seed)
    tau, g0 = 1e-13, RHO * C_INF ** 2
    out = []
    for _ in range(per_family):
        a, alpha = math.exp(rng.uniform(math.log(1.01), math.log(20.0))), \
            rng.uniform(0.05, 0.99)
        out.append(("cc", cw.ColeCole(a=a, alpha=alpha, tau=tau,
                                      g_inf=g0 / a, rho=RHO)))
    for _ in range(per_family):
        a = math.exp(rng.uniform(math.log(1.01), math.log(100.0)))
        out.append(("sls", cw.StandardLinearSolid(a=a, tau=tau, g_inf=g0 / a,
                                                  rho=RHO)))
    for _ in range(per_family):
        b, alpha, gamma = rng.uniform(0.05, 0.95), rng.uniform(0.05, 1.0), \
            rng.uniform(0.05, 1.0)
        out.append(("hn", cw.HavriliakNegami(b=b, alpha=alpha, gamma=gamma,
                                             tau=tau, g0=g0, rho=RHO)))
    for _ in range(per_family):
        b, gamma = rng.uniform(0.05, 0.95), rng.uniform(0.05, 1.0)
        out.append(("cd", cw.ColeDavidson(b=b, gamma=gamma, tau=tau, g0=g0,
                                          rho=RHO)))
    return out


def _domain_sweep():
    """{(family, dim, outcome): count} of the draws through green1d and
    green3d at verify's settings.  Outcome "pass": returned with a
    causality metric within verify's 1e-5; "leak": returned with a larger
    one; "ring" or "wrap": SpectralDecayError of that cause.  A NaN metric
    or an untyped error propagates."""
    from cmwave.greens import SpectralDecayError

    counts = {}
    for family, model in _domain_draws():
        x, n, T = _verify_settings(model)
        for dim, synth in ((1, green1d), (3, green3d)):
            try:
                metric = causality_metric(synth(model, x=x, n_samples=n, T=T))
            except SpectralDecayError as exc:
                outcome = "ring" if "rings" in str(exc) else "wrap"
            else:
                assert math.isfinite(metric), (family, dim, model)
                outcome = "pass" if metric <= 1e-5 else "leak"
            key = (family, dim, outcome)
            counts[key] = counts.get(key, 0) + 1
    return counts


# syntheses of _domain_draws() that pass verify's causality gate: this
# count only rises (110 of 160 passed with the Taylor-series small-p peel;
# the rest are Nyquist-rate ringing fronts and pre-front leaks)
_DOMAIN_PASSES = 136


def test_the_admissible_domain_ratchet():
    # every synthesis over the whole domain returns a finite causality
    # metric or raises a typed error, and at least _DOMAIN_PASSES of the
    # 160 pass verify's gate
    counts = _domain_sweep()
    passes = sum(c for (_, _, outcome), c in counts.items()
                 if outcome == "pass")
    assert sum(counts.values()) == 160
    assert passes >= _DOMAIN_PASSES, sorted(counts.items())
