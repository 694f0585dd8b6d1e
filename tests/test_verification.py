import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

import cmwave as cw
from cmwave.dispersion import attenuation
from cmwave.verification import (
    PVConvergenceError,
    bernstein_primitive_f,
    cbf_check,
    cm_check_relaxation,
    divided_differences,
    halfplane_grid,
    kk_residual,
    minimum_phase_check,
    paley_wiener_diagnostic,
    positive_axis_grid,
    winding_number,
)
from cmwave.wavenumber import (
    attenuation_from_wavenumber,
    complex_modulus,
    wave_number,
)


def test_cm_check_passes_for_shipped_models(cc, sls, hn, cd):
    for model in (cc, sls, hn, cd):
        rep = cm_check_relaxation(model)
        assert rep.passed, rep


def test_cm_check_grid_validation(cc):
    with pytest.raises(ValueError):
        cm_check_relaxation(cc, hp_grid=np.array([1.0 - 1j]),
                            axis_grid=np.array([1.0]))


def test_cbf_batteries_pass(cc, sls, hn, cd):
    for model in (cc, sls, hn, cd):
        hp = halfplane_grid(1.0 / model.tau)
        ax = positive_axis_grid(1.0 / model.tau)
        for name, fn in (
            ("kappa", lambda p: wave_number(model, p)),
            ("Q", lambda p: complex_modulus(model, p)),
            ("k2p", lambda p: wave_number(model, p) ** 2 / p),
        ):
            rep = cbf_check(fn, hp, ax, name=name)
            assert rep.passed, (model, rep)


def test_cbf_flags_rational_counterexample():
    hp = halfplane_grid(1.0)
    ax = positive_axis_grid(1.0)
    rep = cbf_check(lambda p: (p / (1 + p)) ** 2 / p, hp, ax)
    assert not rep.passed


def test_cbf_flags_powerlaw_below_half():
    # beta = C p^0.3 with a wavefront term: kappa^2/p has a decreasing
    # p^(2*0.3-1) part, not a Bernstein function
    hp = halfplane_grid(1.0)
    ax = positive_axis_grid(1.0)
    rep = cbf_check(lambda p: (2e-4 * p + np.power(p, 0.3)) ** 2 / p, hp, ax)
    assert not rep.passed


def test_check_report_json(cc):
    rep = cm_check_relaxation(cc)
    data = json.loads(rep.to_json())
    assert set(data) == {"name", "pass", "worst_violation", "location",
                         "grid"}
    assert data["pass"] is True


@pytest.mark.parametrize("model_name", ["cc", "sls", "hn", "cd"])
def test_kk_residual_small(model_name, request):
    model = request.getfixturevalue(model_name)
    w0 = 0.1 / model.tau
    w = 1.0 / model.tau
    res = kk_residual(model, w, w0)
    a_ref = attenuation(cw.spectral_measure(model), w)
    assert res <= 0.01 * a_ref


def test_kk_residual_finite_band():
    medium = cw.MeasureMedium(cw.make_finiteband_measure(1e-5, 1e12, 1e13),
                              c_inf=5000.0)
    w0, w = 1e12, 5e12
    res = kk_residual(medium, w, w0)
    a_ref = attenuation(medium.measure, w)
    assert res <= 0.01 * a_ref


def test_kk_requires_distinct_frequencies(cc):
    with pytest.raises(ValueError):
        kk_residual(cc, 1.0, 1.0)


def test_kk_rejects_pairs_within_a_tenth_of_a_percent(cc):
    with pytest.raises(ValueError):
        kk_residual(cc, 1.0009 / cc.tau, 1.0 / cc.tau)


TAU = 1e-13
KK_PAIRS = [(0.01, 0.3), (0.1, 1.0), (1.0, 10.0), (0.03, 3.0), (0.3, 30.0)]
KK_MODELS = {
    "finite-band": cw.MeasureMedium(
        cw.make_finiteband_measure(1e-5, 0.1 / TAU, 1.0 / TAU), c_inf=5000.0),
    "power-law": cw.MeasureMedium(cw.make_powerlaw_measure(1e-9, 0.5),
                                  c_inf=math.inf),
    "cc-alpha-0.05": cw.ColeCole(a=1.5, alpha=0.05, tau=TAU,
                                 g_inf=5000.0 ** 2 / 1.5),
    "cd-gamma-0.05": cw.ColeDavidson(b=0.5, gamma=0.05, tau=TAU,
                                     g0=5000.0 ** 2),
}


@pytest.mark.parametrize("model_name", ["cc", "sls", "hn", "cd",
                                        *KK_MODELS])
def test_kk_residual_at_roundoff(model_name, request):
    # the midpoint lattice gives the principal value to roundoff, so the
    # relation holds to far below the 1e-2 gate of `cmwave verify`
    model = KK_MODELS.get(model_name) or request.getfixturevalue(model_name)
    for f0, f in KK_PAIRS:
        w0, w = f0 / TAU, f / TAU
        a_ref = float(attenuation_from_wavenumber(model, w))
        assert kk_residual(model, w, w0) <= 1e-10 * a_ref


def test_kk_residual_flags_a_scaled_attenuation():
    # 1 % more attenuation with the same dispersion violates the relation
    band = KK_MODELS["finite-band"].measure

    def beta_bad(p):
        beta = np.asarray(band.beta_fn(p))
        return 1.01 * beta.real + 1j * beta.imag

    bad = cw.MeasureMedium(dataclasses.replace(band, beta_fn=beta_bad),
                           c_inf=5000.0)
    for f0, f in KK_PAIRS:
        w0, w = f0 / TAU, f / TAU
        a_ref = float(attenuation_from_wavenumber(bad, w))
        assert kk_residual(bad, w, w0) >= 1e-3 * a_ref


def test_bernstein_primitive_powerlaw():
    # beta(p) = C p^a  ->  f(t) = C t^(1-a)/Gamma(2-a)
    gamma_exp = 0.5
    m = cw.make_powerlaw_measure(1.0, gamma_exp)
    c_coef = math.pi * gamma_exp / math.sin(math.pi * gamma_exp)
    for t in (1e-3, 1.0, 1e3):
        want = c_coef * t ** (1 - gamma_exp) / gamma_fn(2 - gamma_exp)
        assert bernstein_primitive_f(m, t) == pytest.approx(want, rel=1e-9)


def test_bernstein_primitive_finite_band(finite_band):
    assert bernstein_primitive_f(finite_band, 0.0) == 0.0
    # long-time limit is D = C ln(b/a), the phase-speed defect
    assert bernstein_primitive_f(finite_band, 1e9) == pytest.approx(
        math.log(2.0), rel=1e-8)


def test_bernstein_primitive_is_bernstein(cc):
    meas = cw.spectral_measure(cc)
    t = np.linspace(0.0, 100 * cc.tau, 41)
    f = np.array([bernstein_primitive_f(meas, ti) for ti in t])
    assert f[0] == 0.0
    assert np.all(np.diff(f) > 0.0)          # non-decreasing
    assert np.all(np.diff(f, 2) < 1e-18)     # concave on a uniform grid


def test_minimum_phase_passes(cc, hn, cd):
    for model in (cc, hn, cd):
        rep = minimum_phase_check(model)
        assert rep.passed, rep


def test_minimum_phase_synthetic_zero():
    rep = minimum_phase_check(
        lambda w: np.asarray(w, complex) - (0.5 + 0.5j), name="shifted")
    assert not rep.passed
    assert "winding 1" in rep.grid


def test_winding_number_direct():
    square = np.concatenate([
        np.linspace(-1 - 1j, 1 - 1j, 100),
        np.linspace(1 - 1j, 1 + 1j, 100),
        np.linspace(1 + 1j, -1 + 1j, 100),
        np.linspace(-1 + 1j, -1 - 1j, 100),
        [-1 - 1j],
    ])
    assert winding_number(lambda z: z - 0.2j, square + 0.2j) == 1
    assert winding_number(lambda z: z - 5.0, square) == 0


def test_paley_wiener_cc_sublinear():
    # CC attenuation grows ~ omega^(1-alpha) far above 1/tau, so
    # |ln|M|| = x A(omega) is admissible
    rho, c_inf = 1.0, 5000.0
    cc2 = cw.ColeCole(a=1.5, alpha=0.5, tau=1e-6,
                      g_inf=rho * (c_inf / math.sqrt(1.5)) ** 2, rho=rho)
    w = np.logspace(7, 11, 300)
    a_vals = np.array([float(np.real(cw.dispersion_attenuation(cc2,
                                                               -1j * wi)))
                       for wi in w])
    rep = paley_wiener_diagnostic(np.exp(-a_vals * 1e-3), w)
    assert rep.finite
    assert rep.growth_exponent == pytest.approx(0.5, abs=0.05)


def test_paley_wiener_exponential_flagged():
    w = np.logspace(7, 11, 200)
    rep = paley_wiener_diagnostic(np.exp(-1e-10 * w), w)
    assert not rep.finite
    assert rep.growth_exponent >= 0.98


def test_paley_wiener_unit_and_zero():
    w = np.logspace(0, 4, 100)
    rep = paley_wiener_diagnostic(np.ones_like(w), w)
    assert rep.finite and rep.integral == 0.0
    with pytest.raises(ValueError):
        paley_wiener_diagnostic(np.zeros_like(w), w)


def test_cc_relaxation_divided_difference_cm(cc):
    from cmwave.mittag_leffler import cole_cole_relaxation_modulus

    t = np.logspace(-2, 2, 41) * cc.tau
    g = np.array([cole_cole_relaxation_modulus(cc, ti) for ti in t])
    for order in (1, 2, 3):
        d = divided_differences(t, g, order)
        assert np.all((-1.0) ** order * d >= 0.0)


def test_kk_residual_raises_on_a_nonfinite_sum():
    band = KK_MODELS["finite-band"].measure
    broken = cw.MeasureMedium(
        dataclasses.replace(band, beta_fn=lambda p: np.full_like(p, np.nan)),
        c_inf=5000.0)
    with pytest.raises(PVConvergenceError):
        kk_residual(broken, 1.0 / TAU, 0.1 / TAU)
