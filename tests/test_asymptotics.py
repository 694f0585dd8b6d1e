import math

import numpy as np
import pytest

import cmwave as cw
from cmwave.asymptotics import (
    beta_moment_series,
    classify_wavefront,
    fit_loglog_slope,
    highfreq_attenuation,
    highfreq_dispersion,
    lowfreq_prediction,
    spectral_moment,
    strongly_singular_exponents,
)
from cmwave.dispersion import attenuation, dispersion
from cmwave.wavenumber import MeasureMedium

# gamma*pi/(2 sin(gamma*pi/2)), 50-digit quadrature of the fluid low-
# frequency integral
LOWFREQ_COEF = {
    0.25: 1.0261721529770309,
    0.5: 1.1107207345395916,
    0.75: 1.2751632692780539,
}


def test_highfreq_exponent_and_coefficient(cc):
    meas = cw.spectral_measure(cc)
    slope = fit_loglog_slope(lambda w: attenuation(meas, w), 1e4 / cc.tau)
    assert slope == pytest.approx(1 - cc.alpha, abs=0.01)
    # model-specific closed form A ~ (a-1)/(2 a c_inf) sin(alpha pi/2)
    # * omega (tau omega)^(-alpha)
    w = 1e4 / cc.tau
    pred = (cc.a - 1) / (2 * cc.a * cc.c_inf) \
        * math.sin(cc.alpha * math.pi / 2) * w * (cc.tau * w) ** -cc.alpha
    assert attenuation(meas, w) == pytest.approx(pred, rel=0.03)


def test_highfreq_dispersion_ratio(cc):
    # D/A -> cot(alpha pi/2) = 1 for alpha = 1/2
    meas = cw.spectral_measure(cc)
    w = 1e6 / cc.tau
    assert dispersion(meas, w) / attenuation(meas, w) == pytest.approx(
        1.0, rel=1e-2)
    w_grid = np.array([1.0])
    ratio = highfreq_dispersion(0.5, 1.0, w_grid) / highfreq_attenuation(
        0.5, 1.0, w_grid)
    assert ratio[0] == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("gamma", [0.25, 0.5, 0.75])
def test_lowfreq_powerlaw_coefficient(gamma):
    meas = cw.make_powerlaw_measure(1.0, gamma)
    a_pred, _ = lowfreq_prediction(gamma, 1.0, 1.0)
    assert a_pred == pytest.approx(LOWFREQ_COEF[gamma], rel=1e-12)
    assert attenuation(meas, 1e-6) / 1e-6 ** gamma == pytest.approx(
        LOWFREQ_COEF[gamma], rel=1e-8)


def test_lowfreq_ratio_tan(power_law_half):
    # D/A -> tan(gamma pi/2) = 1 at gamma = 1/2 (exact boundary values of
    # the power-law transform; the engine is the deciding oracle here)
    w = 1e-6
    ratio = dispersion(power_law_half, w) / attenuation(power_law_half, w)
    assert ratio == pytest.approx(
        math.tan(0.5 * math.pi / 2), rel=1e-8)
    a_pred, d_pred = lowfreq_prediction(0.5, 1.0, w)
    assert d_pred / a_pred == pytest.approx(ratio, rel=1e-10)


def test_cc_lowfreq_slope(cc):
    meas = cw.spectral_measure(cc)
    slope = fit_loglog_slope(lambda w: attenuation(meas, w), 1e-7 / cc.tau)
    assert slope == pytest.approx(1 + cc.alpha, abs=0.01)


def test_exponent_validation():
    with pytest.raises(ValueError):
        highfreq_attenuation(1.2, 1.0, 1.0)
    with pytest.raises(ValueError):
        lowfreq_prediction(0.0, 1.0, 1.0)


def test_classify_wavefront(cc, sls, finite_band):
    assert classify_wavefront(finite_band).tag == "discontinuity-possible"
    assert classify_wavefront(sls).tag == "discontinuity-possible"
    assert classify_wavefront(cc).tag == "smoothed"
    # Cole-Davidson with gamma = 1 is an SLS: its front jumps
    cd1 = cw.ColeDavidson(b=0.5, gamma=1.0, tau=1e-13, g0=1.0)
    assert classify_wavefront(cd1).tag == "discontinuity-possible"
    assert spectral_moment(cw.spectral_measure(cd1), 2) > 0.0
    fluid = MeasureMedium(cw.make_powerlaw_measure(1.0, 0.75),
                          c_inf=math.inf)
    regime = classify_wavefront(fluid)
    assert regime.tag == "no-wavefront"
    assert regime.smoothing_exponent == pytest.approx(0.75)
    assert regime.front_constant == pytest.approx(math.pi / 2, rel=1e-12)


def test_strongly_singular_exponents():
    gamma, c_alpha = strongly_singular_exponents(0.5)
    assert gamma == pytest.approx(0.75)
    assert c_alpha == pytest.approx(math.pi * 0.5 / math.sin(math.pi * 0.5),
                                    rel=1e-14)


def test_moment_series_finite_band(finite_band):
    assert spectral_moment(finite_band, 0) == pytest.approx(1.0, rel=1e-10)
    p = 100.0
    exact = p * math.log((p + 2.0) / (p + 1.0))
    errs = [abs(beta_moment_series(finite_band, n, p) - exact)
            for n in range(4)]
    assert np.all(np.diff(errs) < 0.0)
    # truncation error scales like p^-(N+1)
    assert errs[0] < 2.0 * 1.5 / p
    assert errs[3] < 50.0 / p ** 4
    assert beta_moment_series(finite_band, 0, p) == pytest.approx(
        1.0, rel=1e-10)


def test_moment_series_zero_measure():
    assert beta_moment_series(cw.zero_measure(), 3, 10.0) == 0.0


def test_moment_series_rejects_algebraic_tail(cc):
    with pytest.raises(ValueError):
        spectral_moment(cw.spectral_measure(cc), 1)


def test_hn_highfreq_slope(hn):
    meas = cw.spectral_measure(hn)
    slope = fit_loglog_slope(lambda w: attenuation(meas, w), 1e5 / hn.tau)
    assert slope == pytest.approx(1 - hn.alpha * hn.gamma, abs=0.01)


def test_cd_lowfreq_slope(cd):
    meas = cw.spectral_measure(cd)
    slope = fit_loglog_slope(lambda w: attenuation(meas, w), 1e-4 / cd.tau)
    assert slope == pytest.approx(2.0, abs=0.01)
