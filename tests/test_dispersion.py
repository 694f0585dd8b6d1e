import math

import numpy as np
import pytest

import cmwave as cw
from cmwave.dispersion import attenuation, curve, dispersion, phase_speed
from cmwave.wavenumber import (
    MeasureMedium,
    attenuation_from_wavenumber,
    dispersion_from_wavenumber,
)

TAU = 1e-13


def test_finite_band_attenuation_exact(finite_band):
    for w in np.logspace(-3, 3, 30):
        exact = w * (math.atan(2.0 / w) - math.atan(1.0 / w))
        assert attenuation(finite_band, w) == pytest.approx(exact, rel=1e-10)


def test_zero_measure():
    z = cw.zero_measure()
    assert attenuation(z, 10.0) == 0.0
    assert dispersion(z, 10.0) == 0.0


def test_powerlaw_attenuation_constant(power_law_half):
    a_coef = 0.5 * math.pi / (2 * math.sin(math.pi / 4))
    for w in np.logspace(-4, 4, 9):
        assert attenuation(power_law_half, w) / math.sqrt(w) == pytest.approx(
            a_coef, rel=1e-10)


def test_finite_band_dispersion_low_frequency(finite_band):
    w = 1e-5
    assert dispersion(finite_band, w) / w == pytest.approx(math.log(2.0),
                                                           rel=1e-8)


def test_cc_dispersion_over_omega_tends_to_D(cc):
    meas = cw.spectral_measure(cc)
    # D(w)/w increases to D as w -> 0, at the (tau w)^alpha rate
    w = 1e-6 / cc.tau
    d_w = dispersion(meas, w) / w
    d_const = cw.measure_D_constant(meas)
    assert d_w < d_const
    assert d_w == pytest.approx(d_const, rel=1e-3)


def test_phase_speed_elastic_limit():
    medium = MeasureMedium(cw.zero_measure(), c_inf=5000.0)
    assert phase_speed(medium, 1.0) == pytest.approx(5000.0, rel=1e-14)
    c = curve(medium, np.array([1.0, 10.0]))
    assert np.all(c.attenuation == 0.0) and np.all(c.dispersion == 0.0)
    assert np.all(c.phase_speed == 5000.0)
    assert c.diagnostics["nodes"] == 0


def test_phase_speed_limits(cc):
    assert phase_speed(cc, 1e4 / cc.tau) == pytest.approx(cc.c_inf, rel=5e-3)
    assert phase_speed(cc, 1e-4 / cc.tau) == pytest.approx(cc.c0, rel=5e-3)
    assert phase_speed(cc, 1e-6 / cc.tau) == pytest.approx(cc.c0, rel=1e-3)


def test_phase_speed_requires_positive_omega(cc):
    with pytest.raises(ValueError):
        phase_speed(cc, 0.0)


def test_curve_single_point(cc):
    c = curve(cc, np.array([1.0 / cc.tau]))
    assert len(c.omega) == 1
    assert c.c0 == pytest.approx(cc.c0, rel=1e-14)


def test_curve_grid_validation(cc):
    with pytest.raises(ValueError):
        curve(cc, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        curve(cc, np.array([]))


def test_curve_monotone(cc, sls):
    grid = np.logspace(-3, 3, 25) / TAU
    for model in (cc, sls):
        c = curve(model, grid)
        assert np.all(c.attenuation >= 0.0)
        assert np.all(np.diff(c.attenuation) > 0.0)
        assert np.all(np.diff(c.phase_speed) > 0.0)
        assert np.all((c.phase_speed > model.c0)
                      & (c.phase_speed < model.c_inf))


def test_dispersion_odd_and_ratio_monotone(cc):
    meas = cw.spectral_measure(cc)
    w = 1.0 / cc.tau
    assert dispersion(meas, -w) == pytest.approx(-dispersion(meas, w),
                                                 rel=1e-12)
    grid = np.logspace(-2, 2, 15) / cc.tau
    ratio = np.array([dispersion(meas, wi) / wi for wi in grid])
    assert np.all(np.diff(ratio) < 0.0)


def test_attenuation_sublinear_at_infinity(cc):
    meas = cw.spectral_measure(cc)
    grid = np.logspace(0, 6, 13) / cc.tau
    ratio = np.array([attenuation(meas, wi) / wi for wi in grid])
    assert np.all(np.diff(ratio) < 0.0)
    assert ratio[-1] < 0.05 * ratio[0]


@pytest.mark.parametrize("model_name", ["cc", "sls", "hn", "cd"])
def test_engine_matches_wavenumber_path(model_name, request):
    # two independent computation routes: spectral quadrature vs the
    # closed-form wave number on the imaginary axis
    model = request.getfixturevalue(model_name)
    meas = cw.spectral_measure(model)
    for w in np.logspace(-3, 3, 50) / 1e-13:
        a_quad = attenuation(meas, w)
        d_quad = dispersion(meas, w)
        a_kappa = float(attenuation_from_wavenumber(model, w))
        d_kappa = float(dispersion_from_wavenumber(model, w))
        assert abs(a_quad - a_kappa) <= 1e-6 * abs(a_kappa)
        assert abs(d_quad - d_kappa) <= 1e-6 * abs(d_kappa)


@pytest.mark.parametrize("model_name",
                         ["cc", "sls", "hn", "cd", "power_law_half"])
def test_both_routes_are_zero_at_zero_frequency(model_name, request):
    # beta(0) = 0: the closed-form route returned an error at omega = 0
    model = request.getfixturevalue(model_name)
    if isinstance(model, cw.SpectralMeasure):
        meas, model = model, cw.MeasureMedium(model, c_inf=math.inf)
    else:
        meas = cw.spectral_measure(model)
    assert attenuation(meas, 0.0) == attenuation_from_wavenumber(model, 0.0)
    assert dispersion(meas, 0.0) == dispersion_from_wavenumber(model, 0.0)
    grid = np.array([0.0, 1.0 / TAU])
    a = attenuation_from_wavenumber(model, grid)
    d = dispersion_from_wavenumber(model, grid)
    assert a[0] == 0.0 and d[0] == 0.0
    assert a[1] == pytest.approx(attenuation(meas, grid[1]), rel=1e-6)
    assert d[1] == pytest.approx(dispersion(meas, grid[1]), rel=1e-6)


@pytest.fixture(scope="module")
def sls_stiff():
    # a = 1e4: c0 is a hundredth of c_inf, beta is small against p/c_inf
    return cw.StandardLinearSolid(a=1e4, tau=1e-13,
                                  g_inf=(5000.0 / 100.0) ** 2)


@pytest.mark.parametrize("model_name", ["sls", "sls_stiff", "cc", "hn", "cd"])
def test_engine_matches_closed_form_beta_at_high_frequency(model_name,
                                                           request):
    # far above the relaxation rates D(w) is a small part of |kappa|; the
    # closed-form beta must keep its relative accuracy there
    model = request.getfixturevalue(model_name)
    meas = cw.spectral_measure(model)
    for w in (1e2 / TAU, 1e4 / TAU, 1e6 / TAU):
        a_kappa = float(attenuation_from_wavenumber(model, w))
        d_kappa = float(dispersion_from_wavenumber(model, w))
        assert attenuation(meas, w) == pytest.approx(a_kappa, rel=1e-9)
        assert dispersion(meas, w) == pytest.approx(d_kappa, rel=1e-9)


def test_quadrature_error_carries_estimate():
    from cmwave._quad import QuadratureError, integrate_density

    with pytest.raises(QuadratureError) as err:
        integrate_density(lambda r: 1.0 / (1.0 + r), 0.0, math.inf,
                          low_exp=0.0, high_exp=1.0)
    assert err.value.achieved == math.inf


@pytest.mark.filterwarnings("default::RuntimeWarning:cmwave.measures")
def test_nonfinite_integral_raises():
    # just above the SLS support edge 1/(a tau) the density quadrature
    # meets a division by zero; the engine must not return inf (the scalar
    # SLS density warns there, and that warning is still reported)
    from cmwave._quad import QuadratureError

    sls = cw.StandardLinearSolid(a=1.5, tau=1e-3, g_inf=1.0)
    omega = 1.0001 / (1.5e-3)
    for fn in (attenuation, dispersion):
        with pytest.raises(QuadratureError):
            fn(sls, omega)


# the three sweep corners whose log window would leave the doubles: the
# tail exponent of the dispersion integrand sits 0.01 above 1
EXPONENT_CORNERS = {
    "cc-alpha-0.01": cw.ColeCole(a=1.0001, alpha=0.01, tau=1e-9, g_inf=1.0),
    "hn-alpha-0.01": cw.HavriliakNegami(b=0.5, alpha=0.01, gamma=0.6,
                                        tau=1e-9, g0=1.0),
    "cd-gamma-0.01": cw.ColeDavidson(b=0.5, gamma=0.01, tau=1e-9, g0=1.0),
}


@pytest.mark.parametrize("name", sorted(EXPONENT_CORNERS))
def test_window_beyond_double_range_raises(name):
    from cmwave._quad import QuadratureError

    model = EXPONENT_CORNERS[name]
    with pytest.raises(QuadratureError, match="double range"):
        dispersion(cw.spectral_measure(model), 1.0 / model.tau)
    with pytest.raises(QuadratureError, match="double range"):
        curve(model, np.logspace(-3, 3, 7) / model.tau)


def test_d_constant_window_beyond_double_range_raises():
    from cmwave._quad import QuadratureError

    cc = cw.ColeCole(a=1.5, alpha=0.05, tau=1e-9, g_inf=1.0)
    with pytest.raises(QuadratureError, match="double range"):
        cw.measure_D_constant(cw.spectral_measure(cc))


# b = 1: the relaxed modulus G_inf is zero and the density is singular at 0
FLUID_EDGE = {
    "hn-b-1": cw.HavriliakNegami(b=1.0, alpha=0.7, gamma=0.5, tau=TAU,
                                 g0=5000.0 ** 2),
    "cd-b-1-gamma-0.5": cw.ColeDavidson(b=1.0, gamma=0.5, tau=TAU,
                                        g0=5000.0 ** 2),
    "cd-b-1-gamma-0.2": cw.ColeDavidson(b=1.0, gamma=0.2, tau=TAU,
                                        g0=5000.0 ** 2),
}


@pytest.mark.parametrize("name", sorted(FLUID_EDGE))
def test_engine_matches_closed_form_beta_at_b_one(name):
    model = FLUID_EDGE[name]
    meas = cw.spectral_measure(model)
    for w in (1e-3 / TAU, 1.0 / TAU, 1e3 / TAU):
        a_kappa = float(attenuation_from_wavenumber(model, w))
        d_kappa = float(dispersion_from_wavenumber(model, w))
        assert attenuation(meas, w) == pytest.approx(a_kappa, rel=1e-9)
        assert dispersion(meas, w) == pytest.approx(d_kappa, rel=1e-9)


# -- the grid engine behind curve() -------------------------------------------

def _solid(cls, a, **kw):
    return cls(a=a, tau=TAU, g_inf=(5000.0 / math.sqrt(a)) ** 2, **kw)


# the corners of each family's domain that stress the engine's maps: slow
# algebraic tails (CC alpha 0.1, HN and CD at b = 1), a sharp peak (CC
# alpha 0.95), narrow and wide SLS supports, and CD with gamma = 1, whose
# upper branch-cut segment vanishes
GRID_CORNERS = {
    "cc-alpha-0.1": _solid(cw.ColeCole, 1.5, alpha=0.1),
    "cc-alpha-0.95": _solid(cw.ColeCole, 1.5, alpha=0.95),
    "sls-a-1.1": _solid(cw.StandardLinearSolid, 1.1),
    "sls-a-1e4": _solid(cw.StandardLinearSolid, 1e4),
    "hn-b-1": FLUID_EDGE["hn-b-1"],
    "cd-b-1": FLUID_EDGE["cd-b-1-gamma-0.5"],
    "cd-gamma-1": cw.ColeDavidson(b=0.5, gamma=1.0, tau=TAU,
                                  g0=5000.0 ** 2),
}


def _assert_matches_beta(c, beta):
    np.testing.assert_allclose(c.attenuation, beta.real, rtol=1e-8, atol=0.0)
    np.testing.assert_allclose(c.dispersion, -beta.imag, rtol=1e-8,
                               atol=0.0)


@pytest.mark.parametrize("name", ["cc", "sls", "hn", "cd",
                                  *sorted(GRID_CORNERS)])
def test_thousand_point_curve_matches_closed_form_beta(name, request):
    # twelve decades in sixteen frequency blocks: the node x frequency
    # temporaries are formed block by block
    model = (GRID_CORNERS[name] if name in GRID_CORNERS
             else request.getfixturevalue(name))
    grid = np.logspace(-6, 6, 1000) / TAU
    c = curve(model, grid)
    _assert_matches_beta(c, cw.dispersion_attenuation(model, -1j * grid))
    assert c.diagnostics["nodes"] > 0
    assert c.diagnostics["rel_error"] <= 1e-8


@pytest.mark.parametrize("name", ["finite-band", "finite-band-from-0",
                                  "power-law"])
def test_curve_of_a_bare_measure_matches_its_closed_form(name):
    meas = {"finite-band": cw.make_finiteband_measure(1.0, 1.0, 2.0),
            "finite-band-from-0": cw.make_finiteband_measure(1.0, 0.0, 2.0),
            "power-law": cw.make_powerlaw_measure(1.0, 0.5)}[name]
    grid = np.logspace(-6, 6, 97)
    c = curve(meas, grid)
    _assert_matches_beta(c, meas.beta_fn(-1j * grid))
    np.testing.assert_allclose(c.phase_speed, grid / c.dispersion,
                               rtol=1e-15)


@pytest.mark.parametrize("name", ["cc", "sls", "hn", "cd"])
def test_curve_matches_the_scalar_route(name, request):
    # the two quadrature routes check each other: one node set for the
    # grid against adaptive quadrature point by point
    model = request.getfixturevalue(name)
    meas = cw.spectral_measure(model)
    grid = np.logspace(-3, 3, 13) / TAU
    c = curve(model, grid)
    np.testing.assert_allclose(
        c.attenuation, [attenuation(meas, w) for w in grid], rtol=1e-8)
    np.testing.assert_allclose(
        c.dispersion, [dispersion(meas, w) for w in grid], rtol=1e-8)


def _measure_with(density):
    return cw.SpectralMeasure(density=density, support=(0.0, math.inf),
                              tail_exponent_high=0.5, tail_exponent_low=0.0,
                              r_scale=1.0)


def test_curve_raises_on_a_density_it_cannot_resolve():
    # a jump the measure does not declare as a break: the trapezoid rule
    # converges only like its step, so the node budget runs out
    from cmwave._quad import QuadratureError

    meas = _measure_with(lambda r: np.where(r < 1.0, 1.0, 2.0) / (1.0 + r))
    with pytest.raises(QuadratureError, match="did not converge"):
        curve(meas, np.array([0.5, 2.0]))


def test_curve_raises_on_a_non_finite_density():
    from cmwave._quad import QuadratureError

    meas = _measure_with(lambda r: np.where(r < 1.0, np.nan, 1.0 / r))
    with pytest.raises(QuadratureError, match="non-finite"):
        curve(meas, np.array([0.5, 2.0]))
