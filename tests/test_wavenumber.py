import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmwave as cw
from cmwave.measures import (
    cc_spectral_density,
    cd_spectral_density,
    hn_spectral_density,
    sls_spectral_density,
)
from cmwave.wavenumber import (
    MeasureMedium,
    branch_cut_density,
    complex_modulus,
    dispersion_attenuation,
    wave_number,
)


def test_modulus_limits(cc):
    q0 = complex(complex_modulus(cc, 1e-10 / cc.tau + 0j))
    assert q0.real == pytest.approx(cc.g_inf, rel=1e-4)
    q_inf = complex(complex_modulus(cc, 1e10 / cc.tau + 0j))
    assert q_inf.real == pytest.approx(cc.a * cc.g_inf, rel=1e-4)


def test_hn_modulus_upper_halfplane_positive_imag(hn):
    rng = np.random.default_rng(1)
    z = 10.0 ** rng.uniform(-6, 6, 300) / hn.tau \
        * np.exp(1j * rng.uniform(0.01, 0.99, 300) * math.pi)
    q = complex_modulus(hn, z)
    assert np.all(np.imag(q) >= 0.0)


def test_cut_rejected(cc):
    with pytest.raises(ValueError):
        complex_modulus(cc, -1.0 + 0j)
    with pytest.raises(ValueError):
        wave_number(cc, 0.0 + 0j)


def test_kappa_real_increasing_on_positive_axis(cc):
    x = np.logspace(-3, 3, 200) / cc.tau
    k = np.asarray(wave_number(cc, x + 0j))
    assert np.all(np.abs(np.imag(k)) <= 1e-14 * np.real(k))
    assert np.all(np.real(k) > 0.0)
    assert np.all(np.diff(np.real(k)) > 0.0)


def test_kappa_low_and_high_frequency_speeds(cc):
    w = 1e-12 / cc.tau
    lam = complex(wave_number(cc, -1j * w)) / (-1j * w)
    assert lam.real == pytest.approx(1 / cc.c0, rel=1e-6)
    p = 1e10 / cc.tau
    lam_inf = complex(wave_number(cc, p + 0j)) / p
    assert lam_inf.real == pytest.approx(math.sqrt(cc.rho / cc.g0), rel=1e-4)


def test_beta_nonnegative_real_part_on_imaginary_axis(cc, hn, cd):
    w = np.logspace(-6, 6, 1000) / 1e-13
    for model in (cc, hn, cd):
        beta = dispersion_attenuation(model, -1j * w)
        assert np.all(np.real(beta) >= 0.0)


def test_beta_sublinear_uniformly(cc):
    # |beta(R e^{i phi})/(R e^{i phi})| -> 0 uniformly over |phi| <= pi/2
    phis = np.linspace(-math.pi / 2, math.pi / 2, 21)
    sups = []
    for r_mag in 10.0 ** np.arange(6, 19, 2):
        p = r_mag * np.exp(1j * phis)
        sups.append(np.max(np.abs(dispersion_attenuation(cc, p) / p)))
    sups = np.array(sups)
    assert np.all(np.diff(sups) < 0.0)
    assert sups[-1] < 1e-2 * sups[0]


def test_beta_matches_measure_quadrature(cc):
    # beta(p) = p int h(r)/(p+r) dr at p = 1/tau, log-substitution oracle
    from scipy.integrate import quad

    meas = cw.spectral_measure(cc)
    p = 1.0 / cc.tau

    def integrand(u):
        r = math.exp(u)
        return float(meas.density(r)) / (p + r) * r

    val = 0.0
    u0 = math.log(p)
    for a, b in zip((-45.0, -5.0, 0.0, 5.0), (-5.0, 0.0, 5.0, 90.0)):
        piece, _ = quad(integrand, u0 + a, u0 + b, limit=400, epsabs=0.0,
                        epsrel=1e-12)
        val += piece
    beta = complex(dispersion_attenuation(cc, p + 0j))
    assert beta.real == pytest.approx(p * val, rel=1e-6)


def test_jump_oracle_outside_band_is_zero(sls):
    val = branch_cut_density(sls, 2.0 / sls.tau)
    assert val == 0.0


def test_jump_oracle_eps_validation(cc):
    with pytest.raises(ValueError):
        branch_cut_density(cc, -1.0)


def test_jump_oracle_rejects_a_measure_medium(finite_band):
    # a MeasureMedium defines its density directly
    with pytest.raises(TypeError):
        branch_cut_density(MeasureMedium(finite_band, c_inf=5000.0), 1.5)


def test_conjugate_symmetry(cc, sls, hn, cd):
    # random points and the negative imaginary axis, whose powers take
    # their own path (conj: +i omega takes np.power)
    rng = np.random.default_rng(3)
    p = 10.0 ** rng.uniform(-4, 4, 200) / 1e-13 \
        * np.exp(1j * rng.uniform(-0.95, 0.95, 200) * math.pi)
    p = np.concatenate((p, -1j * np.logspace(-6, 6, 49) / 1e-13))
    for model in (cc, sls, hn, cd):
        k1 = np.asarray(wave_number(model, p))
        k2 = np.asarray(wave_number(model, np.conj(p)))
        assert np.allclose(k2, np.conj(k1), rtol=1e-14, atol=0.0)


def test_kappa_is_pick_function(cc, sls, hn, cd):
    rng = np.random.default_rng(5)
    z = 10.0 ** rng.uniform(-6, 6, 1000) / 1e-13 \
        * np.exp(1j * rng.uniform(0.01, 0.99, 1000) * math.pi)
    for model in (cc, sls, hn, cd):
        k = np.asarray(wave_number(model, z))
        assert np.all(np.imag(k) >= -1e-12 * np.abs(k))


def test_modulus_magnitude_nondecreasing_along_rays(cc, hn):
    mags = np.logspace(-6, 6, 400) / 1e-13
    for model in (cc, hn):
        for phi in (-1.3, -0.6, 0.0, 0.6, 1.3):
            q = np.abs(complex_modulus(model, mags * np.exp(1j * phi)))
            assert np.all(np.diff(q) >= -1e-12 * q[1:])


def test_admissibility_kappa_squared_over_p(cc, sls, hn, cd):
    x = np.logspace(-6, 6, 300) / 1e-13
    rng = np.random.default_rng(11)
    z = 10.0 ** rng.uniform(-6, 6, 500) / 1e-13 \
        * np.exp(1j * rng.uniform(0.02, 0.98, 500) * math.pi)
    for model in (cc, sls, hn, cd):
        f_ax = np.real(np.asarray(wave_number(model, x + 0j)) ** 2 / x)
        assert np.all(f_ax >= 0.0)
        assert np.all(np.diff(f_ax) >= -1e-12 * f_ax[1:])
        f_hp = np.asarray(wave_number(model, z)) ** 2 / z
        assert np.all(np.imag(f_hp) >= -1e-12 * np.abs(f_hp))


@pytest.mark.parametrize("rel", [1e-7, 1e-10])
def test_jump_oracle_next_to_the_sls_edge(sls, rel):
    # next to the inverse-square-root edge 1/(a tau) of the support
    r = (1.0 + rel) / (sls.a * sls.tau)
    h = sls_spectral_density(sls, r)
    assert abs(branch_cut_density(sls, r) - h) <= 1e-13 * h


_SLS_A2 = cw.StandardLinearSolid(a=2.0, tau=1.0, g_inf=1.0)
_CD_06 = cw.ColeDavidson(b=0.5, gamma=0.6, tau=1.0, g0=1.0)
_CD_06_EDGE = 1.0 - 0.5 ** (1.0 / 0.6)


@pytest.mark.parametrize("model, dens, tr", [
    pytest.param(_SLS_A2, sls_spectral_density, 0.5012, id="sls-0.5012"),
    pytest.param(_SLS_A2, sls_spectral_density, 1.0, id="sls-1"),
    pytest.param(_CD_06, cd_spectral_density, 1.0, id="cd-1"),
    pytest.param(_CD_06, cd_spectral_density, _CD_06_EDGE * (1.0 - 1e-9),
                 id="cd-below-edge"),
    pytest.param(_CD_06, cd_spectral_density, _CD_06_EDGE * (1.0 + 1e-9),
                 id="cd-above-edge"),
])
def test_jump_oracle_at_edges_and_zeros(model, dens, tr):
    # near the SLS lower edge, at the zero h(1/tau) = 0 and on both sides
    # of the Cole-Davidson edge, where an extrapolation toward the cut from
    # off it is quietly wrong
    h = dens(model, tr / model.tau)
    o = branch_cut_density(model, tr / model.tau)
    if h == 0.0:
        assert o == 0.0
    else:
        assert abs(o - h) <= 1e-13 * h


@pytest.mark.parametrize("model, dens", [
    pytest.param(cw.HavriliakNegami(b=1.0, alpha=0.7, gamma=0.5, tau=1.0,
                                    g0=1.0), hn_spectral_density, id="hn"),
    pytest.param(cw.ColeDavidson(b=1.0, gamma=0.5, tau=1.0, g0=1.0),
                 cd_spectral_density, id="cd"),
])
def test_jump_oracle_far_below_the_relaxation_rate_at_b_one(model, dens):
    # with G_inf = 0, G0/Q - 1 is of order (tau r)^alpha: log(1 + y) must
    # keep its relative accuracy there
    tr = np.logspace(-9, -3, 13)
    h = dens(model, tr)
    assert np.all(np.abs(branch_cut_density(model, tr) - h) <= 1e-13 * h)


_DENSITY = {cw.ColeCole: cc_spectral_density,
            cw.StandardLinearSolid: sls_spectral_density,
            cw.HavriliakNegami: hn_spectral_density,
            cw.ColeDavidson: cd_spectral_density}
_ALPHA = st.floats(0.02, 0.98)
_GAMMA = st.floats(0.05, 1.0)
_B = st.floats(0.0, 1.0, exclude_min=True)
_A = st.floats(1.0, 1e4, exclude_min=True)
_MODELS = st.one_of(
    st.builds(cw.ColeCole, a=_A, alpha=_ALPHA, tau=st.just(1.0),
              g_inf=st.just(1.0)),
    st.builds(cw.StandardLinearSolid, a=_A, tau=st.just(1.0),
              g_inf=st.just(1.0)),
    st.builds(cw.HavriliakNegami, b=_B, alpha=_ALPHA, gamma=_GAMMA,
              tau=st.just(1.0), g0=st.just(1.0)),
    st.builds(cw.ColeDavidson, b=_B, gamma=_GAMMA, tau=st.just(1.0),
              g0=st.just(1.0)),
)


def _support(model):
    """(lower, upper) support edges of the density in tau r."""
    if isinstance(model, cw.StandardLinearSolid):
        return 1.0 / model.a, 1.0
    if isinstance(model, cw.ColeDavidson):
        if model.gamma == 1.0:
            return 1.0 - model.b, 1.0
        return 1.0 - model.b ** (1.0 / model.gamma), math.inf
    return 0.0, math.inf


@settings(derandomize=True, max_examples=150, deadline=None)
@given(model=_MODELS, u=st.lists(st.floats(-3.0, 3.0), min_size=1,
                                 max_size=20))
def test_jump_oracle_matches_the_densities(model, u):
    # finite and >= 0 everywhere, exactly 0 off the support, and within
    # 1e-12 of the closed-form density from 1e-3 above the lower edge (for
    # b near 1e-308 the density itself falls below the normal range, where
    # no float carries 1e-12 relative precision)
    tr = 10.0 ** np.asarray(u)
    o = np.asarray(branch_cut_density(model, tr))
    assert np.all(np.isfinite(o)) and np.all(o >= 0.0)
    lo, hi = _support(model)
    assert np.all(o[(tr <= lo) | (tr >= hi)] == 0.0)
    h = _DENSITY[type(model)](model, tr)
    far = tr >= lo * (1.0 + 1e-3)
    tol = 1e-12 * h[far] + np.finfo(float).tiny
    assert np.all(np.abs(o - h)[far] <= tol)


def test_beta_at_infinity_closed_form():
    # Cole-Davidson with gamma = 1 is the SLS with a = 1/(1 - b)
    from cmwave._quad import integrate_measure, integrate_power
    from cmwave.wavenumber import beta_at_infinity

    cd = cw.ColeDavidson(b=0.5, gamma=1.0, tau=0.1, g0=0.2)
    sls = cw.StandardLinearSolid(a=2.0, tau=0.1, g_inf=0.1)
    assert beta_at_infinity(cd) == pytest.approx(beta_at_infinity(sls),
                                                 rel=1e-15)
    assert beta_at_infinity(cd) == pytest.approx(math.sqrt(5.0) * 2.5,
                                                 rel=1e-15)
    # the mass of the SLS band, by quadrature of the measure on both routes
    mass = integrate_measure(sls.spectral_measure(), lambda r: 1.0)
    assert mass == pytest.approx(beta_at_infinity(sls), rel=1e-12)
    mass = integrate_power(sls.spectral_measure(), 0.0)
    assert mass == pytest.approx(beta_at_infinity(sls), rel=1e-12)
    for model in (cw.ColeDavidson(b=0.5, gamma=0.9, tau=0.1, g0=0.2),
                  cw.ColeCole(a=2.0, alpha=0.9, tau=0.1, g_inf=0.1)):
        assert beta_at_infinity(model) == math.inf


def _g0_exact(model):
    if isinstance(model, (cw.ColeCole, cw.StandardLinearSolid)):
        return mpmath.mpf(model.a) * mpmath.mpf(model.g_inf)
    return mpmath.mpf(model.g0)


def _beta_reference(model, omega):
    """beta(-i omega) to 50 digits: p sqrt(rho) (1/sqrt(Q) - 1/sqrt(G0))
    from the family's Q(p), with G0 = Q(inf) in exact arithmetic."""
    with mpmath.workdps(50):
        p = mpmath.mpc(0.0, -omega)
        if isinstance(model, (cw.ColeCole, cw.StandardLinearSolid)):
            alpha = model.alpha if isinstance(model, cw.ColeCole) else 1
            x = (mpmath.mpf(model.tau) * p) ** mpmath.mpf(alpha)
            q = mpmath.mpf(model.g_inf) * (1 + mpmath.mpf(model.a) * x) \
                / (1 + x)
        else:
            alpha = model.alpha if isinstance(model, cw.HavriliakNegami) \
                else 1
            x = (mpmath.mpf(model.tau) * p) ** mpmath.mpf(alpha)
            q = mpmath.mpf(model.g0) * (
                1 - mpmath.mpf(model.b) * (1 + x) ** -mpmath.mpf(model.gamma))
        beta = p * mpmath.sqrt(mpmath.mpf(model.rho)) \
            * (1 / mpmath.sqrt(q) - 1 / mpmath.sqrt(_g0_exact(model)))
        return complex(beta)


_G0 = 5000.0 ** 2


@pytest.mark.parametrize("model", [
    cw.StandardLinearSolid(a=1.5, tau=1e-13, g_inf=_G0 / 1.5),
    cw.StandardLinearSolid(a=1e4, tau=1e-13, g_inf=_G0 / 1e4),
    cw.ColeCole(a=1.5, alpha=0.05, tau=1e-13, g_inf=_G0 / 1.5),
    cw.ColeCole(a=1.5, alpha=0.5, tau=1e-13, g_inf=_G0 / 1.5),
    cw.ColeCole(a=1.5, alpha=0.95, tau=1e-13, g_inf=_G0 / 1.5),
    cw.HavriliakNegami(b=0.5, alpha=0.05, gamma=0.65, tau=1e-13, g0=_G0),
    cw.HavriliakNegami(b=0.5, alpha=1 / 1.3, gamma=0.65, tau=1e-13, g0=_G0),
    cw.HavriliakNegami(b=0.5, alpha=0.95, gamma=0.65, tau=1e-13, g0=_G0),
    cw.ColeDavidson(b=0.5, gamma=0.05, tau=1e-13, g0=_G0),
    cw.ColeDavidson(b=0.5, gamma=0.5, tau=1e-13, g0=_G0),
    cw.ColeDavidson(b=0.5, gamma=1.0, tau=1e-13, g0=_G0),
], ids=["sls-a1.5", "sls-a1e4", "cc-alpha0.05", "cc-alpha0.5",
        "cc-alpha0.95", "hn-alpha0.05", "hn-alpha1/1.3", "hn-alpha0.95",
        "cd-gamma0.05", "cd-gamma0.5", "cd-gamma1"])
def test_beta_on_the_axis_matches_a_50_digit_reference(model):
    omega = np.logspace(-6, 6, 49) / model.tau
    beta = np.asarray(dispersion_attenuation(model, -1j * omega))
    ref = np.array([_beta_reference(model, w) for w in omega])
    assert np.all(np.abs(beta - ref) <= 2e-15 * np.abs(ref))


def _assert_beta_on_the_axis_at_roundoff(model):
    omega = np.logspace(-6, 6, 49) / model.tau
    beta = np.asarray(dispersion_attenuation(model, -1j * omega))
    ref = np.array([_beta_reference(model, w) for w in omega])
    assert np.all(np.abs(beta - ref) <= 2e-15 * np.abs(ref))


def test_hn_b_one_beta_on_the_axis():
    # with b = 1, G0 (1 - (1 + x)^-gamma) would cancel like 1/|x| at low
    # frequency (1.3e-12 at tau omega = 1e-6, x = 6e-5); the modulus is
    # -G0 expm1(-gamma log(1 + x)) instead
    _assert_beta_on_the_axis_at_roundoff(
        cw.HavriliakNegami(b=1.0, alpha=0.7, gamma=0.5, tau=1e-13, g0=_G0))


@pytest.mark.parametrize("gamma", [0.2, 0.5, 1.0])
def test_cd_b_one_beta_on_the_axis(gamma):
    # the cancellation above was 3.3e-11 for gamma = 0.5, 1.6e-10 for 0.2
    _assert_beta_on_the_axis_at_roundoff(
        cw.ColeDavidson(b=1.0, gamma=gamma, tau=1e-13, g0=_G0))
