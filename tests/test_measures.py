import math

import mpmath
import numpy as np
import pytest

import cmwave as cw
from cmwave.measures import (
    cc_spectral_density,
    cd_spectral_density,
    hn_spectral_density,
    sls_spectral_density,
)
from cmwave.wavenumber import branch_cut_density

TAU = 1e-13


def test_parameter_validation():
    with pytest.raises(ValueError):
        cw.ColeCole(a=1.0, alpha=0.5, tau=TAU, g_inf=1.0)
    with pytest.raises(ValueError):
        cw.ColeCole(a=1.5, alpha=1.0, tau=TAU, g_inf=1.0)
    with pytest.raises(ValueError):
        cw.HavriliakNegami(b=1.2, alpha=0.5, gamma=0.5, tau=TAU, g0=1.0)
    with pytest.raises(ValueError):
        cw.make_powerlaw_measure(1.0, 1.0)
    with pytest.raises(ValueError):
        cw.make_finiteband_measure(1.0, 2.0, 1.0)


@pytest.mark.parametrize("modulus", [math.inf, math.nan])
def test_nonfinite_modulus_rejected(modulus):
    with pytest.raises(ValueError):
        cw.ColeCole(a=1.5, alpha=0.5, tau=TAU, g_inf=modulus)
    with pytest.raises(ValueError):
        cw.StandardLinearSolid(a=1.5, tau=TAU, g_inf=modulus)
    with pytest.raises(ValueError):
        cw.HavriliakNegami(b=0.5, alpha=0.5, gamma=0.5, tau=TAU, g0=modulus)
    with pytest.raises(ValueError):
        cw.ColeDavidson(b=0.5, gamma=0.5, tau=TAU, g0=modulus)


def test_derived_speeds(cc, hn):
    assert cc.c0 == pytest.approx(math.sqrt(cc.g_inf / cc.rho), rel=1e-15)
    assert cc.c_inf / cc.c0 == pytest.approx(math.sqrt(cc.a), rel=1e-14)
    assert hn.c0 == pytest.approx(hn.c_inf * math.sqrt(1 - hn.b), rel=1e-14)


def test_cc_density_at_zero(cc):
    assert cc_spectral_density(cc, 0.0) == 0.0


def test_cc_low_r_asymptote(cc):
    # h ~ (a-1) sin(pi alpha) (tau r)^alpha / (2 pi c0) as r -> 0; the
    # branch-cut jump fixes the prefactor 1/(2 pi c0)
    for tr in (1e-7, 1e-9):
        r = tr / cc.tau
        asym = (cc.a - 1) * math.sin(math.pi * cc.alpha) * tr ** cc.alpha \
            / (2 * math.pi * cc.c0)
        assert cc_spectral_density(cc, r) / asym == pytest.approx(1.0,
                                                                  abs=2e-3)


def test_cc_matches_jump_oracle(cc):
    for tr in (0.1, 1.0, 10.0):
        r = tr / cc.tau
        h = cc_spectral_density(cc, r)
        assert h == pytest.approx(branch_cut_density(cc, r), rel=1e-6)


def test_sls_support_and_zeros(sls):
    assert sls_spectral_density(sls, 1.5 / sls.tau) == 0.0
    assert sls_spectral_density(sls, 1.0 / sls.tau) == 0.0
    assert sls_spectral_density(sls, 0.5 / sls.tau) == 0.0


def test_sls_matches_jump_oracle(sls):
    mid = (1 / sls.a + 1) / 2
    for tr in (0.9, mid):
        r = tr / sls.tau
        assert sls_spectral_density(sls, r) == pytest.approx(
            branch_cut_density(sls, r), rel=1e-6)


def test_hn_density_zero_at_origin(hn):
    assert hn_spectral_density(hn, 0.0) == 0.0


def test_hn_reduces_to_cc_at_gamma_one():
    g0 = 2.5e7
    hn1 = cw.HavriliakNegami(b=0.5, alpha=0.6, gamma=1.0, tau=TAU, g0=g0)
    cc2 = cw.ColeCole(a=1 / (1 - 0.5), alpha=0.6, tau=TAU,
                      g_inf=g0 * (1 - 0.5))
    r = np.logspace(-6, 6, 200) / TAU
    h_hn = hn_spectral_density(hn1, r)
    h_cc = cc_spectral_density(cc2, r)
    assert np.all(np.abs(h_hn - h_cc) <= 1e-12 * h_cc)


def test_hn_matches_jump_oracle(hn):
    r = 1.0 / hn.tau
    assert hn_spectral_density(hn, r) == pytest.approx(
        branch_cut_density(hn, r), rel=1e-6)


def test_cd_zero_below_cut(cd):
    # kappa's cut starts at tau r = 1 - b^(1/gamma)
    edge = 1 - cd.b ** (1 / cd.gamma)
    assert cd_spectral_density(cd, 0.5 / cd.tau) == 0.0
    assert cd_spectral_density(cd, 0.9 * edge / cd.tau) == 0.0


def test_cd_vanishes_at_infinity(cd):
    h_far = cd_spectral_density(cd, 1e8 / cd.tau)
    h_ref = cd_spectral_density(cd, 2.0 / cd.tau)
    assert 0 < h_far < 1e-3 * h_ref


def test_cd_matches_jump_oracle_both_branches(cd):
    for tr in (0.85, 0.95, 2.0, 10.0):
        r = tr / cd.tau
        assert cd_spectral_density(cd, r) == pytest.approx(
            branch_cut_density(cd, r), rel=2e-6)


def test_cd_gamma_one_equals_sls():
    # at gamma = 1 the Cole-Davidson lower branch is the SLS density with
    # a = 1/(1-b)
    b = 0.5
    cd1 = cw.ColeDavidson(b=b, gamma=1.0, tau=TAU, g0=2.5e7)
    sls1 = cw.StandardLinearSolid(a=1 / (1 - b), tau=TAU,
                                  g_inf=2.5e7 * (1 - b))
    r = np.linspace(0.55, 0.95, 41) / TAU
    assert np.allclose(cd_spectral_density(cd1, r),
                       sls_spectral_density(sls1, r), rtol=1e-12)


def test_powerlaw_measure_values():
    m = cw.make_powerlaw_measure(1.0, 0.5)
    assert m.density(1.0) == pytest.approx(0.5, rel=1e-15)
    assert not m.d_finite


def test_finiteband_measure_values(finite_band):
    assert finite_band.density(1.5) == 1.0
    assert finite_band.density(3.0) == 0.0
    assert finite_band.d_finite


def test_measure_D_constant(cc, finite_band):
    assert cw.measure_D_constant(finite_band) == pytest.approx(math.log(2.0),
                                                               rel=1e-10)
    assert cw.measure_D_constant(cw.zero_measure()) == 0.0
    d = cw.measure_D_constant(cw.spectral_measure(cc))
    assert d == pytest.approx(1 / cc.c0 - 1 / cc.c_inf, rel=1e-8)
    assert math.isinf(cw.measure_D_constant(cw.make_powerlaw_measure(1.0,
                                                                     0.5)))


def test_densities_nonnegative_wide_grid(cc, sls, hn, cd):
    r = np.logspace(-6, 6, 10000) / TAU
    for model in (cc, sls, hn, cd):
        meas = cw.spectral_measure(model)
        h = meas.density(r)
        assert np.all(h >= 0.0)
        # admissible-measure membership: the algebraic tail exponent makes
        # int h/(1+r) dr converge
        assert meas.tail_exponent_high > 0.0


def test_jump_oracle_agreement_sampled(cc, hn):
    rng = np.random.default_rng(7)
    tr = 10.0 ** rng.uniform(-3, 3, size=25)
    for model, dens in ((cc, cc_spectral_density), (hn, hn_spectral_density)):
        r = tr / model.tau
        h = dens(model, r)
        o = branch_cut_density(model, r)
        assert np.all(np.abs(h - o) <= 1e-6 * np.abs(o))


def _finite_band_beta_reference(height, r_lo, r_hi, p):
    with mpmath.workdps(40):
        pm = mpmath.mpc(p)
        return complex(height * pm * (mpmath.log(pm + r_hi)
                                      - mpmath.log(pm + r_lo)))


@pytest.mark.parametrize("band", [(1.0, 1.0, 2.0), (0.5, 0.0, 2.0),
                                  (2.0, 1e3, 1e3 + 1e-3)])
def test_finite_band_beta_well_conditioned(band):
    # far above the band the difference of the two logs cancels; on the
    # band [1, 2] it cost 5e-4 relative in -Im beta at omega = 1e6
    height, r_lo, r_hi = band
    beta_fn = cw.make_finiteband_measure(*band).beta_fn
    omega = np.logspace(-4, 12, 33)
    # A and D on the imaginary axis, each to a few ulps
    for p, b in zip(-1j * omega, beta_fn(-1j * omega)):
        ref = _finite_band_beta_reference(height, r_lo, r_hi, p)
        assert abs(b.real - ref.real) <= 5e-16 * abs(ref.real)
        assert abs(b.imag - ref.imag) <= 5e-16 * abs(ref.imag)
    # elsewhere on the cut plane, to a few ulps of |beta|
    points = np.concatenate([omega * np.exp(0.75j * math.pi), omega + 0j])
    for p, b in zip(points, beta_fn(points)):
        ref = _finite_band_beta_reference(height, r_lo, r_hi, p)
        assert abs(b - ref) <= 1e-15 * abs(ref)
