import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

import cmwave as cw
from cmwave.mittag_leffler import (
    MLToleranceError,
    cole_cole_relaxation_modulus,
    mittag_leffler,
    ml_e1_neg,
)


def series_reference(alpha, beta, z):
    """Defining power series in arbitrary precision: the largest term is
    ~exp(|z|^(1/alpha)), so the working precision grows with it."""
    w = abs(z) ** (1.0 / alpha)
    dps = 30 + int(w / 2.0)
    with mpmath.workdps(dps):
        al, be, zz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        total, zk, k = mpmath.mpf(0), mpmath.mpf(1), 0
        floor = mpmath.mpf(10) ** (-dps + 3)
        while True:
            term = zk * mpmath.rgamma(al * k + be)
            total += term
            k += 1
            zk *= zz
            if alpha * k > w + 5 and abs(term) < floor * (1 + abs(total)):
                return float(total)


def test_exponential_case():
    assert mittag_leffler(1.0, 1.0, -1.0) == pytest.approx(
        0.36787944117144233, rel=1e-13)
    for x in (0.0, 2.5, 10.0, 20.0):
        assert mittag_leffler(1.0, 1.0, -x) == pytest.approx(math.exp(-x),
                                                             rel=1e-12)


def test_value_at_zero():
    assert mittag_leffler(0.5, 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)
    assert mittag_leffler(0.7, 1.6, 0.0) == pytest.approx(
        1.0 / math.gamma(1.6), rel=1e-14)


def test_value_at_zero_is_one_over_gamma_for_every_beta():
    # E(0) = 1/Gamma(beta) needs no contour, so beta well past the
    # contours' reach (about 5) is served too; the value comes from
    # math.gamma, and scipy's rgamma is the value it replaced
    from scipy.special import rgamma

    betas = np.concatenate([
        [1e-320, 1e-300, 1e-8, 0.3, 1.0, 1.6, 2.5, 10.0, 100.0, 171.6,
         31.676000841620002],   # rgamma is 9 ulp off here
        np.random.default_rng(19).uniform(0.0, 171.6, 300)])
    for beta in betas:
        got = mittag_leffler(0.5, beta, 0.0)
        exact = float(mpmath.rgamma(mpmath.mpf(beta)))
        ulp = math.ulp(exact)
        assert abs(got - exact) <= 8 * ulp, beta
        assert abs(got - float(rgamma(beta))) <= 16 * ulp, beta
    # past Gamma's overflow 1/Gamma is below the normal doubles: 0.0, as
    # rgamma gives
    for beta in (171.7, 180.0, 200.0):
        assert mittag_leffler(0.5, beta, 0.0) == float(rgamma(beta)) == 0.0
    z = np.zeros(3)
    assert np.array_equal(mittag_leffler(0.3, 50.0, z),
                          np.full(3, mittag_leffler(0.3, 50.0, 0.0)))
    mixed = mittag_leffler(0.7, 1.6, np.array([0.0, -1.0]))
    assert mixed[0] == mittag_leffler(0.7, 1.6, 0.0)


def test_half_order_erfcx_identity():
    # E_{1/2}(-x) = exp(x^2) erfc(x), scipy's erfcx as independent oracle
    assert mittag_leffler(0.5, 1.0, -1.0) == pytest.approx(
        0.42758357615580700, rel=1e-10)
    for x in np.linspace(0.0, 10.0, 41):
        assert mittag_leffler(0.5, 1.0, -x) == pytest.approx(
            float(erfcx(x)), rel=1e-8)


def test_parameter_validation():
    with pytest.raises(ValueError):
        mittag_leffler(1.5, 1.0, -1.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, -1.0, -1.0)
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 1.0, 1.0)


@pytest.mark.parametrize("beta", [120.0, 150.0])
def test_large_beta_raises_the_tolerance_error(beta):
    # no contour meets the tolerance past beta ~ 5; here the contour
    # search's power of a base below 1 overflowed the float range, which
    # surfaced as a bare OverflowError
    with pytest.raises(MLToleranceError):
        mittag_leffler(0.5, beta, -1.0)
    with pytest.raises(MLToleranceError):
        mittag_leffler(1.0, beta, np.array([-1.0, -2.0]))


@pytest.mark.parametrize("beta", [1.0, 1.5, 2.5])
@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_series_spot_check(alpha, beta):
    # |z| <= 20, kept where the series' precision stays affordable
    x = np.array([v for v in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
                  if v ** (1.0 / alpha) <= 400.0])
    got = mittag_leffler(alpha, beta, -x)
    for xi, g in zip(x, got):
        assert g == pytest.approx(series_reference(alpha, beta, -xi),
                                  rel=1e-12)
        scalar = mittag_leffler(alpha, beta, -xi)
        assert scalar == pytest.approx(g, rel=1e-14)


@pytest.mark.parametrize("alpha", [0.4, 0.7])
def test_complete_monotonicity_in_minus_z(alpha):
    # E_alpha(-x) is CM in x, so on the z = -x axis every difference order
    # has a fixed sign: all non-negative
    z = np.linspace(-50.0, 0.0, 101)
    vals = np.array([mittag_leffler(alpha, 1.0, zi) for zi in z])
    assert np.all(vals > 0.0)
    for order in (1, 2, 3):
        d = np.diff(vals, order)
        assert np.all(d > -1e-13)


def test_relaxation_modulus_limits(cc):
    g_small = cole_cole_relaxation_modulus(cc, 1e-9 * cc.tau)
    assert g_small == pytest.approx(cc.g0, rel=1e-4)
    g_large = cole_cole_relaxation_modulus(cc, 1e6 * cc.tau)
    assert g_large == pytest.approx(cc.g_inf, rel=1e-2)
    with pytest.raises(ValueError):
        cole_cole_relaxation_modulus(cc, 0.0)


def test_relaxation_modulus_laplace_transform(cc):
    # int e^{-pt} G(t) dt must reproduce the defining modulus formula
    from scipy.integrate import quad

    for pt in (0.3, 1.0, 3.0):
        p = pt / cc.tau

        def integrand(u):
            return cole_cole_relaxation_modulus(cc, u / p) * math.exp(-u) / p

        total = 0.0
        grid = sorted({0.0, pt * 1e-6, pt * 1e-3, pt, min(10 * pt, 60.0),
                       60.0})
        for a, b in zip(grid, grid[1:]):
            v, _ = quad(integrand, a, b, limit=400, epsabs=1e-30,
                        epsrel=1e-11)
            total += v
        target = complex(cw.complex_modulus(cc, p + 0j)).real / p
        assert total == pytest.approx(target, rel=1e-6)


def test_relaxation_modulus_is_licm(cc):
    # signs of divided differences alternate up to order 3 on a log grid
    from cmwave.verification import divided_differences

    t = np.logspace(-3, 3, 61) * cc.tau
    g = np.array([cole_cole_relaxation_modulus(cc, ti) for ti in t])
    assert np.all(g > 0.0)
    for order in (1, 2, 3):
        d = divided_differences(t, g, order)
        assert np.all((-1.0) ** order * d >= 0.0)


def test_ml_e1_neg_windows():
    # beta in (0, 2) for the small-p powers of solids, up to 3 for the
    # power-law fluid's
    for beta in (0.1, 0.5, 0.9, 1.25, 1.5, 2.0, 2.5, 2.9):
        ys = np.array([0.0, 1.0, 4.0, 12.0, 29.0, 30.0, 100.0])
        got = ml_e1_neg(beta, ys)
        ref = np.array([series_reference(1.0, beta, -y) if y <= 40 else None
                        for y in ys], dtype=object)
        for g, r in zip(got, ref):
            if r is not None:
                assert g == pytest.approx(r, rel=5e-9)
    for beta in (0.0, 3.0):
        with pytest.raises(ValueError):
            ml_e1_neg(beta, np.array([1.0]))
    with pytest.raises(ValueError):
        ml_e1_neg([0.5, 3.0], np.array([1.0]))


def test_ml_e1_neg_through_its_zero_below_beta_one():
    # E_{1,beta}(-y) changes sign for beta < 1 (roots y0 near 0.161, 0.390,
    # 1.098 and 3.170 for the betas below), where no relative accuracy
    # exists: the value is 1/Gamma(beta) - y E_{1,beta+1}(-y), to 5e-9 of
    # y E_{1,beta+1}(-y); a relative check there raised for the add-back
    # of the Green's synthesis
    for beta, y0 in ((0.14, 0.16114919230521946), (0.29, 0.39001079904996),
                     (0.58, 1.0981803787889), (0.9, 3.1702802299737)):
        ys = y0 * np.array([0.5, 0.99, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 1.01,
                            2.0, 10.0])
        got = ml_e1_neg(beta, ys)
        for g, y in zip(got, ys):
            scale = y * series_reference(1.0, beta + 1.0, -y)
            assert abs(g - series_reference(1.0, beta, -y)) <= 5e-9 * scale
        assert got[1] > 0.0 > got[5]


def test_ml_e1_neg_rows_match_one_beta_at_a_time():
    # a sequence of betas, sharing contours below 2 and not above, gives
    # one row per beta: the single-beta values to roundoff; 0.4 is formed
    # from the row of 1.4
    betas = [0.1, 0.4, 0.6, 1.0, 1.4, 2.0, 2.3, 2.9]
    ys = np.array([0.0, 1e-9, 0.3, 2.0, 17.0, 250.0])
    rows = ml_e1_neg(betas, ys)
    assert rows.shape == (len(betas), len(ys))
    for beta, row in zip(betas, rows):
        np.testing.assert_allclose(row, ml_e1_neg(beta, ys), rtol=1e-13,
                                   atol=0.0)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.01, 0.99), a=st.floats(1.05, 5.0),
       pt=st.floats(0.1, 10.0))
def test_relaxation_modulus_properties(alpha, a, pt):
    # G(t) lies in (G_inf, a G_inf), does not increase, and its Laplace
    # transform at p = pt/tau reproduces Q(p)/p
    from scipy.integrate import quad

    tau = 1e-6
    model = cw.ColeCole(a=a, alpha=alpha, tau=tau, g_inf=1.0)
    g = np.array([cole_cole_relaxation_modulus(model, t * tau)
                  for t in np.logspace(-2.0, 1.5, 6)])
    assert np.all((g > model.g_inf) & (g < a * model.g_inf))
    assert np.all(np.diff(g) <= 0.0)

    p = pt / tau

    def integrand(u):
        return cole_cole_relaxation_modulus(model, u / p) * math.exp(-u) / p

    total = 0.0
    grid = sorted({0.0, pt * 1e-6, pt * 1e-3, pt, min(10 * pt, 60.0), 60.0})
    for lo, hi in zip(grid, grid[1:]):
        v, _ = quad(integrand, lo, hi, limit=400, epsabs=1e-30, epsrel=1e-11)
        total += v
    target = complex(cw.complex_modulus(model, p + 0j)).real / p
    assert total == pytest.approx(target, rel=1e-6)
