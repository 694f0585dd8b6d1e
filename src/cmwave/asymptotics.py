"""Closed-form asymptotic predictions and wavefront-regime classification.

These are independent cross-checks on the quadrature engine: regularly
varying measures give power-law attenuation/dispersion at high and low
frequency with known coefficients, and the tail of the spectral density
decides whether a wavefront can carry a discontinuity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import integrate_power
from .measures import SpectralMeasure, spectral_measure
from .wavenumber import MeasureMedium

__all__ = [
    "AsymptoticPrediction",
    "WavefrontRegime",
    "beta_moment_series",
    "classify_wavefront",
    "fit_loglog_slope",
    "highfreq_attenuation",
    "highfreq_dispersion",
    "lowfreq_prediction",
    "spectral_moment",
    "strongly_singular_exponents",
]


@dataclass(frozen=True)
class AsymptoticPrediction:
    regime: str                 # "low" | "high"
    exponent: float
    coefficient: float
    validity: str = ""

    def __call__(self, omega):
        return self.coefficient * np.asarray(omega, float) ** self.exponent


@dataclass(frozen=True)
class WavefrontRegime:
    """Wavefront behaviour implied by the spectral-density tail.

    tag is one of ``discontinuity-possible`` (all moments of h finite),
    ``smoothed`` (algebraic tail) or ``no-wavefront`` (strongly singular
    relaxation, infinite wavefront speed).  For the strongly singular case
    the wave number grows like p**smoothing_exponent with
    smoothing_exponent = 1 - alpha/2 and front_constant
    c_alpha = pi*alpha/sin(pi*alpha).
    """

    tag: str
    smoothing_exponent: float | None = None
    front_constant: float | None = None


def highfreq_attenuation(alpha: float, l_const: float, omega) -> np.ndarray:
    """High-frequency attenuation for nu([0,r]) ~ r^(1-alpha) * l.

    A(w) ~ (1-alpha) pi / (2 cos(alpha pi/2)) * w^(1-alpha) * l
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    coef = (1.0 - alpha) * math.pi / (2.0 * math.cos(alpha * math.pi / 2.0))
    return coef * l_const * np.asarray(omega, float) ** (1.0 - alpha)


def highfreq_dispersion(alpha: float, l_const: float, omega) -> np.ndarray:
    """Dispersion counterpart of :func:`highfreq_attenuation` (sin in place
    of cos); hence D/A -> cot(alpha pi/2) at high frequency."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    coef = (1.0 - alpha) * math.pi / (2.0 * math.sin(alpha * math.pi / 2.0))
    return coef * l_const * np.asarray(omega, float) ** (1.0 - alpha)


def lowfreq_prediction(gamma_exp: float, l_const: float, omega):
    """Low-frequency (A, D) for a fluid-type measure nu([0,r]) = r^gamma l.

    A(w) ~ gamma pi / (2 sin(gamma pi/2)) * w^gamma * l
    D(w) ~ gamma pi / (2 cos(gamma pi/2)) * w^gamma * l

    so that D/A -> tan(gamma pi/2) as w -> 0, consistent with the exact
    boundary values of C p^gamma: A + iD = C omega^gamma exp(i gamma pi/2)
    up to the coefficient.
    """
    if not 0.0 < gamma_exp < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    w = np.asarray(omega, float) ** gamma_exp
    a = gamma_exp * math.pi / (2.0 * math.sin(gamma_exp * math.pi / 2.0))
    d = gamma_exp * math.pi / (2.0 * math.cos(gamma_exp * math.pi / 2.0))
    return a * l_const * w, d * l_const * w


def strongly_singular_exponents(alpha: float) -> tuple[float, float]:
    """Wave-number growth exponent and constant for a strongly singular
    relaxation modulus with relaxation measure mu([0,r]) ~ r^alpha.

    Returns (1 - alpha/2, pi*alpha/sin(pi*alpha)).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    return 1.0 - alpha / 2.0, math.pi * alpha / math.sin(math.pi * alpha)


def classify_wavefront(model) -> WavefrontRegime:
    """Classify the wavefront regime from tail metadata alone."""
    if isinstance(model, MeasureMedium) and math.isinf(model.c_inf):
        gamma = None
        if model.measure.label == "power-law":
            gamma = 1.0 - model.measure.tail_exponent_high
        if gamma is not None and 0.5 < gamma < 1.0:
            alpha = 2.0 * (1.0 - gamma)
            _, c_alpha = strongly_singular_exponents(alpha)
            return WavefrontRegime("no-wavefront", gamma, c_alpha)
        return WavefrontRegime("no-wavefront")
    meas = model if isinstance(model, SpectralMeasure) else (
        model.measure if isinstance(model, MeasureMedium)
        else spectral_measure(model))
    if meas.all_moments_finite:
        return WavefrontRegime("discontinuity-possible")
    return WavefrontRegime("smoothed")


def spectral_moment(m: SpectralMeasure, n: int) -> float:
    """a_n = int r^n h(r) dr; requires all moments finite (bounded tail)."""
    if not m.all_moments_finite:
        raise ValueError("moment diverges: spectral density has an "
                         "algebraic tail")
    return integrate_power(m, float(n))


def beta_moment_series(m: SpectralMeasure, n_terms: int, p) -> complex:
    """Large-p moment expansion sum_{n=0}^{N} (-1)^n a_n p^-n of the
    dispersion-attenuation function; a_0 dominates."""
    p = complex(p)
    total = 0.0 + 0.0j
    for n in range(n_terms + 1):
        total += (-1.0) ** n * spectral_moment(m, n) * p ** (-n)
    return total


def fit_loglog_slope(fn, omega_lo: float, n_decades: float = 2.0,
                     n_points: int = 50) -> float:
    """Least-squares slope of log fn vs log omega over ``n_decades``
    starting at ``omega_lo``, sampled at ``n_points`` log-spaced points."""
    w = np.logspace(math.log10(omega_lo), math.log10(omega_lo) + n_decades,
                    n_points)
    y = np.array([fn(wi) for wi in w], dtype=float)
    if np.any(y <= 0.0):
        raise ValueError("slope fit requires positive samples")
    slope, _ = np.polyfit(np.log(w), np.log(y), 1)
    return float(slope)
