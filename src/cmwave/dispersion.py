"""Attenuation, dispersion and phase speed from the spectral measure.

The attenuation and dispersion functions are the real/imaginary parts of
the dispersion-attenuation function on the imaginary axis, computed here by
quadrature against the spectral density:

    A(w) = w^2 * int h(r) / (w^2 + r^2) dr
    D(w) = w   * int r h(r) / (w^2 + r^2) dr
    1/c(w) = 1/c_inf + D(w)/w

These quadrature paths are deliberately independent of the closed-form
wave-number evaluation in :mod:`cmwave.wavenumber`; agreement of the two is
one of the package's structural checks.

A single frequency (``attenuation``, ``dispersion``, ``phase_speed``) takes
the adaptive scalar route of :func:`cmwave._quad.integrate_measure`: each
piece is requested to 1e-11 relative with no absolute floor, and a summed
error estimate above 1e-8 of the result raises QuadratureError.  A grid
(``curve``) takes :func:`cmwave._quad.integrate_grid`: one node set for the
whole grid, the density sampled once per node and both integrals formed
for every frequency as one kernel product, refined until every value's
step-halving estimate is within the same 1e-8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import integrate_grid, integrate_measure
from .measures import SpectralMeasure, measure_D_constant, spectral_measure
from .wavenumber import MeasureMedium

__all__ = ["DispersionCurve", "attenuation", "curve", "dispersion",
           "phase_speed"]


def _measure_of(obj) -> SpectralMeasure:
    if isinstance(obj, SpectralMeasure):
        return obj
    if isinstance(obj, MeasureMedium):
        return obj.measure
    return spectral_measure(obj)


@dataclass(frozen=True)
class DispersionCurve:
    """Sampled (omega, attenuation, dispersion, phase speed) table (SI).

    ``diagnostics`` records how the quadrature got there: the number of
    density ``nodes`` and ``rel_error``, the worst step-halving error
    estimate of A and D relative to its value.
    """

    omega: np.ndarray
    attenuation: np.ndarray
    dispersion: np.ndarray
    phase_speed: np.ndarray
    c_inf: float
    c0: float | None
    diagnostics: dict = field(default_factory=dict)

    def rows(self):
        return zip(self.omega, self.attenuation, self.dispersion,
                   self.phase_speed)


def attenuation(m, omega: float) -> float:
    """A(omega) in 1/m by adaptive quadrature of the spectral density."""
    if omega < 0.0:
        raise ValueError("omega must be >= 0")
    if omega == 0.0:
        return 0.0
    meas = _measure_of(m)
    w2 = omega * omega

    return integrate_measure(
        meas, lambda r: w2 / (w2 + r * r),
        landmarks=(omega,), weight_low_exp=0.0, weight_high_exp=2.0,
    )


def dispersion(m, omega: float) -> float:
    """D(omega) in 1/m; odd in omega, D(omega)/omega non-increasing."""
    if omega < 0.0:
        return -dispersion(m, -omega)
    if omega == 0.0:
        return 0.0
    meas = _measure_of(m)
    w2 = omega * omega

    return integrate_measure(
        meas, lambda r: omega * r / (w2 + r * r),
        landmarks=(omega,), weight_low_exp=1.0, weight_high_exp=1.0,
    )


def phase_speed(model, omega: float) -> float:
    """c(omega) = 1 / (1/c_inf + D(omega)/omega), requires finite c_inf."""
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    c_inf = model.c_inf
    if not math.isfinite(c_inf):
        raise ValueError("phase speed requires a finite wavefront speed")
    return 1.0 / (1.0 / c_inf + dispersion(model, omega) / omega)


def curve(model, omega_grid) -> DispersionCurve:
    """Evaluate the dispersion curve on a strictly increasing grid.

    A and D come from one node set for the whole grid
    (:func:`cmwave._quad.integrate_grid`), to 1e-8 relative at every
    frequency, or QuadratureError is raised.
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.ndim != 1 or omega_grid.size == 0:
        raise ValueError("omega grid must be a non-empty 1-d array")
    if np.any(omega_grid <= 0.0) or np.any(np.diff(omega_grid) <= 0.0):
        raise ValueError("omega grid must be positive and strictly increasing")
    meas = _measure_of(model)
    if isinstance(model, SpectralMeasure):
        # bare measure: no wavefront speed attached, 1/c(w) = D(w)/w
        c_inf = math.inf
        d0 = measure_D_constant(meas)
        c0 = None if math.isinf(d0) or d0 == 0.0 else 1.0 / d0
    else:
        c_inf = model.c_inf
        c0 = model.c0
    quad = integrate_grid(meas, omega_grid)
    att, dis = quad.attenuation, quad.dispersion
    if math.isfinite(c_inf):
        speed = 1.0 / (1.0 / c_inf + dis / omega_grid)
    else:
        # no wavefront: c = w/D, infinite for the zero measure
        speed = np.divide(omega_grid, dis,
                          out=np.full_like(omega_grid, math.inf),
                          where=dis > 0.0)
    return DispersionCurve(omega=omega_grid, attenuation=att, dispersion=dis,
                           phase_speed=speed, c_inf=c_inf, c0=c0,
                           diagnostics={"nodes": quad.nodes,
                                        "rel_error": quad.rel_error})
