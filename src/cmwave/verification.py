"""Numerical verification of the structural properties of admissible media.

Complete monotonicity and the complete Bernstein property cannot be proven
numerically, only refuted: each check samples the defining inequalities on
log-polar grids and reports the worst violation found.  A passing report
therefore reads "no violation found on this grid".

The Kramers-Kronig residual, the Bernstein primitive, the minimum-phase
winding test and the Paley-Wiener integral are quantitative diagnostics
with explicit tolerances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._quad import integrate_measure
from .measures import SpectralMeasure
from .wavenumber import dispersion_attenuation, wave_number

__all__ = [
    "CheckReport",
    "PVConvergenceError",
    "bernstein_primitive_f",
    "cbf_check",
    "cm_check_relaxation",
    "divided_differences",
    "halfplane_grid",
    "kk_residual",
    "minimum_phase_check",
    "paley_wiener_diagnostic",
    "PaleyWienerReport",
    "positive_axis_grid",
    "winding_number",
]

# roundoff allowance for sign checks, relative to the local magnitude
_SIGN_TOL = 1e-12


# Kramers-Kronig lattice: largest node step in ln(omega), reach of the
# nodes beyond both frequencies in e-folds, and the smallest |ln(w/w0)|
# (below 0.25 the node count is about 80/|ln(w/w0)|)
_KK_STEP = 0.25
_KK_REACH = 40.0
_KK_MIN_GAP = 1e-3


class PVConvergenceError(RuntimeError):
    """The Kramers-Kronig principal-value sum is not finite."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one sampled property check."""

    name: str
    passed: bool
    worst_violation: float
    location: complex | float | None
    grid: str

    def to_dict(self) -> dict:
        loc = self.location
        if isinstance(loc, complex):
            loc = [loc.real, loc.imag]
        return {
            "name": self.name,
            "pass": bool(self.passed),
            "worst_violation": float(self.worst_violation),
            "location": loc,
            "grid": self.grid,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def halfplane_grid(r_scale: float, n_radii: int = 40, n_angles: int = 25,
                   decades: float = 12.0, half: str = "upper") -> np.ndarray:
    """Log-polar sample grid strictly inside the open upper (or right)
    half-plane, radii spanning ``decades`` around ``r_scale``."""
    radii = np.logspace(math.log10(r_scale) - decades / 2,
                        math.log10(r_scale) + decades / 2, n_radii)
    if half == "upper":
        angles = np.linspace(0.02 * math.pi, 0.98 * math.pi, n_angles)
    elif half == "right":
        angles = np.linspace(-0.48 * math.pi, 0.48 * math.pi, n_angles)
    else:
        raise ValueError("half must be 'upper' or 'right'")
    return np.outer(radii, np.exp(1j * angles)).ravel()


def positive_axis_grid(r_scale: float, n: int = 200,
                       decades: float = 12.0) -> np.ndarray:
    return np.logspace(math.log10(r_scale) - decades / 2,
                       math.log10(r_scale) + decades / 2, n)


def _worst(values: np.ndarray, grid: np.ndarray):
    """Largest violation (most negative value) and where it occurred."""
    i = int(np.argmin(values))
    return -float(values[i]), grid[i]


def cm_check_relaxation(model, hp_grid=None, axis_grid=None) -> CheckReport:
    """Sampled complete-monotonicity criterion for the relaxation modulus:
    Im Q(p) >= 0 on the open upper half-plane and Q(p)/p >= 0 on the
    positive real axis, within a relative roundoff allowance."""
    from .wavenumber import complex_modulus

    scale = getattr(model, "tau", None)
    r_scale = 1.0 / scale if scale else 1.0
    if hp_grid is None:
        hp_grid = halfplane_grid(r_scale)
    if axis_grid is None:
        axis_grid = positive_axis_grid(r_scale)
    if len(hp_grid) == 0 or len(axis_grid) == 0:
        raise ValueError("grids must be nonempty")
    if np.any(np.imag(hp_grid) <= 0.0):
        raise ValueError("half-plane grid must lie strictly inside C+")

    q_hp = np.asarray(complex_modulus(model, hp_grid))
    rel_im = np.imag(q_hp) / np.abs(q_hp)
    q_ax = np.asarray(complex_modulus(model, axis_grid + 0.0j))
    rel_ax = np.real(q_ax) / np.abs(q_ax)  # boundary values are real

    v1, loc1 = _worst(rel_im, hp_grid)
    v2, loc2 = _worst(rel_ax, axis_grid)
    worst, loc = (v1, loc1) if v1 >= v2 else (v2, loc2)
    return CheckReport(
        name="cm-relaxation",
        passed=worst <= _SIGN_TOL,
        worst_violation=worst,
        location=loc,
        grid=f"{len(hp_grid)} upper half-plane + {len(axis_grid)} axis "
             f"points, 12 decades",
    )


def cbf_check(f, hp_grid, axis_grid, name: str = "cbf") -> CheckReport:
    """Sampled complete-Bernstein criteria for an evaluator ``f``:
    non-negative and non-decreasing on the positive real axis, and
    Im f >= 0 on the open upper half-plane (Pick-Nevanlinna)."""
    axis_grid = np.sort(np.asarray(axis_grid, dtype=float))
    f_ax = np.real(np.asarray(f(axis_grid + 0.0j)))
    ax_scale = np.abs(f_ax) + np.max(np.abs(f_ax)) + 1e-300
    v_pos, loc_pos = _worst(f_ax / ax_scale, axis_grid)
    steps = np.diff(f_ax) / (ax_scale[1:])
    if len(steps):
        v_mon, loc_mon = _worst(steps, axis_grid[1:])
    else:
        v_mon, loc_mon = 0.0, axis_grid[0]
    f_hp = np.asarray(f(hp_grid))
    v_im, loc_im = _worst(np.imag(f_hp) / np.abs(f_hp), hp_grid)

    worst, loc = max(
        ((v_pos, loc_pos), (v_mon, loc_mon), (v_im, loc_im)),
        key=lambda t: t[0],
    )
    return CheckReport(
        name=name,
        passed=worst <= _SIGN_TOL,
        worst_violation=worst,
        location=loc,
        grid=f"{len(hp_grid)} upper half-plane + {len(axis_grid)} axis points",
    )


def kk_residual(model, omega: float, omega0: float) -> float:
    """|LHS - RHS| of the once-subtracted Kramers-Kronig relation

        A(w) - A(w0) = -((w - w0)/pi) vp int [D(w') - D(w0)] /
                       ((w' - w0)(w' - w)) dw'

    The negative half-line is folded onto (0, inf) using the oddness of D,
    and the principal value is one trapezoid sum in s = ln w' whose step
    divides |ln(w/w0)|, so both poles fall midway between nodes.  The D/w'
    parts of the direct and folded terms cancel, so the summand decays
    like w' at 0 and like 1/w' at infinity for every medium; nodes reach
    40 e-folds beyond both frequencies.  The summand is analytic in the
    strip |Im s| < pi/2 except for the simple pole at ln w, so the
    midpoint sum is the principal value up to O(exp(-pi^2/step)) (the
    trapezoid rule on a strip; Trefethen & Weideman, SIAM Rev. 56 (2014)).
    A, D and D(w0) come from one vectorised evaluation of beta.
    """
    if not (0.0 < omega < math.inf and 0.0 < omega0 < math.inf):
        raise ValueError("omega and omega0 must be positive and finite")
    gap = abs(math.log(omega / omega0))
    if not gap >= _KK_MIN_GAP:
        raise ValueError(f"|ln(omega/omega0)| must be at least {_KK_MIN_GAP}")
    step = gap / math.ceil(gap / _KK_STEP)
    s_w = math.log(omega)
    k_lo = math.floor((math.log(min(omega, omega0)) - _KK_REACH - s_w) / step)
    k_hi = math.ceil((math.log(max(omega, omega0)) + _KK_REACH - s_w) / step)
    u = np.exp(s_w + (np.arange(k_lo, k_hi) + 0.5) * step)
    beta = dispersion_attenuation(
        model, -1j * np.concatenate((u, (omega, omega0))))
    att, dis = beta.real, -beta.imag
    d, a_w, a_w0, d0 = dis[:-2], att[-2], att[-1], dis[-1]
    terms = ((d - d0) / ((u - omega0) * (u - omega))
             - (d + d0) / ((u + omega0) * (u + omega))) * u
    rhs = -(omega - omega0) / math.pi * step * float(np.sum(terms))
    res = abs(a_w - a_w0 - rhs)
    if not math.isfinite(res):
        raise PVConvergenceError("Kramers-Kronig lattice sum is not finite")
    return res


def bernstein_primitive_f(measure: SpectralMeasure, t: float) -> float:
    """Bernstein primitive f(t) = int (1 - exp(-t r)) h(r)/r dr.

    This is the running integral of the LICM kernel whose second
    distributional derivative has the dispersion-attenuation function as
    its Laplace transform; f(0) = 0, f is non-decreasing and concave.  For
    a power-law medium beta(p) = C p^a it equals C t^(1-a)/Gamma(2-a).
    """
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0

    def weight(r):
        return -math.expm1(-t * r) / r

    return integrate_measure(measure, weight, landmarks=(1.0 / t,),
                             weight_low_exp=0.0, weight_high_exp=1.0)


def divided_differences(x, y, order: int) -> np.ndarray:
    """All divided differences f[x_i, ..., x_{i+order}] on a grid.

    For a completely monotonic f these alternate in sign with the order
    ((-1)^k f[x_i..x_{i+k}] >= 0), which is the samplable version of the
    derivative-sign ladder valid on non-uniform (log) grids.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(y, dtype=float).copy()
    for k in range(1, order + 1):
        d = (d[1:] - d[:-1]) / (x[k:] - x[:-k])
    return d


def winding_number(f, contour: np.ndarray) -> int:
    """Winding number of f along a closed sampled contour (last point must
    repeat the first); raises if the sampling cannot track the phase."""
    vals = np.asarray(f(contour))
    if np.any(vals == 0.0):
        raise ValueError("contour passes through a zero")
    dphi = np.angle(vals[1:] / vals[:-1])
    if np.max(np.abs(dphi)) > 2.5:
        raise ValueError("phase step near pi: contour too coarse or too "
                         "close to a zero")
    return int(round(float(np.sum(dphi)) / (2.0 * math.pi)))


def _rect_contour(w_lo, w_hi, eps, height, n=600):
    """Closed rectangle [w_lo, w_hi] x [eps, height], log-spaced edges.

    Kept strictly inside the open first quadrant: the wave number has a
    boundary zero at omega = 0, and zeros off the imaginary axis would come
    in mirror pairs by conjugate symmetry, so this quadrant is decisive.
    """
    lo_h = np.geomspace(w_lo, w_hi, n)
    lo_v = np.geomspace(eps, height, n)
    bottom = lo_h + 1j * eps
    right = w_hi + 1j * lo_v
    top = lo_h[::-1] + 1j * height
    left = w_lo + 1j * lo_v[::-1]
    return np.concatenate([bottom, right, top, left, bottom[:1]])


def minimum_phase_check(model, omega_grid=None, name="minimum-phase"
                        ) -> CheckReport:
    """Zero-freeness of the wave number in the upper omega half-plane.

    Checks |kappa(-i w)| > 0 on a log-polar grid and that the winding
    number of kappa(-i w) along a rectangular contour in Im w > 0 is zero.
    ``model`` may also be a callable w -> f(w) (used for synthetic
    counterexamples).
    """
    if callable(model) and not hasattr(model, "tau"):
        fn = model
        r_scale = 1.0
    else:
        def fn(w):
            return wave_number(model, -1j * np.asarray(w, complex))

        r_scale = 1.0 / model.tau if hasattr(model, "tau") else 1.0

    if omega_grid is None:
        omega_grid = halfplane_grid(r_scale, half="upper")
    vals = np.asarray(fn(omega_grid))
    # kappa grows ~ |w|, so compare against the local linear scale rather
    # than the global maximum
    slope = np.max(np.abs(vals) / np.abs(omega_grid))
    mags = np.abs(vals) / (np.abs(omega_grid) * slope)
    i = int(np.argmin(mags))

    contour = _rect_contour(1e-3 * r_scale, 1e3 * r_scale,
                            1e-3 * r_scale, 1e3 * r_scale)
    wind = winding_number(fn, contour)

    passed = mags[i] > 1e-8 and wind == 0
    return CheckReport(
        name=name,
        passed=bool(passed),
        worst_violation=float(abs(wind)) if wind != 0 else
        max(1e-8 - float(mags[i]), 0.0),
        location=omega_grid[i],
        grid=f"{len(omega_grid)} grid points, rectangular contour winding "
             f"{wind}",
    )


@dataclass(frozen=True)
class PaleyWienerReport:
    finite: bool
    integral: float
    tail_estimate: float
    growth_exponent: float


def paley_wiener_diagnostic(mag_samples, omega_grid) -> PaleyWienerReport:
    """Causality admissibility of an amplitude spectrum |M(omega)|.

    Estimates int |ln|M|| / (1 + w^2) dw by the trapezoid rule on the given
    grid and bounds the tail by fitting the growth |ln|M|| ~ c w^e on the
    last decade.  Growth with e >= 1 makes the integral diverge: such an
    amplitude cannot belong to a causal (one-sided) time function.
    """
    w = np.asarray(omega_grid, dtype=float)
    m = np.asarray(mag_samples, dtype=float)
    if np.any(m <= 0.0):
        raise ValueError("|M| must be positive (log undefined)")
    integrand = np.abs(np.log(m)) / (1.0 + w * w)
    integral = float(np.trapezoid(integrand, w))

    mask = w >= w[-1] / 10.0
    tail_mag = np.abs(np.log(m[mask]))
    if np.all(tail_mag < 1e-300):
        return PaleyWienerReport(True, integral, 0.0, 0.0)
    e, logc = np.polyfit(np.log(w[mask]), np.log(tail_mag + 1e-300), 1)
    c = math.exp(logc)
    if e >= 0.98:
        return PaleyWienerReport(False, integral, math.inf, float(e))
    tail = c * w[-1] ** (e - 1.0) / (1.0 - e)
    return PaleyWienerReport(True, integral + tail, float(tail), float(e))
