"""Adaptive quadrature of spectral-measure integrals.

The integrands here are products of a measure density ``h`` and a smooth
weight, peaked near the weight's landmark rates and decaying algebraically
toward 0 and infinity.  Unbounded ranges are integrated in log space over a
window wide enough that the discarded part is below roundoff, with the
remaining tail added analytically from the measure's tail exponent.  Bounded
supports are integrated directly, with a square-root substitution at
endpoints where the density is singular (or merely non-smooth).
"""

from __future__ import annotations

import math
import sys

from scipy.integrate import quad

__all__ = ["QuadratureError", "integrate_density", "integrate_measure"]

_EPSREL = 1e-11
_LIMIT = 200
# log-space half-widths: the integrand is resolved around each landmark
_OFFSETS = (1.5, 5.0, 15.0)
# e^-45 ~ 3e-20: discarded mass is below double roundoff
_LOG_REACH = 45.0
# log-space limits of the normal doubles; a window past them would
# overflow exp() or underflow the rate to 0
_LOG_MIN = math.log(sys.float_info.min)
_LOG_MAX = math.log(sys.float_info.max)


class QuadratureError(RuntimeError):
    """Raised when the requested tolerance was not reached.

    Carries the achieved absolute error estimate in ``achieved``.
    """

    def __init__(self, msg: str, achieved: float):
        super().__init__(f"{msg} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


def _piece(f, a, b):
    if not b > a:
        return 0.0, 0.0
    val, err, *_ = quad(f, a, b, epsabs=0.0, epsrel=_EPSREL, limit=_LIMIT,
                        full_output=1)
    return val, err


def integrate_density(f, r_lo, r_hi, *, landmarks=(), low_exp=0.0,
                      high_exp=None, sqrt_left=False, scale=1.0,
                      rel_tol=1e-8):
    """Integrate ``f`` over (r_lo, r_hi).

    Parameters
    ----------
    f:
        scalar integrand, zero outside (r_lo, r_hi).
    landmarks:
        rates where the integrand changes character (e.g. the probe
        frequency); integration intervals are split there.
    low_exp:
        power behaviour ``f = O(r**low_exp)`` as r -> 0 (only used when
        r_lo == 0; must exceed -1).
    high_exp:
        decay ``f = O(r**-high_exp)`` at infinity (required when r_hi is
        inf; must exceed 1).
    sqrt_left:
        substitute r = r_lo + s**2 on the first interval (integrable
        endpoint singularity, or merely a non-smooth edge).
    scale:
        characteristic rate of the measure, used to centre the log window.
    """
    if r_hi <= r_lo:
        return 0.0
    marks = sorted({m for m in landmarks if r_lo < m < r_hi})
    total = 0.0
    err = 0.0

    if math.isinf(r_hi):
        refs = [math.log(m) for m in marks]
        refs.append(math.log(scale))
        if r_lo > 0.0:
            refs.append(math.log(r_lo))
        if high_exp is None or high_exp <= 1.0:
            raise QuadratureError("divergent or unspecified tail exponent",
                                  math.inf)
        u_hi = max(refs) + _LOG_REACH / min(high_exp - 1.0, 3.0)
        if r_lo == 0.0:
            if low_exp <= -1.0:
                raise QuadratureError("integrand not integrable at 0",
                                      math.inf)
            u_lo = min(refs) - _LOG_REACH / min(low_exp + 1.0, 3.0)
        else:
            u_lo = math.log(r_lo)
        if u_lo < _LOG_MIN or u_hi > _LOG_MAX:
            raise QuadratureError("integration window beyond the double "
                                  "range", math.inf)

        breaks = {u_lo, u_hi}
        for u in refs:
            breaks.add(u)
            for d in _OFFSETS:
                breaks.update((u - d, u + d))
        grid = sorted(b for b in breaks if u_lo <= b <= u_hi)

        def g(u):
            r = math.exp(u)
            return f(r) * r

        start = 0
        if sqrt_left and r_lo > 0.0:
            # handle the singular left edge in r-space, then log space
            r_edge = math.exp(min(grid[1], math.log(r_lo) + 0.7))
            v, e = _sqrt_left_piece(f, r_lo, r_edge)
            total += v
            err += e
            grid = [math.log(r_edge)] + [u for u in grid
                                         if u > math.log(r_edge)]
        for a, b in zip(grid[start:], grid[start + 1:]):
            v, e = _piece(g, a, b)
            total += v
            err += e
        # analytic algebraic tail beyond the window
        r_cut = math.exp(u_hi)
        f_cut = f(r_cut)
        total += f_cut * r_cut / (high_exp - 1.0)
    else:
        grid = [r_lo] + marks + [r_hi]
        first = True
        for a, b in zip(grid, grid[1:]):
            if first and sqrt_left:
                v, e = _sqrt_left_piece(f, a, b)
                first = False
            else:
                v, e = _piece(f, a, b)
                first = False
            total += v
            err += e

    if not (math.isfinite(total) and math.isfinite(err)):
        raise QuadratureError("non-finite integral", err)
    if err > rel_tol * abs(total) + 1e-300:
        raise QuadratureError("quadrature did not converge", err)
    return total


def _sqrt_left_piece(f, a, b):
    s_max = math.sqrt(b - a)

    def g(s):
        return 2.0 * s * f(a + s * s)

    return _piece(g, 0.0, s_max)


def integrate_measure(m, weight, *, landmarks=(), weight_low_exp=0.0,
                      weight_high_exp=0.0, rel_tol=1e-8):
    """Integrate ``h(r) * weight(r)`` over the support of measure ``m``.

    ``weight_low_exp`` / ``weight_high_exp`` describe the weight's power
    behaviour at 0 and infinity (weight = O(r**low) at 0, O(r**-high) at
    inf) so the net integrand exponents can be formed from the measure's
    tail metadata.
    """
    r_lo, r_hi = m.support
    if r_hi <= r_lo:
        return 0.0

    def f(r):
        return float(m.density(r)) * weight(r)

    low = (m.tail_exponent_low if m.tail_exponent_low is not None else 0.0)
    high = (None if math.isinf(r_hi) and math.isinf(m.tail_exponent_high)
            else m.tail_exponent_high + weight_high_exp)
    if math.isinf(r_hi) and math.isinf(m.tail_exponent_high):
        # faster-than-algebraic decay: treat as steep power
        high = 60.0
    return integrate_density(
        f, r_lo, r_hi,
        landmarks=tuple(landmarks) + (m.r_scale,),
        low_exp=low + weight_low_exp,
        high_exp=high,
        sqrt_left=m.sqrt_singular_left,
        scale=m.r_scale,
        rel_tol=rel_tol,
    )
