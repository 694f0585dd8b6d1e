"""Quadrature of spectral-measure integrals.

Two routes, one per use:

* ``integrate_measure`` integrates ``h(r) * weight(r)`` at one point by
  adaptive scalar quadrature.  The integrands are peaked near the weight's
  landmark rates and decay algebraically toward 0 and infinity.  Unbounded
  ranges are integrated in log space over a window wide enough that the
  discarded part is below roundoff, with the remaining tail added
  analytically from the measure's tail exponent.  Bounded supports are
  integrated directly, with a square-root substitution at endpoints where
  the density is singular (or merely non-smooth).
* ``integrate_grid`` forms the attenuation and dispersion integrals for a
  whole frequency grid from one node set.  Each piece of the support is
  mapped onto the real line so that its integrand is smooth and decays
  exponentially at both ends, the density is sampled once per node, and
  the trapezoid rule (exponentially convergent for such integrands) is
  refined by halving its step until every value meets the tolerance.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

__all__ = ["GridIntegrals", "QuadratureError", "integrate_density",
           "integrate_grid", "integrate_measure"]

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


# -- one node set for a frequency grid ---------------------------------------

# e^-45 ~ 3e-20: a mapped integrand has decayed below double roundoff this
# many units of its slowest exponential rate past its peak
_REACH = 45.0
# first trapezoid step in the mapped variable.  The kernels have their
# poles pi/2 off the axis in log rate, so the error of a step h is about
# exp(-pi^2/h): 3e-9 at 0.5, 7e-18 at 0.25
_H0 = 0.5
# the lattice is offset from 0 by a non-dyadic fraction of the first step,
# so no halving ever puts a node on the centre of a tanh^2 piece
_SHIFT = _H0 / 3.0
# the relative tolerance of every value, as on the scalar route; more
# nodes than _MAX_NODES and the grid raises rather than refine further
_GRID_RTOL = 1e-8
_MAX_NODES = 1 << 17
# frequencies and nodes per kernel block: the node x frequency temporaries
# stay below 2048 x 64 doubles whatever the grid length
_BLOCK = 64
_CHUNK = 2048


class GridIntegrals(NamedTuple):
    """Attenuation and dispersion integrals on a frequency grid.

    ``rel_error`` is the worst step-halving estimate over all values,
    relative to its value; ``nodes`` counts the density evaluations.
    """

    attenuation: np.ndarray
    dispersion: np.ndarray
    rel_error: float
    nodes: int


def _exp_map(c):
    """r = c + e^v on (c, inf): log rate in the distance from c (u = ln r
    when c = 0)."""
    def fmap(v):
        e = np.exp(v)
        return c + e, e
    return fmap


def _logistic_map(a, b):
    """r = a + (b - a) expit(v) on (a, b): log rate in the distance from
    either edge, so algebraic edge behaviour decays exponentially."""
    def fmap(v):
        e = np.exp(-v)
        s = 1.0 / (1.0 + e)
        return a + (b - a) * s, (b - a) * s * (e * s)
    return fmap


def _tanh2_map(c, m):
    """r = c + (m - c) tanh^2 v on the whole line, half weight per side.

    An inverse-square-root edge at c > 0 becomes a smooth even integrand
    in v with no node near v = 0, so r - c is never a few ulps of c."""
    def fmap(v):
        t = np.tanh(v)
        return c + (m - c) * t * t, (m - c) * np.abs(t) / np.cosh(v) ** 2
    return fmap


def _pieces(m, w_lo, w_hi):
    """(map, v_lo, v_hi) for every piece of the support of ``m``.

    The support splits at its edges and at ``m.breaks``.  Each window
    reaches ``_REACH`` over the slowest exponential rate of its mapped
    integrand past the rates where the density or the kernels change
    character (the grid ends and ``m.r_scale``).  A(w) is the slower at 0,
    where its kernel tends to 1, and D(w) at infinity, where its kernel
    decays like w/r.
    """
    r_lo, r_hi = m.support
    k_lo = m.tail_exponent_low if m.tail_exponent_low is not None else 0.0
    pts = [r_lo, *sorted(b for b in m.breaks if r_lo < b < r_hi), r_hi]
    pieces = []
    if m.sqrt_singular_left and r_lo > 0.0:
        mid = r_lo + min(r_lo, 0.5 * (pts[1] - r_lo))
        pieces.append((_tanh2_map(r_lo, mid), -0.5 * _REACH, 0.5 * _REACH))
        pts[0] = mid
    for a, b in zip(pts, pts[1:]):
        if math.isinf(b):
            if not m.tail_exponent_high > 0.0:
                raise QuadratureError("divergent tail", math.inf)
            hi = (max(math.log(w_hi), math.log(m.r_scale),
                      math.log(a) if a > 0.0 else -math.inf)
                  + _REACH / min(m.tail_exponent_high, 3.0))
            fmap = _exp_map(a)
            if a > 0.0:
                lo = math.log(a) - _REACH
            elif k_lo <= -1.0:
                raise QuadratureError("integrand not integrable at 0",
                                      math.inf)
            else:
                lo = (min(math.log(w_lo), math.log(m.r_scale))
                      - _REACH / min(1.0 + k_lo, 3.0))
        else:
            rate = 1.0 + min(k_lo, 0.0) if a == 0.0 else 1.0
            fmap, hi = _logistic_map(a, b), _REACH
            lo = min(0.0, math.log(max(w_lo, a) / (b - a))) - _REACH / rate
        if lo < _LOG_MIN or hi > _LOG_MAX:
            raise QuadratureError("integration window beyond the double "
                                  "range", math.inf)
        pieces.append((fmap, lo, hi))
    return pieces


def _kernel_sums(r, g, omega):
    """sum_i g_i K(r_i/omega_j) for K_A(t) = 1/(1 + t^2) and
    K_D(t) = t/(1 + t^2), block by block.

    The kernels are formed from q = min(r, w)/max(r, w) <= 1, so neither
    t^2 nor 1/t is ever formed: nothing overflows for any positive r, w."""
    att = np.zeros_like(omega)
    dis = np.zeros_like(omega)
    for j in range(0, omega.size, _BLOCK):
        w = omega[j:j + _BLOCK]
        for i in range(0, r.size, _CHUNK):
            rr, gg = r[i:i + _CHUNK, None], g[i:i + _CHUNK]
            q = np.minimum(rr, w)
            q /= np.maximum(rr, w)
            d = q * q
            d += 1.0
            np.divide(1.0, d, out=d)             # 1/(1 + q^2)
            k = q * d                            # K_D, symmetric in t, 1/t
            dis[j:j + _BLOCK] += gg @ k
            np.multiply(q, k, out=k)             # K_A above w: q^2/(1 + q^2)
            np.copyto(k, d, where=rr < w)        # ... below w: 1/(1 + q^2)
            att[j:j + _BLOCK] += gg @ k
    return att, dis


def integrate_grid(m, omega) -> GridIntegrals:
    """A(w) = int h K_A(r/w) dr and D(w) = int h K_D(r/w) dr for a sorted
    grid of positive frequencies, from one node set.

    The density is evaluated once per node, in one call per level; every
    level halves the trapezoid step of all pieces and adds only the new
    nodes.  The value of a level is accepted when it moved from the last
    one by at most 1e-8 relative, at every frequency and for both
    integrals; otherwise QuadratureError is raised, never a non-finite
    value.
    """
    omega = np.asarray(omega, dtype=float)
    r_lo, r_hi = m.support
    if r_hi <= r_lo:
        return GridIntegrals(np.zeros_like(omega), np.zeros_like(omega),
                             0.0, 0)
    pieces = _pieces(m, float(omega[0]), float(omega[-1]))
    att = dis = None
    nodes, level, achieved = 0, 0, math.inf
    while True:
        # level 0 is the lattice _SHIFT + k*_H0; every later level adds the
        # midpoints of the lattice so far and halves the step
        step = _H0 / 2 ** level
        offset, spacing = ((_SHIFT, _H0) if level == 0
                           else (_SHIFT + step, 2.0 * step))
        lattices = [offset + spacing * np.arange(
            math.ceil((lo - offset) / spacing),
            math.floor((hi - offset) / spacing) + 1) for _, lo, hi in pieces]
        count = sum(v.size for v in lattices)
        if nodes + count > _MAX_NODES:
            raise QuadratureError("quadrature did not converge", achieved)
        mapped = [fmap(v) for (fmap, _, _), v in zip(pieces, lattices)]
        r = np.concatenate([rv for rv, _ in mapped])
        g = np.concatenate([jac for _, jac in mapped])
        g *= step * m.density(r)
        nodes += count
        if not np.all(np.isfinite(g)):
            raise QuadratureError("non-finite integrand", math.inf)
        new_att, new_dis = _kernel_sums(r, g, omega)
        if att is None:
            att, dis = new_att, new_dis
        else:
            prev_att, prev_dis = att, dis
            att = 0.5 * prev_att + new_att
            dis = 0.5 * prev_dis + new_dis
            err_att = np.abs(att - prev_att)
            err_dis = np.abs(dis - prev_dis)
            achieved = float(max(np.max(err_att), np.max(err_dis)))
            if (np.all(err_att <= _GRID_RTOL * att)
                    and np.all(err_dis <= _GRID_RTOL * dis)):
                break
        level += 1
    if not (np.all(np.isfinite(att)) and np.all(np.isfinite(dis))):
        raise QuadratureError("non-finite integral", math.inf)
    rel = max(float(np.max(np.divide(e, v, out=np.zeros_like(v),
                                     where=v > 0.0)))
              for e, v in ((err_att, att), (err_dis, dis)))
    return GridIntegrals(att, dis, rel, nodes)
