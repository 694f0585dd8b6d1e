"""Two-parameter Mittag-Leffler function on the negative real axis and the
time-domain Cole-Cole relaxation modulus.

E_{a,b}(z) is the inverse Laplace transform, at t = 1, of
s^(a-b)/(s^a - z).  For real z <= 0 and 0 < a <= 1 that transform has no
pole off the closed negative real axis, so one contour serves every z:
the parabola s(u) = mu (1 + iu)^2, which wraps the cut, sampled by the
trapezoid rule (Garrappa, SIAM J. Numer. Anal. 53 (2015) 1350-1369; the
parabolic contour after Weideman & Trefethen, Math. Comp. 76 (2007)
1341-1356).  Its step h, node count N and scale mu follow Garrappa's
optimal parameters for a lone singularity at the origin of strength
p = max(0, 2(b - a - 1)), and depend on (a, b) only:

    E_{a,b}(z) = Re sum_k w_k / (s_k^a - z),
    w_k = c_k h/(2 pi i) e^(s_k) s_k^(a-b) s'(u_k),

with u_k = k h, k = 0..N, and c_0 = 1, c_k = 2 folding in the conjugate
half of the contour.  The nodes s_k^a and weights w_k are cached per
parameter pair; evaluation is one vectorised sum over z.

The contour aims at an absolute accuracy of 1e-15 on the scale of the
terms; where the origin singularity leaves no such contour within 200
nodes the target is relaxed tenfold at a time, as in Garrappa's reference
code.  Every value is checked against the error floor target x sum_k |term|
and MLToleranceError is raised when that exceeds 1e-8 of the value (or
when no contour reaches 1e-9).  E_{1,1}(z) = exp(z) and E_{a,b}(0) =
1/Gamma(b) are returned exactly.

Only real z <= 0 is supported: that is all the Cole-Cole relaxation modulus
and the wavefront computations need.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import rgamma

from .measures import ColeCole

__all__ = ["MLToleranceError", "cole_cole_relaxation_modulus",
           "mittag_leffler", "ml_e1_neg"]

_TOL = 1e-8            # relative accuracy contract of the evaluator
_TARGET = 1e-15        # contour design accuracy before any relaxation
_LOOSEST = 1e-9        # no contour aiming coarser than this is used
_MAX_NODES = 200
_LOG_EPS = math.log(np.finfo(float).eps)


class MLToleranceError(RuntimeError):
    """Requested tolerance unachievable; carries the achieved estimate."""

    def __init__(self, achieved: float):
        super().__init__(f"Mittag-Leffler tolerance not met "
                         f"(achieved {achieved:.2e} relative)")
        self.achieved = achieved


def _parabola(p: float, log_target: float):
    """(mu, h, N) of the optimal parabola at t = 1 for an origin
    singularity of strength p (Garrappa's OptimalParam_RU with
    phi(s*) = 0), or None when roundoff admits no such contour."""
    phibar = 0.01
    for _ in range(100):
        ratio = log_target / phibar
        n = math.ceil(phibar / math.pi
                      * (1.0 - 1.5 * ratio + math.sqrt(1.0 - 2.0 * ratio)))
        big_a = math.pi * n / phibar
        sq_mu = math.sqrt(phibar) * abs(4.0 - big_a) \
            / abs(7.0 - math.sqrt(1.0 + 12.0 * big_a))
        if p == 0.0:
            break
        fbar = (math.sqrt(phibar) / sq_mu) ** -p
        if 1.0 < fbar < 10.0:
            break
        phibar = (5.0 ** (-1.0 / p) * sq_mu) ** 2
    else:
        return None
    mu = sq_mu ** 2
    h = (-3.0 * big_a - 2.0 + 2.0 * math.sqrt(1.0 + 3.0 * big_a)) \
        / (4.0 - big_a) / n
    # e^mu amplifies rounding: keep it below target/eps
    threshold = log_target - _LOG_EPS
    if mu > threshold:
        phibar = 0.0 if p == 0.0 else 5.0 ** (-2.0 / p) * mu
        if phibar >= threshold:
            return None
        w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_target))
        u = math.sqrt(-phibar / _LOG_EPS)
        mu = threshold
        n = math.ceil(w * log_target / (2.0 * math.pi) / (u * w - 1.0))
        h = w / n
    return mu, h, n


@lru_cache(maxsize=256)
def _crossover(alpha: float, beta: float):
    """Contour of one parameter pair: (s_k^alpha, w_k, target accuracy).

    The name is kept for the benchmark tracer, which counts the misses of
    this cache as the cold cost of a new pair.
    """
    p = max(0.0, 2.0 * (beta - alpha - 1.0))
    target = _TARGET
    while (params := _parabola(p, math.log(target))) is None \
            or params[2] > _MAX_NODES:
        target *= 10.0
        if target > _LOOSEST:
            raise MLToleranceError(math.inf)
    mu, h, n = params
    u = h * np.arange(n + 1)
    s = mu * (1.0 + 1j * u) ** 2
    w = (h / (2j * math.pi)) * np.exp(s) * s ** (alpha - beta) \
        * (2.0 * mu * (1j - u))
    w[1:] *= 2.0
    s_alpha = s ** alpha
    # every caller shares the cached arrays
    s_alpha.flags.writeable = w.flags.writeable = False
    return s_alpha, w, target


def mittag_leffler(alpha: float, beta_param: float, z):
    """E_{alpha,beta}(z) for real z <= 0 (scalar or array), alpha in
    (0, 1], beta > 0.

    Relative accuracy 1e-8 or better; raises MLToleranceError (carrying the
    achieved estimate) if that cannot be met.  A scalar z gives a float.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not beta_param > 0.0:
        raise ValueError("beta must be positive")
    z = np.asarray(z, dtype=float)
    if not (z <= 0.0).all():
        raise ValueError("only z <= 0 is supported")
    if alpha == 1.0 and beta_param == 1.0:
        out = np.exp(z)
    else:
        s_alpha, w, target = _crossover(alpha, beta_param)
        terms = w / (s_alpha - z[..., None])
        out = terms.sum(axis=-1).real
        floor = target * np.abs(terms).sum(axis=-1)
        at_zero = z == 0.0
        bad = (floor > _TOL * np.abs(out)) & ~at_zero
        if bad.any():
            with np.errstate(divide="ignore"):
                ratio = np.atleast_1d(floor / np.abs(out))[np.atleast_1d(bad)]
            raise MLToleranceError(float(ratio.max()))
        if at_zero.any():
            out = np.where(at_zero, rgamma(beta_param), out)
    return float(out) if np.ndim(out) == 0 else out


def cole_cole_relaxation_modulus(model: ColeCole, t: float) -> float:
    """G(t) = G_inf [1 + (a - 1) E_alpha(-(t/tau)^alpha)] for t > 0.

    The time constant under the fractional power is tau^alpha, which is
    what makes the Laplace transform reproduce the Cole-Cole modulus.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    e = mittag_leffler(model.alpha, 1.0, -((t / model.tau) ** model.alpha))
    return model.g_inf * (1.0 + (model.a - 1.0) * e)


def ml_e1_neg(beta_param: float, y):
    """Vectorised E_{1,beta}(-y) for y >= 0 and 1 < beta <= 2, the
    analytic wavefront-tail terms of the Green's synthesis."""
    if not 1.0 < beta_param <= 2.0:
        raise ValueError("ml_e1_neg supports 1 < beta <= 2")
    return mittag_leffler(1.0, beta_param, -np.asarray(y, dtype=float))
