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
1/Gamma(b) are returned directly, the latter from ``math.gamma`` (within
a few ulps of 1/Gamma, as scipy's ``rgamma`` is) and 0.0 past its
overflow at b > 171.6, where 1/Gamma(b) is below the normal doubles and
``rgamma`` returns 0.0 too.  The module needs numpy and math only.

Only real z <= 0 is supported: that is all the Cole-Cole relaxation modulus
and the wavefront computations need.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

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


def _rgamma(x: float) -> float:
    """1/Gamma(x) for x > 0.  Where Gamma(x) overflows, 1/Gamma(x) is x
    itself to double precision below 1 and below the normal doubles above
    171.6, returned as 0.0."""
    try:
        return 1.0 / math.gamma(x)
    except OverflowError:
        return x if x < 1.0 else 0.0


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
        try:
            fbar = (math.sqrt(phibar) / sq_mu) ** -p
        except OverflowError:   # a base below 1 to a large power: too big
            fbar = math.inf
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


def _check_floor(val, floor, live) -> None:
    """MLToleranceError where the error floor of a contour sum exceeds 1e-8
    of its value at a live point (z != 0)."""
    bad = (floor > _TOL * np.abs(val)) & live
    if bad.any():
        with np.errstate(divide="ignore"):
            ratio = np.atleast_1d(floor / np.abs(val))[np.atleast_1d(bad)]
        raise MLToleranceError(float(ratio.max()))


def mittag_leffler(alpha: float, beta_param: float, z):
    """E_{alpha,beta}(z) for real z <= 0 (scalar or array), alpha in
    (0, 1], beta > 0.

    Relative accuracy 1e-8 or better; raises MLToleranceError (carrying the
    achieved estimate) if that cannot be met.  z = 0 gives 1/Gamma(beta)
    without a contour, for every beta.  A scalar z gives a float.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not beta_param > 0.0:
        raise ValueError("beta must be positive")
    z = np.asarray(z, dtype=float)
    if not (z <= 0.0).all():
        raise ValueError("only z <= 0 is supported")
    at_zero = z == 0.0
    if alpha == 1.0 and beta_param == 1.0:
        out = np.exp(z)
    elif at_zero.all():
        # no contour needed, nor one found for every beta
        out = np.full(z.shape, _rgamma(beta_param))
    else:
        s_alpha, w, target = _crossover(alpha, beta_param)
        terms = w / (s_alpha - z[..., None])
        out = terms.sum(axis=-1).real
        _check_floor(out, target * np.abs(terms).sum(axis=-1), ~at_zero)
        if at_zero.any():
            out = np.where(at_zero, _rgamma(beta_param), out)
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


def ml_e1_neg(beta_param, y):
    """Vectorised E_{1,beta}(-y) for y >= 0 and 0 < beta < 3:
    y^(beta-1) E_{1,beta}(-y) is the inverse Laplace transform of a
    fractional power over one pole, p^(1-beta)/(p + 1).  The Green's
    synthesis does not use it: it adds its small-p peels back on contours
    (greens._contour_inverse).

    A sequence of betas gives one row per beta over the same y, and the
    betas share the contour work where their contours share nodes.  From
    beta = 1 up, E_{1,beta}(-y) is completely monotonic in y and has the
    evaluator's relative accuracy.  Below 1 it changes sign, where no
    relative accuracy exists, and it is formed as
    1/Gamma(beta) - y E_{1,beta+1}(-y), to 1e-8 of y E_{1,beta+1}(-y), from
    the same row as beta + 1 when the list holds both.
    """
    betas = np.atleast_1d(np.asarray(beta_param, dtype=float))
    if betas.ndim != 1 or not np.all((0.0 < betas) & (betas < 3.0)):
        raise ValueError("ml_e1_neg supports 0 < beta < 3")
    y = np.asarray(y, dtype=float)
    if not (y >= 0.0).all():
        raise ValueError("only y >= 0 is supported")
    z = -y.ravel()
    low = betas < 1.0
    # a beta below 1 takes the row of beta + 1, and equal rows are formed
    # once: a Green's peel has both k alpha and 1 + k alpha among its terms
    _, first, row_of = np.unique(np.round(betas + low, 14), return_index=True,
                                 return_inverse=True)
    shifted = (betas + low)[first]
    rows = np.empty((len(shifted), z.size))
    # betas whose contours have the same nodes (every beta <= 2, whose
    # origin singularity has strength 0) share the divisions
    # 1/(s_k - z), each multiplied by the weights of its betas
    node_sets = {}
    for i, beta in enumerate(shifted.tolist()):
        if beta == 1.0:
            rows[i] = np.exp(z)
        else:
            s_alpha, w, target = _crossover(1.0, beta)
            node_sets.setdefault(s_alpha.tobytes(), (s_alpha, target, []))[
                2].append((i, w))
    for s_alpha, target, members in node_sets.values():
        inv = np.divide(1.0, s_alpha - z[:, None])
        inv_abs = np.abs(inv)
        for i, w in members:
            rows[i] = (inv * w).sum(axis=-1).real
            _check_floor(rows[i], target * (inv_abs * np.abs(w)).sum(axis=-1),
                         z != 0.0)
    rows[:, z == 0.0] = [[_rgamma(beta)] for beta in shifted]
    rows = rows[row_of]
    if low.any():
        rows[low] = [[_rgamma(beta)] for beta in betas[low]] + z * rows[low]
    if np.ndim(beta_param) == 0:
        out = rows[0].reshape(y.shape)
        return float(out) if out.ndim == 0 else out
    return rows
