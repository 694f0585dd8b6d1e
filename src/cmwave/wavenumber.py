"""Complex modulus, dispersion-attenuation function and wave number.

All evaluators live on the cut complex plane |arg p| < pi and use principal
branches throughout.  The dispersion-attenuation function
beta(p) = p int h(r)/(p+r) dr is computed first, in one place, and the wave
number is kappa(p) = p/c_inf + beta(p) for every medium.  For the analytic
families beta comes from the closed-form deficit G0 - Q(p) of the complex
modulus, so it keeps full relative accuracy far above the relaxation rates,
where kappa - p/c_inf would cancel.  Because the complex modulus of a
completely monotonic relaxation modulus maps the upper half-plane into
itself and is positive on the positive real axis, its values never cross
the negative real axis and the principal square root gives the analytic
branch with Re kappa(-i omega) >= 0.

The upper-side boundary value of kappa(p)/p on the cut gives the spectral
density: evaluated from the modulus alone, it is the independent oracle for
the closed-form densities of :mod:`cmwave.measures`, matching them to ~1e-15
relative on the test fixtures and ~2e-13 at the corners of the admissible
domain; a MeasureMedium, whose density is defined directly, raises TypeError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._quad import integrate_power
from .measures import (
    ColeCole,
    ColeDavidson,
    HavriliakNegami,
    SpectralMeasure,
    StandardLinearSolid,
)

__all__ = [
    "MeasureMedium",
    "branch_cut_density",
    "complex_modulus",
    "dispersion_attenuation",
    "wave_number",
]


@dataclass(frozen=True)
class MeasureMedium:
    """Wave medium specified directly by a spectral measure.

    ``c_inf`` may be ``inf`` (no wavefront; kappa(p) = beta(p)).  The
    measure must carry a closed-form ``beta_fn`` for off-axis evaluation.
    """

    measure: SpectralMeasure
    c_inf: float
    rho: float = 1.0

    def __post_init__(self):
        if not (self.c_inf > 0.0):
            raise ValueError("c_inf must be positive (possibly inf)")
        if self.measure.beta_fn is None:
            raise ValueError("MeasureMedium requires a measure with a "
                             "closed-form dispersion-attenuation function")

    @property
    def c0(self) -> float | None:
        from .measures import measure_D_constant

        d = measure_D_constant(self.measure)
        if math.isinf(d):
            return None
        inv = d + (0.0 if math.isinf(self.c_inf) else 1.0 / self.c_inf)
        return 1.0 / inv if inv > 0 else None

    def spectral_measure(self) -> SpectralMeasure:
        return self.measure


def _check_cut(p: np.ndarray) -> None:
    on_cut = (p.real <= 0.0) & (p.imag == 0.0)
    if np.any(on_cut):
        raise ValueError("p on the closed negative real axis (branch cut)")


def _principal_power(z, e):
    """z**e on the principal branch, as a new array.

    Every power that a Green's synthesis bin or a dispersion frequency
    p = -i omega takes lies in the open lower half-plane: (tau p)^alpha and
    1 + (tau p)^alpha.  There the power is taken in polar form,
    |z|^e e^(i e arg z), with real functions; on the negative imaginary
    axis itself, z = -i y, that is y^e (-i)^e, one real power times one
    scalar phase.  Any other z takes np.power.
    """
    z = np.asarray(z)
    if not (np.iscomplexobj(z) and z.size and z.imag.max() < 0.0):
        return np.power(z, e)
    if not z.real.any():
        mag = np.negative(z.imag)
        mag **= e
        return mag * (-1j) ** e
    mag = np.abs(z)
    mag **= e
    angle = np.angle(z)
    angle *= e
    out = np.empty_like(z)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    out.real *= mag
    out.imag *= mag
    return out


def _expm1_log_power(y, gamma, log_b):
    """expm1(log b - gamma log(1 + y)) = b (1 + y)^-gamma - 1 for complex y,
    in real arithmetic: log|1 + y| by log1p for |y| < 1/2 (numpy's complex
    log1p loses digits there) and the real part as
    expm1(m_re) cos(theta) - 2 sin^2(theta/2), so no part cancels."""
    near = np.abs(y) < 0.5
    with np.errstate(divide="ignore"):   # 1 + y = 0 at tau r = 1 on the cut
        log_mod = np.log(np.abs(1.0 + y))
    yn = y[near]
    log_mod[near] = 0.5 * np.log1p(yn.real * (2.0 + yn.real) + yn.imag ** 2)
    m_re = log_b - gamma * log_mod
    theta = gamma * np.arctan2(y.imag, 1.0 + y.real)
    return np.expm1(m_re) * np.cos(theta) - 2.0 * np.sin(0.5 * theta) ** 2 \
        - 1j * np.multiply(np.exp(m_re), np.sin(theta), where=theta != 0.0,
                           out=np.zeros_like(m_re))


def _modulus_parts(model, p):
    """(Q(p), G0 - Q(p)) of an analytic relaxation model, for complex p of
    one dimension or more, as new arrays.

    The deficit G0 - Q is formed in closed form from the same power
    (tau p)^alpha as Q itself, never by subtracting two moduli:
    G_inf (a - 1)/(1 + (tau p)^alpha) for Cole-Cole and the SLS,
    G0 b (1 + (tau p)^alpha)^-gamma for Havriliak-Negami and Cole-Davidson,
    whose Q at b = 1 is -G0 expm1(-gamma log(1 + (tau p)^alpha)).
    """
    if isinstance(model, (ColeCole, StandardLinearSolid)):
        alpha = model.alpha if isinstance(model, ColeCole) else 1.0
        xa = _principal_power(model.tau * p, alpha)
        q = model.a * xa
        q += 1.0
        q *= model.g_inf
        xa += 1.0
        q /= xa
        return q, np.divide(model.g_inf * (model.a - 1.0), xa, out=xa)
    if isinstance(model, (HavriliakNegami, ColeDavidson)):
        alpha = model.alpha if isinstance(model, HavriliakNegami) else 1.0
        xa = _principal_power(model.tau * p, alpha)
        if model.b == 1.0:
            # 1 - (1 + x)^-gamma cancels for small x; -expm1 does not
            q = _expm1_log_power(xa, model.gamma, 0.0)
            q *= -model.g0
        xa += 1.0
        relaxed = _principal_power(xa, -model.gamma)
        if model.b < 1.0:
            q = np.multiply(relaxed, model.b, out=xa)
            np.subtract(1.0, q, out=q)
            q *= model.g0
        relaxed *= model.g0 * model.b
        return q, relaxed
    raise TypeError(f"no complex modulus for {type(model).__name__}")


def complex_modulus(model, p):
    """Q(p) = p * (Laplace transform of the relaxation modulus)."""
    p = np.asarray(p, dtype=complex)
    _check_cut(p)
    if isinstance(model, MeasureMedium):
        q = model.rho * (p / np.asarray(wave_number(model, p))) ** 2
    else:
        q = _modulus_parts(model, np.atleast_1d(p))[0].reshape(p.shape)
    return q if q.shape else complex(q)


def dispersion_attenuation(model, p):
    """beta(p) = p int h(r)/(p+r) dr; Re beta >= 0 on the closed right
    half-plane.

    For the analytic families kappa - p/c_inf is evaluated without the
    cancellation of that difference, as
    beta = p sqrt(rho) (G0 - Q)/(sqrt(Q) sqrt(G0) (sqrt(G0) + sqrt(Q))).
    """
    p = np.asarray(p, dtype=complex)
    _check_cut(p)
    if isinstance(model, MeasureMedium):
        beta = np.asarray(model.measure.beta_fn(p), dtype=complex)
    else:
        # the expression above, in place
        flat = np.atleast_1d(p)
        q, beta = _modulus_parts(model, flat)
        root_q = np.sqrt(q, out=q)
        root_g0 = math.sqrt(model.g0)
        den = root_g0 + root_q
        den *= np.multiply(root_q, root_g0, out=root_q)
        beta *= np.multiply(flat, math.sqrt(model.rho), out=q)
        beta /= den
        beta = beta.reshape(p.shape)
    return beta if beta.shape else complex(beta)


def wave_number(model, p):
    """kappa(p) = p/c_inf + beta(p) (= sqrt(rho) p/sqrt(Q(p)) on the
    principal branch, Re kappa(-i w) >= 0)."""
    p = np.asarray(p, dtype=complex)
    beta = dispersion_attenuation(model, p)
    if math.isinf(model.c_inf):
        return beta
    kap = p / model.c_inf + beta
    return kap if kap.shape else complex(kap)


def _beta_on_axis(model, omega):
    """beta(-i omega), with beta(0) = 0 (p = 0 ends the cut)."""
    omega = np.asarray(omega, dtype=float)
    beta = np.zeros(omega.shape, dtype=complex)
    beta[omega != 0] = dispersion_attenuation(model, -1j * omega[omega != 0])
    return beta if beta.shape else complex(beta)


def attenuation_from_wavenumber(model, omega):
    """A(omega) = Re beta(-i omega): closed-form path, cross-checks the engine."""
    return np.real(_beta_on_axis(model, omega))


def dispersion_from_wavenumber(model, omega):
    """D(omega) = -Im beta(-i omega)."""
    return -np.imag(_beta_on_axis(model, omega))


def _cut_ratio(model, x):
    """G0/Q at p = -r + i0 (x = tau r, y = x^alpha e^(i pi alpha), exactly -x
    for alpha = 1), both parts to full relative accuracy: finite at the pole
    of Q and 0 where Q = 0 (a lower support edge hit exactly)."""
    alpha = getattr(model, "alpha", 1.0)
    y = x ** alpha * (-1.0 + 0j if alpha == 1.0
                      else cmath.exp(1j * math.pi * alpha))
    if getattr(model, "gamma", 1.0) < 1.0:
        # G0/Q = -1/expm1(log b - gamma log(1 + y)); Im y is +0 for
        # alpha = 1, so the phase is pi where 1 + y < 0
        em1 = _expm1_log_power(y, model.gamma, math.log(model.b))
        return np.divide(-1.0, em1, where=em1 != 0.0, out=np.zeros_like(y))
    # Cole-Cole, the SLS and gamma = 1, where (1 + y)^gamma is 1 + y with
    # no rounded phase: G0/Q = num/den, its real part from that ratio and
    # its imaginary part from the deficit (G0 - Q)/Q = deficit/den, which
    # does not cancel
    if isinstance(model, (ColeCole, StandardLinearSolid)):
        a = model.a
        num, den, deficit = a * (1.0 + y), 1.0 + a * y, a - 1.0
    else:
        num, den, deficit = 1.0 + y, (1.0 - model.b) + y, model.b
    live = den != 0.0
    ratio = np.divide(num, den, where=live, out=np.zeros_like(y))
    ratio.imag = np.divide(deficit, den, where=live, out=np.zeros_like(y)).imag
    return ratio


def branch_cut_density(model, r):
    """Spectral density -Im(beta(p)/p)/pi = -Im sqrt(G0/Q)/(pi c_inf) at the
    upper-side boundary value p = -r + i0, the root on that side (Im <= 0).

    It matches the closed-form densities to ~1e-15 relative on the test
    fixtures and ~2e-13 at the corners of the admissible domain, and is
    exactly 0 off the support and at tau r = 1.  TypeError for any model but
    the four analytic families (a MeasureMedium defines its density
    directly); ValueError unless every r > 0.
    """
    if not isinstance(model, (ColeCole, StandardLinearSolid, HavriliakNegami,
                              ColeDavidson)):
        raise TypeError(f"no branch-cut density for {type(model).__name__}")
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0.0):
        raise ValueError("r must be positive")
    root = np.sqrt(_cut_ratio(model, np.atleast_1d(model.tau * r)))
    h = (np.abs(root.imag) / (math.pi * model.c_inf)).reshape(r.shape)
    return h if h.shape else float(h)


def beta_at_infinity(model) -> float:
    """Limit of beta(p) as p -> +inf: the mass int h(r) dr of the measure,
    inf when the density decays only algebraically.

    For the analytic families it is the closed-form limit
    sqrt(rho) lim p (G0 - Q)/(2 G0^(3/2)), finite exactly when the deficit
    decays like 1/p: the SLS and Cole-Davidson with gamma = 1 (the deficit
    of Havriliak-Negami and Cole-Cole decays like p^-(alpha gamma) and
    p^-alpha with alpha < 1).  A MeasureMedium integrates its measure on
    the node set of the grid quadrature, to 1e-8 relative.
    """
    if isinstance(model, MeasureMedium):
        measure = model.measure
        if not measure.all_moments_finite:
            return math.inf
        return integrate_power(measure, 0.0)
    scale = math.sqrt(model.rho) / (2.0 * model.tau)
    if isinstance(model, StandardLinearSolid):
        return scale * model.g_inf * (model.a - 1.0) / model.g0 ** 1.5
    if isinstance(model, ColeDavidson) and model.gamma == 1.0:
        return scale * model.b / math.sqrt(model.g0)
    return math.inf
