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

The branch-cut limit of kappa(p)/p recovers the spectral density: the jump
oracle here is the independent cross-check against the closed-form densities
of :mod:`cmwave.measures`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import integrate_measure
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
    "JumpExtrapolationError",
]


class JumpExtrapolationError(RuntimeError):
    """Richardson extrapolation toward the branch cut did not contract."""


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
    scalar phase.  Any other z, the real axis of the fits in
    :mod:`cmwave.greens` included, takes np.power.
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


def _modulus_parts(model, p):
    """(Q(p), G0 - Q(p)) of an analytic relaxation model, for complex p of
    one dimension or more, as new arrays.

    The deficit G0 - Q is formed in closed form from the same power
    (tau p)^alpha as Q itself, never by subtracting two moduli:
    G_inf (a - 1)/(1 + (tau p)^alpha) for Cole-Cole and the SLS,
    G0 b (1 + (tau p)^alpha)^-gamma for Havriliak-Negami and Cole-Davidson.
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
        xa += 1.0
        relaxed = _principal_power(xa, -model.gamma)
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
        # the expression above, in place and in its order of operations:
        # the real-axis fits of greens amplify the last bit of beta
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


def attenuation_from_wavenumber(model, omega):
    """A(omega) = Re beta(-i omega): closed-form path, cross-checks the engine."""
    return np.real(dispersion_attenuation(model, -1j * np.asarray(omega, float)))


def dispersion_from_wavenumber(model, omega):
    """D(omega) = -Im beta(-i omega)."""
    return -np.imag(dispersion_attenuation(model, -1j * np.asarray(omega, float)))


def branch_cut_density(model, r, eps: float = 1e-3):
    """Spectral density from the branch-cut jump of kappa(p)/p.

    Evaluates -Im[kappa(z)/z]/pi at z = r exp(i(pi - eps)) and Richardson-
    extrapolates eps -> 0 over eps, eps/2, eps/4.  This is the oracle the
    closed-form densities are validated against.

    Raises
    ------
    JumpExtrapolationError
        when successive extrapolation differences do not contract.
    """
    if not (0.0 < eps <= 1e-3):
        raise ValueError("eps must lie in (0, 1e-3]")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("r must be positive")
    vals = []
    for e in (eps, eps / 2.0, eps / 4.0):
        z = r * np.exp(1j * (math.pi - e))
        lam = wave_number(model, z) / z
        vals.append(-np.imag(lam) / math.pi)
    v0, v1, v2 = (np.asarray(v) for v in vals)
    r1a = 2.0 * v1 - v0
    r1b = 2.0 * v2 - v1
    out = (4.0 * r1b - r1a) / 3.0
    # the first-order extrapolants agree to O(eps^2) wherever the boundary
    # value is smooth; a large spread means eps cannot resolve this point
    # (e.g. next to a band-edge singularity)
    scale = np.abs(v0) + np.abs(v1) + np.abs(v2) + np.abs(out) \
        + 1e-9 * np.max(np.abs(out)) + 1e-300
    if np.any(np.abs(r1b - r1a) > 0.05 * scale):
        raise JumpExtrapolationError(
            "no contraction while approaching the branch cut")
    return out if out.shape else float(out)


def beta_at_infinity(model) -> float:
    """Limit of beta(p) as p -> +inf: the mass int h(r) dr of the measure,
    inf when the density decays only algebraically.

    For the analytic families it is the closed-form limit
    sqrt(rho) lim p (G0 - Q)/(2 G0^(3/2)), finite exactly when the deficit
    decays like 1/p: the SLS and Cole-Davidson with gamma = 1 (the deficit
    of Havriliak-Negami and Cole-Cole decays like p^-(alpha gamma) and
    p^-alpha with alpha < 1).  A MeasureMedium integrates its measure.
    """
    if isinstance(model, MeasureMedium):
        measure = model.measure
        if not measure.all_moments_finite:
            return math.inf
        return integrate_measure(measure, lambda r: 1.0)
    scale = math.sqrt(model.rho) / (2.0 * model.tau)
    if isinstance(model, StandardLinearSolid):
        return scale * model.g_inf * (model.a - 1.0) / model.g0 ** 1.5
    if isinstance(model, ColeDavidson) and model.gamma == 1.0:
        return scale * model.b / math.sqrt(model.g0)
    return math.inf
