"""Relaxation models and their dispersion-attenuation spectral measures.

A linear viscoelastic medium with a completely monotonic relaxation modulus
is characterised, for wave purposes, by its wavefront speed and a positive
spectral measure on (0, inf).  This module builds that measure (as a density
``h(r)`` plus tail metadata) for the analytic model families shipped here:
Cole-Cole, Havriliak-Negami, Cole-Davidson, the Standard Linear Solid, pure
power-law media and finite-bandwidth media.

All model objects are immutable after construction and every density is a
pure function of ``r``, so evaluators are safe to share between threads.

Units are SI throughout: ``tau`` in seconds, moduli in Pa, ``rho`` in kg/m^3,
speeds in m/s, spectral variable ``r`` in 1/s, densities in s/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ColeCole",
    "ColeDavidson",
    "FiniteBand",
    "HavriliakNegami",
    "PowerLawMeasure",
    "SpectralMeasure",
    "StandardLinearSolid",
    "cc_spectral_density",
    "cd_spectral_density",
    "hn_spectral_density",
    "make_finiteband_measure",
    "make_powerlaw_measure",
    "measure_D_constant",
    "sls_spectral_density",
    "spectral_measure",
    "zero_measure",
]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


@dataclass(frozen=True)
class SpectralMeasure:
    """Dispersion-attenuation spectral measure with a density ``h``.

    Parameters
    ----------
    density:
        Evaluator ``r -> h(r)`` (scalar or ndarray in, same shape out),
        zero outside ``support``.
    support:
        ``(r_lo, r_hi)`` with ``r_hi`` possibly ``inf``.
    tail_exponent_high:
        ``sigma`` such that ``h(r) = O(r**-sigma)`` as ``r -> inf``;
        ``inf`` when the support is bounded (all moments finite).
    tail_exponent_low:
        exponent ``k`` with ``h(r) = O(r**k)`` as ``r -> 0+``; only
        meaningful when the support reaches 0, else ``None``.
    r_scale:
        characteristic spectral rate (1/s), used to centre quadrature and
        sampling grids.
    sqrt_singular_left:
        the density is singular or non-smooth at the left support endpoint
        (inverse-square-root for the Standard Linear Solid, a fractional
        power for Cole-Davidson); quadrature then opens that edge with the
        substitution ``r = r_lo + s**2``.
    breaks:
        interior rates where the density is not analytic (the branch point
        of Cole-Davidson at 1/tau); grid quadrature splits the support
        there.
    beta_fn:
        optional closed form for the dispersion-attenuation function
        ``beta(p) = p * int h(r)/(p+r) dr`` on the cut plane.
    """

    density: Callable[[np.ndarray], np.ndarray]
    support: tuple[float, float]
    tail_exponent_high: float
    tail_exponent_low: float | None
    r_scale: float
    sqrt_singular_left: bool = False
    breaks: tuple[float, ...] = ()
    beta_fn: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = "measure"

    def __call__(self, r):
        return self.density(r)

    @property
    def all_moments_finite(self) -> bool:
        return math.isinf(self.tail_exponent_high)

    @property
    def d_finite(self) -> bool:
        """Whether ``D = int h(r)/r dr`` converges: the support is empty or
        starts above 0, or h vanishes at 0 like a positive power."""
        r_lo, r_hi = self.support
        return (r_hi <= r_lo or r_lo > 0.0
                or (self.tail_exponent_low or 0.0) > 0.0)


# ---------------------------------------------------------------------------
# analytic relaxation models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColeCole:
    """Cole-Cole relaxation: Q(p) = G_inf (1 + a (tau p)^alpha)/(1 + (tau p)^alpha)."""

    a: float
    alpha: float
    tau: float
    g_inf: float
    rho: float = 1.0

    def __post_init__(self):
        _require(self.a > 1.0, "Cole-Cole requires a > 1")
        _require(0.0 < self.alpha < 1.0, "Cole-Cole requires 0 < alpha < 1")
        _require(self.tau > 0.0, "tau must be positive")
        _require(0.0 < self.g_inf < math.inf, "G_inf must be positive and finite")
        _require(self.rho > 0.0, "rho must be positive")

    @property
    def g0(self) -> float:
        return self.a * self.g_inf

    @property
    def c0(self) -> float:
        return math.sqrt(self.g_inf / self.rho)

    @property
    def c_inf(self) -> float:
        return math.sqrt(self.g0 / self.rho)

    def spectral_measure(self) -> SpectralMeasure:
        return spectral_measure(self)


@dataclass(frozen=True)
class StandardLinearSolid:
    """Three-parameter solid; the alpha -> 1 limit of the Cole-Cole family."""

    a: float
    tau: float
    g_inf: float
    rho: float = 1.0

    def __post_init__(self):
        _require(self.a > 1.0, "SLS requires a > 1")
        _require(self.tau > 0.0, "tau must be positive")
        _require(0.0 < self.g_inf < math.inf, "G_inf must be positive and finite")
        _require(self.rho > 0.0, "rho must be positive")

    @property
    def g0(self) -> float:
        return self.a * self.g_inf

    @property
    def c0(self) -> float:
        return math.sqrt(self.g_inf / self.rho)

    @property
    def c_inf(self) -> float:
        return math.sqrt(self.g0 / self.rho)

    def spectral_measure(self) -> SpectralMeasure:
        return spectral_measure(self)


@dataclass(frozen=True)
class HavriliakNegami:
    """Havriliak-Negami relaxation: Q(p) = G_0 [1 - b/(1 + (tau p)^alpha)^gamma]."""

    b: float
    alpha: float
    gamma: float
    tau: float
    g0: float
    rho: float = 1.0

    def __post_init__(self):
        _require(0.0 < self.b <= 1.0, "Havriliak-Negami requires 0 < b <= 1")
        _require(0.0 < self.alpha < 1.0, "Havriliak-Negami requires 0 < alpha < 1")
        _require(0.0 < self.gamma <= 1.0, "Havriliak-Negami requires 0 < gamma <= 1")
        _require(self.tau > 0.0, "tau must be positive")
        _require(0.0 < self.g0 < math.inf, "G_0 must be positive and finite")
        _require(self.rho > 0.0, "rho must be positive")

    @property
    def g_inf(self) -> float:
        return self.g0 * (1.0 - self.b)

    @property
    def c_inf(self) -> float:
        return math.sqrt(self.g0 / self.rho)

    @property
    def c0(self) -> float | None:
        # None for the fluid edge case b = 1 (stress relaxes to zero).
        if self.b >= 1.0:
            return None
        return math.sqrt(self.g_inf / self.rho)

    def spectral_measure(self) -> SpectralMeasure:
        return spectral_measure(self)


@dataclass(frozen=True)
class ColeDavidson:
    """Cole-Davidson relaxation: the alpha = 1 member of the HN family."""

    b: float
    gamma: float
    tau: float
    g0: float
    rho: float = 1.0

    def __post_init__(self):
        _require(0.0 < self.b <= 1.0, "Cole-Davidson requires 0 < b <= 1")
        _require(0.0 < self.gamma <= 1.0, "Cole-Davidson requires 0 < gamma <= 1")
        _require(self.tau > 0.0, "tau must be positive")
        _require(0.0 < self.g0 < math.inf, "G_0 must be positive and finite")
        _require(self.rho > 0.0, "rho must be positive")

    @property
    def g_inf(self) -> float:
        return self.g0 * (1.0 - self.b)

    @property
    def c_inf(self) -> float:
        return math.sqrt(self.g0 / self.rho)

    @property
    def c0(self) -> float | None:
        if self.b >= 1.0:
            return None
        return math.sqrt(self.g_inf / self.rho)

    def spectral_measure(self) -> SpectralMeasure:
        return spectral_measure(self)


@dataclass(frozen=True)
class PowerLawMeasure:
    """Measure with nu([0, r]) = a_coef * r**gamma_exp (viscoelastic fluid)."""

    a_coef: float
    gamma_exp: float

    def __post_init__(self):
        _require(self.a_coef > 0.0, "power-law coefficient must be positive")
        _require(0.0 < self.gamma_exp < 1.0, "power-law exponent must lie in (0, 1)")

    def spectral_measure(self) -> SpectralMeasure:
        return make_powerlaw_measure(self.a_coef, self.gamma_exp)


@dataclass(frozen=True)
class FiniteBand:
    """Measure with constant density C on [a_lo, b_hi]."""

    height: float
    r_lo: float
    r_hi: float

    def __post_init__(self):
        _require(self.height > 0.0, "band height must be positive")
        _require(self.r_lo >= 0.0, "band must start at a_lo >= 0")
        _require(self.r_hi > self.r_lo, "band requires b_hi > a_lo")

    def spectral_measure(self) -> SpectralMeasure:
        return make_finiteband_measure(self.height, self.r_lo, self.r_hi)


RelaxationModel = (
    ColeCole | StandardLinearSolid | HavriliakNegami | ColeDavidson
)


# ---------------------------------------------------------------------------
# closed-form spectral densities
# ---------------------------------------------------------------------------

def cc_spectral_density(model: ColeCole, r):
    """Spectral density of the Cole-Cole model.

    Evaluated from the branch-cut limit of the wave-number function.  With
    x = tau*r and auxiliary quantities

        J1 = (a - 1) sin(pi alpha) x^alpha
        R1 = 1 + a x^(2 alpha) + (a + 1) cos(pi alpha) x^alpha
        Z  = sqrt(1 + a^2 x^(2 alpha) + 2 a cos(pi alpha) x^alpha)

    the density is  sqrt(hypot(R1, J1) - R1) / (pi c0 sqrt(2) Z).  The root
    is computed as J1/sqrt(hypot + R1) where R1 > 0, which avoids the
    cancellation of the direct form for small and large r, and the square
    of J1 that underflows for tau r below about 1e-230.
    """
    r = np.asarray(r, dtype=float)
    x = model.tau * r
    xa = np.power(x, model.alpha, where=x > 0, out=np.zeros_like(x))
    a = model.a
    ca, sa = math.cos(math.pi * model.alpha), math.sin(math.pi * model.alpha)
    j1 = (a - 1.0) * sa * xa
    r1 = 1.0 + a * xa * xa + (a + 1.0) * ca * xa
    z = np.sqrt(1.0 + (a * xa) ** 2 + 2.0 * a * ca * xa)
    hyp = np.hypot(r1, j1)
    root = np.where(r1 > 0.0, j1 / np.sqrt(hyp + r1), np.sqrt(hyp - r1))
    h = root / (math.pi * model.c0 * math.sqrt(2.0) * z)
    return h if h.shape else float(h)


def sls_spectral_density(model: StandardLinearSolid, r):
    """Spectral density of the SLS: supported on tau*r in [1/a, 1], with an
    integrable inverse-square-root singularity at the left endpoint."""
    r = np.asarray(r, dtype=float)
    x = model.tau * r
    inside = (x > 1.0 / model.a) & (x < 1.0)
    h = np.zeros_like(x)
    xi = x[inside] if x.shape else (x if inside else None)
    if x.shape:
        h[inside] = np.sqrt((1.0 - xi) / (model.a * xi - 1.0)) / (math.pi * model.c0)
        return h
    if inside:
        return math.sqrt((1.0 - x) / (model.a * x - 1.0)) / (math.pi * model.c0)
    return 0.0


def hn_spectral_density(model: HavriliakNegami, r):
    """Spectral density of the Havriliak-Negami model.

    With Z = 1 - b/(1 + x^alpha e^{i pi alpha})^gamma, x = tau r and k = |Z|,
    h = sqrt(k - Re Z) / (pi sqrt(2) c_inf k); the root is evaluated as
    |Im Z|/sqrt(k + Re Z), exact and cancellation-free, and without the
    square of Im Z that underflows for small b.

    At r = 0 it returns the limit: 0 for b < 1, where h ~ r^alpha, and
    inf for the fluid b = 1, where h ~ r^(-alpha/2).
    """
    alpha, gamma, b = model.alpha, model.gamma, model.b
    x = model.tau * np.asarray(r, dtype=float)
    # at b = 1 the formula is 0/0 at r = 0: evaluate it at 1 there and put
    # the limit in afterwards
    at_zero = x == 0.0 if b == 1.0 else None
    if at_zero is not None:
        x = np.where(at_zero, 1.0, x)
    xa = np.power(x, alpha, where=x > 0, out=np.zeros_like(x))
    ca, sa = math.cos(math.pi * alpha), math.sin(math.pi * alpha)
    # log of g = |1 + x^alpha e^{i pi alpha}|^gamma, and gamma times the
    # continuous argument of 1 + x^alpha e^{i pi alpha}
    log_g = 0.5 * gamma * np.log1p(xa * (2.0 * ca + xa))
    gf = gamma * np.arctan2(xa * sa, 1.0 + xa * ca)
    g = np.exp(log_g)
    # Re Z = (1 - b) + b (1 - cos(gamma f)/g), which does not cancel as
    # x -> 0 when b is near 1
    re_z = (1.0 - b) - b * (np.expm1(-log_g) - 2.0 * np.sin(0.5 * gf) ** 2 / g)
    im_z = b * np.sin(gf) / g
    k = np.hypot(re_z, im_z)
    h = np.abs(im_z) / np.sqrt(k + re_z) \
        / (math.pi * math.sqrt(2.0) * model.c_inf * k)
    if at_zero is not None:
        h = np.where(at_zero, math.inf, h)
    return h if h.shape else float(h)


def cd_spectral_density(model: ColeDavidson, r):
    """Spectral density of the Cole-Davidson model.

    The wave-number function carries two branch-cut segments.  Beyond the
    relaxation rate (tau*r > 1), with u = (tau*r - 1)^-gamma, the boundary
    value of the modulus factor is Z = (1 - b u cos(pi gamma)) +
    i b u sin(pi gamma) and

        h = sqrt(k1 - Re Z) / (pi sqrt(2) c_inf k1),   k1 = |Z|.

    Below it, on 1 - b^(1/gamma) < tau*r < 1, the factor
    Z = 1 - b (1 - tau*r)^-gamma is real and negative, the square root
    itself jumps, and

        h = 1 / (pi c_inf sqrt(b (1 - tau*r)^-gamma - 1)).

    Both pieces vanish at tau*r = 1 and the lower one has an integrable
    inverse-square-root singularity at its left edge.  (At gamma = 1 the
    lower piece reproduces the Standard Linear Solid density with
    a = 1/(1-b).)  At r = 0 it returns the limit: 0 for b < 1, where the
    support starts above 0, and inf for the fluid b = 1, whose lower piece
    reaches r = 0 with h ~ r^(-1/2).
    """
    r = np.asarray(r, dtype=float)
    x = model.tau * r
    b, gamma = model.b, model.gamma
    pref = 1.0 / (math.pi * model.c_inf)

    upper = x > 1.0
    u = np.power(x - 1.0, -gamma, where=upper, out=np.zeros_like(x))
    # sin(pi) rounds to 1.2e-16: at gamma = 1 the upper piece is exactly 0
    cg, sg = math.cos(math.pi * gamma), math.sin(math.pi * gamma) * (gamma < 1)
    re_z = 1.0 - b * cg * u
    im_z = b * sg * u
    k1 = np.hypot(re_z, im_z)

    x_edge = 1.0 - b ** (1.0 / gamma)
    # at b = 1 the edge is r = 0 itself, where the lower piece is 1/0 = inf
    lower = (x >= x_edge if b == 1.0 else x > x_edge) & (x < 1.0)
    # b (1 - x)^-gamma - 1 without cancellation as x -> 0 when b = 1
    excess = np.expm1(math.log(b) - gamma * np.log1p(-np.where(lower, x, 0.0)))
    with np.errstate(invalid="ignore", divide="ignore"):
        val_up = pref * im_z / np.sqrt(2.0 * (k1 + re_z)) / k1
        val_lo = pref / np.sqrt(excess)
    # val_up is exactly 0 wherever tau r <= 1 (u = 0 there)
    h = np.where(lower, val_lo, val_up)
    return h if h.shape else float(h)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def spectral_measure(model) -> SpectralMeasure:
    """Build the SpectralMeasure of an analytic relaxation model."""
    if isinstance(model, ColeCole):
        return SpectralMeasure(
            density=lambda r: cc_spectral_density(model, r),
            support=(0.0, math.inf),
            tail_exponent_high=model.alpha,
            tail_exponent_low=model.alpha,
            r_scale=1.0 / model.tau,
            label="cole-cole",
        )
    if isinstance(model, StandardLinearSolid):
        return SpectralMeasure(
            density=lambda r: sls_spectral_density(model, r),
            support=(1.0 / (model.a * model.tau), 1.0 / model.tau),
            tail_exponent_high=math.inf,
            tail_exponent_low=None,
            r_scale=1.0 / model.tau,
            sqrt_singular_left=True,
            label="sls",
        )
    if isinstance(model, HavriliakNegami):
        return SpectralMeasure(
            density=lambda r: hn_spectral_density(model, r),
            support=(0.0, math.inf),
            tail_exponent_high=model.alpha * model.gamma,
            # with G_inf = 0 (b = 1) the density grows like r^(-alpha/2)
            tail_exponent_low=-model.alpha / 2 if model.b == 1.0
            else model.alpha,
            r_scale=1.0 / model.tau,
            label="havriliak-negami",
        )
    if isinstance(model, ColeDavidson):
        edge = (1.0 - model.b ** (1.0 / model.gamma)) / model.tau
        # at gamma = 1 the upper piece vanishes: the SLS with a = 1/(1 - b),
        # on [(1 - b)/tau, 1/tau], with every moment finite
        bounded = model.gamma == 1.0
        return SpectralMeasure(
            density=lambda r: cd_spectral_density(model, r),
            support=(edge, 1.0 / model.tau if bounded else math.inf),
            tail_exponent_high=math.inf if bounded else model.gamma,
            # at b = 1 the support reaches 0 with h ~ r^(-1/2)
            tail_exponent_low=-0.5 if model.b == 1.0 else None,
            r_scale=1.0 / model.tau,
            sqrt_singular_left=True,
            breaks=() if bounded else (1.0 / model.tau,),
            label="cole-davidson",
        )
    if isinstance(model, (PowerLawMeasure, FiniteBand)):
        return model.spectral_measure()
    raise TypeError(f"no spectral measure for {type(model).__name__}")


def make_powerlaw_measure(a_coef: float, gamma_exp: float) -> SpectralMeasure:
    """Density gamma * a * r^(gamma-1) on (0, inf); D is infinite."""
    _require(a_coef > 0.0, "power-law coefficient must be positive")
    _require(0.0 < gamma_exp < 1.0, "power-law exponent must lie in (0, 1)")

    def h(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        pos = r > 0
        val = a_coef * gamma_exp * np.power(r, gamma_exp - 1.0, where=pos, out=out)
        return val if val.shape else float(val)

    # beta(p) = a * c_gamma * p^gamma with c_gamma = pi*gamma/sin(pi*gamma)
    c_gamma = math.pi * gamma_exp / math.sin(math.pi * gamma_exp)

    def beta_fn(p):
        return a_coef * c_gamma * np.power(p, gamma_exp)

    return SpectralMeasure(
        density=h,
        support=(0.0, math.inf),
        tail_exponent_high=1.0 - gamma_exp,
        tail_exponent_low=gamma_exp - 1.0,
        r_scale=1.0,
        beta_fn=beta_fn,
        label="power-law",
    )


def make_finiteband_measure(height: float, r_lo: float, r_hi: float) -> SpectralMeasure:
    """Constant density on [r_lo, r_hi]; all moments finite."""
    _require(height > 0.0, "band height must be positive")
    _require(r_lo >= 0.0, "band must start at r_lo >= 0")
    _require(r_hi > r_lo, "band requires r_hi > r_lo")

    def h(r):
        r = np.asarray(r, dtype=float)
        val = np.where((r >= r_lo) & (r <= r_hi), height, 0.0)
        return val if val.shape else float(val)

    def beta_fn(p):
        # log((p + r_hi)/(p + r_lo)) = log(1 + z): the difference of the two
        # logs cancels when |p| >> r_hi, log1p of |1 + z|^2 - 1 does not
        p = np.asarray(p, dtype=complex)
        z = (r_hi - r_lo) / (p + r_lo)
        near = np.abs(z) < 1.0
        zn = np.where(near, z, 0.0)
        log_mod = np.where(
            near, 0.5 * np.log1p(2.0 * zn.real + zn.real ** 2 + zn.imag ** 2),
            np.log(np.abs(1.0 + z)))
        return height * p * (log_mod + 1j * np.arctan2(z.imag, 1.0 + z.real))

    return SpectralMeasure(
        density=h,
        support=(r_lo, r_hi),
        tail_exponent_high=math.inf,
        tail_exponent_low=None,
        r_scale=math.sqrt(max(r_lo, r_hi * 1e-12) * r_hi),
        beta_fn=beta_fn,
        label="finite-band",
    )


def zero_measure() -> SpectralMeasure:
    """The zero measure (non-dispersive elastic limit)."""

    def h(r):
        r = np.asarray(r, dtype=float)
        val = np.zeros_like(r)
        return val if val.shape else 0.0

    def beta_fn(p):
        p = np.asarray(p, dtype=complex)
        val = np.zeros_like(p)
        return val if val.shape else 0.0j

    return SpectralMeasure(
        density=h,
        support=(0.0, 0.0),
        tail_exponent_high=math.inf,
        tail_exponent_low=None,
        r_scale=1.0,
        beta_fn=beta_fn,
        label="zero",
    )


def measure_D_constant(m: SpectralMeasure) -> float:
    """D = int h(r)/r dr over the support; inf when the integral diverges.

    For media with G_inf > 0 this equals 1/c0 - 1/c_inf.  Formed on the
    node set of the grid quadrature (``_quad.integrate_power``), to 1e-8
    relative, or QuadratureError is raised.
    """
    if not m.d_finite:
        return math.inf
    from . import _quad  # deferred: avoid cycle at import time

    return _quad.integrate_power(m, -1.0)
