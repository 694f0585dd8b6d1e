"""Green's function synthesis by FFT inversion of the frequency-domain
representation, with analytic peeling of the non-decaying spectrum parts.

For a medium with finite wavefront speed the 1D and 3D Green's functions
are, in the frame shifted to the wavefront arrival s = t - x/c_inf,

    v1(s)  <->  (1/2) lam(p) exp(-beta(p) x) / p,
    v3(s)  <->  lam(p)^2 exp(-beta(p) x) / (4 pi x),

with lam(p) = kappa(p)/p = 1/c_inf + beta(p)/p.  One core synthesizes
both: it evaluates beta once per bin of an internally padded period and
subtracts a list of peels, each with its spectrum term, its bin-0 value
and its exact time-domain add-back:

 * the final-value pole (1D)  v_inf/p  -> v_inf * H(s),
 * the front delta (3D)  c_delta  -> c_delta delta(s), a spike split
   between the two samples around the arrival,
 * an exponential  c/(p+1/theta)  -> c e^(-s/theta) H(s), the rest of
   the spectrum's 1/p term: in 1D the jump-to-final ramp, c = v0 - v_inf,
 * a second-order term  j1/((p+la)(p+lb))
                                        -> j1 (e^(-la s) - e^(-lb s)) /
                                           (lb - la) H(s),
   with short timescales, carrying the 1/p^2 term the exponential leaves:
   the slope kink at the front,
 * the fractional terms  sum_k C_k p^(e_k-1) sum_i A_i/(1+theta_i p)
                                        -> sum_k C_k sum_i A_i theta_i^(-e_k)
                                           phi_k(s/theta_i) H(s),
   phi_k(y) = y^(1-e_k) E_{1,2-e_k}(-y): the exact small-p expansion of
   the spectrum, whose powers p^(e_k-1) set the slow relaxation tail
   s^(-e_k) of media whose spectral density reaches r = 0.  For a solid,
   lam = L(y) = sqrt(rho/Q) is a power series in y = (tau p)^alpha
   (Cole-Cole, Havriliak-Negami), with Taylor coefficients formed in
   floats by series arithmetic, and beta = p (L - 1/c_inf).  In 1D,
   q(p) = p v(p) - v_inf = (L(y) - L(0))/2
   - x p L(y) (L(y) - 1/c_inf)/2 + O(p^2), so the peel carries every
   non-integer k alpha and 1 + k alpha below 2, and bin 0 takes the exact
   p^1 coefficient c_lin.  In 3D,
   V3 = L(y)^2/(4 pi x) - p L(y)^2 (L(y) - 1/c_inf)/(4 pi) + O(p^2), so
   the peel carries e_k = 1 + k alpha for every p^(k alpha) below p^1,
   with the Taylor coefficients of L^2 over 4 pi x, and bin 0 keeps the
   exact 1/(4 pi x c0^2).  In both, the first power left in the remainder
   decays like s^-2 or faster.  For the power-law fluid below, the e_k
   are the negative powers of its spectrum plus one.  One peel carries
   every term over pole sums formed once.  Its poles make the subtracted
   term flat to order s^(n-1-e_k) at the front for n poles (the
   partial-fraction sums kill the p^(e_k-2) .. p^(e_k-n+1) coefficients),
   so no artificial cusp is injected there: four for the fluid, five for
   solids, whose e_k reach 2; a solid's peel then leaves only p^(e_k-5)
   at high rates, and no 1/p or 1/p^2 term.

The large-p end is exact too: the spectrum is a_0 + a_1/p + a_2/p^2
+ O(p^-3), with a_k in closed form in the moments m_k = int r^k h(r) dr
of the measure (_large_p_terms): a_0 is the delta area, a_1 = v0 the 1D
front jump.  For an algebraic tail m0 = beta(inf) is infinite and every
a_k is 0, so a 3D Cole-Cole, Havriliak-Negami or Cole-Davidson (gamma < 1)
synthesis builds no exponential or kink.  What remains decays at least
like p^-3, is pole-free, and inverts cleanly; the wavefront shift is
applied as an integer index shift so that pre-wavefront samples come from
the (tiny) tail of the causal remainder rather than from interpolation
ringing.  The padding pushes wrap-around aliasing of the relaxation tail
below the causality tolerance, and the core raises SpectralDecayError
when it does not, a NaN included, advising n_samples where the wrapped
part is the Nyquist-scale ringing of a front too sharp for the sampling
rate.

The cost is the n_samples * pad_factor / 2 spectrum bins: pad 64 for
algebraic tails in both dimensions, 32 otherwise, so 131k bins for a
Cole-Cole or Havriliak-Negami 1D synthesis at n = 4096 and 262k in 3D
at n = 8192.  The exact small-p peels leave a tail that decays like s^-2
or faster.  At verify's settings (x = 16 c_inf tau, n = 4096) the error
against a Talbot inversion is at most 3.6e-7 of the peak in 1D (Cole-Cole
a 1.5, alpha 0.4) and 7e-9 to 3e-8 in 3D.  The fractional add-back
evaluates all terms' E_{1,2-e_k} of one pole in one Mittag-Leffler call,
whose contour nodes they share.  Every bin lies on the ray
p = -i omega, the only place a synthesis evaluates beta, so the powers
(tau p)^alpha of beta and p^(e_k-1) of the fractional peel are one real
power times one scalar phase, and the Havriliak-Negami factor
(1 + x)^-gamma is taken in polar form (wavenumber._principal_power).  The bins are filled in blocks of
_BLOCK bins, one pass per block: it forms the block's p, evaluates the
spectrum, subtracts the front delta and every peel in place, applies the
wavefront phase, the taper and the conjugate, and writes the result into
the irfft input.  So the thirty-odd arithmetic passes run over arrays that
stay in one core's L2 cache, and no full-length array exists but the
irfft input and output.  A bin goes through the same operations whichever
block it falls in, so the waveforms do not depend on the block size, bit
for bit.

Media with G_inf = 0 have no final-value step.  Of those, the 1D
power-law fluid (the strongly singular regime, kappa = C p^g with no
wavefront) is one more peel set of the same core: its spectrum
(C/2) p^(g-2) exp(-C x p^g) has an exact small-p expansion, the fractional
peel carries each of its negative powers, and bin 0 is the coefficient of
its p^0 term, if it has one.  The pole sums are 1 + O(p^2), so no further
power is induced.  Spectrum, fill, inversion, add-back and alias gate are
the core's; where C x is so small that exp(-C x p^g) has not decayed by
the Nyquist rate, the start at t = 0 rings over the period and the gate
raises SpectralDecayError.  Other fluids (Havriliak-Negami and
Cole-Davidson with b = 1) and 3D fluids raise NotImplementedError.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ._quad import integrate_power
from .measures import ColeCole, SpectralMeasure, StandardLinearSolid
from .mittag_leffler import ml_e1_neg
from .wavenumber import (
    MeasureMedium,
    _principal_power,
    beta_at_infinity,
    dispersion_attenuation,
    wave_number,
)

__all__ = [
    "SpectralDecayError",
    "Waveform",
    "causality_metric",
    "green1d",
    "green3d",
    "wavefront_smoothness",
]

_THETA_FRACTION = 40.0    # ramp timescale = period / this
_FRAC_FRACTION = 2.0      # solids' fractional-peel timescale = T / this
_FLUID_FRACTION = 64.0    # ... and the power-law fluid's
_EXP_TOL = 1e-9           # exponents this close are equal
_FRAC_FLAT = 1e-5         # fractional add-back is 0 below this x min theta_i
_KINK_SAMPLES = 30.0      # short-peel timescale, in samples
_ALIAS_LIMIT = 1e-4       # raise when the wrapped tail exceeds this x peak
_TAPER_FRACTION = 0.1     # raised-cosine taper over this top part of the band
# Bins per pass of the spectrum fill, chosen by timing 4096, 16384 and
# 65536: a pass keeps six to eight complex temporaries of its block alive
# (1.5 to 2 MiB by tracemalloc at 16384), so they fit in one core's 2 MiB
# L2 cache; 65536 spills it and 4096 pays more per-pass overhead.
_BLOCK = 16384


def _frac_poles(theta_f: float, n_poles: int):
    """Pole timescales and weights of the fractional-tail subtraction.

    Poles theta_i = theta_f * 2^-i, i < n_poles, with weights solving

        sum A_i = 1,    sum A_i/theta_i^j = 0 (j = 1 .. n_poles - 2),
        sum A_i theta_i = 0.

    The first condition reproduces the p^(e-1) singularity exactly; the
    middle ones kill the p^(e-2) .. p^(e-n_poles+1) high-frequency terms,
    so the subtracted term is flat to order s^(n_poles-1-e) at the front
    (no artificial cusp there); the last kills the leading s^(-1-e) error
    of the far tail, so the subtraction matches the physical relaxation
    tail to O((theta_f/s)^2) relative.  Four poles serve the power-law
    fluid's exponents e < 1.  A solid's reach e < 2, and with four poles
    their s^(3-e) front rings on the grid (2.9e-6 of the peak three samples
    after the front, Havriliak-Negami 1D at verify's settings), so solids
    take five, in 1D and 3D; they leave p^(e-5) at high rates, no 1/p or
    1/p^2 term.
    """
    thetas = theta_f * 0.5 ** np.arange(n_poles)
    rows = np.array([thetas ** -j for j in range(n_poles - 1)] + [thetas])
    rhs = np.zeros(n_poles)
    rhs[0] = 1.0
    weights = np.linalg.solve(rows, rhs)
    return thetas, weights


class SpectralDecayError(RuntimeError):
    """Estimated aliasing error above tolerance for this resolution."""


@dataclass
class Waveform:
    """Time-sampled Green's function at fixed distance.

    ``wavefront_time`` is x/c_inf (None for media without a wavefront);
    ``dc_step_amplitude`` is the analytically added Heaviside amplitude
    (1/(2 c0) in 1D for solids); ``front_delta_area`` is the area of the
    delta singularity riding on the front (3D, media with finite spectral
    mass), represented on the grid as a single-sample spike.
    ``diagnostics`` records how the synthesis got there: ``pad_factor``,
    the number of spectrum ``bins`` evaluated (n_samples * pad_factor / 2)
    and ``alias_ratio``, the wrapped tail over the peak, against
    ``alias_limit``, above which the synthesis raises SpectralDecayError;
    also the small-p terms peeled, ``peel_exponents`` e_k and
    ``peel_coefficients`` (of p^e_k in p v(p) in 1D, of p^(e_k - 1) in
    the 3D spectrum), and the fractional-peel timescale
    ``frac_timescale``; in 1D the p^1 coefficient ``c_lin`` in bin 0.
    """

    time_grid: np.ndarray
    samples: np.ndarray
    x: float
    wavefront_time: float | None
    dc_step_amplitude: float
    front_delta_area: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    @property
    def dt(self) -> float:
        return float(self.time_grid[1] - self.time_grid[0])

    def to_csv(self, path_or_buf, metadata: dict | None = None) -> None:
        """Write `t_seconds,u` rows with #-prefixed metadata lines."""
        close = False
        if isinstance(path_or_buf, (str, bytes, os.PathLike)):
            buf = open(path_or_buf, "w")
            close = True
        else:
            buf = path_or_buf
        try:
            for key, val in (metadata or {}).items():
                buf.write(f"# {key}={val}\n")
            buf.write(f"# x={self.x!r}\n")
            buf.write(f"# wavefront_time={self.wavefront_time!r}\n")
            buf.write(f"# dc_step_amplitude={self.dc_step_amplitude!r}\n")
            buf.write("t_seconds,u\n")
            buf.write("".join(
                f"{t:.16e},{u:.16e}\n"
                for t, u in zip(self.time_grid.tolist(),
                                self.samples.tolist())))
        finally:
            if close:
                buf.close()


def _power_of_two(k) -> bool:
    """k is a positive integer power of two (a bool is not an integer)."""
    return isinstance(k, numbers.Integral) and not isinstance(k, bool) \
        and k >= 1 and (k & (k - 1)) == 0


def _validate_sampling(n_samples: int, T: float, t_w: float,
                       pad_factor: int) -> None:
    if not (_power_of_two(n_samples) and n_samples >= 4096):
        raise ValueError("n_samples must be a power of two >= 4096")
    if not _power_of_two(pad_factor):
        raise ValueError("pad_factor must be a positive power of two")
    if not 0.0 < T < math.inf:
        raise ValueError("T must be positive and finite")
    if not T > t_w:
        raise ValueError("T must exceed the wavefront time x/c_inf")


def _bins(n_full: int, dt: float, lo: int, hi: int):
    """Angular frequencies of rfft bins lo..hi-1 of a period of n_full
    samples of step dt."""
    return np.arange(lo, hi) * (2.0 * math.pi / (n_full * dt))


def _fill(W, dt, spectrum, delta=0.0, taper=True):
    """Write bins 1..N/2 of the irfft input W (bin 0 is the caller's) in
    blocks of _BLOCK bins, one pass per block: its omega and p = -i omega,
    ``spectrum(p)`` as a new array (the caller's peels already subtracted),
    the wavefront phase e^(i delta omega), the raised-cosine taper over the
    top _TAPER_FRACTION of the band and the conjugate that turns the
    e^(-i omega s) convention into numpy's.  Every bin goes through the
    same operations as in one full-length pass, so W does not depend on
    the block size.  irfft reads only the real parts of bins 0 and N/2."""
    n = len(W)
    n_full = 2 * (n - 1)
    j0 = int((1.0 - _TAPER_FRACTION) * (n - 1))
    for lo in range(1, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        omega = _bins(n_full, dt, lo, hi)
        p = -1j * omega
        out = spectrum(p)
        if delta > 0.0:
            # the phase, written over p, which is done with
            omega *= delta
            np.cos(omega, out=p.real)
            np.sin(omega, out=p.imag)
            out *= p
        if taper and hi > j0:
            j = np.arange(max(lo, j0), hi)
            out[j[0] - lo:] *= 0.5 * (1.0 + np.cos(
                math.pi * (j - j0) / (n - 1 - j0)))
        np.conj(out, out=W[lo:hi])


def _sing_exponent(measure: SpectralMeasure) -> float | None:
    if measure.support[0] == 0.0 and measure.tail_exponent_low is not None \
            and 0.0 < measure.tail_exponent_low < 1.0:
        return measure.tail_exponent_low
    return None


def _series_power(f, r: float, n: int) -> np.ndarray:
    """Taylor coefficients 0..n-1 of f(y)^r from those of f, f[0] > 0, by
    J. C. P. Miller's recurrence (from f (f^r)' = r f' f^r):
    g_m = sum_{k=1..m} ((r + 1) k - m) f_k g_(m-k) / (m f_0)."""
    f = np.concatenate([f, np.zeros(max(0, n - len(f)))])[:n]
    g = np.zeros(n)
    g[0] = f[0] ** r
    for m in range(1, n):
        k = np.arange(1, m + 1)
        g[m] = np.dot(((r + 1.0) * k - m) * f[1:m + 1], g[m - 1::-1]) \
            / (m * f[0])
    return g


def _lam_series(model, n: int) -> np.ndarray:
    """Taylor coefficients 0..n-1 of L = lam = sqrt(rho/Q) in y = (tau p)^alpha
    for Cole-Cole and the SLS, sqrt(rho/G_inf) (1 + y)^(1/2) (1 + a y)^(-1/2),
    and for Havriliak-Negami and Cole-Davidson,
    sqrt(rho/G0) (1 - b (1 + y)^-gamma)^(-1/2)."""
    if isinstance(model, (ColeCole, StandardLinearSolid)):
        # Q = G_inf (1 + a y)/(1 + y)
        return math.sqrt(model.rho / model.g_inf) * np.convolve(
            _series_power(np.array([1.0, 1.0]), 0.5, n),
            _series_power(np.array([1.0, model.a]), -0.5, n))[:n]
    # Q = G0 (1 - b (1 + y)^-gamma)
    f = -model.b * _series_power(np.array([1.0, 1.0]), -model.gamma, n)
    f[0] = 1.0 - model.b
    return math.sqrt(model.rho / model.g0) * _series_power(f, -0.5, n)


def _merge_terms(powers):
    """The (exponent, coefficient) pairs of ``powers`` whose exponent is not
    an integer and lies below 2, equal exponents merged, and the summed
    coefficient of p^1."""
    terms, c_lin = [], 0.0
    for e, c in powers:
        if e > 2.0 - _EXP_TOL:
            continue
        if abs(e - 1.0) <= _EXP_TOL:
            c_lin += c
            continue
        for i, (e_i, c_i) in enumerate(terms):
            if abs(e - e_i) <= _EXP_TOL:
                terms[i] = (e_i, c_i + c)
                break
        else:
            terms.append((e, c))
    return terms, c_lin


def _small_p_terms(model, x: float, c0: float):
    """The exact small-p expansion of q(p) = p V(p) - 1/(2 c0) of the 1D
    spectrum V = lam exp(-beta x)/(2 p): its fractional terms and c_lin.

    With L = lam = sqrt(rho/Q), a series in y = (tau p)^alpha, and
    beta = p (L - 1/c_inf),

        q = (L(y) - L(0))/2 - x p L(y) (L(y) - 1/c_inf)/2 + O(p^2).

    Returns (terms, c_lin): terms lists (exponent, coefficient) of every
    power p^e, e = k alpha or 1 + k alpha, that is not an integer and lies
    below 2 (equal exponents merged); c_lin is the coefficient of p^1.
    A finite-band medium (support above 0) has an analytic beta, so only
    c_lin = -int h/r^2 dr / 2 - x (1/c0 - 1/c_inf)/(2 c0).
    """
    c_inf = model.c_inf
    if isinstance(model, MeasureMedium):
        return [], -0.5 * integrate_power(model.measure, -2.0) \
            - 0.5 * x / c0 * (1.0 / c0 - 1.0 / c_inf)
    alpha = getattr(model, "alpha", 1.0)
    n = int(2.0 / alpha) + 1
    ell = _lam_series(model, n)
    m = np.convolve(ell, ell)[:n] - ell / c_inf
    scale = model.tau ** (alpha * np.arange(n))
    return _merge_terms(
        [(k * alpha, float(0.5 * ell[k] * scale[k])) for k in range(1, n)]
        + [(1.0 + k * alpha, float(-0.5 * x * m[k] * scale[k]))
           for k in range(n)])


def _small_p_terms3d(model, x: float):
    """The fractional terms of the exact small-p expansion of the 3D
    spectrum V3 = lam^2 exp(-beta x)/(4 pi x), as (exponent, coefficient)
    pairs of the 1D convention: e = 1 + k alpha for p^(k alpha).

    With L = lam a series in y = (tau p)^alpha and beta = p (L - 1/c_inf),

        V3 = L(y)^2/(4 pi x) - p L(y)^2 (L(y) - 1/c_inf)/(4 pi) + O(p^2),

    so every k alpha below 1 comes from the Taylor coefficients of L^2
    alone, with coefficient (L^2)_k tau^(k alpha)/(4 pi x); the p^0 term
    1/(4 pi x c0^2) is bin 0's.  A medium with an analytic beta (a
    finite band, elastic) has none.
    """
    if isinstance(model, MeasureMedium):
        return []
    alpha = getattr(model, "alpha", 1.0)
    n = int(1.0 / alpha) + 1
    ell = _lam_series(model, n)
    ell2 = np.convolve(ell, ell)[:n]
    scale = model.tau ** (alpha * np.arange(n)) / (4.0 * math.pi * x)
    return _merge_terms([(1.0 + k * alpha, float(ell2[k] * scale[k]))
                         for k in range(1, n)])[0]


def _large_p_terms(model, x: float, dim: int) -> np.ndarray:
    """a_0, a_1, a_2 of the 1D or 3D spectrum a_0 + a_1/p + a_2/p^2 + ...
    as p -> inf.  With m_k = int r^k h(r) dr, beta = m0 - m1/p + m2/p^2 - ...,
    so lam = 1/c_inf + m0/p - m1/p^2 + ... and exp(-beta x) =
    front (1 + x m1/p + (x^2 m1^2/2 - x m2)/p^2 + ...), front = exp(-m0 x).
    All vanish with the front (m0 = inf for an algebraic tail); only
    finite-mass media integrate m1 and m2."""
    m0 = beta_at_infinity(model)
    front = math.exp(-m0 * x)
    if front == 0.0:
        return np.zeros(3)
    m1, m2 = (integrate_power(model.spectral_measure(), k)
              for k in (1.0, 2.0))
    lam = np.array([1.0 / model.c_inf, m0, -m1])
    decay = front * np.array([1.0, x * m1, x * (0.5 * x * m1 ** 2 - m2)])
    if dim == 1:
        return np.concatenate([[0.0], 0.5 * np.convolve(lam, decay)[:2]])
    return np.convolve(np.convolve(lam, lam), decay)[:3] / (4.0 * math.pi * x)


@dataclass(frozen=True)
class _Peel:
    """One analytically inverted part of the spectrum: ``subtract(out, p)``
    subtracts its spectrum at p from ``out`` in place, ``dc`` is
    subtracted from bin 0 (its p -> 0 value; 0 for a term singular there,
    whose small-p powers the fractional peel and bin 0 carry); ``time(s)``
    is added back for s >= 0."""

    subtract: Callable[[np.ndarray, np.ndarray], None]
    dc: float
    time: Callable[[np.ndarray], np.ndarray]


def _step_peel(v):
    """v/p <-> v H(s)."""
    def subtract(out, p):
        out -= v / p

    return _Peel(subtract, 0.0, lambda s: np.full_like(s, v))


def _exp_peel(c, theta):
    """c/(p + 1/theta) <-> c e^(-s/theta) H(s)."""
    def subtract(out, p):
        term = p + 1.0 / theta
        out -= np.divide(c, term, out=term)

    return _Peel(subtract, c * theta, lambda s: c * np.exp(-s / theta))


def _kink_peel(j1, la, lb):
    """j1/((p+la)(p+lb)) <-> j1 (e^(-la s) - e^(-lb s))/(lb - la) H(s)."""
    def subtract(out, p):
        term = p + la
        term *= p + lb
        out -= np.divide(j1, term, out=term)

    return _Peel(subtract, j1 / (la * lb),
                 lambda s: j1 * (np.exp(-la * s) - np.exp(-lb * s))
                 / (lb - la))


def _frac_peel(terms, thetas, weights):
    """sum_k c_k p^(e_k-1) sum_i A_i/(1 + theta_i p)
    <-> sum_k c_k sum_i A_i theta_i^(-e_k) phi_k(s/theta_i) H(s),
    phi_k(y) = y^(1-e_k) E_{1,2-e_k}(-y), for the (e_k, c_k) of ``terms``.
    The pole sum is formed once for all terms, and the add-back evaluates
    every term's E_{1,2-e_k} at a pole in one ml_e1_neg call."""
    def subtract(out, p):
        poles = np.zeros_like(p)
        term = np.empty_like(p)
        for a_i, th_i in zip(weights, thetas):
            np.multiply(p, th_i, out=term)
            term += 1.0
            poles += np.divide(a_i, term, out=term)
        del term  # freed before the powers allocate theirs
        for e, c in terms:
            term = _principal_power(p, e - 1.0)
            term *= c
            term *= poles
            out -= term

    betas = np.array([2.0 - e for e, _ in terms])

    def time(s):
        # the add-back is flat at the front, to (s/theta_i)^(n-1-e_k) for n
        # poles, but its pole terms' s^(1-e_k) parts cancel only to the
        # rounding of the weights, which a sample a few ulps of the arrival
        # away (T = 4 x/c_inf puts one there) would read at up to 2e-2 of
        # the peak: below _FRAC_FLAT theta_min, where the flat value read at
        # most 2e-12 of the peak and the rounding 3e-11 in the draws
        # measured, it is 0
        nz = s > _FRAC_FLAT * min(thetas)
        ys = [s[nz] / th_i for th_i in thetas]
        rows = [ml_e1_neg(betas, y) for y in ys]
        out = np.zeros_like(s)
        for k, (e, c) in enumerate(terms):
            for a_i, th_i, y, e1 in zip(weights, thetas, ys, rows):
                out[nz] += c * a_i * th_i ** (-e) * y ** (1.0 - e) * e1[k]
        return out

    return _Peel(subtract, 0.0, time)


def _fluid_terms(model, x):
    """The fractional terms of the power-law fluid's 1D spectrum and the
    coefficient of its p^0 term.

    kappa = C p^g, so the spectrum (C/2) p^(g-2) exp(-C x p^g) expands
    exactly as sum_k c_k p^(s_k), c_k = (C/2) (-C x)^k/k!,
    s_k = (k+1) g - 2.  Every s_k < 0 is the fractional term e_k = s_k + 1
    (one peel carries them all: its pole sums are 1 + O(p^2), so it
    induces no p^(s_k+1) term), and the remainder tends to the coefficient
    of an s_k = 0 term, if there is one, at p = 0.
    """
    g = 1.0 - model.measure.tail_exponent_high
    c_b = abs(wave_number(model, -1.0j))     # |C (-i)^g|
    terms, dc = [], 0.0
    k = 0
    while (s_k := (k + 1) * g - 2.0) < _EXP_TOL:
        coef = 0.5 * c_b * (-c_b * x) ** k / math.factorial(k)
        # an exponent within rounding of 0 (g = 2/(k+1) up to the ulps of
        # 1 - (1 - g)) is the p^0 term
        if s_k > -_EXP_TOL:
            dc = coef
        else:
            terms.append((s_k + 1.0, coef))
        k += 1
    return terms, dc


def _lam_decay(model, x, p):
    """lam(p) exp(-beta(p) x) and lam(p) = 1/c_inf + beta(p)/p from one
    beta, as new arrays."""
    beta = np.asarray(dispersion_attenuation(model, p))
    lam = beta / p
    lam += 1.0 / model.c_inf
    beta *= -x
    np.exp(beta, out=beta)
    beta *= lam
    return beta, lam


def _spectrum(model, x, dim, p):
    """The Green's spectrum at p, as a new array: lam exp(-beta x)/(2 p) in
    1D, lam^2 exp(-beta x)/(4 pi x) in 3D."""
    out, lam = _lam_decay(model, x, p)
    if dim == 1:
        out *= 0.5
        out /= p
    else:
        out *= lam
        out /= 4.0 * math.pi * x
    return out


def _synthesize(model, x, n_samples, T, taper, pad_factor, dim):
    """The synthesis core shared by :func:`green1d` and :func:`green3d`."""
    if not 0.0 < x < math.inf:
        raise ValueError("x must be positive and finite")
    measure, c_inf, c0 = model.spectral_measure(), model.c_inf, model.c0
    sing = _sing_exponent(measure)
    if pad_factor is None:
        pad_factor = 32 if sing is None else 64
    if c0 is None:
        if dim == 3:
            raise NotImplementedError("3D synthesis requires G_inf > 0")
        if not (isinstance(model, MeasureMedium)
                and measure.label == "power-law" and math.isinf(c_inf)):
            raise NotImplementedError(
                "fluid media other than the power-law (strongly singular) "
                "regime are not supported")
    t_w = x / c_inf     # 0 for the fluid, which has no wavefront
    _validate_sampling(n_samples, T, t_w, pad_factor)
    dt = T / n_samples
    n_full = n_samples * pad_factor
    t_period = n_full * dt
    theta = t_period / _THETA_FRACTION
    la = 1.0 / (_KINK_SAMPLES * dt)
    lb = la / 2.0

    front_delta, a1, a2 = (float(a) for a in _large_p_terms(model, x, dim))
    if c0 is None:
        dc_step = 0.0
        terms, dc = _fluid_terms(model, x)
    elif dim == 1:
        dc_step = 0.5 / c0
        terms, dc = _small_p_terms(model, x, c0)
    else:
        dc_step = 0.0
        terms = _small_p_terms3d(model, x)
        dc = 1.0 / (4.0 * math.pi * x * c0 ** 2)
    # a_0 is the front delta; the step and the ramp c/(p + 1/theta) carry
    # a_1/p, and the kink what the ramp's -c/(theta p^2) leaves of a_2/p^2
    ramp = a1 - dc_step
    kink = a2 + ramp / theta
    peels = [_step_peel(dc_step)] if dc_step else []
    if ramp:
        peels.append(_exp_peel(ramp, theta))
    if kink:
        peels.append(_kink_peel(kink, la, lb))
    theta_f, n_poles = (T / _FLUID_FRACTION, 4) if c0 is None \
        else (T / _FRAC_FRACTION, 5)
    if terms:
        peels.append(_frac_peel(terms, *_frac_poles(theta_f, n_poles)))
    diagnostics = {"pad_factor": pad_factor, "bins": n_full // 2,
                   "peel_exponents": [e for e, _ in terms],
                   "peel_coefficients": [c for _, c in terms]}
    if dim == 1:
        diagnostics["c_lin"] = dc
    diagnostics["frac_timescale"] = theta_f

    def remainder(p):
        """The spectrum at p less the front delta and every peel."""
        rem = _spectrum(model, x, dim, p)
        rem -= front_delta
        for peel in peels:
            peel.subtract(rem, p)
        return rem

    # wavefront shift: integer part as an index roll, fractional part as a
    # phase on the (smooth, jump-free) remainder spectrum; the peels are
    # added back at the exact arrival time
    k_shift = int(math.floor(t_w / dt))
    delta = t_w - k_shift * dt
    W = np.empty(n_full // 2 + 1, dtype=complex)
    W[0] = dc - front_delta - sum(peel.dc for peel in peels)
    _fill(W, dt, remainder, delta, taper)
    w_time = np.fft.irfft(W, n=n_full)
    w_time /= dt
    tail = w_time[-max(4, n_full // 512):]
    alias = float(np.max(np.abs(tail)))

    m = np.arange(n_samples)
    u = w_time[(m - k_shift) % n_full]
    s = (m - k_shift) * dt - delta
    pos = s >= 0.0
    u[pos] += sum(peel.time(s[pos]) for peel in peels)
    if front_delta != 0.0 and 0 <= k_shift < n_samples:
        # delta at the exact arrival time, split between the two samples
        frac = delta / dt
        u[k_shift] += front_delta * (1.0 - frac) / dt
        if k_shift + 1 < n_samples:
            u[k_shift + 1] += front_delta * frac / dt

    peak = float(np.max(np.abs(u)))
    if not alias <= _ALIAS_LIMIT * peak:     # NaN included
        # a wrapped relaxation tail varies slowly over the window; the
        # Nyquist-scale ringing of an unresolved front or fluid start
        # changes by more than its own size from sample to sample
        advice = "the front rings at the Nyquist rate; increase n_samples" \
            if np.max(np.abs(np.diff(tail))) > alias \
            else "increase pad_factor or T"
        raise SpectralDecayError(
            f"wrap-around tail {alias:.2e} exceeds {_ALIAS_LIMIT:.0e} of "
            f"peak {peak:.2e}; {advice}")

    return Waveform(
        time_grid=m * dt,
        samples=u,
        x=x,
        wavefront_time=None if c0 is None else t_w,
        dc_step_amplitude=dc_step,
        front_delta_area=front_delta,
        diagnostics={**diagnostics, "alias_ratio": alias / peak,
                     "alias_limit": _ALIAS_LIMIT},
    )


def green1d(model, x: float, n_samples: int, T: float, taper: bool = True,
            pad_factor: int | None = None) -> Waveform:
    """1D Green's function at distance x on a uniform grid covering [0, T].

    ``taper``: raised-cosine window over the top 10% of the band; disable
    when measuring wavefront discontinuities, which a taper would mask.
    ``pad_factor``: internal period extension, a positive int power of two
    (ValueError otherwise); defaults to 64 for media with an algebraic
    relaxation tail (Cole-Cole, Havriliak-Negami), whose small-p powers
    below p^2 are peeled exactly, and 32 otherwise.
    """
    return _synthesize(model, x, n_samples, T, taper, pad_factor, dim=1)


def green3d(model, x: float, n_samples: int, T: float, taper: bool = True,
            pad_factor: int | None = None) -> Waveform:
    """3D Green's function via the frequency-domain reduction
    u3^(w, x) = kappa(-i w)/(2 pi x) * u1^(w, x).

    Media with finite spectral mass carry a genuine delta at the front; it
    is added as a single-sample spike of the analytically known area.
    ``pad_factor`` defaults to 64 for media with an algebraic relaxation
    tail (Cole-Cole, Havriliak-Negami), whose small-p powers below p^1 are
    peeled exactly, and 32 otherwise."""
    return _synthesize(model, x, n_samples, T, taper, pad_factor, dim=3)


def causality_metric(w: Waveform) -> float:
    """Largest pre-wavefront amplitude (t < wavefront - 2 dt) over the
    global peak; ~1e-6 or below for a correct synthesis."""
    if w.wavefront_time is None:
        raise ValueError("waveform has no wavefront")
    dt = w.dt
    pre = w.time_grid < (w.wavefront_time - 2.0 * dt)
    if not np.any(pre):
        return 0.0
    return float(np.max(np.abs(w.samples[pre])) / np.max(np.abs(w.samples)))


def wavefront_smoothness(w: Waveform, order: int = 3) -> dict[int, float]:
    """Normalised finite-difference magnitudes across the wavefront.

    For each difference order k = 0..order, compares the magnitude at the
    wavefront sample against the largest magnitude that difference attains
    anywhere in the waveform (order 0 uses the 4-sample straddle
    |u[k+2] - u[k-2]| against the global peak).  A discontinuous front
    scores near 1 at every order; a smoothed front scores near 0.
    Raises ValueError when the front lies so close to either end of the
    grid that a stencil would leave it.
    """
    if w.wavefront_time is None:
        raise ValueError("waveform has no wavefront")
    if not 0 <= order <= 3:
        raise ValueError("order must be in 0..3")
    k_f = int(round(w.wavefront_time / w.dt))
    u = w.samples
    n = len(u)
    # order 0 reads u[k_f - 2 .. k_f + 2]; order k reads d[c - 1 .. c + 1]
    # of the n - k differences d, c = k_f - (k + 1)//2
    centers = {k: k_f - (k + 1) // 2 for k in range(1, order + 1)}
    if not (2 <= k_f <= n - 3
            and all(1 <= c <= n - k - 2 for k, c in centers.items())):
        raise ValueError(f"wavefront sample {k_f} too close to the ends of "
                         f"the {n}-sample grid for order {order}")
    out: dict[int, float] = {}
    out[0] = float(abs(u[k_f + 2] - u[k_f - 2]) / np.max(np.abs(u)))
    for k, center in centers.items():
        d = np.diff(u, k)
        window = d[center - 1:center + 2]
        out[k] = float(np.max(np.abs(window)) / np.max(np.abs(d)))
    return out
