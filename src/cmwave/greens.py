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
 * the exact small-p function of beta, for solids whose spectral measure
   reaches r = 0 (Cole-Cole, Havriliak-Negami), whose small-p powers
   p^(k alpha) set the slow relaxation tail:

       G(p) = (L (1 - x beta + x^2 beta^2/2) - 1/c0) P(p)/(2 p)    (1D),
       G(p) = (L^2 (1 - x beta) - 1/c0^2) P(p)/(4 pi x)           (3D),

   L = lam, with P = sum A_i/(1 + theta_i p) a six-pole sum that is
   1 + O(p^3) at small p and O(p^-4) at high rates (_frac_poles).  G is
   the spectrum less the step with exp(-x beta) cut to its Taylor
   polynomial, so the remainder is c p^2 + O(p^(2 + alpha)) in 1D and
   1/(4 pi x c0^2) + O(p^2) in 3D, bin 0 takes 0 and 1/(4 pi x c0^2), and
   the tail left decays like s^-3 or faster.  G is formed from the beta
   that each bin already holds; its time function is added back by
   windowed parabolic contours (_contour_inverse), which evaluate beta at
   44 nodes per decade of time off the imaginary axis.  A measure that
   stays off r = 0 (the SLS, Cole-Davidson, a finite band) leaves beta
   analytic at p = 0: nothing is peeled, and the 1D bin 0 takes the
   p^1 coefficient c_lin = -int h/r^2 dr/2 - x (1/c0 - 1/c_inf)/(2 c0).

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
at n = 8192, and 176 contour nodes at verify's settings (x = 16 c_inf
tau, n = 4096), where the error against a Talbot or de Hoog inversion is
at most 1.6e-9 of the peak for Cole-Cole a 1.5, alpha 0.4 and 8.9e-8
(1D) and 3.7e-7 (3D) for the strongly relaxing a 13.36, alpha 0.59.  On
the bins p = -i omega the powers (tau p)^alpha of beta are one real
power times one scalar phase, and the Havriliak-Negami factor
(1 + x)^-gamma is taken in polar form (wavenumber._principal_power).  The
bins are filled in blocks of _BLOCK bins, one pass per block: it forms
the block's p and beta, evaluates the spectrum, subtracts the front delta
and every peel in place, applies the wavefront phase, the taper and the
conjugate, and writes the result into the irfft input.  So the
arithmetic passes run over arrays that stay in one core's L2 cache, and
no full-length array exists but the irfft input and output.  A bin goes
through the same operations whichever block it falls in, so the
waveforms do not depend on the block size, bit for bit.

Media with G_inf = 0 have no final-value step.  Of those, the 1D
power-law fluid (the strongly singular regime, kappa = C p^g with no
wavefront) is one more peel set of the same core: its spectrum
(C/2) p^(g-2) exp(-C x p^g) has an exact small-p expansion, a four-pole
fractional peel carries each of its negative powers, added back by
Mittag-Leffler functions (ml_e1_neg), and bin 0 is the coefficient of
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
from .measures import SpectralMeasure
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
_FRAC_FRACTION = 2.0      # solids' small-p pole timescale = T / this
_FLUID_FRACTION = 64.0    # ... and the power-law fluid's
_EXP_TOL = 1e-9           # exponents this close are equal
_FRAC_FLAT = 1e-5         # small-p add-back is 0 below this x min theta_i
_KINK_SAMPLES = 30.0      # short-peel timescale, in samples
_ALIAS_LIMIT = 1e-4       # raise when the wrapped tail exceeds this x peak
_TAPER_FRACTION = 0.1     # raised-cosine taper over this top part of the band
# Bins per pass of the spectrum fill, chosen by timing 4096, 16384 and
# 65536: a pass keeps six to eight complex temporaries of its block alive
# (1.5 to 2 MiB by tracemalloc at 16384), so they fit in one core's 2 MiB
# L2 cache; 65536 spills it and 4096 pays more per-pass overhead.
_BLOCK = 16384
# The small-p add-back's parabolic contour (_contour_inverse): one per
# log-time window of this ratio, with these nodes on its upper half, step
# h and scale mu t0
_CONTOUR_WINDOW = 10.0
_CONTOUR_NODES = 44
_CONTOUR_STEP = 0.2045
_CONTOUR_MU = 0.384


def _frac_poles(theta_f: float, n_poles: int, n_tail: int):
    """Pole timescales and weights of a small-p peel's pole sum
    P(p) = sum A_i/(1 + theta_i p).

    Poles theta_i = theta_f * 2^-i, i < n_poles, with weights solving

        sum A_i = 1,    sum A_i/theta_i^j = 0 (j = 1 .. n_poles - n_tail - 1),
        sum A_i theta_i^j = 0 (j = 1 .. n_tail).

    The first and last conditions keep the peeled small-p content:
    P = 1 + O(p^(n_tail+1)).  The middle ones make P = O(p^-(n_poles -
    n_tail)) at high rates, so the subtracted term is flat at the front (no
    artificial cusp there) and adds no 1/p or 1/p^2 term to what the
    large-p peels carry.  The power-law fluid takes four poles and one
    tail condition; the exact small-p peel of solids six and two, so that
    1 - P = O(p^3) leaves no term below p^(2 + alpha) in the 1D remainder.
    """
    # solved in units of theta_f, each row scaled to a largest entry of 1,
    # so each condition holds to the rounding of its own terms (in seconds
    # the six-pole rows span 60 decades: the last held to 4e-13)
    ratios = 0.5 ** np.arange(n_poles)
    rows = np.array([ratios ** -j for j in range(n_poles - n_tail)]
                    + [ratios ** j for j in range(1, n_tail + 1)])
    rows /= np.abs(rows).max(axis=1, keepdims=True)
    rhs = np.zeros(n_poles)
    rhs[0] = 1.0
    return theta_f * ratios, np.linalg.solve(rows, rhs)


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
    the number of spectrum ``bins`` evaluated (n_samples * pad_factor / 2),
    ``alias_ratio``, the level of the tail window over the peak, against
    ``alias_limit``, above which the synthesis raises SpectralDecayError,
    and ``alias_kind``, that level's shape: "ringing" where it changes by
    more than its size from sample to sample, "wrap" otherwise.  A peel of
    small-p content adds its pole timescale ``frac_timescale``: the exact
    small-p peel of solids the number ``contour_nodes`` of off-axis beta
    evaluations of its add-back, the power-law fluid the terms it peels,
    ``peel_exponents`` e_k and ``peel_coefficients`` (of p^(e_k - 1)).  A
    1D solid with no small-p peel records ``c_lin``, the p^1 coefficient
    of p v(p) in bin 0.
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
    """One analytically inverted part of the spectrum: ``subtract(out, p,
    beta)`` subtracts its spectrum at p from ``out`` in place (beta is
    beta(p), which only the small-p peel of solids reads), ``dc`` is
    subtracted from bin 0 (its p -> 0 value; 0 for a term singular there,
    whose small-p content the small-p peel and bin 0 carry); ``time(s)``
    is added back for s >= 0."""

    subtract: Callable[[np.ndarray, np.ndarray, np.ndarray], None]
    dc: float
    time: Callable[[np.ndarray], np.ndarray]


def _step_peel(v):
    """v/p <-> v H(s)."""
    def subtract(out, p, beta):
        out -= v / p

    return _Peel(subtract, 0.0, lambda s: np.full_like(s, v))


def _exp_peel(c, theta):
    """c/(p + 1/theta) <-> c e^(-s/theta) H(s)."""
    def subtract(out, p, beta):
        term = p + 1.0 / theta
        out -= np.divide(c, term, out=term)

    return _Peel(subtract, c * theta, lambda s: c * np.exp(-s / theta))


def _kink_peel(j1, la, lb):
    """j1/((p+la)(p+lb)) <-> j1 (e^(-la s) - e^(-lb s))/(lb - la) H(s)."""
    def subtract(out, p, beta):
        term = p + la
        term *= p + lb
        out -= np.divide(j1, term, out=term)

    return _Peel(subtract, j1 / (la * lb),
                 lambda s: j1 * (np.exp(-la * s) - np.exp(-lb * s))
                 / (lb - la))


def _pole_sum(p, thetas, weights):
    """sum_i A_i/(1 + theta_i p), as a new array."""
    poles = np.zeros_like(p)
    term = np.empty_like(p)
    for a_i, th_i in zip(weights, thetas):
        np.multiply(p, th_i, out=term)
        term += 1.0
        poles += np.divide(a_i, term, out=term)
    return poles


def _frac_peel(terms, thetas, weights):
    """sum_k c_k p^(e_k-1) sum_i A_i/(1 + theta_i p)
    <-> sum_k c_k sum_i A_i theta_i^(-e_k) phi_k(s/theta_i) H(s),
    phi_k(y) = y^(1-e_k) E_{1,2-e_k}(-y), for the (e_k, c_k) of ``terms``.
    The pole sum is formed once for all terms, and the add-back evaluates
    every term's E_{1,2-e_k} at a pole in one ml_e1_neg call."""
    def subtract(out, p, beta):
        poles = _pole_sum(p, thetas, weights)
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


def _contour_inverse(transform, s):
    """The inverse Laplace transform of ``transform``, analytic off the
    closed negative real axis, at the increasing times s > 0, and the
    number of nodes at which it evaluated ``transform``.

    One parabola z = mu (1 + i u)^2, mu = _CONTOUR_MU/t0, serves every time
    in the window [t0, Lam t0], Lam = _CONTOUR_WINDOW (Weideman &
    Trefethen, Math. Comp. 76 (2007) 1341-1356): the trapezoid rule of
    step h at u_k = k h, k < N = _CONTOUR_NODES, on the upper half, the
    lower half being its conjugate.  With a = mu t0, the discretisation
    error is e^(-2 pi/h) from the cut (Im u = 1, where the parabola folds
    onto the negative axis) and min over d of e^(a Lam (1 + d)^2 - 2 pi
    d/h) from the other side, the truncation e^(a (1 - (N h)^2)) and the
    roundoff eps e^(a Lam): Lam = 10 and N = 44 balance them near 1e-13.
    """
    u = _CONTOUR_STEP * np.arange(_CONTOUR_NODES)
    # h z'(u)/(2 pi i) over mu, doubled for the conjugate half
    weight = (_CONTOUR_STEP / math.pi) * (1.0 + 1j * u)
    weight[1:] *= 2.0
    out = np.empty_like(s)
    lo = 0
    nodes = 0
    while lo < len(s):
        hi = int(np.searchsorted(s, _CONTOUR_WINDOW * s[lo], side="right"))
        mu = _CONTOUR_MU / s[lo]
        z = mu * (1.0 + 1j * u) ** 2
        w = transform(z)
        w *= mu * weight
        kernel = np.multiply.outer(s[lo:hi], z)
        np.exp(kernel, out=kernel)
        out[lo:hi] = (kernel @ w).real
        nodes += len(z)
        lo = hi
    return out, nodes


def _small_p_peel(model, x, dim, c0, theta_f, diagnostics):
    """The exact small-p peel G of a solid whose measure reaches r = 0
    (module docstring), from beta alone, with the six-pole sum at theta_f.
    At high rates P = O(p^-4), so G is O(p^-3) or smaller and adds no 1/p
    or 1/p^2 term.  The add-back inverts G on windowed parabolas, with
    beta off the imaginary axis at their nodes, whose count goes into
    ``diagnostics``.  It is 0 below _FRAC_FLAT times the shortest pole
    timescale: a sample a few ulps after the arrival read 3.6e-8 of the
    peak in 3D with its own window (2.8e-9 when set to 0), and that window
    costs as many beta evaluations as any other.
    """
    thetas, weights = _frac_poles(theta_f, 6, 2)
    c_inf = model.c_inf

    def spectrum(p, beta):
        """G at p from beta = beta(p), as a new array."""
        lam = beta / p
        lam += 1.0 / c_inf
        xb = beta * x
        if dim == 1:
            g = 0.5 * xb
            g -= 1.0
            g *= xb
            g += 1.0
            g *= lam
            g -= 1.0 / c0
            g *= 0.5
            g /= p
        else:
            g = 1.0 - xb
            g *= lam
            g *= lam
            g -= 1.0 / c0 ** 2
            g /= 4.0 * math.pi * x
        g *= _pole_sum(p, thetas, weights)
        return g

    def subtract(out, p, beta):
        out -= spectrum(p, beta)

    def time(s):
        nz = s > _FRAC_FLAT * thetas[-1]
        out = np.zeros_like(s)
        out[nz], diagnostics["contour_nodes"] = _contour_inverse(
            lambda z: spectrum(
                z, np.asarray(dispersion_attenuation(model, z))), s[nz])
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


def _spectrum(model, x, dim, p, beta):
    """The Green's spectrum at p from beta = beta(p), as a new array:
    lam exp(-beta x)/(2 p) in 1D, lam^2 exp(-beta x)/(4 pi x) in 3D, with
    lam = 1/c_inf + beta/p."""
    lam = beta / p
    lam += 1.0 / model.c_inf
    out = beta * -x
    np.exp(out, out=out)
    out *= lam
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
    dc_step = 0.5 / c0 if dim == 1 and c0 is not None else 0.0
    # a_0 is the front delta; the step and the ramp c/(p + 1/theta) carry
    # a_1/p, and the kink what the ramp's -c/(theta p^2) leaves of a_2/p^2
    ramp = a1 - dc_step
    kink = a2 + ramp / theta
    peels = [_step_peel(dc_step)] if dc_step else []
    if ramp:
        peels.append(_exp_peel(ramp, theta))
    if kink:
        peels.append(_kink_peel(kink, la, lb))
    diagnostics = {"pad_factor": pad_factor, "bins": n_full // 2}
    r_lo, r_hi = measure.support
    if c0 is None:
        # bin 0: the p^0 term of the fluid's expansion
        terms, dc = _fluid_terms(model, x)
        theta_f = T / _FLUID_FRACTION
        if terms:
            peels.append(_frac_peel(terms, *_frac_poles(theta_f, 4, 1)))
        diagnostics.update(peel_exponents=[e for e, _ in terms],
                           peel_coefficients=[c for _, c in terms],
                           frac_timescale=theta_f)
    elif r_lo == 0.0 < r_hi:
        # the measure reaches r = 0: the exact small-p peel takes every
        # singular power, and bin 0 is the remainder's limit
        dc = 0.0 if dim == 1 else 1.0 / (4.0 * math.pi * x * c0 ** 2)
        theta_f = T / _FRAC_FRACTION
        diagnostics.update(frac_timescale=theta_f, contour_nodes=0)
        peels.append(_small_p_peel(model, x, dim, c0, theta_f, diagnostics))
    elif dim == 1:
        # beta is analytic at p = 0: bin 0 is the p^1 coefficient c_lin of
        # p V(p) - 1/(2 c0), -int h/r^2 dr/2 - x (1/c0 - 1/c_inf)/(2 c0)
        dc = diagnostics["c_lin"] = -0.5 * integrate_power(measure, -2.0) \
            - 0.5 * x / c0 * (1.0 / c0 - 1.0 / c_inf)
    else:
        dc = 1.0 / (4.0 * math.pi * x * c0 ** 2)

    def remainder(p):
        """The spectrum at p less the front delta and every peel."""
        beta = np.asarray(dispersion_attenuation(model, p))
        rem = _spectrum(model, x, dim, p, beta)
        rem -= front_delta
        for peel in peels:
            peel.subtract(rem, p, beta)
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
    # a wrapped relaxation tail varies slowly over the window; the
    # Nyquist-scale ringing of an unresolved front or fluid start changes
    # by more than its own size from sample to sample
    kind = "ringing" if np.max(np.abs(np.diff(tail))) > alias else "wrap"

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
        advice = "the front rings at the Nyquist rate; increase n_samples" \
            if kind == "ringing" else "increase pad_factor or T"
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
                     "alias_limit": _ALIAS_LIMIT, "alias_kind": kind},
    )


def green1d(model, x: float, n_samples: int, T: float, taper: bool = True,
            pad_factor: int | None = None) -> Waveform:
    """1D Green's function at distance x on a uniform grid covering [0, T].

    ``taper``: raised-cosine window over the top 10% of the band; disable
    when measuring wavefront discontinuities, which a taper would mask.
    ``pad_factor``: internal period extension, a positive int power of two
    (ValueError otherwise); defaults to 64 for media with an algebraic
    relaxation tail (Cole-Cole, Havriliak-Negami), and 32 otherwise.  The
    exact small-p peel leaves those a remainder whose tail falls like
    s^(-3 - alpha), but its coefficient grows with the relaxation
    strength: at pad 16, Cole-Cole a 13.36, alpha 0.59 read 9.2e-6 of the
    peak against Talbot at verify's settings, and 8.9e-8 at pad 64.
    """
    return _synthesize(model, x, n_samples, T, taper, pad_factor, dim=1)


def green3d(model, x: float, n_samples: int, T: float, taper: bool = True,
            pad_factor: int | None = None) -> Waveform:
    """3D Green's function via the frequency-domain reduction
    u3^(w, x) = kappa(-i w)/(2 pi x) * u1^(w, x).

    Media with finite spectral mass carry a genuine delta at the front; it
    is added as a single-sample spike of the analytically known area.
    ``pad_factor`` defaults to 64 for media with an algebraic relaxation
    tail (Cole-Cole, Havriliak-Negami), and 32 otherwise: the exact
    small-p peel leaves a remainder whose s^-3 tail wraps, at pad 16, to
    4.6e-5 of the peak for Cole-Cole a 13.36, alpha 0.59 at verify's
    settings, against 3.7e-7 at pad 64."""
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
