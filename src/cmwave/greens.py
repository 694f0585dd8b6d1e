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
 * an exponential  c/(p+1/theta)  -> c e^(-s/theta) H(s): in 1D the
   jump-to-final ramp, c = v0 - v_inf; in 3D fitted to the 1/p content,
 * the fractional terms (1D)  sum_k C_k p^(s_k-1) sum_i A_i/(1+theta_i p)
                                        -> sum_k C_k sum_i A_i theta_i^(-s_k)
                                           phi_k(s/theta_i) H(s),
   phi_k(y) = y^(1-s_k) E_{1,2-s_k}(-y), matching the s^(-sig) relaxation
   tail of media whose spectral density reaches r = 0 (Cole-Cole,
   Havriliak-Negami), with s_k = sig and, while it stays below 1, 2 sig.
   One peel carries every term over pole sums formed once.  Three poles
   make the subtracted term flat to order s^(3-s_k) at the front (the
   partial-fraction sums kill the p^(s_k-2) and p^(s_k-3) coefficients),
   so no artificial cusp is injected there,
 * a residual second-order term  j1/((p+la)(p+lb))
                                        -> j1 (e^(-la s) - e^(-lb s)) /
                                           (lb - la) H(s),
   with short timescales, fitted to whatever 1/p^2 content the previous
   subtractions leave; this carries the slope kink at the front.

The front jump v0 = exp(-beta(inf) x)/(2 c_inf) and the delta area
c_delta = exp(-beta(inf) x)/(4 pi x c_inf^2) use the exact limit
beta(inf) = int h(r) dr (infinite, so both vanish, for algebraic tails).
The fitted coefficients come from one real-axis fit at a rate well above
every scale of the synthesis, where beta is free of cancellation.  What
remains decays at least like p^-3, is pole-free, and inverts cleanly; the
wavefront shift is applied as an integer index shift so that
pre-wavefront samples come from the (tiny) tail of the causal remainder
rather than from interpolation ringing.  The padding pushes wrap-around
aliasing of the relaxation tail below the causality tolerance, and the
core raises SpectralDecayError when it does not.

The cost is the n_samples * pad_factor / 2 spectrum bins: pad 256 for
algebraic tails, 32 otherwise, so 0.5 to 1 million bins for Cole-Cole and
Havriliak-Negami at n = 4096 to 8192.  Every bin lies on the ray
p = -i omega, so the powers (tau p)^alpha of beta and p^(s_k-1) of the
fractional peel are one real power times one scalar phase, and the
Havriliak-Negami factor (1 + x)^-gamma is taken in polar form
(wavenumber._principal_power).  The spectrum is built in place and each
peel is subtracted from the bins in place, so no full-length array
outlives its step.  The real-axis fits are ill-conditioned: a one-ulp
change in beta at the fit's p = 1e-12 r_scale moves a waveform by up to
1e-7 of its peak.  So every expression they evaluate keeps its
np.power arithmetic, and waveforms agree with the plain complex
evaluation to roundoff (6e-16 of the peak).  Measured on a 2-vCPU host
against that plain evaluation: the median cmwave greens op of
perfbench's greens workload takes 0.19 s instead of 0.33 s, and a
Cole-Cole 3D synthesis over 1M bins peaks at 88 MB of arrays instead of
136 MB.

Media with G_inf = 0 have no final-value step; the 1D viscoelastic-fluid
path is implemented for power-law media (the strongly singular,
no-wavefront regime), where the small-p expansion of the spectrum is
available in closed form and its non-integrable powers are peeled term by
term.  It shares only the frequency grid and the inversion with the core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .measures import SpectralMeasure
from .mittag_leffler import mittag_leffler, ml_e1_neg
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
_FRAC_FRACTION = 500.0    # fractional-peel timescale = period / this
_KINK_SAMPLES = 30.0      # short-peel timescale, in samples
_ALIAS_LIMIT = 1e-4       # raise when the wrapped tail exceeds this x peak
_FIT_RATIO = 1e3          # real-axis fit rate / largest synthesis rate


def _frac_poles(theta_f: float):
    """Pole timescales and weights of the fractional-tail subtraction.

    Four poles theta_f * (1, 1/2, 1/4, 1/8) with weights solving

        sum A_i = 1,    sum A_i/theta_i = 0,
        sum A_i/theta_i^2 = 0,    sum A_i theta_i = 0.

    The first condition reproduces the p^(sig-1) singularity exactly; the
    middle two kill the p^(sig-2) and p^(sig-3) high-frequency terms (no
    artificial cusp at the front); the last kills the leading s^(-1-sig)
    error of the far tail, so the subtraction matches the physical
    relaxation tail to O((theta_f/s)^2) relative.
    """
    thetas = theta_f * np.array([1.0, 0.5, 0.25, 0.125])
    rows = np.array([np.ones(4), 1.0 / thetas, 1.0 / thetas ** 2, thetas])
    rhs = np.array([1.0, 0.0, 0.0, 0.0])
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
    and, for media with a wavefront, ``alias_ratio``, the wrapped tail over
    the peak, against ``alias_limit``, above which the synthesis raises
    SpectralDecayError.
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
        if isinstance(path_or_buf, (str, bytes)):
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
            for t, u in zip(self.time_grid, self.samples):
                buf.write(f"{t:.16e},{u:.16e}\n")
        finally:
            if close:
                buf.close()


def _validate_sampling(n_samples: int, T: float, t_w: float | None) -> None:
    if n_samples < 4096 or (n_samples & (n_samples - 1)) != 0:
        raise ValueError("n_samples must be a power of two >= 4096")
    if T <= 0.0:
        raise ValueError("T must be positive")
    if t_w is not None and not T > t_w:
        raise ValueError("T must exceed the wavefront time x/c_inf")


def _bins(n_samples: int, T: float, pad_factor: int):
    """Sample step and the angular frequencies of rfft bins 1..N/2 of the
    padded period of N = n_samples * pad_factor samples."""
    dt = T / n_samples
    n_full = n_samples * pad_factor
    return dt, np.arange(1, n_full // 2 + 1) * (2.0 * math.pi / (n_full * dt))


def _invert(W, dt):
    """Synthesize w(s_m) = (1/2 pi) int e^(-i w s) W(w) dw from rfft-layout
    samples (bins 0..N/2, overwritten); returns a length-2(len(W)-1) real
    array."""
    W[-1] = W[-1].real
    w_time = np.fft.irfft(np.conj(W, out=W), n=2 * (len(W) - 1))
    w_time /= dt
    return w_time


def _taper(W, frac=0.1):
    n = len(W)
    j0 = int((1.0 - frac) * (n - 1))
    j = np.arange(j0, n)
    W[j0:] *= 0.5 * (1.0 + np.cos(math.pi * (j - j0) / (n - 1 - j0)))
    return W


def _sing_exponent(measure: SpectralMeasure) -> float | None:
    if measure.support[0] == 0.0 and measure.tail_exponent_low is not None \
            and 0.0 < measure.tail_exponent_low < 1.0:
        return measure.tail_exponent_low
    return None


def _real_axis_fit(f, p0, exps):
    """Coefficients c_k of f(p) = sum_k c_k p^exps[k] + ..., solved from f
    sampled at p0 * 2^k (k = 0, 1, ...) on the positive real axis."""
    pts = p0 * 2.0 ** np.arange(len(exps))
    return np.linalg.solve(pts[:, None] ** np.asarray(exps, dtype=float),
                           f(pts))


def _low_freq_fit(q, sing_exp, r_scale):
    """Fit the small-p expansion of q(p) = p V(p) - v_inf of the 1D
    spectrum V on the real axis.

    Returns (fractional_terms, c_lin): fractional_terms is a list of
    (exponent, coefficient) pairs covering sig and, when it still lies
    below 1, 2 sig (whose inverse tail would otherwise outlive the linear
    term); c_lin is the analytic p^1 coefficient.
    """
    exps = [] if sing_exp is None else [sing_exp]
    if sing_exp is not None and 2.0 * sing_exp < 0.95:
        exps.append(2.0 * sing_exp)
    basis = exps + [1.0] if exps else [1.0, 2.0]
    coefs = _real_axis_fit(q, 1e-12 * r_scale, basis)
    return list(zip(exps, coefs)), float(coefs[len(exps)])


@dataclass(frozen=True)
class _Peel:
    """One analytically inverted part of the spectrum: ``subtract(out, p)``
    subtracts its spectrum at p from ``out`` in place, ``dc`` is
    subtracted from bin 0 (its p -> 0 value, less any singular part the
    low-frequency fit already carries); ``time(s)`` is added back for
    s >= 0."""

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
    The pole sum is formed once for all terms."""
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

    def time(s):
        out = np.zeros_like(s)
        for e, c in terms:
            for a_i, th_i in zip(weights, thetas):
                y = s / th_i
                nz = y > 0.0
                out[nz] += c * a_i * th_i ** (-e) * y[nz] ** (1.0 - e) \
                    * ml_e1_neg(2.0 - e, y[nz])
        return out

    return _Peel(subtract, 0.0, time)


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
    if x <= 0.0:
        raise ValueError("x must be positive")
    measure, c_inf, c0 = model.spectral_measure(), model.c_inf, model.c0
    if c0 is None:
        if dim == 3:
            raise NotImplementedError("3D synthesis requires G_inf > 0")
        return _green1d_fluid(model, x, n_samples, T, taper)
    t_w = x / c_inf
    _validate_sampling(n_samples, T, t_w)

    sing = _sing_exponent(measure)
    if pad_factor is None:
        pad_factor = 256 if sing is not None else 32
    dt, omega = _bins(n_samples, T, pad_factor)
    t_period = n_samples * pad_factor * dt
    theta = t_period / _THETA_FRACTION
    la = 1.0 / (_KINK_SAMPLES * dt)
    lb = la / 2.0

    front = math.exp(-beta_at_infinity(model) * x)
    if dim == 1:
        dc_step = 0.5 / c0
        frac_terms, dc = _low_freq_fit(
            lambda p: 0.5 * _lam_decay(model, x, p + 0.0j)[0].real
            - dc_step, sing, measure.r_scale)
        peels = [_step_peel(dc_step),
                 _exp_peel(0.5 * front / c_inf - dc_step, theta)]
        if frac_terms:
            peels.append(_frac_peel(
                frac_terms, *_frac_poles(t_period / _FRAC_FRACTION)))
        front_delta = 0.0
        fit_orders = (2,)
    else:
        dc_step = 0.0
        dc = 1.0 / (4.0 * math.pi * x * c0 ** 2)
        peels = []
        front_delta = front / (4.0 * math.pi * x * c_inf ** 2)
        fit_orders = (1, 2)

    # the 1/p (3D) and 1/p^2 content the analytic peels leave is fitted on
    # the real axis, at one rate well above every scale of the synthesis
    def residual(p):
        rem = np.real(_spectrum(model, x, dim, p + 0.0j)) - front_delta
        for peel in peels:
            peel.subtract(rem, p)
        return rem

    p_fit = _FIT_RATIO * max(measure.r_scale, la, 1.0 / theta)
    for order in fit_orders:
        coef = _real_axis_fit(lambda p: p ** order * residual(p), p_fit,
                              (0.0, -1.0))[0]
        peels.append(_exp_peel(coef, theta) if order == 1
                     else _kink_peel(coef, la, lb))

    W = np.empty(len(omega) + 1, dtype=complex)
    W[0] = dc - front_delta - sum(peel.dc for peel in peels)
    p = -1j * omega
    W[1:] = _spectrum(model, x, dim, p)
    W[1:] -= front_delta
    for peel in peels:
        peel.subtract(W[1:], p)
    # wavefront shift: integer part as an index roll, fractional part as a
    # phase on the (smooth, jump-free) remainder spectrum; the peels are
    # added back at the exact arrival time
    k_shift = int(math.floor(t_w / dt))
    delta = t_w - k_shift * dt
    if delta > 0.0:
        # the phase e^(i delta omega), written over p, which is done with
        omega *= delta
        np.cos(omega, out=p.real)
        np.sin(omega, out=p.imag)
        W[1:] *= p
    if taper:
        _taper(W)
    w_time = _invert(W, dt)
    n_full = len(w_time)
    alias = float(np.max(np.abs(w_time[-max(4, n_full // 512):])))

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
    if alias > _ALIAS_LIMIT * peak:
        raise SpectralDecayError(
            f"wrap-around tail {alias:.2e} exceeds {_ALIAS_LIMIT:.0e} of "
            f"peak {peak:.2e}; increase pad_factor or T")

    return Waveform(
        time_grid=m * dt,
        samples=u,
        x=x,
        wavefront_time=t_w,
        dc_step_amplitude=dc_step,
        front_delta_area=front_delta,
        diagnostics={"pad_factor": pad_factor, "bins": len(omega),
                     "alias_ratio": alias / peak,
                     "alias_limit": _ALIAS_LIMIT},
    )


def green1d(model, x: float, n_samples: int, T: float, taper: bool = True,
            pad_factor: int | None = None) -> Waveform:
    """1D Green's function at distance x on a uniform grid covering [0, T].

    ``taper``: raised-cosine window over the top 10% of the band; disable
    when measuring wavefront discontinuities, which a taper would mask.
    ``pad_factor``: internal period extension (a power of two); defaults to
    256 for media with an algebraic relaxation tail and 32 otherwise.
    """
    return _synthesize(model, x, n_samples, T, taper, pad_factor, dim=1)


def green3d(model, x: float, n_samples: int, T: float, taper: bool = True,
            pad_factor: int | None = None) -> Waveform:
    """3D Green's function via the frequency-domain reduction
    u3^(w, x) = kappa(-i w)/(2 pi x) * u1^(w, x).

    Media with finite spectral mass carry a genuine delta at the front; it
    is added as a single-sample spike of the analytically known area."""
    return _synthesize(model, x, n_samples, T, taper, pad_factor, dim=3)


def _green1d_fluid(model, x, n_samples, T, taper):
    """Viscoelastic fluid path (G_inf = 0): no final-value step, no
    wavefront shift when c_inf is infinite.  Implemented for power-law
    media, whose small-p spectrum expansion is exact.

    The spectrum behaves like sum_k c_k p^(s_k) with s_k = (k+1)g - 2 in
    (-2, 0) near p = 0 (the creep terms).  Each such power is peeled as a
    damped term c p^s/(1 + theta p), whose inverse
    (c/theta) t^(-s) E_{1,1-s}(-t/theta) vanishes at t = 0 and matches the
    t^(-s-1) growth at late times; the induced c*theta p^(s+1) pieces are
    peeled recursively until the leftover exponent is positive, so the DC
    bin is zero and no singular time function is ever sampled.
    """
    if not (isinstance(model, MeasureMedium)
            and model.measure.label == "power-law"
            and math.isinf(model.c_inf)):
        raise NotImplementedError(
            "fluid media other than the power-law (strongly singular) "
            "regime are not supported")
    _validate_sampling(n_samples, T, None)
    g = 1.0 - model.measure.tail_exponent_high      # kappa ~ C p^g
    c_b = wave_number(model, 1.0 + 0.0j).real       # C = kappa(1)

    pad_factor = 32
    dt, omega = _bins(n_samples, T, pad_factor)
    p = -1j * omega
    theta = T / 64.0

    v_spec = _principal_power(p, g - 2.0)
    v_spec *= np.exp(-c_b * x * _principal_power(p, g))
    v_spec *= 0.5 * c_b

    # exp(-C x p^g) = sum_k (-C x)^k p^(k g)/k! gives the singular powers
    work = []
    k = 0
    while (k + 1) * g - 2.0 < -0.05:
        coef = 0.5 * c_b * (-c_b * x) ** k / math.factorial(k)
        work.append((coef, (k + 1) * g - 2.0))
        k += 1

    m = np.arange(n_samples)
    t = m * dt
    addback = np.zeros(n_samples)
    while work:
        coef, s_exp = work.pop()
        v_spec -= coef * _principal_power(p, s_exp) / (1.0 + theta * p)
        e = mittag_leffler(1.0, 1.0 - s_exp, -t / theta)
        addback += (coef / theta) * t ** (-s_exp) * e
        if s_exp + 1.0 < -0.05:
            work.append((coef * theta, s_exp + 1.0))

    W = np.concatenate(([0.0 + 0.0j], v_spec))
    if taper:
        _taper(W)
    u = _invert(W, dt)[:n_samples] + addback

    return Waveform(
        time_grid=t,
        samples=u,
        x=x,
        wavefront_time=None,
        dc_step_amplitude=0.0,
        diagnostics={"pad_factor": pad_factor, "bins": len(omega)},
    )


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
    """
    if w.wavefront_time is None:
        raise ValueError("waveform has no wavefront")
    if not 0 <= order <= 3:
        raise ValueError("order must be in 0..3")
    k_f = int(round(w.wavefront_time / w.dt))
    u = w.samples
    out: dict[int, float] = {}
    out[0] = float(abs(u[k_f + 2] - u[k_f - 2]) / np.max(np.abs(u)))
    for k in range(1, order + 1):
        d = np.diff(u, k)
        center = k_f - (k + 1) // 2
        window = d[max(center - 1, 0):center + 2]
        out[k] = float(np.max(np.abs(window)) / np.max(np.abs(d)))
    return out
