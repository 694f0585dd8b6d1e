"""Command-line front end: dispersion-curve tables, spectral densities,
Green's functions and the verification battery.

Frequencies on the command line are angular and expressed in MHz in the
sense of 1e6 rad/s (an angular frequency of 1 MHz here means
omega = 1e6 rad/s); everything internal is SI (rad/s).  Output is
deterministic: data rows never contain timestamps, and the metadata header
carries a hash of the resolved configuration instead.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage or configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import measures
from ._quad import QuadratureError
# attenuation and dispersion are unused here but stay importable from
# cmwave.cli: the benchmark's tracer wraps them under these names
from .dispersion import attenuation, curve, dispersion  # noqa: F401
from .greens import SpectralDecayError, causality_metric, green1d, green3d
from .mittag_leffler import MLToleranceError
from .verification import (
    CheckReport,
    PVConvergenceError,
    cbf_check,
    cm_check_relaxation,
    halfplane_grid,
    kk_residual,
    minimum_phase_check,
    positive_axis_grid,
)
from .wavenumber import (
    JumpExtrapolationError,
    MeasureMedium,
    attenuation_from_wavenumber,
    complex_modulus,
    wave_number,
)

__all__ = ["main"]

_OMEGA_UNIT = 1e6  # "MHz" on the CLI axis = 1e6 rad/s, matching the plots

_MODEL_CHOICES = ("cole-cole", "sls", "havriliak-negami", "cole-davidson",
                  "power-law", "finite-band", "synthetic-bad")


class UsageError(Exception):
    pass


def _build_model(args):
    c_inf = args.cinf
    rho = args.rho
    name = args.model
    if name == "cole-cole":
        g_inf = rho * (c_inf / math.sqrt(args.a)) ** 2
        return measures.ColeCole(a=args.a, alpha=args.alpha, tau=args.tau,
                                 g_inf=g_inf, rho=rho)
    if name == "sls":
        g_inf = rho * (c_inf / math.sqrt(args.a)) ** 2
        return measures.StandardLinearSolid(a=args.a, tau=args.tau,
                                            g_inf=g_inf, rho=rho)
    if name == "havriliak-negami":
        return measures.HavriliakNegami(b=args.b, alpha=args.alpha,
                                        gamma=args.gamma, tau=args.tau,
                                        g0=rho * c_inf ** 2, rho=rho)
    if name == "cole-davidson":
        return measures.ColeDavidson(b=args.b, gamma=args.gamma,
                                     tau=args.tau, g0=rho * c_inf ** 2,
                                     rho=rho)
    if name == "power-law":
        m = measures.make_powerlaw_measure(args.acoef, args.gammaexp)
        return MeasureMedium(m, c_inf=math.inf, rho=rho)
    if name == "finite-band":
        m = measures.make_finiteband_measure(args.height, args.rlo, args.rhi)
        return MeasureMedium(m, c_inf=c_inf, rho=rho)
    if name == "synthetic-bad":
        return None  # handled by cmd_verify only
    raise UsageError(f"unknown model {name!r}")


def _parse_range(spec: str) -> tuple[float, float]:
    try:
        lo, hi = spec.split(":")
        lo, hi = float(lo), float(hi)
    except ValueError as exc:
        raise UsageError(f"bad range {spec!r}, expected MIN:MAX") from exc
    if not (0.0 < lo < hi):
        raise UsageError("range must satisfy 0 < MIN < MAX")
    return lo, hi


def _omega_grid(args) -> np.ndarray:
    lo, hi = _parse_range(args.range)
    decades = math.log10(hi / lo)
    n = int(round(decades * args.ppd)) + 1
    if n < 1:
        raise UsageError("empty frequency range")
    return np.logspace(math.log10(lo * _OMEGA_UNIT),
                       math.log10(hi * _OMEGA_UNIT), n)


def _config_hash(args) -> str:
    items = sorted((k, repr(v)) for k, v in vars(args).items()
                   if k not in ("func", "output", "config"))
    blob = ";".join(f"{k}={v}" for k, v in items)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _open_output(args):
    if args.output and args.output != "-":
        return open(args.output, "w"), True
    return sys.stdout, False


def _write_table(args, header, rows):
    buf, close = _open_output(args)
    try:
        buf.write(f"# cmwave {args.command} config_sha256={_config_hash(args)}\n")
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join(f"{v:.16e}" for v in row) + "\n")
    finally:
        if close:
            buf.close()


def cmd_curves(args) -> int:
    table = curve(_build_model(args), _omega_grid(args))
    rows = zip(table.omega / _OMEGA_UNIT, table.attenuation,
               table.dispersion, table.phase_speed)
    _write_table(args, ["omega_MHz", "attenuation_per_m", "dispersion_per_m",
                        "phase_speed_m_per_s"], rows)
    return 0


def cmd_spectrum(args) -> int:
    model = _build_model(args)
    lo, hi = _parse_range(args.range)
    n = int(round(math.log10(hi / lo) * args.ppd)) + 1
    grid = np.logspace(math.log10(lo), math.log10(hi), n)
    meas = (model.measure if isinstance(model, MeasureMedium)
            else measures.spectral_measure(model))
    rows = [(r, float(meas.density(r))) for r in grid]
    _write_table(args, ["r_per_s", "density"], rows)
    return 0


def cmd_greens(args) -> int:
    model = _build_model(args)
    synth = green1d if args.dim == 1 else green3d
    wave = synth(model, x=args.x, n_samples=args.n, T=args.T)
    buf, close = _open_output(args)
    try:
        wave.to_csv(buf, metadata={
            "config_sha256": _config_hash(args),
            "model": json.dumps({"name": args.model, **_model_params(args)},
                                sort_keys=True),
            "dim": args.dim,
        })
    finally:
        if close:
            buf.close()
    return 0


def _model_params(args) -> dict:
    keys = ("a", "alpha", "b", "gamma", "tau", "cinf", "rho", "acoef",
            "gammaexp", "height", "rlo", "rhi")
    return {k: getattr(args, k) for k in keys if getattr(args, k, None)
            is not None}


def cmd_verify(args) -> int:
    checks = []
    if args.model == "synthetic-bad":
        # the rational wave-number counterexample kappa = p/(1+p)
        hp = halfplane_grid(1.0)
        ax = positive_axis_grid(1.0)
        checks.append(cbf_check(lambda p: (p / (1 + p)) ** 2 / p, hp, ax,
                                name="admissibility kappa^2/p"))
        checks.append(cbf_check(lambda p: p / (1 + p), hp, ax, name="kappa"))
    else:
        model = _build_model(args)
        if isinstance(model, MeasureMedium):
            raise UsageError("verify requires a relaxation model "
                             "(cole-cole, sls, havriliak-negami, "
                             "cole-davidson) or synthetic-bad")
        r_scale = 1.0 / model.tau
        hp = halfplane_grid(r_scale)
        ax = positive_axis_grid(r_scale)
        checks.append(cm_check_relaxation(model, hp, ax))
        checks.append(cbf_check(lambda p: wave_number(model, p), hp, ax,
                                name="kappa"))
        checks.append(cbf_check(lambda p: complex_modulus(model, p), hp, ax,
                                name="Q"))
        checks.append(cbf_check(lambda p: wave_number(model, p) ** 2 / p,
                                hp, ax, name="admissibility kappa^2/p"))
        checks.append(minimum_phase_check(model))
        w0 = 0.1 * r_scale
        for w in (0.3 * r_scale, r_scale, 3.0 * r_scale):
            res = kk_residual(model, w, w0)
            a_ref = float(attenuation_from_wavenumber(model, w))
            checks.append(CheckReport(
                name=f"kramers-kronig omega={w:.3e}",
                passed=bool(res <= 0.01 * a_ref),
                worst_violation=float(res / a_ref),
                location=w,
                grid=f"PV midpoint lattice in ln(omega), omega0={w0:.3e}",
            ))
        # causality battery on a model-scaled synthesis
        x_c = 16.0 * model.c_inf * model.tau
        wave = green1d(model, x=x_c, n_samples=4096,
                       T=4.0 * x_c / model.c_inf)
        metric = causality_metric(wave)
        checks.append(CheckReport(
            name="causality",
            passed=bool(metric <= 1e-5),
            worst_violation=float(metric),
            location=x_c,
            grid="green1d, n=4096, T=4 x/c_inf",
        ))
    report = {
        "schema": 1,
        "config_sha256": _config_hash(args),
        "pass": all(c.passed for c in checks),
        "checks": [c.to_dict() for c in checks],
    }
    buf, close = _open_output(args)
    try:
        json.dump(report, buf, indent=2)
        buf.write("\n")
    finally:
        if close:
            buf.close()
    return 0 if report["pass"] else 1


def _add_model_arguments(sub):
    sub.add_argument("--model", default=None, choices=_MODEL_CHOICES)
    sub.add_argument("--a", type=float, default=None,
                     help="high/low modulus ratio (cole-cole, sls)")
    sub.add_argument("--alpha", type=float, default=None,
                     help="fractional exponent")
    sub.add_argument("--b", type=float, default=None,
                     help="relaxation strength (havriliak-negami, "
                          "cole-davidson)")
    sub.add_argument("--gamma", type=float, default=None,
                     help="stretching exponent (havriliak-negami, "
                          "cole-davidson)")
    sub.add_argument("--tau", type=float, default=None,
                     help="relaxation time in s")
    sub.add_argument("--cinf", type=float, default=None,
                     help="wavefront speed in m/s")
    sub.add_argument("--rho", type=float, default=None,
                     help="density in kg/m^3 (default 1)")
    sub.add_argument("--acoef", type=float, default=None,
                     help="power-law measure coefficient")
    sub.add_argument("--gammaexp", type=float, default=None,
                     help="power-law measure exponent in (0,1)")
    sub.add_argument("--height", type=float, default=None,
                     help="finite-band density level")
    sub.add_argument("--rlo", type=float, default=None,
                     help="finite-band lower edge in 1/s")
    sub.add_argument("--rhi", type=float, default=None,
                     help="finite-band upper edge in 1/s")
    sub.add_argument("--config", default=None,
                     help="key=value file; command-line flags override it")
    sub.add_argument("--output", "-o", default="-",
                     help="output file (default stdout)")


# options left unset on the command line are None; the config file fills
# them first and these defaults cover the rest, so flags always win
_FLOAT_KEYS = ("a", "alpha", "b", "gamma", "tau", "cinf", "rho", "acoef",
               "gammaexp", "height", "rlo", "rhi", "x", "T")
_INT_KEYS = ("ppd", "n", "dim")
_DEFAULTS = {"ppd": 20, "n": 4096, "dim": 1, "rho": 1.0}


def _apply_config_file(args):
    if not args.config:
        return
    try:
        with open(args.config) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if not hasattr(args, key) or key in ("config", "output", "func",
                                             "command"):
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, key) is None:
            if key in _FLOAT_KEYS:
                setattr(args, key, float(val))
            elif key in _INT_KEYS:
                setattr(args, key, int(val))
            else:
                setattr(args, key, val)


def _fill_defaults(args):
    for key, val in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, val)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cmwave",
        description="Attenuation, dispersion and Green's functions for "
                    "viscoelastic media with completely monotonic "
                    "relaxation moduli.",
        epilog="Frequencies are angular; the MHz unit on --range means "
               "1e6 rad/s. Internally everything is SI (rad/s, s, m).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curves = sub.add_parser("curves",
                              help="attenuation/dispersion/phase-speed table")
    _add_model_arguments(p_curves)
    p_curves.add_argument("--range", default=None,
                          help="angular frequency range MIN:MAX in MHz "
                               "(1e6 rad/s)")
    p_curves.add_argument("--ppd", type=int, default=None,
                          help="points per decade (default 20)")
    p_curves.set_defaults(func=cmd_curves)

    p_spec = sub.add_parser("spectrum", help="spectral density table")
    _add_model_arguments(p_spec)
    p_spec.add_argument("--range", default=None,
                        help="spectral rate range MIN:MAX in 1/s")
    p_spec.add_argument("--ppd", type=int, default=None)
    p_spec.set_defaults(func=cmd_spectrum)

    p_green = sub.add_parser("greens", help="Green's function waveform CSV")
    _add_model_arguments(p_green)
    p_green.add_argument("--x", type=float, default=None,
                         help="distance in m")
    p_green.add_argument("--T", type=float, default=None,
                         help="record length in s")
    p_green.add_argument("--n", type=int, default=None,
                         help="samples (power of two >= 4096)")
    p_green.add_argument("--dim", type=int, choices=(1, 3), default=None)
    p_green.set_defaults(func=cmd_greens)

    p_verify = sub.add_parser("verify",
                              help="JSON report of the verification battery")
    _add_model_arguments(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    try:
        args = parser.parse_args(argv)
        _apply_config_file(args)
        _fill_defaults(args)
        _validate_required(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, SpectralDecayError, MLToleranceError,
            JumpExtrapolationError, PVConvergenceError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _validate_required(args) -> None:
    if args.model is None:
        raise UsageError("--model is required (flag or config file)")
    need = {
        "cole-cole": ("a", "alpha", "tau", "cinf"),
        "sls": ("a", "tau", "cinf"),
        "havriliak-negami": ("b", "alpha", "gamma", "tau", "cinf"),
        "cole-davidson": ("b", "gamma", "tau", "cinf"),
        "power-law": ("acoef", "gammaexp"),
        "finite-band": ("height", "rlo", "rhi", "cinf"),
        "synthetic-bad": (),
    }
    missing = [k for k in need[args.model] if getattr(args, k) is None]
    if missing:
        raise UsageError(
            f"model {args.model!r} requires --" + ", --".join(missing))
    for key in ("range", "x", "T"):
        if hasattr(args, key) and getattr(args, key) is None:
            raise UsageError(f"--{key} is required (flag or config file)")


if __name__ == "__main__":
    raise SystemExit(main())
