"""Command-line front end: dispersion-curve tables, spectral densities,
Green's functions and the verification battery.

Frequencies on the command line are angular and expressed in MHz in the
sense of 1e6 rad/s (an angular frequency of 1 MHz here means
omega = 1e6 rad/s); everything internal is SI (rad/s).  Output is
deterministic: data rows never contain timestamps, and the metadata header
carries a hash of the resolved configuration instead.  The one exception is
the ``elapsed_s`` that ``verify`` records for each check, in seconds.
``greens`` writes the synthesis record (``Waveform.diagnostics``) and
``curves`` the quadrature record (``DispersionCurve.diagnostics``) as
``# diag_<key>=<value>`` header lines.

Options may also come from a file given by ``--config``: each ``key=value``
line is the flag ``--key=value`` of the subcommand, parsed by the same
parser ahead of the command-line flags, so the flags win and a file value
is checked exactly as a flag is.  ``config`` and ``output`` are not keys.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 usage or configuration error, 3 numerical failure.  A reader that
closes standard output early changes none of them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from typing import Callable, NamedTuple

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
    MeasureMedium,
    attenuation_from_wavenumber,
    complex_modulus,
    wave_number,
)

__all__ = ["main"]

_OMEGA_UNIT = 1e6  # "MHz" on the CLI axis = 1e6 rad/s, matching the plots


class UsageError(Exception):
    pass


def _g_inf(o) -> float:
    return o.rho * (o.cinf / math.sqrt(o.a)) ** 2


class _Model(NamedTuple):
    needs: tuple[str, ...]
    build: Callable | None


# every --model: the options it requires and its builder.  The builders
# look the factories up on ``measures`` when called, so a wrapper put there
# (the benchmark's tracer) sees every call
_MODELS = {
    "cole-cole": _Model(
        ("a", "alpha", "tau", "cinf"),
        lambda o: measures.ColeCole(a=o.a, alpha=o.alpha, tau=o.tau,
                                    g_inf=_g_inf(o), rho=o.rho)),
    "sls": _Model(
        ("a", "tau", "cinf"),
        lambda o: measures.StandardLinearSolid(a=o.a, tau=o.tau,
                                               g_inf=_g_inf(o), rho=o.rho)),
    "havriliak-negami": _Model(
        ("b", "alpha", "gamma", "tau", "cinf"),
        lambda o: measures.HavriliakNegami(b=o.b, alpha=o.alpha,
                                           gamma=o.gamma, tau=o.tau,
                                           g0=o.rho * o.cinf ** 2, rho=o.rho)),
    "cole-davidson": _Model(
        ("b", "gamma", "tau", "cinf"),
        lambda o: measures.ColeDavidson(b=o.b, gamma=o.gamma, tau=o.tau,
                                        g0=o.rho * o.cinf ** 2, rho=o.rho)),
    "power-law": _Model(
        ("acoef", "gammaexp"),
        lambda o: MeasureMedium(
            measures.make_powerlaw_measure(o.acoef, o.gammaexp),
            c_inf=math.inf, rho=o.rho)),
    "finite-band": _Model(
        ("height", "rlo", "rhi", "cinf"),
        lambda o: MeasureMedium(
            measures.make_finiteband_measure(o.height, o.rlo, o.rhi),
            c_inf=o.cinf, rho=o.rho)),
    # a rational wave number with no medium behind it: cmd_verify's
    # counterexample
    "synthetic-bad": _Model((), None),
}

# the model parameters, float options of every subcommand; the Green's CSV
# header records each one that is set
_MODEL_PARAMS = {
    "a": "high/low modulus ratio (cole-cole, sls)",
    "alpha": "fractional exponent",
    "b": "relaxation strength (havriliak-negami, cole-davidson)",
    "gamma": "stretching exponent (havriliak-negami, cole-davidson)",
    "tau": "relaxation time in s",
    "cinf": "wavefront speed in m/s",
    "rho": "density in kg/m^3 (default %(default)s)",
    "acoef": "power-law measure coefficient",
    "gammaexp": "power-law measure exponent in (0,1)",
    "height": "finite-band density level",
    "rlo": "finite-band lower edge in 1/s",
    "rhi": "finite-band upper edge in 1/s",
}


def _build_model(args):
    build = _MODELS[args.model].build
    if build is None:
        raise UsageError(f"model {args.model!r} has no medium; use it with "
                         "verify")
    return build(args)


def _parse_range(spec: str) -> tuple[float, float]:
    try:
        lo, hi = spec.split(":")
        lo, hi = float(lo), float(hi)
    except ValueError as exc:
        raise UsageError(f"bad range {spec!r}, expected MIN:MAX") from exc
    if not (0.0 < lo < hi):
        raise UsageError("range must satisfy 0 < MIN < MAX")
    return lo, hi


def _log_grid(args, unit: float) -> np.ndarray:
    """--ppd points per decade over --range, in units of ``unit``."""
    lo, hi = _parse_range(args.range)
    n = int(round(math.log10(hi / lo) * args.ppd)) + 1
    if n < 1:
        raise UsageError("empty range")
    return np.logspace(math.log10(lo * unit), math.log10(hi * unit), n)


def _config_hash(args) -> str:
    items = sorted((k, repr(v)) for k, v in vars(args).items()
                   if k not in ("func", "output", "config"))
    blob = ";".join(f"{k}={v}" for k, v in items)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@contextlib.contextmanager
def _output(args):
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early: the rest of the output is dropped and
        # the command keeps its exit code.  stdout now points at devnull,
        # so the flush at shutdown does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _write_table(args, header, rows, diagnostics=None):
    with _output(args) as buf:
        buf.write(f"# cmwave {args.command} config_sha256={_config_hash(args)}\n")
        for key, val in (diagnostics or {}).items():
            buf.write(f"# diag_{key}={val}\n")
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join(f"{v:.16e}" for v in row) + "\n")


def cmd_curves(args) -> int:
    table = curve(_build_model(args), _log_grid(args, _OMEGA_UNIT))
    rows = zip(table.omega / _OMEGA_UNIT, table.attenuation,
               table.dispersion, table.phase_speed)
    _write_table(args, ["omega_MHz", "attenuation_per_m", "dispersion_per_m",
                        "phase_speed_m_per_s"], rows, table.diagnostics)
    return 0


def cmd_spectrum(args) -> int:
    model = _build_model(args)
    grid = _log_grid(args, 1.0)
    meas = (model.measure if isinstance(model, MeasureMedium)
            else measures.spectral_measure(model))
    _write_table(args, ["r_per_s", "density"], zip(grid, meas.density(grid)))
    return 0


def cmd_greens(args) -> int:
    model = _build_model(args)
    synth = green1d if args.dim == 1 else green3d
    wave = synth(model, x=args.x, n_samples=args.n, T=args.T)
    with _output(args) as buf:
        wave.to_csv(buf, metadata={
            "config_sha256": _config_hash(args),
            "model": json.dumps({"name": args.model, **_model_params(args)},
                                sort_keys=True),
            "dim": args.dim,
            **{f"diag_{key}": val for key, val in wave.diagnostics.items()},
        })
    return 0


def _model_params(args) -> dict:
    return {k: getattr(args, k) for k in _MODEL_PARAMS
            if getattr(args, k) is not None}


def cmd_verify(args) -> int:
    checks = []     # (report, seconds it took)

    def run(check, *check_args, **check_kwargs):
        start = time.perf_counter()
        report = check(*check_args, **check_kwargs)
        checks.append((report, time.perf_counter() - start))

    if args.model == "synthetic-bad":
        # the rational wave-number counterexample kappa = p/(1+p)
        hp = halfplane_grid(1.0)
        ax = positive_axis_grid(1.0)
        run(cbf_check, lambda p: (p / (1 + p)) ** 2 / p, hp, ax,
            name="admissibility kappa^2/p")
        run(cbf_check, lambda p: p / (1 + p), hp, ax, name="kappa")
    else:
        model = _build_model(args)
        if isinstance(model, MeasureMedium):
            raise UsageError("verify requires a relaxation model "
                             "(cole-cole, sls, havriliak-negami, "
                             "cole-davidson) or synthetic-bad")
        r_scale = 1.0 / model.tau
        hp = halfplane_grid(r_scale)
        ax = positive_axis_grid(r_scale)
        run(cm_check_relaxation, model, hp, ax)
        run(cbf_check, lambda p: wave_number(model, p), hp, ax, name="kappa")
        run(cbf_check, lambda p: complex_modulus(model, p), hp, ax, name="Q")
        run(cbf_check, lambda p: wave_number(model, p) ** 2 / p, hp, ax,
            name="admissibility kappa^2/p")
        run(minimum_phase_check, model)
        w0 = 0.1 * r_scale
        for w in (0.3 * r_scale, r_scale, 3.0 * r_scale):
            run(_kk_check, model, w, w0)
        run(_causality_check, model)
    report = {
        "schema": 1,
        "config_sha256": _config_hash(args),
        "pass": all(c.passed for c, _ in checks),
        "checks": [{**c.to_dict(), "elapsed_s": elapsed}
                   for c, elapsed in checks],
    }
    with _output(args) as buf:
        json.dump(report, buf, indent=2)
        buf.write("\n")
    return 0 if report["pass"] else 1


def _kk_check(model, w, w0) -> CheckReport:
    res = kk_residual(model, w, w0)
    a_ref = float(attenuation_from_wavenumber(model, w))
    return CheckReport(
        name=f"kramers-kronig omega={w:.3e}",
        passed=bool(res <= 0.01 * a_ref),
        worst_violation=float(res / a_ref),
        location=w,
        grid=f"PV midpoint lattice in ln(omega), omega0={w0:.3e}",
    )


def _causality_check(model) -> CheckReport:
    """The causality battery on a model-scaled synthesis."""
    x_c = 16.0 * model.c_inf * model.tau
    wave = green1d(model, x=x_c, n_samples=4096, T=4.0 * x_c / model.c_inf)
    metric = causality_metric(wave)
    return CheckReport(
        name="causality",
        passed=bool(metric <= 1e-5),
        worst_violation=float(metric),
        location=x_c,
        grid="green1d, n=4096, T=4 x/c_inf",
    )


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", choices=tuple(_MODELS))
    for key, text in _MODEL_PARAMS.items():
        common.add_argument(f"--{key}", type=float, help=text)
    common.set_defaults(rho=1.0)
    common.add_argument("--config",
                        help="file of key=value lines, each the flag "
                             "--key=value; command-line flags override it")
    common.add_argument("--output", "-o", default="-",
                        help="output file (default stdout)")

    parser = argparse.ArgumentParser(
        prog="cmwave",
        description="Attenuation, dispersion and Green's functions for "
                    "viscoelastic media with completely monotonic "
                    "relaxation moduli.",
        epilog="Frequencies are angular; the MHz unit on --range means "
               "1e6 rad/s. Internally everything is SI (rad/s, s, m).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_curves = sub.add_parser("curves", parents=[common],
                              help="attenuation/dispersion/phase-speed table")
    p_curves.add_argument("--range",
                          help="angular frequency range MIN:MAX in MHz "
                               "(1e6 rad/s)")
    p_curves.add_argument("--ppd", type=int, default=20,
                          help="points per decade (default %(default)s)")
    p_curves.set_defaults(func=cmd_curves)

    p_spec = sub.add_parser("spectrum", parents=[common],
                            help="spectral density table")
    p_spec.add_argument("--range", help="spectral rate range MIN:MAX in 1/s")
    p_spec.add_argument("--ppd", type=int, default=20,
                        help="points per decade (default %(default)s)")
    p_spec.set_defaults(func=cmd_spectrum)

    p_green = sub.add_parser("greens", parents=[common],
                             help="Green's function waveform CSV")
    p_green.add_argument("--x", type=float, help="distance in m")
    p_green.add_argument("--T", type=float, help="record length in s")
    p_green.add_argument("--n", type=int, default=4096,
                         help="samples, a power of two >= 4096 (default "
                              "%(default)s)")
    p_green.add_argument("--dim", type=int, choices=(1, 3), default=1,
                         help="dimension (default %(default)s)")
    p_green.set_defaults(func=cmd_greens)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="JSON report of the verification battery")
    p_verify.set_defaults(func=cmd_verify)
    return parser


_PARSER = _build_parser()


def _config_flags(args) -> list[str]:
    """The lines of the --config file as flags --key=value, each key an
    option of the subcommand other than config and output."""
    try:
        with open(args.config) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    flags = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"malformed config line {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        # every option's dest is its long name, so --key is exactly one
        if key not in vars(args) or key in ("command", "func", "config",
                                            "output"):
            raise UsageError(f"unknown config key {key!r}")
        flags.append(f"--{key}={val}")
    return flags


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(argv)
        if args.config:
            # the file's flags go right after the subcommand, so the
            # command line's come later and win
            at = argv.index(args.command) + 1
            args = _PARSER.parse_args(
                [*argv[:at], *_config_flags(args), *argv[at:]])
        _validate_required(args)
        return args.func(args)
    except (UsageError, ValueError, TypeError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, SpectralDecayError, MLToleranceError,
            PVConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def _validate_required(args) -> None:
    if args.model is None:
        raise UsageError("--model is required (flag or config file)")
    missing = [k for k in _MODELS[args.model].needs
               if getattr(args, k) is None]
    if missing:
        raise UsageError(
            f"model {args.model!r} requires --" + ", --".join(missing))
    for key in ("range", "x", "T"):
        if hasattr(args, key) and getattr(args, key) is None:
            raise UsageError(f"--{key} is required (flag or config file)")


if __name__ == "__main__":
    raise SystemExit(main())
