"""Seeded inputs, op execution and independent references for the five
cmwave benchmark workloads.

Every workload is a list of ops built from ``--seed`` alone.  Ops are laid
out in rounds; each round holds the workload's whole op mix in a seeded
order, so a run that covers a few rounds sees the same mix whatever the
seed.  The program receives only the generated inputs: CLI argument lists
for ``curves``/``greens``/``verify`` and model parameters for the library
calls of ``sweep``/``relaxation``.

Op execution goes through module attributes (``cli.main``,
``dispersion.phase_speed``, ...) looked up at call time, so the traced run
can substitute wrapped functions.  References hold the originals captured
at import and never run under tracing.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os

import mpmath
import numpy as np

import cmwave
import cmwave.cli as cli_mod
import cmwave.greens  # noqa: F401  (part of set-up: import cost)
import cmwave.measures as measures_mod
import cmwave.mittag_leffler as ml_mod
import cmwave.verification  # noqa: F401  (part of set-up: import cost)
from cmwave.greens import Waveform, causality_metric
from cmwave.wavenumber import MeasureMedium, complex_modulus, \
    dispersion_attenuation

# ``cmwave.dispersion`` the attribute is the function the package
# re-exports; the module comes from the import system
dispersion_mod = importlib.import_module("cmwave.dispersion")

WORKLOADS = ("curves", "sweep", "greens", "verify", "relaxation")

# per-op deadline in wall seconds, enforced in the worker process: about
# ten times the slowest op of the workload's mix on the seed commit, so
# that only a hang, not a slow tenant on a shared host, cuts an op.
DEADLINE_S = {"curves": 5.0, "sweep": 3.0, "greens": 10.0, "verify": 10.0,
              "relaxation": 5.0}

# the unit of correct work each workload's rate counts
WORK_UNIT = {"curves": "curve_points", "sweep": "queries",
             "greens": "waveform_samples", "verify": "checks",
             "relaxation": "relaxation_points"}

RATE_NAME = {"curves": "curve_points_per_s", "sweep": "queries_per_s",
             "greens": "waveform_samples_per_s", "verify": "checks_per_s",
             "relaxation": "relaxation_points_per_s"}

_ROUNDS = 200          # more than any run of 60 s gets through
_C_INF = 5000.0        # m/s, the paper's wavefront speed
_TAU = 1e-13           # s, the paper's figure setting
_MHZ = 1e6             # the CLI's "MHz" axis unit, rad/s

# quadrature route against closed-form route; the tier-1 engine test uses
# the same relative tolerance
_AD_RTOL = 1e-6
# phase speed against the closed form; c differs from c_inf by D/omega, so
# its relative error is c D/omega times that of D
_C_RTOL = 1e-7
# the quadrature engine's relative tolerance
_ENGINE_RTOL = 1e-8
# causality gate applied by ``cmwave verify``
_CAUSALITY_GATE = 1e-5
# criterion 10's Laplace gate
_LAPLACE_RTOL = 1e-6


class OpFailure(Exception):
    """An op's output missed its reference."""


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOADS.index(workload), int(seed)])


def _loguniform(draw, lo, hi):
    return float(math.exp(draw.uniform(math.log(lo), math.log(hi))))


def _jitter(draw, value, spread=0.1):
    return float(value * (1.0 + draw.uniform(-spread, spread)))


def _r(x: float) -> str:
    """Float as a CLI argument that round-trips exactly."""
    return repr(float(x))


# ---------------------------------------------------------------------------
# model parameters
# ---------------------------------------------------------------------------

# Cole-Cole a and alpha near the paper's a = 1.5, alpha = 1/2
_CC_PAPER = {"a": (1.2, 1.8), "alpha": (0.35, 0.65)}
# ... and in the workloads that synthesise waveforms (greens, and verify
# through its causality check).  On the seed commit, with the default pad
# of ``cmwave greens``, the leak before the wavefront grows with a and
# reaches the 1e-5 of the peak that ``cmwave verify`` allows at alpha from
# ~0.48 up (1e-5..4e-3), and at a ~ 1.8 from alpha ~0.36 up; below
# alpha ~0.33 the 1D synthesis exits 3 (wrap-around tail).  A benchmark
# op must not fail on the seed, so these draws keep to the corner of the
# paper's range where the leak stays under 3e-6.  ``defects.py`` still
# shows the leak.
_CC_WAVEFORM = {"a": (1.2, 1.5), "alpha": (0.35, 0.44)}


def _paper_family(draw, family: str, tau: float, c_inf: float,
                  cc=_CC_PAPER) -> dict:
    """Parameters near the paper's figure settings (a = 1.5, alpha = 1/2;
    HN b = 1/2, alpha = 1/1.3, gamma = 1.3/2; CD b = gamma = 1/2), Cole-Cole
    a and alpha in the ranges of ``cc``."""
    if family == "cc":
        return {"family": "cc", "a": draw.uniform(*cc["a"]),
                "alpha": draw.uniform(*cc["alpha"]), "tau": tau,
                "cinf": c_inf}
    if family == "sls":
        return {"family": "sls", "a": _jitter(draw, 1.5, 0.2), "tau": tau,
                "cinf": c_inf}
    if family == "hn":
        return {"family": "hn", "b": _jitter(draw, 0.5, 0.2),
                "alpha": _jitter(draw, 1 / 1.3, 0.1),
                "gamma": _jitter(draw, 1.3 / 2, 0.15), "tau": tau,
                "cinf": c_inf}
    if family == "cd":
        return {"family": "cd", "b": _jitter(draw, 0.5, 0.2),
                "gamma": _jitter(draw, 0.5, 0.3), "tau": tau, "cinf": c_inf}
    if family == "fb":
        # finite band over one decade below the relaxation rate 1/tau
        return {"family": "fb", "height": _loguniform(draw, 3e-6, 3e-5),
                "rlo": 0.1 / tau, "rhi": 1.0 / tau, "tau": tau,
                "cinf": c_inf}
    raise ValueError(family)


def _domain_family(draw, family: str) -> dict:
    """A draw from a family's admissible domain, away from its corners:
    CC/SLS a in 1.1..10, CC alpha in 0.3..0.9; HN/CD b in 0.2..0.8, HN
    alpha in 0.5..0.95 and gamma in 0.4..1, CD gamma in 0.3..1.

    The corners (exponents near 0, a near 1 or >= 1e3) are left out: there
    the seed commit overflows, fails to converge or returns inf (ROADMAP
    item 4), and a benchmark op must not fail on the seed.  ``defects.py``
    still runs one corner model of each family.
    """
    tau = _loguniform(draw, 1e-14, 1e-6)
    c_inf = _loguniform(draw, 1e3, 1e4)
    if family == "cc":
        return {"family": "cc", "a": _loguniform(draw, 1.1, 10.0),
                "alpha": draw.uniform(0.3, 0.9), "tau": tau, "cinf": c_inf}
    if family == "sls":
        return {"family": "sls", "a": _loguniform(draw, 1.1, 10.0),
                "tau": tau, "cinf": c_inf}
    if family == "hn":
        return {"family": "hn", "b": draw.uniform(0.2, 0.8),
                "alpha": draw.uniform(0.5, 0.95),
                "gamma": draw.uniform(0.4, 1.0), "tau": tau, "cinf": c_inf}
    return {"family": "cd", "b": draw.uniform(0.2, 0.8),
            "gamma": draw.uniform(0.3, 1.0), "tau": tau, "cinf": c_inf}


def model_args(p: dict) -> list[str]:
    """CLI model flags for a parameter record."""
    fam = p["family"]
    if fam == "cc":
        out = ["--model", "cole-cole", "--a", _r(p["a"]),
               "--alpha", _r(p["alpha"])]
    elif fam == "sls":
        out = ["--model", "sls", "--a", _r(p["a"])]
    elif fam == "hn":
        out = ["--model", "havriliak-negami", "--b", _r(p["b"]),
               "--alpha", _r(p["alpha"]), "--gamma", _r(p["gamma"])]
    elif fam == "cd":
        out = ["--model", "cole-davidson", "--b", _r(p["b"]),
               "--gamma", _r(p["gamma"])]
    elif fam == "fb":
        return ["--model", "finite-band", "--height", _r(p["height"]),
                "--rlo", _r(p["rlo"]), "--rhi", _r(p["rhi"]),
                "--cinf", _r(p["cinf"])]
    else:
        raise ValueError(fam)
    return out + ["--tau", _r(p["tau"]), "--cinf", _r(p["cinf"])]


def build_model(p: dict):
    """The library model for a parameter record, built the way the CLI
    documents it (rho = 1), without going through the CLI."""
    fam, c_inf = p["family"], p["cinf"]
    if fam == "cc":
        return cmwave.ColeCole(a=p["a"], alpha=p["alpha"], tau=p["tau"],
                               g_inf=(c_inf / math.sqrt(p["a"])) ** 2)
    if fam == "sls":
        return cmwave.StandardLinearSolid(
            a=p["a"], tau=p["tau"], g_inf=(c_inf / math.sqrt(p["a"])) ** 2)
    if fam == "hn":
        return cmwave.HavriliakNegami(b=p["b"], alpha=p["alpha"],
                                      gamma=p["gamma"], tau=p["tau"],
                                      g0=c_inf ** 2)
    if fam == "cd":
        return cmwave.ColeDavidson(b=p["b"], gamma=p["gamma"], tau=p["tau"],
                                   g0=c_inf ** 2)
    if fam == "fb":
        return MeasureMedium(
            _MAKE_FINITEBAND(p["height"], p["rlo"], p["rhi"]), c_inf=c_inf)
    raise ValueError(fam)


# captured before any tracing wraps the module attribute
_MAKE_FINITEBAND = measures_mod.make_finiteband_measure


# ---------------------------------------------------------------------------
# op generation
# ---------------------------------------------------------------------------

class _Stream:
    """The numbers one op slot draws in one round.

    The d-th number drawn by slot ``key`` in round r is the r-th point of
    the base-2 van der Corput sequence under a seeded digital shift (an
    XOR mask per slot and dimension).  The first 2**k rounds of a run then
    put one value in each interval of width 2**-k of every parameter's
    range, whatever the seed, so runs of a few rounds hold the same spread
    of parameters and the same share of the inputs a program handles
    badly.  The seed picks the masks; the generator also orders ops.
    """

    def __init__(self, rng, masks: dict, key, r: int):
        self._rng, self._masks, self._key = rng, masks, key
        self._rev = int(f"{r:032b}"[::-1], 2)
        self._d = 0

    def random(self) -> float:
        mask = self._masks.get((self._key, self._d))
        if mask is None:
            mask = self._masks[(self._key, self._d)] = int(
                self._rng.integers(0, 2 ** 32))
        self._d += 1
        return ((self._rev ^ mask) + 0.5) / 2.0 ** 32

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def choice(self, options):
        return options[min(int(self.random() * len(options)),
                           len(options) - 1)]


def _rounds(rng, slots, make):
    """``_ROUNDS`` rounds; round r holds ``make(stream, slot, r)`` for each
    slot, in a seeded order."""
    masks = {}
    for r in range(_ROUNDS):
        round_ops = [make(_Stream(rng, masks, i, r), slot, r)
                     for i, slot in enumerate(slots)]
        rng.shuffle(round_ops)
        yield round_ops


# rows of each family's table, so that every table but the finite band's
# costs about the same (rows times the seed's cost per row: CC 22 ms,
# SLS 6, HN 44, CD 75, finite band 2).  Ops of one cost keep the median
# and the tail op inside one group of ops, whatever number of rounds a
# run gets through.
_CURVE_ROWS = {"cc": 13, "sls": 49, "hn": 7, "cd": 4, "fb": 41}


# On the seed commit the SLS attenuation is inf, or its quadrature fails,
# at frequencies from the lower support edge 1/(a tau) up to ~3e-3 above
# it (a = 1.5; a few 1e-7 for most a).  While an SLS op has a frequency
# in the first percent above that edge, all its frequencies move down by
# 2 %, which puts that one below the edge, where the seed is right.
# ``defects.py`` still shows the edge.
_SLS_EDGE_WINDOW = 1e-2
_SLS_EDGE_SHIFT = 0.98


def _sls_edge_factor(p, omega) -> float:
    """The factor that takes every frequency of an SLS op out of the window
    above its lower support edge (1.0 for other families)."""
    if p["family"] != "sls":
        return 1.0
    edge = 1.0 / (p["a"] * p["tau"])
    omega = np.asarray(omega, dtype=float)
    factor = 1.0
    while np.any((omega * factor >= edge)
                 & (omega * factor <= edge * (1.0 + _SLS_EDGE_WINDOW))):
        factor *= _SLS_EDGE_SHIFT
    return factor


def _curves_ops(rng):
    """One table per family per round: CC, SLS, HN, CD and a finite band.

    Rows per family from ``_CURVE_ROWS``, at one, 1.25, 2 or 2.5 times a
    base of at least 4 points per decade that keeps each table within 3
    decades, inside the paper's figure range (1e-3..1e3 MHz at
    tau ~ 1e-13) or around the band edge (tau omega within 1.5 decades of
    1), the two regions alternating by round.
    """
    def make(st, fam, r):
        tau = _TAU * _loguniform(st, 0.5, 2.0)
        p = _paper_family(st, fam, tau, _jitter(st, _C_INF, 0.2))
        spans = _CURVE_ROWS[fam] - 1
        base = max(4, math.ceil(spans / 3))
        ppd = round(base * st.choice([1.0, 1.25, 2.0, 2.5]))
        width = spans / ppd
        if (r + len(fam)) % 2:
            lo_dec = st.uniform(-3.0, 3.0 - width)   # figure range
        else:
            # band edge: tau omega in 10**-1.5..10**1.5
            centre = math.log10(1.0 / (tau * _MHZ))
            lo_dec = st.uniform(centre - 1.5, centre + 1.5 - width)
        lo = 10.0 ** lo_dec
        hi = lo * 10.0 ** width
        f = _sls_edge_factor(p, np.logspace(
            math.log10(lo * _MHZ), math.log10(hi * _MHZ), spans + 1))
        lo, hi = lo * f, hi * f
        argv = ["curves", *model_args(p), "--range", f"{_r(lo)}:{_r(hi)}",
                "--ppd", str(ppd)]
        return {"kind": "curves", "params": p, "argv": argv, "lo": lo,
                "hi": hi, "ppd": ppd}

    return _rounds(rng, ("cc", "sls", "hn", "cd", "fb"), make)


# regular models per sweep round.  On the seed the families' ops fall in
# four separate cost groups (SLS ~0.01 s, CC ~0.06, HN ~0.1, CD ~0.17);
# with equal shares the median op sat on the CC/HN boundary and op_p50_s
# jumped between the two groups from run to run.  Three HN models in eight
# put the median a third of the way into the HN group.
_SWEEP_SLOTS = ("sls", "cc", "cc", "hn", "hn", "hn", "cd", "cd")


def _sweep_ops(rng):
    """Rounds of eight models (``_SWEEP_SLOTS``) from each family's
    admissible domain, each queried at three frequencies with tau omega
    in 1e-4..1e4."""
    def make(st, fam, r):
        p = _domain_family(st, fam)
        tw = sorted(10.0 ** st.uniform(-4.0, 4.0) for _ in range(3))
        f = _sls_edge_factor(p, [x / p["tau"] for x in tw])
        return {"kind": "sweep", "params": p,
                "omegas": [float(f * x / p["tau"]) for x in tw]}

    return _rounds(rng, _SWEEP_SLOTS, make)


def _greens_ops(rng):
    """Six syntheses per round: CC and HN (the pad-256, algebraic-tail
    path) in 1D at n = 4096 and in 3D at n = 8192, which cost about the
    same, and SLS and CD (pad 32) in 1D at 8192 or 3D at 4096, swapped
    every other round.  Distances span the scales of criteria 07 and 08
    (1 mm to 4 cm), with tau at those criteria's ratios to x/c_inf, and
    Cole-Cole a and alpha in ``_CC_WAVEFORM``."""
    def make(st, slot, r):
        fam, dim = slot
        if fam in ("sls", "cd") and (r % 2) == (fam == "cd"):
            dim = 4 - dim
        n = 4096 if dim == 1 else 8192
        if fam in ("sls", "cd"):
            n = 12288 - n
        x = _loguniform(st, 1e-3, 4e-2)
        c_inf = _jitter(st, _C_INF, 0.1)
        # the criteria's ratios of travel time to tau: x/44800 at 5 km/s
        # for CC (and HN), (x/c)/50 for SLS (and CD)
        tau = (x / c_inf) / (8.96 if fam in ("cc", "hn") else 50.0)
        p = _paper_family(st, fam, tau, c_inf, _CC_WAVEFORM)
        T = 4.0 * x / c_inf
        argv = ["greens", *model_args(p), "--x", _r(x), "--T", _r(T),
                "--n", str(n), "--dim", str(dim)]
        return {"kind": "greens", "params": p, "argv": argv, "x": x, "T": T,
                "n": n, "dim": dim}

    slots = [("cc", 1), ("cc", 3), ("hn", 1), ("hn", 3), ("sls", 1),
             ("cd", 1)]
    return _rounds(rng, slots, make)


def _verify_ops(rng):
    """Seven reports per round: the four relaxation families near the
    paper's settings (expected to pass, exit 0), CC and HN once more, and
    synthetic-bad (exit 1), Cole-Cole a and alpha in ``_CC_WAVEFORM``.
    The four CC and HN reports cost about twice the SLS and CD ones; as
    four of seven they hold both the median op and the tail op, whatever
    number of rounds a run gets through."""
    def make(st, fam, r):
        if fam == "bad":
            return {"kind": "verify", "params": {"family": "bad"},
                    "argv": ["verify", "--model", "synthetic-bad"],
                    "expect": 1}
        tau = _TAU * _loguniform(st, 0.1, 10.0)
        p = _paper_family(st, fam, tau, _jitter(st, _C_INF, 0.2),
                          _CC_WAVEFORM)
        return {"kind": "verify", "params": p,
                "argv": ["verify", *model_args(p)], "expect": 0}

    return _rounds(rng, ("cc", "sls", "hn", "cd", "cc", "hn", "bad"), make)


# The two alpha windows of the relaxation workload and their strata per
# round.  On the seed commit the cold crossover search is cheap at a new
# alpha in both (below ~0.21 it skips the overlap validation; from 0.9 up
# the validation passes in one or two steps), but runs 1..40 s and more at
# alpha in 0.22..0.88 and below 0.05, past any deadline a run can afford: a
# benchmark op must not fail on the seed, so those alphas are left out.
# ``defects.py`` still shows them.  Six strata go to the low window, where
# a curve's cost varies smoothly with alpha (~1/alpha, 0.1..0.45 s on the
# seed), and four to the high one, where it jumps with the number of
# validation steps (0.1..0.22 s).
_RELAX_ALPHA = ((0.06, 0.20, 6), (0.90, 0.99, 4))
# six times per curve, evenly spread in log over 1e-2..10**1.5 tau: fixed,
# as a curve's cost grows with its largest t/tau
_RELAX_TIMES = 10.0 ** np.linspace(-2.0, 1.5, 6)


def _relaxation_ops(rng):
    """Ten Cole-Cole G(t) curves per round, one per alpha stratum of
    ``_RELAX_ALPHA``, each at a new alpha (cold crossover), at the times
    ``_RELAX_TIMES`` tau."""
    strata = [(lo, hi, k, n) for lo, hi, n in _RELAX_ALPHA for k in range(n)]

    def make(st, stratum, r):
        lo, hi, k, n = stratum
        alpha = lo + (hi - lo) * (k + st.uniform(0.02, 0.98)) / n
        tau = _TAU * _loguniform(st, 0.1, 10.0)
        a = _loguniform(st, 1.2, 4.0)
        check = sorted(rng.choice(len(_RELAX_TIMES), 2, replace=False))
        return {"kind": "relaxation",
                "params": {"family": "cc", "a": a, "alpha": alpha,
                           "tau": tau, "cinf": _C_INF},
                "times": [float(t) for t in _RELAX_TIMES * tau],
                "laplace_at": [int(i) for i in check]}

    return _rounds(rng, strata, make)


_BUILDERS = {"curves": _curves_ops, "sweep": _sweep_ops,
             "greens": _greens_ops, "verify": _verify_ops,
             "relaxation": _relaxation_ops}


def build_ops(workload: str, seed: int) -> list[dict]:
    """Every input of one workload run, from the seed alone; each op
    carries the index of its round."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    ops = []
    for r, round_ops in enumerate(_BUILDERS[workload](_rng(workload, seed))):
        for op in round_ops:
            op["round"] = r
            ops.append(op)
    return ops


def ops_digest(ops: list[dict]) -> str:
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()
                          ).hexdigest()


# ---------------------------------------------------------------------------
# execution and references
# ---------------------------------------------------------------------------

def execute(op: dict, out_dir: str, index: int):
    """Run one op through the program; returns what the reference needs."""
    kind = op["kind"]
    if kind in ("curves", "greens", "verify"):
        ext = "json" if kind == "verify" else "csv"
        path = os.path.join(out_dir, f"op{index}.{ext}")
        rc = cli_mod.main([*op["argv"], "-o", path])
        return {"rc": rc, "path": path}
    if kind == "sweep":
        model = build_model(op["params"])
        meas = measures_mod.spectral_measure(model)
        rows = []
        for w in op["omegas"]:
            rows.append((dispersion_mod.attenuation(meas, w),
                         dispersion_mod.phase_speed(model, w)))
        return {"rc": 0, "model": model, "rows": rows}
    if kind == "relaxation":
        model = build_model(op["params"])
        vals = [ml_mod.cole_cole_relaxation_modulus(model, t)
                for t in op["times"]]
        return {"rc": 0, "model": model, "values": vals}
    raise ValueError(kind)


def expected_rc(op: dict) -> int:
    return op.get("expect", 0)


def _read_table(path: str):
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return header, rows


def _close(got, ref, rtol, what):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if not np.all(np.isfinite(got)):
        raise OpFailure(f"{what}: non-finite value")
    err = np.abs(got - ref)
    bad = err > rtol * np.abs(ref)
    if np.any(bad):
        i = int(np.argmax(err / (np.abs(ref) + 1e-300)))
        raise OpFailure(f"{what}: {got[i]!r} vs closed form {ref[i]!r}")


def _check_speeds(c, model, what):
    """c0 < c < c_inf and c non-decreasing, to the engine's 1e-8 relative
    contract: far below the band c - c0 is under double resolution, so a
    strict comparison would judge roundoff."""
    c = np.asarray(c, dtype=float)
    c0 = model.c0
    if c0 is None or not np.all((c > c0 * (1.0 - _ENGINE_RTOL))
                                & (c < model.c_inf * (1.0 + _ENGINE_RTOL))):
        raise OpFailure(f"{what}: phase speed outside (c0, c_inf)")
    if np.any(np.diff(c) < -_ENGINE_RTOL * c[1:]):
        raise OpFailure(f"{what}: phase speed decreasing")


def _closed_form(model, omega):
    beta = np.asarray(dispersion_attenuation(model, -1j * np.asarray(omega)))
    att = beta.real
    dis = -beta.imag
    speed = 1.0 / (1.0 / model.c_inf + dis / np.asarray(omega))
    return att, dis, speed


def check(op: dict, result: dict) -> tuple[int, int]:
    """Compare one op's output with its independent reference.

    Returns (units of correct work, bytes the program wrote); raises
    OpFailure when the output misses.
    """
    kind = op["kind"]
    if kind == "curves":
        header, rows = _read_table(result["path"])
        n_bytes = os.path.getsize(result["path"])
        lo, hi = op["lo"], op["hi"]
        n = int(round(math.log10(hi / lo) * op["ppd"])) + 1
        if header[0] != "omega_MHz" or rows.shape != (n, 4):
            raise OpFailure(f"curves: table shape {rows.shape}, want {n}x4")
        omega = np.logspace(math.log10(lo * _MHZ), math.log10(hi * _MHZ), n)
        _close(rows[:, 0] * _MHZ, omega, 1e-12, "curves omega")
        model = build_model(op["params"])
        att, dis, speed = _closed_form(model, omega)
        _close(rows[:, 1], att, _AD_RTOL, "curves attenuation")
        _close(rows[:, 2], dis, _AD_RTOL, "curves dispersion")
        _close(rows[:, 3], speed, _C_RTOL, "curves phase speed")
        _check_speeds(rows[:, 3], model, "curves")
        return n, n_bytes
    if kind == "sweep":
        model = result["model"]
        omega = np.asarray(op["omegas"])
        rows = np.asarray(result["rows"], dtype=float)
        att, _, speed = _closed_form(model, omega)
        _close(rows[:, 0], att, _AD_RTOL, "sweep attenuation")
        _close(rows[:, 1], speed, _C_RTOL, "sweep phase speed")
        _check_speeds(rows[:, 1], model, "sweep")
        return len(omega), 0
    if kind == "greens":
        n_bytes = os.path.getsize(result["path"])
        meta = {}
        with open(result["path"]) as fh:
            for ln in fh:
                if not ln.startswith("#"):
                    break
                key, _, val = ln[2:].strip().partition("=")
                meta[key] = val
        header, rows = _read_table(result["path"])
        if header != ["t_seconds", "u"] or rows.shape != (op["n"], 2):
            raise OpFailure(f"greens: table shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise OpFailure("greens: non-finite samples")
        # the time grid and the arrival time x/c_inf come from the op's own
        # inputs; the program's header value is only cross-checked
        t_ref = np.arange(op["n"]) * (op["T"] / op["n"])
        if not np.allclose(rows[:, 0], t_ref, rtol=1e-12, atol=0.0):
            raise OpFailure("greens: time grid is not k T/n")
        front = op["x"] / op["params"]["cinf"]
        got = float(meta.get("wavefront_time", "nan"))
        if not abs(got - front) <= 1e-12 * front:
            raise OpFailure(f"greens: wavefront_time {got!r}, x/c_inf is "
                            f"{front!r}")
        wave = Waveform(time_grid=t_ref, samples=rows[:, 1], x=op["x"],
                        wavefront_time=front, dc_step_amplitude=0.0)
        metric = causality_metric(wave)
        if not metric <= _CAUSALITY_GATE:
            raise OpFailure(f"greens: pre-wavefront leakage {metric:.2e}")
        return op["n"], n_bytes
    if kind == "verify":
        n_bytes = os.path.getsize(result["path"])
        with open(result["path"]) as fh:
            report = json.load(fh)
        want = op["expect"] == 0
        if report["pass"] is not want:
            raise OpFailure(f"verify: pass={report['pass']}, want {want}")
        if want and not all(c["pass"] for c in report["checks"]):
            raise OpFailure("verify: a check failed")
        return len(report["checks"]), n_bytes
    if kind == "relaxation":
        model = result["model"]
        g = np.asarray(result["values"], dtype=float)
        if not np.all(np.isfinite(g)):
            raise OpFailure("relaxation: non-finite G(t)")
        if not np.all((g > model.g_inf) & (g < model.a * model.g_inf)):
            raise OpFailure("relaxation: G(t) outside (G_inf, a G_inf)")
        if np.any(np.diff(g) > 0.0):
            raise OpFailure("relaxation: G(t) increasing")
        for i in op["laplace_at"]:
            ref = laplace_reference(model, op["times"][i])
            if not abs(g[i] / ref - 1.0) <= _LAPLACE_RTOL:
                raise OpFailure(f"relaxation: G({op['times'][i]:.3e}) = "
                                f"{g[i]!r}, inverse Laplace {ref!r}")
        return len(g), 0
    raise ValueError(kind)


def laplace_reference(model, t: float) -> float:
    """G(t) by Talbot inversion of Q(p)/p, with Q from ``complex_modulus``:
    the frequency-domain route, independent of the Mittag-Leffler code."""
    def transform(p):
        return mpmath.mpc(complex(complex_modulus(model, complex(p)))) / p

    with mpmath.workdps(20):
        return float(mpmath.invertlaplace(transform, t, method="talbot"))

