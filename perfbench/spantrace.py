"""Spans around cmwave's layer boundaries, recorded from the benchmark's
own code, and the per-layer metrics derived from them.

The tracer replaces a layer's public functions where each caller imported
them (``cmwave.cli.green1d``, ``cmwave.greens.wave_number``, ...) with
wrappers that record one span per call: name, span id, parent span id, op
id, thread, wall and thread-CPU start and end, points handled and whether
it raised.  Spans stay in memory until the run ends and are then written
out as one ``.npz`` file.  Per-layer seconds are thread CPU time, so the
four pool threads of ``cmwave curves`` are not counted four times over.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
import numpy as np

# every span the tracer records; the part before the first dot is the
# layer its time is charged to
_SPAN_NAMES = (
    "measures.density",
    "quad.integrate", "quad.scipy_quad",
    "dispersion.attenuation", "dispersion.dispersion",
    "dispersion.phase_speed",
    "wavenumber.wave_number", "wavenumber.dispersion_attenuation",
    "wavenumber.complex_modulus", "wavenumber.beta_at_infinity",
    "greens.green1d", "greens.green3d", "greens.irfft",
    "greens.causality_metric",
    "ml.mittag_leffler", "ml.relaxation", "ml.crossover", "ml.ml_e1_neg",
    "verification.cm_check", "verification.cbf_check",
    "verification.kk_residual", "verification.minimum_phase",
    "cli.main",
)


def _size_of(pos):
    def count(args, kwargs):
        return int(np.size(args[pos])) if len(args) > pos else 1
    return count


class Tracer:
    """Records spans while ``active``; ``op`` tags them with the op id."""

    def __init__(self):
        self.records: list[tuple] = []
        self.op = -1
        self.active = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._patches: list[tuple] = []
        self._in_greens = 0
        self._main_local_stack = [-1]

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = [-1]
        if len(st) == 1 and threading.current_thread() is not self._main:
            # a pool thread's top-level span belongs under whatever span
            # the main thread has open (cli.main for ``cmwave curves``)
            st[0] = self._main_local_stack[-1]
        return st

    def end_op(self):
        """Forget spans left open by an op cut at its deadline."""
        del self._main_local_stack[1:]

    def wrap(self, name, fn, count=None, only_in_greens=False,
             process_clock=False):
        """Return ``fn`` wrapped to record a ``name`` span per call.

        ``process_clock``: time the span on the CPU clock of the whole
        process rather than of its thread, for a span whose work runs in
        threads it starts (``cmwave curves``' pool)."""
        if name not in _SPAN_NAMES:
            raise ValueError(f"unknown span name {name!r}")
        clock = time.perf_counter
        cpu_clock = time.process_time if process_clock else time.thread_time
        ident = threading.get_ident
        records = self.records
        ids = self._ids
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active or (only_in_greens and not tracer._in_greens):
                return fn(*args, **kwargs)
            st = tracer._stack()
            sid = next(ids)
            parent = st[-1]
            st.append(sid)
            err = False
            t0, c0 = clock(), cpu_clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                err = True
                raise
            finally:
                c1, t1 = cpu_clock(), clock()
                st.pop()
                records.append((name, sid, parent, tracer.op, ident(), t0, t1,
                                c0, c1, process_clock,
                                count(args, kwargs) if count else 1, err))

        traced.__wrapped__ = fn
        return traced

    def _greens_scope(self, fn):
        tracer = self

        def scoped(*args, **kwargs):
            tracer._in_greens += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._in_greens -= 1

        scoped.__wrapped__ = fn
        return scoped

    def _crossover(self, fn):
        """``ml.crossover`` span whose count is 1 when the call missed the
        validated-crossover cache (the cold cost of a new alpha)."""
        state = {}

        def before(*args, **kwargs):
            state["misses"] = fn.cache_info().misses
            return fn(*args, **kwargs)

        def missed(args, kwargs):
            return fn.cache_info().misses - state.get("misses", 0)

        if not hasattr(fn, "cache_info"):
            raise TypeError("mittag_leffler._crossover is not an lru_cache; "
                            "ml.cold_alpha_s cannot be derived")
        return self.wrap("ml.crossover", before, missed)

    def _patch(self, obj, attr, new):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def install(self):
        """Wrap every layer boundary of the cmwave package in place.

        Every name is patched unconditionally: a layer function that was
        renamed or removed makes the install raise, rather than leaving
        its metrics at zero."""
        import importlib

        import numpy.fft

        import cmwave._quad as quad_mod
        import cmwave.cli as cli
        import cmwave.greens as greens
        import cmwave.measures as measures
        import cmwave.mittag_leffler as ml
        import cmwave.verification as verif

        disp = importlib.import_module("cmwave.dispersion")
        self._local.stack = self._main_local_stack
        w = self.wrap

        for fn_name in ("cc_spectral_density", "sls_spectral_density",
                        "hn_spectral_density", "cd_spectral_density"):
            self._patch(measures, fn_name,
                        w("measures.density", getattr(measures, fn_name),
                          _size_of(1)))
        self._patch(measures, "make_finiteband_measure",
                    self._traced_factory(measures.make_finiteband_measure))

        for mod in (disp, verif):
            self._patch(mod, "integrate_measure",
                        w("quad.integrate", mod.integrate_measure))
        self._patch(quad_mod, "quad", w("quad.scipy_quad", quad_mod.quad))

        for mod in (cli, disp):
            for fn_name in ("attenuation", "dispersion"):
                self._patch(mod, fn_name, w(f"dispersion.{fn_name}",
                                            getattr(mod, fn_name)))
        self._patch(disp, "phase_speed",
                    w("dispersion.phase_speed", disp.phase_speed))

        # where each caller imported the wave-number layer from
        wavenumber_users = {
            cli: ("wave_number", "complex_modulus"),
            greens: ("wave_number", "dispersion_attenuation",
                     "beta_at_infinity"),
            verif: ("wave_number", "dispersion_attenuation"),
        }
        for mod, fn_names in wavenumber_users.items():
            for fn_name in fn_names:
                self._patch(mod, fn_name,
                            w(f"wavenumber.{fn_name}", getattr(mod, fn_name),
                              _size_of(1)))

        for fn_name in ("green1d", "green3d"):
            self._patch(cli, fn_name, self._greens_scope(
                w(f"greens.{fn_name}", getattr(cli, fn_name))))
        self._patch(cli, "causality_metric",
                    w("greens.causality_metric", cli.causality_metric))
        self._patch(numpy.fft, "irfft",
                    w("greens.irfft", numpy.fft.irfft, _size_of(0),
                      only_in_greens=True))
        self._patch(greens, "ml_e1_neg",
                    w("ml.ml_e1_neg", greens.ml_e1_neg, _size_of(1)))

        self._patch(ml, "mittag_leffler",
                    w("ml.mittag_leffler", ml.mittag_leffler))
        self._patch(ml, "cole_cole_relaxation_modulus",
                    w("ml.relaxation", ml.cole_cole_relaxation_modulus))
        self._patch(ml, "_crossover", self._crossover(ml._crossover))

        for fn_name, span in (("cm_check_relaxation", "cm_check"),
                              ("cbf_check", "cbf_check"),
                              ("kk_residual", "kk_residual"),
                              ("minimum_phase_check", "minimum_phase")):
            self._patch(cli, fn_name, w(f"verification.{span}",
                                        getattr(cli, fn_name)))

        self._patch(cli, "main", w("cli.main", cli.main, process_clock=True))

    def _traced_factory(self, factory):
        """The finite-band factory builds its density as a closure; trace
        the density of every measure it returns."""
        tracer = self

        def build(*args, **kwargs):
            m = factory(*args, **kwargs)
            return dataclasses.replace(
                m, density=tracer.wrap("measures.density", m.density,
                                       _size_of(0)))

        build.__wrapped__ = factory
        return build

    def uninstall(self):
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    def arrays(self) -> dict:
        """The recorded spans as column arrays (sorted by span id)."""
        recs = sorted(self.records, key=lambda r: r[1])
        cols = list(zip(*recs)) if recs else [()] * len(SPAN_FIELDS)
        return {field: np.array(col, dtype=dtype) for (field, dtype), col
                in zip(SPAN_FIELDS, cols)}


# one span: wall-clock start/end (perf_counter) for the timeline, and CPU
# start/end for every per-layer second, on its thread's clock
# (thread_time) or, where ``process_clock``, on the whole process's
SPAN_FIELDS = (("name", str), ("sid", np.int64), ("parent", np.int64),
               ("op", np.int64), ("thread", np.int64), ("start", float),
               ("end", float), ("cpu_start", float), ("cpu_end", float),
               ("process_clock", bool), ("points", np.int64),
               ("error", bool))


def self_times(sid, parent, thread, cpu_start, cpu_end,
               process_clock=None) -> np.ndarray:
    """Each span's CPU time minus that of its child spans.  A span on its
    thread's clock loses only children of the same thread: children in
    pool threads never ran on that clock.  A span on the process clock
    loses all its children."""
    dur = np.asarray(cpu_end, float) - np.asarray(cpu_start, float)
    if process_clock is None:
        process_clock = np.zeros(len(dur), dtype=bool)
    out = dur.copy()
    index = {int(s): i for i, s in enumerate(sid)}
    for i, p in enumerate(parent):
        j = index.get(int(p))
        if j is not None and (process_clock[j] or thread[j] == thread[i]):
            out[j] -= dur[i]
    return out


def layer_metrics(spans: dict, op_kinds: dict, bytes_out: int) -> dict:
    """Per-layer metrics, ``<layer>.<what>`` -> (value, unit).

    Counts of calls and points are exact; ``greens.bins`` and
    ``greens.bytes_computed`` are computed from array sizes, not measured.
    """
    name = spans["name"]
    sid, parent = spans["sid"], spans["parent"]
    pts, err, op = spans["points"], spans["error"], spans["op"]
    dur = spans["cpu_end"] - spans["cpu_start"]
    self_s = self_times(sid, parent, spans["thread"], spans["cpu_start"],
                        spans["cpu_end"], spans["process_clock"])
    index = {int(s): i for i, s in enumerate(sid)}
    parent_name = np.array([name[index[int(p)]] if int(p) in index else ""
                            for p in parent], dtype=object)

    def layer_of(names):
        return np.array([str(n).split(".", 1)[0] for n in names],
                        dtype=object)

    layer = layer_of(name)
    parent_layer = layer_of(parent_name)
    outermost = layer != parent_layer        # entered from another layer
    is_ = {n: name == n for n in _SPAN_NAMES}
    m = {}

    def put(key, value, unit):
        m[key] = (float(value), unit)

    dens = is_["measures.density"]
    put("measures.density.calls", dens.sum(), "count")
    put("measures.density.points", pts[dens].sum(), "count")
    put("measures.density.self_s", self_s[dens].sum(), "s")

    integ = is_["quad.integrate"]
    put("quad.integrate.calls", integ.sum(), "count")
    put("quad.integrate.s", dur[integ & outermost].sum(), "s")
    put("quad.integrate.self_s", self_s[layer == "quad"].sum(), "s")
    put("quad.scipy_quad.calls", is_["quad.scipy_quad"].sum(), "count")
    in_quad = dens & (parent_layer == "quad")
    put("quad.density_calls_per_point",
        in_quad.sum() / integ.sum() if integ.sum() else 0.0, "count")
    put("quad.errors", (integ & err).sum(), "count")

    disp = (layer == "dispersion") & outermost
    put("dispersion.points", disp.sum(), "count")
    put("dispersion.s", dur[disp].sum(), "s")

    wn_out = (layer == "wavenumber") & outermost
    for fn in ("wave_number", "dispersion_attenuation", "complex_modulus"):
        sel = is_[f"wavenumber.{fn}"] & wn_out
        put(f"wavenumber.{fn}.calls", sel.sum(), "count")
        put(f"wavenumber.{fn}.points", pts[sel].sum(), "count")
        put(f"wavenumber.{fn}.s", dur[sel].sum(), "s")
    put("wavenumber.beta_at_infinity.s",
        dur[is_["wavenumber.beta_at_infinity"] & wn_out].sum(), "s")

    synth = is_["greens.green1d"] | is_["greens.green3d"]
    for fn in ("green1d", "green3d"):
        sel = is_[f"greens.{fn}"]
        put(f"greens.{fn}.calls", sel.sum(), "count")
        put(f"greens.{fn}.s", dur[sel].sum(), "s")
    under_synth = np.isin(parent_name, ["greens.green1d", "greens.green3d"])
    put("greens.spectrum_s", dur[wn_out & under_synth].sum(), "s")
    fft = is_["greens.irfft"]
    put("greens.fft_s", dur[fft].sum(), "s")
    e1 = is_["ml.ml_e1_neg"]
    put("greens.addback_s", dur[e1 & under_synth].sum(), "s")
    put("greens.self_s", self_s[synth].sum(), "s")
    bins = pts[fft].sum()
    put("greens.bins", bins, "count")
    # complex128 in and float64 out of each inverse FFT, plus complex128
    # in and out of each spectrum call made by the synthesis
    spec_pts = pts[wn_out & under_synth].sum()
    put("greens.bytes_computed",
        16 * bins + 8 * 2 * np.maximum(pts[fft] - 1, 0).sum()
        + 32 * spec_pts, "bytes")

    for fn, key in (("mittag_leffler", "mittag_leffler"),
                    ("relaxation", "relaxation")):
        sel = is_[f"ml.{fn}"]
        put(f"ml.{key}.calls", sel.sum(), "count")
        put(f"ml.{key}.s", dur[sel].sum(), "s")
    cold = is_["ml.crossover"] & (pts > 0)
    put("ml.cold_alpha_s", dur[cold].sum(), "s")
    put("ml.ml_e1_neg.points", pts[e1].sum(), "count")
    put("ml.ml_e1_neg.s", dur[e1].sum(), "s")

    for span in ("cm_check", "cbf_check", "kk_residual", "minimum_phase"):
        put(f"verification.{span}.s", dur[is_[f"verification.{span}"]].sum(),
            "s")
    verify_ops = np.array([op_kinds.get(int(o)) == "verify" for o in op],
                          dtype=bool)
    causal = (is_["greens.causality_metric"]
              | (is_["greens.green1d"] & verify_ops))
    put("verification.causality.s", dur[causal].sum(), "s")

    main = is_["cli.main"]
    put("cli.main.s", dur[main].sum(), "s")
    put("cli.self_s", self_s[main].sum(), "s")
    put("cli.bytes_out", bytes_out, "bytes")
    return m


def metric_units() -> dict:
    """Name -> unit of every per-layer metric, from an empty span set."""
    empty = {field: np.zeros(0, dtype=dtype) for field, dtype in SPAN_FIELDS}
    units = {k: u for k, (_, u) in layer_metrics(empty, {}, 0).items()}
    units["trace.overhead_s"] = "s"
    return units
