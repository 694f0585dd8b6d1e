"""One workload run in a fresh single-threaded interpreter.

A closed loop with one client: the next op starts only when the previous
one has returned and been checked.  Each op runs under a deadline;
its output is then compared with an independent reference outside the
timed region.  The result (per-op records, peak RSS and, when traced, the
per-layer metrics) goes to the JSON file named by ``--out``.

Usage (from the root of a checkout):

    python3 perfbench/worker.py --workload curves --seed 1 --seconds 10 \
        --out .perfbench_out/curves.json [--trace] [--max-ops N]
    python3 perfbench/worker.py --workload curves --seed 1 --setup-only
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class DeadlineExceeded(BaseException):
    """Raised by the deadline's signal handler; a BaseException so that no
    ``except Exception`` in the program can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def pin_to_one_cpu():
    """Run this interpreter, its threads and any process it starts on one
    CPU: the highest it may use, as CPU 0 tends to serve more of the
    system's interrupts.

    The 4-thread pool of ``cmwave curves`` does interpreter-bound work.  On
    two CPUs such threads hand the interpreter lock across cores: a pure
    Python loop mapped over a 4-thread pool in chunks of 0.2 s of CPU
    work, on a 2-vCPU shared host, took 1.46 to 1.82 times its CPU time in
    wall time between the quartiles (up to 2.4 times); pinned to one CPU,
    1.02 to 1.30 times.  The cost: a speed-up from running work
    in parallel does not show, and neither does the pool's lock hand-off
    cost on several cores.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# how often the run samples the machine's speed, in wall seconds
CALIBRATE_EVERY_S = 0.5
# the calibration kernel's parts per workload.  greens spends its time on
# numpy arrays of 0.5 to 1 million bins, far larger than a core's L2 cache;
# the others in the interpreter, mpmath, scipy quad and smaller arrays.
_CAL_GENERAL = ("interp", "mpmath", "quad", "fft_small", "fft_large")
CAL_PARTS = {"curves": _CAL_GENERAL, "sweep": _CAL_GENERAL,
             "verify": _CAL_GENERAL, "relaxation": _CAL_GENERAL,
             "greens": ("fft_mem",)}
# about the kernel's time on the machine the benchmark was defined on
# (2-vCPU KVM guest, 2 MB L2 cache per core, Python 3.11): the reported
# times are wall times scaled to that machine's speed
CAL_REFERENCE_S = {"curves": 0.025, "sweep": 0.025, "verify": 0.025,
                   "relaxation": 0.025, "greens": 0.06}
_CAL_DATA = {}


def _cal_fft(n, reps):
    import numpy as np

    if n not in _CAL_DATA:
        _CAL_DATA[n] = np.random.default_rng(0).standard_normal(n)
    for _ in range(reps):
        np.fft.irfft(np.fft.rfft(_CAL_DATA[n]) * 0.5, n)


def _cal_interp():
    import math

    s = 0.0
    for i in range(1, 15000):
        s += math.sqrt(i) * math.log(i)


def _cal_mpmath():
    import mpmath

    with mpmath.workdps(60):
        x = mpmath.mpf(1)
        for k in range(250):
            x = x * mpmath.mpf(1.0001) + mpmath.rgamma(k % 7 + 1.5)


def _cal_quad():
    import math

    from scipy import integrate

    for k in range(40):
        integrate.quad(lambda u: math.exp(-u) * math.sin(k + u) / (1 + u * u),
                       0.0, 50.0, limit=200)


_CAL_PART_FNS = {
    "interp": _cal_interp,            # a scalar float loop
    "mpmath": _cal_mpmath,            # 60-digit series arithmetic
    "quad": _cal_quad,                # scipy quad over a Python integrand
    "fft_small": lambda: _cal_fft(1 << 14, 12),   # arrays well within L2
    "fft_large": lambda: _cal_fft(1 << 17, 1),    # arrays of L2's size
    "fft_mem": lambda: _cal_fft(1 << 20, 1),      # arrays far beyond L2
}


def calibration_kernel(workload: str) -> float:
    """Wall seconds of a fixed piece of work of the kinds the workload's
    ops do (``CAL_PARTS``): 25 ms (greens 60 ms) on a 2-vCPU KVM guest.

    It runs no code of the program under test, so a change to the program
    cannot change it, while a slower or busier machine slows it as it
    slows the ops.  On a shared 2-vCPU host whose speed drifted 1.2 to 2
    times within five minutes, the time of these kinds of work tracked the
    ops' over 10 s windows, and dividing by it cut the drift of op times
    1.5 to 3 times (greens: by a 2**20-point FFT; the interpreter-bound
    parts did not track it).
    """
    fns = [_CAL_PART_FNS[p] for p in CAL_PARTS[workload]]
    t0 = time.perf_counter()
    for fn in fns:
        fn()
    return time.perf_counter() - t0


def import_program():
    """Import cmwave from this checkout's ``src`` and nowhere else."""
    if not (SRC / "cmwave" / "__init__.py").is_file():
        raise SystemExit(f"error: no cmwave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cmwave

    if Path(cmwave.__file__).resolve().parent != (SRC / "cmwave").resolve():
        raise SystemExit("error: cmwave was imported from outside the "
                         "checkout")
    import workloads

    return workloads


def run_op(wl, op, index, out_dir, deadline, tracer=None):
    """Run one op; returns its record (times, charged time, status).

    An op's time is the wall time from its call to its return, so work the
    program moves to other threads or processes, and time it spends
    blocked, all count.  The deadline runs on the same clock (SIGALRM).
    The CPU time of this interpreter is recorded beside it: on a shared
    host, wall time well above CPU time shows time stolen by other tenants.
    """
    if tracer is not None:
        tracer.op = index
        tracer.active = True
    status, detail, result = "ok", "", None
    c0 = time.process_time()
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        result = wl.execute(op, out_dir, index)
    except DeadlineExceeded:
        status, detail = "deadline", f"past {deadline:g} s"
    except Exception as exc:  # any error the program lets escape
        status, detail = "raised", f"{type(exc).__name__}: {exc}"[:300]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if tracer is not None:
            tracer.active = False
            tracer.end_op()
    units = n_bytes = 0
    if status == "ok" and result["rc"] != wl.expected_rc(op):
        status, detail = "exit_code", f"exit {result['rc']}"
    if status == "ok":
        try:
            units, n_bytes = wl.check(op, result)
        except wl.OpFailure as exc:
            status, detail = "miss", str(exc)[:300]
    ok = status == "ok"
    return {
        "index": index,
        "round": op["round"],
        "kind": op["kind"],
        "family": op["params"]["family"],
        "time": wall,
        "cpu": cpu,
        # the latency a failed op counts at is never below the deadline:
        # the time it ran when cut there, else the deadline on top of the
        # time it ran, so failing sooner can never look like a gain
        "charged": wall if ok or status == "deadline" else deadline + wall,
        "status": status,
        "detail": detail,
        "units": units if ok else 0,
        "bytes_out": n_bytes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--max-ops", type=int)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pin_to_one_cpu()
    wl = import_program()
    ops = wl.build_ops(args.workload, args.seed)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import spantrace as span_trace

        tracer = span_trace.Tracer()
        tracer.install()

    deadline = wl.DEADLINE_S[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    records, calibration = [], []
    last_cal = -float("inf")
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        start = time.perf_counter()
        for i, op in enumerate(ops):
            if args.max_ops is not None:
                if i >= args.max_ops:
                    break
            elif i and op["round"] != ops[i - 1]["round"] \
                    and time.perf_counter() - start >= args.seconds:
                # whole rounds only, so every run holds the same op mix
                break
            if time.perf_counter() - last_cal >= CALIBRATE_EVERY_S:
                # between ops, outside any op's time
                calibration.append(calibration_kernel(args.workload))
                last_cal = time.perf_counter()
            records.append(run_op(wl, op, i, tmp, deadline, tracer))
            for name in os.listdir(tmp):
                os.unlink(os.path.join(tmp, name))
        wall = time.perf_counter() - start

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_digest": wl.ops_digest(ops[:len(records)]),
        "deadline_s": deadline,
        "work_unit": wl.WORK_UNIT[args.workload],
        "rate_name": wl.RATE_NAME[args.workload],
        "wall_s": wall,
        "calibration_s": calibration,
        "calibration_reference_s": CAL_REFERENCE_S[args.workload],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops": records,
    }
    if tracer is not None:
        tracer.uninstall()
        import numpy as np

        spans = tracer.arrays()
        np.savez_compressed(out_root / f"spans-{args.workload}.npz", **spans)
        kinds = {r["index"]: r["kind"] for r in records}
        layers = span_trace.layer_metrics(
            spans, kinds, sum(r["bytes_out"] for r in records))
        out["layers"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in layers.items()}
        out["spans"] = int(len(spans["sid"]))
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
