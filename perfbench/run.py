"""cmwave benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Every input is generated from ``--seed``
and the program under test is imported from the checkout's ``src``.  With
``--trace 0`` the workload runs untraced in a fresh single-threaded
interpreter for ``--seconds`` (whole rounds of its op mix) and the
end-to-end metrics are printed; set-up time is the median wall time of three
fresh interpreters that import cmwave and build the inputs.  Times are
scaled to one machine speed by a calibration kernel timed during the run
(``speed_factor``).  With
``--trace 1`` an untraced run of half the time fixes the op count, a traced
run repeats exactly those ops, and the per-layer metrics plus
``trace.overhead_s`` (traced minus untraced op time) are printed.

The line before last repeats the metrics with the workload's own name for
its rate (``curve_points_per_s``, ...), ``error_rate``, the tail percentile
and its op count, the median CPU time of an op and the first failures; the
last line is the machine-readable result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("curves", "sweep", "greens", "verify", "relaxation")
SETUP_REPEATS = 3
# a run ends at the first round boundary past --seconds; the slack covers
# that last round, imports and the reference checks, and keeps a whole
# benchmark run under three minutes
_WORKER_SLACK_S = 60.0
_SETUP_TIMEOUT_S = 15.0

# one thread for numpy's BLAS so the single client is single-threaded; the
# program's own thread pool in ``cmwave curves`` still runs as shipped
_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _worker_cmd(workload, seed, *extra):
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), *extra]


def _run_worker(cmd, timeout):
    env = dict(os.environ, **_ENV)
    proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return proc


def run_worker(workload, seed, seconds, trace=False, max_ops=None):
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    fd, path = tempfile.mkstemp(suffix=".json", dir=out_root)
    os.close(fd)
    try:
        extra = ["--seconds", repr(float(seconds)), "--out", path]
        if trace:
            extra.append("--trace")
        if max_ops is not None:
            extra += ["--max-ops", str(max_ops)]
        _run_worker(_worker_cmd(workload, seed, *extra),
                    timeout=2 * seconds + _WORKER_SLACK_S)
        with open(path) as fh:
            return json.load(fh)
    finally:
        os.unlink(path)


def setup_seconds(workload, seed) -> list[float]:
    """Wall seconds of fresh interpreters that import cmwave, cmwave.cli,
    greens, verification and mittag_leffler, then build the inputs."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _run_worker(_worker_cmd(workload, seed, "--setup-only"),
                    timeout=_SETUP_TIMEOUT_S)
        out.append(time.perf_counter() - t0)
    return out


def speed_factor(run: dict) -> float:
    """The reference time of the run's calibration kernel over its median
    time in the run (``worker.calibration_kernel``): below 1 on a slower
    machine.  Times are multiplied by it and rates divided by it."""
    return run["calibration_reference_s"] / statistics.median(
        run["calibration_s"])


def judge(ops) -> bool:
    """``correct``: at least one op passed its reference, and no op raised,
    exited with the wrong code or missed its reference.  An op cut at its
    deadline is slow, not wrong: it counts in ``failed`` and in the latency
    percentiles only."""
    return any(o["status"] == "ok" for o in ops) \
        and all(o["status"] in ("ok", "deadline") for o in ops)


def work_rate(ops) -> float:
    """Correct work per second of op time.  A failed op's work counts in
    no rate; the time the client spent on it still passed."""
    return sum(o["units"] for o in ops) / sum(o["time"] for o in ops)


def summarize(run: dict) -> dict:
    """End-to-end numbers of one untraced run."""
    ops = run["ops"]
    charged = [o["charged"] for o in ops]
    failed = [o for o in ops if o["status"] != "ok"]
    tail_v, tail_pct, tail_beyond = stats.tail(charged)
    by_status = {}
    for o in failed:
        by_status[o["status"]] = by_status.get(o["status"], 0) + 1
    return {
        "attempted": len(ops),
        "failed": len(failed),
        "op_p50_s": statistics.median(charged),
        "op_p50_cpu_s": statistics.median(o["cpu"] for o in ops),
        "op_tail_s": tail_v,
        "op_tail_percentile": tail_pct,
        "op_tail_ops_beyond": tail_beyond,
        "work_per_s": work_rate(ops),
        "peak_rss_mb": run["peak_rss_mb"],
        "error_rate": len(failed) / len(ops),
        "failures": by_status,
        "first_failures": [f"op {o['index']} {o['family']}: {o['status']} "
                           f"{o['detail']}" for o in failed[:5]],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "cmwave" / "__init__.py").is_file():
        print(f"error: no cmwave sources under {ROOT / 'src'}; run from "
              f"the root of a cmwave checkout", file=sys.stderr)
        return 2

    try:
        if args.trace:
            result = traced(args)
        else:
            result = untraced(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail, final = result
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(final))
    return 0


def untraced(args):
    run = run_worker(args.workload, args.seed, args.seconds)
    setups = setup_seconds(args.workload, args.seed)
    s = summarize(run)
    f = speed_factor(run)
    wall = {
        "setup_s": statistics.median(setups),
        "op_p50_s": s["op_p50_s"],
        "op_tail_s": s["op_tail_s"],
        "work_per_s": s["work_per_s"],
    }
    metrics = {
        "setup_s": (wall["setup_s"] * f, "s"),
        "op_p50_s": (wall["op_p50_s"] * f, "s"),
        "op_tail_s": (wall["op_tail_s"] * f, "s"),
        "work_per_s": (wall["work_per_s"] / f, "1/s"),
        "peak_rss_mb": (s["peak_rss_mb"], "MB"),
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": 0,
        "ops_digest": run["ops_digest"],
        "work_unit": run["work_unit"],
        "deadline_s": run["deadline_s"],
        "setup_runs_s": setups,
        "op_p50_cpu_s": s["op_p50_cpu_s"],
        "run_wall_s": run["wall_s"],
        "calibration_median_s": statistics.median(run["calibration_s"]),
        "calibration_runs": len(run["calibration_s"]),
        "speed_factor": f,
        "unscaled": wall,
        "metrics": {
            **{k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            run["rate_name"]: {"value": s["work_per_s"] / f, "unit": "1/s"},
            "error_rate": {"value": s["error_rate"], "unit": "ratio"},
        },
        "op_tail_percentile": s["op_tail_percentile"],
        "op_tail_ops_beyond": s["op_tail_ops_beyond"],
        "failures": s["failures"],
        "first_failures": s["first_failures"],
    }
    final = {
        "correct": judge(run["ops"]),
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return detail, final


def traced(args):
    plain = run_worker(args.workload, args.seed, args.seconds / 2.0)
    k = len(plain["ops"])
    run = run_worker(args.workload, args.seed, args.seconds, trace=True,
                     max_ops=k)
    if run["ops_digest"] != plain["ops_digest"]:
        raise RuntimeError("traced and untraced runs saw different inputs")
    overhead = sum(o["time"] for o in run["ops"]) \
        - sum(o["time"] for o in plain["ops"])
    metrics = dict(run["layers"])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    failed = sum(o["status"] != "ok" for o in run["ops"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": 1,
        "ops_digest": run["ops_digest"],
        "spans": run["spans"],
        "untraced_op_s": sum(o["time"] for o in plain["ops"]),
        "traced_op_s": sum(o["time"] for o in run["ops"]),
    }
    final = {"correct": judge(run["ops"]), "attempted": k,
             "failed": failed,
             "metrics": metrics}
    return detail, final


if __name__ == "__main__":
    raise SystemExit(main())
