"""The seed commit's known defects, which the benchmark workloads leave out.

A benchmark op must not fail on the program it is first run against, so
each workload draws its inputs away from the places where that program
fails (see ``workloads.py``: ``_domain_family``, ``_CC_WAVEFORM``,
``_sls_edge_factor``, ``_RELAX_ALPHA``).  This script runs one input from
each of those places, through the same execution, deadline and reference
checks as the benchmark, and prints one line per probe with its status
(``ok``, ``raised``, ``exit_code``, ``miss`` or ``deadline``).  A probe
that reads ``ok`` marks a defect that is gone, and the workload may then
widen its draws.

    python3 perfbench/defects.py

Run from the root of a checkout; it takes under a minute and writes only
under ``.perfbench_out/``.
"""

from __future__ import annotations

import json
import signal
import tempfile

import worker


def _sweep(p, tau_omegas):
    return {"kind": "sweep", "params": p,
            "omegas": [t / p["tau"] for t in tau_omegas]}


def probes(wl):
    """(name, op, deadline) of every probe."""
    tau, c_inf = 1e-9, 3000.0
    tw = (1e-3, 1.0, 1e3)
    out = [
        ("sweep corner: CC a = 1 + 1e-4, alpha = 0.01",
         _sweep({"family": "cc", "a": 1.0001, "alpha": 0.01, "tau": tau,
                 "cinf": c_inf}, tw), 3.0),
        ("sweep corner: SLS a = 1 + 1e-4",
         _sweep({"family": "sls", "a": 1.0001, "tau": tau, "cinf": c_inf},
                tw), 3.0),
        ("sweep corner: HN alpha = 0.01",
         _sweep({"family": "hn", "b": 0.5, "alpha": 0.01, "gamma": 0.6,
                 "tau": tau, "cinf": c_inf}, tw), 3.0),
        ("sweep corner: CD gamma = 0.01",
         _sweep({"family": "cd", "b": 0.5, "gamma": 0.01, "tau": tau,
                 "cinf": c_inf}, tw), 3.0),
    ]
    # curves: SLS a = 1.5 at 1e-4 above the lower support edge 1/(a tau)
    p = {"family": "sls", "a": 1.5, "tau": 1e-13, "cinf": 5000.0}
    lo = 1.0001 / (1.5e-13 * 1e6)
    out.append(("curves: SLS 1e-4 above the support edge",
                {"kind": "curves", "params": p, "lo": lo, "hi": lo * 10.0,
                 "ppd": 4, "argv": ["curves", *wl.model_args(p), "--range",
                                    f"{lo!r}:{lo * 10.0!r}", "--ppd", "4"]},
                5.0))
    # greens: Cole-Cole alpha = 0.6 at a criterion 07 scale
    x, c_inf = 0.02, 5000.0
    p = {"family": "cc", "a": 1.25, "alpha": 0.6, "tau": (x / c_inf) / 8.96,
         "cinf": c_inf}
    T = 4.0 * x / c_inf
    out.append(("greens: Cole-Cole alpha = 0.6, 3D",
                {"kind": "greens", "params": p, "x": x, "T": T, "n": 8192,
                 "dim": 3, "argv": ["greens", *wl.model_args(p), "--x",
                                    repr(x), "--T", repr(T), "--n", "8192",
                                    "--dim", "3"]}, 10.0))
    # verify: Cole-Cole alpha = 0.53, a = 1.65
    p = {"family": "cc", "a": 1.65, "alpha": 0.53, "tau": 1e-13,
         "cinf": 5000.0}
    out.append(("verify: Cole-Cole alpha = 0.53, a = 1.65",
                {"kind": "verify", "params": p, "expect": 0,
                 "argv": ["verify", *wl.model_args(p)]}, 10.0))
    # relaxation: a cold alpha in the middle of (0, 1)
    tau = 1e-13
    times = [tau * 10.0 ** (-2.0 + 4.0 * (k + 0.5) / 6) for k in range(6)]
    out.append(("relaxation: cold alpha = 0.5 + 1e-6",
                {"kind": "relaxation",
                 "params": {"family": "cc", "a": 2.0, "alpha": 0.500001,
                            "tau": tau, "cinf": 5000.0},
                 "times": times, "laplace_at": [1, 4]}, 5.0))
    return out


def main() -> int:
    worker.pin_to_one_cpu()
    wl = worker.import_program()
    signal.signal(signal.SIGALRM, worker._on_alarm)
    out_root = worker.ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_root) as tmp:
        for i, (name, op, deadline) in enumerate(probes(wl)):
            op["round"] = 0
            rec = worker.run_op(wl, op, i, tmp, deadline)
            print(json.dumps({"probe": name, "status": rec["status"],
                              "detail": rec["detail"][:160],
                              "seconds": round(rec["time"], 3)}),
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
