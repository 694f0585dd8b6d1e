"""Steadiness report: run the benchmark N times per workload, each with
another seed, and give median, quartiles and (q3 - q1)/median of every
end-to-end metric next to the metric's bound.

    python3 perfbench/steadiness.py --runs 10 [--workloads curves,sweep] \
        [--first-seed 1] [--out perfbench/STEADINESS.md]

Runs one benchmark at a time, from the root of a checkout, with the
``command`` and ``run_seconds`` of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def run_once(bench, workload, seed):
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def render(raw: dict, bench: dict) -> str:
    """Markdown report of every workload in ``raw``."""
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = [f"# Steadiness of the end-to-end metrics, run_seconds "
           f"{bench['run_seconds']}",
           "",
           f"Machine: {platform.machine()}, Python "
           f"{platform.python_version()}, one run at a time.  Spread is "
           f"(q3 - q1)/median with `statistics.quantiles(values, n=4)`; "
           f"the acceptance check asks spread <= bound for every metric "
           f"but setup_s.  The last column is the spread of the same "
           f"runs' wall times before scaling by the calibration kernel.",
           ""]
    for name, rec in raw.items():
        seeds = rec["seeds"]
        out += [f"## {name} (seeds {seeds[0]}..{seeds[-1]})", "",
                "| metric | q1 | median | q3 | spread | bound | ok "
                "| unscaled spread |",
                "|---|---|---|---|---|---|---|---|"]
        unscaled = rec.get("unscaled", {})
        for key, vals in rec["values"].items():
            q1, med, q3, sp = stats.spread(vals)
            ok = "setup (exempt)" if key == "setup_s" else \
                ("yes" if sp <= bounds[key] else "NO")
            raw = f"{stats.spread(unscaled[key])[3]:.3f}" \
                if key in unscaled else ""
            out.append(f"| {key} | {q1:.5g} | {med:.5g} | {q3:.5g} | "
                       f"{sp:.3f} | {bounds[key]} | {ok} | {raw} |")
        out += ["", "failed/attempted per run: "
                + ", ".join(rec["failed_of_attempted"]), ""]
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--out", help="report path; its .json sibling keeps "
                    "the raw values, and workloads not run this time keep "
                    "their earlier entries")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    raw_path = Path(args.out).with_suffix(".json") if args.out else None
    raw = {}
    if raw_path is not None and raw_path.exists():
        raw = json.loads(raw_path.read_text())

    for name in names:
        rec = {"seeds": seeds, "values": {}, "unscaled": {},
               "speed_factor": [], "failed_of_attempted": [],
               "failures": [], "first_failures": []}
        for seed in seeds:
            detail, final = run_once(bench, name, seed)
            for key, m in final["metrics"].items():
                rec["values"].setdefault(key, []).append(m["value"])
            for key, v in detail["unscaled"].items():
                rec["unscaled"].setdefault(key, []).append(v)
            rec["speed_factor"].append(detail["speed_factor"])
            rec["failed_of_attempted"].append(
                f"{final['failed']}/{final['attempted']}")
            rec["failures"].append(detail["failures"])
            rec["first_failures"] += detail["first_failures"][:2]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.5g}" for k, m in final["metrics"].items())
                + f", failed {final['failed']}/{final['attempted']}",
                file=sys.stderr, flush=True)
        raw[name] = rec
        if raw_path is not None:
            raw_path.write_text(json.dumps(raw, indent=1) + "\n")
            Path(args.out).write_text(render(raw, bench))
    print(render({n: raw[n] for n in names}, bench))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
