"""Self-tests of the benchmark's own arithmetic and accounting.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import math
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spantrace  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402

wl = worker.import_program()


# -- percentile rule ---------------------------------------------------------

def test_tail_is_highest_percentile_with_ten_beyond():
    vals = list(range(1, 21))[::-1]            # 20 values, unsorted
    value, pct, beyond = stats.tail(vals)
    assert (value, pct, beyond) == (10, 50.0, 10)
    value, pct, beyond = stats.tail(range(100))
    assert (value, pct, beyond) == (89, 90.0, 10)


def test_tail_with_eleven_values_is_the_smallest():
    assert stats.tail([5.0] + [9.0] * 10) == (5.0, 100.0 / 11, 10)


def test_tail_with_ten_or_fewer_values_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    with pytest.raises(ValueError):
        stats.tail([])


def test_spread_matches_statistics_quantiles():
    q1, med, q3, sp = stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (q1, med, q3) == (2.75, 5.5, 8.25)
    assert sp == pytest.approx(1.0)


# -- deadline and exit-code accounting ---------------------------------------

def _fake(execute, check=None, expect=0):
    def default_check(op, result):
        return 7, 11

    return SimpleNamespace(
        execute=execute,
        expected_rc=lambda op: expect,
        check=check or default_check,
        OpFailure=wl.OpFailure,
    )


OP = {"kind": "verify", "round": 0, "params": {"family": "cc"}}


@pytest.fixture
def alarm():
    old = signal.signal(signal.SIGALRM, worker._on_alarm)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, old)


def test_op_past_deadline_fails_and_is_charged_the_deadline(alarm):
    def spin(op, out_dir, index):
        while True:
            sum(range(1000))

    rec = worker.run_op(_fake(spin), OP, 0, ".", 0.05)
    assert rec["status"] == "deadline"
    assert rec["units"] == 0
    assert rec["charged"] == rec["time"] >= 0.05


def test_time_blocked_or_in_a_child_process_counts(alarm):
    def block(op, out_dir, index):
        time.sleep(5.0)

    rec = worker.run_op(_fake(block), OP, 0, ".", 0.05)
    assert rec["status"] == "deadline"
    assert 0.05 <= rec["time"] < 1.0 and rec["cpu"] < 0.05

    def child(op, out_dir, index):
        subprocess.run([sys.executable, "-c", "import time; time.sleep(0.3)"],
                       check=True)
        return {"rc": 0}

    rec = worker.run_op(_fake(child), OP, 0, ".", 5.0)
    assert rec["status"] == "ok" and rec["time"] >= 0.3


def test_wrong_exit_code_fails_and_right_one_passes(alarm):
    def exit1(op, out_dir, index):
        return {"rc": 1}

    bad = worker.run_op(_fake(exit1), OP, 0, ".", 1.0)
    assert bad["status"] == "exit_code" and bad["units"] == 0
    assert bad["charged"] >= 1.0
    good = worker.run_op(_fake(exit1, expect=1), OP, 1, ".", 1.0)
    assert good["status"] == "ok" and good["units"] == 7
    assert good["charged"] == good["time"] < 1.0


def test_raise_and_reference_miss_fail(alarm):
    def boom(op, out_dir, index):
        raise OverflowError("math range error")

    rec = worker.run_op(_fake(boom), OP, 0, ".", 1.0)
    assert rec["status"] == "raised" and "OverflowError" in rec["detail"]
    assert rec["charged"] == pytest.approx(1.0 + rec["time"])

    def miss(op, result):
        raise wl.OpFailure("attenuation off")

    rec = worker.run_op(_fake(lambda *a: {"rc": 0}, check=miss), OP, 0, ".",
                        1.0)
    assert rec["status"] == "miss" and rec["units"] == 0


def test_failed_ops_count_in_latency_but_in_no_rate():
    ops = [{"index": i, "round": i // 5, "family": "cc", "status": "ok",
            "detail": "", "time": 1.0, "cpu": 1.0, "charged": 1.0,
            "units": 10}
           for i in range(20)]
    ops[0].update(status="deadline", time=5.0, charged=5.0, units=0)
    s = run.summarize({"ops": ops, "peak_rss_mb": 1.0})
    assert s["failed"] == 1 and s["error_rate"] == 0.05
    assert s["work_per_s"] == pytest.approx(190 / 24.0)
    assert s["op_tail_s"] == 1.0 and s["op_tail_ops_beyond"] == 10
    assert s["op_p50_s"] == 1.0
    ops[1].update(status="raised", charged=5.5, units=0)
    s = run.summarize({"ops": ops, "peak_rss_mb": 1.0})
    assert s["failures"] == {"deadline": 1, "raised": 1}


def test_speed_factor_is_reference_over_median_kernel_time():
    run_rec = {"calibration_reference_s": 0.04,
               "calibration_s": [0.08, 0.02, 0.05, 0.2, 0.06]}
    assert run.speed_factor(run_rec) == pytest.approx(0.04 / 0.06)


def test_every_workload_has_a_calibration_kernel():
    for workload in wl.WORKLOADS:
        assert worker.CAL_REFERENCE_S[workload] > 0.0
        assert set(worker.CAL_PARTS[workload]) <= set(worker._CAL_PART_FNS)


def test_correct_only_with_a_pass_and_no_wrong_output():
    def ops(*statuses):
        return [{"status": st} for st in statuses]

    assert run.judge(ops("ok", "ok"))
    assert run.judge(ops("ok", "deadline"))
    assert not run.judge(ops("deadline"))
    for wrong in ("raised", "exit_code", "miss"):
        assert not run.judge(ops("ok", wrong))


def _greens_op_and_csv(tmp_path, leak_at, header_front=None):
    """A greens op and a CSV whose only pre-wavefront leakage is one sample
    at ``leak_at`` times the true arrival x/c_inf."""
    x, c_inf, n = 0.01, 5000.0, 256
    T = 4.0 * x / c_inf
    op = {"kind": "greens", "params": {"family": "sls", "cinf": c_inf},
          "x": x, "T": T, "n": n}
    t = np.arange(n) * (T / n)
    front = x / c_inf
    u = np.where(t >= front, 1.0, 0.0)
    u[int(leak_at * front / (T / n))] = 0.5
    from cmwave.greens import Waveform

    path = tmp_path / "g.csv"
    Waveform(time_grid=t, samples=u, x=x,
             wavefront_time=front if header_front is None else header_front,
             dc_step_amplitude=0.0).to_csv(str(path))
    return op, {"rc": 0, "path": str(path)}


def test_greens_reference_uses_its_own_arrival_time(tmp_path):
    op, result = _greens_op_and_csv(tmp_path, leak_at=1.5)
    assert wl.check(op, result)[0] == 256
    op, result = _greens_op_and_csv(tmp_path, leak_at=0.5)
    with pytest.raises(wl.OpFailure, match="leakage"):
        wl.check(op, result)
    # a header that moves the front past the leak is caught, not believed
    op, result = _greens_op_and_csv(tmp_path, leak_at=0.5,
                                    header_front=2.0 * 0.01 / 5000.0)
    with pytest.raises(wl.OpFailure, match="wavefront_time"):
        wl.check(op, result)


# -- self times --------------------------------------------------------------

def test_self_time_subtracts_same_thread_children():
    # 0: [0, 10] with children 1: [1, 3] and 2: [4, 8]; 2 has child 3 [5, 6]
    sid = np.array([0, 1, 2, 3])
    parent = np.array([-1, 0, 0, 2])
    thread = np.zeros(4, dtype=np.int64)
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    np.testing.assert_allclose(
        spantrace.self_times(sid, parent, thread, start, end),
        [4.0, 2.0, 3.0, 1.0])


def test_children_in_pool_threads_count_only_on_the_process_clock():
    # a main-thread span with two pool-thread children: their CPU time was
    # never on the main thread's clock, but is on the process's
    sid = np.array([10, 11, 12])
    parent = np.array([-1, 10, 10])
    thread = np.array([1, 2, 3])
    start = np.array([0.0, 1.0, 2.0])
    end = np.array([8.0, 5.0, 6.0])
    np.testing.assert_allclose(
        spantrace.self_times(sid, parent, thread, start, end),
        [8.0, 4.0, 4.0])
    np.testing.assert_allclose(
        spantrace.self_times(sid, parent, thread, start, end,
                             np.array([True, False, False])),
        [0.0, 4.0, 4.0])


def _spans(rows):
    """Spans from (name, sid, parent, op, start, end, points, error) rows,
    all on one thread, CPU clock equal to the wall clock."""
    cols = dict(zip(("name", "sid", "parent", "op", "start", "end",
                     "points", "error"), zip(*rows)))
    cols["thread"] = [0] * len(rows)
    cols["cpu_start"], cols["cpu_end"] = cols["start"], cols["end"]
    cols["process_clock"] = [n == "cli.main" for n in cols["name"]]
    return {f: np.array(cols[f], dtype=t) for f, t in spantrace.SPAN_FIELDS}


def test_layer_metrics_on_a_synthetic_tree():
    spans = _spans([
        ("cli.main", 0, -1, 0, 0.0, 10.0, 1, False),
        ("greens.green1d", 1, 0, 0, 1.0, 9.0, 1, False),
        ("wavenumber.wave_number", 2, 1, 0, 2.0, 4.0, 1000, False),
        ("greens.irfft", 3, 1, 0, 5.0, 6.0, 501, False),
        ("ml.ml_e1_neg", 4, 1, 0, 6.5, 7.0, 40, False),
        ("quad.integrate", 5, -1, 1, 0.0, 1.0, 1, True),
        ("quad.scipy_quad", 6, 5, 1, 0.1, 0.9, 1, False),
        ("measures.density", 7, 6, 1, 0.2, 0.3, 1, False),
        ("measures.density", 8, 6, 1, 0.4, 0.5, 1, False),
    ])
    m = spantrace.layer_metrics(spans, {0: "greens", 1: "sweep"}, 123)
    value = {k: v for k, (v, _) in m.items()}
    assert value["greens.spectrum_s"] == 2.0
    assert value["greens.fft_s"] == 1.0
    assert value["greens.addback_s"] == 0.5
    assert value["greens.self_s"] == pytest.approx(4.5)
    assert value["greens.bins"] == 501
    assert value["cli.self_s"] == pytest.approx(2.0)
    assert value["cli.bytes_out"] == 123
    assert value["wavenumber.wave_number.points"] == 1000
    assert value["quad.density_calls_per_point"] == 2.0
    assert value["quad.errors"] == 1
    assert value["quad.integrate.self_s"] == pytest.approx(0.8)
    assert value["measures.density.self_s"] == pytest.approx(0.2)
    assert set(m) | {"trace.overhead_s"} == set(spantrace.metric_units())


def test_tracer_records_layers_and_restores_the_program():
    import cmwave.cli

    original = cmwave.cli.main
    tracer = spantrace.Tracer()
    tracer.install()
    try:
        assert cmwave.cli.main is not original
        op = {"kind": "sweep", "params": {"family": "sls", "a": 1.5,
                                          "tau": 1e-6, "cinf": 5000.0},
              "omegas": [1e6]}
        tracer.op, tracer.active = 0, True
        wl.execute(op, ".", 0)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert cmwave.cli.main is original
    names = set(tracer.arrays()["name"])
    assert {"dispersion.attenuation", "dispersion.phase_speed",
            "quad.integrate", "quad.scipy_quad",
            "measures.density"} <= names


# -- seeded inputs -----------------------------------------------------------

@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = wl.build_ops(workload, 7)
    assert a == wl.build_ops(workload, 7)
    assert wl.ops_digest(a) == wl.ops_digest(wl.build_ops(workload, 7))
    assert wl.ops_digest(a) != wl.ops_digest(wl.build_ops(workload, 8))


def test_every_round_holds_the_whole_mix():
    ops = wl.build_ops("sweep", 3)
    for r in (0, 1, 7):
        fams = sorted(o["params"]["family"] for o in ops if o["round"] == r)
        assert fams == sorted(wl._SWEEP_SLOTS)
    alphas = sorted(o["params"]["alpha"]
                    for o in wl.build_ops("relaxation", 3)[:10])
    (lo1, hi1, n1), (lo2, hi2, n2) = wl._RELAX_ALPHA
    strata = [math.floor(n1 * (a - lo1) / (hi1 - lo1)) for a in alphas[:n1]] \
        + [math.floor(n2 * (a - lo2) / (hi2 - lo2)) for a in alphas[n1:]]
    assert strata == [*range(n1), *range(n2)]


def test_waveform_workloads_keep_cole_cole_in_its_window():
    for workload in ("greens", "verify"):
        cc = [o["params"] for o in wl.build_ops(workload, 5)
              if o["params"]["family"] == "cc"]
        assert cc
        for key, (lo, hi) in wl._CC_WAVEFORM.items():
            assert all(lo <= p[key] <= hi for p in cc)


def test_sls_frequencies_leave_the_window_above_the_support_edge():
    p = {"family": "sls", "a": 1.5, "tau": 1e-13}
    edge = 1.0 / (1.5 * 1e-13)
    omega = np.array([edge * 0.5, edge * 1.002, edge * 1.0299, edge * 3.0])
    f = wl._sls_edge_factor(p, omega)
    assert f < 1.0
    assert not np.any((omega * f >= edge) & (omega * f <= edge * 1.01))
    assert wl._sls_edge_factor(p, [edge * 0.9, edge * 1.2]) == 1.0
    assert wl._sls_edge_factor({"family": "cc"}, [edge]) == 1.0
