"""Self-tests of the benchmark: deterministic inputs, the closed-form
references, the output checks and the tracer.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_config_bytes(workload):
    files, ops = workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) == (files, ops)
    other, other_ops = workloads.generate(workload, 8)
    assert other.keys() == files.keys() and other != files
    assert sum(op["items"] for op in ops) == sum(op["items"] for op in other_ops)


def test_a_star_closed_form():
    assert round(reference.a_star(1.0, 1.0), 5) == 1.24962
    assert reference.se_fixed_point(1.2496, 1.0, 1.0, 1.0, 0.5) is not None
    assert reference.se_fixed_point(1.2497, 1.0, 1.0, 1.0, 0.5) is None


@pytest.mark.parametrize("a,b,P,N,N_f", [(0.9, 1.0, 1.0, 1.0, 0.5), (1.2, 0.7, 1.5, 0.8, 2.0)])
def test_se_fixed_point_is_the_limit_of_the_recursion(a, b, P, N, N_f):
    T = 20_000
    s = {"a": [a] * T, "b": [b] * T, "P": [P] * T, "N": [N] * T, "N_f": [N_f] * T, "V_xx0": 1.0}
    sigma2, sb = reference.predict_state_estimate_fb(s)
    fp = reference.se_fixed_point(a, b, P, N, N_f)
    assert fp == pytest.approx((sigma2[-1], sb[-1]), rel=1e-9)


def test_output_fb_fixed_point_is_the_limit_of_the_recursion():
    for N_f in (0.0, 0.3, math.inf):
        T = 5_000
        s = {"a": [0.8] * T, "b": [1.1] * T, "P": [1.3] * T, "N": [0.7] * T,
             "N_f": [N_f] * T, "V_xx0": 1.0}
        sigma2, vbar = reference.predict_output_fb(s)
        fp = reference.output_fb_fixed_point(0.8, 1.1, 1.3, 0.7, N_f)
        assert fp == pytest.approx((sigma2[-1], vbar[-1]), rel=1e-9)


# -- the checks, on real outputs and corrupted copies ------------------------


def _cli_output(tmp_path, op, text):
    from statecast import cli

    cfg, out = tmp_path / "cfg.ini", tmp_path / "out"
    cfg.write_text(text)
    code = cli.main([op["command"], str(cfg), "--output", str(out)])
    return code, out.read_text()


def _small(workload, check, T, regime=None, **experiment):
    """A shrunken operation of the given check kind, with its config text."""
    files, ops = workloads.generate(workload, 3)
    op = copy.deepcopy(next(o for o in ops if o["check"] == check
                            and regime in (None, o["params"].get("regime"))))
    sched = op["params"]["schedule"]
    for key in ("a", "P"):
        if isinstance(sched[key], list):
            sched[key] = sched[key][:T]
    sched["T"] = T
    text = files[op["config"]]
    exp = dict(line.split(" = ", 1) for line in text.split("[experiment]\n")[1].splitlines()
               if " = " in line)
    exp.update(experiment)
    meas = None
    if "[measurement]" in text:
        body = text.split("[measurement]\n")[1].split("\n\n")[0]
        meas = {k: float(v) for k, v in (ln.split(" = ") for ln in body.splitlines())}
    if "trials" in experiment:
        op["params"]["trials"] = int(experiment["trials"])
    return op, workloads._ini(sched, exp, meas)


def _rows(text):
    lines = text.splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:] if not ln.startswith("#")]


def _join(header, rows):
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


def _breaks(op, text, code=0):
    return checks.check(op, text, code)[0]


def test_check_predict(tmp_path):
    op, cfg = _small("long_horizon", "predict", 300)
    code, text = _cli_output(tmp_path, op, cfg)
    assert _breaks(op, text, code) == []
    header, rows = _rows(text)
    rows[150][3] = repr(float(rows[150][3]) * (1 + 1e-7))
    assert _breaks(op, _join(header, rows))


@pytest.mark.parametrize("regime", workloads.REGIMES_MC)
def test_check_mc_steps(tmp_path, regime):
    op, cfg = _small("mc_wide", "mc_steps", 20, regime, trials="20000")
    code, text = _cli_output(tmp_path, op, cfg)
    assert _breaks(op, text, code) == []
    header, rows = _rows(text)
    bad = copy.deepcopy(rows)
    bad[10][4] = repr(float(bad[10][4]) * 1.5)  # emp_mse far from pred_mse
    assert _breaks(op, _join(header, bad))
    bad = copy.deepcopy(rows)
    bad[5][6] = repr(float(bad[5][6]) * 1.5)  # transmit power off
    assert _breaks(op, _join(header, bad))


def test_check_mc_aggregate(tmp_path):
    op, cfg = _small("long_horizon", "mc_aggregate", 4000)
    code, text = _cli_output(tmp_path, op, cfg)
    assert _breaks(op, text, code) == []
    header, rows = _rows(text)
    for r in rows:
        r[4] = repr(float(r[4]) * 1.2)
    assert _breaks(op, _join(header, rows))


def test_check_oracle(tmp_path):
    files, ops = workloads.generate("exact_analysis", 3)
    for op in (o for o in ops if o["check"] == "oracle"):
        code, text = _cli_output(tmp_path, op, files[op["config"]])
        assert _breaks(op, text, code) == [], op["id"]
        header, rows = _rows(text)
        bad = copy.deepcopy(rows)
        bad[6][1] = repr(float(bad[6][2]) * 1.01)  # conditional mean worse than the scheme
        assert _breaks(op, _join(header, bad))
        bad = copy.deepcopy(rows)
        bad[6][2] = repr(float(bad[6][2]) * (1 + 1e-8))  # scheme off the prediction
        assert _breaks(op, _join(header, bad))


def test_check_sweep(tmp_path):
    files, ops = workloads.generate("exact_analysis", 3)
    op = next(o for o in ops if o["check"] == "sweep" and o["params"]["rel"] == -0.2)
    code, text = _cli_output(tmp_path, op, files[op["config"]])
    assert checks.check(op, text, code) == ([], [])
    header, rows = _rows(text)
    bad = copy.deepcopy(rows)
    bad[0][2] = repr(float(bad[0][2]) * (1 + 1e-6))
    assert _breaks(op, _join(header, bad))
    bad = copy.deepcopy(rows)
    bad[1][1:] = ["false", "nan", "nan", "nan"]
    breaks, failures = checks.check(op, _join(header, bad), 0, [(7, False)] * 3)
    assert breaks == [] and [f["kind"] for f in failures] == ["verdict_mismatch"]
    breaks, failures = checks.check(op, _join(header, bad), 0, [(100_000, True)] * 3)
    assert [f["kind"] for f in failures] == ["cap_hit"]


def test_check_stationarity(tmp_path):
    files, ops = workloads.generate("exact_analysis", 3)
    for op in (o for o in ops if o["check"] == "stationarity"):
        code, text = _cli_output(tmp_path, op, files[op["config"]])
        assert checks.check(op, text, code) == ([], []), op["id"]
        assert _breaks(op, text, 3 - code)
        rep = json.loads(text)
        if rep["bounded"]:
            rep["fixed_point"]["sigma2"] *= 1 + 1e-6
            assert _breaks(op, json.dumps(rep), code)
        else:
            rep["bounded"] = True
            assert checks.check(op, json.dumps(rep), 0)[1]


# -- the tracer ---------------------------------------------------------------


def test_tracer_accounts_for_all_time_and_restores(tmp_path):
    import statecast
    from statecast import cli, model, schemes, simulate

    originals = (cli.main, simulate.build_plan, schemes.build_plan, model.validate_schedule,
                 simulate.validate_schedule, statecast.monte_carlo, simulate.Philox)
    op, cfg = _small("mc_wide", "mc_steps", 30, "output_feedback", trials="1000")
    tracer = Tracer()
    tracer.install()
    try:
        assert simulate.build_plan is schemes.build_plan is not originals[1]
        assert simulate.validate_schedule is model.validate_schedule is not originals[3]
        t0 = perf_counter()
        code, text = _cli_output(tmp_path, op, cfg)
        elapsed = perf_counter() - t0
    finally:
        tracer.restore()
    assert code == 0
    assert (cli.main, simulate.build_plan, schemes.build_plan, model.validate_schedule,
            simulate.validate_schedule, statecast.monte_carlo, simulate.Philox) == originals
    snap = tracer.snapshot()
    assert snap["simulate.rows_drawn"] == 1 + 30 + 2 * 29  # x0, w, n, n_f rows
    assert snap["simulate.stream_mb"] == pytest.approx((1 + 3 * 30) * 1000 * 8 / 1e6)
    assert snap["model.validate_calls"] >= 5
    assert snap["recursions.steps"] == 29
    for layer in ("simulate.sample_s", "simulate.moments_s", "simulate.reduce_s",
                  "schemes.closed_loop_s", "schemes.build_plan_s", "recursions.predict_s",
                  "model.validate_s", "cli.parse_s", "cli.self_s"):
        assert snap[layer] > 0.0, layer
    assert snap["schemes.step_us"] > 0.0
    assert 0.0 < snap["trace.self_total_s"] <= elapsed


def test_solver_only_tracer_logs_iterations_and_times_nothing(tmp_path):
    from statecast import stationarity

    original = stationarity.solve_state_estimate_fp
    files, ops = workloads.generate("exact_analysis", 3)
    op = next(o for o in ops if o["check"] == "sweep" and o["params"]["rel"] == -0.2)
    tracer = Tracer()
    tracer.install(solver_only=True)
    try:
        assert stationarity.solve_state_estimate_fp is not original
        assert {attr for _, attr, _ in tracer._patched} == {"solve_state_estimate_fp"}
        code, _ = _cli_output(tmp_path, op, files[op["config"]])
    finally:
        tracer.restore()
    assert code == 0 and stationarity.solve_state_estimate_fp is original
    assert len(tracer.solver_log) == len(op["params"]["sweep"])
    assert all(iters > 0 and not hit for iters, hit in tracer.solver_log)
    assert tracer.snapshot()["trace.self_total_s"] == 0.0


def test_median_pass_takes_each_invocations_median():
    import run

    passes = [{"op_s": [1.0, 9.0]}, {"op_s": [5.0, 2.0]}, {"op_s": [2.0, 3.0]}]
    assert run.median_pass_s(passes) == 2.0 + 3.0
