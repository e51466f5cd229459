import gc
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import keyed_streams
from statecast import (
    McConfig,
    MeasurementModel,
    RegimeKind,
    SystemSchedule,
    ValidationError,
    build_plan,
    exact_conditioning_oracle,
    monte_carlo,
    predict_noiseless_fb,
    predict_output_fb,
    predict_state_estimate_fb,
)
from statecast import simulate
from numpy.random import Generator, Philox
from statecast.schemes import run_closed_loop
from statecast.simulate import CSV_HEADER, format_float
from statecast.stationarity import STATIONARITY_CHECKS


def test_same_seed_gives_identical_streams():
    s = SystemSchedule(T=10, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.3, V_xx0=1.0)
    s1 = keyed_streams(s, 64, 2024)
    s2 = keyed_streams(s, 64, 2024)
    for name in ("x0", "w", "n", "n_f"):
        assert np.array_equal(getattr(s1, name), getattr(s2, name))


def test_trials_are_extensible():
    # trial k's samples do not depend on how many trials were drawn
    s = SystemSchedule(T=6, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.3, V_xx0=1.0)
    small = keyed_streams(s, 10, 7)
    big = keyed_streams(s, 1000, 7)
    assert np.array_equal(small.w, big.w[:, :10])
    assert np.array_equal(small.n, big.n[:, :10])
    assert np.array_equal(small.x0, big.x0[:10])


def test_stream_moments():
    s = SystemSchedule(T=2, a=0.9, b=1.0, P=1.0, N=1.7, N_f=0.3, V_xx0=1.0)
    streams = keyed_streams(s, 1_000_000, 11)
    w = streams.w[0]
    assert abs(w.mean()) < 4.0 / math.sqrt(len(w))
    n1 = streams.n[1]
    assert abs(n1.var(ddof=1) - 1.7) / 1.7 < 0.01
    nf1 = streams.n_f[1]
    assert abs(nf1.var(ddof=1) - 0.3) / 0.3 < 0.01


def test_streams_mutually_independent():
    s = SystemSchedule(T=3, a=0.9, b=1.0, P=1.0, N=1.0, N_f=1.0, V_xx0=1.0)
    M = 200_000
    streams = keyed_streams(s, M, 3)
    pairs = [
        (streams.w[1], streams.n[1]),
        (streams.w[1], streams.n_f[1]),
        (streams.n[1], streams.n_f[1]),
        (streams.w[0], streams.w[1]),
        (streams.n[1], streams.n[2]),
        (streams.x0, streams.w[0]),
    ]
    for u, v in pairs:
        corr = np.corrcoef(u, v)[0, 1]
        assert abs(corr) < 5.0 / math.sqrt(M)


def test_infinite_feedback_noise_stream_is_zero():
    s = SystemSchedule(T=4, a=0.9, b=1.0, P=1.0, N=1.0, N_f=math.inf, V_xx0=1.0)
    streams = keyed_streams(s, 8, 5)
    assert np.all(streams.n_f == 0.0)


def test_correlated_measurement_noise_streams():
    s = SystemSchedule(T=3, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.1, V_xx0=1.0)
    m = MeasurementModel(c=1.0, d=1.0, V_ww=2.0, V_wv=0.8, V_vv=1.5)
    streams = keyed_streams(s, 400_000, 9, m)
    w, v = streams.w[1], streams.v[1]
    assert abs(w.var(ddof=1) - 2.0) / 2.0 < 0.02
    assert abs(v.var(ddof=1) - 1.5) / 1.5 < 0.02
    assert abs(np.mean(w * v) - 0.8) < 0.02


@pytest.mark.parametrize("m", [1, 37, 5000])
def test_row_drawn_into_a_buffer_has_the_bytes_of_the_allocating_draw(m):
    seed, stream, t = 2**64 - 5, simulate._STREAM_NF, 11
    key = np.array([seed, (stream << 48) | t], dtype=np.uint64)
    expected = Generator(Philox(key=key)).standard_normal(m)
    buf = np.full((3, m), np.nan)
    row = buf[1]
    assert simulate._row(seed, stream, t, out=row) is row
    assert row.tobytes() == expected.tobytes()
    assert np.isnan(buf[[0, 2]]).all()


def test_mc_config_validation():
    with pytest.raises(ValidationError, match=r"^trials must be >= 1, got 0$"):
        McConfig(trials=0, seed=1)


def test_monte_carlo_matches_prediction_all_regimes(rng):
    cfg = McConfig(trials=20_000, seed=7)
    m = MeasurementModel(c=1.0, d=0.5, V_ww=1.0, V_wv=0.0, V_vv=1.0)
    cases = [
        (RegimeKind.OUTPUT_FEEDBACK, 0.1, None),
        (RegimeKind.NO_FEEDBACK, math.inf, None),
        (RegimeKind.NOISELESS_FEEDBACK, 0.0, None),
        (RegimeKind.STATE_ESTIMATE_FEEDBACK, 0.5, None),
        (RegimeKind.SEPARATION_OUTPUT_FEEDBACK, 0.1, m),
    ]
    for kind, nf, meas in cases:
        s = SystemSchedule(T=30, a=0.9, b=1.0, P=1.0, N=1.0, N_f=nf, V_xx0=1.0)
        summary = monte_carlo(s, kind, cfg, measurement=meas)
        assert summary.max_se_ratio() < 4.0, kind
        # per-symbol power at every transmitting step
        bound = 4.0 * math.sqrt(2.0 / cfg.trials) * 1.0
        dev = np.abs(summary.emp_zpow[:-1] - 1.0)
        assert np.nanmax(dev) < bound, kind
        assert math.isnan(summary.emp_zpow[-1])


def test_monte_carlo_noiseless_late_steps_near_fixed_point():
    s = SystemSchedule(T=60, a=0.5, b=1.0, P=1.0, N=1.0, N_f=0.0, V_xx0=1.0)
    summary = monte_carlo(s, RegimeKind.NOISELESS_FEEDBACK, McConfig(trials=50_000, seed=12))
    target = 8.0 / 7.0
    for i in range(-5, 0):
        assert abs(summary.emp_mse[i] - target) < 4.0 * summary.emp_se[i]


def test_monte_carlo_deterministic_bytes():
    s = SystemSchedule(T=20, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.1, V_xx0=1.0)
    cfg = McConfig(trials=5_000, seed=42)
    a = monte_carlo(s, RegimeKind.OUTPUT_FEEDBACK, cfg).to_csv()
    b = monte_carlo(s, RegimeKind.OUTPUT_FEEDBACK, cfg).to_csv()
    assert a == b


def test_no_feedback_identical_to_output_fb_summaries():
    s = SystemSchedule(T=20, a=0.9, b=1.0, P=1.0, N=1.0, N_f=math.inf, V_xx0=1.0)
    cfg = McConfig(trials=5_000, seed=44)
    assert (
        monte_carlo(s, RegimeKind.NO_FEEDBACK, cfg).to_csv()
        == monte_carlo(s, RegimeKind.OUTPUT_FEEDBACK, cfg).to_csv()
    )


@pytest.mark.parametrize(
    "kind, N_f",
    [
        (RegimeKind.OUTPUT_FEEDBACK, 0.5),
        (RegimeKind.NOISELESS_FEEDBACK, 0.0),
        (RegimeKind.STATE_ESTIMATE_FEEDBACK, 0.5),
    ],
)
def test_measurement_model_leaves_full_state_regimes_alone(kind, N_f):
    # only the separation regime measures through the model; with V_ww = 4
    # a model that shaped w would move emp_mse far off the prediction
    s = SystemSchedule(T=30, a=0.8, b=1.0, P=1.0, N=1.0, N_f=N_f, V_xx0=1.0)
    m = MeasurementModel(c=1.0, d=0.5, V_ww=4.0, V_wv=0.0, V_vv=1.0)
    cfg = McConfig(trials=300, seed=11)
    with_model = monte_carlo(s, kind, cfg, measurement=m)
    assert with_model.to_csv() == monte_carlo(s, kind, cfg).to_csv()
    assert build_plan(s, kind, measurement=m).measurement is None


def test_csv_round_trip_full_precision():
    s = SystemSchedule(T=7, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.1, V_xx0=1.0)
    summary = monte_carlo(s, RegimeKind.OUTPUT_FEEDBACK, McConfig(trials=500, seed=3))
    text = summary.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    cols = list(zip(*(line.split(",") for line in lines[1:])))
    parsed_mse = np.array([float(v) for v in cols[4]])
    assert np.array_equal(parsed_mse, summary.emp_mse)
    parsed_zpow = np.array([float(v) for v in cols[6]])
    assert np.array_equal(parsed_zpow[:-1], summary.emp_zpow[:-1])
    assert math.isnan(parsed_zpow[-1])


def test_format_float_round_trip():
    vals = [1 / 3, 8 / 7, 1e-300, 1.2345678901234567e17, float("nan"), float("inf")]
    for v in vals:
        back = float(format_float(v))
        assert (math.isnan(v) and math.isnan(back)) or back == v


def test_mc_mse_against_independent_prediction_path():
    # prediction handed to the summary is the regime's own recursion
    s = SystemSchedule(T=25, a=0.6, b=1.0, P=2.0, N=0.5, N_f=0.0, V_xx0=1.0)
    summary = monte_carlo(s, RegimeKind.NOISELESS_FEEDBACK, McConfig(trials=2_000, seed=8))
    assert np.array_equal(summary.pred.mse, predict_noiseless_fb(s).mse)
    assert np.array_equal(summary.delta_mse, summary.emp_mse - summary.pred.mse)


# ---------------------------------------------------------------------------
# Streamed rows: monte_carlo draws each step's rows inside the loop
# ---------------------------------------------------------------------------

T_STREAMED = 13
# N_f(t) mixing 0, finite and +inf steps (index 0 carries no transmission).
NF_MIXED = np.array([0.0, 0.0, 0.4, math.inf, 1.3, 0.0, math.inf, 0.7, 0.0, 2.0, math.inf, 0.1, 0.5])
NF_FINITE = np.where(np.isinf(NF_MIXED), 0.9, NF_MIXED)
STREAMED_CASES = [
    (RegimeKind.OUTPUT_FEEDBACK, NF_MIXED, None),
    (RegimeKind.NO_FEEDBACK, math.inf, None),
    (RegimeKind.NOISELESS_FEEDBACK, 0.0, None),
    (RegimeKind.STATE_ESTIMATE_FEEDBACK, NF_FINITE, None),
    (
        RegimeKind.SEPARATION_OUTPUT_FEEDBACK,
        NF_MIXED,
        MeasurementModel(c=0.8, d=0.6, V_ww=1.2, V_wv=0.5, V_vv=0.9),
    ),
]
STREAMED_IDS = [kind.value for kind, _, _ in STREAMED_CASES]
# 500 trials: one block, drawn inline; 20000: blocks of 2 steps, drawn ahead.
STREAMED_TRIALS = (500, 20_000)


def _streamed_case(nf):
    a = np.linspace(0.6, 1.1, T_STREAMED)
    return SystemSchedule(T=T_STREAMED, a=a, b=0.9, P=1.3, N=0.8, N_f=nf, V_xx0=1.1)


def _materialized_summary(s, kind, cfg, m):
    """(emp_mse, emp_se, emp_zpow) from the (T, M) reference streams."""
    rec = simulate._MomentRecorder()
    plan = build_plan(s, kind, measurement=m)
    streams = keyed_streams(s, cfg.trials, cfg.seed, m)
    run_closed_loop(plan, streams.x0.copy(), streams.rows, rec)
    mse, se = simulate._mean_se(rec.s2_err, rec.s4_err, cfg.trials)
    zpow = rec.s2_z / cfg.trials
    zpow[-1] = np.nan
    return mse, se, zpow


def _assert_same_summary(summary, ref):
    got = (summary.emp_mse, summary.emp_se, summary.emp_zpow)
    for g, r in zip(got, ref):
        np.testing.assert_array_equal(g, r)


@pytest.mark.parametrize("trials", STREAMED_TRIALS)
@pytest.mark.parametrize("kind, nf, m", STREAMED_CASES, ids=STREAMED_IDS)
def test_streamed_rows_match_materialized_streams(kind, nf, m, trials):
    s = _streamed_case(nf)
    cfg = McConfig(trials=trials, seed=606)
    summary = monte_carlo(s, kind, cfg, measurement=m)
    _assert_same_summary(summary, _materialized_summary(s, kind, cfg, m))


@pytest.mark.parametrize("kind, nf, m", STREAMED_CASES, ids=STREAMED_IDS)
def test_streamed_rows_are_the_keyed_reference_rows(kind, nf, m):
    # the slices the loop reads, block by block, join into rows with the
    # bytes of rows drawn whole under their (seed, stream, t) keys, whether
    # a block holds two whole steps, exactly one, the widest single slice,
    # or one of three slices of a step, the last of them shorter
    plan = build_plan(_streamed_case(nf), kind, measurement=m)
    width = simulate._BLOCK_ELEMENTS
    for trials in (width - 1, width, width + 1, 2 * width - 1, 3 * width + 7):
        cfg = McConfig(trials=trials, seed=609)
        rows = simulate._StreamedRows(plan.schedule, plan.measurement, cfg, None, 0)
        ref = keyed_streams(plan.schedule, trials, cfg.seed, plan.measurement)
        for t in range(T_STREAMED):
            # a slice's bytes are copied before the next one is asked for
            got = [[None if row is None else row.tobytes() for row in part] for part in rows.step(t)]
            assert len(got) == max(trials // width, 1), (trials, t)
            joined = [None if parts[0] is None else b"".join(parts) for parts in zip(*got)]
            (whole,) = ref.rows(t)
            assert joined == [None if row is None else row.tobytes() for row in whole], (trials, t)


@pytest.mark.parametrize("cpus, trials", [(1, 20_000), (None, 500)], ids=["one_cpu", "few_trials"])
def test_rows_drawn_inline_create_no_pool(monkeypatch, cpus, trials):
    kind, nf, m = STREAMED_CASES[-1]
    s = _streamed_case(nf)
    cfg = McConfig(trials=trials, seed=607)
    monkeypatch.setattr(simulate, "_pool", None)
    if cpus == 1:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    summary = monte_carlo(s, kind, cfg, measurement=m)
    assert simulate._pool is None
    _assert_same_summary(summary, _materialized_summary(s, kind, cfg, m))


@pytest.mark.parametrize("kind, nf, m", STREAMED_CASES, ids=STREAMED_IDS)
def test_many_helpers_and_fast_switching_keep_the_bytes(monkeypatch, kind, nf, m):
    # more helpers than CPUs and a tiny switch interval interleave the
    # helpers' draws and this thread's take-overs as much as possible,
    # every slot of the slab is reused several times, and each step's rows
    # are drawn in two slices, the second one shorter
    s = _streamed_case(nf)
    cfg = McConfig(trials=2 * simulate._BLOCK_ELEMENTS + 5, seed=608)
    monkeypatch.setattr(simulate, "_pool", None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        summary = monte_carlo(s, kind, cfg, measurement=m)
    finally:
        sys.setswitchinterval(interval)
        if simulate._pool is not None:
            simulate._pool.shutdown(wait=True)
    _assert_same_summary(summary, _materialized_summary(s, kind, cfg, m))


def test_monte_carlo_frees_its_rows_when_it_returns(monkeypatch):
    # with the cyclic collector off, a reference cycle through the run's
    # rows would keep them, and their slab, alive after the call
    runs = []

    class Tracked(simulate._StreamedRows):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(weakref.ref(self))

    monkeypatch.setattr(simulate, "_StreamedRows", Tracked)
    kind, nf, m = STREAMED_CASES[-1]
    enabled = gc.isenabled()
    gc.disable()
    try:
        monte_carlo(_streamed_case(nf), kind, McConfig(trials=8192, seed=5), measurement=m)
        assert len(runs) == 1
        assert runs[0]() is None
    finally:
        if enabled:
            gc.enable()


def test_helper_exception_comes_out_unchanged(monkeypatch):
    class Boom(Exception):
        pass

    boom = Boom("a helper failed")
    helper_raised = threading.Event()
    philox = simulate.Philox

    def failing_philox(key):
        if threading.current_thread() is not threading.main_thread():
            helper_raised.set()
            raise boom
        if int(key[1]) == (simulate._STREAM_W << 48) | 1:
            # block 0 is drawn on the calling thread: let a helper fail first
            helper_raised.wait(timeout=30)
        return philox(key=key)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(simulate, "Philox", failing_philox)
    s = _streamed_case(0.5)
    with pytest.raises(Boom) as info:
        monte_carlo(s, RegimeKind.OUTPUT_FEEDBACK, McConfig(trials=20_000, seed=1))
    assert info.value is boom
    assert helper_raised.is_set()


def _counted(counts: dict, key: str, fn):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def _count_checks(monkeypatch) -> dict:
    """{"schedules": schedules built, "measurements": measurement models
    built, "pairings": ``check_regime_consistency`` calls from every
    statecast module that imports it}, counted from now on.  Each build is
    the one check of that input's entries."""
    counts = {"schedules": 0, "measurements": 0, "pairings": 0}
    for cls, key in ((SystemSchedule, "schedules"), (MeasurementModel, "measurements")):
        monkeypatch.setattr(cls, "__post_init__", _counted(counts, key, cls.__post_init__))
    check = sys.modules["statecast.schemes"].check_regime_consistency
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("statecast") and getattr(mod, "check_regime_consistency", None) is check:
            monkeypatch.setattr(mod, "check_regime_consistency", _counted(counts, "pairings", check))
    return counts


def test_separation_monte_carlo_checks_each_input_once_per_stage(monkeypatch):
    # the schedule and the model checked themselves when built;
    # separation_total builds the filtered-estimate chain, and nothing
    # checks the model's entries again
    s = _streamed_case(0.5)
    small = SystemSchedule(T=8, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.1, V_xx0=1.0)
    m = MeasurementModel(c=0.8, d=0.6, V_ww=1.2, V_wv=0.5, V_vv=0.9)
    counts = _count_checks(monkeypatch)
    monte_carlo(s, RegimeKind.SEPARATION_OUTPUT_FEEDBACK, McConfig(trials=8, seed=3), measurement=m)
    assert counts == {"schedules": 1, "measurements": 0, "pairings": 1}
    exact_conditioning_oracle(small, RegimeKind.SEPARATION_OUTPUT_FEEDBACK, measurement=m)
    assert counts == {"schedules": 1, "measurements": 0, "pairings": 2}


_SEPARATION_INI = """
[schedule]
T = 8
a = 0.9
b = 1.0
P = 1.0
N = 1.0
N_f = 0.1
V_xx0 = 1.0

[measurement]
c = 0.8
d = 0.6
V_ww = 1.2
V_wv = 0.5
V_vv = 0.9

[experiment]
mode = simulate
regime = separation_output_feedback
trials = 8
seed = 3
output = out.csv
"""


@pytest.mark.parametrize(
    "argv, pairings",
    [(["run", "--set", "experiment.mode=oracle"], 1), (["compare"], 2)],
    ids=["oracle", "compare"],
)
def test_cli_separation_checks_the_model_once(tmp_path, monkeypatch, argv, pairings):
    # the model is built, and so checked, once by parse_config; oracle mode
    # leaves the pairing check to the oracle, and compare's two library
    # entry points each check their own inputs
    from statecast.cli import main

    ini = tmp_path / "sep.ini"
    ini.write_text(_SEPARATION_INI)
    counts = _count_checks(monkeypatch)
    assert main([argv[0], str(ini), *argv[1:], "--output", str(tmp_path / "out.csv")]) == 0
    assert counts == {"schedules": 2, "measurements": 1, "pairings": pairings}


@pytest.mark.parametrize("nf", [0.0, 0.5])
def test_output_feedback_paths_build_no_schedule(monkeypatch, nf):
    s = SystemSchedule(T=8, a=0.9, b=1.0, P=1.0, N=1.0, N_f=nf, V_xx0=1.0)
    kind = RegimeKind.OUTPUT_FEEDBACK
    cfg = McConfig(trials=8, seed=3)
    counts = _count_checks(monkeypatch)
    monte_carlo(s, kind, cfg)
    build_plan(s, kind)
    predict_output_fb(s)
    predict_noiseless_fb(s)
    predict_state_estimate_fb(s)
    exact_conditioning_oracle(s, kind)
    for check in STATIONARITY_CHECKS.values():
        check(s, "proof")
    assert counts == {"schedules": 0, "measurements": 0, "pairings": 3}


_THREAD_PROBE = textwrap.dedent(
    """
    import json, os, sys
    import numpy
    tasks = lambda: len(os.listdir("/proc/self/task"))
    before = tasks()
    import statecast
    imported = tasks()
    s = statecast.SystemSchedule(T=40, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=1.0)
    statecast.monte_carlo(s, statecast.RegimeKind.OUTPUT_FEEDBACK,
                          statecast.McConfig(trials=8192, seed=5))
    print(json.dumps({"before": before, "imported": imported, "after": tasks(),
                      "cpus": len(os.sched_getaffinity(0))}))
    """
)


def _probe(code: str) -> dict:
    """The JSON that ``code`` prints last, run in a fresh interpreter with
    numpy's BLAS pools capped at one thread."""
    env = dict(os.environ)
    caps = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env.update({var: "1" for var in caps})
    src = str(Path(simulate.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def thread_counts():
    """OS thread counts of a fresh interpreter around ``import statecast`` and
    one multi-block ``monte_carlo``, counting only statecast's own threads."""
    if not Path("/proc/self/task").is_dir() or not hasattr(os, "sched_getaffinity"):
        pytest.skip("needs /proc/self/task and os.sched_getaffinity")
    return _probe(_THREAD_PROBE)


def test_import_starts_no_thread(thread_counts):
    assert thread_counts["imported"] == thread_counts["before"]


def test_monte_carlo_threads_at_most_usable_cpus(thread_counts):
    assert thread_counts["after"] <= thread_counts["cpus"]


_FAULT_PROBE = textwrap.dedent(
    """
    import json, resource
    import statecast as sc
    m = sc.MeasurementModel(c=0.8, d=0.6, V_ww=1.2, V_wv=0.5, V_vv=0.9)
    cases = {
        "output_feedback": (sc.RegimeKind.OUTPUT_FEEDBACK, None),
        "state_estimate_feedback": (sc.RegimeKind.STATE_ESTIMATE_FEEDBACK, None),
        "separation_output_feedback": (sc.RegimeKind.SEPARATION_OUTPUT_FEEDBACK, m),
    }
    faults = {}
    for name, (kind, meas) in cases.items():
        # a warm-up call at each horizon, then a counted one, so that both
        # counts start from the same state of the allocator
        for T in (30, 120, 30, 120):
            s = sc.SystemSchedule(T=T, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=1.0)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            sc.monte_carlo(s, kind, sc.McConfig(trials=65536, seed=3), measurement=meas)
            faults[f"{name} {T}"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(json.dumps({"faults": faults, "page": resource.getpagesize()}))
    """
)


@pytest.fixture(scope="module")
def fault_counts():
    """Minor page faults of a warmed ``monte_carlo`` at 65536 trials and
    T = 30 and 120 in three regimes, counted by a fresh interpreter."""
    try:
        import resource  # noqa: F401
    except ImportError:
        pytest.skip("needs the resource module")
    return _probe(_FAULT_PROBE)


@pytest.mark.parametrize("regime", ["output_feedback", "state_estimate_feedback", "separation_output_feedback"])
def test_monte_carlo_page_faults_do_not_grow_with_the_horizon(fault_counts, regime):
    # the run allocates its (trials,) rows once, so four times the steps
    # take no more page faults than one more row of 65536 trials would
    row_pages = 65536 * 8 // fault_counts["page"]
    faults = fault_counts["faults"]
    assert faults[f"{regime} 120"] <= faults[f"{regime} 30"] + row_pages, faults


_RSS_PROBE = textwrap.dedent(
    """
    import json, resource
    import statecast as sc
    m = sc.MeasurementModel(c=0.8, d=0.6, V_ww=1.2, V_wv=0.5, V_vv=0.9)
    s = sc.SystemSchedule(T=20, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=1.0)
    kind = sc.RegimeKind.SEPARATION_OUTPUT_FEEDBACK
    # a narrow threaded run first, so that the helpers and every code path
    # exist before the peak is read
    sc.monte_carlo(s, kind, sc.McConfig(trials=8192, seed=1), measurement=m)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sc.monte_carlo(s, kind, sc.McConfig(trials=1 << 18, seed=2), measurement=m)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"kib": after - before}))
    """
)


def test_monte_carlo_holds_a_fixed_number_of_full_rows():
    # separation holds the most (trials,) rows: the loop's 9 (x, x(t+1),
    # xhat, z, y, y_f, a scratch row, the tracker and xb) and the
    # recorder's squares, plus a slab of fixed size for the noise, about
    # 12.5 rows of 2**18 trials in all; drawing whole steps ahead held 29
    if not sys.platform.startswith("linux"):
        pytest.skip("reads ru_maxrss in KiB, as Linux reports it")
    row_kib = (1 << 18) * 8 // 1024
    assert _probe(_RSS_PROBE)["kib"] <= 14 * row_kib
