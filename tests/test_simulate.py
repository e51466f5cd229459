import gc
import hashlib
import json
import math
import os
import queue
import subprocess
import sys
import textwrap
import threading
import time
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


@pytest.fixture(autouse=True)
def no_stuck_helpers(monkeypatch):
    """Give each test its own helper pool and, after the test, require a
    no-op submitted to it to finish within 10 s: a helper left waiting then
    fails the test that left it instead of hanging the whole run."""
    monkeypatch.setattr(simulate, "_pool", None)
    yield
    pool = simulate._pool
    if pool is not None:
        pool.submit(int).result(timeout=10)
        pool.shutdown(wait=True)


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
    # a leaf draws its slice of a row into its own buffer with the row's
    # generator, which the leaf after draws on from: slices drawn in trial
    # order hold the bytes of the row drawn whole
    seed, stream, t = 2**64 - 5, simulate._STREAM_NF, 11
    key = np.array([seed, (stream << 48) | t], dtype=np.uint64)
    expected = Generator(Philox(key=key)).standard_normal(m)
    buf = np.full((3, m), np.nan)
    row = buf[1]
    assert simulate._generator(seed, stream, t).standard_normal(out=row) is row
    assert row.tobytes() == expected.tobytes()
    assert np.isnan(buf[[0, 2]]).all()
    gen, mid = simulate._generator(seed, stream, t), m // 2
    left, right = np.empty(mid), np.empty(m - mid)
    gen.standard_normal(out=left)
    gen.standard_normal(out=right)
    assert left.tobytes() + right.tobytes() == expected.tobytes()


def test_mc_config_validation():
    with pytest.raises(ValidationError, match=r"^trials must be >= 1, got 0$"):
        McConfig(trials=0, seed=1)


@pytest.mark.parametrize(
    "trials, seed, message",
    [
        (1, -1, r"^seed must be an integer in \[0, 2\*\*64\), got -1$"),
        (1, 2**64, r"^seed must be an integer in \[0, 2\*\*64\), got 18446744073709551616$"),
        (1, 2**64 + 1, r"^seed must be an integer in \[0, 2\*\*64\), got 18446744073709551617$"),
        (1, np.int64(-3), r"^seed must be an integer in \[0, 2\*\*64\), got "),
        (1, 1.0, r"^seed must be an integer in \[0, 2\*\*64\), got 1.0$"),
        (1, True, r"^seed must be an integer in \[0, 2\*\*64\), got True$"),
        (2.0, 1, r"^trials must be an integer, got 2.0$"),
        (True, 1, r"^trials must be an integer, got True$"),
    ],
)
def test_mc_config_rejects_aliasing_seeds_and_non_integers(trials, seed, message):
    # the noise is keyed by the seed as one 64-bit word, so a seed outside
    # [0, 2**64) would draw another seed's noise
    with pytest.raises(ValidationError, match=message):
        McConfig(trials=trials, seed=seed)


def test_mc_config_accepts_the_64_bit_range_as_python_ints():
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7)):
        cfg = McConfig(trials=np.int32(3), seed=seed)
        assert (cfg.trials, cfg.seed) == (3, int(seed))
        assert type(cfg.trials) is int and type(cfg.seed) is int


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
# 500 trials: one leaf, run inline; 20000: two leaves of 10000 trials, run
# side by side on two or more CPUs.
STREAMED_TRIALS = (500, 20_000)


def _streamed_case(nf):
    a = np.linspace(0.6, 1.1, T_STREAMED)
    return SystemSchedule(T=T_STREAMED, a=a, b=0.9, P=1.3, N=0.8, N_f=nf, V_xx0=1.1)


def _materialized_summary(s, kind, cfg, m):
    """(emp_mse, emp_se, emp_zpow) from the (T, M) reference streams."""
    rec = simulate._MomentRecorder()
    plan = build_plan(s, kind, measurement=m)
    streams = keyed_streams(s, cfg.trials, cfg.seed, m)
    run_closed_loop(plan, streams.x0.copy(), streams.rows, rec, np.empty((8, cfg.trials)))
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


LEAF = simulate._LEAF
# Trial counts around the leaf size: one leaf a trial short of full, one
# full leaf, two leaves, three leaves at two depths, four leaves, and eight
# leaves of about 12500 trials.
LEAF_TRIALS = (LEAF - 1, LEAF, LEAF + 1, 2 * LEAF - 1, 3 * LEAF + 7, 100_003)
# (trials, leaf width) of runs split for the helpers: with one helper, two
# leaves of about 2048, 5000 and 10000 trials; with six, eight leaves of
# about 2500 and of about 8192 trials.
HELPER_SPLITS = [
    (trials, simulate._leaf_width(trials, helpers))
    for trials, helpers in ((4097, 1), (10_001, 1), (20_000, 1), (20_000, 6), (4 * LEAF + 5, 6))
]


@pytest.mark.parametrize("kind, nf, m", STREAMED_CASES, ids=STREAMED_IDS)
def test_streamed_rows_are_the_keyed_reference_rows(monkeypatch, kind, nf, m):
    # the rows each leaf reads, its leaves run in trial order on one thread,
    # join into rows with the bytes of rows drawn whole under their (seed,
    # stream, t) keys
    plan = build_plan(_streamed_case(nf), kind, measurement=m)
    read = []

    def reading_loop(plan, x0, rows, recorder, work):
        # a step's rows are read before the next step's are drawn
        read.append([x0.tobytes()] + [[None if r is None else r.tobytes() for r in rows(t)] for t in range(T_STREAMED)])
        recorder.start(T_STREAMED, len(x0))

    monkeypatch.setattr(simulate, "run_closed_loop", reading_loop)
    for trials, width in [(trials, LEAF) for trials in LEAF_TRIALS] + HELPER_SPLITS:
        seed = 609
        ref = keyed_streams(plan.schedule, trials, seed, plan.measurement)
        leaves = list(simulate._leaves(0, trials, width))
        assert [lo for lo, _ in leaves] == [0] + [hi for _, hi in leaves[:-1]], trials
        assert leaves[-1][1] == trials
        gens_in = None
        for lo, hi in leaves:
            assert 0 < hi - lo <= width
            gens_out = queue.SimpleQueue() if hi < trials else None
            sums = simulate._leaf(plan, seed, lo, hi, gens_in, gens_out, threading.Event())
            assert sums.shape == (3, T_STREAMED)
            whole = [ref.x0[lo:hi].tobytes()]
            whole += [[None if r is None else r[lo:hi].tobytes() for r in ref.rows(t)] for t in range(T_STREAMED)]
            assert read.pop() == whole, (trials, lo)
            assert gens_in is None or gens_in.empty()  # the leaf took every stage handed to it
            gens_in = gens_out


LEAF_SUM_CASES = [pytest.param(trials, LEAF, id=str(trials)) for trials in (*LEAF_TRIALS, 2**20 + 3)] + [
    pytest.param(trials, width, id=f"{trials}-{width}") for trials, width in HELPER_SPLITS
]


@pytest.mark.parametrize("trials, width", LEAF_SUM_CASES)
def test_leaf_sums_added_up_the_tree_are_np_sum_of_the_row(trials, width):
    # pins the order in which numpy sums a row, which monte_carlo's
    # combination of per-leaf sums mirrors
    rng = np.random.default_rng(trials)
    for row in (rng.standard_normal(trials), rng.standard_normal(trials) ** 2 * 1e3):
        total = simulate._tree_sum(0, trials, width, lambda lo, hi: np.sum(row[lo:hi]))
        assert total == np.sum(row), trials


ONE_LEAF_CASES = [pytest.param(trials, LEAF, id=str(trials)) for trials in (1, 500, LEAF)] + [
    pytest.param(width, width, id=f"{width}-{width}") for width in sorted({w for _, w in HELPER_SPLITS})
]


@pytest.mark.parametrize("trials, width", ONE_LEAF_CASES)
def test_up_to_a_leaf_of_trials_is_one_leaf(trials, width):
    assert list(simulate._leaves(0, trials, width)) == [(0, trials)]


# sha256 of the monte_carlo CSV of each streamed case at seed 4242, by trial
# count, computed when monte_carlo still ran whole (M,) rows: from 32767
# trials on, a run covers several leaves.
LEAF_DIGESTS = {
    4097: {
        "output_feedback": "c9ab70a46542cd6f43f2abce9e5baead0e7b083c6e73562604c5d240aea72d7e",
        "no_feedback": "e0131e22f95b42465b9afa52a3ea81de936fa90d39c3829b7f72ef08c51ceece",
        "noiseless_feedback": "2cdb6770efec4359d6ed337d685de97a0535cca3b2ff9bca583141fed4062c6c",
        "state_estimate_feedback": "1212af7f5697a3816cb15822c73e8a77128a05a6cf756597aefa6e743cee74a4",
        "separation_output_feedback": "c4c95f23568eb4f50ba57d9b9cbfb7f59cb2c3224e274184ee627b03818e032d",
    },
    32767: {
        "output_feedback": "871a411d45a72e53658548964ca79c28dfea61f6833ba44de0b3746aab53225f",
        "no_feedback": "4613e823fa3c560ea6a332773968dad82b695c5686f4edc4924c5e384f769328",
        "noiseless_feedback": "9e11ae68d1d6916bff5e40ab99ba468e36b6ed56fbc69bf0b8f6d291fd2a9998",
        "state_estimate_feedback": "e1a18de5c162ebcfb775d8dfa49d4e50b45e860c13349edff3e9b5d8e4c3a463",
        "separation_output_feedback": "f1e46ba2c619499250c038a87fde307893c8e96378af1d871c138604ff556174",
    },
    32769: {
        "output_feedback": "aba92cb9671f70dabd702d14123168cb1eacbf97783cb357359109650c8315a1",
        "no_feedback": "a6565170efba1030a5cf8d1b0a1d8500016136bcc9baed77de33ca29a02b7aef",
        "noiseless_feedback": "c63a0f00824f72b6550a429fe848e54247d42d38800e492095cb65c673674275",
        "state_estimate_feedback": "6bfd1861f14b05ca3c936fe4cb999ac99ca988e6707422e3136d8f96d7e4d1be",
        "separation_output_feedback": "22da342142b92298bc753eac5f3f3633a304dee1527067c679a0cc5795b93acf",
    },
    65537: {
        "output_feedback": "8462ee94db2dee9e5b1ddcf10faf73711f90c435f4be08262fccaa20d60c1167",
        "no_feedback": "b13058471b98d23dc1a254aea8bcf373f7bfb169ea6963e06bdbd25a11ad0e4a",
        "noiseless_feedback": "550697769b0917dac5faa260ff2ccf52d51b2c922e0076a2a5893ca3c3cba2b1",
        "state_estimate_feedback": "bb7545547a158e0dc2bce81127a8b49b1b0d894877775c7bf7914d3d06f1e322",
        "separation_output_feedback": "1a801c9f5fc7339f2c6218d3b107d16df21939a3545879f5c3435acb174305d1",
    },
    100003: {
        "output_feedback": "4a13fbdd411bdf2790f549b32c3cd5832a1cb10cbece8f23c8f3fd0ce07d2ddd",
        "no_feedback": "c82b5d8a61cee75bb8bcc45ead058d42cb7577f70f8d4f2cab2e49e4149274af",
        "noiseless_feedback": "7dd9dda7899daeb8364084003128ce03f42f961ccfbfb514363e300684b8da72",
        "state_estimate_feedback": "1f7ade2688799ffe749c86e4bc29d01b74c665eb032af6da8ed7a372b3a6d74d",
        "separation_output_feedback": "bdd0400dc12075c2f47653bc599cd4fda6237fdb3adb4351f0246896a7f2092b",
    },
    262144: {
        "output_feedback": "1e7bb8be960d4112ed4c44b2d7d37ddfcd54ff090d707e4672459518f949a284",
        "no_feedback": "08210d74c208b0f24f02f8792df892ea88ae64b060cd115c8d8a1792bedc06c8",
        "noiseless_feedback": "b5e5c8c62054249b34088da43e417def0f878bee3c2c90790608d0ad16c65c8d",
        "state_estimate_feedback": "7d8904fd7982c30e624f83655386caf4191c4e4a0dd20082b06387b7f7612dde",
        "separation_output_feedback": "f68ff2ec16b94ed89999ad4ab76ef0206c1fb56091b8b404aa391b0a85046acd",
    },
}


@pytest.mark.parametrize("trials", LEAF_DIGESTS)
def test_monte_carlo_bytes_over_many_leaves(trials):
    got = {}
    for kind, nf, m in STREAMED_CASES:
        csv = monte_carlo(_streamed_case(nf), kind, McConfig(trials=trials, seed=4242), measurement=m).to_csv()
        got[kind.value] = hashlib.sha256(csv.encode()).hexdigest()
    assert got == LEAF_DIGESTS[trials]


@pytest.mark.parametrize("cpus, trials", [(1, 20_000), (None, 500)], ids=["one_cpu", "few_trials"])
def test_rows_drawn_inline_create_no_pool(monkeypatch, cpus, trials):
    kind, nf, m = STREAMED_CASES[-1]
    s = _streamed_case(nf)
    cfg = McConfig(trials=trials, seed=607)
    if cpus == 1:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    summary = monte_carlo(s, kind, cfg, measurement=m)
    assert simulate._pool is None
    _assert_same_summary(summary, _materialized_summary(s, kind, cfg, m))


def _with_many_helpers(monkeypatch, s, kind, cfg, m):
    """``monte_carlo`` with six helpers and a tiny switch interval."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(7)), raising=False)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return monte_carlo(s, kind, cfg, measurement=m)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("kind, nf, m", STREAMED_CASES, ids=STREAMED_IDS)
def test_many_helpers_and_fast_switching_keep_the_bytes(monkeypatch, kind, nf, m):
    # more helpers than CPUs and a tiny switch interval interleave the
    # threads' leaves, each drawing a step's rows after the leaf before, as
    # much as possible: the run is eight leaves of about 8192 trials
    s = _streamed_case(nf)
    cfg = McConfig(trials=4 * LEAF + 5, seed=608)
    summary = _with_many_helpers(monkeypatch, s, kind, cfg, m)
    _assert_same_summary(summary, _materialized_summary(s, kind, cfg, m))


def test_helpers_queued_past_the_horizon_draw_each_rows_leaves_in_order(monkeypatch):
    # at T = 2 the leaves hand each row's generator on after a few numpy
    # calls, so the threads of the 16 leaves wait on one another most of
    # the time
    kind, _, m = STREAMED_CASES[-1]
    s = SystemSchedule(T=2, a=0.9, b=0.9, P=1.3, N=0.8, N_f=0.4, V_xx0=1.1)
    cfg = McConfig(trials=9 * LEAF + 5, seed=610)
    summary = _with_many_helpers(monkeypatch, s, kind, cfg, m)
    _assert_same_summary(summary, _materialized_summary(s, kind, cfg, m))


def test_monte_carlo_frees_its_rows_when_it_returns(monkeypatch):
    # with the cyclic collector off, a reference cycle through a leaf would
    # keep its recorder, and the rows the leaf drew, alive after the call
    recorders = []
    start = simulate._MomentRecorder.start

    def tracked(self, T, width):
        start(self, T, width)
        recorders.append(weakref.ref(self))

    monkeypatch.setattr(simulate._MomentRecorder, "start", tracked)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    kind, nf, m = STREAMED_CASES[-1]
    enabled = gc.isenabled()
    gc.disable()
    try:
        monte_carlo(_streamed_case(nf), kind, McConfig(trials=8192, seed=5), measurement=m)
        # the one helper lets go of its leaf before it runs the next job
        simulate._pool.submit(int).result(timeout=10)
        assert len(recorders) == 2
        assert all(ref() is None for ref in recorders)
    finally:
        if enabled:
            gc.enable()


class Boom(Exception):
    pass


class Halt(BaseException):
    pass


def _failing_rows(monkeypatch, fails, error):
    """Make each leaf's ``rows(t)`` raise ``error``, before it draws step t,
    on the calls for which ``fails(t)`` holds, and return ``error``."""
    loop = simulate.run_closed_loop

    def failing_loop(plan, x0, rows, recorder, work):
        def failing_rows(t):
            if fails(t):
                raise error
            return rows(t)

        loop(plan, x0, failing_rows, recorder, work)

    monkeypatch.setattr(simulate, "run_closed_loop", failing_loop)
    return error


def test_helper_exception_comes_out_unchanged(monkeypatch):
    # the calling thread runs leaf 0 and, once it has drawn x(0), waits
    # until the helper, on leaf 1, has failed on its first draw of a step
    helper_raised = threading.Event()

    def fails(t):
        if threading.current_thread() is not threading.main_thread():
            helper_raised.set()
            return True
        helper_raised.wait(timeout=30)
        return False

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    boom = _failing_rows(monkeypatch, fails, Boom("a leaf failed"))
    with pytest.raises(Boom) as info:
        monte_carlo(_streamed_case(0.5), RegimeKind.OUTPUT_FEEDBACK, McConfig(trials=20_000, seed=1))
    assert info.value is boom
    assert helper_raised.is_set()


def _six_helpers_waiting(monkeypatch, error):
    """Make the calling thread's leaf 0 of eight raise ``error`` on step 6,
    once each of six helpers has drawn step 5 of one of leaves 1..6 and so
    comes to wait for step 6 of the leaf before it, and return ``error``."""
    helpers, waiting = set(), threading.Event()

    def fails(t):
        if threading.current_thread() is not threading.main_thread():
            if t == 6:
                helpers.add(threading.get_ident())
                if len(helpers) == 6:
                    waiting.set()
            return False
        if t == 6:
            assert waiting.wait(timeout=10)
            time.sleep(0.2)  # for the last of them to come to wait
            return True
        return False

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(7)), raising=False)
    return _failing_rows(monkeypatch, fails, error)


def test_a_failing_leaf_stops_every_helper(monkeypatch):
    # the no_stuck_helpers fixture checks that none of the six helpers is
    # left waiting
    kind, nf, m = STREAMED_CASES[-1]
    s = _streamed_case(nf)
    cfg = McConfig(trials=4 * LEAF + 5, seed=611)
    with monkeypatch.context() as patch:
        boom = _six_helpers_waiting(patch, Boom("a leaf failed"))
        with pytest.raises(Boom) as info:
            monte_carlo(s, kind, cfg, measurement=m)
    assert info.value is boom
    assert len(list(simulate._leaves(0, cfg.trials, simulate._leaf_width(cfg.trials, 6)))) >= 7
    pool = simulate._pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(7)), raising=False)
    summary = monte_carlo(s, kind, cfg, measurement=m)
    assert simulate._pool is pool
    _assert_same_summary(summary, _materialized_summary(s, kind, cfg, m))


def test_a_base_exception_in_the_calling_threads_leaf_comes_out_unchanged(monkeypatch):
    # not an Exception: the leaf still hands its stop to the helpers' leaves,
    # and the no_stuck_helpers fixture checks that none is left waiting
    halt = _six_helpers_waiting(monkeypatch, Halt("interrupted"))
    with pytest.raises(Halt) as info:
        monte_carlo(_streamed_case(0.5), RegimeKind.OUTPUT_FEEDBACK, McConfig(trials=4 * LEAF + 5, seed=613))
    assert info.value is halt


def test_helpers_stop_when_the_calling_thread_leaves_early(monkeypatch):
    # the calling thread leaves once leaf 0 is done, instead of taking the
    # sums of leaf 1, which already holds every stage leaf 0 handed on: the
    # helper still stops at its next hand-off
    left, stopped = threading.Event(), threading.Event()
    tree_sum, loop = simulate._tree_sum, simulate.run_closed_loop

    def leaving(lo, hi, width, leaf):
        def leaf_0_only(lo, hi):
            if lo:
                raise Halt("left")
            return leaf(lo, hi)

        return tree_sum(lo, hi, width, leaf_0_only)

    def watching_loop(plan, x0, rows, recorder, work):
        def watched(t):
            if t == 5 and threading.current_thread() is not threading.main_thread():
                assert left.wait(timeout=10)
                try:
                    return rows(t)
                except simulate._Stopped:
                    stopped.set()
                    raise
            return rows(t)

        loop(plan, x0, watched, recorder, work)

    monkeypatch.setattr(simulate, "_tree_sum", leaving)
    monkeypatch.setattr(simulate, "run_closed_loop", watching_loop)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(Halt):
        monte_carlo(_streamed_case(0.5), RegimeKind.OUTPUT_FEEDBACK, McConfig(trials=20_000, seed=1))
    left.set()
    simulate._pool.submit(int).result(timeout=10)
    assert stopped.is_set()


def test_concurrent_runs_sharing_the_pool_keep_the_bytes(monkeypatch):
    # two runs at once, from two threads, queue their leaves to the same two
    # helpers; each gives the bytes of the same run done alone
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    cases = [(STREAMED_CASES[0], 614), (STREAMED_CASES[-1], 615)]
    run = lambda case, seed: monte_carlo(
        _streamed_case(case[1]), case[0], McConfig(trials=40_000, seed=seed), measurement=case[2]
    ).to_csv()
    alone = [run(*args) for args in cases]
    together = [None, None]

    def run_into(i):
        together[i] = run(*cases[i])

    threads = [threading.Thread(target=run_into, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert together == alone


def test_leaf_sums_in_flight_stay_bounded(monkeypatch):
    # each thread holds at most one leaf's sums, and the tree sum one per
    # level, so a 64-leaf run never has all its leaves' sums alive at once
    helpers, leaves = 6, 64
    alive, peak = [], [0]
    start = simulate._MomentRecorder.start

    def tracked(self, T, width):
        start(self, T, width)
        alive.append(weakref.ref(self.sums))
        peak[0] = max(peak[0], sum(ref() is not None for ref in alive))

    monkeypatch.setattr(simulate._MomentRecorder, "start", tracked)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(helpers + 1)), raising=False)
    s = SystemSchedule(T=3, a=0.9, b=0.9, P=1.3, N=0.8, N_f=0.4, V_xx0=1.1)
    monte_carlo(s, RegimeKind.OUTPUT_FEEDBACK, McConfig(trials=leaves * LEAF, seed=612))
    assert len(alive) == leaves
    assert peak[0] <= helpers + 1 + math.ceil(math.log2(leaves)), peak


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
    one multi-leaf ``monte_carlo``, counting only statecast's own threads."""
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
    s = sc.SystemSchedule(T=3, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=1.0)
    kind = sc.RegimeKind.SEPARATION_OUTPUT_FEEDBACK
    peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # a narrow threaded run first, so that the helpers and every code path
    # exist before the peak is read
    sc.monte_carlo(s, kind, sc.McConfig(trials=8192, seed=1), measurement=m)
    before = peak()
    rise = {}
    for trials in (1 << 16, 1 << 20):
        sc.monte_carlo(s, kind, sc.McConfig(trials=trials, seed=2), measurement=m)
        rise[trials] = peak() - before
    print(json.dumps({"kib": rise}))
    """
)


def test_monte_carlo_memory_does_not_grow_with_the_trials():
    # separation holds the most leaf-wide rows; 16 times the trials, 64
    # leaves instead of 4, may raise the peak by at most 2 MiB, where whole
    # (M,) rows would add about 79 MB
    if not sys.platform.startswith("linux"):
        pytest.skip("reads ru_maxrss in KiB, as Linux reports it")
    rise = _probe(_RSS_PROBE)["kib"]
    assert rise[str(1 << 20)] <= rise[str(1 << 16)] + 2048, rise
