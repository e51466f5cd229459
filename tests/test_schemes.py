import dataclasses
import math

import numpy as np
import pytest

from conftest import ArrayRecorder, Streams, keyed_streams
from statecast import (
    MeasurementModel,
    RegimeKind,
    SystemSchedule,
    ValidationError,
    build_plan,
    predict_noiseless_fb,
)
from statecast.schemes import run_closed_loop


def _loop(plan, streams):
    """The recorder of ``plan``'s closed loop over ``streams``: every signal
    is a (T, trials) array, one trajectory per column."""
    rec = ArrayRecorder()
    run_closed_loop(plan, streams.x0, streams.rows, rec)
    return rec


def _run(s, kind, streams, measurement=None):
    """``_loop`` over the plan of ``kind`` on ``s``."""
    return _loop(build_plan(s, kind, measurement=measurement), streams)


# One schedule per regime for the hand-set-gain checks below (T = 4, a = 0.8).
_HAND_N_F = {
    RegimeKind.OUTPUT_FEEDBACK: 0.5,
    RegimeKind.NO_FEEDBACK: math.inf,
    RegimeKind.NOISELESS_FEEDBACK: 0.0,
    RegimeKind.STATE_ESTIMATE_FEEDBACK: 0.5,
    RegimeKind.SEPARATION_OUTPUT_FEEDBACK: 0.5,
}


def _hand_plan(kind, **gains):
    """``kind``'s plan on its T = 4 hand schedule, with the plan's gain
    arrays replaced by ``gains``."""
    s = SystemSchedule(T=4, a=0.8, b=1.0, P=1.0, N=1.0, N_f=_HAND_N_F[kind], V_xx0=1.0)
    m = MeasurementModel(c=1.0, d=0.5, V_ww=1.0, V_wv=0.0, V_vv=1.0)
    plan = build_plan(s, kind, measurement=m)
    return dataclasses.replace(plan, **{k: np.array(v, dtype=float) for k, v in gains.items()})


def _hand_streams(kind, x0=1.0, w=(0.5, -0.3, 0.2, 0.1)):
    """Hand-built one-trial streams for ``kind``'s hand schedule."""
    noisy_fb = 0.0 < _HAND_N_F[kind] < math.inf
    col = lambda vals: np.array(vals, dtype=float).reshape(4, 1)
    return Streams(
        x0=np.array([x0]),
        w=col(w),
        n=col([0.0, 0.4, -0.7, 0.0]),
        n_f=col([0.0, 0.2, 0.3, 0.0] if noisy_fb else [0.0] * 4),
        v=col([0.0] * 4),
    )


def _hand_run(kind, x0=1.0, w=(0.5, -0.3, 0.2, 0.1), **gains):
    """One trajectory of ``kind`` over hand-built one-trial streams, with
    the plan's gain arrays replaced by ``gains``; returns its recorder."""
    return _loop(_hand_plan(kind, **gains), _hand_streams(kind, x0, w))


@pytest.mark.parametrize("kind", list(RegimeKind), ids=lambda kind: kind.value)
def test_closed_loop_asks_for_each_steps_rows_once_in_order(kind):
    # the contract monte_carlo's reused row slots rely on: step t's rows are
    # asked for once, after every earlier step's, and read only during
    # step t, so rows overwritten with NaN once the next step asks for its
    # own leave the trajectory unchanged
    streams = _hand_streams(kind)
    calls = []

    def rows(t):
        if calls:
            for row in streams.rows(calls[-1]):
                row[:] = math.nan
        calls.append(t)
        return streams.rows(t)

    plan = _hand_plan(kind)
    rec = ArrayRecorder()
    run_closed_loop(plan, streams.x0, rows, rec)
    assert calls == list(range(plan.schedule.T))
    ref = _loop(plan, _hand_streams(kind))
    for field in ("x", "z", "y", "y_f", "xhat", "sq_err"):
        assert np.array_equal(getattr(rec, field), getattr(ref, field)), field


def test_decoder_zero_gain_coasts():
    # K(2) = 0: xhat(3) = a xhat(2), whatever y(2) is
    for kind in RegimeKind:
        rec = _hand_run(kind, K=[0.25, 0.0, 0.3, 0.0])
        assert rec.xhat[1, 0] != 0.0 and rec.y[1, 0] != 0.0, kind
        assert rec.xhat[2, 0] == 0.8 * rec.xhat[1, 0], kind


def test_decoder_hand_step():
    # xhat(1) = 0, so xhat(2) = a * 0 + K(1) y(1) = K(1) y(1) exactly
    for kind in RegimeKind:
        rec = _hand_run(kind, K=[0.25, 0.5, 0.3, 0.0])
        assert rec.xhat[0, 0] == 0.0 and rec.y[0, 0] != 0.0, kind
        assert rec.xhat[1, 0] == 0.25 * rec.y[0, 0], kind


def test_encoder_zero_error_sends_nothing():
    # x(1) = a x(0) + b w(0) = 0 equals the encoder's tracker s(1) = 0
    # (and the pre-filter's estimate, with v = 0), so z(1) = 0
    for kind in RegimeKind:
        rec = _hand_run(kind, x0=0.0, w=(0.0, -0.3, 0.2, 0.1))
        assert rec.x[0, 0] == 0.0, kind
        assert rec.z[0, 0] == 0.0, kind


def test_encoder_zero_variance_clamps_to_zero():
    # scale = 0 (the gain for a zero transmit-side variance) sends nothing,
    # although x(t) is far from the tracker
    for kind in RegimeKind:
        rec = _hand_run(kind, x0=1.7, scale=[0.0] * 4, K=[0.0] * 4)
        assert np.all(rec.x[:, 0] != 0.0), kind
        assert np.all(rec.z == 0.0), kind


def test_regime_schedule_consistency_enforced():
    from statecast import check_regime_consistency

    finite = SystemSchedule(T=4, a=0.9, b=1, P=1, N=1, N_f=0.5, V_xx0=1)
    inf = SystemSchedule(T=4, a=0.9, b=1, P=1, N=1, N_f=math.inf, V_xx0=1)
    zero = SystemSchedule(T=4, a=0.9, b=1, P=1, N=1, N_f=0.0, V_xx0=1)
    with pytest.raises(ValidationError, match="no-feedback"):
        check_regime_consistency(finite, RegimeKind.NO_FEEDBACK)
    with pytest.raises(ValidationError, match="noiseless"):
        check_regime_consistency(finite, RegimeKind.NOISELESS_FEEDBACK)
    with pytest.raises(ValidationError, match="state-estimate"):
        build_plan(inf, RegimeKind.STATE_ESTIMATE_FEEDBACK)
    # output feedback accepts any N_f, including both limits
    for s in (finite, inf, zero):
        check_regime_consistency(s, RegimeKind.OUTPUT_FEEDBACK)


def test_output_fb_at_zero_feedback_noise_equals_noiseless_scheme():
    # shared noise streams; the two filter arrangements agree to rounding
    s = SystemSchedule(T=20, a=0.8, b=1.0, P=1.0, N=1.0, N_f=0.0, V_xx0=1.0)
    streams = keyed_streams(s, 4, 99)
    r_out = _run(s, RegimeKind.OUTPUT_FEEDBACK, streams)
    r_nl = _run(s, RegimeKind.NOISELESS_FEEDBACK, streams)
    assert np.max(np.abs(r_out.z - r_nl.z)) <= 1e-12
    assert np.max(np.abs(r_out.xhat - r_nl.xhat)) <= 1e-12


@pytest.mark.parametrize(
    "kind", [RegimeKind.NOISELESS_FEEDBACK, RegimeKind.OUTPUT_FEEDBACK]
)
def test_zero_noise_transmitter_replicates_decoder_exactly(kind):
    # with N_f = 0 the fed-back output reveals n(t) exactly, so the tracker
    # s(t), recovered from z(t) = scale * (x(t) - s(t)), matches xhat(t)
    s = SystemSchedule(T=15, a=0.8, b=1.0, P=1.0, N=1.0, N_f=0.0, V_xx0=1.0)
    plan = build_plan(s, kind)
    streams = keyed_streams(s, 1, 4)
    rec = _run(s, kind, streams)
    for t in range(1, s.T):
        scale = plan.scale[t - 1]
        if scale == 0.0:
            continue
        s_t = rec.x[t - 1, 0] - rec.z[t - 1, 0] / scale
        assert s_t == pytest.approx(rec.xhat[t - 1, 0], abs=1e-12)


def test_noiseless_plan_on_bounded_unstable_plant():
    # log2 1.3 < C = 0.5: bounded, although the open-loop variance overflows
    s = SystemSchedule(T=2000, a=1.3, b=1.0, P=1.0, N=1.0, N_f=0.0, V_xx0=1.0)
    plan = build_plan(s, RegimeKind.NOISELESS_FEEDBACK)
    pred = predict_noiseless_fb(s)
    for field in ("sigma2", "vbar", "mse"):
        assert np.array_equal(getattr(plan.prediction, field), getattr(pred, field))


def test_no_feedback_equals_output_fb_at_infinite_noise_bitwise():
    s = SystemSchedule(T=25, a=0.9, b=1.0, P=1.0, N=1.0, N_f=math.inf, V_xx0=1.0)
    streams = keyed_streams(s, 3, 5)
    r1 = _run(s, RegimeKind.NO_FEEDBACK, streams)
    r2 = _run(s, RegimeKind.OUTPUT_FEEDBACK, streams)
    assert np.array_equal(r1.z, r2.z)
    assert np.array_equal(r1.xhat, r2.xhat)
    assert np.all(r1.y_f == 0.0)


def test_se_first_transmission_carries_the_initial_state():
    # xcheck(1) = x(1): recover it from z(1)
    s = SystemSchedule(T=5, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=0.0)
    plan = build_plan(s, RegimeKind.STATE_ESTIMATE_FEEDBACK)
    streams = keyed_streams(s, 1, 8)
    rec = _run(s, RegimeKind.STATE_ESTIMATE_FEEDBACK, streams)
    assert rec.z[0, 0] / plan.scale[0] == pytest.approx(rec.x[0, 0], abs=1e-14)


def test_se_feedback_carries_decoder_estimate():
    s = SystemSchedule(T=8, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=1.0)
    streams = keyed_streams(s, 1, 13)
    rec = _run(s, RegimeKind.STATE_ESTIMATE_FEEDBACK, streams)
    for t in range(1, s.T):
        expect = rec.xhat[t - 1, 0] + streams.n_f[t, 0]
        assert rec.y_f[t - 1, 0] == pytest.approx(expect, abs=1e-14)


def test_near_noiseless_channel_tracks_plant():
    s = SystemSchedule(T=40, a=0.7, b=1.0, P=1.0, N=1e-12, N_f=0.0, V_xx0=1.0)
    streams = keyed_streams(s, 1, 5)
    rec = _run(s, RegimeKind.NOISELESS_FEEDBACK, streams)
    dev = np.abs(rec.xhat[1:] - 0.7 * rec.x[:-1])
    assert dev.max() < 1e-4


def test_channel_and_record_identities(rng):
    # y = z + n at transmitting steps; sq_err = (x - xhat)^2; tail slots zero
    s = SystemSchedule(T=10, a=0.9, b=1.0, P=1.0, N=0.7, N_f=0.2, V_xx0=1.0)
    streams = keyed_streams(s, 1, 21)
    rec = _run(s, RegimeKind.OUTPUT_FEEDBACK, streams)
    assert np.allclose(rec.y[: s.T - 1], rec.z[: s.T - 1] + streams.n[1:], atol=0)
    assert np.allclose(rec.sq_err, (rec.x - rec.xhat) ** 2, atol=0)
    assert rec.z[-1, 0] == rec.y[-1, 0] == rec.y_f[-1, 0] == 0.0


# ---------------------------------------------------------------------------
# pinned regression trajectories (values generated once from the engine after
# cross-checking its ensemble statistics against the exact-conditioning oracle)
# ---------------------------------------------------------------------------

GOLDEN = {
    "output_fb": {
        "schedule": dict(T=6, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.1, V_xx0=1.0),
        "kind": RegimeKind.OUTPUT_FEEDBACK,
        "seed": 12345,
        "x": [2.6483860276733155, 3.3086285763236702, 2.1626462888087783, 3.375066925452824, 2.916851613489475, 3.091236275367864],
        "z": [1.9685298313723611, 1.6306741837349918, 0.19144437826049931, 1.2776095722523229, 1.2406656592721783, 0.0],
        "y": [1.9095008353449514, 1.3494027090124268, 0.2849297945575234, -0.2854312921721798, 2.2363623885395367, 0.0],
        "y_f": [1.9519683812970499, 1.4340361812284406, 0.0075097275396553975, -0.5742277929716655, 2.7070547884779166, 0.0],
        "xhat": [0.0, 1.156036786033688, 1.8321027709484488, 1.813945993096926, 1.46803163254581, 2.607740248836567],
        "sq_err": [7.013948551575243, 4.63365141562383, 0.10925901719948199, 2.4370985654397486, 2.099079337181602, 0.23376840767155252],
    },
    "noiseless": {
        "schedule": dict(T=6, a=0.5, b=1.0, P=1.0, N=1.0, N_f=0.0, V_xx0=1.0),
        "kind": RegimeKind.NOISELESS_FEEDBACK,
        "seed": 321,
        "x": [-1.3898888815355703, -0.935790098270544, -1.1363379549132206, -0.1679866455394609, 1.3091109813749593, -0.5193058654050474],
        "z": [-1.243154408113875, -0.5431550128626015, -0.6641334449759566, 0.424769084465877, 1.8891261470202603, 0.0],
        "y": [-1.2584253803597962, -0.9298297962348712, -1.530005893517516, -1.49431930909808, 2.3201906192854413, 0.0],
        "y_f": [-1.2584253803597962, -0.9298297962348712, -1.530005893517516, -1.49431930909808, 2.3201906192854413, 0.0],
        "xhat": [0.0, -0.35174058688694165, -0.4258296168872311, -0.6221254696430583, -0.7104729312594589, 0.2648676571607418],
        "sq_err": [1.9317911030161987, 0.3411138317474247, 0.5048220984044538, 0.20624207155819813, 4.0787191801717455, 0.6149281134932383],
    },
    "state_estimate": {
        "schedule": dict(T=6, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=1.0),
        "kind": RegimeKind.STATE_ESTIMATE_FEEDBACK,
        "seed": 777,
        "x": [0.304331538616847, -0.5690546093421734, -1.7858749061502064, -2.274260526697158, -1.8277358372156483, -2.876958419429057],
        "z": [0.22620785117229578, -0.6039461943619697, -1.2311528359660364, -0.7235123744340983, -0.26765016063347824, 0.0],
        "y": [-0.380853835529513, -1.3977085691854008, -0.2694043426604523, 0.9351411339203859, 0.4963291343136569, 0.0],
        "y_f": [0.11016003669449087, -0.21376765183895297, -1.386355986275945, -1.0544480981956679, 0.8372015470398712, 0.0],
        "xhat": [0.0, -0.23057389440450507, -0.9427714129987712, -0.9920555634228921, -0.38516851676568853, -0.0747174178225426],
        "sq_err": [0.09261768539689742, 0.11456919438471513, 0.7108235001641521, 1.6440495678451614, 2.0810004740301773, 7.852554631084681],
    },
    "no_feedback": {
        "schedule": dict(T=6, a=0.9, b=1.0, P=1.0, N=1.0, N_f=math.inf, V_xx0=1.0),
        "kind": RegimeKind.NO_FEEDBACK,
        "seed": 4242,
        "x": [1.385420377680914, 1.7002173743644509, 2.608211946538738, 2.171015409647589, 2.1364620807867296, 1.791169658037829],
        "z": [1.0297748568217615, 0.9211226584616766, 1.3828989776058562, 0.46956541448435646, 0.37457427503524254, 0.0],
        "y": [0.15235345695669256, 1.3616805386643105, 1.6798508035626751, 1.5614763521630068, -0.16045248501875475, 0.0],
        "y_f": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "xhat": [0.0, 0.09223677594753159, 0.7993157105717124, 1.5735285030026598, 2.204456106639646, 1.9031278251194557],
        "sq_err": [1.9193896228935263, 2.585601604885234, 3.272105592495673, 0.3569906036121262, 0.004623187551687059, 0.012534631176277454],
    },
    "separation": {
        "schedule": dict(T=6, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.3, V_xx0=1.0),
        "measurement": dict(c=1.0, d=0.5, V_ww=1.0, V_wv=0.4, V_vv=1.0),
        "kind": RegimeKind.SEPARATION_OUTPUT_FEEDBACK,
        "seed": 2468,
        "x": [-0.9964745134842482, -0.7402483108396904, -0.796069101540215, -0.7101071464011187, -0.9627557254229293, -0.8736388636827529],
        "z": [-0.4072581029644312, -0.729358324163969, -0.5497817960663892, -0.23768087049214634, 0.06518450542551735, 0.0],
        "y": [0.5378410146707501, -0.173310600832299, -1.0317365757872892, -1.7583591953757558, 0.10036149004648505, 0.0],
        "y_f": [0.04791315118607159, 0.3017661443959811, -1.272143045598312, -1.3876735419445945, -0.32470917128058807, 0.0],
        "xhat": [0.0, 0.2788694037541006, 0.1670355411963228, -0.3361563650090207, -1.1234045216279598, -0.9643815483097976],
        "sq_err": [0.9929614560236691, 1.0386009161988718, 0.9275705528606742, 0.13983918690376068, 0.025808035722125415, 0.008234234813323296],
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trajectories(name):
    g = GOLDEN[name]
    s = SystemSchedule(**g["schedule"])
    m = MeasurementModel(**g["measurement"]) if "measurement" in g else None
    streams = keyed_streams(s, 3, g["seed"], m)
    rec = _run(s, g["kind"], streams, measurement=m)
    for field in ("x", "z", "y", "y_f", "xhat", "sq_err"):
        assert np.array_equal(getattr(rec, field)[:, 0], np.array(g[field])), field


def test_vectorized_engine_matches_per_trajectory_runs():
    # a width-5 run reproduces five independent width-1 runs bitwise
    s = SystemSchedule(T=12, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.3, V_xx0=1.0)
    streams = keyed_streams(s, 5, 31)
    vec = _run(s, RegimeKind.OUTPUT_FEEDBACK, streams)
    for trial in range(5):
        one = _run(s, RegimeKind.OUTPUT_FEEDBACK, streams.column(trial))
        assert np.array_equal(vec.xhat[:, trial : trial + 1], one.xhat)
        assert np.array_equal(vec.sq_err[:, trial : trial + 1], one.sq_err)


def test_transmission_orthogonality_noiseless_and_its_failure_when_noisy():
    # noiseless feedback: z(t) is uncorrelated with every past y(k)
    M = 20_000
    s = SystemSchedule(T=8, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.0, V_xx0=1.0)
    streams = keyed_streams(s, M, 71)
    rec = _run(s, RegimeKind.NOISELESS_FEEDBACK, streams)
    bound = 5.0 / math.sqrt(M)
    for t in range(2, s.T):  # rows t-1 hold step t
        for k in range(1, t):
            zc = rec.z[t - 1] - rec.z[t - 1].mean()
            yc = rec.y[k - 1] - rec.y[k - 1].mean()
            corr = float(np.mean(zc * yc) / (np.std(zc) * np.std(yc)))
            assert abs(corr) < bound, (t, k, corr)

    # noisy feedback: the adjacent-step cross-covariance is nonzero and
    # matches scale(t+1) * K(t) * N * N_f / (N + N_f)
    s2 = SystemSchedule(T=8, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.4, V_xx0=1.0)
    plan2 = build_plan(s2, RegimeKind.OUTPUT_FEEDBACK)
    streams2 = keyed_streams(s2, M, 72)
    rec2 = _loop(plan2, streams2)
    for t in range(2, s2.T - 1):
        prod = rec2.z[t] * rec2.y[t - 1]
        emp = float(np.mean(prod))
        se = float(np.std(prod, ddof=1)) / math.sqrt(M)
        expect = plan2.scale[t] * plan2.K[t - 1] * 1.0 * 0.4 / 1.4
        assert abs(emp - expect) < 4.0 * se
        assert expect > 0.05
