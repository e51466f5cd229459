import math

import numpy as np
import pytest

from statecast import (
    McConfig,
    RegimeKind,
    SchemeState,
    StepIO,
    StepParams,
    SystemSchedule,
    ValidationError,
    build_plan,
    decoder_step,
    encoder_step_output_fb,
    predict_noiseless_fb,
    run_regime,
    sample_gaussian_streams,
    select_regime,
    validate_schedule,
)
from statecast.schemes import ArrayRecorder, run_closed_loop


def _params(**kw):
    defaults = dict(t=1, a=1.0, scale=1.0, K=0.25, rho=0.5)
    defaults.update(kw)
    return StepParams(**defaults)


def test_decoder_zero_gain_coasts():
    state = SchemeState(xhat=2.0, enc=0.0)
    xhat, state2 = decoder_step(state, y_t=10.0, p=_params(a=0.8, K=0.0))
    assert xhat == pytest.approx(0.8 * 2.0)
    assert state2.xhat == xhat


def test_decoder_hand_step():
    state = SchemeState(xhat=0.0, enc=0.0)
    xhat, _ = decoder_step(state, y_t=1.0, p=_params(a=1.0, K=0.25))
    assert xhat == 0.25


def test_encoder_zero_error_sends_nothing():
    state = SchemeState(xhat=0.0, enc=0.0)
    io = StepIO(x_t=0.0, n_t=0.3, n_f_t=0.1)
    z, _ = encoder_step_output_fb(state, io, _params())
    assert z == 0.0


def test_encoder_zero_variance_clamps_to_zero():
    state = SchemeState(xhat=0.0, enc=0.0)
    io = StepIO(x_t=1.7, n_t=0.3, n_f_t=0.1)
    z, _ = encoder_step_output_fb(state, io, _params(scale=0.0, K=0.0))
    assert z == 0.0


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


def test_select_regime_invariants():
    no_fb = SystemSchedule(T=3, a=1, b=1, P=1, N=1, N_f=math.inf, V_xx0=0)
    assert select_regime(no_fb) is RegimeKind.NO_FEEDBACK
    noiseless = SystemSchedule(T=3, a=1, b=1, P=1, N=1, N_f=0.0, V_xx0=0)
    assert select_regime(noiseless) is RegimeKind.NOISELESS_FEEDBACK
    noisy = SystemSchedule(T=3, a=1, b=1, P=1, N=1, N_f=0.5, V_xx0=0)
    assert select_regime(noisy) is RegimeKind.OUTPUT_FEEDBACK
    assert select_regime(noisy, "state_estimate") is RegimeKind.STATE_ESTIMATE_FEEDBACK


def test_output_fb_at_zero_feedback_noise_equals_noiseless_scheme():
    # shared noise streams; the two filter arrangements agree to rounding
    s = SystemSchedule(T=20, a=0.8, b=1.0, P=1.0, N=1.0, N_f=0.0, V_xx0=1.0)
    streams = sample_gaussian_streams(s, McConfig(trials=4, seed=99))
    for trial in range(4):
        one = streams.single(trial)
        r_out = run_regime(s, RegimeKind.OUTPUT_FEEDBACK, one)
        r_nl = run_regime(s, RegimeKind.NOISELESS_FEEDBACK, one)
        assert np.max(np.abs(r_out.z - r_nl.z)) <= 1e-12
        assert np.max(np.abs(r_out.xhat - r_nl.xhat)) <= 1e-12


@pytest.mark.parametrize(
    "kind", [RegimeKind.NOISELESS_FEEDBACK, RegimeKind.OUTPUT_FEEDBACK]
)
def test_zero_noise_transmitter_replicates_decoder_exactly(kind):
    # with N_f = 0 the fed-back output reveals n(t) exactly, so the tracker
    # s(t), recovered from z(t) = scale * (x(t) - s(t)), matches xhat(t)
    s = validate_schedule(
        SystemSchedule(T=15, a=0.8, b=1.0, P=1.0, N=1.0, N_f=0.0, V_xx0=1.0)
    )
    plan = build_plan(s, kind)
    streams = sample_gaussian_streams(s, McConfig(trials=1, seed=4)).single(0)
    rec = run_regime(s, kind, streams)
    for t in range(1, s.T):
        scale = plan.scale[t - 1]
        if scale == 0.0:
            continue
        s_t = rec.x[t - 1] - rec.z[t - 1] / scale
        assert s_t == pytest.approx(rec.xhat[t - 1], abs=1e-12)


def test_noiseless_plan_on_bounded_unstable_plant():
    # log2 1.3 < C = 0.5: bounded, although the open-loop variance overflows
    s = SystemSchedule(T=2000, a=1.3, b=1.0, P=1.0, N=1.0, N_f=0.0, V_xx0=1.0)
    plan = build_plan(s, RegimeKind.NOISELESS_FEEDBACK)
    pred = predict_noiseless_fb(s)
    for field in ("sigma2", "vbar", "mse"):
        assert np.array_equal(getattr(plan.prediction, field), getattr(pred, field))


def test_no_feedback_equals_output_fb_at_infinite_noise_bitwise():
    s = SystemSchedule(T=25, a=0.9, b=1.0, P=1.0, N=1.0, N_f=math.inf, V_xx0=1.0)
    streams = sample_gaussian_streams(s, McConfig(trials=3, seed=5))
    for trial in range(3):
        one = streams.single(trial)
        r1 = run_regime(s, RegimeKind.NO_FEEDBACK, one)
        r2 = run_regime(s, RegimeKind.OUTPUT_FEEDBACK, one)
        assert np.array_equal(r1.z, r2.z)
        assert np.array_equal(r1.xhat, r2.xhat)
        assert np.all(r1.y_f == 0.0)


def test_se_first_transmission_carries_the_initial_state():
    # xcheck(1) = x(1): recover it from z(1)
    s = validate_schedule(
        SystemSchedule(T=5, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=0.0)
    )
    plan = build_plan(s, RegimeKind.STATE_ESTIMATE_FEEDBACK)
    streams = sample_gaussian_streams(s, McConfig(trials=1, seed=8)).single(0)
    rec = run_regime(s, RegimeKind.STATE_ESTIMATE_FEEDBACK, streams)
    assert rec.z[0] / plan.scale[0] == pytest.approx(rec.x[0], abs=1e-14)


def test_se_feedback_carries_decoder_estimate():
    s = SystemSchedule(T=8, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=1.0)
    streams = sample_gaussian_streams(s, McConfig(trials=1, seed=13))
    rec = run_regime(s, RegimeKind.STATE_ESTIMATE_FEEDBACK, streams.single(0))
    n_f = streams.single(0).n_f
    for t in range(1, s.T):
        assert rec.y_f[t - 1] == pytest.approx(rec.xhat[t - 1] + n_f[t], abs=1e-14)


def test_near_noiseless_channel_tracks_plant():
    s = SystemSchedule(T=40, a=0.7, b=1.0, P=1.0, N=1e-12, N_f=0.0, V_xx0=1.0)
    streams = sample_gaussian_streams(s, McConfig(trials=1, seed=5)).single(0)
    rec = run_regime(s, RegimeKind.NOISELESS_FEEDBACK, streams)
    dev = np.abs(rec.xhat[1:] - 0.7 * rec.x[:-1])
    assert dev.max() < 1e-4


def test_run_regime_rejects_stream_length_mismatch():
    s = SystemSchedule(T=6, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.1, V_xx0=1.0)
    short = SystemSchedule(T=4, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.1, V_xx0=1.0)
    streams = sample_gaussian_streams(short, McConfig(trials=1, seed=1)).single(0)
    with pytest.raises(ValidationError, match="length"):
        run_regime(s, RegimeKind.OUTPUT_FEEDBACK, streams)


def test_channel_and_record_identities(rng):
    # y = z + n at transmitting steps; sq_err = (x - xhat)^2; tail slots zero
    s = SystemSchedule(T=10, a=0.9, b=1.0, P=1.0, N=0.7, N_f=0.2, V_xx0=1.0)
    streams = sample_gaussian_streams(s, McConfig(trials=1, seed=21)).single(0)
    rec = run_regime(s, RegimeKind.OUTPUT_FEEDBACK, streams)
    assert np.allclose(rec.y[: s.T - 1], rec.z[: s.T - 1] + streams.n[1:], atol=0)
    assert np.allclose(rec.sq_err, (rec.x - rec.xhat) ** 2, atol=0)
    assert rec.z[-1] == rec.y[-1] == rec.y_f[-1] == 0.0


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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trajectories(name):
    g = GOLDEN[name]
    s = SystemSchedule(**g["schedule"])
    streams = sample_gaussian_streams(s, McConfig(trials=3, seed=g["seed"]))
    rec = run_regime(s, g["kind"], streams.single(0))
    for field in ("x", "z", "y", "y_f", "xhat", "sq_err"):
        assert np.array_equal(getattr(rec, field), np.array(g[field])), field


def test_vectorized_engine_matches_per_trajectory_runs():
    # (trials,) array states reproduce independent scalar runs bitwise
    s = SystemSchedule(T=12, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.3, V_xx0=1.0)
    streams = sample_gaussian_streams(s, McConfig(trials=5, seed=31))
    plan = build_plan(s, RegimeKind.OUTPUT_FEEDBACK)
    vec = ArrayRecorder()
    run_closed_loop(plan, streams, vec)
    for trial in range(5):
        one = run_regime(s, RegimeKind.OUTPUT_FEEDBACK, streams.single(trial))
        assert np.array_equal(vec.xhat[:, trial], one.xhat)
        assert np.array_equal(vec.sq_err[:, trial], one.sq_err)


def test_transmission_orthogonality_noiseless_and_its_failure_when_noisy():
    # noiseless feedback: z(t) is uncorrelated with every past y(k)
    M = 20_000
    s = SystemSchedule(T=8, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.0, V_xx0=1.0)
    streams = sample_gaussian_streams(s, McConfig(trials=M, seed=71))
    rec = ArrayRecorder()
    run_closed_loop(build_plan(s, RegimeKind.NOISELESS_FEEDBACK), streams, rec)
    bound = 5.0 / math.sqrt(M)
    for t in range(2, s.T):  # rows t-1 hold step t
        for k in range(1, t):
            zc = rec.z[t - 1] - rec.z[t - 1].mean()
            yc = rec.y[k - 1] - rec.y[k - 1].mean()
            corr = float(np.mean(zc * yc) / (np.std(zc) * np.std(yc)))
            assert abs(corr) < bound, (t, k, corr)

    # noisy feedback: the adjacent-step cross-covariance is nonzero and
    # matches scale(t+1) * K(t) * N * N_f / (N + N_f)
    s2 = validate_schedule(
        SystemSchedule(T=8, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.4, V_xx0=1.0)
    )
    plan2 = build_plan(s2, RegimeKind.OUTPUT_FEEDBACK)
    streams2 = sample_gaussian_streams(s2, McConfig(trials=M, seed=72))
    rec2 = ArrayRecorder()
    run_closed_loop(plan2, streams2, rec2)
    for t in range(2, s2.T - 1):
        prod = rec2.z[t] * rec2.y[t - 1]
        emp = float(np.mean(prod))
        se = float(np.std(prod, ddof=1)) / math.sqrt(M)
        expect = plan2.scale[t] * plan2.K[t - 1] * 1.0 * 0.4 / 1.4
        assert abs(emp - expect) < 4.0 * se
        assert expect > 0.05
