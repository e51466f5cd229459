import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecast import (
    McConfig,
    MeasurementModel,
    RegimeKind,
    SystemSchedule,
    ValidationError,
    build_plan,
    check_output_fb,
    gains,
    kalman_prefilter,
    monte_carlo,
    predict_noiseless_fb,
    predict_output_fb,
    predict_separation,
    predict_state_estimate_fb,
    solve_state_estimate_fp,
)
from statecast.model import constant_values
from statecast.recursions import nhat_variance, ntilde_variance, se_step

from conftest import random_measurement, random_schedule


# ---------------------------------------------------------------------------
# gains
# ---------------------------------------------------------------------------


def test_gains_zero_pole_kills_decoder_gain():
    g = gains(a=0.0, P=1.0, N=1.0, sigma2=4.0)
    assert g.K == 0.0
    assert g.scale == 0.5  # sqrt(P)/sigma: the encoder still transmits


def test_gains_hand_evaluation():
    # closed form: K = a*sigma*sqrt(P)/(P+N), scale = sqrt(P)/sigma
    g = gains(a=1.0, P=1.0, N=1.0, sigma2=1.0)
    assert g.K == pytest.approx(0.5, abs=0)
    assert g.scale == pytest.approx(1.0, abs=0)


def test_gains_zero_variance_degeneracy():
    g = gains(a=1.0, P=1.0, N=1.0, sigma2=0.0)
    assert g.K == 0.0
    assert g.scale == 0.0


def test_gains_rejects_negative_variance():
    with pytest.raises(ValidationError):
        gains(1.0, 1.0, 1.0, -1e-9)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(-3, 3),
    P=st.floats(0.01, 10),
    N=st.floats(0.01, 10),
    sigma2=st.floats(0, 100),
)
def test_gains_identities(a, P, N, sigma2):
    g = gains(a, P, N, sigma2)
    assert g.K == a * (math.sqrt(sigma2) * math.sqrt(P) / (P + N))
    if sigma2 > 0:
        assert g.scale * math.sqrt(sigma2) == pytest.approx(math.sqrt(P), rel=1e-14)


def test_noise_split_variances_sum_to_N():
    for N_f in (0.0, 0.3, 5.0, math.inf):
        assert nhat_variance(2.0, N_f) + ntilde_variance(2.0, N_f) == pytest.approx(2.0)
    assert nhat_variance(2.0, math.inf) == 0.0
    assert ntilde_variance(2.0, 0.0) == 0.0


# ---------------------------------------------------------------------------
# output-feedback prediction
# ---------------------------------------------------------------------------


def test_output_fb_with_zero_feedback_noise_matches_noiseless(rng):
    for _ in range(20):
        s = random_schedule(rng, nf="zero", time_varying=bool(rng.integers(2)))
        po = predict_output_fb(s)
        pn = predict_noiseless_fb(s)
        assert np.max(np.abs(po.sigma2 - pn.sigma2)) <= 1e-10
        assert np.max(np.abs(po.mse - pn.mse)) <= 1e-10
        assert np.all(po.vbar == 0.0)


def _reference_2x2(s):
    """sigma2 of output feedback from the 2x2 covariance of (s, x), written
    out: A C A' plus the drive K^2 N^2/(N+N_f) in the (0,0) slot (zero
    without feedback) and b^2 in the (1,1) slot, carried as a symmetric
    covariance (one off-diagonal entry).  Stops at the first sigma2 that
    cancels below zero."""
    vss, vsx, vxx = 0.0, 0.0, s.a[0] ** 2 * s.V_xx0 + s.b[0] ** 2
    sig = [vss - 2.0 * vsx + vxx]
    for t in range(1, s.T):
        a, b, P, N, N_f = s.a[t], s.b[t], s.P[t], s.N[t], s.N_f[t]
        K = a * (math.sqrt(sig[-1]) * math.sqrt(P) / (P + N))
        A = np.array([[a * N / (P + N), a * P / (P + N)], [0.0, a]])
        m = A @ np.array([[vss, vsx], [vsx, vxx]]) @ A.T
        vss, vsx, vxx = m[0, 0] + K * K * (N * N / (N + N_f)), m[0, 1], m[1, 1] + b * b
        sig.append(vss - 2.0 * vsx + vxx)
        if not sig[-1] >= 0.0:
            break
    return np.array(sig)


def test_output_fb_without_feedback_matches_zero_drive_reference_exactly(rng):
    for _ in range(10):
        s = random_schedule(rng, nf="inf", time_varying=bool(rng.integers(2)))
        po = predict_output_fb(s)
        assert np.array_equal(po.sigma2, _reference_2x2(s))


def test_output_fb_matches_2x2_reference_exactly(rng):
    # |a| up to 1.6 in the unstable half: a schedule whose sigma2 cancels
    # below zero raises at that step, every other one returns the same bits
    outcomes = set()
    for nf in ("zero", "finite", "inf", "mixed"):
        for i in range(60):
            stable = i % 2 == 0
            T = int(rng.integers(2, 40 if stable else 150))
            s = random_schedule(
                rng, T=T, nf="finite" if nf == "mixed" else nf, stable=stable,
                time_varying=bool(rng.integers(2)),
            )
            if nf == "mixed":  # 0, finite and +inf steps in one schedule
                s = replace(s, N_f=rng.choice([0.0, 0.4, 3.0, math.inf], size=T))
            want = _reference_2x2(s)
            if len(want) < T or not want[-1] >= 0.0:
                with pytest.raises(ValidationError, match=f"at step {len(want) - 1} is not"):
                    predict_output_fb(s)
                outcomes.add("raised")
            else:
                assert np.array_equal(predict_output_fb(s).sigma2, want), nf
                outcomes.add("returned")
    assert outcomes == {"raised", "returned"}


def test_output_fb_hand_matrix_case():
    # A = [[0.5, 0.5], [0, 1]] acting on diag(0, 1) with K = 0.5 and no drive
    # at N_f = +inf gives the covariance [[0.25, 0.5], [0.5, 1]] of (s, x)
    s = SystemSchedule(T=2, a=1.0, b=0.0, P=1.0, N=1.0, N_f=math.inf, V_xx0=1.0)
    p = predict_output_fb(s)
    assert p.sigma2[0] == 1.0
    assert p.sigma2[1] == 0.25
    assert p.vbar[1] == 0.25  # K^2 N


# The only points of the grid below that may return a prediction; every
# other point must raise ValidationError.
_MAY_RETURN = {(0.0, 1.2, 200), (0.0, 2.0, 200), (0.5, 1.2, 200), (math.inf, 1.2, 200)}


def test_output_fb_unstable_plant_raises_or_returns_no_nan():
    for N_f in (0.0, 0.5, math.inf):
        for a in (1.2, 1.5, 2.0, 10.0):
            for T in (200, 2000):
                s = SystemSchedule(T=T, a=a, b=1.0, P=1.0, N=1.0, N_f=N_f, V_xx0=1.0)
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        p = predict_output_fb(s)
                except ValidationError as exc:
                    assert "\n" not in str(exc)
                    continue
                assert (N_f, a, T) in _MAY_RETURN, (N_f, a, T)
                for series in (p.sigma2, p.vbar, p.mse):
                    assert not np.isnan(series).any(), (N_f, a, T)


def test_output_fb_covariance_guard_names_the_step():
    for a, N_f, T in (
        # N_f = 0 at a = 2 > 2^C: the covariance of (s, x) overflows to inf and NaN
        (2.0, 0.0, 2000),
        # a = 1.2: the entries stay finite, but sigma2 = V_ss - 2 V_sx + V_xx
        # overflows to -inf
        (1.2, 0.5, 2000),
        # a = 1.5: sigma2 cancels to a finite negative value (-4096), in the
        # last step at T = 54 and mid-run at T = 200
        (1.5, 0.5, 54),
        (1.5, 0.5, 200),
    ):
        s = SystemSchedule(T=T, a=a, b=1.0, P=1.0, N=1.0, N_f=N_f, V_xx0=1.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                ValidationError, match=r"covariance of \(s, x\) at step \d+ is not"
            ):
                predict_output_fb(s)


def test_output_fb_memoryless_plant():
    s = SystemSchedule(T=6, a=0.0, b=1.5, P=1, N=1, N_f=0.3, V_xx0=2.0)
    p = predict_output_fb(s)
    assert np.allclose(p.sigma2, 1.5**2)
    assert np.all(p.vbar == 0.0)


def test_output_fb_converges_to_solver_fixed_point():
    s = SystemSchedule(T=50, a=0.9, b=1, P=1, N=1, N_f=0.1, V_xx0=1)
    p = predict_output_fb(s)
    rep = check_output_fb(*constant_values(s))
    assert rep.bounded
    assert math.isfinite(p.sigma2[-1])
    # 50 steps of a contraction get within ~1e-4; full agreement tested at 1e4 steps
    assert p.sigma2[-1] == pytest.approx(rep.fixed_point[0], abs=1e-3)


def test_sigma2_cov_identity_matches_direct_recursion(rng):
    # internal consistency: V_ss - 2V_sx + V_xx equals the scalar recursion
    for _ in range(10):
        s = random_schedule(rng, nf="finite", time_varying=True)
        p = predict_output_fb(s)
        sig = s.a[0] ** 2 * s.V_xx0 + s.b[0] ** 2
        direct = [sig]
        for t in range(1, s.T):
            a, b, P, N, N_f = s.a[t], s.b[t], s.P[t], s.N[t], s.N_f[t]
            K = gains(a, P, N, sig).K
            sig = (a * N / (P + N)) ** 2 * sig + K * K * nhat_variance(N, N_f) + b * b
            direct.append(sig)
        assert np.max(np.abs(p.sigma2 - np.array(direct))) <= 1e-12


def test_prediction_invariants(rng):
    for nf in ("zero", "finite", "inf"):
        s = random_schedule(rng, nf=nf)
        p = predict_output_fb(s)
        assert np.all(p.mse == p.sigma2 + p.vbar)
        assert np.all(p.sigma2 >= 0) and np.all(p.vbar >= 0)


# ---------------------------------------------------------------------------
# noiseless-feedback prediction
# ---------------------------------------------------------------------------


def test_noiseless_stationary_limit_eight_sevenths():
    s = SystemSchedule(T=200, a=0.5, b=1, P=1, N=1, N_f=0, V_xx0=1)
    p = predict_noiseless_fb(s)
    assert p.sigma2[-1] == pytest.approx(8.0 / 7.0, abs=1e-12)


def test_noiseless_nothing_to_estimate():
    s = SystemSchedule(T=10, a=0.5, b=0.0, P=1, N=1, N_f=0, V_xx0=0.0)
    p = predict_noiseless_fb(s)
    assert np.all(p.sigma2 == 0.0)


def test_noiseless_divergence_at_capacity():
    # log2|a| equals capacity exactly: strict inequality fails, variance grows
    s = SystemSchedule(T=400, a=2.0, b=1.0, P=3.0, N=1.0, N_f=0, V_xx0=1)
    p = predict_noiseless_fb(s)
    assert np.all(np.diff(p.sigma2) > 0)
    assert p.sigma2[-1] > 300.0


@pytest.mark.parametrize(
    "predict, message",
    [
        (predict_output_fb, "covariance of (s, x) at step 1 is not finite and PSD: "
                            "V_ss = inf, V_sx = inf, V_xx = inf, sigma2 = nan"),
        (predict_noiseless_fb, "predicted mse at step 0 is not finite"),
    ],
    ids=["output_fb", "noiseless"],
)
def test_squares_past_the_largest_double_are_inf_not_an_error(predict, message):
    # the predictors square the schedule as Python floats: a(0)^2 = 1e400
    # is inf, as it was for a numpy scalar, not an OverflowError
    s = SystemSchedule(T=4, a=1e200, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as info:
            predict(s)
    assert str(info.value) == message


def _unguarded(s, step, first, second=0.0):
    """Plain iteration of a scalar predictor's step, overflow left in."""
    out = [(first, second)]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, s.T):
            out.append(step(t, *out[-1]))
    return np.array(out)


@pytest.mark.parametrize("a", [0.5, 0.9, 1.2, 2.0, 10.0])
@pytest.mark.parametrize("T", [12, 400])
def test_scalar_predictors_raise_on_overflow_and_keep_bits_otherwise(a, T):
    s = SystemSchedule(T=T, a=a, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=1.0)
    sigma2_1 = s.a[0] ** 2 * s.V_xx0 + s.b[0] ** 2

    def noiseless(t, sig, _):
        return s.N[t] / (s.N[t] + s.P[t]) * s.a[t] ** 2 * sig + s.b[t] ** 2, 0.0

    def state_estimate(t, sig, sb):
        return se_step(sig, sb, s.a[t], s.b[t], s.P[t], s.N[t], s.N_f[t])

    for predict, step in (
        (predict_noiseless_fb, noiseless),
        (predict_state_estimate_fb, state_estimate),
    ):
        ref = _unguarded(s, step, sigma2_1)
        mse = ref[:, 0] + ref[:, 1]
        bad = np.flatnonzero(~np.isfinite(mse))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if bad.size:
                with pytest.raises(
                    ValidationError, match=rf"predicted mse at step {bad[0]} is not finite$"
                ):
                    predict(s)
                continue
            p = predict(s)
        assert p.sigma2.tobytes() == ref[:, 0].tobytes()
        assert p.vbar.tobytes() == ref[:, 1].tobytes()
        assert p.mse.tobytes() == mse.tobytes()


def test_noiseless_mse_monotone_in_power():
    s_prev = None
    for P in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        s = SystemSchedule(T=40, a=0.9, b=1.2, P=P, N=1.0, N_f=0, V_xx0=1)
        p = predict_noiseless_fb(s)
        if s_prev is not None:
            assert np.all(p.mse <= s_prev + 1e-15)
        s_prev = p.mse


# ---------------------------------------------------------------------------
# state-estimate-feedback prediction
# ---------------------------------------------------------------------------


def test_se_zero_feedback_noise_frozen_values():
    # Hand-iterated pair for a=0.9, b=1, P=N=1, N_f=0, V_xx0=0.  The residual
    # is NOT zero: the fed-back estimate is one step stale, so the latest
    # channel noise K(t) n(t) is always unknown to the transmitter and
    # sigbar2(t+1) = a^2 P N/(P+N)^2 sigma2(t) survives the N_f -> 0 limit.
    s = SystemSchedule(T=3, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.0, V_xx0=0.0)
    p = predict_state_estimate_fb(s)
    assert p.sigma2 == pytest.approx([1.0, 1.2025, 1.40753125], abs=1e-12)
    assert p.vbar == pytest.approx([0.0, 0.2025, 0.24350625], abs=1e-12)
    assert p.mse == pytest.approx([1.0, 1.405, 1.6510375], abs=1e-12)
    # strictly above the noiseless-feedback error from step 3 on
    pn = predict_noiseless_fb(s)
    assert p.mse[2] > pn.mse[2] + 0.05


def test_se_memoryless_plant():
    s = SystemSchedule(T=6, a=0.0, b=1.0, P=1, N=1, N_f=0.5, V_xx0=2.0)
    p = predict_state_estimate_fb(s)
    assert np.allclose(p.sigma2, 1.0)
    assert np.all(p.vbar == 0.0)


def test_se_long_run_matches_fixed_point_solver():
    s = SystemSchedule(T=200, a=0.9, b=1, P=1, N=1, N_f=0.5, V_xx0=0)
    p = predict_state_estimate_fb(s)
    rep = solve_state_estimate_fp(*constant_values(s))
    assert rep.bounded
    assert abs(p.sigma2[-1] - rep.fixed_point[0]) < 1e-8
    assert abs(p.vbar[-1] - rep.fixed_point[1]) < 1e-8


def test_se_forms_agree_only_when_feedback_noise_is_one():
    s1 = SystemSchedule(T=20, a=0.9, b=1, P=1, N=1, N_f=1.0, V_xx0=1)
    assert np.array_equal(
        predict_state_estimate_fb(s1, "proof").mse,
        predict_state_estimate_fb(s1, "stated").mse,
    )
    s2 = SystemSchedule(T=20, a=0.9, b=1, P=1, N=1, N_f=0.5, V_xx0=1)
    d = np.max(
        np.abs(
            predict_state_estimate_fb(s2, "proof").mse
            - predict_state_estimate_fb(s2, "stated").mse
        )
    )
    assert d > 1e-2


def test_se_stated_form_has_no_nofeedback_limit():
    # the alternative residual update blows up with the feedback noise level,
    # instead of approaching the no-feedback recursion like the default
    s_big = SystemSchedule(T=10, a=0.9, b=1, P=1, N=1, N_f=1e6, V_xx0=1)
    proof = predict_state_estimate_fb(s_big, "proof")
    stated = predict_state_estimate_fb(s_big, "stated")
    nofb = predict_output_fb(
        SystemSchedule(T=10, a=0.9, b=1, P=1, N=1, N_f=math.inf, V_xx0=1)
    )
    assert np.max(np.abs(proof.mse - nofb.mse)) < 1e-3
    assert stated.mse[-1] > 1e3 * nofb.mse[-1]


def test_se_rejects_infinite_feedback_noise():
    s = SystemSchedule(T=5, a=0.5, b=1, P=1, N=1, N_f=math.inf, V_xx0=1)
    with pytest.raises(ValidationError):
        predict_state_estimate_fb(s)
    with pytest.raises(ValidationError, match="form must be one of"):
        predict_state_estimate_fb(replace(s, N_f=0.5), form="bogus")


def test_invalid_form_is_rejected_before_any_step():
    # at T = 1 no residual step runs, so only the check on entry sees the form
    s = SystemSchedule(T=1, a=0.5, b=1, P=1, N=1, N_f=0.5, V_xx0=1)
    kind = RegimeKind.STATE_ESTIMATE_FEEDBACK
    message = r"^form must be one of \('proof', 'stated'\), got 'bogus'$"
    for call in (
        lambda: predict_state_estimate_fb(s, form="bogus"),
        lambda: build_plan(s, kind, form="bogus"),
        lambda: monte_carlo(s, kind, McConfig(trials=2, seed=1), form="bogus"),
    ):
        with pytest.raises(ValidationError, match=message):
            call()


# ---------------------------------------------------------------------------
# Kalman pre-filter and separation
# ---------------------------------------------------------------------------


def test_prefilter_perfect_measurement():
    s = SystemSchedule(T=5, a=0.8, b=1.3, P=1, N=1, N_f=0.1, V_xx0=0.7)
    kf = kalman_prefilter(s, MeasurementModel(c=1.0, d=0.0, V_ww=1.0))
    assert np.allclose(kf.L, 1.0)
    assert np.allclose(kf.V_xixi[1:], 1.3**2)
    assert np.allclose(kf.V_xixi_filt, 0.0)


def test_prefilter_uninformative_measurement():
    s = SystemSchedule(T=4, a=0.8, b=1.0, P=1, N=1, N_f=0.1, V_xx0=0.7)
    kf = kalman_prefilter(s, MeasurementModel(c=0.0, d=1.0, V_ww=1.0, V_vv=1.0))
    assert np.all(kf.L == 0.0)
    expect = [0.7]
    for _ in range(4):
        expect.append(0.8**2 * expect[-1] + 1.0)
    assert np.allclose(kf.V_xixi, expect)


def test_prefilter_degenerate_innovation_raises():
    s = SystemSchedule(T=3, a=0.8, b=1.0, P=1, N=1, N_f=0.1, V_xx0=0.0)
    with pytest.raises(ValidationError, match="innovation"):
        kalman_prefilter(s, MeasurementModel(c=1.0, d=0.0, V_ww=1.0))


def _joint_conditioning_kf(s, m):
    """Independent re-derivation: per-step joint-Gaussian conditioning of
    (error, innovation), then explicit error-dynamics variance propagation."""
    T, c, d = s.T, m.c, m.d
    L = np.empty(T + 1)
    V = np.empty(T + 1)
    Vf = np.empty(T + 1)
    V[0] = s.V_xx0
    for t in range(T + 1):
        var_i = c * c * V[t] + d * d * m.V_vv[t]
        cov_xi = c * V[t]
        L[t] = cov_xi / var_i
        Vf[t] = V[t] - L[t] * cov_xi
        if t < T:
            a, b = s.a[t], s.b[t]
            gvec = np.array([b, -a * L[t] * d])
            V[t + 1] = (a - a * L[t] * c) ** 2 * V[t] + gvec @ m.noise_cov(t) @ gvec
    return L, V, Vf


def test_prefilter_matches_independent_riccati(rng):
    worst = 0.0
    for _ in range(50):
        s = random_schedule(rng, time_varying=True)
        m = random_measurement(rng, s.T, correlated=bool(rng.integers(2)))
        kf = kalman_prefilter(s, m)
        L, V, Vf = _joint_conditioning_kf(s, m)
        worst = max(
            worst,
            float(np.max(np.abs(kf.L - L))),
            float(np.max(np.abs(kf.V_xixi - V))),
            float(np.max(np.abs(kf.V_xixi_filt - Vf))),
        )
    assert worst < 1e-12


def test_prefilter_matches_predictor_form_riccati(rng):
    # classic predictor-form update, valid for uncorrelated (w, v)
    for _ in range(50):
        s = random_schedule(rng, time_varying=True)
        m = random_measurement(rng, s.T, correlated=False)
        kf = kalman_prefilter(s, m)
        V = s.V_xx0
        for t in range(s.T):
            S = m.c**2 * V + m.d**2 * m.V_vv[t]
            V = (
                s.a[t] ** 2 * V
                - (s.a[t] * m.c * V) ** 2 / S
                + s.b[t] ** 2 * m.V_ww[t]
            )
            assert kf.V_xixi[t + 1] == pytest.approx(V, rel=1e-12, abs=1e-12)


def test_separation_perfect_measurement_reduces_to_full_state():
    s = SystemSchedule(T=12, a=0.9, b=1.0, P=1, N=1, N_f=0.1, V_xx0=1.0)
    m = MeasurementModel(c=1.0, d=0.0, V_ww=1.0)
    ps = predict_separation(s, m)
    po = predict_output_fb(s)
    assert np.array_equal(ps.mse, po.mse)
    assert np.array_equal(ps.sigma2, po.sigma2)


def test_separation_uninformative_measurement_gives_open_loop():
    s = SystemSchedule(T=8, a=0.9, b=1.0, P=1, N=1, N_f=0.1, V_xx0=1.0)
    m = MeasurementModel(c=0.0, d=1.0, V_ww=1.0, V_vv=1.0)
    p = predict_separation(s, m)
    open_loop = [s.a[0] ** 2 * s.V_xx0 + s.b[0] ** 2]
    for t in range(1, s.T):
        open_loop.append(s.a[t] ** 2 * open_loop[-1] + s.b[t] ** 2)
    assert np.allclose(p.mse, open_loop, rtol=1e-12)
    assert np.all(p.sigma2 == 0.0)


def test_separation_never_beats_full_state_measurement(rng):
    # full-state baseline with matched process noise b*sqrt(V_ww)
    for _ in range(30):
        s = random_schedule(rng, nf=float(rng.choice([0.0, 0.3, 2.0])))
        m = random_measurement(rng, s.T, correlated=False)
        full = SystemSchedule(
            T=s.T,
            a=s.a,
            b=s.b * np.sqrt(m.V_ww[: s.T]),
            P=s.P,
            N=s.N,
            N_f=s.N_f,
            V_xx0=s.V_xx0,
        )
        gap = predict_separation(s, m).mse - predict_output_fb(full).mse
        assert gap.min() > -1e-12
