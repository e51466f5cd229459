"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).

Two checks are expected to stay red; both trace to the same analytical fact,
worked out exactly in README "Known deviations" and reproduced by the frozen
rational hand-cases in test_oracle.py:

* criterion 3 (conditional-mean oracle equals the variance recursions) holds
  only for noiseless output feedback.  In every other regime the
  transmissions correlate with past channel outputs, so the one-tap
  recursive decoder is not the conditional mean and joint conditioning is
  strictly better.  The realized-scheme exact error (criterion 3b here)
  does equal the recursions in every regime, which is the independent
  validation the oracle exists to provide.
* criterion 5's third clause (state-estimate feedback at N_f = 0 reduces to
  the noiseless recursion) is false for the implemented filters: the
  fed-back estimate is one step stale, so the latest channel noise is never
  available to the transmitter and the residual variance K(t)^2 N survives
  the N_f -> 0 limit.
"""

import math

import numpy as np
import pytest

from statecast import (
    McConfig,
    MeasurementModel,
    RegimeKind,
    SystemSchedule,
    channel_capacity,
    check_noiseless,
    check_output_fb,
    exact_conditioning_oracle,
    kalman_prefilter,
    monte_carlo,
    predict_noiseless_fb,
    predict_output_fb,
    predict_separation,
    predict_state_estimate_fb,
    solve_state_estimate_fp,
)
from statecast.cli import main as cli_main
from statecast.model import constant_values
from statecast.recursions import se_step

from conftest import random_measurement, random_schedule


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} {name}: {detail}"


# ---------------------------------------------------------------------------
# 1. capacity threshold
# ---------------------------------------------------------------------------


def test_criterion_01_capacity_threshold():
    # C = 1 bit for P=3, N=1.  a=1.9 is strictly below threshold; a=2.0 sits
    # exactly on it, where the variance recursion grows linearly without
    # bound -- b=100 makes "past 1e6 within 200 steps" concrete (the
    # criterion leaves b free).
    assert channel_capacity(3.0, 1.0) == 1.0
    s19 = SystemSchedule(T=200, a=1.9, b=100.0, P=3.0, N=1.0, N_f=0.0, V_xx0=1.0)
    p19 = predict_noiseless_fb(s19)
    limit = 100.0**2 / (1.0 - 1.9**2 * 1.0 / 4.0)
    converged = (
        math.isfinite(p19.sigma2[-1])
        and abs(p19.sigma2[-1] - limit) < 1e-6 * limit
        and abs(p19.sigma2[-1] - p19.sigma2[-2]) < 1e-3
    )
    s20 = SystemSchedule(T=200, a=2.0, b=100.0, P=3.0, N=1.0, N_f=0.0, V_xx0=1.0)
    p20 = predict_noiseless_fb(s20)
    diverged = p20.sigma2[-1] > 1e6 and np.all(np.diff(p20.sigma2) > 0)
    report(
        1,
        "capacity threshold",
        converged and diverged,
        f"a=1.9 -> {p19.sigma2[-1]:.6g} (bounded), a=2.0 -> {p20.sigma2[-1]:.3g} (>1e6)",
    )


# ---------------------------------------------------------------------------
# 2. noiseless fixed point, prediction and Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_02_noiseless_fixed_point():
    s = SystemSchedule(T=60, a=0.5, b=1.0, P=1.0, N=1.0, N_f=0.0, V_xx0=1.0)
    p = predict_noiseless_fb(s)
    target = 8.0 / 7.0
    iter_ok = abs(p.sigma2[-1] - target) < 1e-9
    summary = monte_carlo(
        s, RegimeKind.NOISELESS_FEEDBACK, McConfig(trials=100_000, seed=20240802)
    )
    dev_se = abs(summary.emp_mse[-1] - target) / summary.emp_se[-1]
    mc_ok = dev_se < 4.0
    report(
        2,
        "noiseless fixed point 8/7",
        iter_ok and mc_ok,
        f"iterated sigma2={p.sigma2[-1]:.12f}, MC dev={dev_se:.2f} se (M=1e5, T=60)",
    )


# ---------------------------------------------------------------------------
# 3. oracle equivalence, 20 random draws per regime, T=6, |a| <= 0.95
# ---------------------------------------------------------------------------


def _draws(kind, rng):
    for _ in range(20):
        meas = None
        if kind is RegimeKind.NOISELESS_FEEDBACK:
            s = random_schedule(rng, T=6, nf="zero")
            pred = predict_noiseless_fb(s)
        elif kind is RegimeKind.NO_FEEDBACK:
            s = random_schedule(rng, T=6, nf="inf")
            pred = predict_output_fb(s)
        elif kind is RegimeKind.OUTPUT_FEEDBACK:
            s = random_schedule(rng, T=6, nf="finite")
            pred = predict_output_fb(s)
        elif kind is RegimeKind.STATE_ESTIMATE_FEEDBACK:
            s = random_schedule(rng, T=6, nf="finite")
            pred = predict_state_estimate_fb(s)
        else:
            s = random_schedule(rng, T=6, nf="finite")
            meas = random_measurement(rng, s.T, correlated=False)
            pred = predict_separation(s, meas)
        yield s, meas, pred


@pytest.mark.parametrize("kind", list(RegimeKind))
def test_criterion_03_oracle_equivalence(kind):
    rng = np.random.default_rng(20240803)
    worst = 0.0
    for s, meas, pred in _draws(kind, rng):
        r = exact_conditioning_oracle(s, kind, measurement=meas)
        worst = max(worst, float(np.max(np.abs(r.mse - pred.mse))))
    report(
        3,
        f"conditional-mean oracle equals prediction [{kind.value}]",
        worst < 1e-8,
        f"max |oracle.mse - pred.mse| = {worst:.3g}"
        + (
            ""
            if worst < 1e-8
            else "; expected red: scheme decoder is not the conditional mean here"
        ),
    )


@pytest.mark.parametrize("kind", list(RegimeKind))
def test_criterion_03b_scheme_exact_error_equals_prediction(kind):
    # salvaged independent validation: the oracle's coefficient-algebra
    # evaluation of the realized filters reproduces the recursions
    rng = np.random.default_rng(20240804)
    worst = 0.0
    for s, meas, pred in _draws(kind, rng):
        r = exact_conditioning_oracle(s, kind, measurement=meas)
        worst = max(worst, float(np.max(np.abs(r.scheme_mse - pred.mse))))
    report(
        3,
        f"exact realized-scheme error equals prediction [{kind.value}]",
        worst < 1e-8,
        f"max |oracle.scheme_mse - pred.mse| = {worst:.3g}",
    )


# ---------------------------------------------------------------------------
# 4. per-symbol power in every regime
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,nf,meas",
    [
        (RegimeKind.OUTPUT_FEEDBACK, 0.1, False),
        (RegimeKind.NO_FEEDBACK, math.inf, False),
        (RegimeKind.NOISELESS_FEEDBACK, 0.0, False),
        (RegimeKind.STATE_ESTIMATE_FEEDBACK, 0.5, False),
        (RegimeKind.SEPARATION_OUTPUT_FEEDBACK, 0.1, True),
    ],
    ids=lambda v: getattr(v, "value", str(v)),
)
def test_criterion_04_per_symbol_power(kind, nf, meas):
    P = 1.0
    M = 100_000
    s = SystemSchedule(T=30, a=0.9, b=1.0, P=P, N=1.0, N_f=nf, V_xx0=1.0)
    m = MeasurementModel(c=1.0, d=0.5, V_ww=1.0, V_wv=0.0, V_vv=1.0) if meas else None
    summary = monte_carlo(s, kind, McConfig(trials=M, seed=20240805), measurement=m)
    bound = 4.0 * math.sqrt(2.0 / M) * P
    dev = float(np.nanmax(np.abs(summary.emp_zpow[:-1] - P)))
    report(
        4,
        f"per-symbol power [{kind.value}]",
        dev < bound,
        f"max |mean z^2 - P| = {dev:.5f} < {bound:.5f} (M=1e5)",
    )


# ---------------------------------------------------------------------------
# 5. limit reductions
# ---------------------------------------------------------------------------


def test_criterion_05a_output_fb_zero_noise_equals_noiseless():
    rng = np.random.default_rng(20240806)
    worst = 0.0
    for _ in range(10):
        s = random_schedule(rng, nf="zero", time_varying=bool(rng.integers(2)))
        d = np.abs(predict_output_fb(s).mse - predict_noiseless_fb(s).mse)
        worst = max(worst, float(d.max()))
    report(5, "output feedback at N_f=0 equals noiseless recursion", worst <= 1e-10,
           f"max elementwise diff = {worst:.3g}")


def test_criterion_05b_no_feedback_limit_matches_zero_drive_reference():
    rng = np.random.default_rng(20240807)
    ok = True
    for _ in range(10):
        s = random_schedule(rng, nf="inf", time_varying=True)
        p = predict_output_fb(s)
        # reference recursion: identical 2x2 update, zero drive in the (1,1)
        # slot, carried as a symmetric covariance (one off-diagonal entry)
        vss, vsx, vxx = 0.0, 0.0, s.a[0] ** 2 * s.V_xx0 + s.b[0] ** 2
        ref = [vss - 2.0 * vsx + vxx]
        for t in range(1, s.T):
            a, b, P, N = s.a[t], s.b[t], s.P[t], s.N[t]
            A = np.array([[a * N / (P + N), a * P / (P + N)], [0.0, a]])
            m = A @ np.array([[vss, vsx], [vsx, vxx]]) @ A.T
            vss, vsx, vxx = m[0, 0], m[0, 1], m[1, 1] + b * b
            ref.append(vss - 2.0 * vsx + vxx)
        ok = ok and np.array_equal(p.sigma2, np.array(ref))
    report(5, "no-feedback limit equals zero-drive recursion exactly", ok)


def test_criterion_05c_state_estimate_zero_noise_equals_noiseless():
    rng = np.random.default_rng(20240808)
    worst = 0.0
    for _ in range(10):
        s = random_schedule(rng, nf="zero")
        d = np.abs(
            predict_state_estimate_fb(s).mse - predict_noiseless_fb(s).mse
        )
        worst = max(worst, float(d.max()))
    report(
        5,
        "state-estimate feedback at N_f=0 equals noiseless recursion",
        worst <= 1e-10,
        f"max elementwise diff = {worst:.3g}"
        + (
            ""
            if worst <= 1e-10
            else "; expected red: stale feedback leaves residual K^2 N at N_f=0"
        ),
    )


# ---------------------------------------------------------------------------
# 6. output-feedback stationarity dichotomy
# ---------------------------------------------------------------------------


def test_criterion_06_output_fb_stationarity_dichotomy():
    s_ok = SystemSchedule(T=2, a=0.99, b=1.0, P=1.0, N=1.0, N_f=0.1, V_xx0=0.0)
    rep = check_output_fb(*constant_values(s_ok))
    bounded_ok = rep.bounded and max(rep.residuals) < 1e-10
    s_bad = SystemSchedule(T=2, a=1.0, b=1.0, P=1.0, N=1.0, N_f=0.1, V_xx0=0.0)
    rep_bad = check_output_fb(*constant_values(s_bad))
    long = predict_output_fb(
        SystemSchedule(T=500, a=1.0, b=1.0, P=1.0, N=1.0, N_f=0.1, V_xx0=0.0)
    )
    # at |a| = 1 the residual grows linearly: late increments stay positive
    diverges = (
        (not rep_bad.bounded)
        and np.all(np.diff(long.mse)[250:] > 0.01)
        and long.mse[-1] > long.mse[250] + 5.0
    )
    report(
        6,
        "stationary iff |a| < 1 (N_f = 0.1)",
        bounded_ok and diverges,
        f"a=0.99: residuals {max(rep.residuals):.2g}; a=1.0: unbounded, "
        f"mse grows {long.mse[250]:.3g} -> {long.mse[-1]:.3g}",
    )


# ---------------------------------------------------------------------------
# 7. quartic fixed point for state-estimate feedback
# ---------------------------------------------------------------------------


def test_criterion_07_quartic_fixed_point():
    s = SystemSchedule(T=2, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=0.0)
    rep = solve_state_estimate_fp(*constant_values(s))
    long = predict_state_estimate_fb(
        SystemSchedule(T=10_000, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=0.0)
    )
    match = (
        abs(long.sigma2[-1] - rep.fixed_point[0]) < 1e-8
        and abs(long.vbar[-1] - rep.fixed_point[1]) < 1e-8
    )
    res_ok = max(rep.residuals) < 1e-10
    report(
        7,
        "state-estimate stationary pair",
        rep.bounded and match and res_ok,
        f"fp=({rep.fixed_point[0]:.10f}, {rep.fixed_point[1]:.10f}), "
        f"residuals<{max(rep.residuals):.2g}",
    )


# ---------------------------------------------------------------------------
# 8. separation principle
# ---------------------------------------------------------------------------


def _independent_prefilter(s, m):
    c, d = m.c, m.d
    L = np.empty(s.T + 1)
    V = np.empty(s.T + 1)
    V[0] = s.V_xx0
    for t in range(s.T + 1):
        var_i = c * c * V[t] + d * d * m.V_vv[t]
        L[t] = c * V[t] / var_i
        if t < s.T:
            a, b = s.a[t], s.b[t]
            g = np.array([b, -a * L[t] * d])
            V[t + 1] = (a - a * L[t] * c) ** 2 * V[t] + g @ m.noise_cov(t) @ g
    return L, V


def test_criterion_08_separation_principle():
    rng = np.random.default_rng(20240809)
    worst = 0.0
    for _ in range(50):
        s = random_schedule(rng, time_varying=True)
        m = random_measurement(rng, s.T, correlated=bool(rng.integers(2)))
        kf = kalman_prefilter(s, m)
        L, V = _independent_prefilter(s, m)
        worst = max(
            worst,
            float(np.max(np.abs(kf.L - L))),
            float(np.max(np.abs(kf.V_xixi - V))),
        )
    riccati_ok = worst < 1e-12
    s = SystemSchedule(T=20, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.1, V_xx0=1.0)
    m = MeasurementModel(c=1.0, d=0.0, V_ww=1.0)
    perfect = np.array_equal(predict_separation(s, m).mse, predict_output_fb(s).mse)
    report(
        8,
        "separation: pre-filter Riccati + perfect-measurement reduction",
        riccati_ok and perfect,
        f"max Riccati dev = {worst:.3g} over 50 instances; perfect measurement exact",
    )


# ---------------------------------------------------------------------------
# 9. first-order optimality under power-preserving perturbations
# ---------------------------------------------------------------------------


def test_criterion_09_first_order_optimality():
    # Noiseless-feedback draws: the regime where the filters are optimal
    # over all power-feasible causal encoders.  Perturbations scale one
    # internal encoder gain; the output scaling renormalizes to the true
    # transmit deviation, so power stays exactly P and no perturbation may
    # reduce the conditional-mean error.
    rng = np.random.default_rng(20240810)
    worst_gain = 0.0
    for _ in range(10):
        s = random_schedule(rng, T=5, nf="zero")
        base = float(
            exact_conditioning_oracle(s, RegimeKind.NOISELESS_FEEDBACK).mse.mean()
        )
        for t0 in (1, 2, 3):
            for factor in (1.0 + 1e-3, 1.0 - 1e-3):
                pert = float(
                    exact_conditioning_oracle(
                        s,
                        RegimeKind.NOISELESS_FEEDBACK,
                        perturb={"t": t0, "factor": factor},
                    ).mse.mean()
                )
                worst_gain = max(worst_gain, (base - pert) / base)
    report(
        9,
        "encoder perturbations never improve the oracle error",
        worst_gain < 1e-6,
        f"largest relative improvement = {worst_gain:.3g} (10 instances, T=5)",
    )


# ---------------------------------------------------------------------------
# 10. determinism of artifacts
# ---------------------------------------------------------------------------


def test_criterion_10_bitwise_deterministic_artifacts(tmp_path):
    cfg = tmp_path / "det.ini"
    cfg.write_text(
        "[schedule]\nT = 40\na = 0.9\nb = 1.0\nP = 1.0\nN = 1.0\nN_f = 0.1\n"
        "V_xx0 = 1.0\n\n[experiment]\nmode = simulate\nregime = output_feedback\n"
        f"trials = 20000\nseed = 987654321\noutput = {tmp_path / 'a.csv'}\n"
    )
    assert cli_main(["run", str(cfg)]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert cli_main(["run", str(cfg), "--output", str(tmp_path / "b.csv")]) == 0
    identical = first == (tmp_path / "b.csv").read_bytes()
    report(10, "identical seeds give bitwise-identical CSV artifacts", identical)
