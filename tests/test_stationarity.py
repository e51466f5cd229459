import decimal
import math
import re

import numpy as np
import pytest

from statecast import (
    RegimeKind,
    SystemSchedule,
    ValidationError,
    channel_capacity,
    check_noiseless,
    check_output_fb,
    predict_output_fb,
    predict_state_estimate_fb,
    solve_state_estimate_fp,
)
from statecast.model import constant_values
from statecast.recursions import se_step


def _const(a, b=1.0, P=1.0, N=1.0, N_f=0.1):
    """The five constants (a, b, P, N, N_f) the checks take."""
    return (a, b, P, N, N_f)


def test_capacity_values():
    assert channel_capacity(3.0, 1.0) == 1.0
    assert channel_capacity(1.0, 1.0) == 0.5
    assert channel_capacity(1e-12, 1.0) == pytest.approx(0.0, abs=1e-11)
    with pytest.raises(ValidationError):
        channel_capacity(0.0, 1.0)


def test_noiseless_threshold_is_strict():
    assert not check_noiseless(*_const(2.0, P=3.0, N=1.0, N_f=0.0)[:4]).bounded
    assert check_noiseless(*_const(1.9, P=3.0, N=1.0, N_f=0.0)[:4]).bounded
    rep = check_noiseless(*_const(0.5, N_f=0.0, b=1.0)[:4])
    assert rep.bounded
    assert rep.fixed_point[0] == pytest.approx(8.0 / 7.0, abs=1e-15)
    assert rep.fixed_point[1] == 0.0
    assert rep.capacity == 0.5


def test_noiseless_boundedness_monotone_in_power():
    bounded = [
        check_noiseless(*_const(1.3, P=P, N=1.0, N_f=0.0)[:4]).bounded
        for P in (0.1, 0.3, 0.69, 0.7, 1.0, 3.0, 10.0)
    ]
    # once bounded, stays bounded as P grows
    assert bounded == sorted(bounded)


def test_output_fb_dichotomy_at_unit_pole():
    assert check_output_fb(*_const(0.99)).bounded
    assert not check_output_fb(*_const(1.0)).bounded
    assert not check_output_fb(*_const(-1.0)).bounded
    assert check_output_fb(*_const(-0.99)).bounded


def test_output_fb_divergence_visible_in_iteration():
    s = SystemSchedule(T=400, a=1.0, b=1.0, P=1.0, N=1.0, N_f=0.1, V_xx0=0.0)
    p = predict_output_fb(s)
    # at |a| = 1 the residual grows linearly without bound
    assert np.all(np.diff(p.mse) > -1e-12)
    assert np.all(np.diff(p.mse)[200:] > 0.01)
    assert p.mse[-1] > 4.0 * p.mse[50]


def test_output_fb_fixed_point_matches_long_iteration():
    rep = check_output_fb(*_const(0.9, N_f=0.1))
    assert rep.bounded
    long = predict_output_fb(
        SystemSchedule(T=10_000, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.1, V_xx0=0.0)
    )
    assert abs(long.sigma2[-1] - rep.fixed_point[0]) < 1e-8
    assert abs(long.vbar[-1] - rep.fixed_point[1]) < 1e-8
    assert max(rep.residuals) < 1e-10


def test_output_fb_delegates_noiseless_at_zero_feedback_noise():
    rep = check_output_fb(*_const(0.5, N_f=0.0))
    ref = check_noiseless(*_const(0.5, N_f=0.0)[:4])
    assert rep.bounded == ref.bounded
    assert rep.fixed_point == ref.fixed_point
    assert rep.regime is RegimeKind.OUTPUT_FEEDBACK
    # both checks report the same verdict across a parameter sweep
    for a in (0.3, 0.9, 1.2, 1.9, 2.0, 2.5):
        assert (
            check_output_fb(*_const(a, P=3.0, N=1.0, N_f=0.0)).bounded
            == check_noiseless(*_const(a, P=3.0, N=1.0, N_f=0.0)[:4]).bounded
        )


def test_output_fb_no_feedback_threshold():
    # without feedback the residual still accumulates at rate a^2
    rep = check_output_fb(*_const(0.95, N_f=math.inf))
    assert rep.bounded and rep.regime is RegimeKind.NO_FEEDBACK
    assert not check_output_fb(*_const(1.01, N_f=math.inf)).bounded
    # matches a long iteration of the zero-drive recursion
    long = predict_output_fb(
        SystemSchedule(T=20_000, a=0.95, b=1.0, P=1.0, N=1.0, N_f=math.inf, V_xx0=0.0)
    )
    assert abs(long.sigma2[-1] - rep.fixed_point[0]) < 1e-7
    assert abs(long.vbar[-1] - rep.fixed_point[1]) < 1e-6


def test_output_fb_rejects_time_varying():
    s = SystemSchedule(T=3, a=[0.5, 0.6, 0.7], b=1, P=1, N=1, N_f=0.1, V_xx0=0)
    with pytest.raises(ValidationError, match="constant"):
        check_output_fb(*constant_values(s))


def test_fixed_point_residuals_small_over_random_stable_draws(rng):
    for _ in range(50):
        a = float(rng.uniform(-0.99, 0.99))
        s = _const(
            a,
            b=float(rng.uniform(0.2, 2)),
            P=float(rng.uniform(0.3, 3)),
            N=float(rng.uniform(0.3, 3)),
            N_f=float(rng.choice([0.0, 0.1, 1.0, math.inf])),
        )
        rep = check_output_fb(*s)
        assert rep.bounded
        assert max(rep.residuals) < 1e-10


# ---------------------------------------------------------------------------
# state-estimate feedback fixed point
# ---------------------------------------------------------------------------


def test_se_memoryless_fixed_point():
    rep = solve_state_estimate_fp(*_const(0.0, b=1.3, N_f=0.5))
    assert rep.bounded
    assert rep.fixed_point[0] == pytest.approx(1.3**2, abs=1e-12)
    assert rep.fixed_point[1] == pytest.approx(0.0, abs=1e-12)


def test_se_solver_matches_long_iteration():
    rep = solve_state_estimate_fp(*_const(0.9, N_f=0.5))
    assert rep.bounded
    long = predict_state_estimate_fb(
        SystemSchedule(T=10_000, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=0.0)
    )
    assert abs(long.sigma2[-1] - rep.fixed_point[0]) < 1e-8
    assert abs(long.vbar[-1] - rep.fixed_point[1]) < 1e-8
    assert max(rep.residuals) < 1e-10


def test_se_zero_noise_limit():
    # closed form of the stationary pair at N_f = 0 for a=0.5, b=P=N=1:
    #   sigbar2 = (a^2 P N/(P+N)^2) sigma2 = sigma2/16
    #   sigma2  = sigma2/16 + a^2*sigbar2 + 1  =>  sigma2 = 64/59
    # The limit stays strictly above the noiseless-output-feedback fixed
    # point 8/7: the fed-back estimate is one step stale.
    rep = solve_state_estimate_fp(*_const(0.5, N_f=1e-8))
    assert rep.bounded
    assert rep.fixed_point[0] == pytest.approx(64.0 / 59.0, abs=1e-4)
    assert rep.fixed_point[1] == pytest.approx(4.0 / 59.0, abs=1e-4)
    noiseless = check_noiseless(*_const(0.5, N_f=0.0)[:4]).fixed_point[0]
    assert rep.mse > noiseless + 5e-3
    # exactly at N_f = 0 as well
    rep0 = solve_state_estimate_fp(*_const(0.5, N_f=0.0))
    assert rep0.fixed_point[0] == pytest.approx(64.0 / 59.0, abs=1e-12)
    assert rep0.fixed_point[1] == pytest.approx(4.0 / 59.0, abs=1e-12)


def test_se_supports_moderately_unstable_poles():
    # with state-estimate feedback a stationary pair can exist past |a| = 1
    rep = solve_state_estimate_fp(*_const(1.2, N_f=0.5))
    assert rep.bounded
    f = se_step(*rep.fixed_point, 1.2, 1.0, 1.0, 1.0, 0.5)
    assert abs(f[0] - rep.fixed_point[0]) < 1e-10
    assert abs(f[1] - rep.fixed_point[1]) < 1e-10
    long = predict_state_estimate_fb(
        SystemSchedule(T=20_000, a=1.2, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=0.0)
    )
    assert abs(long.mse[-1] - rep.mse) < 1e-6


def test_se_divergence_reported_not_raised():
    rep = solve_state_estimate_fp(*_const(1.5, N_f=0.5))
    assert not rep.bounded
    assert rep.fixed_point is None
    assert "diverged" in rep.condition or "convergence" in rep.condition


def test_se_undriven_recursion_stays_at_origin():
    # with b = 0 the recursion from (0, 0) never moves, even past a*(P, N)
    for a in (0.5, 2.0):
        for N_f in (0.0, 0.5):
            rep = solve_state_estimate_fp(*_const(a, b=0.0, N_f=N_f))
            assert rep.bounded and rep.fixed_point == (0.0, 0.0)


def test_se_rejects_infinite_feedback_noise():
    with pytest.raises(ValidationError):
        solve_state_estimate_fp(*_const(0.5, N_f=math.inf))


def test_report_serialization():
    rep = check_output_fb(*_const(0.9, N_f=0.1))
    d = rep.to_dict()
    assert d["bounded"] is True
    assert d["regime"] == "output_feedback"
    assert set(d["fixed_point"]) == {"sigma2", "sigbar2", "mse"}
    assert d["fixed_point"]["mse"] == pytest.approx(rep.mse)
    rep2 = check_output_fb(*_const(1.5, N_f=0.1))
    assert rep2.to_dict()["fixed_point"] is None


def _a_star(P, N):
    # positive root u of P N u^2 + N^2 u - (P+N)^2, the "proof"-form threshold on a^2
    return math.sqrt((-N * N + math.sqrt(N**4 + 4.0 * P * N * (P + N) ** 2)) / (2.0 * P * N))


def _a_star_decimal(P, N):
    # the same root in 40-digit decimal arithmetic, whose exponent range holds
    # N^4 and P N (P+N)^2 at any double P, N
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        P, N = decimal.Decimal(P), decimal.Decimal(N)
        u = 2 * (P + N) ** 2 / (N * N + (N**4 + 4 * P * N * (P + N) ** 2).sqrt())
        return float(u.sqrt())


def _shown_a_star(rep):
    return re.search(r"a\*\(P, N\) = ([^;]+);", rep.condition).group(1)


@pytest.mark.parametrize("P,N,N_f", [(1.0, 1.0, 0.5), (2.5, 0.7, 1.5)])
def test_se_verdict_matches_threshold_next_to_it(P, N, N_f):
    a_star = _a_star(P, N)
    inside = solve_state_estimate_fp(*_const(a_star * (1.0 - 6e-5), P=P, N=N, N_f=N_f))
    outside = solve_state_estimate_fp(*_const(a_star * (1.0 + 6e-5), P=P, N=N, N_f=N_f))
    assert inside.bounded and not outside.bounded
    assert outside.fixed_point is None
    assert max(inside.residuals) < 1e-12 * inside.mse
    assert f"{a_star:.6g}" in inside.condition and f"{a_star:.6g}" in outside.condition


def test_se_stated_form_takes_least_of_two_positive_roots():
    # 1 - k a^2 < 0 here, yet the stationary quadratic has two positive roots;
    # the recursion from (0, 0) stops at the smaller one
    kw = dict(a=3.0, b=0.01, P=10.0, N=1.0, N_f=0.05)
    rep = solve_state_estimate_fp(*_const(**kw), form="stated")
    assert rep.bounded
    long = predict_state_estimate_fb(SystemSchedule(T=20_000, V_xx0=0.0, **kw), form="stated")
    assert abs(long.sigma2[-1] - rep.fixed_point[0]) < 1e-10
    assert abs(long.vbar[-1] - rep.fixed_point[1]) < 1e-10
    assert rep.fixed_point == pytest.approx((1.1250e-4, 1.5177e-4), rel=1e-4)


@pytest.mark.parametrize(
    "args",
    [(1.3, 1.0, 1.0, 1.0, 1e160), (1.3, 1e100, 1.0, 1.0, 0.5), (1.3, 1e160, 1.0, 1.0, 0.5)],
    ids=["N_f_1e160", "b_1e100", "b_1e160"],
)
def test_se_unbounded_past_a_star_when_the_quadratic_overflows(args):
    # past a* no N_f or b gives a fixed point; B^2 (or b^2) overflowing must
    # not turn a cancelled root into sigbar2 = 0
    rep = solve_state_estimate_fp(*args)
    assert not rep.bounded and rep.fixed_point is None
    assert rep.condition.startswith("|a| = 1.3 >= a*(P, N) = 1.24962; no stationary point")


def test_se_stated_form_unbounded_when_the_discriminant_overflows():
    # h = -0.236 sb^2 - 1.69e200 sb - 7.3e99 has no nonnegative root
    rep = solve_state_estimate_fp(1.3, 1.0, 1.0, 1.0, 1e100, form="stated")
    assert not rep.bounded


@pytest.mark.parametrize(
    "N_f, point",
    [(1e160, (16.0 / 15.0, 0.08888888888888889)), (1.5e308, (16.0 / 15.0, 0.08888888888888889)),
     (1e-309, (64.0 / 59.0, 4.0 / 59.0))],
)
def test_se_fixed_point_at_extreme_N_f(N_f, point):
    # the least root in 300-digit arithmetic, never the 0 of a cancelled root.
    # N_f^2 overflows at 1e160, and B = 0.75 N_f - 1/15 too at 1.5e308; at
    # 1e-309 the constant term k b^2 N_f is no normal double, yet B ~ -1/15
    # fixes the positive root at the N_f -> 0 limit 4/59
    rep = solve_state_estimate_fp(0.5, 1.0, 1.0, 1.0, N_f)
    assert rep.fixed_point == pytest.approx(point, rel=1e-15)
    assert max(rep.residuals) <= 1e-15


@pytest.mark.parametrize(
    "args",
    [(0.5, 1e78, 1.0, 1.0, 0.5), (0.0, 1e160, 1.0, 1.0, 0.5), (0.0, 1e160, 1.0, 1.0, 0.0)],
    ids=["point_1e156", "b2_overflow", "b2_overflow_N_f_0"],
)
def test_se_point_past_the_double_range_is_one_error(args):
    # (0.5, 1e78, ...) has sigma2 = 1.0847e156 and sigbar2 = 6.7797e154, whose
    # squares overflow; at a = 0 sigma2 = b^2 = 1e320
    with pytest.raises(ValidationError, match="^the stationary equations leave the"):
        solve_state_estimate_fp(*args)


@pytest.mark.parametrize(
    "P,N,shown,bounded",
    [(1e-100, 1e-100, "1.24962", False), (1e154, 1e-100, "3.16228e+63", True),
     (1e100, 1e100, "1.24962", False)],
)
def test_se_condition_states_a_star_at_extreme_powers(P, N, shown, bounded):
    # a*(P, N) depends on P/N only; N^4 and 4 P N (P+N)^2 leave the range here
    rep = solve_state_estimate_fp(1.3, 1.0, P, N, 0.5)
    assert _shown_a_star(rep) == shown
    assert rep.bounded is bounded


def test_se_grid_verdict_residuals_and_a_star_or_one_error():
    # b, P, N log-uniform over 1e+-150 keep b^2 and mse normal; N_f spans
    # 1e+-300, so h's terms over- and underflow on part of the grid
    rng = np.random.default_rng(30)
    n = 5000
    a = rng.uniform(-2.0, 2.0, n)
    a[::20] = 0.0
    b, P, N = 10.0 ** rng.uniform(-150.0, 150.0, (3, n))
    N_f = 10.0 ** rng.uniform(-300.0, 300.0, n)
    forms = rng.choice(["proof", "stated"], n)
    checked = 0
    for args in zip(a.tolist(), b.tolist(), P.tolist(), N.tolist(), N_f.tolist(), forms.tolist()):
        try:
            rep = solve_state_estimate_fp(*args)
        except ValidationError as exc:
            assert "\n" not in str(exc)
            continue
        checked += 1
        if rep.bounded:
            assert max(rep.residuals) <= 1e-12 * rep.mse, args
        if args[5] == "proof":
            a_star = _a_star_decimal(args[2], args[3])
            assert _shown_a_star(rep) == f"{a_star:.6g}", args
            if abs(abs(args[0]) - a_star) > 1e-12 * a_star:
                assert rep.bounded == (abs(args[0]) < a_star), args
    assert checked > n // 2
