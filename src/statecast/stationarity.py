"""Boundedness tests and stationary fixed points for constant schedules.

Boundedness here means the total decoder error mse(t) = sigma2(t) + vbar(t)
stays bounded as the horizon grows.  Thresholds:

* noiseless feedback: log2|a| < C, the channel capacity, equivalently
  a^2 N / (N + P) < 1;
* noisy or absent feedback (N_f > 0, including +inf): |a| < 1.  The
  residual vbar accumulates at rate a^2 with a strictly positive drive, so
  the spectral radius of the error system is |a| itself.  (For the
  no-feedback case the transmit-side variance sigma2 alone would stay
  bounded up to |a| < (P+N)/N, but the reported error includes the residual
  and diverges at |a| >= 1.)
* state-estimate feedback: the recursion from (0, 0) is monotone, so it
  converges to the least stationary pair when one exists.  Eliminating
  sigma2 leaves a quadratic in sigbar2 whose least nonnegative root is that
  pair, in closed form.  For the default residual form it exists iff
  |a| < a*(P, N), the positive root of P N u^2 + N^2 u = (P+N)^2 in
  u = a^2 (a* ~ 1.2496 at P = N = 1), independent of N_f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from .model import SIGBAR_FORMS, RegimeKind, SystemSchedule, ValidationError, constant_values
from .recursions import ntilde_variance, se_step

__all__ = [
    "STATIONARITY_CHECKS",
    "StationaryReport",
    "channel_capacity",
    "check_noiseless",
    "check_output_fb",
    "solve_state_estimate_fp",
]


@dataclass(frozen=True)
class StationaryReport:
    """Outcome of a stationarity check.

    ``fixed_point`` is (sigma2, sigbar2) when a bounded stationary solution
    exists (sigbar2 carries the feedback-residual variance; stationary mse
    is their sum); ``residuals`` are the absolute defects of the stationary
    equations at the reported point.
    """

    regime: RegimeKind
    bounded: bool
    condition: str
    capacity: float
    fixed_point: Optional[tuple[float, float]] = None
    residuals: tuple[float, ...] = ()

    @property
    def mse(self) -> Optional[float]:
        if self.fixed_point is None:
            return None
        return self.fixed_point[0] + self.fixed_point[1]

    def to_dict(self) -> dict:
        fp = None
        if self.fixed_point is not None:
            fp = {
                "sigma2": self.fixed_point[0],
                "sigbar2": self.fixed_point[1],
                "mse": self.mse,
            }
        return {
            "regime": self.regime.value,
            "bounded": self.bounded,
            "condition": self.condition,
            "capacity": self.capacity,
            "fixed_point": fp,
            "residuals": list(self.residuals),
        }


def channel_capacity(P: float, N: float) -> float:
    """Capacity of the scalar Gaussian channel, 0.5*log2(1 + P/N) bits."""
    if P <= 0.0 or N <= 0.0:
        raise ValidationError("P and N must be > 0")
    return 0.5 * math.log2(1.0 + P / N)


def _constants(s: SystemSchedule) -> tuple[float, float, float, float, float]:
    values = constant_values(s)
    if values is None:
        raise ValidationError("stationarity checks require a constant schedule")
    return tuple(float(v) for v in values)


def check_noiseless(s: SystemSchedule) -> StationaryReport:
    """Noiseless-feedback boundedness: log2|a| < C, strictly.

    Bounded case: sigma2* = b^2 / (1 - a^2 N/(N+P)), residual zero.
    """
    a, b, P, N, _ = _constants(s)
    C = channel_capacity(P, N)
    ratio = a * a * N / (N + P)
    bounded = ratio < 1.0
    cond = (
        f"log2|a| = {math.log2(abs(a)) if a != 0 else -math.inf:.6g} "
        f"{'<' if bounded else '>='} C = {C:.6g} (need strict inequality)"
    )
    if not bounded:
        return StationaryReport(
            regime=RegimeKind.NOISELESS_FEEDBACK,
            bounded=False,
            condition=cond,
            capacity=C,
        )
    sigma2 = b * b / (1.0 - ratio)
    res = abs(sigma2 - (ratio * sigma2 + b * b))
    return StationaryReport(
        regime=RegimeKind.NOISELESS_FEEDBACK,
        bounded=True,
        condition=cond,
        capacity=C,
        fixed_point=(sigma2, 0.0),
        residuals=(res,),
    )


def check_output_fb(s: SystemSchedule) -> StationaryReport:
    """Output-feedback boundedness and fixed point for a constant schedule.

    N_f = 0 delegates to the noiseless check.  For N_f > 0 (finite or
    +inf) a stationary solution exists iff |a| < 1; the fixed point solves
    the linear pair

        sigma2 = rho_s * sigma2 + b^2,   rho_s = a^2 (N^2 + P*Var(nhat-free))/...
        vbar   = a^2 vbar + K*^2 Var(ntilde)

    where rho_s = a^2 N^2 (P+N+N_f) / ((P+N)^2 (N+N_f)) for finite N_f and
    a^2 N^2/(P+N)^2 without feedback.
    """
    a, b, P, N, N_f = _constants(s)
    if N_f == 0.0:
        return replace(check_noiseless(s), regime=RegimeKind.OUTPUT_FEEDBACK)
    C = channel_capacity(P, N)
    regime = (
        RegimeKind.NO_FEEDBACK if math.isinf(N_f) else RegimeKind.OUTPUT_FEEDBACK
    )
    bounded = abs(a) < 1.0
    cond = f"|a| = {abs(a):.6g} {'<' if bounded else '>='} 1 (residual accumulates at rate a^2 for N_f > 0)"
    if math.isinf(N_f):
        cond += (
            f"; transmit-side sigma2 alone is bounded iff |a| < (P+N)/N = {(P+N)/N:.6g}"
        )
    if not bounded:
        return StationaryReport(regime=regime, bounded=False, condition=cond, capacity=C)
    if math.isinf(N_f):
        rho_s = a * a * N * N / (P + N) ** 2
    else:
        rho_s = a * a * N * N * (P + N + N_f) / ((P + N) ** 2 * (N + N_f))
    sigma2 = b * b / (1.0 - rho_s)
    Kstar2 = a * a * P * sigma2 / (P + N) ** 2
    drive = Kstar2 * ntilde_variance(N, N_f)
    vbar = drive / (1.0 - a * a)
    residuals = (
        abs(sigma2 - (rho_s * sigma2 + b * b)),
        abs(vbar - (a * a * vbar + drive)),
    )
    return StationaryReport(
        regime=regime,
        bounded=True,
        condition=cond,
        capacity=C,
        fixed_point=(sigma2, vbar),
        residuals=residuals,
    )


def _se_residuals(
    v: tuple[float, float], a, b, P, N, N_f, form
) -> tuple[float, float]:
    f1, f2 = se_step(v[0], v[1], a, b, P, N, N_f, form)
    return (abs(f1 - v[0]), abs(f2 - v[1]))


def _a_star(P: float, N: float) -> float:
    """Largest |a| with a stationary point under the "proof" residual form.

    1 - k a^2 > 0 reads P N u^2 + N^2 u - (P+N)^2 < 0 in u = a^2; this is
    its positive root, written without cancellation.
    """
    r = math.sqrt(N**4 + 4.0 * P * N * (P + N) ** 2)
    return math.sqrt(2.0 * (P + N) ** 2 / (N * N + r))


def _least_root(A: float, B: float, C: float) -> Optional[float]:
    """Least nonnegative root of A x^2 + B x + C, or None if it has none."""
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        return None
    q = -0.5 * (B + math.copysign(math.sqrt(disc), B))
    if q == 0.0:  # B = 0 and A*C = 0
        return 0.0 if C == 0.0 else None
    roots = [C / q] + ([q / A] if A != 0.0 else [])
    return min((abs(x) for x in roots if x >= 0.0), default=None)  # abs: -0.0 -> 0.0


def solve_state_estimate_fp(s: SystemSchedule, form: str = "proof") -> StationaryReport:
    """Stationary pair (sigma2, sigbar2) for state-estimate feedback.

    ``se_step`` is monotone in (sigma2, sigbar2), so the recursion from
    (0, 0) converges to the least fixed point when one exists and diverges
    otherwise.  With c_s = a^2 N^2/(P+N)^2, c_v = a^2 P N/(P+N)^2 and
    k = c_v/(1 - c_s), eliminating
    sigma2 = (a^2 sb^2/(sb + N_f) + b^2)/(1 - c_s) leaves

        h(sb) = (1 - k a^2) sb^2 + (N_f - a^2 f - k b^2) sb - k b^2 N_f

    with f = N_f for ``form="proof"`` and N_f^2 for ``"stated"``.  A fixed
    point exists iff c_s < 1 and h has a nonnegative root; sigbar2 is the
    least one.  For "proof" that holds iff |a| < a*(P, N), whatever N_f and
    b != 0.  The residuals of the stationary equations at the returned
    point are reported.
    """
    a, b, P, N, N_f = _constants(s)
    if math.isinf(N_f):
        raise ValidationError("state-estimate feedback requires finite N_f")
    if form not in SIGBAR_FORMS:
        raise ValidationError(f"form must be one of {SIGBAR_FORMS}, got {form!r}")
    C = channel_capacity(P, N)
    regime = RegimeKind.STATE_ESTIMATE_FEEDBACK

    a2, b2 = a * a, b * b
    c_s = a2 * N * N / (P + N) ** 2
    if b == 0.0:
        point = (0.0, 0.0)
        cond = "b = 0: nothing drives the recursion, which stays at (0, 0)"
    else:
        sb = None
        if c_s < 1.0:
            k = a2 * P * N / (P + N) ** 2 / (1.0 - c_s)
            f = N_f if form == "proof" else N_f * N_f
            A, B = 1.0 - k * a2, N_f - a2 * f - k * b2
            # At N_f = 0, h = sb (A sb + B), and sb = 0 is no fixed point
            # (se_step takes its den = 0 branch), so only A sb + B counts.
            sb = _least_root(A, B, -k * b2 * N_f) if N_f > 0.0 else _least_root(0.0, A, B)
        point = None
        if sb is not None:
            # se_step(0, sb)[0] = a^2 sb^2/(sb + N_f) + b^2, guarded at sb + N_f = 0
            point = (se_step(0.0, sb, a, b, P, N, N_f, form)[0] / (1.0 - c_s), sb)
        cond = (
            "sigbar2 is the least nonnegative root of the stationary quadratic h"
            if point is not None
            else "no stationary point, so the recursion from (0, 0) diverged"
        )
        if form == "proof":
            cond = (
                f"|a| = {abs(a):.6g} {'<' if point is not None else '>='} "
                f"a*(P, N) = {_a_star(P, N):.6g}; {cond}"
            )
    if point is None:
        return StationaryReport(regime=regime, bounded=False, condition=cond, capacity=C)
    return StationaryReport(
        regime=regime,
        bounded=True,
        condition=cond,
        capacity=C,
        fixed_point=point,
        residuals=_se_residuals(point, a, b, P, N, N_f, form),
    )


#: Each regime's stationarity check: ``STATIONARITY_CHECKS[kind](s, form)``.
#: The separation regime has none.  The lambdas look the checks up at call
#: time, so a wrapper installed in this module is seen.
STATIONARITY_CHECKS = {
    RegimeKind.OUTPUT_FEEDBACK: lambda s, form: check_output_fb(s),
    RegimeKind.NO_FEEDBACK: lambda s, form: check_output_fb(s),
    RegimeKind.NOISELESS_FEEDBACK: lambda s, form: check_noiseless(s),
    RegimeKind.STATE_ESTIMATE_FEEDBACK: lambda s, form: solve_state_estimate_fp(s, form=form),
}
