"""Deterministic gain and variance recursions for every regime.

All functions are pure: they consume a schedule, which checked itself when
it was built (and, for the separation pipeline, a measurement model), and
produce gain or variance series.  No sampling happens here; the Monte Carlo
and exact-conditioning modules validate these recursions independently.

Feedback-noise limits are explicit branches, never floating-point infinity
arithmetic: with feedback noise ``N_f`` the encoder's channel-noise estimate
``nhat`` has variance ``N^2/(N+N_f)`` (``N`` at ``N_f=0``, ``0`` at
``N_f=+inf``) and the unestimable remainder ``ntilde = n - nhat`` has
variance ``N*N_f/(N+N_f)`` (``0`` at ``N_f=0``, ``N`` at ``N_f=+inf``).

Residual recursion for state-estimate feedback
----------------------------------------------
Two variants of the feedback-residual update circulate.  Deriving the
variance directly from the filter's state equations gives

    sigbar2' = a^2 * N_f * sigbar2 / (sigbar2 + N_f)
             + a^2 * P * N / (P + N)^2 * sigma2

(``form="proof"``, the default), while the alternative carries an extra
``N_f`` factor on the first term (``form="stated"``).  The two match at
``N_f = 0`` and at ``N_f = 1``; the "stated" form diverges as ``N_f -> inf`` instead of
recovering the no-feedback recursion, and only the default agrees with the
exact conditioning oracle and with Monte Carlo, so the default is the
correct update and "stated" is kept for comparison only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    SIGBAR_FORMS,
    MeasurementModel,
    SystemSchedule,
    ValidationError,
    VariancePrediction,
)

__all__ = [
    "Gains",
    "KalmanPrefilter",
    "gains",
    "nhat_variance",
    "ntilde_variance",
    "predict_output_fb",
    "predict_noiseless_fb",
    "predict_state_estimate_fb",
    "kalman_prefilter",
    "predict_separation",
    "separation_total",
    "SIGBAR_FORMS",
]


@dataclass(frozen=True)
class Gains:
    """Per-step filter gains derived from the transmit-side variance.

    K = a * sqrt(sigma2) * sqrt(P) / (P + N); scale * sqrt(sigma2) = sqrt(P)
    whenever sigma2 > 0, and scale = 0 at the sigma2 = 0 degeneracy (nothing
    informative to send, so the encoder emits 0 and the decoder coasts).
    """

    K: float
    scale: float


def gains(a: float, P: float, N: float, sigma2: float) -> Gains:
    """Decoder gain and encoder scaling for one step."""
    if P <= 0.0 or N <= 0.0:
        raise ValidationError("P and N must be > 0")
    if sigma2 < 0.0:
        raise ValidationError(f"sigma2 must be >= 0, got {sigma2}")
    sigma = math.sqrt(sigma2)
    sqrtP = math.sqrt(P)
    scale = sqrtP / sigma if sigma > 0.0 else 0.0
    return Gains(K=a * (sigma * sqrtP / (P + N)), scale=scale)


def nhat_variance(N: float, N_f: float) -> float:
    """Variance of the encoder's channel-noise estimate from fed-back output."""
    if math.isinf(N_f):
        return 0.0
    return N * N / (N + N_f)


def ntilde_variance(N: float, N_f: float) -> float:
    """Variance of the channel-noise remainder the encoder cannot estimate."""
    if math.isinf(N_f):
        return N
    return N * N_f / (N + N_f)


def _sq(x: float) -> float:
    """x ** 2 of a Python float as numpy's float64 scalar computes it: by
    libm's pow, whose result a product x * x does not always match, and as
    inf, not an ``OverflowError``, past the largest double."""
    try:
        return x**2
    except OverflowError:
        return math.inf


def _finite_prediction(sigma2, vbar, mse) -> VariancePrediction:
    """The prediction, or a ``ValidationError`` naming the first step whose
    mse overflowed to inf or became NaN (as it does when any term does)."""
    finite = np.isfinite(mse)
    if not finite.all():
        raise ValidationError(
            f"predicted mse at step {int(np.argmin(finite))} is not finite"
        )
    return VariancePrediction(sigma2=sigma2, vbar=vbar, mse=mse)


def predict_output_fb(s: SystemSchedule) -> VariancePrediction:
    """Variance series for output feedback (any N_f, including 0 and +inf).

    Iterates the 2x2 covariance of (s, x) from (0, 0, V_xx0); step 0 is a
    pure plant propagation (no transmission), then each step t = 1..T-1
    applies the transmission update with its own parameters:
    A cov A' + diag(K^2 * Var(nhat), b^2) with
    A = [[aN/(P+N), aP/(P+N)], [0, a]], kept symmetric through its (0, 1)
    entry.  The numpy 2x2 product defines the bits.  sigma2 = V_ss - 2 V_sx
    + V_xx, and vbar accumulates the unestimable channel-noise remainder:
    vbar(t+1) = a^2 vbar(t) + K(t)^2 * Var(ntilde).  A covariance that stops
    being finite and PSD, or whose sigma2 overflows or cancels to a negative
    value, is a ``ValidationError`` naming its step, as is a vbar or mse
    that overflows; no ``RuntimeWarning`` escapes.
    """
    T = s.T
    a_, b_, P_, N_, N_f_ = (seq.tolist() for seq in (s.a, s.b, s.P, s.N, s.N_f))
    sigma2 = np.empty(T)
    vbar = np.empty(T)
    vbar[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        vss, vsx, vxx = 0.0, 0.0, _sq(a_[0]) * s.V_xx0 + _sq(b_[0])
        sigma2[0] = vss - 2.0 * vsx + vxx
        for t in range(1, T):
            a, b, P, N, N_f = a_[t], b_[t], P_[t], N_[t], N_f_[t]
            K = gains(a, P, N, sigma2[t - 1]).K
            A = np.array([[a * N / (P + N), a * P / (P + N)], [0.0, a]])
            m = A @ np.array([[vss, vsx], [vsx, vxx]]) @ A.T
            vss = m[0, 0] + K * K * nhat_variance(N, N_f)
            vsx = m[0, 1]
            vxx = m[1, 1] + b * b
            sig = vss - 2.0 * vsx + vxx
            scale = max(vss, vxx, 1.0)  # PSD up to a rounding allowance
            if not (
                math.isfinite(vss)
                and math.isfinite(vsx)
                and math.isfinite(vxx)
                and math.isfinite(sig)
                and sig >= 0.0
                and min(vss, vxx) >= -1e-9 * scale
                and vsx**2 <= vss * vxx + 1e-9 * scale**2
            ):
                raise ValidationError(
                    f"covariance of (s, x) at step {t} is not finite and PSD: "
                    f"V_ss = {vss:.6g}, V_sx = {vsx:.6g}, V_xx = {vxx:.6g}, "
                    f"sigma2 = {sig:.6g}"
                )
            sigma2[t] = sig
            vbar[t] = _sq(a) * vbar[t - 1] + _sq(K) * ntilde_variance(N, N_f)
        mse = sigma2 + vbar
    return _finite_prediction(sigma2, vbar, mse)


def predict_noiseless_fb(s: SystemSchedule) -> VariancePrediction:
    """Variance series under noiseless output feedback (N_f entries ignored).

    sigma2(1) = a(0)^2 V_xx0 + b(0)^2, then
    sigma2(t+1) = (N/(N+P)) a^2 sigma2(t) + b^2.  The transmitter tracks the
    decoder exactly, so vbar = 0 and mse = sigma2.  A sigma2 that overflows
    is a ``ValidationError`` naming its step.
    """
    T = s.T
    a, b, P, N = (seq.tolist() for seq in (s.a, s.b, s.P, s.N))
    sigma2 = np.empty(T)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma2[0] = _sq(a[0]) * s.V_xx0 + _sq(b[0])
        for t in range(1, T):
            ratio = N[t] / (N[t] + P[t])
            sigma2[t] = ratio * _sq(a[t]) * sigma2[t - 1] + _sq(b[t])
    return _finite_prediction(sigma2, np.zeros(T), sigma2.copy())


def se_step(
    sigma2: float,
    sigbar2: float,
    a: float,
    b: float,
    P: float,
    N: float,
    N_f: float,
    form: str = "proof",
) -> tuple[float, float]:
    """One step of the coupled (sigma2, sigbar2) recursion for
    state-estimate feedback.  ``form`` selects the residual update variant
    (see the module docstring), which the caller has checked; 0/0 at
    sigbar2 = N_f = 0 resolves to 0.
    """
    a2 = a * a
    den = sigbar2 + N_f
    quart = a2 * sigbar2**2 / den if den > 0.0 else 0.0
    next_sigma2 = a2 * N * N / (P + N) ** 2 * sigma2 + quart + b * b
    drive = a2 * P * N / (P + N) ** 2 * sigma2
    if den > 0.0:
        nf_fac = N_f if form == "proof" else N_f * N_f
        next_sigbar2 = a2 * nf_fac * sigbar2 / den + drive
    else:
        next_sigbar2 = drive
    return next_sigma2, next_sigbar2


def predict_state_estimate_fb(
    s: SystemSchedule, form: str = "proof"
) -> VariancePrediction:
    """Variance series when the decoder's state estimate is fed back.

    Starts from sigma2(1) = a(0)^2 V_xx0 + b(0)^2 and sigbar2(1) = 0 (the
    receiver's first estimate is deterministic, so the transmitter knows the
    full error), then iterates ``se_step``.  Requires finite N_f(1..T-1)
    (N_f(0) carries no transmission).  A variance that overflows is a
    ``ValidationError`` naming its step.
    """
    if form not in SIGBAR_FORMS:
        raise ValidationError(f"form must be one of {SIGBAR_FORMS}, got {form!r}")
    if np.isinf(s.N_f[1:]).any():
        raise ValidationError(
            "state-estimate feedback requires finite N_f; use the no-feedback regime"
        )
    T = s.T
    sigma2 = np.empty(T)
    sigbar2 = np.empty(T)
    sigbar2[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        sigma2[0] = s.a[0] ** 2 * s.V_xx0 + s.b[0] ** 2
        for t in range(1, T):
            sigma2[t], sigbar2[t] = se_step(
                sigma2[t - 1],
                sigbar2[t - 1],
                s.a[t],
                s.b[t],
                s.P[t],
                s.N[t],
                s.N_f[t],
                form,
            )
        mse = sigma2 + sigbar2
    return _finite_prediction(sigma2, sigbar2, mse)


@dataclass(frozen=True, eq=False)
class KalmanPrefilter:
    """Transmitter-side filter sequences for the separation pipeline.

    L(t) and V_xixi(t) cover t = 0..T (prediction-error variance before the
    measurement at t), beta2(t) covers t = 0..T-1 (equivalent process-noise
    variance of the filtered-estimate chain), and V_xixi_filt(t) is the
    filtered error variance after the measurement at t.  V_xbreve0 is
    Var xbreve(0|0), the initial variance of the filtered-estimate chain.
    """

    L: np.ndarray
    V_xixi: np.ndarray
    beta2: np.ndarray
    V_xixi_filt: np.ndarray
    V_xbreve0: float

    @property
    def beta(self) -> np.ndarray:
        return np.sqrt(self.beta2)


@np.errstate(over="ignore", invalid="ignore")
def kalman_prefilter(s: SystemSchedule, m: MeasurementModel) -> KalmanPrefilter:
    """Scalar Kalman filter for the transmitter's measurement chain.

    gamma(t) = c x(t) + d v(t) with jointly distributed (w(t), v(t)).
    Gains: L(t) = c V_xixi(t) / (c^2 V_xixi(t) + d^2 V_vv(t)); the error
    propagates as xi(t+1) = (a - aLc) xi(t) + b w(t) - a L d v(t), so the
    drive term is the quadratic form of [b, -aLd] with the joint noise
    covariance.  V_xixi(0) = V_xx0.  A zero innovation variance at any step
    is reported as an error, as is a gain or variance that overflows or
    becomes NaN.
    """
    m.check_horizon(s.T)
    T = s.T
    a_, b_ = s.a.tolist(), s.b.tolist()
    c, d = m.c, m.d
    L = np.empty(T + 1)
    V = np.empty(T + 1)
    V_filt = np.empty(T + 1)
    beta2 = np.empty(T)
    V[0] = s.V_xx0
    for t in range(T + 1):
        V_vv = m.at(t)[2]
        innov = c * c * V[t] + d * d * V_vv
        if innov <= 0.0:
            raise ValidationError(f"degenerate innovation variance at step {t}")
        L[t] = V[t] * c / innov
        V_filt[t] = (1.0 - L[t] * c) ** 2 * V[t] + L[t] ** 2 * d * d * V_vv
        if t > 0:
            beta2[t - 1] = L[t] ** 2 * innov
        if t < T:
            a, b = a_[t], b_[t]
            noise = np.array([b, -a * L[t] * d])
            V[t + 1] = (a - a * L[t] * c) ** 2 * V[t] + noise @ m.noise_cov(t) @ noise
    V_xbreve0 = L[0] ** 2 * (_sq(c) * s.V_xx0 + _sq(d) * m.at(0)[2])
    if not all(np.isfinite(x).all() for x in (L, V, V_filt, beta2, V_xbreve0)):
        raise ValidationError("pre-filter gain or variance is not finite")
    return KalmanPrefilter(
        L=L, V_xixi=V, beta2=beta2, V_xixi_filt=V_filt, V_xbreve0=V_xbreve0
    )


def predict_separation(s: SystemSchedule, m: MeasurementModel) -> VariancePrediction:
    """Total decoder error when the transmitter only sees gamma(t).

    The communication stage is the output-feedback predictor applied to the
    filtered-estimate chain (b replaced by beta); the pre-filter's own
    filtered error is irreducible and adds on top:
    mse_total(t) = mse_comm(t) + V_xixi_filt(t).

    Exact when V_wv = 0; with cross-correlated (w, v) the stated filter is
    not the conditional mean, so the additive split is an approximation.
    """
    return separation_total(s, m)[0]


def separation_total(
    s: SystemSchedule, m: MeasurementModel
) -> tuple[VariancePrediction, KalmanPrefilter]:
    """(total prediction, prefilter) of the separation pipeline; the total
    carries the communication stage's sigma2, which sets its gains.

    The communication stage runs on the filtered-estimate chain: same pole,
    process gain beta(t), initial variance Var xbreve(0|0).
    """
    kf = kalman_prefilter(s, m)
    comm = predict_output_fb(
        SystemSchedule(T=s.T, a=s.a, b=kf.beta, P=s.P, N=s.N, N_f=s.N_f, V_xx0=kf.V_xbreve0)
    )
    extra = kf.V_xixi_filt[1:]
    total = VariancePrediction(
        sigma2=comm.sigma2, vbar=comm.vbar + extra, mse=comm.mse + extra
    )
    return total, kf
