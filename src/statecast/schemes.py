"""Regime plans (the deterministic per-step gains of each regime's
encoder/decoder pair) and the closed loop that runs those filters over
sampled noise.

The filters are deterministic maps: all gains come from the recursions
module (encoder and decoder can both compute them offline), never from
online variance estimation.  ``run_closed_loop`` holds the filter
equations; every signal is a (trials,) ndarray, one trajectory per entry,
so one trajectory is a width-1 column.

Step ordering for state-estimate feedback (the update equations do not pin
it down by themselves): observe x(t+1), receive y_f(t), update the tracker,
then transmit z(t+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .model import (
    MeasurementModel,
    SystemSchedule,
    ValidationError,
    VariancePrediction,
    validate_measurement,
)
from . import recursions

__all__ = [
    "RegimeKind",
    "PREDICTORS",
    "RegimePlan",
    "Recorder",
    "ArrayRecorder",
    "build_plan",
    "check_regime_consistency",
    "run_closed_loop",
]


class RegimeKind(Enum):
    OUTPUT_FEEDBACK = "output_feedback"
    NO_FEEDBACK = "no_feedback"
    NOISELESS_FEEDBACK = "noiseless_feedback"
    STATE_ESTIMATE_FEEDBACK = "state_estimate_feedback"
    SEPARATION_OUTPUT_FEEDBACK = "separation_output_feedback"


#: Each regime's variance predictor: ``PREDICTORS[kind](s, measurement, form)``
#: returns the prediction and the separation pipeline's pre-filter (None in
#: the other regimes).  The lambdas look the predictors up in ``recursions``
#: at call time, so a wrapper installed there is seen.
PREDICTORS = {
    RegimeKind.OUTPUT_FEEDBACK: lambda s, m, form: (recursions.predict_output_fb(s), None),
    RegimeKind.NO_FEEDBACK: lambda s, m, form: (recursions.predict_output_fb(s), None),
    RegimeKind.NOISELESS_FEEDBACK: lambda s, m, form: (recursions.predict_noiseless_fb(s), None),
    RegimeKind.STATE_ESTIMATE_FEEDBACK: lambda s, m, form: (
        recursions.predict_state_estimate_fb(s, form=form),
        None,
    ),
    RegimeKind.SEPARATION_OUTPUT_FEEDBACK: lambda s, m, form: recursions.separation_total(s, m),
}


def check_regime_consistency(s: SystemSchedule, kind: RegimeKind) -> None:
    """Reject regime/schedule combinations whose filters and predictions
    would assume different feedback noise.  Output feedback accepts any
    N_f (its 0 and +inf limits are the other two regimes' filters)."""
    active = s.N_f[1:]  # index 0 carries no transmission
    if kind is RegimeKind.NO_FEEDBACK and not np.all(np.isinf(active)):
        raise ValidationError("no-feedback regime requires N_f = +inf throughout")
    if kind is RegimeKind.NOISELESS_FEEDBACK and not np.all(active == 0.0):
        raise ValidationError("noiseless-feedback regime requires N_f = 0 throughout")
    if kind is RegimeKind.STATE_ESTIMATE_FEEDBACK and np.isinf(active).any():
        raise ValidationError(
            "state-estimate feedback requires finite N_f; use the no-feedback regime"
        )


@dataclass(frozen=True, eq=False)
class RegimePlan:
    """Everything deterministic about one regime on one schedule: the
    prediction the run should match and the per-step gains the filters use.

    Arrays are indexed like predictions (index t-1 holds step t); gain
    entries at t = T are zero placeholders (no transmission there).  g and
    c1 are set only for state-estimate feedback, measurement and prefilter
    only for the separation regime.
    """

    schedule: SystemSchedule
    kind: RegimeKind
    prediction: VariancePrediction
    scale: np.ndarray
    K: np.ndarray
    rho: np.ndarray
    no_feedback: np.ndarray
    g: Optional[np.ndarray] = None
    c1: Optional[np.ndarray] = None
    measurement: Optional[MeasurementModel] = None
    prefilter: Optional[recursions.KalmanPrefilter] = None


def build_plan(
    s: SystemSchedule,
    kind: RegimeKind,
    measurement: Optional[MeasurementModel] = None,
    form: str = "proof",
) -> RegimePlan:
    """Precompute predictions and per-step gains for a regime.

    The measurement model is kept, and validated, only for the separation
    regime; the other regimes observe x(t) itself and ignore it.
    """
    check_regime_consistency(s, kind)
    T = s.T
    g = None
    c1 = None
    predictor = PREDICTORS.get(kind)
    if predictor is None:
        raise ValidationError(f"unknown regime {kind!r}")
    if kind is not RegimeKind.SEPARATION_OUTPUT_FEEDBACK:
        measurement = None
    elif measurement is None:
        raise ValidationError("separation regime requires a measurement model")
    else:
        measurement = validate_measurement(measurement, T)
    prediction, kf = predictor(s, measurement, form)

    scale = np.zeros(T)
    K = np.zeros(T)
    rho = np.zeros(T)
    nofb = np.zeros(T, dtype=bool)
    for t in range(1, T):
        gn = recursions.gains(s.a[t], s.P[t], s.N[t], prediction.sigma2[t - 1])
        scale[t - 1] = gn.scale
        K[t - 1] = gn.K
        if math.isinf(s.N_f[t]) or kind is RegimeKind.NO_FEEDBACK:
            nofb[t - 1] = True
        else:
            rho[t - 1] = s.N[t] / (s.N[t] + s.N_f[t])

    if kind is RegimeKind.STATE_ESTIMATE_FEEDBACK:
        g = np.zeros(T)
        c1 = np.zeros(T)
        for t in range(1, T):
            sb = prediction.vbar[t - 1]
            den = sb + s.N_f[t]
            g[t - 1] = s.a[t] * sb / den if den > 0.0 else 0.0
            c1[t - 1] = s.a[t] * s.N[t] / (s.P[t] + s.N[t])

    return RegimePlan(
        schedule=s,
        kind=kind,
        prediction=prediction,
        scale=scale,
        K=K,
        rho=rho,
        no_feedback=nofb,
        g=g,
        c1=c1,
        measurement=measurement,
        prefilter=kf,
    )


class Recorder:
    """Per-step hooks the closed-loop engine reports into."""

    def start(self, T: int, width: int) -> None:  # pragma: no cover - interface
        pass

    def error(self, t: int, err) -> None:  # pragma: no cover - interface
        pass

    def transmit(self, t: int, x, z, y, y_f, xhat) -> None:  # pragma: no cover
        pass

    def final(self, T: int, x, xhat) -> None:  # pragma: no cover - interface
        pass


class ArrayRecorder(Recorder):
    """Stores every signal as a (T, trials) array, row t-1 holding step t.

    z, y and y_f are zero in row T-1 (no transmission at the final step),
    and y_f is zero wherever feedback is absent.
    """

    def start(self, T, width):
        self.x = np.zeros((T, width))
        self.z = np.zeros((T, width))
        self.y = np.zeros((T, width))
        self.y_f = np.zeros((T, width))
        self.xhat = np.zeros((T, width))
        self.sq_err = np.zeros((T, width))

    def error(self, t, err):
        self.sq_err[t - 1] = err * err

    def transmit(self, t, x, z, y, y_f, xhat):
        self.x[t - 1] = x
        self.z[t - 1] = z
        self.y[t - 1] = y
        self.y_f[t - 1] = y_f
        self.xhat[t - 1] = xhat

    def final(self, T, x, xhat):
        self.x[T - 1] = x
        self.xhat[T - 1] = xhat


def run_closed_loop(plan: RegimePlan, streams, recorder: Recorder) -> None:
    """Run the regime's filters over sampled noise streams.

    ``streams`` provides already-scaled samples: x0, w[t], n[t], n_f[t]
    (zeros where N_f is 0 or +inf) and, for the separation regime, v[t]
    jointly drawn with w[t].  x0 and every row are (trials,) arrays, one
    trajectory per entry, and so is every signal handed to ``recorder``.
    Gains are read from the plan (index t-1 holds step t): scale, K, rho,
    no_feedback and, for state-estimate feedback, g and c1.

    Every regime shares the plant x(t+1) = a x(t) + b w(t), the channel
    y(t) = z(t) + n(t) and the decoder xhat(t+1) = a xhat(t) + K(t) y(t),
    with xhat(1) = 0.

    Output family (output, noiseless and no feedback, separation): the
    encoder keeps a tracker s(t) of the decoder, s(1) = 0, and sends the
    scaled tracker error z(t) = scale * (x(t) - s(t)), then updates
    s(t+1) = a s(t) + K (z(t) + nhat(t)).  nhat(t) = rho * (y_f(t) - z(t))
    estimates the channel noise from the fed-back output
    y_f(t) = y(t) + n_f(t); it is 0 without feedback, and under noiseless
    feedback (y_f = y) the update is s(t+1) = a s(t) + K y(t), which rebuilds
    the decoder state exactly.  In the separation regime the encoder sees
    gamma(t) = c x(t) + d v(t) and sends the Kalman pre-filter's estimate
    instead of x(t): xbreve(t) = xbreve_pred(t) + L(t) (gamma(t) - c
    xbreve_pred(t)) with xbreve_pred(t+1) = a xbreve(t), started from
    xbreve(0) = L(0) gamma(0).

    State-estimate feedback: the decoder feeds back y_f(t) = xhat(t) +
    n_f(t), and the encoder keeps xcheck(t), xcheck(1) = x(1), and sends
    z(t) = scale(t) xcheck(t).  After observing x(t+1) and y_f(t):
    xcheck(t+1) = aN/(P+N) xcheck(t) + x(t+1) - a x(t)
    + g * (x(t) - xcheck(t) - y_f(t)), with g = a sigbar2 / (sigbar2 + N_f);
    the last term is the estimate of the residual the transmitter cannot
    see, reconstructed from the fed-back decoder estimate.

    The order of every floating-point operation is part of the golden
    files: nhat is formed as rho * (y_f - z) = rho * ((z + n + n_f) - z),
    not rho * (n + n_f).
    """
    s = plan.schedule
    T = s.T
    a, b = s.a.tolist(), s.b.tolist()
    scale, K = plan.scale.tolist(), plan.K.tolist()
    width = len(streams.x0)
    recorder.start(T, width)
    error, transmit = recorder.error, recorder.transmit
    zeros = np.zeros(width)

    x = a[0] * streams.x0 + b[0] * streams.w[0]
    xhat = zeros + 0.0

    if plan.kind is RegimeKind.STATE_ESTIMATE_FEEDBACK:
        g, c1 = plan.g.tolist(), plan.c1.tolist()
        xck = x
        z = scale[0] * x
        for t in range(1, T):
            error(t, x - xhat)
            i = t - 1
            y = z + streams.n[t]
            y_f = xhat + streams.n_f[t]
            transmit(t, x, z, y, y_f, xhat)
            xhat = a[t] * xhat + K[i] * y
            x_next = a[t] * x + b[t] * streams.w[t]
            if t < T - 1:
                xck = c1[i] * xck + (x_next - a[t] * x) + g[i] * (x - xck - y_f)
                z = scale[t] * xck
            x = x_next
        error(T, x - xhat)
        recorder.final(T, x, xhat)
        return

    rho, no_feedback = plan.rho.tolist(), plan.no_feedback.tolist()
    noiseless = plan.kind is RegimeKind.NOISELESS_FEEDBACK
    m = plan.measurement
    if m is not None:
        L = plan.prefilter.L.tolist()
        xb_pred = a[0] * (L[0] * (m.c * streams.x0 + m.d * streams.v[0]))
    trk = zeros + 0.0  # the encoder's copy s(t) of the decoder state
    for t in range(1, T):
        error(t, x - xhat)
        i = t - 1
        if m is None:
            z = scale[i] * (x - trk)
        else:
            xb_filt = xb_pred + L[t] * ((m.c * x + m.d * streams.v[t]) - m.c * xb_pred)
            z = scale[i] * (xb_filt - trk)
            xb_pred = a[t] * xb_filt
        y = z + streams.n[t]
        if no_feedback[i]:
            y_f = zeros + 0.0
            trk = a[t] * trk + K[i] * (z + 0.0)  # nhat = 0.0; the sum maps z = -0.0 to +0.0
        elif noiseless:
            y_f = y
            trk = a[t] * trk + K[i] * y
        else:
            y_f = y + streams.n_f[t]
            trk = a[t] * trk + K[i] * (z + rho[i] * (y_f - z))
        transmit(t, x, z, y, y_f, xhat)
        xhat = a[t] * xhat + K[i] * y
        x = a[t] * x + b[t] * streams.w[t]
    error(T, x - xhat)
    recorder.final(T, x, xhat)

