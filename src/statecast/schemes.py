"""Per-step encoder/decoder filters for each regime, and the closed-loop
trajectory engine that composes them.

The filters are deterministic maps: all gains come from the recursions
module (encoder and decoder can both compute them offline), never from
online variance estimation.  Step functions accept floats or (trials,)
ndarrays in every signal slot, so single trajectories and vectorized Monte
Carlo share one code path.

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
    SchemeState,
    SystemSchedule,
    TrajectoryRecord,
    ValidationError,
    VariancePrediction,
    validate_measurement,
    validate_schedule,
)
from . import recursions

__all__ = [
    "RegimeKind",
    "PREDICTORS",
    "StepIO",
    "StepParams",
    "RegimePlan",
    "Recorder",
    "ArrayRecorder",
    "build_plan",
    "select_regime",
    "check_regime_consistency",
    "encoder_step_output_fb",
    "encoder_step_noiseless_fb",
    "encoder_step_state_estimate_fb",
    "encoder_step_separation",
    "decoder_step",
    "run_regime",
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


def select_regime(s: SystemSchedule, feedback: str = "output") -> RegimeKind:
    """Canonical regime for a schedule: N_f = +inf selects no feedback,
    N_f = 0 with output feedback selects the noiseless regime."""
    s = validate_schedule(s)
    if np.isinf(s.N_f).all():
        return RegimeKind.NO_FEEDBACK
    if feedback == "output":
        if np.all(s.N_f == 0.0):
            return RegimeKind.NOISELESS_FEEDBACK
        return RegimeKind.OUTPUT_FEEDBACK
    if feedback == "state_estimate":
        return RegimeKind.STATE_ESTIMATE_FEEDBACK
    raise ValidationError(f"unknown feedback signal {feedback!r}")


def check_regime_consistency(s: SystemSchedule, kind: RegimeKind) -> SystemSchedule:
    """Reject regime/schedule combinations whose filters and predictions
    would assume different feedback noise.  Output feedback accepts any
    N_f (its 0 and +inf limits are the other two regimes' filters)."""
    s = validate_schedule(s)
    active = s.N_f[1:]  # index 0 carries no transmission
    if kind is RegimeKind.NO_FEEDBACK and not np.all(np.isinf(active)):
        raise ValidationError("no-feedback regime requires N_f = +inf throughout")
    if kind is RegimeKind.NOISELESS_FEEDBACK and not np.all(active == 0.0):
        raise ValidationError("noiseless-feedback regime requires N_f = 0 throughout")
    if kind is RegimeKind.STATE_ESTIMATE_FEEDBACK and np.isinf(active).any():
        raise ValidationError(
            "state-estimate feedback requires finite N_f; use the no-feedback regime"
        )
    return s


@dataclass(frozen=True)
class StepIO:
    """Signals entering one encoder step.

    ``x_t`` is the current plant state (the measurement gamma(t) in the
    separation regime); ``y_f_prev`` is the feedback observation of the
    previous step, used only by the state-estimate regime; the noises are
    the already-scaled samples for the current step.
    """

    x_t: object
    y_f_prev: object = None
    n_t: object = 0.0
    n_f_t: object = 0.0


@dataclass(frozen=True)
class StepParams:
    """Deterministic per-step quantities from the plan."""

    t: int
    a: float
    scale: float
    K: float
    rho: float  # channel-noise estimation coefficient N/(N+N_f); 0 without feedback
    no_feedback: bool = False
    # state-estimate regime
    g: float = 0.0  # residual correction gain a*sigbar2/(sigbar2+N_f)
    c1: float = 0.0  # tracker pole aN/(P+N)
    scale_next: float = 0.0
    # separation regime
    L: float = 0.0  # pre-filter gain at this step
    c: float = 0.0
    d: float = 0.0


def encoder_step_output_fb(
    state: SchemeState, io: StepIO, p: StepParams
) -> tuple[object, SchemeState]:
    """Transmit the scaled tracker error and absorb the fed-back output.

    z(t) = scale * (x(t) - s(t)); the tracker update
    s(t+1) = a s(t) + K (z(t) + nhat(t)) uses
    nhat(t) = rho * (y_f(t) - z(t)) with y_f(t) = y(t) + n_f(t), which
    reduces to nhat = n exactly under noiseless feedback and to nhat = 0
    without feedback.
    """
    xck = io.x_t - state.enc
    z = p.scale * xck
    if p.no_feedback:
        nhat = 0.0
    else:
        y_f = z + io.n_t + io.n_f_t
        nhat = p.rho * (y_f - z)
    s_next = p.a * state.enc + p.K * (z + nhat)
    return z, SchemeState(state.xhat, s_next)


def encoder_step_noiseless_fb(
    state: SchemeState, io: StepIO, p: StepParams
) -> tuple[object, SchemeState]:
    """Noiseless-feedback encoder: the transmitter rebuilds the decoder state
    directly from the fed-back channel output y_f(t) = y(t)."""
    xtilde = io.x_t - state.enc
    z = p.scale * xtilde
    y_f = z + io.n_t
    s_next = p.a * state.enc + p.K * y_f
    return z, SchemeState(state.xhat, s_next)


def encoder_step_state_estimate_fb(
    state: SchemeState, io: StepIO, p: StepParams
) -> tuple[object, SchemeState]:
    """Advance the tracker after observing x(t+1) and y_f(t), then transmit.

    xcheck(t+1) = aN/(P+N) xcheck(t) + x(t+1) - a x(t)
                + g * (x(t) - xcheck(t) - y_f(t))
    with g = a*sigbar2/(sigbar2+N_f); the last term is the estimate of the
    residual the transmitter cannot see, reconstructed from the fed-back
    state estimate.  Emits z(t+1) = scale_{t+1} * xcheck(t+1).
    """
    xck, x_prev = state.enc
    xck_next = (
        p.c1 * xck
        + (io.x_t - p.a * x_prev)
        + p.g * (x_prev - xck - io.y_f_prev)
    )
    z = p.scale_next * xck_next
    return z, SchemeState(state.xhat, (xck_next, io.x_t))


def encoder_step_separation(
    state: SchemeState, io: StepIO, p: StepParams
) -> tuple[object, SchemeState]:
    """Pre-filter the measurement, then run the output-feedback encoder on
    the filtered estimate.  io.x_t carries gamma(t)."""
    s, xb_pred = state.enc
    xb_filt = xb_pred + p.L * (io.x_t - p.c * xb_pred)
    xck = xb_filt - s
    z = p.scale * xck
    if p.no_feedback:
        nhat = 0.0
    else:
        y_f = z + io.n_t + io.n_f_t
        nhat = p.rho * (y_f - z)
    s_next = p.a * s + p.K * (z + nhat)
    return z, SchemeState(state.xhat, (s_next, p.a * xb_filt))


def decoder_step(
    state: SchemeState, y_t: object, p: StepParams
) -> tuple[object, SchemeState]:
    """Shared decoder update xhat(t+1) = a xhat(t) + K(t) y(t)."""
    xhat_next = p.a * state.xhat + p.K * y_t
    return xhat_next, SchemeState(xhat_next, state.enc)


@dataclass(frozen=True, eq=False)
class RegimePlan:
    """Everything deterministic about one regime on one schedule: the
    prediction the run should match and the per-step gains the filters use.

    Arrays are indexed like predictions (index t-1 holds step t); gain
    entries at t = T are zero placeholders (no transmission there).
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

    def step(self, t: int) -> StepParams:
        """Parameters for the transmission step at time t (1 <= t <= T-1)."""
        s = self.schedule
        i = t - 1
        nxt = min(t, s.T - 1)
        return StepParams(
            t=t,
            a=s.a[t],
            scale=self.scale[i],
            K=self.K[i],
            rho=self.rho[i],
            no_feedback=bool(self.no_feedback[i]),
            g=self.g[i] if self.g is not None else 0.0,
            c1=self.c1[i] if self.c1 is not None else 0.0,
            scale_next=self.scale[nxt],
            L=self.prefilter.L[t] if self.prefilter is not None else 0.0,
            c=self.measurement.c if self.measurement is not None else 0.0,
            d=self.measurement.d if self.measurement is not None else 0.0,
        )


def build_plan(
    s: SystemSchedule,
    kind: RegimeKind,
    measurement: Optional[MeasurementModel] = None,
    form: str = "proof",
) -> RegimePlan:
    """Precompute predictions and per-step gains for a regime."""
    s = check_regime_consistency(s, kind)
    T = s.T
    g = None
    c1 = None
    predictor = PREDICTORS.get(kind)
    if predictor is None:
        raise ValidationError(f"unknown regime {kind!r}")
    if kind is RegimeKind.SEPARATION_OUTPUT_FEEDBACK:
        if measurement is None:
            raise ValidationError("separation regime requires a measurement model")
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

    def start(self, T: int, width) -> None:  # pragma: no cover - interface
        pass

    def error(self, t: int, err) -> None:  # pragma: no cover - interface
        pass

    def transmit(self, t: int, x, z, y, y_f, xhat) -> None:  # pragma: no cover
        pass


class ArrayRecorder(Recorder):
    """Stores full trajectories (single run or a small batch)."""

    def start(self, T, width):
        shape = (T,) if width is None else (T, width)
        self.x = np.zeros(shape)
        self.z = np.zeros(shape)
        self.y = np.zeros(shape)
        self.y_f = np.zeros(shape)
        self.xhat = np.zeros(shape)
        self.sq_err = np.zeros(shape)

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
    jointly drawn with w[t].  One trajectory per stream column.
    """
    s = plan.schedule
    T = s.T
    kind = plan.kind
    width = None if np.ndim(streams.x0) == 0 else len(streams.x0)
    recorder.start(T, width)
    zeros = 0.0 if width is None else np.zeros(width)

    x = s.a[0] * streams.x0 + s.b[0] * streams.w[0]
    xhat = zeros + 0.0

    if kind is RegimeKind.STATE_ESTIMATE_FEEDBACK:
        state = SchemeState(xhat=xhat, enc=(x, x))
        z = plan.scale[0] * x
        for t in range(1, T):
            recorder.error(t, x - state.xhat)
            p = plan.step(t)
            y = z + streams.n[t]
            y_f = state.xhat + streams.n_f[t]
            recorder.transmit(t, x, z, y, y_f, state.xhat)
            xhat, state = decoder_step(state, y, p)
            x_next = s.a[t] * x + s.b[t] * streams.w[t]
            if t < T - 1:
                io = StepIO(x_t=x_next, y_f_prev=y_f)
                z, state = encoder_step_state_estimate_fb(state, io, p)
            x = x_next
        recorder.error(T, x - state.xhat)
        if hasattr(recorder, "final"):
            recorder.final(T, x, state.xhat)
        return

    if kind is RegimeKind.SEPARATION_OUTPUT_FEEDBACK:
        m = plan.measurement
        gamma0 = m.c * streams.x0 + m.d * streams.v[0]
        xb_filt = plan.prefilter.L[0] * gamma0
        state = SchemeState(xhat=xhat, enc=(zeros + 0.0, s.a[0] * xb_filt))
        step_fn = encoder_step_separation
    else:
        state = SchemeState(xhat=xhat, enc=zeros + 0.0)
        step_fn = (
            encoder_step_noiseless_fb
            if kind is RegimeKind.NOISELESS_FEEDBACK
            else encoder_step_output_fb
        )

    for t in range(1, T):
        recorder.error(t, x - state.xhat)
        p = plan.step(t)
        if kind is RegimeKind.SEPARATION_OUTPUT_FEEDBACK:
            x_in = plan.measurement.c * x + plan.measurement.d * streams.v[t]
        else:
            x_in = x
        io = StepIO(x_t=x_in, n_t=streams.n[t], n_f_t=streams.n_f[t])
        z, state = step_fn(state, io, p)
        y = z + streams.n[t]
        if p.no_feedback:
            y_f = zeros + 0.0
        elif kind is RegimeKind.NOISELESS_FEEDBACK:
            y_f = y
        else:
            y_f = y + streams.n_f[t]
        recorder.transmit(t, x, z, y, y_f, state.xhat)
        xhat, state = decoder_step(state, y, p)
        x = s.a[t] * x + s.b[t] * streams.w[t]
    recorder.error(T, x - state.xhat)
    if hasattr(recorder, "final"):
        recorder.final(T, x, state.xhat)


def run_regime(
    s: SystemSchedule,
    kind: RegimeKind,
    streams,
    measurement: Optional[MeasurementModel] = None,
    form: str = "proof",
) -> TrajectoryRecord:
    """Run one full synchronized trajectory and package it.

    ``streams`` must carry length-T rows (see
    ``simulate.sample_gaussian_streams``); stream/schedule length mismatches
    are rejected.
    """
    s = validate_schedule(s)
    if np.shape(streams.w)[0] != s.T or np.shape(streams.n)[0] != s.T:
        raise ValidationError("noise streams must have length T")
    plan = build_plan(s, kind, measurement=measurement, form=form)
    rec = ArrayRecorder()
    run_closed_loop(plan, streams, rec)
    return TrajectoryRecord(
        seed=getattr(streams, "seed", 0),
        x=rec.x,
        z=rec.z,
        y=rec.y,
        y_f=rec.y_f,
        xhat=rec.xhat,
        sq_err=rec.sq_err,
    )
