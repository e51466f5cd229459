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
from typing import Optional

import numpy as np

from .model import (
    MeasurementModel,
    RegimeKind,
    SystemSchedule,
    ValidationError,
    VariancePrediction,
)
from . import recursions

__all__ = [
    "RegimeKind",
    "PREDICTORS",
    "RegimePlan",
    "Recorder",
    "build_plan",
    "check_regime_consistency",
    "run_closed_loop",
]


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

    The measurement model is kept only for the separation regime; the other
    regimes observe x(t) itself and ignore it.
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
    prediction, kf = predictor(s, measurement, form)

    a, P, N, N_f = (seq.tolist() for seq in (s.a, s.P, s.N, s.N_f))
    scale = np.zeros(T)
    K = np.zeros(T)
    rho = np.zeros(T)
    nofb = np.zeros(T, dtype=bool)
    sigma2 = prediction.sigma2.tolist()
    for t in range(1, T):
        gn = recursions.gains(a[t], P[t], N[t], sigma2[t - 1])
        scale[t - 1] = gn.scale
        K[t - 1] = gn.K
        if math.isinf(N_f[t]) or kind is RegimeKind.NO_FEEDBACK:
            nofb[t - 1] = True
        else:
            rho[t - 1] = N[t] / (N[t] + N_f[t])

    if kind is RegimeKind.STATE_ESTIMATE_FEEDBACK:
        g = np.zeros(T)
        c1 = np.zeros(T)
        vbar = prediction.vbar.tolist()
        for t in range(1, T):
            sb = vbar[t - 1]
            den = sb + N_f[t]
            g[t - 1] = a[t] * sb / den if den > 0.0 else 0.0
            c1[t - 1] = a[t] * N[t] / (P[t] + N[t])

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
    """Per-step hooks the closed-loop engine reports into.

    Every signal handed to a hook is one of the loop's reused (trials,)
    buffers, valid only during the call: a recorder that keeps a signal
    copies it, and one that reduces it does so before returning.  Hooks
    must not write into their arguments.
    """

    def start(self, T: int, width: int) -> None:  # pragma: no cover - interface
        pass

    def error(self, t: int, err) -> None:  # pragma: no cover - interface
        pass

    def transmit(self, t: int, x, z, y, y_f, xhat) -> None:  # pragma: no cover
        pass

    def final(self, T: int, x, xhat) -> None:  # pragma: no cover - interface
        pass


def run_closed_loop(plan: RegimePlan, x0, rows, recorder: Recorder) -> None:
    """Run the regime's filters over sampled noise.

    ``x0`` holds the initial states x(0); the loop takes it over as its
    state row, so it is overwritten.  ``rows(t)`` returns step t's
    already-scaled noise rows (w, n, n_f, v) as an iterable of slices that
    cover the trials in order: each slice is a tuple of equally long arrays
    for the next trials.  n_f is zero where N_f is 0 or +inf, and v, read
    only in the separation regime, is jointly drawn with w.  ``rows`` is
    called once per step, for t = 0, 1, ..., T-1 in order; the loop reads a
    slice only until it asks for the next one (or for the end of the step)
    and never writes it, so a source may reuse a slice's memory from then
    on.  x0 and every signal handed to ``recorder`` are (trials,) arrays,
    one trajectory per entry.  The signals live in (trials,) buffers
    allocated once per call and updated in place: 8 rows counting x0 (x,
    x(t+1), xhat, z, y, y_f, a scratch row and the tracker), 9 in the
    separation regime (plus the pre-filter's) and under state-estimate
    feedback (xcheck and a second scratch row in place of the tracker).  A
    hook's arguments are therefore valid only during the hook (see
    ``Recorder``); the fed-back output of a step without feedback is a
    read-only row of zeros.  Gains are read from the plan (index t-1 holds
    step t): scale, K, rho, no_feedback and, for state-estimate feedback, g
    and c1.

    Each step t = 1..T-1 has three parts: the ``error`` hook on whole rows;
    one pass over step t's slices that makes every update reading noise
    (the pre-filter, z, y, y_f and nhat, the tracker, x(t+1) into a second
    state row and, for state-estimate feedback, xcheck(t+1)); then the
    ``transmit`` hook on whole rows, the decoder update and the rest.  A
    hook sees whole rows, so the recorder's reductions keep their order.

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
    not rho * (n + n_f).  The in-place updates keep the association of the
    formulas above; at most the two operands of a product or a sum swap,
    which leaves every IEEE result unchanged.  Slicing changes no result:
    every element sees the same operations in the same order.
    """
    s = plan.schedule
    T = s.T
    a, b = s.a.tolist(), s.b.tolist()
    scale, K = plan.scale.tolist(), plan.K.tolist()
    width = len(x0)
    recorder.start(T, width)
    error, transmit = recorder.error, recorder.transmit
    x = x0
    x_next, xhat, z, y, y_f, tmp = np.zeros((6, width))  # xhat(1) = +0.0
    m = plan.measurement
    if m is not None:
        L = plan.prefilter.L.tolist()
        xb = np.empty(width)  # the pre-filter's prediction, then its estimate

    lo = 0
    for w, _, _, v in rows(0):
        hi = lo + len(w)
        xs, ts = x[lo:hi], tmp[lo:hi]
        if m is not None:
            xbs = np.multiply(xs, m.c, out=xb[lo:hi])
            xbs += np.multiply(v, m.d, out=ts)
            xbs *= L[0]
            xbs *= a[0]  # a (L (c x0 + d v(0)))
        xs *= a[0]
        xs += np.multiply(w, b[0], out=ts)  # x(1) = a x0 + b w(0)
        lo = hi

    if plan.kind is RegimeKind.STATE_ESTIMATE_FEEDBACK:
        g, c1 = plan.g.tolist(), plan.c1.tolist()
        xck, tmp2 = np.empty((2, width))
        xck[:] = x
        np.multiply(x, scale[0], out=z)
        for t in range(1, T):
            error(t, np.subtract(x, xhat, out=tmp))
            i = t - 1
            lo = 0
            for w, n, n_f, _ in rows(t):
                hi = lo + len(w)
                xs, xns, yfs, ts = x[lo:hi], x_next[lo:hi], y_f[lo:hi], tmp[lo:hi]
                np.add(z[lo:hi], n, out=y[lo:hi])
                np.add(xhat[lo:hi], n_f, out=yfs)
                np.multiply(xs, a[t], out=xns)
                xns += np.multiply(w, b[t], out=ts)  # a x + b w
                if t < T - 1:
                    # xck = c1 xck + (x_next - a x) + g ((x - xck) - y_f)
                    xcks, t2s = xck[lo:hi], tmp2[lo:hi]
                    np.subtract(xns, np.multiply(xs, a[t], out=ts), out=ts)
                    np.subtract(xs, xcks, out=t2s)
                    t2s -= yfs
                    t2s *= g[i]
                    xcks *= c1[i]
                    xcks += ts
                    xcks += t2s
                lo = hi
            transmit(t, x, z, y, y_f, xhat)
            xhat *= a[t]
            xhat += np.multiply(y, K[i], out=tmp)  # a xhat + K y
            if t < T - 1:
                np.multiply(xck, scale[t], out=z)
            x, x_next = x_next, x
        error(T, np.subtract(x, xhat, out=tmp))
        recorder.final(T, x, xhat)
        return

    rho, no_feedback = plan.rho.tolist(), plan.no_feedback.tolist()
    noiseless = plan.kind is RegimeKind.NOISELESS_FEEDBACK
    trk = np.zeros(width)  # the encoder's copy s(t) of the decoder state, s(1) = +0.0
    nothing = np.broadcast_to(0.0, (width,))  # the fed-back output without feedback
    for t in range(1, T):
        error(t, np.subtract(x, xhat, out=tmp))
        i = t - 1
        lo = 0
        for w, n, n_f, v in rows(t):
            hi = lo + len(w)
            xs, zs, ys, trks, ts = x[lo:hi], z[lo:hi], y[lo:hi], trk[lo:hi], tmp[lo:hi]
            if m is None:
                np.subtract(xs, trks, out=zs)
            else:
                # xb = xb + L ((c x + d v) - c xb), the filtered estimate,
                # with z's slice as scratch until z is formed
                xbs = xb[lo:hi]
                np.multiply(xs, m.c, out=ts)
                ts += np.multiply(v, m.d, out=zs)
                ts -= np.multiply(xbs, m.c, out=zs)
                ts *= L[t]
                xbs += ts
                np.subtract(xbs, trks, out=zs)
                xbs *= a[t]
            zs *= scale[i]
            np.add(zs, n, out=ys)
            if no_feedback[i]:
                z_nhat = np.add(zs, 0.0, out=ts)  # nhat = 0.0; the sum maps z = -0.0 to +0.0
            elif noiseless:
                z_nhat = ys
            else:
                yfs = np.add(ys, n_f, out=y_f[lo:hi])
                z_nhat = np.subtract(yfs, zs, out=ts)
                z_nhat *= rho[i]
                z_nhat += zs  # z + rho (y_f - z)
            trks *= a[t]
            trks += np.multiply(z_nhat, K[i], out=ts)  # a trk + K (z + nhat)
            xns = np.multiply(xs, a[t], out=x_next[lo:hi])
            xns += np.multiply(w, b[t], out=ts)
            lo = hi
        transmit(t, x, z, y, nothing if no_feedback[i] else y if noiseless else y_f, xhat)
        xhat *= a[t]
        xhat += np.multiply(y, K[i], out=tmp)
        x, x_next = x_next, x
    error(T, np.subtract(x, xhat, out=tmp))
    recorder.final(T, x, xhat)
