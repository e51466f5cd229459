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
from typing import Callable, Optional

import numpy as np

from .model import (
    MeasurementModel,
    RegimeKind,
    SystemSchedule,
    ValidationError,
    VariancePrediction,
)
from . import recursions, stationarity

__all__ = [
    "REGIMES",
    "Regime",
    "RegimeKind",
    "RegimePlan",
    "Recorder",
    "build_plan",
    "check_regime_consistency",
    "run_closed_loop",
]


@dataclass(frozen=True)
class Regime:
    """A row of ``REGIMES``: the predictor ``(s, measurement, form) ->
    (prediction, pre-filter or None)``, the stationarity check ``(constants,
    form)`` on the five constants (a, b, P, N, N_f) of ``constant_values``
    (None: the regime has none), the N_f rule ``(test of N_f(1..T-1),
    message)`` (None: any N_f goes) and whether a measurement model is read."""

    predict: Callable
    stationarity: Optional[Callable]
    nf_rule: Optional[tuple[Callable, str]] = None
    measured: bool = False


#: Every regime's row.  The lambdas look the predictors and checks up at
#: call time, so a wrapper installed in their modules is seen.
REGIMES = {
    RegimeKind.OUTPUT_FEEDBACK: Regime(
        lambda s, m, form: (recursions.predict_output_fb(s), None),
        lambda c, form: stationarity.check_output_fb(*c),
    ),
    RegimeKind.NO_FEEDBACK: Regime(
        lambda s, m, form: (recursions.predict_output_fb(s), None),
        lambda c, form: stationarity.check_output_fb(*c),
        (lambda nf: np.all(np.isinf(nf)), "no-feedback regime requires N_f = +inf throughout"),
    ),
    RegimeKind.NOISELESS_FEEDBACK: Regime(
        lambda s, m, form: (recursions.predict_noiseless_fb(s), None),
        lambda c, form: stationarity.check_noiseless(*c[:4]),
        (lambda nf: np.all(nf == 0.0), "noiseless-feedback regime requires N_f = 0 throughout"),
    ),
    RegimeKind.STATE_ESTIMATE_FEEDBACK: Regime(
        lambda s, m, form: (recursions.predict_state_estimate_fb(s, form=form), None),
        lambda c, form: stationarity.solve_state_estimate_fp(*c, form=form),
        (lambda nf: not np.isinf(nf).any(),
         "state-estimate feedback requires finite N_f; use the no-feedback regime"),
    ),
    RegimeKind.SEPARATION_OUTPUT_FEEDBACK: Regime(
        lambda s, m, form: recursions.separation_total(s, m), None, measured=True
    ),
}


def check_regime_consistency(
    s: SystemSchedule, kind: RegimeKind, measurement: Optional[MeasurementModel] = None
) -> tuple[Regime, Optional[MeasurementModel]]:
    """The regime's row and the measurement model it reads (None if it reads
    none), after rejecting an unknown regime, an N_f that breaks the row's
    rule (output feedback accepts any: its 0 and +inf limits are the other
    two regimes' filters) and a missing model or one not sized for t = 0..T."""
    regime = REGIMES.get(kind)
    if regime is None:
        raise ValidationError(f"unknown regime {kind!r}")
    if regime.nf_rule and not regime.nf_rule[0](s.N_f[1:]):  # N_f(0) carries no transmission
        raise ValidationError(regime.nf_rule[1])
    if not regime.measured:
        return regime, None
    if measurement is None:
        raise ValidationError("separation regime requires a measurement model")
    measurement.check_horizon(s.T)
    return regime, measurement


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
    regime, measurement = check_regime_consistency(s, kind, measurement)
    T = s.T
    g = None
    c1 = None
    prediction, kf = regime.predict(s, measurement, form)

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
        if math.isinf(N_f[t]):
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


def run_closed_loop(plan: RegimePlan, x0, rows, recorder: Recorder, work) -> None:
    """Run the regime's filters over sampled noise.

    ``x0`` holds the initial states x(0); the loop takes it over as its
    state row, so it is overwritten.  ``rows(t)`` returns step t's
    already-scaled noise rows (w, n, n_f, v), each as long as x0: n_f is
    zero where N_f is 0 or +inf, and v, read only in the separation regime,
    is jointly drawn with w.  ``rows`` is called once per step, for
    t = 0, 1, ..., T-1 in order, and the rows it returns are read only
    during step t and never written, so a source may reuse their memory
    once step t + 1 has asked for its own.  x0 and every signal handed to
    ``recorder`` are (trials,) arrays, one trajectory per entry.

    The other signals live in the rows of ``work``, an (8, trials) array
    that the caller allocates, and are updated in place: xhat, z, y, y_f, a
    scratch row and the tracker, plus the pre-filter's row in the separation
    regime; under state-estimate feedback xcheck, x(t+1) and a second
    scratch row take the tracker's place.  A hook's arguments are therefore
    valid only during the hook (see ``Recorder``); the fed-back output of a
    step without feedback is a read-only row of zeros.  ``monte_carlo``
    allocates ``work`` with the other rows of a leaf, in one block, on the
    thread that runs the leaf.  Gains
    are read from the plan (index t-1 holds step t): scale, K, rho,
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
    not rho * (n + n_f).  The in-place updates keep the association of the
    formulas above; at most the two operands of a product or a sum swap,
    which leaves every IEEE result unchanged.  Every trajectory sees the
    same operations whatever the width, so running the loop over parts of
    the trials changes no result.
    """
    s = plan.schedule
    T = s.T
    a, b = s.a.tolist(), s.b.tolist()
    scale, K = plan.scale.tolist(), plan.K.tolist()
    width = len(x0)
    recorder.start(T, width)
    error, transmit = recorder.error, recorder.transmit
    x = x0
    xhat, z, y, y_f, tmp = work[:5]
    xhat.fill(0.0)  # xhat(1) = +0.0
    m = plan.measurement

    w, _, _, v = rows(0)
    if m is not None:
        L = plan.prefilter.L.tolist()
        xb = work[6]  # the pre-filter's prediction, then its estimate
        np.multiply(x, m.c, out=xb)
        xb += np.multiply(v, m.d, out=tmp)
        xb *= L[0]
        xb *= a[0]  # a (L (c x0 + d v(0)))
    x *= a[0]
    x += np.multiply(w, b[0], out=tmp)  # x(1) = a x0 + b w(0)

    if plan.kind is RegimeKind.STATE_ESTIMATE_FEEDBACK:
        g, c1 = plan.g.tolist(), plan.c1.tolist()
        xck, x_next, tmp2 = work[5:]
        xck[:] = x
        np.multiply(x, scale[0], out=z)
        for t in range(1, T):
            error(t, np.subtract(x, xhat, out=tmp))
            w, n, n_f, _ = rows(t)
            i = t - 1
            np.add(z, n, out=y)
            np.add(xhat, n_f, out=y_f)
            transmit(t, x, z, y, y_f, xhat)
            xhat *= a[t]
            xhat += np.multiply(y, K[i], out=tmp)  # a xhat + K y
            np.multiply(x, a[t], out=x_next)
            x_next += np.multiply(w, b[t], out=tmp)  # a x + b w
            if t < T - 1:
                # xck = c1 xck + (x_next - a x) + g ((x - xck) - y_f)
                np.subtract(x_next, np.multiply(x, a[t], out=tmp), out=tmp)
                np.subtract(x, xck, out=tmp2)
                tmp2 -= y_f
                tmp2 *= g[i]
                xck *= c1[i]
                xck += tmp
                xck += tmp2
                np.multiply(xck, scale[t], out=z)
            x, x_next = x_next, x
        error(T, np.subtract(x, xhat, out=tmp))
        recorder.final(T, x, xhat)
        return

    rho, no_feedback = plan.rho.tolist(), plan.no_feedback.tolist()
    noiseless = plan.kind is RegimeKind.NOISELESS_FEEDBACK
    trk = work[5]  # the encoder's copy s(t) of the decoder state
    trk.fill(0.0)  # s(1) = +0.0
    nothing = np.broadcast_to(0.0, (width,))  # the fed-back output without feedback
    for t in range(1, T):
        error(t, np.subtract(x, xhat, out=tmp))
        w, n, n_f, v = rows(t)
        i = t - 1
        if m is None:
            np.subtract(x, trk, out=z)
        else:
            # xb = xb + L ((c x + d v) - c xb), the filtered estimate, with
            # z as scratch until z is formed
            np.multiply(x, m.c, out=tmp)
            tmp += np.multiply(v, m.d, out=z)
            tmp -= np.multiply(xb, m.c, out=z)
            tmp *= L[t]
            xb += tmp
            np.subtract(xb, trk, out=z)
            xb *= a[t]
        z *= scale[i]
        np.add(z, n, out=y)
        if no_feedback[i]:
            fed_back = nothing
            z_nhat = np.add(z, 0.0, out=tmp)  # nhat = 0.0; the sum maps z = -0.0 to +0.0
        elif noiseless:
            fed_back = z_nhat = y
        else:
            fed_back = np.add(y, n_f, out=y_f)
            z_nhat = np.subtract(y_f, z, out=tmp)
            z_nhat *= rho[i]
            z_nhat += z  # z + rho (y_f - z)
        trk *= a[t]
        trk += np.multiply(z_nhat, K[i], out=tmp)  # a trk + K (z + nhat)
        transmit(t, x, z, y, fed_back, xhat)
        xhat *= a[t]
        xhat += np.multiply(y, K[i], out=tmp)
        x *= a[t]
        x += np.multiply(w, b[t], out=tmp)
    error(T, np.subtract(x, xhat, out=tmp))
    recorder.final(T, x, xhat)
