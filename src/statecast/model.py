"""Domain types shared by every regime: parameter schedules, the
measurement model, prediction series, and their validation.

Time convention used throughout the package
-------------------------------------------
The plant runs ``x(t+1) = a(t) x(t) + b(t) w(t)`` for ``t = 0..T-1`` with
``E x(0)^2 = V_xx0``.  The channel output at time 0 is fixed to zero, so the
receiver's first estimate is ``xhat(1) = 0`` and nothing useful is
transmitted at ``t = 0``; transmissions occur at ``t = 1..T-1`` and the
transmission at step ``t`` uses ``P(t)``, ``N(t)``, ``N_f(t)``.  Estimation
error is reported for ``t = 1..T``: per-step arrays of length ``T``
(predictions, recorded signals) store the value for time ``t`` at index
``t-1``.

``N_f(t) = +inf`` is a first-class value meaning "no feedback";
``N_f(t) = 0`` means noiseless feedback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "ValidationError",
    "SystemSchedule",
    "MeasurementModel",
    "VariancePrediction",
    "constant_values",
    "validate_schedule",
    "validate_measurement",
]

class ValidationError(ValueError):
    """An input violates a documented invariant.

    The message names the first violated constraint, including the step
    index for per-step constraints (e.g. ``"P(0) must be > 0"``).
    """


def _as_series(name: str, value, T: int) -> np.ndarray:
    """Broadcast a scalar to length ``T`` or pass a length-``T`` sequence through."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(T, float(arr))
    if arr.ndim != 1 or arr.shape[0] != T:
        raise ValidationError(
            f"{name} must be a scalar or a length-{T} sequence, got shape {arr.shape}"
        )
    return arr.copy()


@dataclass(frozen=True, eq=False)
class SystemSchedule:
    """Per-step plant and channel parameters.

    a, b, P, N, N_f are scalars (constant system) or length-``T`` sequences;
    ``validate_schedule`` broadcasts scalars so downstream code always sees
    arrays.  ``a(t)``/``b(t)`` govern the transition ``t -> t+1``; ``P(t)``,
    ``N(t)``, ``N_f(t)`` govern the transmission at step ``t`` (index 0 is
    carried but never used, since the first transmission is at ``t = 1``).
    """

    T: int
    a: Union[float, np.ndarray]
    b: Union[float, np.ndarray]
    P: Union[float, np.ndarray]
    N: Union[float, np.ndarray]
    N_f: Union[float, np.ndarray]
    V_xx0: float = 0.0


def constant_values(s: SystemSchedule) -> Optional[tuple]:
    """(a, b, P, N, N_f) of an already validated schedule, or None when
    some parameter changes over the horizon."""
    seqs = (s.a, s.b, s.P, s.N, s.N_f)
    for seq in seqs:
        values = seq.tolist()
        if values.count(values[0]) != len(values):
            return None
    return tuple(seq[0] for seq in seqs)


def validate_schedule(s: SystemSchedule) -> SystemSchedule:
    """Check all schedule invariants and normalize scalars to length-T arrays.

    Validating an already-expanded schedule returns an equal schedule
    (broadcasting is idempotent).  The first violated constraint is reported
    with its step index.
    """
    if not isinstance(s.T, (int, np.integer)) or isinstance(s.T, bool) or s.T < 1:
        raise ValidationError(f"T must be a positive integer, got {s.T!r}")
    T = int(s.T)
    a = _as_series("a", s.a, T)
    b = _as_series("b", s.b, T)
    P = _as_series("P", s.P, T)
    N = _as_series("N", s.N, T)
    N_f = _as_series("N_f", s.N_f, T)
    for name, seq in (("a", a), ("b", b)):
        for t, v in enumerate(seq.tolist()):
            if not math.isfinite(v):
                raise ValidationError(f"{name}({t}) must be finite")
    for name, seq in (("P", P), ("N", N)):
        for t, v in enumerate(seq.tolist()):
            if not (v > 0.0) or not math.isfinite(v):
                raise ValidationError(f"{name}({t}) must be > 0")
    for t, v in enumerate(N_f.tolist()):
        if not (v >= 0.0):
            raise ValidationError(f"N_f({t}) must be >= 0 (may be +inf)")
    V0 = float(s.V_xx0)
    if math.isnan(V0) or math.isinf(V0) or V0 < 0.0:
        raise ValidationError(f"V_xx0 must be a finite value >= 0, got {s.V_xx0!r}")
    return SystemSchedule(T=T, a=a, b=b, P=P, N=N, N_f=N_f, V_xx0=V0)


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Transmitter-side measurement ``gamma(t) = c x(t) + d v(t)``.

    The joint per-step covariance of ``(w(t), v(t))`` is given by
    ``V_ww``, ``V_wv``, ``V_vv`` for ``t = 0..T`` (one more entry than the
    schedule: the innovation variance at the final step is still needed).
    Scalars broadcast.
    """

    c: float
    d: float
    V_ww: Union[float, np.ndarray] = 1.0
    V_wv: Union[float, np.ndarray] = 0.0
    V_vv: Union[float, np.ndarray] = 0.0

    def noise_cov(self, t: int) -> np.ndarray:
        return np.array(
            [[self.V_ww[t], self.V_wv[t]], [self.V_wv[t], self.V_vv[t]]]
        )


def validate_measurement(m: MeasurementModel, T: int) -> MeasurementModel:
    """Broadcast the noise covariance entries to length T+1 and check PSD per step."""
    n = T + 1
    V_ww = _as_series("V_ww", m.V_ww, n)
    V_wv = _as_series("V_wv", m.V_wv, n)
    V_vv = _as_series("V_vv", m.V_vv, n)
    for t in range(n):
        if V_ww[t] < 0.0:
            raise ValidationError(f"V_ww({t}) must be >= 0")
        if V_vv[t] < 0.0:
            raise ValidationError(f"V_vv({t}) must be >= 0")
        # PSD of the 2x2 joint noise covariance, with a rounding allowance.
        if V_wv[t] ** 2 > V_ww[t] * V_vv[t] * (1.0 + 1e-12) + 1e-300:
            raise ValidationError(
                f"noise covariance at step {t} is not positive semidefinite"
            )
    if not (math.isfinite(m.c) and math.isfinite(m.d)):
        raise ValidationError("c and d must be finite")
    return MeasurementModel(c=float(m.c), d=float(m.d), V_ww=V_ww, V_wv=V_wv, V_vv=V_vv)


@dataclass(frozen=True, eq=False)
class VariancePrediction:
    """Deterministic per-step variance series for ``t = 1..T`` (index t-1).

    sigma2(t) is the transmit-side error variance (the squared scaling
    denominator of the encoder output), vbar(t) the variance of the residual
    the transmitter cannot see, and mse(t) = sigma2(t) + vbar(t) the total
    decoder error ``E|x(t) - xhat(t)|^2``.
    """

    sigma2: np.ndarray
    vbar: np.ndarray
    mse: np.ndarray

    @property
    def T(self) -> int:
        return len(self.sigma2)

    @property
    def t(self) -> np.ndarray:
        return np.arange(1, self.T + 1)

    def __post_init__(self):
        for name in ("sigma2", "vbar", "mse"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (len(self.sigma2) == len(self.vbar) == len(self.mse)):
            raise ValidationError("prediction series must share one length")

