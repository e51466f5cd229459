"""Domain types shared by every regime: parameter schedules, the
measurement model and the Monte Carlo configuration, which check themselves
when built, the regime and residual-form names, prediction series and the
CSV number format.  Parsing a config needs this module alone, so it imports
no other part of the package.

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
from enum import Enum
from typing import Union

import numpy as np

__all__ = [
    "ValidationError",
    "SystemSchedule",
    "MeasurementModel",
    "VariancePrediction",
    "constant_values",
]

class ValidationError(ValueError):
    """An input violates a documented invariant.

    The message names the first violated constraint, including the step
    index for per-step constraints (e.g. ``"P(0) must be > 0"``).
    """


class RegimeKind(Enum):
    OUTPUT_FEEDBACK = "output_feedback"
    NO_FEEDBACK = "no_feedback"
    NOISELESS_FEEDBACK = "noiseless_feedback"
    STATE_ESTIMATE_FEEDBACK = "state_estimate_feedback"
    SEPARATION_OUTPUT_FEEDBACK = "separation_output_feedback"


#: The residual recursions of state-estimate feedback (see ``recursions``).
SIGBAR_FORMS = ("proof", "stated")


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_series(name: str, value, T: int) -> np.ndarray:
    """``value`` as a float array, not copied, checked to be a scalar or of length ``T``."""
    arr = np.asarray(value, dtype=float)
    if arr.shape not in ((), (T,)):
        raise ValidationError(
            f"{name} must be a scalar or a length-{T} sequence, got shape {arr.shape}"
        )
    return arr


@dataclass(frozen=True, eq=False)
class SystemSchedule:
    """Per-step plant and channel parameters.

    a, b, P, N, N_f are given as scalars (constant system) or length-``T``
    sequences and stored as length-``T`` float arrays.  ``a(t)``/``b(t)``
    govern the transition ``t -> t+1``; ``P(t)``, ``N(t)``, ``N_f(t)`` govern
    the transmission at step ``t`` (index 0 is carried but never used, since
    the first transmission is at ``t = 1``).

    The fields are checked once, when the schedule is built: the first
    violated constraint is a ``ValidationError`` naming its step.  Use
    ``dataclasses.replace`` to make a changed schedule.
    """

    T: int
    a: Union[float, np.ndarray]
    b: Union[float, np.ndarray]
    P: Union[float, np.ndarray]
    N: Union[float, np.ndarray]
    N_f: Union[float, np.ndarray]
    V_xx0: float = 0.0

    def __post_init__(self):
        T = self.T
        if not _is_int(T) or T < 1:
            raise ValidationError(f"T must be a positive integer, got {T!r}")
        T = int(T)
        series = {name: np.full(T, _as_series(name, getattr(self, name), T))
                  for name in ("a", "b", "P", "N", "N_f")}
        for name in ("a", "b"):
            for t, v in enumerate(series[name].tolist()):
                if not math.isfinite(v):
                    raise ValidationError(f"{name}({t}) must be finite")
        for name in ("P", "N"):
            for t, v in enumerate(series[name].tolist()):
                if not (v > 0.0) or not math.isfinite(v):
                    raise ValidationError(f"{name}({t}) must be > 0")
        for t, v in enumerate(series["N_f"].tolist()):
            if not (v >= 0.0):
                raise ValidationError(f"N_f({t}) must be >= 0 (may be +inf)")
        V0 = float(self.V_xx0)
        if math.isnan(V0) or math.isinf(V0) or V0 < 0.0:
            raise ValidationError(f"V_xx0 must be a finite value >= 0, got {self.V_xx0!r}")
        for name, value in (("T", T), *series.items(), ("V_xx0", V0)):
            object.__setattr__(self, name, value)


def constant_values(s: SystemSchedule, names=("a", "b", "P", "N", "N_f")) -> tuple:
    """The named parameters of a schedule as floats, by default the five
    constants the stationarity checks take; a ``ValidationError`` when one
    changes over the steps that read it: a and b over 0..T-1, P, N and N_f
    over 1..T-1 (step 0 carries no transmission)."""
    first = 1 if s.T > 1 else 0
    seqs = [getattr(s, n).tolist()[0 if n in ("a", "b") else first:] for n in names]
    if any(seq.count(seq[0]) != len(seq) for seq in seqs):
        raise ValidationError("stationarity checks require a constant schedule")
    return tuple(seq[0] for seq in seqs)


_COV = ("V_ww", "V_wv", "V_vv")


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Transmitter-side measurement ``gamma(t) = c x(t) + d v(t)``.

    The joint per-step covariance of ``(w(t), v(t))`` is given by
    ``V_ww``, ``V_wv``, ``V_vv`` for ``t = 0..T`` (one more entry than the
    schedule: the innovation variance at the final step is still needed).
    Scalars broadcast; the entries are checked once, when the model is built.
    """

    c: float
    d: float
    V_ww: Union[float, np.ndarray] = 1.0
    V_wv: Union[float, np.ndarray] = 0.0
    V_vv: Union[float, np.ndarray] = 0.0

    def __post_init__(self):
        cov = [np.array(getattr(self, name), dtype=float) for name in _COV]
        # The sequences must share one length; a scalar stands for every step.
        n = max((arr.size for arr in cov if arr.ndim), default=1)
        steps = [np.full(n, _as_series(name, arr, n)).tolist() for name, arr in zip(_COV, cov)]
        for t, (V_ww, V_wv, V_vv) in enumerate(zip(*steps)):
            if V_ww < 0.0:
                raise ValidationError(f"V_ww({t}) must be >= 0")
            if V_vv < 0.0:
                raise ValidationError(f"V_vv({t}) must be >= 0")
            for name, v in zip(_COV, (V_ww, V_wv, V_vv)):
                if not math.isfinite(v):
                    raise ValidationError(f"{name}({t}) must be finite")
            # PSD of the 2x2 joint noise covariance, with a rounding allowance.
            if V_wv * V_wv > V_ww * V_vv * (1.0 + 1e-12) + 1e-300:
                raise ValidationError(
                    f"noise covariance at step {t} is not positive semidefinite"
                )
        if not (math.isfinite(self.c) and math.isfinite(self.d)):
            raise ValidationError("c and d must be finite")
        for name, value in (("c", float(self.c)), ("d", float(self.d)), *zip(_COV, cov)):
            object.__setattr__(self, name, value)

    def check_horizon(self, T: int) -> None:
        """Reject sequences that do not hold the steps t = 0..T; reads only lengths."""
        for name in _COV:
            _as_series(name, getattr(self, name), T + 1)

    def at(self, t: int) -> tuple[float, float, float]:
        """(V_ww, V_wv, V_vv) of step t."""
        cov = (self.V_ww, self.V_wv, self.V_vv)
        return tuple(float(arr[t] if arr.ndim else arr) for arr in cov)

    def noise_cov(self, t: int) -> np.ndarray:
        V_ww, V_wv, V_vv = self.at(t)
        return np.array([[V_ww, V_wv], [V_wv, V_vv]])


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

    def __post_init__(self):
        for name in ("sigma2", "vbar", "mse"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (len(self.sigma2) == len(self.vbar) == len(self.mse)):
            raise ValidationError("prediction series must share one length")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run configuration, checked when it is built.

    ``seed`` keys the noise streams as one unsigned 64-bit word, so it must
    lie in [0, 2**64): no two accepted seeds draw the same noise.
    """

    trials: int
    seed: int

    def __post_init__(self):
        if not _is_int(self.trials):
            raise ValidationError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not _is_int(self.seed) or not 0 <= self.seed < 1 << 64:
            raise ValidationError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        # Python ints: a numpy integer would wrap in the run's leaf arithmetic.
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))


def format_float(x: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return f"{x:.17g}"


def csv_table(header: str, columns, footer=()) -> str:
    """CSV text: the ``header`` line, then for t = 1, 2, ... a row of t and
    each column's entry t-1 in ``format_float``, then the ``footer`` lines."""
    rows = zip(*(col.tolist() for col in columns))
    lines = [header]
    lines += [",".join([str(t), *map(format_float, row)]) for t, row in enumerate(rows, 1)]
    lines += footer
    return "\n".join(lines) + "\n"
