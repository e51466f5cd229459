"""Seeded Monte Carlo harness and the exact joint-Gaussian conditioning
oracle used as an independent correctness reference.

Random numbers
--------------
Streams are counter-based and keyed: the sample for (seed, trial, stream, t)
is produced by a Philox generator keyed with (seed, stream, t) at position
``trial``, so it is a pure function of those four values, independent of
the trial count, of the horizon, and of which thread draws it and when.
Normal deviates come from numpy's ziggurat sampler (``standard_normal``);
golden files are tied to the numpy release documented in the README.

``monte_carlo`` draws step t's rows inside the closed loop, so its memory
is O(M): a fixed number of (M,) rows, allocated once per run, with nothing
allocated per step.  Rows come in blocks of ceil(2**16 / M) steps, drawn
in place into one slab with a slot per block in flight, and the closed
loop keeps its signals in preallocated rows too.  From M = 4096 trials on,
helper threads, one fewer than the usable CPUs (none with one CPU), draw
the next blocks while the loop runs the current one; numpy releases the
GIL both in the sampler and in the (M,)-wide arithmetic of the loop.  When
the loop catches up with the helpers, it draws the queued blocks they have
not started itself.  Narrower rows are drawn inline, because setting up
each row's generator holds the GIL longer than sampling it releases it.
The results do not depend on the number of helpers, and nothing sets it.
``sample_gaussian_streams`` draws the same rows into (T, M) arrays.

Aggregation sums each per-step statistic over the trial axis with numpy's
pairwise reduction, whose order is fixed by the array shape, so identical
configurations produce bitwise-identical summaries.

Oracle
------
``exact_conditioning_oracle`` unrolls the closed-loop linear system in the
basis of unit-variance noises and reports two exact per-step error series:

* ``mse``, the conditional-mean error ``E|x(t) - E[x(t)|y^{t-1}]|^2`` by
  block conditioning (the best estimate any decoder could produce from the
  realized transmissions), and
* ``scheme_mse``, the realized filter pair's error, evaluated from the
  same coefficients with no recourse to the variance recursions.

Each signal is a row of D coefficients, one per noise (x(0), w(0..T-1),
n(1..T-1), n_f(1..T-1) and, for separation, v(0..T-1); ``_Unroller`` gives
the indices), kept in preallocated (T, D) arrays for x and xhat and a
(T-1, D) array for y, so every dot product runs over the same D entries in
the same order.  Conditioning on y(1..t-1) takes ``np.linalg.pinv`` of the
past rows' Gram matrix, so LAPACK's SVD is part of the ``mse`` bits.

``scheme_mse`` reproduces the recursions' mse for every regime.  ``mse``
coincides with it only under noiseless output feedback: in every other
regime the transmissions are correlated with past channel outputs, so the
one-tap recursive decoder is not the exact conditional mean and the joint
conditioning is strictly better from t = 3 on.  See the README for the
worked 3-step example.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

from .model import (
    MeasurementModel,
    SystemSchedule,
    ValidationError,
    VariancePrediction,
    validate_measurement,
)
from .schemes import (
    Recorder,
    RegimeKind,
    build_plan,
    check_regime_consistency,
    run_closed_loop,
)

__all__ = [
    "McConfig",
    "McSummary",
    "NoiseStreams",
    "OracleResult",
    "sample_gaussian_streams",
    "monte_carlo",
    "exact_conditioning_oracle",
    "format_float",
    "csv_table",
    "CSV_HEADER",
    "ORACLE_HORIZON_MAX",
]

# Stream identifiers baked into generator keys; reordering would change
# every golden file.
_STREAM_X0 = 0
_STREAM_W = 1
_STREAM_N = 2
_STREAM_NF = 3
_STREAM_V = 4

ORACLE_HORIZON_MAX = 12
# Relative cutoff below which ``np.linalg.pinv`` drops singular values of the
# past outputs' covariance in the oracle.
_PINV_RCOND = 1e-12

# Trial-steps per block of rows that a helper thread draws ahead: a block is
# ceil(_BLOCK_ELEMENTS / M) steps, so small M hands over many steps at once.
_BLOCK_ELEMENTS = 1 << 16
# Fewest trials for which helpers draw ahead.  A narrower row spends more of
# its time setting up its generator under the GIL than sampling outside it,
# so a helper mostly contends with the loop for the GIL: on 2 CPUs, drawing
# ahead made the loop 33% slower at M = 1024, 8% faster at M = 2048 and 32%
# faster at M = 4096.
_THREADED_TRIALS = 1 << 12

CSV_HEADER = "t,pred_sigma2,pred_vbar,pred_mse,emp_mse,emp_se,emp_zpow"


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


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run configuration, checked when it is built."""

    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")


def _row(seed: int, stream: int, t: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with unit normals keyed by (seed, stream, t), entry i
    belonging to trial i, and return it."""
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64((stream << 48) | t)],
        dtype=np.uint64,
    )
    return Generator(Philox(key=key)).standard_normal(out=out)


@dataclass(frozen=True, eq=False)
class NoiseStreams:
    """Already-scaled noise samples, one trajectory per column.

    x0 has shape (M,), the others (T, M); row t holds the step-t samples.
    n rows carry variance N(t), n_f rows N_f(t) (zeros where N_f is 0 or
    +inf), and (w, v) rows are jointly drawn with the measurement-noise
    covariance when a measurement model is present.
    """

    seed: int
    x0: np.ndarray
    w: np.ndarray
    n: np.ndarray
    n_f: np.ndarray
    v: Optional[np.ndarray] = None

    @property
    def trials(self) -> int:
        return len(self.x0)


def _wv_factor(m: MeasurementModel, t: int) -> tuple[float, float, float]:
    """Cholesky factor (l11, l21, l22) of step t's (w, v) covariance."""
    l11 = math.sqrt(m.V_ww[t])
    l21 = m.V_wv[t] / l11 if l11 > 0.0 else 0.0
    l22 = math.sqrt(max(m.V_vv[t] - l21 * l21, 0.0))
    return l11, l21, l22


def _step_rows(
    s: SystemSchedule,
    m: Optional[MeasurementModel],
    seed: int,
    t: int,
    out,
    scratch: Optional[np.ndarray],
    zeros: np.ndarray,
) -> tuple:
    """Draw step t's scaled noise rows into ``out`` = (w, n, n_f[, v]) and
    return the rows to read, (w, n, n_f, v).

    Rows that carry no noise (n at t = 0, n_f where N_f(t) is 0 or +inf)
    are left untouched in ``out`` and read as ``zeros``; v is None without
    a measurement model, and (w, v) are otherwise drawn jointly with the
    measurement-noise covariance, through the (M,) row ``scratch``.
    """
    w = _row(seed, _STREAM_W, t, out[0])
    v = None
    if m is not None:
        l11, l21, l22 = _wv_factor(m, t)
        v = _row(seed, _STREAM_V, t, out[3])
        v *= l22
        v += np.multiply(w, l21, out=scratch)  # v = l21 e1 + l22 e2
        w *= l11
    n = n_f = zeros
    if t > 0:
        n = _row(seed, _STREAM_N, t, out[1])
        n *= math.sqrt(s.N[t])
        if 0.0 < s.N_f[t] < math.inf:
            n_f = _row(seed, _STREAM_NF, t, out[2])
            n_f *= math.sqrt(s.N_f[t])
    return w, n, n_f, v


def sample_gaussian_streams(
    s: SystemSchedule,
    cfg: McConfig,
    measurement: Optional[MeasurementModel] = None,
) -> NoiseStreams:
    """Draw all noise streams for ``cfg.trials`` trajectories.

    Identical (seed, trial, stream, t) always yields the identical sample;
    distinct streams use distinct generator keys and are independent.
    """
    T, M = s.T, cfg.trials
    if measurement is not None:
        measurement = validate_measurement(measurement, T)

    x0 = math.sqrt(s.V_xx0) * _row(cfg.seed, _STREAM_X0, 0, np.empty(M))
    w = np.zeros((T, M))
    n = np.zeros((T, M))
    n_f = np.zeros((T, M))
    v = None if measurement is None else np.zeros((T, M))
    scratch = None if measurement is None else np.empty(M)
    # Rows that carry no noise stay zero, so the rows to read are not needed.
    zeros = np.zeros(M)
    for t in range(T):
        out = (w[t], n[t], n_f[t]) if v is None else (w[t], n[t], n_f[t], v[t])
        _step_rows(s, measurement, cfg.seed, t, out, scratch, zeros)
    return NoiseStreams(seed=cfg.seed, x0=x0, w=w, n=n, n_f=n_f, v=v)


_pool_lock = threading.Lock()
_pool = None  # the helper threads' executor, made by the first call that needs it


def _helper_pool(trials: int) -> tuple:
    """(executor, helper count) for drawing rows ahead of the closed loop.

    One helper per usable CPU beyond the calling thread's, so the process
    adds no more threads than it has CPUs; (None, 0) with one usable CPU or
    fewer than ``_THREADED_TRIALS`` trials.
    """
    global _pool
    if trials < _THREADED_TRIALS:
        return None, 0
    try:
        helpers = len(os.sched_getaffinity(0)) - 1
    except AttributeError:  # no CPU affinity on this platform
        helpers = (os.cpu_count() or 1) - 1
    if helpers < 1:
        return None, 0
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(helpers, thread_name_prefix="statecast-rows")
    return _pool, helpers


class _Column:
    """``rows.w[t]`` and the like: one stream's row of step t."""

    __slots__ = ("_rows", "_k")

    def __init__(self, rows: "_StreamedRows", k: int):
        self._rows = rows
        self._k = k

    def __getitem__(self, t: int) -> np.ndarray:
        return self._rows.step(t)[self._k]


def _draw_block(s, m, seed, lo, slot, scratch, zeros) -> list:
    """The rows to read of steps lo, lo + 1, ..., drawn into ``slot``, the
    (steps, rows, M) part of the slab that holds one block."""
    hi = min(lo + len(slot), s.T)
    return [_step_rows(s, m, seed, t, slot[t - lo], scratch, zeros) for t in range(lo, hi)]


class _StreamedRows:
    """The noise rows of one Monte Carlo run, drawn as the closed loop needs them.

    Stands in for ``NoiseStreams`` in ``run_closed_loop``, which reads the
    rows of step t only during step t, and after those of every earlier
    step.  While the loop runs block b, the helpers draw blocks b+1 ..
    b+depth.  When the loop reaches a block that a helper is still drawing,
    this thread draws the queued blocks no helper has started instead of
    waiting, so a slow or starved helper costs at most the block it holds.
    An exception raised in a helper comes out of the read that needs its
    block, unchanged.

    Every block is drawn into slot b % slots of one slab allocated here, one
    slot per block in flight: depth + 1 with helpers, 1 without.  Block
    b + depth is queued only once the loop has left block b - 1, so it
    reuses that block's slot.  The columns w, n, n_f and v are made on
    access and the helpers' jobs hold no reference to this object, so it
    and its slab are freed as soon as the run drops it.
    """

    def __init__(
        self,
        s: SystemSchedule,
        m: Optional[MeasurementModel],
        cfg: McConfig,
        pool,
        depth: int,
    ):
        M = cfg.trials
        self._s, self._m, self._seed = s, m, cfg.seed
        self._zeros = np.zeros(M)
        self._steps = min(-(-_BLOCK_ELEMENTS // M), s.T)
        self._blocks = -(-s.T // self._steps)
        self._pool, self._depth = pool, depth
        slots = 1 if pool is None else depth + 1
        self._slab = np.empty((slots, self._steps, 3 if m is None else 4, M))
        self._scratch = [None] * slots if m is None else np.empty((slots, M))
        self._ahead = deque()  # futures of blocks _b + 1, _b + 2, ...
        self._drawn = {}  # blocks this thread took over from the queue
        self._b, self._block = -1, None
        self.x0 = math.sqrt(s.V_xx0) * _row(cfg.seed, _STREAM_X0, 0, np.empty(M))

    w = property(lambda self: _Column(self, 0))
    n = property(lambda self: _Column(self, 1))
    n_f = property(lambda self: _Column(self, 2))
    v = property(lambda self: None if self._m is None else _Column(self, 3))

    def _job(self, b: int) -> tuple:
        """The arguments of ``_draw_block`` for block b."""
        k = b % len(self._slab)
        lo = b * self._steps
        return self._s, self._m, self._seed, lo, self._slab[k], self._scratch[k], self._zeros

    def _take(self, b: int) -> list:
        """Block b's rows, after queueing blocks up to b + depth for the helpers."""
        ahead = self._ahead
        fut = ahead.popleft() if ahead else None
        while self._pool is not None and len(ahead) < self._depth and b + 1 + len(ahead) < self._blocks:
            ahead.append(self._pool.submit(_draw_block, *self._job(b + 1 + len(ahead))))
        if b in self._drawn:
            return self._drawn.pop(b)
        if fut is None or fut.cancel():
            return _draw_block(*self._job(b))
        for k, later in enumerate(ahead):
            if fut.done():
                break
            if b + 1 + k not in self._drawn and later.cancel():
                self._drawn[b + 1 + k] = _draw_block(*self._job(b + 1 + k))
        return fut.result()

    def step(self, t: int) -> tuple:
        """Rows (w, n, n_f, v) of step t; their slot is reused once the loop
        has moved on to a later block."""
        b, i = divmod(t, self._steps)
        if b != self._b:
            self._block, self._b = self._take(b), b
        return self._block[i]

    def close(self) -> None:
        """Cancel the blocks no helper has started (the loop stopped early)."""
        while self._ahead:
            self._ahead.popleft().cancel()


class _MomentRecorder(Recorder):
    """Accumulates the 2nd and 4th sample moments of errors and the 2nd
    moments of transmissions, squaring into one (trials,) row of its own."""

    def __init__(self, trials: int):
        self.M = trials

    def start(self, T, width):
        self.T = T
        self.s2_err = np.zeros(T)
        self.s4_err = np.zeros(T)
        self.s2_z = np.zeros(T)
        self.transmitted = np.zeros(T, dtype=bool)
        self._sq = np.empty(width)

    def error(self, t, err):
        e2 = np.multiply(err, err, out=self._sq)
        self.s2_err[t - 1] = np.sum(e2)
        e2 *= e2
        self.s4_err[t - 1] = np.sum(e2)

    def transmit(self, t, x, z, y, y_f, xhat):
        self.s2_z[t - 1] = np.sum(np.multiply(z, z, out=self._sq))
        self.transmitted[t - 1] = True


def _mean_se(s2: np.ndarray, s4: np.ndarray, M: int) -> tuple[np.ndarray, np.ndarray]:
    """(mean, standard error) from the sums of squares and fourth powers."""
    mean = s2 / M
    if M > 1:
        var = np.maximum(s4 - M * mean**2, 0.0) / (M - 1)
    else:
        var = np.full_like(mean, np.nan)
    return mean, np.sqrt(var / M)


@dataclass(frozen=True, eq=False)
class McSummary:
    """Per-step Monte Carlo statistics next to the deterministic prediction.

    ``emp_zpow`` is NaN at steps with no transmission (t = T).
    ``delta_mse`` is ``emp_mse - pred.mse``.
    """

    pred: VariancePrediction
    emp_mse: np.ndarray
    emp_se: np.ndarray
    emp_zpow: np.ndarray
    delta_mse: np.ndarray

    def max_se_ratio(self) -> float:
        """Largest |empirical - predicted| mse deviation in standard errors."""
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.abs(self.delta_mse) / self.emp_se
        # One trial has no standard error: every ratio is NaN.
        if np.isnan(r).all():
            return math.nan
        return float(np.nanmax(r))

    def csv_columns(self) -> tuple:
        """The per-step columns of ``CSV_HEADER`` after t."""
        p = self.pred
        return (p.sigma2, p.vbar, p.mse, self.emp_mse, self.emp_se, self.emp_zpow)

    def to_csv(self) -> str:
        """Fixed-format CSV; floats carry 17 significant digits."""
        return csv_table(CSV_HEADER, self.csv_columns())


def monte_carlo(
    s: SystemSchedule,
    kind: RegimeKind,
    cfg: McConfig,
    measurement: Optional[MeasurementModel] = None,
    form: str = "proof",
) -> McSummary:
    """Simulate ``cfg.trials`` trajectories and summarize against the prediction.

    Deterministic for a fixed config: identical inputs produce
    bitwise-identical summaries.  The measurement model is read only in the
    separation regime, which draws (w, v) jointly from it; every other
    regime draws unit-variance w with or without it.
    """
    plan = build_plan(s, kind, measurement=measurement, form=form)
    M = cfg.trials
    rec = _MomentRecorder(M)
    pool, helpers = _helper_pool(M)
    # Two blocks queued beyond those the helpers hold: one for this thread to
    # take over while it would wait, one for the next helper that comes free.
    rows = _StreamedRows(plan.schedule, plan.measurement, cfg, pool, helpers + 2)
    try:
        run_closed_loop(plan, rows, rec)
    finally:
        rows.close()

    emp_mse, emp_se = _mean_se(rec.s2_err, rec.s4_err, M)
    zpow = rec.s2_z / M
    zpow[~rec.transmitted] = np.nan

    return McSummary(
        pred=plan.prediction,
        emp_mse=emp_mse,
        emp_se=emp_se,
        emp_zpow=zpow,
        delta_mse=emp_mse - plan.prediction.mse,
    )


# ---------------------------------------------------------------------------
# Exact joint-Gaussian conditioning oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Exact per-step error variances of the closed loop (no sampling).

    ``mse[t-1]``: error of the best (conditional-mean) estimate of x(t) from
    y(1..t-1).  ``scheme_mse[t-1]``: error of the realized recursive decoder.
    ``open_loop_var[t-1]``: unconditional Var x(t).
    """

    mse: np.ndarray
    scheme_mse: np.ndarray
    open_loop_var: np.ndarray


class _Unroller:
    """Closed-loop signals as rows of coefficients over unit-variance noises.

    A row has D entries, one per noise: x(0) at index 0, w(t) at 1 + t
    (t = 0..T-1), n(t) at T + t and n_f(t) at 2T - 1 + t (t = 1..T-1) and,
    in the separation regime, v(t) at 3T - 1 + t (t = 0..T-1).  A noise
    enters a row as one scalar add at its index, scaled by its standard
    deviation; in the separation regime (w, v) enter through the Cholesky
    factor of their joint covariance.  A signal's variance is its row's
    squared norm, and the covariance of two signals the dot product of
    their rows.

    Gains are computed self-consistently from the coefficients (the output
    scaling is sqrt(P)/std(xcheck) with the *true* standard deviation), so a
    perturbed internal gain still yields a feasible, exactly power-respecting
    encoder.  For the nominal scheme these gains reproduce the recursions'
    gains to rounding.
    """

    def __init__(
        self,
        s: SystemSchedule,
        kind: RegimeKind,
        measurement: Optional[MeasurementModel],
        perturb: Optional[dict],
    ):
        self.s = s
        self.kind = kind
        self.m = measurement
        self.perturb = perturb or {}
        self.sep = kind is RegimeKind.SEPARATION_OUTPUT_FEEDBACK
        self.D = 3 * s.T - 1 + (s.T if self.sep else 0)

    def run(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coefficient rows (X, Y, Xh) of x(t), y(t) and xhat(t): X and Xh
        hold t = 1..T at row t-1, Y holds t = 1..T-1 at row t-1."""
        s, T, m, sep = self.s, self.s.T, self.m, self.sep
        se = self.kind is RegimeKind.STATE_ESTIMATE_FEEDBACK
        a, b, P, N, N_f = (seq.tolist() for seq in (s.a, s.b, s.P, s.N, s.N_f))
        X, Y, Xh = np.zeros((T, self.D)), np.zeros((T - 1, self.D)), np.zeros((T, self.D))
        x = np.zeros(self.D)  # x(t), from x(0)
        x[0] = math.sqrt(s.V_xx0)
        strk = xb_pred = np.zeros(self.D)  # decoder tracker; pre-filter prediction
        i_w, i_n, i_nf, i_v = 1, T, 2 * T - 1, 3 * T - 1  # w(t) sits at i_w + t, and so on
        l11 = 1.0
        for t in range(T):
            if sep:  # pre-filter update on gamma(t) = c x(t) + d v(t)
                l11, l21, l22 = _wv_factor(m, t)
                gamma = m.c * x
                gamma[i_w + t] += m.d * l21
                gamma[i_v + t] += m.d * l22
                innov = gamma - m.c * xb_pred
                denom = float(innov @ innov)
                if denom <= 0.0:
                    raise ValidationError(f"degenerate innovation variance at step {t}")
                xb_filt = xb_pred + (float((x - xb_pred) @ innov) / denom) * innov
                xb_pred = a[t] * xb_filt
            if t > 0:  # transmission at step t
                i = t - 1
                factor = float(self.perturb["factor"]) if self.perturb.get("t") == t else 1.0
                if not se:
                    xck = (xb_filt if sep else x) - strk
                sigma = math.sqrt(xck @ xck)
                scale = math.sqrt(P[t]) / sigma if sigma > 0.0 else 0.0
                z = scale * xck
                y = Y[i]
                y[:] = z
                y[i_n + t] += math.sqrt(N[t])
                K = a[t] * (float(xck @ y) / float(y @ y))
                if se:
                    y_f = Xh[i].copy()
                    if math.isfinite(N_f[t]):
                        y_f[i_nf + t] += math.sqrt(N_f[t])
                    xbar = (x - Xh[i]) - xck
                    sigbar2 = float(xbar @ xbar)
                    den = sigbar2 + N_f[t]
                    g = factor * (a[t] * sigbar2 / den if 0.0 < den < math.inf else 0.0)
                    c1 = a[t] * N[t] / (P[t] + N[t])
                else:
                    # z becomes z + nhat, nhat = rho (n(t) + n_f(t)) the
                    # encoder's estimate of the channel noise
                    if not math.isinf(N_f[t]):
                        rho = N[t] / (N[t] + N_f[t])
                        z[i_n + t] += rho * math.sqrt(N[t])
                        if N_f[t] > 0.0:
                            z[i_nf + t] += rho * math.sqrt(N_f[t])
                    strk = a[t] * strk + (factor * K) * z
                Xh[t] = a[t] * Xh[i] + K * y
            X[t] = a[t] * x
            X[t, i_w + t] += b[t] * l11
            if se:
                xck = X[t].copy() if t == 0 else c1 * xck + (X[t] - a[t] * x) + g * (x - xck - y_f)
            x = X[t]
        return X, Y, Xh


def exact_conditioning_oracle(
    s: SystemSchedule,
    kind: RegimeKind,
    measurement: Optional[MeasurementModel] = None,
    perturb: Optional[dict] = None,
) -> OracleResult:
    """Exact error variances of the closed loop for small horizons (T <= 12).

    ``perturb={"t": t0, "factor": f}`` scales one internal encoder gain (the
    decoder-tracking gain, or the residual-correction gain in the
    state-estimate regime) at step t0; the output scaling renormalizes to
    the true transmit variance, so the perturbed encoder still meets the
    per-symbol power constraint exactly.
    """
    check_regime_consistency(s, kind)
    if s.T > ORACLE_HORIZON_MAX:
        raise ValidationError(
            f"oracle horizon T={s.T} exceeds the supported maximum {ORACLE_HORIZON_MAX}"
        )
    if kind is RegimeKind.SEPARATION_OUTPUT_FEEDBACK:
        if measurement is None:
            raise ValidationError("separation regime requires a measurement model")
        measurement = validate_measurement(measurement, s.T)

    X, Y, Xh = _Unroller(s, kind, measurement, perturb).run()
    T = s.T
    mse = np.empty(T)
    scheme = np.empty(T)
    open_loop = np.empty(T)
    for t in range(T):  # x(t+1) from y(1..t)
        xc = X[t]
        open_loop[t] = float(xc @ xc)
        err = xc - Xh[t]
        scheme[t] = float(err @ err)
        if t == 0:
            mse[0] = open_loop[0]
            continue
        past = Y[:t]
        c = past @ xc
        mse[t] = open_loop[t] - float(c @ np.linalg.pinv(past @ past.T, rcond=_PINV_RCOND) @ c)
    return OracleResult(mse=mse, scheme_mse=scheme, open_loop_var=open_loop)
