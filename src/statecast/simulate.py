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

``monte_carlo`` runs the closed loop leaf by leaf over the trials: M trials
split the way numpy's pairwise summation splits a row of M values, until
each leaf holds at most ``_LEAF`` = 16384 trials (M <= 16384 is one leaf).
A leaf is the unit of parallel work, run over all of its trials by one
thread, which draws each step's rows when the loop asks for them; numpy
releases the GIL both in the sampler and in the arithmetic of the loop.
With h helper threads, one fewer than the usable CPUs (none with one CPU),
the leaves run in a fixed turn order: the calling thread runs leaves 0,
h + 1, 2(h + 1), ... itself and, before each of them, hands the next h
leaves to the helpers' pool, whose sums it then takes in trial order.  The
pool keeps the thread count of the call that made it.  With helpers, fewer
than (h + 1) * 16384 trials split into at least h + 1 leaves, as long as
that keeps the leaf width at ``_THREADED_TRIALS`` = 4096 or more (see
``_leaf_width``), so M <= 4096 is one leaf, run inline.

A row's leaves draw from its one keyed generator in trial order: leaf 0
makes x(0)'s generator, and then each step's, and every leaf hands each
stage's generators on to the next leaf through a queue once it has drawn
its slices, so the rows hold the bytes of the whole row.  A leaf allocates
15 rows of its trials when it starts, and nothing per step, so a run's
memory is O(``_LEAF``) per thread whatever M is.  The results do not
depend on the number of helpers, and nothing sets it.

Aggregation sums each per-step statistic over a leaf's trials with numpy's
pairwise reduction and adds the leaves' sums up the same tree, left +
right, which is how ``np.sum`` would add the whole row: the summaries are
bitwise those of a run over whole (M,) rows, and identical configurations
produce bitwise-identical summaries.

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
n(1..T-1), n_f(1..T-1) and, for separation, v(0..T-1); ``_unroll`` gives
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
import queue
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

from .model import (
    McConfig,
    MeasurementModel,
    RegimeKind,
    SystemSchedule,
    ValidationError,
    VariancePrediction,
    csv_table,
    format_float,
)
from .schemes import (
    Recorder,
    RegimePlan,
    build_plan,
    check_regime_consistency,
    run_closed_loop,
)

__all__ = [
    "McConfig",
    "McSummary",
    "OracleResult",
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

# Most trials in a leaf, the trials one run of the closed loop covers.  A
# leaf's rows grow with it, and narrower leaves take more numpy calls per
# trial: on 2 CPUs at M = 1e5, leaves of at most 8192 trials took about 20%
# longer than leaves of at most 16384, for 1.4 MB less peak RSS.
_LEAF = 1 << 14
# Fewest trials to which ``_leaf_width`` cuts leaves so that the helpers get
# some; a run of at most this many trials is one leaf.  The narrower a leaf,
# the larger the share of each numpy call that holds the GIL, so threads
# running narrow leaves mostly wait for each other: on 2 CPUs at T = 200,
# two leaves of 1500 trials took 29% longer than one of 3000, two of 2048
# 9% longer than one of 4096, and two of 4096 18% less than one of 8192.
_THREADED_TRIALS = 1 << 12

CSV_HEADER = "t,pred_sigma2,pred_vbar,pred_mse,emp_mse,emp_se,emp_zpow"


def _generator(seed: int, stream: int, t: int) -> Generator:
    """The generator of the unit normals keyed by (seed, stream, t); the seed
    is in [0, 2**64), as ``McConfig`` checks."""
    key = np.array([np.uint64(seed), np.uint64((stream << 48) | t)], dtype=np.uint64)
    return Generator(Philox(key=key))


def _split(n: int) -> int:
    """The length of the left part when numpy's pairwise summation splits a
    row of n > 128 values: n // 2 rounded down to a multiple of 8."""
    return n // 2 - (n // 2) % 8


def _leaves(lo: int, hi: int, width: int):
    """The leaves of trials lo..hi-1 as (lo, hi) spans, in trial order: a
    node of more than ``width`` trials splits where ``_split`` says."""
    if hi - lo <= width:
        yield lo, hi
    else:
        mid = lo + _split(hi - lo)
        yield from _leaves(lo, mid, width)
        yield from _leaves(mid, hi, width)


def _tree_sum(lo: int, hi: int, width: int, leaf):
    """The sum of ``leaf(lo, hi)`` over the leaves of trials lo..hi-1, added
    left + right up the tree of ``_leaves``, which calls ``leaf`` in trial
    order.

    ``np.sum`` adds a contiguous row the same way: it splits a part of more
    than 128 values where ``_split`` says and returns left + right, and
    every part split here holds more than ``width`` >= 128 trials.  So when
    ``leaf`` returns ``np.sum`` over its trials of a row, this is ``np.sum``
    of the whole row, bit for bit.
    """
    if hi - lo <= width:
        return leaf(lo, hi)
    mid = lo + _split(hi - lo)
    return _tree_sum(lo, mid, width, leaf) + _tree_sum(mid, hi, width, leaf)


def _wv_factor(m: MeasurementModel, t: int) -> tuple[float, float, float]:
    """Cholesky factor (l11, l21, l22) of step t's (w, v) covariance."""
    V_ww, V_wv, V_vv = m.at(t)
    l11 = math.sqrt(V_ww)
    l21 = V_wv / l11 if l11 > 0.0 else 0.0
    l22 = math.sqrt(max(V_vv - l21 * l21, 0.0))
    return l11, l21, l22


class _Stopped(Exception):
    """Raised in a leaf that finds its run stopped, in place of drawing."""


_pool_lock = threading.Lock()
_pool = None  # the helper threads' executor, made by the first call that needs it


def _helper_count() -> int:
    """One helper per usable CPU beyond the calling thread's, so the process
    adds no more threads than it has CPUs."""
    try:
        return len(os.sched_getaffinity(0)) - 1
    except AttributeError:  # no CPU affinity on this platform
        return (os.cpu_count() or 1) - 1


def _leaf_width(trials: int, helpers: int) -> int:
    """The most trials in a leaf of a run with ``helpers``: few enough that
    every thread gets a leaf, but at least ``_THREADED_TRIALS``.  A part of
    n trials splits into parts of at most n / 2 + 8, so with one helper
    trials // 2 + 8 makes two leaves."""
    if helpers < 1:
        return _LEAF
    return min(_LEAF, max(_THREADED_TRIALS, trials // (helpers + 1) + 8))


def _helper_pool(helpers: int):
    """The executor of the helper threads, made with ``helpers`` threads."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(helpers, thread_name_prefix="statecast-leaves")
    return _pool


def _leaf(plan: RegimePlan, seed: int, lo: int, hi: int, gens_in, gens_out, stop) -> np.ndarray:
    """Run the closed loop over trials lo..hi-1 and return their (3, T) sums.

    The leaf draws x(0), and then each step's rows, into its own buffers
    with each stage's generators: leaf 0 (``gens_in`` None) makes them with
    ``_generator``, every other leaf takes them from ``gens_in``, and each
    leaf but the last puts them into ``gens_out``, the next leaf's
    ``gens_in``, once it has drawn its slices.  A row's slices therefore come
    from its one generator in trial order and hold the bytes of the whole
    row.  A leaf that takes None, or finds the ``stop`` event set, at a
    hand-off raises ``_Stopped``.
    """
    s, m = plan.schedule, plan.measurement
    N, N_f = s.N.tolist(), s.N_f.tolist()
    # 14 rows in every regime, so that the memory one leaf frees fits the
    # next: two more than all but the separation regime use
    bufs = np.empty((14, hi - lo))
    x, work, noise = bufs[0], bufs[1:9], bufs[9:]
    zeros = np.broadcast_to(0.0, (hi - lo,))

    def draw(t: int, rows: dict) -> None:
        """Fill ``rows``, an output row by stream, with this leaf's slices of
        the rows keyed (seed, stream, t)."""
        gens = [_generator(seed, stream, t) for stream in rows] if gens_in is None else gens_in.get()
        if gens is None or stop.is_set():
            raise _Stopped
        for gen, out in zip(gens, rows.values()):
            gen.standard_normal(out=out)
        if gens_out is not None:
            gens_out.put(gens)

    def rows(t: int) -> tuple:
        """Step t's rows (w, n, n_f, v), the ``rows`` of ``run_closed_loop``;
        v is None without a measurement model."""
        w, n, n_f, v, wv = noise
        fed_back = t and 0.0 < N_f[t] < math.inf
        drawn = {_STREAM_W: w}
        if m is not None:
            drawn[_STREAM_V] = v
        if t:
            drawn[_STREAM_N] = n
        if fed_back:
            drawn[_STREAM_NF] = n_f
        draw(t, drawn)
        if m is not None:
            l11, l21, l22 = _wv_factor(m, t)
            v *= l22
            v += np.multiply(w, l21, out=wv)  # v = l21 e1 + l22 e2
            w *= l11
        if t:
            n *= math.sqrt(N[t])
        if fed_back:
            n_f *= math.sqrt(N_f[t])
        return w, n if t else zeros, n_f if fed_back else zeros, None if m is None else v

    draw(0, {_STREAM_X0: x})
    x *= math.sqrt(s.V_xx0)  # the loop updates it in place
    rec = _MomentRecorder()
    run_closed_loop(plan, x, rows, rec, work)
    return rec.sums


class _MomentRecorder(Recorder):
    """Sums, over one run's trials, the squares and fourth powers of the
    errors and the squares of the transmissions into ``sums``, a new (3, T)
    array at each start whose rows are s2_err, s4_err and s2_z, squaring
    into a (trials,) row of its own."""

    def start(self, T, width):
        self.sums = np.zeros((3, T))
        self.s2_err, self.s4_err, self.s2_z = self.sums
        self._sq = np.empty(width)

    def error(self, t, err):
        e2 = np.multiply(err, err, out=self._sq)
        self.s2_err[t - 1] = np.add.reduce(e2)  # np.sum's reduction, without its wrapper
        e2 *= e2
        self.s4_err[t - 1] = np.add.reduce(e2)

    def transmit(self, t, x, z, y, y_f, xhat):
        self.s2_z[t - 1] = np.add.reduce(np.multiply(z, z, out=self._sq))


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
    helpers = _helper_count()
    width = _leaf_width(M, helpers)
    spans = _leaves(0, M, width)
    stop = threading.Event()
    queued = deque()  # (gens_in, future) of each leaf handed to the helpers, in trial order
    gens = None  # the queue the next leaf takes its generators from

    def leaf(lo: int, hi: int) -> tuple:
        """(gens_in, call) of leaf lo..hi-1, the next leaf in trial order."""
        nonlocal gens
        gens_in, gens = gens, queue.SimpleQueue() if hi < M else None
        return gens_in, partial(_leaf, plan, cfg.seed, lo, hi, gens_in, gens, stop)

    def take(lo: int, hi: int) -> np.ndarray:
        """The sums of the next leaf, trials lo..hi-1: a helper's, or this
        thread's, which first hands the next ``helpers`` leaves to the pool."""
        if queued:
            return queued.popleft()[1].result()
        _, own = leaf(*next(spans))
        for span in islice(spans, helpers):
            gens_in, job = leaf(*span)
            queued.append((gens_in, _helper_pool(helpers).submit(job)))
        return own()

    try:
        s2_err, s4_err, s2_z = _tree_sum(0, M, width, take)
    finally:
        # the helpers' leaves not yet taken, if a leaf raised, stop at their
        # next hand-off: a running one sees the event, a waiting one the None
        stop.set()
        for gens_in, _ in queued:
            gens_in.put(None)

    emp_mse, emp_se = _mean_se(s2_err, s4_err, M)
    zpow = s2_z / M
    zpow[-1] = np.nan  # no transmission at t = T

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


def _unroll(s: SystemSchedule, kind: RegimeKind, m: Optional[MeasurementModel], perturb):
    """Coefficient rows (X, Y, Xh) of x(t), y(t) and xhat(t) over the
    unit-variance noises: X and Xh hold t = 1..T at row t-1, Y holds
    t = 1..T-1 at row t-1.  ``m`` is the separation regime's measurement
    model, None in every other regime.

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
    T, sep, perturb = s.T, m is not None, perturb or {}
    se = kind is RegimeKind.STATE_ESTIMATE_FEEDBACK
    D = 3 * T - 1 + (T if sep else 0)
    a, b, P, N, N_f = (seq.tolist() for seq in (s.a, s.b, s.P, s.N, s.N_f))
    X, Y, Xh = np.zeros((T, D)), np.zeros((T - 1, D)), np.zeros((T, D))
    x = np.zeros(D)  # x(t), from x(0)
    x[0] = math.sqrt(s.V_xx0)
    strk = xb_pred = np.zeros(D)  # decoder tracker; pre-filter prediction
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
            factor = float(perturb["factor"]) if perturb.get("t") == t else 1.0
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
    _, measurement = check_regime_consistency(s, kind, measurement)
    if s.T > ORACLE_HORIZON_MAX:
        raise ValidationError(
            f"oracle horizon T={s.T} exceeds the supported maximum {ORACLE_HORIZON_MAX}"
        )

    X, Y, Xh = _unroll(s, kind, measurement, perturb)
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
