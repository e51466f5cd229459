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
is O(M) with a small constant and nothing is allocated per step.  A run
holds at most 10 (M,) rows, allocated once: the loop's signals (see
``run_closed_loop``) and the recorder's squares.  The noise goes through
one slab of fixed size.  It holds blocks of about ``_BLOCK_ELEMENTS`` =
32768 trial-steps: ceil(32768 / M) whole steps for small M, otherwise one
of floor(M / 32768) equal slices of a step's trials, one slot per block in
flight, so it never holds more than (helpers + 3) slots x 5 rows x 65535
values: 10.5 MB on 2 CPUs whatever M is, 5.3 MB at M = 1e5.  The loop
makes every update that reads noise slice by slice, and a row's slices
come from its one keyed generator in trial order, so they hold the bytes
of the whole row.  From M = 4096 trials on, helper threads, one fewer than
the usable CPUs (none with one CPU), draw the next blocks while the loop
runs the current one; numpy releases the GIL both in the sampler and in
the arithmetic of the loop.  Each block is drawn stream by stream, and
when the loop catches up with the helpers, it draws the queued streams
they have not started itself.  Narrower rows are drawn inline, because
setting up each row's generator holds the GIL longer than sampling it
releases it.  The results do not depend on the number of helpers, and
nothing sets it.

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

# Trial-steps per block of rows drawn at once: ceil(_BLOCK_ELEMENTS / M)
# whole steps for small M, one of floor(M / _BLOCK_ELEMENTS) equal slices
# of a step's trials for large M, so the slab does not grow with M.  The
# closed loop runs its noise-reading updates slice by slice, and slices of
# 16K-64K trials suit it best: on 2 CPUs at M = 1e5 its output-feedback
# step took 1463 us on whole rows, 1270-1319 us in such slices and 1323 us
# in slices of 8K.
_BLOCK_ELEMENTS = 1 << 15
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


def _generator(seed: int, stream: int, t: int) -> Generator:
    """The generator of the unit normals keyed by (seed, stream, t)."""
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64((stream << 48) | t)],
        dtype=np.uint64,
    )
    return Generator(Philox(key=key))


def _row(seed: int, stream: int, t: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with unit normals keyed by (seed, stream, t), entry i
    belonging to trial i, and return it."""
    return _generator(seed, stream, t).standard_normal(out=out)


def _slice(gens: dict, seed: int, stream: int, t: int, lo: int, hi: int, M: int, out):
    """Fill ``out`` with entries lo..hi-1 of the M unit normals keyed by
    (seed, stream, t), and return it.

    A row's slices come from one generator advanced in trial order, so they
    hold the bytes of the whole row drawn at once: the slice at lo = 0 makes
    the generator, and every slice but the last leaves it in ``gens`` for
    the next one.
    """
    gen = gens.pop((stream, t)) if lo else _generator(seed, stream, t)
    gen.standard_normal(out=out)
    if hi < M:
        gens[stream, t] = gen
    return out


def _wv_factor(m: MeasurementModel, t: int) -> tuple[float, float, float]:
    """Cholesky factor (l11, l21, l22) of step t's (w, v) covariance."""
    V_ww, V_wv, V_vv = m.at(t)
    l11 = math.sqrt(V_ww)
    l21 = V_wv / l11 if l11 > 0.0 else 0.0
    l22 = math.sqrt(max(V_vv - l21 * l21, 0.0))
    return l11, l21, l22


def _streams_drawn(s: SystemSchedule) -> list:
    """The streams each step t draws: w at every step, n from t = 1 on and
    n_f where 0 < N_f(t) < inf.  A row that a step does not draw reads as
    zeros."""
    W, N, NF = _STREAM_W, _STREAM_N, _STREAM_NF
    return [(W,)] + [(W, N, NF) if 0.0 < nf < math.inf else (W, N) for nf in s.N_f.tolist()[1:]]


def _draw(s, m, seed, stream, drawn, t0, t1, lo, hi, M, slot, gens) -> None:
    """Draw ``stream``'s scaled rows of steps t0..t1-1, trials lo..hi-1, into
    row ``stream - 1`` of each step of ``slot``, the (steps, rows, width)
    part of the slab that holds one block, skipping the steps whose
    ``drawn`` streams leave it out.

    With a measurement model, w comes with v (row 3): (w, v) are drawn
    jointly with the measurement-noise covariance, through the slot's last
    row, which no other stream writes.
    """
    for t in range(t0, t1):
        if stream not in drawn[t]:
            continue
        rows = slot[t - t0, :, : hi - lo]
        row = _slice(gens, seed, stream, t, lo, hi, M, rows[stream - 1])
        if stream != _STREAM_W:
            row *= math.sqrt((s.N if stream == _STREAM_N else s.N_f)[t])
        elif m is not None:
            l11, l21, l22 = _wv_factor(m, t)
            v = _slice(gens, seed, _STREAM_V, t, lo, hi, M, rows[_STREAM_V - 1])
            v *= l22
            v += np.multiply(row, l21, out=rows[-1])  # v = l21 e1 + l22 e2
            row *= l11


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


class _Draw:
    """One stream's rows of one block (``_draw``'s arguments), drawn once,
    by a helper or by the loop's thread.

    The draw of a block that continues a step's rows past their first
    slice needs the generators the previous slice left, so it runs
    ``after`` the same stream's draw in the block before.  If that one drew
    nothing (it raised or was abandoned), neither does this one: the run
    has failed or stopped before it reads this block.
    """

    __slots__ = ("job", "after", "busy", "ok")

    def __init__(self, job: tuple, after: Optional["_Draw"]):
        self.job, self.after = job, after
        self.busy = threading.Lock()  # held until this draw is over
        self.busy.acquire()
        self.ok = False  # the rows are drawn

    def ready(self) -> bool:
        """Whether this draw can start without waiting."""
        return self.after is None or not self.after.busy.locked()

    def run(self) -> None:
        try:
            after = self.after
            if after is not None:
                with after.busy:  # wait until it is over
                    pass
            if after is None or after.ok:
                _draw(*self.job)
                self.ok = True
        finally:
            self.busy.release()


def _abandon(pending: deque) -> None:
    """End the draws left in ``pending`` without drawing them."""
    while True:
        try:
            pending.popleft().busy.release()
        except IndexError:
            return


def _drain(pending: deque) -> None:
    """Run the draws in ``pending``, taking each off it first, until none
    is left; another thread may be taking draws off it too.  If a draw
    raises, the ones left are abandoned, so no later draw waits on them."""
    try:
        while True:
            try:
                draw = pending.popleft()
            except IndexError:
                return
            draw.run()
    except BaseException:
        _abandon(pending)
        raise


class _StreamedRows:
    """The noise rows of one Monte Carlo run, drawn as the closed loop needs them.

    ``step`` is the ``rows`` of ``run_closed_loop``.  Rows are drawn in
    blocks of about ``_BLOCK_ELEMENTS`` trial-steps: ceil(_BLOCK_ELEMENTS /
    M) whole steps when M is at most _BLOCK_ELEMENTS, otherwise one of
    floor(M / _BLOCK_ELEMENTS) equal slices of one step's trials (the last
    may be shorter), so a block holds fewer than 2 * _BLOCK_ELEMENTS
    trial-steps whatever M is.  Each block is drawn stream by stream: w
    (with v in the separation regime), n and n_f are separate draws, and
    a stream's slices of one step are drawn in trial order.

    While the loop runs block b, the helpers draw blocks b+1 .. b+depth.
    When the loop reaches a block that a helper is still drawing, this
    thread draws queued draws that no helper has started, and whose slice
    before is drawn, instead of waiting, so a slow or starved helper costs
    at most the draws it holds.  An exception raised in a helper comes out
    of the read that needs its block, unchanged.

    Every block is drawn into slot b % slots of one slab allocated here, one
    slot per block in flight: depth + 1 with helpers, 1 without.  Block
    b + depth is queued only once the loop has left block b - 1, so it
    reuses that block's slot.  The helpers' jobs hold no reference to this
    object, so it and its slab are freed as soon as the run drops it.
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
        self._s, self._m, self._seed, self._M = s, m, cfg.seed, M
        self._width = -(-M // max(M // _BLOCK_ELEMENTS, 1))  # trials per slice
        self._slices = -(-M // self._width)  # slices per step
        self._steps = min(-(-_BLOCK_ELEMENTS // M), s.T)  # steps per block
        self._blocks = -(-s.T // self._steps) * self._slices
        self._drawn = _streams_drawn(s)
        self._pool, self._depth = pool, depth
        slots = 1 if pool is None else depth + 1
        # rows w, n, n_f and, with a measurement model, v and the (w, v) scratch
        self._slab = np.empty((slots, self._steps, 3 if m is None else 5, self._width))
        self._zeros = np.zeros(self._width)
        self._gens = {}  # generators of rows drawn up to a slice, by (stream, t)
        self._ahead = deque()  # (draws not yet taken, helper's job) of blocks _b + 1, ...
        self._last = {}  # each stream's draw in the last block made
        self._b, self._block = -1, None

    def _span(self, b: int) -> tuple:
        """(t0, t1, lo, hi): block b holds steps t0..t1-1 of trials lo..hi-1."""
        group, k = divmod(b, self._slices)
        t0, lo = group * self._steps, k * self._width
        return t0, min(t0 + self._steps, self._s.T), lo, min(lo + self._width, self._M)

    def _draws(self, b: int) -> list:
        """The draws of block b, one per stream that its steps draw; blocks
        are made in order."""
        t0, t1, lo, hi = span = self._span(b)
        slot = self._slab[b % len(self._slab)]
        drawn = self._drawn
        streams = drawn[t0] if t1 == t0 + 1 else sorted(set().union(*drawn[t0:t1]))
        draws = []
        for stream in streams:
            job = (self._s, self._m, self._seed, stream, drawn, *span, self._M, slot, self._gens)
            draw = _Draw(job, self._last[stream] if lo else None)
            self._last[stream] = draw
            draws.append(draw)
        return draws

    def _rows(self, b: int) -> list:
        """The rows (w, n, n_f, v) to read of each step of block b."""
        t0, t1, lo, hi = self._span(b)
        slot = self._slab[b % len(self._slab), :, :, : hi - lo]
        zeros = self._zeros[: hi - lo]
        rows = []
        for t in range(t0, t1):
            w, n, n_f, v = slot[t - t0, :4] if self._m is not None else (*slot[t - t0], None)
            drawn = self._drawn[t]
            rows.append((w, n if t else zeros, n_f if _STREAM_NF in drawn else zeros, v))
        return rows

    def _take(self, b: int) -> list:
        """Block b's rows, after queueing blocks up to b + depth for the helpers."""
        ahead = self._ahead
        pending, fut = ahead.popleft() if ahead else (deque(self._draws(b)), None)
        while self._pool is not None and len(ahead) < self._depth and b + 1 + len(ahead) < self._blocks:
            later = deque(self._draws(b + 1 + len(ahead)))
            ahead.append((later, self._pool.submit(_drain, later)))
        _drain(pending)
        if fut is not None and not fut.cancel():
            # a helper is still drawing this block: run the queued blocks'
            # draws that can start now instead of waiting
            for later, _ in ahead:
                while not fut.done():
                    try:
                        draw = later.popleft()
                    except IndexError:
                        break
                    if not draw.ready():
                        later.appendleft(draw)
                        break
                    draw.run()
            fut.result()
        return self._rows(b)

    def step(self, t: int):
        """Step t's rows (w, n, n_f, v), slice by slice in trial order; a
        slice's slot is reused once the loop has moved on to a later block."""
        group, i = divmod(t, self._steps)
        for b in range(group * self._slices, (group + 1) * self._slices):
            if b != self._b:
                self._block, self._b = self._take(b), b
            yield self._block[i]

    def close(self) -> None:
        """Cancel the blocks no helper has started (the loop stopped early)
        and abandon their draws, so no helper waits on them."""
        for pending, fut in self._ahead:
            if fut.cancel():
                _abandon(pending)
        self._ahead.clear()


class _MomentRecorder(Recorder):
    """Accumulates the 2nd and 4th sample moments of errors and the 2nd
    moments of transmissions, squaring into one (trials,) row of its own."""

    def start(self, T, width):
        self.s2_err = np.zeros(T)
        self.s4_err = np.zeros(T)
        self.s2_z = np.zeros(T)
        self._sq = np.empty(width)

    def error(self, t, err):
        e2 = np.multiply(err, err, out=self._sq)
        self.s2_err[t - 1] = np.sum(e2)
        e2 *= e2
        self.s4_err[t - 1] = np.sum(e2)

    def transmit(self, t, x, z, y, y_f, xhat):
        self.s2_z[t - 1] = np.sum(np.multiply(z, z, out=self._sq))


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
    rec = _MomentRecorder()
    pool, helpers = _helper_pool(M)
    # Two blocks queued beyond those the helpers hold: one for this thread to
    # take over while it would wait, one for the next helper that comes free.
    rows = _StreamedRows(plan.schedule, plan.measurement, cfg, pool, helpers + 2)
    x = _row(cfg.seed, _STREAM_X0, 0, np.empty(M))  # x(0), which the loop updates in place
    x *= math.sqrt(s.V_xx0)
    try:
        run_closed_loop(plan, x, rows.step, rec)
    finally:
        rows.close()

    emp_mse, emp_se = _mean_se(rec.s2_err, rec.s4_err, M)
    zpow = rec.s2_z / M
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
        measurement.check_horizon(s.T)

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
