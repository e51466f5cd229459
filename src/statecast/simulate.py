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
A run's memory is therefore O(``_LEAF``) whatever M is, and nothing is
allocated per step.  A run holds 10 leaf-wide rows: the loop's 8 (see
``run_closed_loop``), allocated once, and x(0) and the recorder's squares,
allocated for each leaf.  The noise goes through one slab of fixed size,
with one slot per block in flight, and a block holds
floor(``_BLOCK_ELEMENTS`` / width) =
floor(32768 / width) whole steps of one leaf, so the slab never holds more
than (helpers + 1) slots x 5 rows x 32768 values: 2.6 MB on 2 CPUs, 2.0
MB at M = 1e5.  A row's leaves come from its one keyed generator in trial
order, so they hold the bytes of the whole row.  From M = 4096 trials on,
helper threads, one fewer than the usable CPUs (none with one CPU), draw
the next blocks while the loop runs the current one, running on into the
next leaves; numpy releases the GIL both in the sampler and in the
arithmetic of the loop.  Each block is drawn stream by stream, and when
the loop catches up with the helpers, it draws the queued streams they
have not started itself.  Narrower rows are drawn inline, because setting
up each row's generator holds the GIL longer than sampling it releases it.
The results do not depend on the number of helpers, and nothing sets it.

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

# Most trials in a leaf, the trials one run of the closed loop covers.  The
# run's rows and slab grow with it, and narrower leaves take more numpy
# calls and blocks per trial: on 2 CPUs at M = 1e5, leaves of at most 8192
# trials took about 19% longer than leaves of at most 16384.
_LEAF = 1 << 14
# Most trial-steps in a block of rows drawn at once: a block holds
# floor(_BLOCK_ELEMENTS / width) whole steps of one leaf, for the widest
# leaf's width, so at least two.  Each block costs the loop's thread its
# bookkeeping and a hand-over to or from a helper: on 2 CPUs at M = 1e5
# (leaves of about 12500 trials), blocks of two steps took 6% less time
# than blocks of one, and queueing one block per helper rather than two
# more kept most of that gain with half the slab.
_BLOCK_ELEMENTS = 1 << 15
# Fewest trials for which helpers draw ahead.  A narrower row spends more of
# its time setting up its generator under the GIL than sampling outside it,
# so a helper mostly contends with the loop for the GIL: on 2 CPUs, drawing
# ahead made the loop 33% slower at M = 1024, 8% faster at M = 2048 and 32%
# faster at M = 4096.
_THREADED_TRIALS = 1 << 12

CSV_HEADER = "t,pred_sigma2,pred_vbar,pred_mse,emp_mse,emp_se,emp_zpow"


def _generator(seed: int, stream: int, t: int) -> Generator:
    """The generator of the unit normals keyed by (seed, stream, t); the seed
    is in [0, 2**64), as ``McConfig`` checks."""
    key = np.array([np.uint64(seed), np.uint64((stream << 48) | t)], dtype=np.uint64)
    return Generator(Philox(key=key))


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


def _split(n: int) -> int:
    """The length of the left part when numpy's pairwise summation splits a
    row of n > 128 values: n // 2 rounded down to a multiple of 8."""
    return n // 2 - (n // 2) % 8


def _leaves(lo: int, hi: int):
    """The leaves of trials lo..hi-1 as (lo, hi) spans, in trial order: a
    node of more than ``_LEAF`` trials splits where ``_split`` says."""
    if hi - lo <= _LEAF:
        yield lo, hi
    else:
        mid = lo + _split(hi - lo)
        yield from _leaves(lo, mid)
        yield from _leaves(mid, hi)


def _tree_sum(lo: int, hi: int, leaf):
    """The sum of ``leaf(lo, hi)`` over the leaves of trials lo..hi-1, added
    left + right up the tree of ``_leaves``, which calls ``leaf`` in trial
    order.

    ``np.sum`` adds a contiguous row the same way: it splits a part of more
    than 128 values where ``_split`` says and returns left + right, and
    every part split here holds more than ``_LEAF`` > 128 trials.  So when
    ``leaf`` returns ``np.sum`` over its trials of a row, this is ``np.sum``
    of the whole row, bit for bit.
    """
    if hi - lo <= _LEAF:
        return leaf(lo, hi)
    mid = lo + _split(hi - lo)
    return _tree_sum(lo, mid, leaf) + _tree_sum(mid, hi, leaf)


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

    The draw of a block of any leaf but the first needs the generators that
    the same stream's draw of the same steps in the leaf before left, so it
    runs ``after`` that draw, and lets go of it once it is over.  If that
    one drew nothing (it raised or was abandoned), neither does this one:
    the run has failed or stopped before it reads this block.
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
            after, self.after = self.after, None
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

    ``step`` is the ``rows`` of ``run_closed_loop``, which runs once per
    leaf of trials (see ``_leaves``), leaf after leaf.  Rows are drawn in
    blocks of ``_steps`` whole steps of one leaf, floor(_BLOCK_ELEMENTS /
    ``width``) for the widest leaf's ``width``, so a block holds at most
    _BLOCK_ELEMENTS trial-steps whatever M is.  Each block is drawn stream
    by stream: w (with v in the separation regime), n and n_f are separate
    draws.  A row's leaves are drawn in trial order from its one keyed
    generator, which waits in ``_gens`` from one leaf to the next: at most
    4T generators of about 0.6 KB each.

    While the loop runs block b, the helpers draw blocks b+1 .. b+depth,
    into the next leaves once a leaf's blocks run out.  When the loop
    reaches a block that a helper is still drawing, this thread draws queued
    draws that no helper has started, and whose draw in the leaf before is
    over, instead of waiting, so a slow or starved helper costs at most the
    draws it holds.  An exception raised in a helper comes out of the read
    that needs its block, unchanged.

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
        self.width = leaves = 0  # the widest leaf's trials; the number of leaves
        for lo, hi in _leaves(0, M):
            self.width, leaves = max(self.width, hi - lo), leaves + 1
        self._steps = min(_BLOCK_ELEMENTS // self.width, s.T)  # steps per block
        self._groups = -(-s.T // self._steps)  # blocks per leaf
        self._blocks = leaves * self._groups
        self._drawn = _streams_drawn(s)
        self._pool, self._depth = pool, depth
        slots = 1 if pool is None else depth + 1
        # rows w, n, n_f and, with a measurement model, v and the (w, v) scratch
        self._slab = np.empty((slots, self._steps, 3 if m is None else 5, self.width))
        self._zeros = np.zeros(self.width)
        self._gens = {}  # generators of rows drawn up to a leaf, by (stream, t)
        self._spans = _leaves(0, M)  # the spans of the leaves after the last block made
        self._span = None  # the span of the last block made
        self._ahead = deque()  # (span, draws not yet taken, helper's job) of blocks _b + 1, ...
        self._last = {}  # the last draw made, by (stream, block of a leaf)
        self._leaf, self._b, self._block = -1, -1, None

    def _make(self, b: int) -> tuple:
        """Block b's span (t0, t1, lo, hi), for steps t0..t1-1 of trials
        lo..hi-1, and its draws, one per stream that its steps draw; blocks
        are made in order."""
        group = b % self._groups
        if not group:
            self._span = next(self._spans)
        lo, hi = self._span
        t0 = group * self._steps
        t1 = min(t0 + self._steps, self._s.T)
        slot = self._slab[b % len(self._slab)]
        drawn = self._drawn
        streams = drawn[t0] if t1 == t0 + 1 else sorted(set().union(*drawn[t0:t1]))
        draws = deque()
        for stream in streams:
            job = (self._s, self._m, self._seed, stream, drawn, t0, t1, lo, hi, self._M, slot, self._gens)
            draw = _Draw(job, self._last[stream, group] if lo else None)
            self._last[stream, group] = draw
            draws.append(draw)
        return (t0, t1, lo, hi), draws

    def _rows(self, b: int, span: tuple) -> list:
        """The rows (w, n, n_f, v) to read of each step of block b."""
        t0, t1, lo, hi = span
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
        span, pending, fut = ahead.popleft() if ahead else (*self._make(b), None)
        while self._pool is not None and len(ahead) < self._depth and b + 1 + len(ahead) < self._blocks:
            later_span, later = self._make(b + 1 + len(ahead))
            ahead.append((later_span, later, self._pool.submit(_drain, later)))
        _drain(pending)
        if fut is not None and not fut.cancel():
            # a helper is still drawing this block: run the queued blocks'
            # draws that can start now instead of waiting
            for _, later, _ in ahead:
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
        return self._rows(b, span)

    def step(self, t: int) -> tuple:
        """Step t's rows (w, n, n_f, v) of the current leaf, t = 0 starting
        the next leaf; a block's slot is reused once the loop has moved on
        to a later block."""
        if not t:
            self._leaf += 1
        group, i = divmod(t, self._steps)
        b = self._leaf * self._groups + group
        if b != self._b:
            self._block, self._b = self._take(b), b
        return self._block[i]

    def close(self) -> None:
        """Cancel the blocks no helper has started (the loop stopped early)
        and abandon their draws, so no helper waits on them."""
        for _, pending, fut in self._ahead:
            if fut.cancel():
                _abandon(pending)
        self._ahead.clear()


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
    pool, helpers = _helper_pool(M)
    # One block queued per helper: this thread takes over the draws of the
    # block it needs that no helper has started.
    rows = _StreamedRows(plan.schedule, plan.measurement, cfg, pool, helpers)
    rec = _MomentRecorder()
    work = np.empty((8, rows.width))  # the loop's rows, leaf-wide, for every leaf
    x0_gen = _generator(cfg.seed, _STREAM_X0, 0)  # x(0) of one leaf after another
    sd0 = math.sqrt(s.V_xx0)

    def leaf(lo: int, hi: int) -> np.ndarray:
        x = x0_gen.standard_normal(hi - lo)  # the loop updates it in place
        x *= sd0
        run_closed_loop(plan, x, rows.step, rec, work[:, : hi - lo])
        return rec.sums

    try:
        s2_err, s4_err, s2_z = _tree_sum(0, M, leaf)
    finally:
        rows.close()

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
