import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from statecast import MeasurementModel, SystemSchedule, simulate
from statecast.schemes import Recorder


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_schedule(rng, T=None, nf="finite", stable=True, time_varying=False):
    """A valid random schedule; |a| <= 0.95 when stable."""
    if T is None:
        T = int(rng.integers(2, 9))
    size = T if time_varying else None

    def draw(lo, hi):
        return rng.uniform(lo, hi, size) if time_varying else float(rng.uniform(lo, hi))

    amax = 0.95 if stable else 1.6
    a = draw(-amax, amax)
    if nf == "finite":
        N_f = draw(0.05, 2.0)
    elif nf == "zero":
        N_f = 0.0
    elif nf == "inf":
        N_f = np.inf
    else:
        N_f = nf
    return SystemSchedule(
        T=T,
        a=a,
        b=draw(0.2, 2.0),
        P=draw(0.3, 3.0),
        N=draw(0.3, 3.0),
        N_f=N_f,
        V_xx0=float(rng.uniform(0.0, 2.0)),
    )


def random_measurement(rng, T, correlated=False):
    V_ww = rng.uniform(0.3, 2.0, T + 1)
    V_vv = rng.uniform(0.3, 2.0, T + 1)
    if correlated:
        V_wv = rng.uniform(-0.9, 0.9, T + 1) * np.sqrt(V_ww * V_vv)
    else:
        V_wv = np.zeros(T + 1)
    return MeasurementModel(
        c=float(rng.uniform(0.3, 2.0)),
        d=float(rng.uniform(0.2, 2.0)),
        V_ww=V_ww,
        V_wv=V_wv,
        V_vv=V_vv,
    )


class ArrayRecorder(Recorder):
    """Stores every signal as a (T, trials) array, row t-1 holding step t.

    z, y and y_f are zero in row T-1 (no transmission at the final step),
    and y_f is zero wherever feedback is absent.  The hooks copy their
    arguments into these arrays.
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


@dataclass(frozen=True, eq=False)
class Streams:
    """Already-scaled noise of M trajectories: x0 is (M,), the others
    (T, M) with row t holding step t; v is None without a measurement model."""

    x0: np.ndarray
    w: np.ndarray
    n: np.ndarray
    n_f: np.ndarray
    v: Optional[np.ndarray] = None

    def rows(self, t):
        """Step t's rows (w, n, n_f, v) of all trials, the ``rows`` of
        ``run_closed_loop``."""
        return self.w[t], self.n[t], self.n_f[t], None if self.v is None else self.v[t]

    def column(self, trial):
        """Width-1 streams holding trajectory ``trial``."""
        pick = lambda arr: None if arr is None else arr[:, trial : trial + 1]
        return Streams(self.x0[trial : trial + 1], *map(pick, (self.w, self.n, self.n_f, self.v)))


def keyed_streams(s, trials, seed, measurement=None):
    """The noise a ``monte_carlo`` run with ``McConfig(trials, seed)`` draws,
    as (T, trials) arrays: each unit-normal row is drawn whole by
    ``simulate._generator`` under its documented (seed, stream, t) key and
    is scaled here, with (w, v) drawn jointly through the Cholesky factor of
    their covariance."""
    T = s.T
    unit = lambda stream, t: simulate._generator(seed, stream, t).standard_normal(trials)
    x0 = math.sqrt(s.V_xx0) * unit(simulate._STREAM_X0, 0)
    w, n, n_f = np.zeros((3, T, trials))
    v = None
    if measurement is not None:
        v = np.zeros((T, trials))
    for t in range(T):
        w[t] = unit(simulate._STREAM_W, t)
        if v is not None:
            V_ww, V_wv, V_vv = measurement.at(t)
            l11 = math.sqrt(V_ww)
            l21 = V_wv / l11 if l11 > 0.0 else 0.0
            l22 = math.sqrt(max(V_vv - l21 * l21, 0.0))
            v[t] = unit(simulate._STREAM_V, t) * l22 + w[t] * l21
            w[t] *= l11
        if t > 0:
            n[t] = unit(simulate._STREAM_N, t) * math.sqrt(s.N[t])
            if 0.0 < s.N_f[t] < math.inf:
                n_f[t] = unit(simulate._STREAM_NF, t) * math.sqrt(s.N_f[t])
    return Streams(x0, w, n, n_f, v)
