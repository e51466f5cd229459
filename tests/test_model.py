import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecast import (
    McConfig,
    MeasurementModel,
    RegimeKind,
    SystemSchedule,
    ValidationError,
    build_plan,
    exact_conditioning_oracle,
    kalman_prefilter,
    monte_carlo,
)
from statecast.model import constant_values

from conftest import random_schedule


def test_constant_broadcast_accepted():
    s = SystemSchedule(T=3, a=0.9, b=1, P=1, N=1, N_f=0.1, V_xx0=1)
    assert s.T == 3
    for seq, val in ((s.a, 0.9), (s.b, 1.0), (s.P, 1.0), (s.N, 1.0), (s.N_f, 0.1)):
        assert seq.shape == (3,)
        assert seq.flags.writeable
        assert np.all(seq == val)


def test_zero_power_rejected_with_index():
    with pytest.raises(ValidationError, match=r"P\(0\) must be > 0"):
        SystemSchedule(T=2, a=1, b=1, P=0, N=1, N_f=0, V_xx0=0)
    with pytest.raises(ValidationError, match=r"P\(1\) must be > 0"):
        SystemSchedule(T=2, a=1, b=1, P=[1.0, 0.0], N=1, N_f=0, V_xx0=0)
    with pytest.raises(ValidationError, match=r"N\(0\) must be > 0"):
        SystemSchedule(T=2, a=1, b=1, P=1, N=0, N_f=0, V_xx0=0)


def test_infinite_feedback_noise_is_first_class():
    s = SystemSchedule(T=2, a=1, b=1, P=1, N=1, N_f=math.inf, V_xx0=0)
    assert np.isinf(s.N_f).all()


def test_negative_quantities_rejected():
    with pytest.raises(ValidationError, match=r"N_f\(0\)"):
        SystemSchedule(T=2, a=1, b=1, P=1, N=1, N_f=-1, V_xx0=0)
    with pytest.raises(ValidationError, match="V_xx0"):
        SystemSchedule(T=2, a=1, b=1, P=1, N=1, N_f=0, V_xx0=-0.5)
    with pytest.raises(ValidationError, match="T must be"):
        SystemSchedule(T=0, a=1, b=1, P=1, N=1, N_f=0, V_xx0=0)


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError, match="length-3"):
        SystemSchedule(T=3, a=[1.0, 1.0], b=1, P=1, N=1, N_f=0, V_xx0=0)


def test_validation_is_idempotent(rng):
    for _ in range(20):
        s = random_schedule(rng, time_varying=True)
        s2 = dataclasses.replace(s)
        for name in ("a", "b", "P", "N", "N_f"):
            assert np.array_equal(getattr(s, name), getattr(s2, name))
        assert s2.V_xx0 == s.V_xx0


def test_first_violation_is_named():
    # parameters are checked in the order a, b, P, N, N_f, each from step 0
    nan, inf = float("nan"), float("inf")
    fields = dict(T=4, a=[0.5, 0.5, inf, nan], b=1.0, P=[1.0, 0.0, 1.0, -1.0],
                  N=1.0, N_f=[-1.0, 0.0, 0.0, 0.0], V_xx0=1.0)
    with pytest.raises(ValidationError, match=r"^a\(2\) must be finite$"):
        SystemSchedule(**fields)
    fields.update(a=0.5)
    with pytest.raises(ValidationError, match=r"^P\(1\) must be > 0$"):
        SystemSchedule(**fields)
    fields.update(P=[1.0, 1.0, nan, -1.0])
    with pytest.raises(ValidationError, match=r"^P\(2\) must be > 0$"):
        SystemSchedule(**fields)
    fields.update(P=1.0, N=[1.0, 1.0, 1.0, inf])
    with pytest.raises(ValidationError, match=r"^N\(3\) must be > 0$"):
        SystemSchedule(**fields)
    fields.update(N=1.0)
    with pytest.raises(ValidationError, match=r"^N_f\(0\) must be >= 0 \(may be \+inf\)$"):
        SystemSchedule(**fields)


def test_replace_checks_the_changed_schedule():
    s = SystemSchedule(T=3, a=0.5, b=1.0, P=1.0, N=1.0, N_f=0.5, V_xx0=1.0)
    with pytest.raises(ValidationError, match=r"^N_f\(0\) must be >= 0 \(may be \+inf\)$"):
        dataclasses.replace(s, N_f=-0.5)
    assert np.array_equal(dataclasses.replace(s, N_f=math.inf).N_f, np.full(3, math.inf))


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-3, 3),
    b=st.floats(-3, 3),
    P=st.floats(0.01, 10),
    N=st.floats(0.01, 10),
    T=st.integers(1, 20),
)
def test_broadcast_round_trip(a, b, P, N, T):
    s = SystemSchedule(T=T, a=a, b=b, P=P, N=N, N_f=0.5, V_xx0=1.0)
    again = dataclasses.replace(s)
    assert np.array_equal(s.a, again.a)
    assert len(s.a) == T


def test_constant_helpers():
    s = SystemSchedule(T=4, a=0.5, b=1, P=1, N=2, N_f=0, V_xx0=1)
    assert constant_values(s) == (0.5, 1.0, 1.0, 2.0, 0.0)
    no_fb = SystemSchedule(T=3, a=0.5, b=1, P=1, N=2, N_f=math.inf, V_xx0=1)
    assert constant_values(no_fb) == (0.5, 1.0, 1.0, 2.0, math.inf)
    # P(0), N(0) and N_f(0) carry no transmission, so they may differ
    step0 = SystemSchedule(T=3, a=0.5, b=1, P=[3, 1, 1], N=[5, 2, 2], N_f=[math.inf, 0, 0])
    assert constant_values(step0) == (0.5, 1.0, 1.0, 2.0, 0.0)
    for tv in (
        SystemSchedule(T=2, a=[0.5, 0.6], b=1, P=1, N=1, N_f=0, V_xx0=1),
        SystemSchedule(T=4, a=0.5, b=1, P=1, N=1, N_f=[0.5, 0.5, 0.5, 0.6], V_xx0=1),
        SystemSchedule(T=2, a=0.5, b=[1, 2], P=1, N=1, N_f=0, V_xx0=1),
    ):
        assert constant_values(tv) is None


def test_measurement_validation():
    # checked when built; scalars stay scalars until read at a step
    m = MeasurementModel(c=1, d=1, V_ww=1, V_wv=0, V_vv=[1, 2, 3, 4])
    assert (m.c, m.at(0), m.at(3)) == (1.0, (1.0, 0.0, 1.0), (1.0, 0.0, 4.0))
    m.check_horizon(3)
    with pytest.raises(ValidationError, match="not positive semidefinite"):
        MeasurementModel(c=1, d=1, V_ww=1, V_wv=2, V_vv=1)
    with pytest.raises(ValidationError, match=r"V_vv\(0\)"):
        MeasurementModel(c=1, d=1, V_ww=1, V_wv=0, V_vv=-1)


@pytest.mark.parametrize(
    "entries, message",
    [
        ({"V_ww": [1, 1, 1, -1]}, "V_ww(3) must be >= 0"),
        ({"V_ww": [1, -1], "V_vv": [-1, 1]}, "V_vv(0) must be >= 0"),
        ({"V_wv": [0, 0, 1.5], "V_vv": 2}, "noise covariance at step 2 is not positive semidefinite"),
        ({"c": math.nan}, "c and d must be finite"),
        ({"d": math.inf, "V_vv": -1}, "V_vv(0) must be >= 0"),
        ({"V_ww": [1, 1, 1, 1], "V_vv": [1, 1, 1]}, "V_vv must be a scalar or a length-4 sequence, got shape (3,)"),
        ({"V_wv": [[0.0]]}, "V_wv must be a scalar or a length-1 sequence, got shape (1, 1)"),
        ({"V_ww": math.nan}, "V_ww(0) must be finite"),
        ({"V_vv": [1, math.nan]}, "V_vv(1) must be finite"),
        ({"V_wv": [0, 0, math.nan], "V_vv": 1}, "V_wv(2) must be finite"),
        ({"V_ww": math.inf, "V_vv": 1}, "V_ww(0) must be finite"),
    ],
)
def test_measurement_entry_errors_raise_when_built(entries, message):
    with pytest.raises(ValidationError) as info:
        MeasurementModel(**{"c": 1.0, "d": 1.0, **entries})
    assert str(info.value) == message


def test_measurement_horizon_mismatch_reads_no_entry(monkeypatch):
    s = SystemSchedule(T=3, a=0.9, b=1.0, P=1.0, N=1.0, N_f=0.1, V_xx0=1.0)
    m = MeasurementModel(c=1.0, d=1.0, V_ww=[1.0] * 5, V_vv=1.0)
    m.check_horizon(4)

    def no_reads(*args, **kwargs):
        raise AssertionError("an entry was read")

    sep = RegimeKind.SEPARATION_OUTPUT_FEEDBACK
    monkeypatch.setattr(MeasurementModel, "at", no_reads)
    for call in (
        lambda: kalman_prefilter(s, m),
        lambda: build_plan(s, sep, measurement=m),
        lambda: monte_carlo(s, sep, McConfig(trials=8, seed=1), measurement=m),
        lambda: exact_conditioning_oracle(s, sep, measurement=m),
    ):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == "V_ww must be a scalar or a length-4 sequence, got shape (5,)"
    # the check reads shapes only: no entry is converted or copied
    asarray = np.asarray

    def uncopied(value, dtype=None):
        assert asarray(value, dtype=dtype) is value, "an entry was copied"
        return value

    monkeypatch.setattr(np, "asarray", uncopied)
    monkeypatch.setattr(np, "array", no_reads)
    monkeypatch.setattr(np, "full", no_reads)
    with pytest.raises(ValidationError, match=r"length-6 sequence, got shape \(5,\)"):
        m.check_horizon(5)
