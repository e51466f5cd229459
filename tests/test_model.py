import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecast import (
    MeasurementModel,
    SystemSchedule,
    ValidationError,
    validate_measurement,
    validate_schedule,
)
from statecast.model import constant_values

from conftest import random_schedule


def test_constant_broadcast_accepted():
    s = validate_schedule(
        SystemSchedule(T=3, a=0.9, b=1, P=1, N=1, N_f=0.1, V_xx0=1)
    )
    assert s.T == 3
    for seq, val in ((s.a, 0.9), (s.b, 1.0), (s.P, 1.0), (s.N, 1.0), (s.N_f, 0.1)):
        assert seq.shape == (3,)
        assert np.all(seq == val)


def test_zero_power_rejected_with_index():
    with pytest.raises(ValidationError, match=r"P\(0\) must be > 0"):
        validate_schedule(SystemSchedule(T=2, a=1, b=1, P=0, N=1, N_f=0, V_xx0=0))
    with pytest.raises(ValidationError, match=r"P\(1\) must be > 0"):
        validate_schedule(
            SystemSchedule(T=2, a=1, b=1, P=[1.0, 0.0], N=1, N_f=0, V_xx0=0)
        )
    with pytest.raises(ValidationError, match=r"N\(0\) must be > 0"):
        validate_schedule(SystemSchedule(T=2, a=1, b=1, P=1, N=0, N_f=0, V_xx0=0))


def test_infinite_feedback_noise_is_first_class():
    s = validate_schedule(
        SystemSchedule(T=2, a=1, b=1, P=1, N=1, N_f=math.inf, V_xx0=0)
    )
    assert np.isinf(s.N_f).all()


def test_negative_quantities_rejected():
    with pytest.raises(ValidationError, match=r"N_f\(0\)"):
        validate_schedule(SystemSchedule(T=2, a=1, b=1, P=1, N=1, N_f=-1, V_xx0=0))
    with pytest.raises(ValidationError, match="V_xx0"):
        validate_schedule(SystemSchedule(T=2, a=1, b=1, P=1, N=1, N_f=0, V_xx0=-0.5))
    with pytest.raises(ValidationError, match="T must be"):
        validate_schedule(SystemSchedule(T=0, a=1, b=1, P=1, N=1, N_f=0, V_xx0=0))


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError, match="length-3"):
        validate_schedule(
            SystemSchedule(T=3, a=[1.0, 1.0], b=1, P=1, N=1, N_f=0, V_xx0=0)
        )


def test_validation_is_idempotent(rng):
    for _ in range(20):
        s = validate_schedule(random_schedule(rng, time_varying=True))
        s2 = validate_schedule(s)
        for name in ("a", "b", "P", "N", "N_f"):
            assert np.array_equal(getattr(s, name), getattr(s2, name))
        assert s2.V_xx0 == s.V_xx0


def test_first_violation_is_named():
    # parameters are checked in the order a, b, P, N, N_f, each from step 0
    nan, inf = float("nan"), float("inf")
    s = SystemSchedule(T=4, a=[0.5, 0.5, inf, nan], b=1.0, P=[1.0, 0.0, 1.0, -1.0],
                       N=1.0, N_f=[-1.0, 0.0, 0.0, 0.0], V_xx0=1.0)
    with pytest.raises(ValidationError, match=r"^a\(2\) must be finite$"):
        validate_schedule(s)
    s = dataclasses.replace(s, a=0.5)
    with pytest.raises(ValidationError, match=r"^P\(1\) must be > 0$"):
        validate_schedule(s)
    s = dataclasses.replace(s, P=[1.0, 1.0, nan, -1.0])
    with pytest.raises(ValidationError, match=r"^P\(2\) must be > 0$"):
        validate_schedule(s)
    s = dataclasses.replace(s, P=1.0, N=[1.0, 1.0, 1.0, inf])
    with pytest.raises(ValidationError, match=r"^N\(3\) must be > 0$"):
        validate_schedule(s)
    s = dataclasses.replace(s, N=1.0)
    with pytest.raises(ValidationError, match=r"^N_f\(0\) must be >= 0 \(may be \+inf\)$"):
        validate_schedule(s)


@settings(max_examples=50, deadline=None)
@given(
    a=st.floats(-3, 3),
    b=st.floats(-3, 3),
    P=st.floats(0.01, 10),
    N=st.floats(0.01, 10),
    T=st.integers(1, 20),
)
def test_broadcast_round_trip(a, b, P, N, T):
    s = validate_schedule(SystemSchedule(T=T, a=a, b=b, P=P, N=N, N_f=0.5, V_xx0=1.0))
    again = validate_schedule(s)
    assert np.array_equal(s.a, again.a)
    assert len(s.a) == T


def test_constant_helpers():
    s = SystemSchedule(T=4, a=0.5, b=1, P=1, N=2, N_f=0, V_xx0=1)
    assert constant_values(validate_schedule(s)) == (0.5, 1.0, 1.0, 2.0, 0.0)
    no_fb = SystemSchedule(T=3, a=0.5, b=1, P=1, N=2, N_f=math.inf, V_xx0=1)
    assert constant_values(validate_schedule(no_fb)) == (0.5, 1.0, 1.0, 2.0, math.inf)
    for tv in (
        SystemSchedule(T=2, a=[0.5, 0.6], b=1, P=1, N=1, N_f=0, V_xx0=1),
        SystemSchedule(T=4, a=0.5, b=1, P=1, N=1, N_f=[0.5, 0.5, 0.5, 0.6], V_xx0=1),
    ):
        assert constant_values(validate_schedule(tv)) is None


def test_measurement_validation():
    m = validate_measurement(MeasurementModel(c=1, d=1, V_ww=1, V_wv=0, V_vv=1), T=3)
    assert m.V_ww.shape == (4,)
    with pytest.raises(ValidationError, match="not positive semidefinite"):
        validate_measurement(MeasurementModel(c=1, d=1, V_ww=1, V_wv=2, V_vv=1), T=3)
    with pytest.raises(ValidationError, match=r"V_vv\(0\)"):
        validate_measurement(MeasurementModel(c=1, d=1, V_ww=1, V_wv=0, V_vv=-1), T=3)
