"""Tests for the q(t) staircase and the linear control ramps."""

import pytest
from hypothesis import given, strategies as st

from ssqa.schedules import (
    AnnealParams,
    LinearSchedule,
    QSchedule,
    i0_at,
    n_rnd_at,
    q_at,
    q_value_at,
)


def test_staircase_shape():
    s = QSchedule(q_min=0, q_max=8, tau=25, beta=0.5)
    assert q_at(s, 0) == 0
    assert q_at(s, 24) == 0          # still on the first tread
    assert q_at(s, 25) == 0.5        # first increment
    assert q_at(s, 49) == 0.5
    assert q_at(s, 50) == 1.0
    assert q_at(s, 399) == 7.5
    assert q_at(s, 400) == 8.0       # reaches the ceiling
    assert q_at(s, 10_000) == 8.0    # clamped thereafter


def test_staircase_offset_start():
    s = QSchedule(q_min=1.0, q_max=3.0, tau=10, beta=1.0)
    assert [q_at(s, t) for t in (0, 9, 10, 19, 20, 30, 99)] == [
        1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0]


def test_staircase_rejects_bad_inputs():
    with pytest.raises(ValueError):
        QSchedule(q_min=5, q_max=1)
    with pytest.raises(ValueError):
        QSchedule(tau=0)
    with pytest.raises(ValueError):
        QSchedule(beta=-1)
    with pytest.raises(ValueError):
        q_at(QSchedule(), -1)


@given(st.integers(0, 10_000), st.integers(1, 50),
       st.floats(0, 4, allow_nan=False), st.floats(0, 16, allow_nan=False))
def test_staircase_monotone_and_bounded(t, tau, beta, span):
    s = QSchedule(q_min=0, q_max=span, tau=tau, beta=beta)
    v = q_at(s, t)
    assert 0 <= v <= span
    assert v <= q_at(s, t + tau)  # non-decreasing


def test_linear_ramp_endpoints_and_midpoint():
    r = LinearSchedule(8, 64)
    assert r.at(0, 100) == 8
    assert r.at(100, 100) == 64
    assert r.at(50, 100) == 36  # exact arithmetic mean of the endpoints


def test_constant_ramp():
    c = LinearSchedule.constant(5)
    assert c.at(0, 10) == c.at(10, 10) == 5
    assert LinearSchedule(3, 3).at(7, 9) == 3


def test_zero_steps_ramp_returns_start():
    assert LinearSchedule(2, 9).at(0, 0) == 2


def test_integer_mode_quantization():
    p = AnnealParams(steps=10, i0=LinearSchedule(0, 5), n_rnd=LinearSchedule(0, 5),
                     q=QSchedule(0, 8, 1, 0.25))
    # 0.5 -> 1 (round half up), 1.4 -> 1, 2.5 -> 3
    assert i0_at(p, 1) == 1       # 0.5 rounds up
    assert i0_at(p, 3) == 2       # 1.5 rounds up
    assert n_rnd_at(p, 2) == 1    # 1.0 exact
    assert q_value_at(p, 2) == 1  # 0.5 rounds up
    float_p = p.with_(integer_mode=False)
    assert i0_at(float_p, 1) == 0.5
    assert q_value_at(float_p, 2) == 0.5


def test_params_validation_and_with():
    with pytest.raises(ValueError):
        AnnealParams(replicas=0)
    with pytest.raises(ValueError):
        AnnealParams(steps=-1)
    p = AnnealParams()
    q = p.with_(replicas=7)
    assert q.replicas == 7 and p.replicas == 20  # original untouched
