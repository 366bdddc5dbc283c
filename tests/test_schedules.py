"""Tests for the q(t) staircase and the linear control ramps."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ssqa.schedules import (
    AnnealParams,
    LinearSchedule,
    QSchedule,
    i0_at,
    n_rnd_at,
    q_at,
    q_value_at,
    schedule_table,
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


def test_params_validation_and_with():
    with pytest.raises(ValueError):
        AnnealParams(replicas=0)
    with pytest.raises(ValueError):
        AnnealParams(steps=-1)
    with pytest.raises(TypeError):  # float mode is gone: no silent integer run
        AnnealParams(integer_mode=False)
    p = AnnealParams()
    q = p.with_(replicas=7)
    assert q.replicas == 7 and p.replicas == 20  # original untouched


# Ints past 2^53 too: a float64 product of two such ints rounds.
HUGE = st.integers(-2**58, 2**58)
RAMP_END = st.integers(-60, 60) | st.floats(-60, 60, allow_nan=False) | HUGE


@settings(max_examples=300, deadline=None)
@given(steps=st.sampled_from([0, 1]) | st.integers(0, 400), i0=st.tuples(RAMP_END, RAMP_END),
       n_rnd=st.tuples(RAMP_END, RAMP_END), q_min=st.integers(-4, 4) | st.floats(-4, 4) | HUGE,
       q_span=st.integers(0, 8) | st.floats(0, 100) | st.integers(0, 2**58),
       tau=st.integers(1, 500),
       beta=st.sampled_from([0, 0.05, 0.7, 1 / 3]) | st.floats(0, 3) | st.integers(0, 2**55))
@example(steps=0, i0=(5, 5), n_rnd=(6, 0), q_min=0, q_span=2, tau=10, beta=0.05)
@example(steps=1, i0=(9, 3), n_rnd=(-3, 4), q_min=-2.5, q_span=1, tau=7, beta=1 / 3)
@example(steps=100, i0=(3.0, 9.0), n_rnd=(-6, -1), q_min=0, q_span=100, tau=1, beta=0.7)
def test_schedule_table_equals_scalar_functions(steps, i0, n_rnd, q_min, q_span, tau, beta):
    """Each column of the per-run table is i0_at, n_rnd_at and q_value_at
    at every step, over reversed and negative ramps, tau past the run,
    q_min < 0, 0 or 1 steps and int endpoints past 2^53."""
    params = AnnealParams(steps=steps, i0=LinearSchedule(*i0), n_rnd=LinearSchedule(*n_rnd),
                          q=QSchedule(q_min, q_min + q_span, tau, beta))
    table = schedule_table(params)
    for column, scalar in zip(table, (i0_at, n_rnd_at, q_value_at)):
        assert column.dtype == np.int64 and column.shape == (steps,)
        assert column.tolist() == [scalar(params, t) for t in range(steps)]


def test_schedule_table_keeps_the_half_up_staircase_value():
    """45 x 0.7 is 31.499999999999996 in floats, so step 45 quantizes to 31
    in the table as in q_value_at (exact schedules are a separate change)."""
    params = AnnealParams(steps=100, q=QSchedule(0, 100, 1, 0.7))
    assert q_at(params.q, 45) == 31.499999999999996
    assert q_value_at(params, 45) == schedule_table(params)[2][45] == 31


def test_scalar_schedule_values_are_python_ints():
    """A numpy integer would widen an int8 plane under NEP 50."""
    params = AnnealParams(steps=10)
    for scalar in (i0_at, n_rnd_at, q_value_at):
        assert type(scalar(params, 3)) is int
    assert q_at(params.q, np.arange(3)).tolist() == [q_at(params.q, t) for t in range(3)]
    with pytest.raises(ValueError):
        q_at(params.q, np.array([0, -1]))
