"""Time-dependent control signals: replica coupling q(t), saturation bound
i0(t), and noise magnitude n_rnd(t).

q(t) is a non-decreasing staircase: it starts at q_min, gains `beta` every
`tau` steps, and clamps at q_max. i0 and n_rnd interpolate linearly between
their endpoints. The engines read all three rounded half up to integers,
from one table per run (schedule_table); i0_at, n_rnd_at and q_value_at give
single steps of it.

Default values were chosen by a grid sweep on the G11 benchmark (see the
project README); they are tuned constants, not quantities with any external
source of truth. The tuned point — q ramping 0 -> 2 across the run in steps
of 0.05 every 10 steps, constant saturation bound 5, noise magnitude
decaying 6 -> 0 — gives mean cut ~554 / best 560 on G11 over 30 seeds at
the default 500 steps x 20 replicas.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np


def _check_ints(config, *names):
    """Raise TypeError for the first named field of config that is a bool or a non-integer."""
    for name in names:
        value = getattr(config, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise TypeError(f"{name} must be int, got {value!r}")


@dataclass(frozen=True)
class QSchedule:
    q_min: float = 0.0
    q_max: float = 2.0
    tau: int = 10
    beta: float = 0.05

    def __post_init__(self):
        _check_ints(self, "tau")
        # Written so that NaN fails every check.
        if not all(map(math.isfinite, (self.q_min, self.q_max, self.beta))):
            raise ValueError(f"q_min, q_max and beta must be finite, got "
                             f"{self.q_min}, {self.q_max}, {self.beta}")
        if not (self.q_min <= self.q_max):
            raise ValueError("q_min must be <= q_max")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if not (self.beta >= 0):
            raise ValueError("beta must be >= 0")


def q_at(schedule: QSchedule, t):
    """Staircase value at step t, an int or an array of steps:
    min(q_min + floor(t/tau)*beta, q_max), as a numpy scalar or array."""
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be >= 0")
    return np.minimum(schedule.q_min + (t // schedule.tau) * schedule.beta, schedule.q_max)


@dataclass(frozen=True)
class LinearSchedule:
    """Linear ramp start -> end across the step budget; constant if equal.

    value(t) = start + (end - start) * t / steps, so the midpoint t = steps/2
    yields the exact arithmetic mean of the endpoints.
    """

    start: float
    end: float

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(f"ramp endpoints must be finite, got {self.start}:{self.end}")

    @classmethod
    def constant(cls, value) -> "LinearSchedule":
        return cls(value, value)

    def at(self, t, steps: int):
        """Value at step t, an int or an array of steps; the start, in t's
        shape, when there are no steps."""
        if steps <= 0:
            return self.start + 0.0 * t
        return self.start + (self.end - self.start) * t / steps


@dataclass(frozen=True)
class AnnealParams:
    """Full run configuration for the annealing engines.

    The SSQA engines saturate into [-i0, i0 - 1] and so need i0 to round to
    at least 1 at every step; run_psa reads i0 as a real-valued gain.
    """

    steps: int = 500
    replicas: int = 20
    q: QSchedule = field(default_factory=QSchedule)
    i0: LinearSchedule = field(default_factory=lambda: LinearSchedule.constant(5))
    n_rnd: LinearSchedule = field(default_factory=lambda: LinearSchedule(6, 0))
    seed: int = 1

    def __post_init__(self):
        _check_ints(self, "steps", "replicas", "seed")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")

    def with_(self, **kw) -> "AnnealParams":
        return replace(self, **kw)


def _quantize(x):
    """Round half up: an int for a scalar, int64 for an array."""
    if isinstance(x, np.ndarray):
        return np.floor(x + 0.5).astype(np.int64)
    return int(math.floor(x + 0.5))


# The scalar functions evaluate one step of schedule_table's float64
# arithmetic (a float t), so a step reads the same value from either.

def i0_at(params: AnnealParams, t: int) -> int:
    return _quantize(params.i0.at(float(t), params.steps))


def n_rnd_at(params: AnnealParams, t: int) -> int:
    return _quantize(params.n_rnd.at(float(t), params.steps))


def q_value_at(params: AnnealParams, t: int) -> int:
    return _quantize(q_at(params.q, float(t)))


def schedule_table(params: AnnealParams) -> tuple:
    """(i0, n_rnd, q) as int64 arrays over steps 0..steps-1, rounded half up:
    i0_at, n_rnd_at and q_value_at at every step. The steps are float64, so
    no int product can wrap."""
    t = np.arange(params.steps, dtype=np.float64)
    return (_quantize(params.i0.at(t, params.steps)), _quantize(params.n_rnd.at(t, params.steps)),
            _quantize(q_at(params.q, t)))
