"""Reference annealing engines.

run_ssqa evolves R replica spin networks with saturating accumulators and a
staircase replica-coupling schedule; run_ssa is its single-replica,
zero-coupling degenerate case; run_psa is the floating-point tanh baseline
used for cross-validation.

Sweep discipline: each step reads all spins from the previous-step plane
(synchronous / Jacobi), so the update is independent of spin order and
matches the hardware model, which reads its delay banks while writing the
next plane. The replica-coupling term reads the plane from two steps back
(delay d = 1) of replica k+1, wrapping periodically unless configured open.

Layout: the engines keep spin-major (N, R) planes, the word layout of the
hardware delay lines: row i holds spin i of every replica. A step's noise
block arrives in that shape, J @ sigma needs no transpose, and the noise
buffer becomes the accumulator in place. ReplicaSet, traces and results
stay replica-major (R, N); only those boundaries transpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ising import IsingModel, WeightedGraph, DimensionError, cut_value
from .rng import RngStreams
from .schedules import AnnealParams, QSchedule, i0_at, n_rnd_at, q_value_at


class AccumulatorOverflowError(ArithmeticError):
    """Integer accumulator exceeded its sized width; indicates a bug."""


class AccumulatorWidthError(ValueError):
    """The schedule needs an accumulator wider than 63 bits: a configuration
    error, raised before the first step."""


@dataclass
class ReplicaSet:
    """Dynamical state: spin planes at t and t-1 plus the accumulators."""

    sigma: np.ndarray       # (R, N) spins at step t
    sigma_prev: np.ndarray  # (R, N) spins at step t-1
    is_acc: np.ndarray      # (R, N) saturating accumulators
    t: int = 0


@dataclass(frozen=True)
class RunResult:
    best_state: np.ndarray  # int8 +-1: cast before arithmetic
    best_value: int
    best_replica: int
    per_replica_final: np.ndarray
    objective: str  # "cut" or "energy"
    steps_executed: int
    seed: int
    trajectory: list | None = None
    trace: list | None = None
    spin_mean: np.ndarray | None = None


def select_best_replica(finals) -> tuple:
    """Argmax over per-replica values; ties break to the lowest index."""
    finals = np.asarray(finals)
    if finals.size < 1:
        raise ValueError("need at least one replica")
    idx = int(np.argmax(finals))
    return idx, finals[idx].item()


def initial_state(model: IsingModel, params: AnnealParams, rng: RngStreams) -> ReplicaSet:
    """Random +-1 spins (one noise bit per spin per replica), accumulators 0.

    The t-1 plane starts as a copy of the t plane so the first step's
    replica-coupling term is well defined.
    """
    dtype = np.int64 if params.integer_mode else np.float64
    sigma = rng.next_bipolar(model.n).T.astype(dtype).copy()
    return ReplicaSet(sigma=sigma, sigma_prev=sigma.copy(), is_acc=np.zeros_like(sigma), t=0)


def _saturate_and_sign(raw, i0, top, sigma):
    """In place: raw >= i0 becomes top (i0 - alpha), raw < -i0 becomes -i0,
    and sigma gets the sign, 0 as +1. The top branch is a bit select on the
    int64 view, so float values stay exact too."""
    bits, mask = raw.view(np.int64), sigma.view(np.int64)
    np.greater_equal(raw, i0, out=mask)
    np.negative(mask, out=mask)  # all ones where raw >= i0
    np.maximum(raw, -i0, out=raw)
    mask &= bits ^ np.array(top, dtype=raw.dtype).view(np.int64)
    bits ^= mask
    np.greater_equal(raw, 0, out=sigma)
    sigma += sigma
    sigma -= 1


def _step_arrays(h, jmat, params, sigma, sigma_prev, raw, is_acc, t):
    """Step t on spin-major planes, in place: raw (the step's noise) becomes
    the accumulator and sigma_prev the new spins. The sum runs in the order
    h + J sigma, noise, coupling, accumulator, so float mode rounds the same."""
    q = q_value_at(params, t)
    i0 = i0_at(params, t)
    raw *= n_rnd_at(params, t)
    field = jmat @ sigma  # reads the step-t plane only
    field += h[:, None]
    raw += field
    # Replica k reads replica k+1 at t-1; an open chain's last replica reads none.
    raw[:, :-1] += q * sigma_prev[:, 1:]
    if params.periodic_replicas:
        raw[:, -1] += q * sigma_prev[:, 0]
    raw += is_acc
    _saturate_and_sign(raw, i0, i0 - params.alpha, sigma_prev)


def _spin_major(state: ReplicaSet, params: AnnealParams) -> tuple:
    """(N, R) copies, in the mode's dtype, of the planes and accumulators."""
    dtype = np.int64 if params.integer_mode else np.float64
    return tuple(np.array(a.T, dtype=dtype, order="C")
                 for a in (state.sigma, state.sigma_prev, state.is_acc))


def ssqa_step(model: IsingModel, params: AnnealParams, state: ReplicaSet,
              rng: RngStreams) -> ReplicaSet:
    """One synchronous update of every spin in every replica."""
    if state.sigma.shape != (params.replicas, model.n):
        raise DimensionError(
            f"state shape {state.sigma.shape}, expected ({params.replicas},{model.n})")
    sigma, sigma_prev, is_acc = _spin_major(state, params)
    raw = _draw_noise(params, rng, model.n)
    _step_arrays(model.h, model.coupling_matrix(), params, sigma, sigma_prev, raw, is_acc, state.t)
    # sigma_prev now holds the new spins and raw the new accumulators.
    return ReplicaSet(sigma=sigma_prev.T, sigma_prev=state.sigma, is_acc=raw.T, t=state.t + 1)


def _draw_noise(params, rng, n):
    """(N, R) noise of one step: +-1 bits in integer mode, else uniforms."""
    return rng.next_bipolar(n) if params.integer_mode else rng.next_uniform(n)


def accumulator_bound(model: IsingModel, params: AnnealParams) -> int:
    """Largest |raw accumulator sum| an integer-mode step can reach: the
    widest input (noise gain and q at their extremes) plus the saturation
    bound. The ramps are linear, so their extremes are at the endpoints, and
    q stays in [q_min, q_max]. Raises AccumulatorWidthError if the bound
    needs more than 63 bits."""
    last = max(params.steps - 1, 0)
    n_rnd_max = max(abs(n_rnd_at(params, 0)), abs(n_rnd_at(params, last)))
    i0_max = max(abs(i0_at(params, 0)), abs(i0_at(params, last)))
    q_max = int(np.ceil(max(abs(params.q.q_min), abs(params.q.q_max))))
    worst = model.max_input_magnitude(n_rnd_max, q_max) + i0_max
    if worst >= 2**62:
        raise AccumulatorWidthError(
            f"the schedule needs a {worst.bit_length() + 1}-bit accumulator, and the "
            f"limit is 63 bits; lower |q_min|, |q_max|, i0 or n_rnd")
    return worst


def _finalize(model, params, graph, sigma, trajectory=None, trace=None, spin_mean=None):
    """RunResult of a run whose final spin-major (N, R) plane is sigma."""
    if graph is not None:
        finals = np.array([cut_value(graph, s) for s in np.asarray(sigma, dtype=np.int64).T])
        idx, val = select_best_replica(finals)
        objective = "cut"
    else:
        energies = _replica_energies(model, sigma)
        idx, _ = select_best_replica(-energies)
        finals = energies
        val = energies[idx].item()
        objective = "energy"
    return RunResult(
        best_state=sigma[:, idx].astype(np.int8),
        best_value=val,
        best_replica=idx,
        per_replica_final=finals,
        objective=objective,
        steps_executed=params.steps,
        seed=params.seed,
        trajectory=trajectory,
        trace=trace,
        spin_mean=spin_mean,
    )


def _replica_energies(model: IsingModel, sigma) -> np.ndarray:
    """Energy of each replica of a spin-major (N, R) plane."""
    sig = np.asarray(sigma, dtype=np.int64)
    return -(model.h @ sig) - (sig * (model.coupling_matrix() @ sig)).sum(axis=0) // 2


def run_ssqa(model: IsingModel, params: AnnealParams, graph: WeightedGraph | None = None,
             record_trajectory: bool = False, record_trace: bool = False) -> RunResult:
    """Run the full replica-coupled anneal; deterministic in (model, params, seed)."""
    if params.integer_mode:
        accumulator_bound(model, params)  # a too-wide schedule raises here
    jmat = model.coupling_matrix()
    h = model.h if params.integer_mode else model.h.astype(np.float64)
    rng = RngStreams(params.seed, params.replicas)
    sigma, sigma_prev, is_acc = _spin_major(initial_state(model, params, rng), params)
    trajectory = [] if record_trajectory else None
    trace = [] if record_trace else None
    for t in range(params.steps):
        raw = _draw_noise(params, rng, model.n)
        _step_arrays(h, jmat, params, sigma, sigma_prev, raw, is_acc, t)
        sigma, sigma_prev, is_acc = sigma_prev, sigma, raw
        if record_trajectory:
            trajectory.append(int(_replica_energies(model, sigma).min()))
        if record_trace:
            trace.append((sigma.T.copy(), is_acc.T.copy()))
    return _finalize(model, params, graph, sigma, trajectory, trace)


def run_ssa(model: IsingModel, params: AnnealParams, graph: WeightedGraph | None = None,
            **kw) -> RunResult:
    """Single-network anneal: the R = 1, q = 0 degenerate configuration."""
    degenerate = params.with_(replicas=1, q=QSchedule(0, 0, 1, 0))
    return run_ssqa(model, degenerate, graph, **kw)


def run_psa(model: IsingModel, params: AnnealParams, graph: WeightedGraph | None = None,
            collect_spin_mean: bool = False) -> RunResult:
    """Floating-point baseline: sigma' = sgn(r + tanh(i0 * (h + J sigma))).

    Replicas evolve independently (no coupling term); r is uniform on [-1, 1).
    """
    jmat = model.coupling_matrix()
    h = model.h.astype(np.float64)[:, None]
    rng = RngStreams(params.seed, params.replicas)
    sigma = rng.next_bipolar(model.n).astype(np.float64)  # spin-major (N, R)
    spin_sum = np.zeros_like(sigma) if collect_spin_mean else None
    for t in range(params.steps):
        i0 = params.i0.at(t, params.steps)
        inp = i0 * (h + jmat @ sigma)
        r = rng.next_uniform(model.n)
        sigma = np.where(r + np.tanh(inp) >= 0, 1.0, -1.0)
        if collect_spin_mean:
            spin_sum += sigma
    mean = (spin_sum / max(params.steps, 1)).T if collect_spin_mean else None
    return _finalize(model, params, graph, sigma, spin_mean=mean)
