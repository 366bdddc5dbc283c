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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ising import IsingModel, WeightedGraph, DimensionError, cut_value
from .rng import RngStreams
from .schedules import AnnealParams, i0_at, n_rnd_at, q_value_at


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
    return ReplicaSet(
        sigma=sigma,
        sigma_prev=sigma.copy(),
        is_acc=np.zeros((params.replicas, model.n), dtype=dtype),
        t=0,
    )


def _coupling_neighbor(plane: np.ndarray, periodic: bool) -> np.ndarray:
    """sigma_{i,k+1}: replica k reads replica k+1, wrapping or zeroed."""
    nbr = np.roll(plane, -1, axis=0)
    if not periodic:
        nbr = nbr.copy()
        nbr[-1] = 0
    return nbr


def _step_arrays(h, jmat, params, state, noise, t):
    q = q_value_at(params, t)
    i0 = i0_at(params, t)
    n_rnd = n_rnd_at(params, t)
    alpha = params.alpha

    # (R, N), reads the step-t plane only. J is symmetric, so J @ sigma^T
    # gives the same field without scipy transposing the CSR each call.
    field = (jmat @ state.sigma.T).T
    inp = h + field + n_rnd * noise
    inp = inp + q * _coupling_neighbor(state.sigma_prev, params.periodic_replicas)

    raw = state.is_acc + inp
    is_new = np.where(raw >= i0, i0 - alpha, np.where(raw < -i0, -i0, raw))
    sigma_new = np.where(is_new >= 0, 1, -1).astype(state.sigma.dtype)
    return ReplicaSet(sigma=sigma_new, sigma_prev=state.sigma, is_acc=is_new, t=t + 1)


def ssqa_step(model: IsingModel, params: AnnealParams, state: ReplicaSet,
              rng: RngStreams) -> ReplicaSet:
    """One synchronous update of every spin in every replica."""
    if state.sigma.shape != (params.replicas, model.n):
        raise DimensionError(
            f"state shape {state.sigma.shape}, expected ({params.replicas},{model.n})"
        )
    jmat = model.coupling_matrix()
    noise = _draw_noise(params, rng, model.n)
    return _step_arrays(model.h, jmat, params, state, noise, state.t)


def _draw_noise(params, rng, n):
    if params.integer_mode:
        return rng.next_bipolar(n).T
    return rng.next_uniform(n).T


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


def _finalize(model, params, graph, state, seed, steps, trajectory, trace, spin_mean=None):
    if graph is not None:
        finals = np.array([cut_value(graph, s) for s in np.asarray(state.sigma, dtype=np.int64)])
        idx, val = select_best_replica(finals)
        objective = "cut"
    else:
        energies = _replica_energies(model, state.sigma)
        idx, _ = select_best_replica(-energies)
        finals = energies
        val = energies[idx].item()
        objective = "energy"
    return RunResult(
        best_state=state.sigma[idx].astype(np.int8),
        best_value=val,
        best_replica=idx,
        per_replica_final=finals,
        objective=objective,
        steps_executed=steps,
        seed=seed,
        trajectory=trajectory,
        trace=trace,
        spin_mean=spin_mean,
    )


def _replica_energies(model: IsingModel, sigma) -> np.ndarray:
    sig = np.asarray(sigma, dtype=np.int64)
    field = (model.coupling_matrix() @ sig.T).T
    return -(sig @ model.h) - (sig * field).sum(axis=1) // 2


def run_ssqa(model: IsingModel, params: AnnealParams, graph: WeightedGraph | None = None,
             record_trajectory: bool = False, record_trace: bool = False) -> RunResult:
    """Run the full replica-coupled anneal; deterministic in (model, params, seed)."""
    if params.integer_mode:
        accumulator_bound(model, params)  # a too-wide schedule raises here
    jmat = model.coupling_matrix()
    h = model.h if params.integer_mode else model.h.astype(np.float64)
    rng = RngStreams(params.seed, params.replicas)
    state = initial_state(model, params, rng)
    trajectory = [] if record_trajectory else None
    trace = [] if record_trace else None
    for t in range(params.steps):
        noise = _draw_noise(params, rng, model.n)
        state = _step_arrays(h, jmat, params, state, noise, t)
        if record_trajectory:
            trajectory.append(int(_replica_energies(model, state.sigma).min()))
        if record_trace:
            trace.append((state.sigma.copy(), state.is_acc.copy()))
    return _finalize(model, params, graph, state, params.seed, params.steps,
                     trajectory, trace)


def run_ssa(model: IsingModel, params: AnnealParams, graph: WeightedGraph | None = None,
            **kw) -> RunResult:
    """Single-network anneal: the R = 1, q = 0 degenerate configuration."""
    from .schedules import QSchedule

    degenerate = params.with_(replicas=1, q=QSchedule(0, 0, 1, 0))
    return run_ssqa(model, degenerate, graph, **kw)


def run_psa(model: IsingModel, params: AnnealParams, graph: WeightedGraph | None = None,
            collect_spin_mean: bool = False) -> RunResult:
    """Floating-point baseline: sigma' = sgn(r + tanh(i0 * (h + J sigma))).

    Replicas evolve independently (no coupling term); r is uniform on [-1, 1).
    """
    jmat = model.coupling_matrix()
    h = model.h.astype(np.float64)
    rng = RngStreams(params.seed, params.replicas)
    sigma = rng.next_bipolar(model.n).T.astype(np.float64).copy()
    spin_sum = np.zeros_like(sigma) if collect_spin_mean else None
    for t in range(params.steps):
        i0 = params.i0.at(t, params.steps)
        inp = i0 * (h + (jmat @ sigma.T).T)
        r = rng.next_uniform(model.n).T
        sigma = np.where(r + np.tanh(inp) >= 0, 1.0, -1.0)
        if collect_spin_mean:
            spin_sum += sigma
    state = ReplicaSet(sigma=sigma, sigma_prev=sigma, is_acc=np.zeros_like(sigma),
                       t=params.steps)
    mean = spin_sum / max(params.steps, 1) if collect_spin_mean else None
    return _finalize(model, params, graph, state, params.seed, params.steps,
                     None, None, spin_mean=mean)
