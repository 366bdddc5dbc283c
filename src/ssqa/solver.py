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
buffer becomes the accumulator in place. run_ssqa and hwsim.run_hw hold the
planes, the noise, h, J and the accumulators in one step dtype per run: a
signed integer sized, like the hardware registers, from the weight width,
the row degree and the schedule endpoints (int8 on G11, int16 on G14; see
_step_dtype). The model caches its CSR in each step dtype. Every pass of a
step runs over whole contiguous planes: the replica coupling is one pass
over a neighbour plane built by a flat shifted copy (_add_coupling), and
run_hw forms its sums through the same _accumulate. Only traces and results
are replica-major (R, N) and int64, and only those boundaries transpose and
widen.

Per-run tables: as the paper's controller hands each step its q, I0 and
n_rnd, _step_inputs computes the three schedules once per run
(schedules.schedule_table) and gives each step its values as Python ints.
The saturation clamps against one -i0 plane held for the run and refilled
only when i0 changes (never at a constant i0). A step then spends its
passes on the field product, the replica coupling, the accumulator sum and
the saturation.

Noise: the replica streams run free of the spins, as the p-bit RNGs do in
hardware, so both engines step over _noise_planes, which draws several
steps' noise per RNG call and maps, scales and biases (adds h to) each
block once; draw i of a stream is the same in any block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ising import IsingModel, WeightedGraph, replica_cuts, replica_energies
# perfbench/tracer.py times solver.cut_value, so the name stays bound here;
# _finalize scores every replica at once through replica_cuts.
from .ising import cut_value  # noqa: F401
from .rng import RngStreams
from .schedules import AnnealParams, QSchedule, i0_at, n_rnd_at, schedule_table
# perfbench/tracer.py times solver.q_value_at, so the name stays bound here;
# the engines read q from the per-run table.
from .schedules import q_value_at  # noqa: F401


class AccumulatorOverflowError(ArithmeticError):
    """Integer accumulator exceeded its sized width; indicates a bug."""


class AccumulatorWidthError(ValueError):
    """The schedule needs an accumulator wider than 63 bits: a configuration
    error, raised before the first step."""


@dataclass(frozen=True)
class RunResult:
    best_state: np.ndarray  # int8 +-1: cast before arithmetic
    best_value: int
    best_replica: int
    per_replica_final: np.ndarray
    objective: str  # "cut" or "energy"
    steps_executed: int
    seed: int
    trace: list | None = None
    spin_mean: np.ndarray | None = None


def select_best_replica(finals) -> tuple:
    """Argmax over per-replica values; ties break to the lowest index."""
    finals = np.asarray(finals)
    if finals.size < 1:
        raise ValueError("need at least one replica")
    idx = int(np.argmax(finals))
    return idx, finals[idx].item()


def _bipolar(bits, scale, dtype) -> np.ndarray:
    """(2 bits - 1) * scale in dtype for a uint8 bit array: one multiply of
    the bits' int8 view by 2 scale, then one subtract of scale."""
    out = np.multiply(bits.view(np.int8), scale + scale, dtype=dtype)
    out -= scale
    return out


def initial_state(model: IsingModel, rng: RngStreams, dtype) -> np.ndarray:
    """Random +-1 spins, one noise bit per spin per replica, as a C-order
    (N, R) plane in dtype."""
    return _bipolar(rng.next_block(model.n, low_bit=True), 1, dtype)


def _saturate_and_sign(raw, i0, top, floor, sigma):
    """In place: raw >= i0 becomes top (i0 - alpha), raw < -i0 becomes -i0,
    and sigma (raw's signed integer dtype) gets the sign, 0 as +1. floor is
    a plane of raw's shape holding -i0: numpy clamps against a plane several
    times faster than against a scalar. The top branch is a bit select, so
    one kernel serves every integer width."""
    np.greater_equal(raw, i0, out=sigma)
    np.negative(sigma, out=sigma)  # all ones where raw >= i0
    np.maximum(raw, floor, out=raw)
    sigma &= raw ^ raw.dtype.type(top)
    raw ^= sigma
    # The sign bit spread over the word: -1 where raw < 0, else 0; | 1 gives +-1.
    np.right_shift(raw, 8 * raw.dtype.itemsize - 1, out=sigma)
    sigma |= 1


def _add_coupling(raw, prev, q, periodic):
    """In place on spin-major planes: replica k adds q times replica k+1 of
    the t-1 plane prev; an open chain's last replica adds nothing. One flat
    shifted copy of prev builds the neighbour plane, so no pass is strided,
    and every entry of raw gets the term the two-slice rule gives it."""
    if q == 0:
        return  # adding 0 changes nothing
    upper = np.empty(prev.shape, dtype=prev.dtype)  # C order: written through reshape
    upper.reshape(-1)[:-1] = prev.reshape(-1)[1:]  # [i, k] = prev[i, k + 1] but in the last column
    upper[:, -1] = prev[:, 0]
    upper *= q
    if not periodic:
        upper[:, -1] = 0
    raw += upper


def _accumulate(jmat, sigma, sigma_prev, raw, is_acc, q, periodic):
    """A step's unsaturated sum on spin-major planes, in place: raw (the
    step's noise, already scaled by n_rnd and biased by h) becomes
    raw + J sigma + q sigma_prev[:, k + 1] + is_acc. The sum is exact in any
    order, because _step_dtype bounds the sum of every |term|."""
    raw += jmat @ sigma  # reads the step-t plane only
    _add_coupling(raw, sigma_prev, q, periodic)
    raw += is_acc


def _step_arrays(jmat, params, sigma, sigma_prev, raw, is_acc, q, i0, floor):
    """One step in place, with the step's q, i0 and -i0 plane floor: raw
    becomes the accumulator and sigma_prev the new spins."""
    _accumulate(jmat, sigma, sigma_prev, raw, is_acc, q, params.periodic_replicas)
    _saturate_and_sign(raw, i0, i0 - params.alpha, floor, sigma_prev)


def _bias_plane(model: IsingModel, replicas: int, dtype) -> np.ndarray:
    """h as a C-order (N, R) plane in dtype, added to each noise block."""
    return np.repeat(model.h.astype(dtype)[:, None], replicas, axis=1)


_NOISE_BLOCK = 4096  # draws per stream in one noise block: 64 words a table entry


def _noise_planes(rng, n_rnd, bias):
    """Yield each step's (N, R) noise, n_rnd[t] times +-1 bits plus the
    (N, R) bias plane, in the bias plane's dtype, as C-order, writable views
    of blocks of K = max(1, _NOISE_BLOCK // N) steps, one RNG call each; the
    last holds the rest. n_rnd is the run's table, one entry per step."""
    n, dtype = bias.shape[0], bias.dtype
    per_block = max(1, _NOISE_BLOCK // n)
    for start in range(0, len(n_rnd), per_block):
        scale = np.asarray(n_rnd[start:start + per_block]).astype(dtype)[:, None]
        k = len(scale)
        bits = rng.next_block(k * n, low_bit=True).reshape(k, -1)  # one row per step
        block = _bipolar(bits, scale, dtype)
        block += bias.reshape(-1)
        yield from block.reshape(k, n, rng.n_streams)


def _step_inputs(params, rng, bias):
    """Yield (noise, q, i0, floor) of each step: the noise plane of
    _noise_planes, q and i0 as Python ints from the run's schedule table (a
    numpy integer would widen an int8 plane under NEP 50), and floor, a -i0
    plane shaped like bias. One floor plane serves the run: it is refilled
    only when i0 changes, so an i0 ramp of any length costs one plane."""
    i0s, n_rnd, qs = schedule_table(params)
    floor, held = np.empty_like(bias), None
    for raw, q, i0 in zip(_noise_planes(rng, n_rnd, bias), qs.tolist(), i0s.tolist()):
        if i0 != held:
            floor.fill(-i0)
            held = i0
        yield raw, q, i0, floor


def _schedule_extremes(params: AnnealParams) -> tuple:
    """Largest |n_rnd|, |q| and |saturated accumulator| over the run. The
    ramps are linear, so their extremes are at the endpoints, and q stays in
    [q_min, q_max]. A saturated Is lies in [-i0, i0 - alpha], and i0 - alpha
    is below -i0 when alpha > 2 i0."""
    last = max(params.steps - 1, 0)
    n_rnd_max = max(abs(n_rnd_at(params, 0)), abs(n_rnd_at(params, last)))
    i0_max = max(max(abs(i0), abs(i0 - params.alpha))
                 for i0 in (i0_at(params, 0), i0_at(params, last)))
    q_max = int(np.ceil(max(abs(params.q.q_min), abs(params.q.q_max))))
    return n_rnd_max, q_max, i0_max


def accumulator_bound(model: IsingModel, params: AnnealParams) -> int:
    """Largest |raw accumulator sum| a step can reach: the widest input
    (noise gain and q at their extremes) plus the saturation bound. Raises
    AccumulatorWidthError if the bound needs more than 63 bits."""
    n_rnd_max, q_max, i0_max = _schedule_extremes(params)
    worst = model.max_input_magnitude(n_rnd_max, q_max) + i0_max
    if worst >= 2**62:
        raise AccumulatorWidthError(
            f"the schedule needs a {worst.bit_length() + 1}-bit accumulator, and the "
            f"limit is 63 bits; lower |q_min|, |q_max|, i0 or n_rnd")
    return worst


def _step_dtype(model: IsingModel, params: AnnealParams, jmat) -> np.dtype:
    """The step dtype: the narrowest signed integer that holds +-2 * bound,
    where bound covers every partial sum of a step from widths alone (every
    h and J at 2^(weight_bits-1), a full row of the widest degree) plus the
    schedule extremes. It is not sized from accumulator_bound, so a wrong
    accumulator_bound shows up in run_hw's check instead of wrapping
    silently. Past int64 the run stays in int64, where accumulator_bound
    keeps every sum exact."""
    n_rnd_max, q_max, i0_max = _schedule_extremes(params)
    degree = int(np.diff(jmat.indptr).max())  # jmat: the model's coupling CSR
    bound = ((1 + degree) << (model.weight_bits - 1)) + n_rnd_max + q_max + i0_max
    # A signed type that holds -(2 bound + 1) also holds +2 bound.
    return np.min_scalar_type(-1 - min(2 * bound, 2**63 - 1))


def _finalize(model, params, graph, sigma, trace=None, spin_mean=None):
    """RunResult of a run whose final spin-major (N, R) plane is sigma."""
    if graph is not None:
        finals = replica_cuts(graph, sigma)
        idx, val = select_best_replica(finals)
        objective = "cut"
    else:
        energies = replica_energies(model, sigma)
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
        trace=trace,
        spin_mean=spin_mean,
    )


def run_ssqa(model: IsingModel, params: AnnealParams, graph: WeightedGraph | None = None,
             record_trace: bool = False) -> RunResult:
    """Run the full replica-coupled anneal; deterministic in (model, params, seed)."""
    accumulator_bound(model, params)  # a too-wide schedule raises here
    dtype = _step_dtype(model, params, model.coupling_matrix())
    jmat, bias = model.coupling_matrix(dtype), _bias_plane(model, params.replicas, dtype)
    rng = RngStreams(params.seed, params.replicas)
    sigma = initial_state(model, rng, dtype)
    # The t-1 plane starts as a copy of the t plane, so that the first
    # step's replica-coupling term is well defined.
    sigma_prev, is_acc = sigma.copy(), np.zeros_like(sigma)
    trace = [] if record_trace else None
    for raw, q, i0, floor in _step_inputs(params, rng, bias):
        _step_arrays(jmat, params, sigma, sigma_prev, raw, is_acc, q, i0, floor)
        sigma, sigma_prev, is_acc = sigma_prev, sigma, raw
        if record_trace:
            trace.append(_trace_entry(sigma, is_acc))
    return _finalize(model, params, graph, sigma, trace)


def _trace_entry(sigma, is_acc) -> tuple:
    """Replica-major int64 copies (sigma, Is) of spin-major planes, whatever
    the step dtype."""
    return sigma.T.astype(np.int64, order="C"), is_acc.T.astype(np.int64, order="C")


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
    sigma = initial_state(model, rng, np.float64)
    spin_sum = np.zeros_like(sigma) if collect_spin_mean else None
    for i0 in params.i0.at(np.arange(params.steps, dtype=np.float64), params.steps).tolist():
        inp = i0 * (h + jmat @ sigma)
        r = rng.next_uniform(model.n)
        sigma = np.where(r + np.tanh(inp) >= 0, 1.0, -1.0)
        if collect_spin_mean:
            spin_sum += sigma
    mean = (spin_sum / max(params.steps, 1)).T if collect_spin_mean else None
    return _finalize(model, params, graph, sigma, spin_mean=mean)
