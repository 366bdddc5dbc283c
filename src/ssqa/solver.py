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

One loop: run_ssqa, run_ssa and hwsim.run_hw all anneal through _anneal.
Each step takes its spin planes from a plane store, an iterator that yields
the t plane's flat view, the t-1 plane and the plane that takes the t+1
spins, then rotates them. run_ssqa's store (_two_planes) writes the t+1
spins over the t-1 plane and swaps the two, as the paper's dual-BRAM delay
line does; run_hw's store is its delay line.

Layout: the engines keep spin-major (N, R) planes, the word layout of the
hardware delay lines: row i holds spin i of every replica. A step's noise
block arrives in that shape and the noise buffer becomes the accumulator in
place. The field J sigma needs no transpose: scipy's compiled CSR kernel
(csr_matvec at R = 1, csr_matvecs above) adds it straight into the
accumulator, with no product plane (_step). The loop holds the planes, the
noise, h, J and the accumulators in one step dtype per run: a signed
integer sized, like the hardware registers, from the weight width, the row
degree and the schedule endpoints (int8 on G11, int16 on G14; see
_step_dtype), which the kernel sums in. The model caches its CSR in each
step dtype. Every pass of a step runs over whole contiguous planes: the
replica coupling is one pass over a neighbour plane built by a flat shifted
copy (_add_coupling). Only traces and results are replica-major (R, N) and
int64, and only those boundaries transpose and widen.

Per-step inputs: the paper's controller hands each step its q, I0 and
n_rnd, and the p-bit RNGs run free of the spins. So one generator,
_step_inputs, computes the three schedules once per run
(schedules.schedule_table) and draws several steps' noise per RNG call,
mapping, scaling and biasing (adding h to) each block once; draw i of a
stream is the same in any block size. A block holds C = max(1, 20 // R)
lanes of m = max(1, 4096 // N) steps (rng's lane blocks), so a narrow
plane draws as many steps a call as C lanes hold: 100 G11 steps at R = 1,
and m steps at R >= 11. The noise arrives spin-major from
the RNG (rng packs it by bit plane), so no pass transposes it. An all-zero
h, as every MAX-CUT model has, skips the bias pass.

Per-run planes: past its noise block, a step allocates no plane; its
accumulator is the previous step's noise plane. The loop holds, for the
whole run, the store's planes, the -i0 and i0 - alpha clamp planes (from
_step_inputs, which yields each noise plane with its flat view and refills
the clamp planes only when i0 changes) and _step_constants: the CSR product
bound to J, one scratch plane (the neighbour plane of _add_coupling, and
the raw ^ top plane off the paper's rule) and a 1 of the step dtype. The
planes are checked once there (_check_field_planes), so a step checks no
flag, dtype or shape. A step is one _step call: the field product, the
replica coupling (skipped at q = 0), the accumulator sum, run_hw's bound
check, the saturation (two clamps under the paper's rule, alpha 1, or 0,
with i0 - alpha >= -i0, else a bit select) and the sign, np.sign ORed with
the held 1, so 0 gives +1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import cycle, islice

import numpy as np
from scipy.sparse import _sparsetools

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


def _saturate_by_select(raw, i0, top, floor, select, scratch):
    """In place, for any (i0, top): raw >= i0 becomes top, else raw < -i0
    becomes -i0. The top branch is a bit select: raw ^ top in scratch, kept
    by a multiply with the 0/1 comparison held in select, flips raw to top.
    select and scratch are planes of raw's shape and dtype whose values are
    not read."""
    np.greater_equal(raw, i0, out=select)  # 1 where raw >= i0, else 0
    np.maximum(raw, floor, out=raw)
    np.bitwise_xor(raw, raw.dtype.type(top), out=scratch)
    scratch *= select
    raw ^= scratch


def _add_coupling(raw, prev, q, periodic, upper):
    """In place on spin-major planes: replica k adds q times replica k+1 of
    the t-1 plane prev; an open chain's last replica adds nothing. One flat
    shifted multiply of prev fills the neighbour plane upper, a C-ordered
    plane of raw's shape and dtype whose values are not read, so no pass is
    strided, and every entry of raw gets the term the two-slice rule gives
    it."""
    # [i, k] = q prev[i, k + 1] but in the last column.
    np.multiply(prev.reshape(-1)[1:], q, out=upper.reshape(-1)[:-1])
    if periodic:
        np.multiply(prev[:, 0], q, out=upper[:, -1])
    else:
        upper[:, -1] = 0
    raw += upper


def _check_field_planes(jmat, sigma, raw):
    """Raise ValueError unless raw is C-ordered and sigma has raw's shape,
    both in J's dtype with one row per spin: what _step's CSR kernel needs
    and does not check. The kernel checks no length, so a plane of another
    shape would be read or written out of bounds. _step_constants calls
    this once per run with the plane that every step's sigma is a view of
    and the accumulator plane that every step's raw matches (each noise
    plane of _step_inputs is a C-ordered plane of the step dtype)."""
    if (not raw.flags.c_contiguous or raw.dtype != jmat.dtype or sigma.dtype != jmat.dtype
            or sigma.shape != raw.shape or len(jmat.indptr) != raw.shape[0] + 1):
        raise ValueError(
            f"the field product needs a C-ordered (N, R) accumulator and a sigma plane of its "
            f"shape, both in J's dtype; got J {jmat.dtype} {jmat.shape}, raw {raw.dtype} "
            f"{raw.shape} (C-ordered: {raw.flags.c_contiguous}), sigma {sigma.dtype} "
            f"{sigma.shape}")


def _step_constants(jmat, sigma, is_acc, alpha, periodic, bound=None):
    """The per-run constants of _step, from the run's t plane sigma and
    accumulator plane is_acc, whose planes it checks once
    (_check_field_planes): the CSR product bound to J (csr_matvec at R = 1,
    csr_matvecs above, as scipy's own product picks), alpha, the chain's
    wrap, the held scratch plane, a 1 of the step dtype and the accumulator
    bound (None skips the check)."""
    _check_field_planes(jmat, sigma, is_acc)
    n, replicas = sigma.shape
    csr = (jmat.indptr, jmat.indices, jmat.data)
    product = (partial(_sparsetools.csr_matvec, n, n, *csr) if replicas == 1
               else partial(_sparsetools.csr_matvecs, n, n, replicas, *csr))
    return product, alpha, periodic, np.empty_like(sigma), np.array(1, sigma.dtype), bound


def _step(run, sigma, prev, raw, flat, is_acc, q, i0, floor, ceil, out):
    """One step in place on spin-major planes: raw (the step's noise, scaled
    by n_rnd and biased by h) becomes the saturated accumulator and out the
    new spins. run is _step_constants' tuple, sigma the t plane's flat
    view, prev the t-1 plane and flat raw's flat view. raw gains J sigma
    (through flat), q prev[:, k + 1] and is_acc, exactly in any order, as
    _step_dtype bounds the sum of every |term|; a run with a bound checks
    the sum against it. Then raw >= i0 becomes i0 - alpha and raw < -i0
    becomes -i0, against the -i0 and i0 - alpha planes floor and ceil (a
    clamp against a plane is several times faster than against a scalar):
    two clamps under the paper's rule (alpha 0 or 1, i0 - alpha >= -i0),
    else the bit select. The sign is np.sign ORed with 1, so 0 gives +1."""
    product, alpha, periodic, scratch, one, bound = run
    product(sigma, flat)
    if q:
        _add_coupling(raw, prev, q, periodic, scratch)
    raw += is_acc
    if bound is not None:
        # Python ints: on a narrow dtype, -raw.min() could wrap.
        peak = max(int(raw.max()), -int(raw.min()))
        if peak > bound:
            raise AccumulatorOverflowError(f"|accumulator| {peak} exceeds bound {bound}")
    if (alpha == 0 or alpha == 1) and i0 + i0 >= alpha:
        np.maximum(raw, floor, out=raw)
        np.minimum(raw, ceil, out=raw)
    else:
        _saturate_by_select(raw, i0, i0 - alpha, floor, out, scratch)
    np.sign(raw, out=out)
    out |= one


_NOISE_BLOCK = 4096  # draws per stream in one noise lane: 64 words a table entry
_NOISE_LANES = 20  # lanes x streams a noise block aims at; R >= 11 draws one lane


def _step_inputs(params, rng, h, dtype):
    """Yield (noise, flat, q, i0, floor, ceil) of each step from the run's
    schedule table. noise, n_rnd[t] times +-1 bits plus h, is a C-order,
    writable (N, R) plane in dtype, and flat its flat view. One RNG call
    draws the noise of C = max(1, _NOISE_LANES // R) lanes of
    m = max(1, _NOISE_BLOCK // N) steps, fewer lanes when fewer whole lanes are left,
    and a tail shorter than m steps is one single-lane block; each block is
    mapped, scaled and biased once, and an all-zero h (every MAX-CUT model)
    skips the bias pass. So a narrow plane draws many steps a call (100 G11
    steps at R = 1) and R >= 11 draws m steps a call. q and i0 are Python
    ints (a numpy integer would widen an int8 plane under NEP 50). floor
    and ceil are the -i0 and i0 - alpha planes that the saturation clamps
    against; one of each serves the run, refilled only when i0 changes."""
    n, replicas = len(h), rng.n_streams
    # The flat spin-major (N, R) plane of h, or None when adding it changes nothing.
    bias = np.repeat(h.astype(dtype), replicas) if h.any() else None
    i0s, n_rnd, qs = (column.tolist() for column in schedule_table(params))
    per_lane, lanes = max(1, _NOISE_BLOCK // n), max(1, _NOISE_LANES // replicas)
    floor, ceil, held = np.empty((n, replicas), dtype), np.empty((n, replicas), dtype), None
    start = 0
    while start < params.steps:
        # count lanes of size steps: whole lanes while any are left, then one
        # lane of the rest.
        rest = params.steps - start
        count, size = min(lanes, rest // per_lane) or 1, min(per_lane, rest)
        scale = np.array(n_rnd[start:start + count * size], dtype)[:, None]  # one row per step
        bits = rng.next_block(count * size * n, low_bit=True, lanes=count)
        # One row per step: a view but for lanes of a length not divisible by 8.
        block = _bipolar(bits.reshape(len(scale), -1), scale, dtype)
        if bias is not None:
            block += bias
        for t, (noise, flat) in enumerate(zip(block.reshape(-1, n, replicas), block), start):
            if i0s[t] != held:
                held = i0s[t]
                floor.fill(-held)
                ceil.fill(held - params.alpha)
            yield noise, flat, qs[t], held, floor, ceil
        start += count * size


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


def _step_dtype(model: IsingModel, params: AnnealParams) -> np.dtype:
    """The step dtype: the narrowest signed integer that holds +-2 * bound,
    where bound covers every partial sum of a step from widths alone (every
    h and J at 2^(weight_bits-1), a full row of the widest degree) plus the
    schedule extremes. It is not sized from accumulator_bound, so a wrong
    accumulator_bound shows up in run_hw's check instead of wrapping
    silently. Past int64 the run stays in int64, where accumulator_bound
    keeps every sum exact."""
    n_rnd_max, q_max, i0_max = _schedule_extremes(params)
    degree = int(np.diff(model.coupling_matrix().indptr).max())
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


def _two_planes(sigma, steps):
    """run_ssqa's plane store for steps steps: the t plane sigma and a t-1
    plane that starts as its copy, so that the first step's replica-coupling
    term is well defined. Each step's t+1 spins overwrite the t-1 plane,
    which then takes the t role."""
    prev = sigma.copy()
    return islice(cycle(((sigma.reshape(-1), prev, prev), (prev.reshape(-1), sigma, sigma))),
                  steps)


def _anneal(model, params, graph, record_trace, planes, checked) -> RunResult:
    """The one step loop: the setup, one _step per step over the plane
    store planes(sigma, steps) built on the initial plane sigma, and
    _finalize. checked makes _step check each sum against accumulator_bound."""
    bound = accumulator_bound(model, params)  # a too-wide schedule raises here
    dtype = _step_dtype(model, params)
    rng = RngStreams(params.seed, params.replicas)
    sigma = initial_state(model, rng, dtype)
    is_acc = np.zeros_like(sigma)
    run = _step_constants(model.coupling_matrix(dtype), sigma, is_acc, params.alpha,
                          params.periodic_replicas, bound if checked else None)
    trace = [] if record_trace else None
    # The store comes first: zip stops at the first exhausted iterator, so the
    # store's rotation after the last step still runs and no plane past it is
    # read.
    for (flat, prev, out), (raw, raw_flat, q, i0, floor, ceil) in zip(
            planes(sigma, params.steps), _step_inputs(params, rng, model.h, dtype)):
        # raw becomes the accumulator and out the new spins.
        _step(run, flat, prev, raw, raw_flat, is_acc, q, i0, floor, ceil, out)
        sigma, is_acc = out, raw
        if record_trace:
            # Replica-major int64 copies, whatever the step dtype.
            trace.append((sigma.T.astype(np.int64, order="C"),
                          is_acc.T.astype(np.int64, order="C")))
    return _finalize(model, params, graph, sigma, trace)


def run_ssqa(model: IsingModel, params: AnnealParams, graph: WeightedGraph | None = None,
             record_trace: bool = False) -> RunResult:
    """Run the full replica-coupled anneal; deterministic in (model, params, seed)."""
    return _anneal(model, params, graph, record_trace, _two_planes, checked=False)


def run_ssa(model: IsingModel, params: AnnealParams, graph: WeightedGraph | None = None,
            **kw) -> RunResult:
    """Single-network anneal: the R = 1, q = 0 degenerate configuration."""
    degenerate = params.with_(replicas=1, q=QSchedule(0, 0, 1, 0))
    return run_ssqa(model, degenerate, graph, **kw)


def run_psa(model: IsingModel, params: AnnealParams, graph: WeightedGraph | None = None,
            collect_spin_mean: bool = False) -> RunResult:
    """Floating-point baseline: sigma' = sgn(r + tanh(i0 * (h + J sigma))).

    Replicas evolve independently (no coupling term); r is uniform on [-1, 1).
    The uniforms of K = max(1, _NOISE_BLOCK // N) steps come from one RNG
    call, as one lane of _step_inputs' noise does; draw i of a stream is the
    same in any block size.
    """
    jmat = model.coupling_matrix()
    h = model.h.astype(np.float64)[:, None]
    rng = RngStreams(params.seed, params.replicas)
    sigma = initial_state(model, rng, np.float64)
    spin_sum = np.zeros_like(sigma) if collect_spin_mean else None
    i0s = params.i0.at(np.arange(params.steps, dtype=np.float64), params.steps).tolist()
    per_block = max(1, _NOISE_BLOCK // model.n)
    for start in range(0, params.steps, per_block):
        block_i0 = i0s[start:start + per_block]
        uniforms = rng.next_uniform(len(block_i0) * model.n)
        for i0, r in zip(block_i0, uniforms.reshape(len(block_i0), model.n, -1)):
            inp = i0 * (h + jmat @ sigma)
            sigma = np.where(r + np.tanh(inp) >= 0, 1.0, -1.0)
            if collect_spin_mean:
                spin_sum += sigma
    mean = (spin_sum / max(params.steps, 1)).T if collect_spin_mean else None
    return _finalize(model, params, graph, sigma, spin_mean=mean)
