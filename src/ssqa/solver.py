"""Reference annealing engines.

run_ssqa evolves R replica spin networks with saturating accumulators and a
staircase replica-coupling schedule; run_ssa is its single-replica,
zero-coupling degenerate case; run_psa is the floating-point tanh baseline
used for cross-validation.

Sweep discipline: each step reads all spins from the previous-step plane
(synchronous / Jacobi), so the update is independent of spin order and
matches the hardware model, which reads its delay banks while writing the
next plane. The replica-coupling term reads the plane from two steps back
(delay d = 1) of replica k+1 in a ring: replica R - 1 couples to replica 0.

One loop: run_ssqa, run_ssa and hwsim.run_hw all anneal through _anneal.
Each step takes its spin planes from a plane store, an iterator that yields
the whole t plane, the t-1 plane and the plane that takes the t+1 spins,
then rotates them. run_ssqa's store (_two_planes) writes the t+1 spins over
the t-1 plane and swaps the two, as the paper's dual-BRAM delay line does;
run_hw's store is its delay line.

Layout: the engines keep spin-major (N, R) planes, the word layout of the
hardware delay lines: row i holds spin i of every replica. A step's noise
block arrives in that shape and the noise buffer becomes the accumulator in
place. The field J sigma needs no transpose: one of scipy's compiled
kernels reads the whole t plane and adds J sigma straight into the whole
accumulator plane, with no product plane and no flat view (_step). At R = 1
(SSA, and run_hw with one replica gate) on a model whose held diagonals pad
its couplings at most twofold, such as G11's torus or any K_N, that kernel
is dia_matvec over J's diagonals; otherwise it is csr_matvec at R = 1 and
csr_matvecs above (_step_constants). The loop holds the planes, the noise,
h, J and the accumulators in one step dtype per run: a signed integer
sized, like the hardware registers, from the weight width, the row degree
and the schedule endpoints (int8 on G11, int16 on G14; see _step_dtype),
which the kernel sums in. The model caches its CSR and its diagonals in each
step dtype, the diagonals only once a run takes them. Every pass of a step
runs over whole contiguous planes: the replica coupling is one pass over a
neighbour plane built by a flat shifted copy (_add_coupling). Only traces
and results are replica-major (R, N) and int64, and only those boundaries
transpose and widen.

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
whole run, the store's planes, the 0-d -i0 and i0 - 1 bounds of the step
dtype (from _step_inputs, which replaces them only when i0 changes) and
_step_constants: the field product bound to J, one scratch plane (the
neighbour plane of _add_coupling) and a 1 of the step dtype. The planes and
J's operands are checked once there (_check_field_planes), so a step checks
no flag, dtype or shape. A step is one _step call: the field product, the
replica coupling (skipped at q = 0), the accumulator sum, run_hw's bound
check, the paper's saturation into [-i0, i0 - 1] (one call of numpy's clip
ufunc) and the sign, np.sign ORed with the held 1, so 0 gives +1. That
interval is empty below i0 = 1, so _schedule_extremes rejects, before the
first step, an i0 that rounds below 1 at either end of its linear ramp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import cycle, islice

import numpy as np
# The clip ufunc itself: np.clip's Python wrapper costs more than the clip on
# a narrow plane. A tier-1 test checks the private name at every step dtype.
from numpy._core.umath import clip as _clip
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


def _add_coupling(raw, prev, q, upper):
    """In place on spin-major planes: replica k adds q times replica
    (k + 1) mod R of the t-1 plane prev, so the last replica couples to
    replica 0 (at R = 1, a replica to itself). One flat shifted multiply of
    prev and one multiply of its first column fill the neighbour plane
    upper, a C-ordered plane of raw's shape and dtype whose values are not
    read, so every entry of raw gets the term the two-slice rule gives it."""
    # [i, k] = q prev[i, k + 1] but in the last column, which wraps to column 0.
    np.multiply(prev.reshape(-1)[1:], q, out=upper.reshape(-1)[:-1])
    np.multiply(prev[:, 0], q, out=upper[:, -1])
    raw += upper


def _check_field_planes(jmat, sigma, raw):
    """Raise ValueError unless raw is C-ordered and sigma has raw's shape,
    both in J's dtype with one row per spin: what _step's kernel needs and
    does not check. jmat is J as a CSR, or as its diagonals, an (offsets,
    data) pair, whose data must then be a C-ordered (len(offsets), N) array
    with int32 offsets. The kernels take whole (N, R) planes (and the
    diagonals) as flat buffers and check no length, so an operand of
    another shape would be read or written out of bounds. _step_constants
    calls this once per run with the initial t plane, whose shape and dtype
    every store plane keeps, and the accumulator plane that every step's
    raw matches (each noise plane of _step_inputs is a C-ordered plane of
    the step dtype)."""
    if isinstance(jmat, tuple):
        offsets, data = jmat
        dtype, rows = data.dtype, data.shape[-1]
        fits = (offsets.dtype == np.int32 and offsets.ndim == data.ndim - 1 == 1
                and len(data) == len(offsets) and data.flags.c_contiguous)
    else:
        dtype, rows, fits = jmat.dtype, len(jmat.indptr) - 1, True
    if (not fits or not raw.flags.c_contiguous or raw.dtype != dtype or sigma.dtype != dtype
            or sigma.shape != raw.shape or rows != raw.shape[0]):
        raise ValueError(
            f"the field product needs a C-ordered (N, R) accumulator and a sigma plane of its "
            f"shape, both in J's dtype and, by diagonals, C-ordered (n_diags, N) data with "
            f"int32 offsets; got J {dtype} with {rows} rows, raw {raw.dtype} {raw.shape} "
            f"(C-ordered: {raw.flags.c_contiguous}), sigma {sigma.dtype} {sigma.shape}")


def _step_constants(model, sigma, is_acc, bound=None):
    """The per-run constants of _step, from the run's t plane sigma and
    accumulator plane is_acc, whose planes it checks once with J's operands
    (_check_field_planes): the field product bound to J in the step dtype
    (sigma's), the held scratch plane, a 1 of the step dtype and the
    accumulator bound (None skips the check).

    The product is one of scipy's compiled kernels. At R = 1, when J's held
    diagonals have at most twice as many entries inside the matrix as the
    CSR stores couplings (the torus of G11: 4,784 against 3,200; any K_N:
    equal), it is dia_matvec over the model's diagonals, which reads each
    diagonal as one contiguous run and no column index: 1.3 us against
    3.2 us per G11 product, and 87 us against 325 us on a +-1 K_800 at
    int16. Otherwise it is csr_matvec at R = 1 and csr_matvecs above, as
    scipy's own product picks: G14's 1,528 diagonals hold 68 times its
    couplings, and the DIA kernel for several columns is slower than
    csr_matvecs at every R >= 2 on G11. Either kernel sums in the step
    dtype, exactly: each partial sum of a row is raw plus a subset of that
    row's terms, which _step_dtype bounds."""
    n, replicas = sigma.shape
    if replicas == 1 and model.diagonal_entries() <= 2 * model.coupling_matrix().nnz:
        jmat = model.coupling_diagonals(sigma.dtype)
        offsets, data = jmat
        product = partial(_sparsetools.dia_matvec, n, n, len(offsets), n, offsets, data)
    else:
        jmat = model.coupling_matrix(sigma.dtype)
        csr = (jmat.indptr, jmat.indices, jmat.data)
        product = (partial(_sparsetools.csr_matvec, n, n, *csr) if replicas == 1
                   else partial(_sparsetools.csr_matvecs, n, n, replicas, *csr))
    _check_field_planes(jmat, sigma, is_acc)
    return product, np.empty_like(sigma), np.array(1, sigma.dtype), bound


def _step(run, sigma, prev, raw, is_acc, q, floor, ceil, out):
    """One step in place on whole spin-major (N, R) planes: raw (the step's
    noise, scaled by n_rnd and biased by h) becomes the saturated
    accumulator and out the new spins. run is _step_constants' tuple, sigma
    the t plane and prev the t-1 plane. raw gains J sigma (the kernel adds
    it in place), q prev[:, (k + 1) % R] and is_acc, exactly in any order,
    as _step_dtype bounds the sum of every |term|; a run with a bound
    checks the sum against it. Then one call of numpy's clip ufunc
    saturates raw into [-i0, i0 - 1], against floor and ceil, 0-d arrays
    of the step dtype (np.clip's Python wrapper costs more than the clip
    itself on an (800, 1) plane). The sign is np.sign ORed with 1, so 0
    gives +1."""
    product, scratch, one, bound = run
    product(sigma, raw)
    if q:
        _add_coupling(raw, prev, q, scratch)
    raw += is_acc
    if bound is not None:
        # Python ints: on a narrow dtype, -raw.min() could wrap.
        peak = max(int(raw.max()), -int(raw.min()))
        if peak > bound:
            raise AccumulatorOverflowError(f"|accumulator| {peak} exceeds bound {bound}")
    _clip(raw, floor, ceil, out=raw)
    np.sign(raw, out=out)
    out |= one


_NOISE_BLOCK = 4096  # draws per stream in one noise lane: 64 words a table entry
_NOISE_LANES = 20  # lanes x streams a noise block aims at; R >= 11 draws one lane


def _step_inputs(params, rng, h, dtype):
    """Yield (noise, q, floor, ceil) of each step from the run's
    schedule table. noise, n_rnd[t] times +-1 bits plus h, is a C-order,
    writable (N, R) plane in dtype. One RNG call draws the noise of
    C = max(1, _NOISE_LANES // R) lanes of m = max(1, _NOISE_BLOCK // N)
    steps, fewer lanes when fewer whole lanes are left, and a tail shorter
    than m steps is one single-lane block; each block is mapped, scaled and
    biased once, and an all-zero h (every MAX-CUT model) skips the bias
    pass. So a narrow plane draws many steps a call (100 G11 steps at
    R = 1) and R >= 11 draws m steps a call. q is a Python int (a numpy
    integer would widen an int8 plane under NEP 50). floor and ceil are
    -i0 and i0 - 1 as 0-d arrays of dtype, the bounds the saturation clips
    to; the same pair serves every step until i0 changes, which replaces
    it."""
    n, replicas = len(h), rng.n_streams
    # The flat spin-major (N, R) plane of h, or None when adding it changes nothing.
    bias = np.repeat(h.astype(dtype), replicas) if h.any() else None
    i0s, n_rnd, qs = (column.tolist() for column in schedule_table(params))
    per_lane, lanes = max(1, _NOISE_BLOCK // n), max(1, _NOISE_LANES // replicas)
    held = None
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
        for t, noise in enumerate(block.reshape(-1, n, replicas), start):
            if i0s[t] != held:
                held = i0s[t]
                floor, ceil = np.array(-held, dtype), np.array(held - 1, dtype)
            yield noise, qs[t], floor, ceil
        start += count * size


def _schedule_extremes(params: AnnealParams) -> tuple:
    """Largest |n_rnd|, |q| and |saturated accumulator| over the run. The
    ramps are linear, so their extremes are at the endpoints, and q stays in
    [q_min, q_max]. A saturated Is lies in [-i0, i0 - 1], so its bound is
    the larger endpoint i0; the interval is empty below i0 = 1, so an i0
    that rounds below 1 at the first or last step raises ValueError."""
    last = max(params.steps - 1, 0)
    n_rnd_max = max(abs(n_rnd_at(params, 0)), abs(n_rnd_at(params, last)))
    i0s = i0_at(params, 0), i0_at(params, last)
    for t, i0 in zip((0, last), i0s):
        if i0 < 1:
            raise ValueError(f"i0 rounds to {i0} at step {t}; the saturation into "
                             f"[-i0, i0 - 1] needs i0 >= 1 at every step")
    q_max = int(np.ceil(max(abs(params.q.q_min), abs(params.q.q_max))))
    return n_rnd_max, q_max, max(i0s)


def accumulator_bound(model: IsingModel, params: AnnealParams) -> int:
    """Largest |raw accumulator sum| a step can reach: the widest input
    (noise gain and q at their extremes) plus the saturation bound, the
    largest i0. Raises ValueError if i0 rounds below 1 at either end
    (_schedule_extremes) and AccumulatorWidthError if the bound needs more
    than 63 bits."""
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
    """run_ssqa's plane store for steps steps: it yields (t, t-1, t+1)
    planes, the t plane sigma and a t-1 plane that starts as its copy, so
    that the first step's replica-coupling term is well defined. Each
    step's t+1 spins overwrite the t-1 plane, which then takes the t role."""
    prev = sigma.copy()
    return islice(cycle(((sigma, prev, prev), (prev, sigma, sigma))), steps)


def _anneal(model, params, graph, record_trace, planes, checked) -> RunResult:
    """The one step loop: the setup, one _step per step over the plane
    store planes(sigma, steps) built on the initial plane sigma, and
    _finalize. checked makes _step check each sum against accumulator_bound."""
    bound = accumulator_bound(model, params)  # an i0 below 1 or a too-wide schedule raises here
    dtype = _step_dtype(model, params)
    rng = RngStreams(params.seed, params.replicas)
    sigma = initial_state(model, rng, dtype)
    is_acc = np.zeros_like(sigma)
    run = _step_constants(model, sigma, is_acc, bound if checked else None)
    trace = [] if record_trace else None
    # The store comes first: zip stops at the first exhausted iterator, so the
    # store's rotation after the last step still runs and no plane past it is
    # read.
    for (now, prev, out), (raw, q, floor, ceil) in zip(
            planes(sigma, params.steps), _step_inputs(params, rng, model.h, dtype)):
        # raw becomes the accumulator and out the new spins.
        _step(run, now, prev, raw, is_acc, q, floor, ceil, out)
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
