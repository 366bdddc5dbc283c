"""Cycle-accurate functional model of the spin-serial, replica-parallel
annealing datapath.

Schedule: for each spin, one MAC cycle per stored coupling (all couplings
when the sparse bypass is off, so N-1 cycles for a dense row) plus one
finalize (FIN) cycle that applies the noise, the replica coupling, the
saturating accumulator and the sign, giving N*(k+1) cycles per annealing
step on a regular-degree graph. All R replica gates advance in lockstep and
share each (J_ij, j) fetch; the per-replica noise word is consumed in FIN.

run_hw binds its FIN address stream, 0..N-1 in spin order, to a DelayLine
once per run: binding checks that it is a permutation and freezes it, so
no step checks it again. Each step is two transactions over it, each equal
to the step's cycles in hardware order:

* MAC phase: one read of the whole t plane (a read-only view of the bank)
  and one product J @ plane. No cycle of a step writes the t plane, and a
  zero weight adds nothing, so the product also serves the dense schedule.
* FIN phase: cycle i reads t-1 word i and writes t+1 word i, once per
  address, so reading every t-1 word (a view), then writing every t+1 word
  in place into the receiving plane, the t-1 bank on dual-BRAM, gives the
  words of cycle order. Noise, sum, saturation and sign are the reference
  engine's, in its dtype, from the same per-run tables (solver._step_inputs,
  _accumulate, _saturate_and_sign).

Cycle counts and trace-file lines come from the same address stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ising import IsingModel, WeightedGraph
from .rng import RngStreams
from .schedules import AnnealParams
# perfbench/tracer.py times hwsim.i0_at, hwsim.n_rnd_at and hwsim.q_value_at,
# so the names stay bound here; run_hw reads the per-run table.
from .schedules import i0_at, n_rnd_at, q_value_at  # noqa: F401
from .solver import (AccumulatorOverflowError, _accumulate, _bias_plane, _finalize,
                     _saturate_and_sign, _step_dtype, _step_inputs, _trace_entry,
                     accumulator_bound, initial_state)


class DelayAddressError(IndexError):
    """Delay-line access outside [0, N), or a FIN stream not over 0..N-1 once each."""


def _check_addr(n: int, addr):
    """Raise DelayAddressError unless addr (an int or a 1-D int array) is in
    [0, n). Checked explicitly: numpy would wrap a negative array index."""
    a = np.asarray(addr)
    if a.size and not (a.min() >= 0 and a.max() < n):
        raise DelayAddressError(f"address {addr} outside [0,{n})")


def _check_write(n: int, addr):
    """A write goes to one address, or (a step's FIN phase) to each one once."""
    _check_addr(n, addr)
    if np.ndim(addr) and not (len(addr) == n and np.bincount(addr, minlength=n).all()):
        raise DelayAddressError(f"FIN addresses are not a permutation of 0..{n - 1}")


def count_total_cycles(model: IsingModel, steps: int, sparse_bypass: bool = True) -> int:
    """Exact cycle count of run_hw: per step, one FIN cycle per spin and one
    MAC cycle per stored coupling (each is stored in two rows), or per j != i
    of every row without the sparse bypass."""
    macs = 2 * len(model.couplings) if sparse_bypass else model.n * (model.n - 1)
    return steps * (model.n + macs)


@dataclass(frozen=True)
class CycleReport:
    total_cycles: int
    cycles_per_step: int
    f_clk: float
    latency_s: float
    power_w: float
    energy_j: float
    utilization: float
    adp_s: float
    # The MAC / FIN split of total_cycles; 0 when no cycle was simulated.
    mac_cycles: int = 0
    fin_cycles: int = 0


# Measured constants of the reference FPGA build, used as report defaults.
# They are imported inputs to the cost model, never computed here.
DEFAULT_F_CLK = 166e6
DEFAULT_POWER_W = 0.091
DEFAULT_UTILIZATION = 0.199


def estimate_report(total_cycles: int, f_clk: float = DEFAULT_F_CLK,
                    power_w: float = DEFAULT_POWER_W,
                    utilization: float = DEFAULT_UTILIZATION,
                    cycles_per_step: int = 0) -> CycleReport:
    if not 0 < f_clk < float("inf"):
        raise ValueError(f"clock frequency must be positive and finite, got {f_clk}")
    if not 0 <= power_w < float("inf"):
        raise ValueError(f"power must be >= 0 and finite, got {power_w}")
    if not 0 <= utilization <= 1:
        raise ValueError("utilization must be in [0, 1]")
    latency = total_cycles / f_clk
    return CycleReport(total_cycles=total_cycles, cycles_per_step=cycles_per_step,
                       f_clk=f_clk, latency_s=latency, power_w=power_w,
                       energy_j=power_w * latency, utilization=utilization,
                       adp_s=utilization * latency)


def resource_scaling_model(n: int, delay_kind: str, weight_bits: int = 4) -> dict:
    """Parametric area scaling of the two delay-line choices.

    registers counts the spin-plane delay registers per replica; the
    coupling matrix always occupies n^2 * weight_bits BRAM bits.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    j_bits = n * n * weight_bits
    if delay_kind == "shift_register":
        return {"registers": 3 * n, "bram_bits": j_bits, "fanout_class": "linear"}
    if delay_kind == "dual_bram":
        return {"registers": 0, "bram_bits": 2 * n + j_bits, "fanout_class": "constant"}
    raise ValueError(f"unknown delay kind {delay_kind!r}")


class DelayLine:
    """The t and t-1 spin planes and the plane that receives t+1 words.

    Each word is the length-R vector of one spin's state across replicas
    (the R per-replica memories share addressing). The class attribute kind
    picks where t+1 words land and how advance_step rotates the planes:

    * dual_bram: two banks. t+1 words overwrite the t-1 bank in place;
      advance_step swaps the bank roles and flips parity.
    * shift_register: three planes, parity 0. t+1 words go to a third
      plane; advance_step copies it into the t-1 plane, which becomes t.

    Scalar and array accesses are checked on each call, and their writes
    commit at the end of the cycle, so a same-cycle read returns the old
    word. The bound stream's reads are read-only views, and its t+1 words,
    written in place into next_plane(), commit as they land (read every t-1
    word first). FIN cycle i reads t-1 word i before its own write and no
    other cycle reads it, so both kinds give run_hw the same values.
    """

    kind: str  # set by each subclass

    def __init__(self, plane_t: np.ndarray, plane_tm1: np.ndarray):
        self.n = plane_t.shape[0]
        self.parity = 0
        self._t, self._tm1 = plane_t.copy(), plane_tm1.copy()
        self._next = self._tm1 if self.kind == "dual_bram" else plane_t.copy()
        self._pending, self._stream = [], None  # the bound FIN address stream

    def bind(self, stream) -> np.ndarray:
        """Check a FIN address stream (0..N-1 in spin order) once; return it frozen."""
        stream = np.array(stream)
        _check_write(self.n, stream)
        if np.any(stream[1:] < stream[:-1]):  # a sorted permutation is 0..N-1
            raise DelayAddressError("a bound FIN stream runs in spin order")
        stream.flags.writeable = False
        self._stream = stream
        return stream

    def _read(self, plane, addr):
        if addr is not self._stream:
            _check_addr(self.n, addr)
            return plane[addr]
        view = plane.view()
        view.flags.writeable = False
        return view

    def read_t(self, addr):
        """Word at addr of the t plane, or one word per address."""
        return self._read(self._t, addr)

    def read_tminus1(self, addr):
        """Word at addr of the t-1 plane, or one word per address."""
        return self._read(self._tm1, addr)

    def next_plane(self) -> np.ndarray:
        """The plane that receives this step's t+1 words, for a bound write."""
        return self._next

    def write(self, addr, word):
        """Queue t+1 word(s) for the end of the cycle, at addr or a permutation;
        the bound stream's words, already in next_plane(), are committed."""
        if addr is not self._stream or word is not self._next:
            _check_write(self.n, addr)
            self._pending.append((addr, np.array(word)))

    def end_cycle(self):
        for addr, word in self._pending:
            self._next[addr] = word
        self._pending.clear()

    def advance_step(self):
        self.end_cycle()
        if self.kind == "dual_bram":
            self._t, self._tm1 = self._next, self._t
            self._next = self._tm1
            self.parity ^= 1
        else:
            np.copyto(self._tm1, self._next)
            self._t, self._tm1 = self._tm1, self._t

    def plane_t(self) -> np.ndarray:
        return self._t.copy()


# perfbench/tracer.py counts the calls of read_t and write through
# owner.__dict__[...] of each class, so each subclass re-binds them; without
# that, every traced run raises KeyError. The re-binds go when the benchmark
# takes its cycle counters from CycleReport.

class DualBramDelay(DelayLine):
    """Two alternating banks; the t+1 plane overwrites the t-1 bank in place."""
    kind = "dual_bram"
    read_t, write = DelayLine.read_t, DelayLine.write


class ShiftRegDelay(DelayLine):
    """Three register planes (t+1, t, t-1), shifted once per step."""
    kind = "shift_register"
    read_t, write = DelayLine.read_t, DelayLine.write


_DELAY_LINES = {cls.kind: cls for cls in (DualBramDelay, ShiftRegDelay)}
DELAY_KINDS = tuple(_DELAY_LINES)


def run_hw(model: IsingModel, params: AnnealParams, delay_kind: str = "dual_bram",
           graph: WeightedGraph | None = None, sparse_bypass: bool = True,
           record_trace: bool = False, trace_file=None,
           f_clk: float = DEFAULT_F_CLK, power_w: float = DEFAULT_POWER_W,
           utilization: float = DEFAULT_UTILIZATION):
    """Spin-serial execution of the schedule, cycle-accounted.

    Returns (RunResult, CycleReport); the RunResult is bit-exact equal to
    run_ssqa with the same inputs. trace_file, when given, receives one line
    per cycle: "cycle,step,spin,replica,phase,parity" with replica -1
    meaning all gates in lockstep.
    """
    if delay_kind not in _DELAY_LINES:
        raise ValueError(f"unknown delay kind {delay_kind!r}")
    acc_bound = accumulator_bound(model, params)

    n, r_count = model.n, params.replicas
    # Delay words, noise, h, J and the accumulators are held in the step
    # dtype, sized from the register widths, not from acc_bound, so that
    # the check below sees every true sum.
    dtype = _step_dtype(model, params, model.coupling_matrix())
    jmat, bias = model.coupling_matrix(dtype), _bias_plane(model, r_count, dtype)
    # Row i's MAC cycles: its stored couplings, or every j != i when the
    # sparse bypass is off (zero weights still cost a cycle).
    degree = np.diff(jmat.indptr) if sparse_bypass else np.full(n, n - 1)

    rng = RngStreams(params.seed, r_count)
    # Delay words and accumulators are spin-major: address i holds the R
    # replica states of spin i. The t-1 plane starts as a copy of the t plane.
    plane = initial_state(model, rng, dtype)
    delay = _DELAY_LINES[delay_kind](plane, plane)
    # The FIN address stream, one cycle per spin: checked once, read as views.
    spins = delay.bind(np.arange(n))
    is_acc = np.zeros_like(plane)
    trace = [] if record_trace else None
    if trace_file is not None:
        # "spin,-1,phase," of each cycle of a step: row i's MAC cycles, then its FIN.
        line_mid = [f"{i},-1,{phase}," for i, deg in enumerate(degree.tolist())
                    for phase in ["MAC"] * deg + ["FIN"]]

    # Each step's scaled noise word per replica per spin, with the bias
    # folded in, becomes the sum in place: the MAC product over the t plane,
    # then the FIN phase's coupling to replica k+1 of the t-1 plane and
    # accumulator.
    for t, (raw, q, i0, floor) in enumerate(_step_inputs(params, rng, bias)):
        parity = delay.parity
        _accumulate(jmat, delay.read_t(spins), delay.read_tminus1(spins), raw, is_acc, q,
                    params.periodic_replicas)
        # Python ints: on a narrow dtype, -raw.min() could wrap.
        peak = max(int(raw.max()), -int(raw.min()))
        if peak > acc_bound:
            raise AccumulatorOverflowError(f"|accumulator| {peak} exceeds bound {acc_bound}")
        # raw >= I0 becomes I0 - alpha, raw < -I0 becomes -I0, and each t+1
        # word is the sign, in place now that every t-1 word has been read.
        words = delay.next_plane()
        _saturate_and_sign(raw, i0, i0 - params.alpha, floor, words)
        is_acc = raw
        delay.write(spins, words)
        delay.advance_step()
        if trace_file is not None:
            trace_file.write("".join(f"{c},{t},{mid}{parity}\n" for c, mid in
                                     enumerate(line_mid, t * len(line_mid))))
        if record_trace:
            trace.append(_trace_entry(delay.plane_t(), is_acc))

    result = _finalize(model, params, graph, delay.plane_t(), trace=trace)
    mac_cycles, fin_cycles = params.steps * int(degree.sum()), params.steps * n
    cycle = mac_cycles + fin_cycles
    per_step = count_total_cycles(model, 1, sparse_bypass)
    assert cycle == params.steps * per_step, f"cycle accounting drift: {cycle} != {per_step}/step"
    report = estimate_report(cycle, f_clk, power_w, utilization, cycles_per_step=per_step)
    return result, replace(report, mac_cycles=mac_cycles, fin_cycles=fin_cycles)
