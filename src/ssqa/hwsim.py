"""Cycle-accurate functional model of the spin-serial, replica-parallel
annealing datapath.

Schedule: for each spin, one MAC cycle per stored coupling (all couplings
when the sparse bypass is off, so N-1 cycles for a dense row) plus one
finalize (FIN) cycle that applies the noise, the replica coupling, the
saturating accumulator and the sign, giving N*(k+1) cycles per annealing
step on a regular-degree graph. All R replica gates advance in lockstep and
share each (J_ij, j) fetch; the per-replica noise word is consumed in FIN.

run_hw makes two whole-plane transactions per step (address ..., every
word in spin order), each equal to the step's cycles in hardware order:

* MAC phase: one read of the whole t plane (a read-only view of the bank)
  and one call of the reference engine's field kernel, which adds J times
  it straight into the step's sums: by J's diagonals (dia_matvec) at R = 1
  where they pad the couplings at most twofold, as on G11 or a K_N, and by
  its CSR rows otherwise (solver._step_constants). No cycle of a step writes
  the t plane, and a zero weight adds nothing, so the product also serves
  the dense schedule.
* FIN phase: cycle i reads t-1 word i and writes t+1 word i, once per
  spin, so reading every t-1 word (a view), then writing every t+1 word
  in place into next_plane(), the t-1 bank on dual-BRAM, gives the words
  of cycle order.

run_hw is the reference engine's step loop (solver._anneal) with its delay
line as the plane store (_delay_planes), so both phases are one call of the
step kernel, which checks each sum against accumulator_bound before the
saturation. It returns cycle_report, the one price of a run of any engine:
cycles per step, their MAC / FIN split, latency, energy, and ADP at the
reference build's utilization, DEFAULT_UTILIZATION (at utilization u, ADP
is u * latency_s). estimate_report prices a bare cycle count.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .ising import IsingModel, WeightedGraph
from .schedules import AnnealParams
# perfbench/tracer.py times hwsim.i0_at, hwsim.n_rnd_at, hwsim.q_value_at,
# hwsim.initial_state and hwsim._finalize, so the names stay bound here;
# solver's step loop reads the per-run table and calls its own.
from .schedules import i0_at, n_rnd_at, q_value_at  # noqa: F401
from .solver import _anneal
from .solver import _finalize, initial_state  # noqa: F401


class DelayAddressError(IndexError):
    """A delay-line address that is neither ... nor a word index in [0, N)."""


def _check_addr(n: int, addr):
    """Raise DelayAddressError unless addr is ... or an integer in [0, n):
    a bool, a float or an array is not an address."""
    if addr is not ... and not (isinstance(addr, numbers.Integral)
                                and not isinstance(addr, bool) and 0 <= addr < n):
        raise DelayAddressError(f"address {addr!r} is neither ... nor a word index in [0,{n})")


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
    # The MAC / FIN split of total_cycles; 0 from estimate_report's bare count.
    mac_cycles: int = 0
    fin_cycles: int = 0


# Measured constants of the reference FPGA build, used as report defaults.
# They are imported inputs to the cost model, never computed here.
DEFAULT_F_CLK = 166e6
DEFAULT_POWER_W = 0.091
DEFAULT_UTILIZATION = 0.199


def estimate_report(total_cycles: int, f_clk: float = DEFAULT_F_CLK,
                    power_w: float = DEFAULT_POWER_W) -> CycleReport:
    """Latency, energy and ADP of total_cycles; cycle_report adds cycles_per_step and the split."""
    if not total_cycles >= 0:
        raise ValueError(f"cycle count must be >= 0, got {total_cycles}")
    if not 0 < f_clk < float("inf"):
        raise ValueError(f"clock frequency must be positive and finite, got {f_clk}")
    if not 0 <= power_w < float("inf"):
        raise ValueError(f"power must be >= 0 and finite, got {power_w}")
    latency = total_cycles / f_clk
    return CycleReport(total_cycles=total_cycles, cycles_per_step=0, f_clk=f_clk,
                       latency_s=latency, power_w=power_w, energy_j=power_w * latency,
                       utilization=DEFAULT_UTILIZATION, adp_s=DEFAULT_UTILIZATION * latency)


def cycle_report(model: IsingModel, steps: int, sparse_bypass: bool = True,
                 f_clk: float = DEFAULT_F_CLK, power_w: float = DEFAULT_POWER_W) -> CycleReport:
    """The CycleReport of a steps-step run on model, of any engine. A step's MAC
    cycles are the CSR's stored couplings, or every j != i without the sparse
    bypass; with one FIN cycle per spin they must make count_total_cycles."""
    n = model.n
    macs = model.coupling_matrix().nnz if sparse_bypass else n * (n - 1)
    per_step = count_total_cycles(model, 1, sparse_bypass)
    assert macs + n == per_step, f"cycle accounting drift: {macs} + {n} != {per_step}/step"
    return replace(estimate_report(steps * per_step, f_clk, power_w), cycles_per_step=per_step,
                   mac_cycles=steps * macs, fin_cycles=steps * n)


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
      advance_step swaps the bank roles.
    * shift_register: three planes. t+1 words go to a third plane;
      advance_step copies it into the t-1 plane, which becomes t.

    Every access checks its address (_check_addr); reads return read-only
    views. Writes commit at end_cycle, so a same-cycle read returns the old
    word; write(..., next_plane()) commits t+1 words already written in
    place (read every t-1 word first). FIN cycle i reads t-1 word i before
    its own write and no other cycle reads it, so both kinds agree in run_hw.
    """

    kind: str  # set by each subclass

    def __init__(self, plane_t: np.ndarray, plane_tm1: np.ndarray):
        self.n = plane_t.shape[0]
        self._t, self._tm1 = plane_t.copy(), plane_tm1.copy()
        self._next = self._tm1 if self.kind == "dual_bram" else plane_t.copy()
        self._pending = []

    def _read(self, plane, addr):
        _check_addr(self.n, addr)
        view = plane[addr]
        view.flags.writeable = False
        return view

    def read_t(self, addr):
        """The t plane's word at addr, or the whole plane at ...; read-only."""
        return self._read(self._t, addr)

    def read_tminus1(self, addr):
        """The t-1 plane's word at addr, or the whole plane at ...; read-only."""
        return self._read(self._tm1, addr)

    def next_plane(self) -> np.ndarray:
        """The plane that receives this step's t+1 words, for an in-place write."""
        return self._next

    def write(self, addr, word):
        """Queue a t+1 word at addr, or a plane at ..., for the end of the cycle
        (one that does not fit raises here); write(..., next_plane()) commits
        the words already written there."""
        _check_addr(self.n, addr)
        if addr is not ... or word is not self._next:
            self._pending.append((addr, np.broadcast_to(word, self._next[addr].shape).copy()))

    def end_cycle(self):
        for addr, word in self._pending:
            self._next[addr] = word
        self._pending.clear()

    def advance_step(self):
        self.end_cycle()
        if self.kind == "dual_bram":
            self._t, self._tm1 = self._next, self._t
            self._next = self._tm1
        else:
            np.copyto(self._tm1, self._next)
            self._t, self._tm1 = self._tm1, self._t


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


def _delay_planes(delay_cls, plane, steps):
    """run_hw's plane store for steps steps: a delay line of delay_cls whose
    t and t-1 planes start as copies of plane. For each step it yields
    whole (N, R) planes: the t plane, read-only (the MAC phase), the t-1
    plane, read-only, and next_plane() (the FIN phase); after the step it
    commits the t+1 words written in place and advances the line."""
    delay = delay_cls(plane, plane)
    for _ in range(steps):
        words = delay.next_plane()
        yield delay.read_t(...), delay.read_tminus1(...), words
        delay.write(..., words)
        delay.advance_step()


def run_hw(model: IsingModel, params: AnnealParams, delay_kind: str = "dual_bram",
           graph: WeightedGraph | None = None, sparse_bypass: bool = True,
           record_trace: bool = False,
           f_clk: float = DEFAULT_F_CLK, power_w: float = DEFAULT_POWER_W):
    """Spin-serial execution of the schedule: (RunResult, cycle_report of the
    run). The RunResult is bit-exact equal to run_ssqa with the same inputs."""
    if delay_kind not in _DELAY_LINES:
        raise ValueError(f"unknown delay kind {delay_kind!r}")
    result = _anneal(model, params, graph, record_trace,
                     partial(_delay_planes, _DELAY_LINES[delay_kind]), checked=True)
    return result, cycle_report(model, params.steps, sparse_bypass, f_clk, power_w)
