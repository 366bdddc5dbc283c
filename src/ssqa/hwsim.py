"""Cycle-accurate functional model of the spin-serial, replica-parallel
annealing datapath.

Schedule: for each spin, one MAC cycle per stored coupling (all couplings
when the sparse bypass is off, so N-1 cycles for a dense row) plus one
finalize (FIN) cycle that applies the noise, the replica coupling, the
saturating accumulator and the sign, giving N*(k+1) cycles per annealing
step on a regular-degree graph. All R replica gates advance in lockstep and
share each (J_ij, j) fetch; the per-replica noise word is consumed in the
finalize cycle.

Delay lines supply the step-t plane (for interaction reads) and the
step-(t-1) plane (for the replica-coupling read). The two implementations
produce identical values and differ only in their resource model:

* DualBramDelay: two banks alternate roles each step; the new plane
  overwrites the oldest one in place, and a same-cycle read at a written
  address returns the pre-write word (reads before writes).
* ShiftRegDelay: three full register planes shifted once per step.

run_hw reads a spin row's neighbour words in one gather, read_t(cols_i),
and advances the cycle count by the row's degree. The gather returns the
same words as deg_i single-address MAC reads would: the t plane is never a
write target within a step, and a write commits only at the end of a FIN
cycle, so nothing a MAC cycle of row i could read changes between its first
and last MAC cycle. The FIN cycle stays one cycle per spin with its delay
calls in hardware order (read t-1 word, write t+1 word, commit), so the
read-before-write hazard of the recycled bank is still exercised spin by
spin. The step is deliberately not collapsed into one mat-vec: the row
loop keeps the addressing of both planes observable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ising import IsingModel, WeightedGraph
from .rng import RngStreams
from .schedules import AnnealParams, i0_at, n_rnd_at, q_value_at
from .solver import (
    AccumulatorOverflowError,
    ReplicaSet,
    _finalize,
    accumulator_bound,
    initial_state,
)


class DelayAddressError(IndexError):
    """Delay-line access outside [0, N)."""


def _check_addr(n: int, addr):
    """Raise DelayAddressError unless addr (an int or a 1-D int array) is in
    [0, n). Checked explicitly: numpy would wrap a negative array index."""
    if isinstance(addr, (int, np.integer)):
        ok = 0 <= addr < n
    else:
        a = np.asarray(addr)
        ok = a.size == 0 or (np.minimum.reduce(a) >= 0 and np.maximum.reduce(a) < n)
    if not ok:
        raise DelayAddressError(f"address {addr} outside [0,{n})")


def cycles_per_step(n: int, k: int) -> int:
    """Cycles for one full annealing step: N interaction rows of k MACs + 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 <= k <= n - 1):
        raise ValueError("k must satisfy 0 <= k <= n-1")
    return n * (k + 1)


def count_total_cycles(model: IsingModel, steps: int, sparse_bypass: bool = True) -> int:
    """Exact cycle count of run_hw for this model and step budget."""
    if sparse_bypass:
        # sum_i (deg_i + 1): every coupling is stored in two rows.
        per_step = model.n + 2 * len(model.couplings)
    else:
        per_step = cycles_per_step(model.n, model.n - 1)
    return steps * per_step


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
    if not f_clk > 0:
        raise ValueError("clock frequency must be positive")
    if not power_w >= 0:
        raise ValueError("power must be >= 0")
    if not 0 <= utilization <= 1:
        raise ValueError("utilization must be in [0, 1]")
    latency = total_cycles / f_clk
    return CycleReport(
        total_cycles=total_cycles,
        cycles_per_step=cycles_per_step,
        f_clk=f_clk,
        latency_s=latency,
        power_w=power_w,
        energy_j=power_w * latency,
        utilization=utilization,
        adp_s=utilization * latency,
    )


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


class DualBramDelay:
    """Two alternating banks holding the t and t-1 spin planes.

    Each word is the length-R vector of one spin's state across replicas
    (the R per-replica memories share addressing). Writes commit at the end
    of the cycle, so a same-cycle read of a written address returns the old
    word. advance_step swaps bank roles: the bank just filled with the t+1
    plane becomes the t plane, the former t plane becomes the t-1 plane.
    """

    kind = "dual_bram"

    def __init__(self, plane_t: np.ndarray, plane_tm1: np.ndarray):
        self.n = plane_t.shape[0]
        self.parity = 0
        self._banks = [plane_t.copy(), plane_tm1.copy()]
        self._pending = []

    def read_t(self, addr):
        """Word at addr of the t plane; an address array gathers one word
        per address, as the same number of single reads would."""
        _check_addr(self.n, addr)
        return self._banks[self.parity][addr]

    def read_tminus1(self, addr: int):
        _check_addr(self.n, addr)
        return self._banks[1 - self.parity][addr]

    def write(self, addr: int, word):
        _check_addr(self.n, addr)
        self._pending.append((addr, np.array(word)))

    def end_cycle(self):
        for addr, word in self._pending:
            self._banks[1 - self.parity][addr] = word
        self._pending.clear()

    def advance_step(self):
        self.end_cycle()
        self.parity ^= 1

    def plane_t(self) -> np.ndarray:
        return self._banks[self.parity].copy()


class ShiftRegDelay:
    """Three sequential register planes (t+1, t, t-1), shifted once per step."""

    kind = "shift_register"

    def __init__(self, plane_t: np.ndarray, plane_tm1: np.ndarray):
        self.n = plane_t.shape[0]
        self._new = plane_t.copy()  # receives t+1 writes during the step
        self._cur = plane_t.copy()
        self._old = plane_tm1.copy()
        self._pending = []

    def read_t(self, addr):
        """Word at addr of the t plane; an address array gathers one word
        per address, as the same number of single reads would."""
        _check_addr(self.n, addr)
        return self._cur[addr]

    def read_tminus1(self, addr: int):
        _check_addr(self.n, addr)
        return self._old[addr]

    def write(self, addr: int, word):
        _check_addr(self.n, addr)
        self._pending.append((addr, np.array(word)))

    def end_cycle(self):
        for addr, word in self._pending:
            self._new[addr] = word
        self._pending.clear()

    def advance_step(self):
        self.end_cycle()
        self._old = self._cur
        self._cur = self._new.copy()

    def plane_t(self) -> np.ndarray:
        return self._cur.copy()


_DELAY_LINES = {cls.kind: cls for cls in (DualBramDelay, ShiftRegDelay)}
DELAY_KINDS = tuple(_DELAY_LINES)


def run_hw(model: IsingModel, params: AnnealParams, delay_kind: str = "dual_bram",
           graph: WeightedGraph | None = None, sparse_bypass: bool = True,
           record_trace: bool = False, trace_file=None,
           f_clk: float = DEFAULT_F_CLK, power_w: float = DEFAULT_POWER_W,
           utilization: float = DEFAULT_UTILIZATION):
    """Spin-serial execution of the schedule, cycle-accounted.

    Returns (RunResult, CycleReport); the RunResult is bit-exact equal to
    run_ssqa with the same inputs in integer mode. trace_file, when given,
    receives one line per cycle: "cycle,step,spin,replica,phase,parity"
    with replica -1 meaning all gates in lockstep.
    """
    if not params.integer_mode:
        raise ValueError("the hardware model is integer-mode only")
    if delay_kind not in _DELAY_LINES:
        raise ValueError(f"unknown delay kind {delay_kind!r}")

    n, r_count = model.n, params.replicas
    # Row i's MAC operands: its stored couplings, or every j != i when the
    # sparse bypass is off (zero weights still cost a cycle).
    jmat = model.coupling_matrix()
    if sparse_bypass:
        indptr, indices, data = jmat.indptr, jmat.indices, jmat.data
    else:
        off_diag = ~np.eye(n, dtype=bool)
        indptr = np.arange(n + 1) * (n - 1)
        indices = np.nonzero(off_diag)[1]
        data = jmat.toarray()[off_diag]
    indptr = indptr.tolist()

    rng = RngStreams(params.seed, r_count)
    init = initial_state(model, params, rng)
    # Delay words and accumulators are spin-major: address i holds the R
    # replica states of spin i.
    delay = _DELAY_LINES[delay_kind](init.sigma.T.copy(), init.sigma_prev.T.copy())
    is_acc = np.zeros((n, r_count), dtype=np.int64)

    acc_bound = accumulator_bound(model, params)

    # Replica k couples to replica k+1 of the t-1 plane; with open chains
    # the last replica has no upper neighbour.
    upper_idx = (np.arange(r_count) + 1) % r_count
    open_mask = None if params.periodic_replicas else (np.arange(r_count) < r_count - 1)
    mac_cycles = fin_cycles = 0
    trace = [] if record_trace else None

    for t in range(params.steps):
        q = q_value_at(params, t)
        i0 = i0_at(params, t)
        n_rnd = n_rnd_at(params, t)
        # This step's noise word (one per replica per spin), bias and
        # accumulator; row i of raw_step becomes spin i's raw accumulator sum
        # in its finalize cycle, and is_acc[i] changes only there. Summed in
        # place, so no (N, R) temporary is added to the peak memory.
        raw_step = rng.next_bipolar(n)
        raw_step *= n_rnd
        raw_step += model.h[:, None]
        raw_step += is_acc
        parity = getattr(delay, "parity", 0)
        for i in range(n):
            lo, hi = indptr[i], indptr[i + 1]
            cols, weights = indices[lo:hi], data[lo:hi]
            raw = raw_step[i]
            # MAC cycles: one gather of the row's neighbour words.
            raw += weights @ delay.read_t(cols)
            if trace_file is not None:
                cycle = mac_cycles + fin_cycles
                trace_file.write("".join(f"{c},{t},{i},-1,MAC,{parity}\n"
                                         for c in range(cycle, cycle + len(cols))))
            mac_cycles += len(cols)
            # Finalize cycle: replica coupling, saturation, sign.
            upper = delay.read_tminus1(i)[upper_idx]
            if open_mask is not None:
                upper *= open_mask
            raw += q * upper
            # raw >= I0 saturates to I0 - alpha, raw < -I0 to -I0.
            is_new = np.where(raw >= i0, i0 - params.alpha, np.maximum(raw, -i0))
            is_acc[i] = is_new
            delay.write(i, np.where(is_new >= 0, 1, -1))
            if trace_file is not None:
                trace_file.write(f"{mac_cycles + fin_cycles},{t},{i},-1,FIN,{parity}\n")
            fin_cycles += 1
            delay.end_cycle()
        peak = np.abs(raw_step).max()
        if peak > acc_bound:
            raise AccumulatorOverflowError(f"|accumulator| {peak} exceeds bound {acc_bound}")
        delay.advance_step()
        if record_trace:
            trace.append((delay.plane_t().T.copy(), is_acc.T.copy()))

    final = ReplicaSet(sigma=delay.plane_t().T.copy(),
                       sigma_prev=np.zeros((r_count, n), dtype=np.int64),
                       is_acc=is_acc.T.copy(), t=params.steps)
    result = _finalize(model, params, graph, final, params.seed, params.steps,
                       None, trace)
    cycle = mac_cycles + fin_cycles
    expected = count_total_cycles(model, params.steps, sparse_bypass)
    assert cycle == expected, f"cycle accounting drift: {cycle} != {expected}"
    per_step = expected // params.steps if params.steps else 0
    report = estimate_report(cycle, f_clk, power_w, utilization, cycles_per_step=per_step)
    return result, replace(report, mac_cycles=mac_cycles, fin_cycles=fin_cycles)
