"""Cycle-accurate functional model of the spin-serial, replica-parallel
annealing datapath.

Schedule: for each spin, one MAC cycle per stored coupling (all couplings
when the sparse bypass is off, so N-1 cycles for a dense row) plus one
finalize cycle that applies the saturating accumulator and sign, giving
N*(k+1) cycles per annealing step on a regular-degree graph. All R replica
gates advance in lockstep and share each (J_ij, j) fetch; the per-replica
noise word is consumed in the finalize cycle.

Delay lines supply the step-t plane (for interaction reads) and the
step-(t-1) plane (for the replica-coupling read). The two implementations
produce identical values and differ only in their resource model:

* DualBramDelay: two banks alternate roles each step; the new plane
  overwrites the oldest one in place, and a same-cycle read at a written
  address returns the pre-write word (reads before writes).
* ShiftRegDelay: three full register planes shifted once per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ising import IsingModel, WeightedGraph
from .rng import RngStreams
from .schedules import AnnealParams, i0_at, n_rnd_at, q_value_at
from .solver import (
    AccumulatorOverflowError,
    ReplicaSet,
    RunResult,
    _finalize,
    initial_state,
)


class DelayAddressError(IndexError):
    """Delay-line access outside [0, N)."""


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
        degs = np.zeros(model.n, dtype=np.int64)
        for i, j, _ in model.couplings:
            degs[i] += 1
            degs[j] += 1
        per_step = int((degs + 1).sum())
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


# Measured constants of the reference FPGA build, used as report defaults.
# They are imported inputs to the cost model, never computed here.
DEFAULT_F_CLK = 166e6
DEFAULT_POWER_W = 0.091
DEFAULT_UTILIZATION = 0.199


def estimate_report(total_cycles: int, f_clk: float = DEFAULT_F_CLK,
                    power_w: float = DEFAULT_POWER_W,
                    utilization: float = DEFAULT_UTILIZATION,
                    cycles_per_step: int = 0) -> CycleReport:
    if f_clk <= 0:
        raise ValueError("clock frequency must be positive")
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

    def _check(self, addr: int):
        if not (0 <= addr < self.n):
            raise DelayAddressError(f"address {addr} outside [0,{self.n})")

    def read_t(self, addr: int):
        self._check(addr)
        return self._banks[self.parity][addr]

    def read_tminus1(self, addr: int):
        self._check(addr)
        return self._banks[1 - self.parity][addr]

    def write(self, addr: int, word):
        self._check(addr)
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

    def _check(self, addr: int):
        if not (0 <= addr < self.n):
            raise DelayAddressError(f"address {addr} outside [0,{self.n})")

    def read_t(self, addr: int):
        self._check(addr)
        return self._cur[addr]

    def read_tminus1(self, addr: int):
        self._check(addr)
        return self._old[addr]

    def write(self, addr: int, word):
        self._check(addr)
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


_DELAY_KINDS = {"dual_bram": DualBramDelay, "shift_register": ShiftRegDelay}


def run_hw(model: IsingModel, params: AnnealParams, delay_kind: str = "dual_bram",
           graph: WeightedGraph | None = None, sparse_bypass: bool = True,
           record_trace: bool = False, trace_file=None,
           f_clk: float = DEFAULT_F_CLK, power_w: float = DEFAULT_POWER_W,
           utilization: float = DEFAULT_UTILIZATION):
    """Cycle-by-cycle execution of the spin-serial schedule.

    Returns (RunResult, CycleReport); the RunResult is bit-exact equal to
    run_ssqa with the same inputs in integer mode. trace_file, when given,
    receives one line per cycle: "cycle,step,spin,replica,phase,parity"
    with replica -1 meaning all gates in lockstep.
    """
    if not params.integer_mode:
        raise ValueError("the hardware model is integer-mode only")
    if delay_kind not in _DELAY_KINDS:
        raise ValueError(f"unknown delay kind {delay_kind!r}")

    n, r_count = model.n, params.replicas
    adjacency = model.adjacency()
    if not sparse_bypass:
        jdense = np.asarray(model.coupling_matrix().todense())

    rng = RngStreams(params.seed, r_count)
    init = initial_state(model, params, rng)
    # Delay words are spin-major: address i holds the R replica states.
    delay = _DELAY_KINDS[delay_kind](init.sigma.T.copy(), init.sigma_prev.T.copy())
    is_acc = np.zeros((r_count, n), dtype=np.int64)

    n_rnd_max = max(abs(n_rnd_at(params, 0)), abs(n_rnd_at(params, max(params.steps - 1, 0))))
    i0_max = max(abs(i0_at(params, 0)), abs(i0_at(params, max(params.steps - 1, 0))))
    acc_bound = model.max_input_magnitude(n_rnd_max, int(np.ceil(params.q.q_max))) + i0_max

    periodic = params.periodic_replicas
    cycle = 0
    trace = [] if record_trace else None

    def emit(step, spin, phase):
        if trace_file is not None:
            trace_file.write(f"{cycle},{step},{spin},-1,{phase},{delay.parity if hasattr(delay, 'parity') else 0}\n")

    for t in range(params.steps):
        q = q_value_at(params, t)
        i0 = i0_at(params, t)
        n_rnd = n_rnd_at(params, t)
        # One word per replica per spin, consumed in spin i's finalize cycle.
        noise_step = rng.next_bipolar(n)
        for i in range(n):
            acc = np.zeros(r_count, dtype=np.int64)
            if sparse_bypass:
                for j, w in adjacency[i]:
                    acc += w * delay.read_t(j)
                    emit(t, i, "MAC")
                    cycle += 1
            else:
                for j in range(n):
                    if j == i:
                        continue
                    acc += int(jdense[i, j]) * delay.read_t(j)
                    emit(t, i, "MAC")
                    cycle += 1
            # Finalize cycle: noise, replica coupling, saturation, sign.
            noise = noise_step[i]
            upper = np.roll(delay.read_tminus1(i), -1)
            if not periodic:
                upper[-1] = 0
            inp = int(model.h[i]) + acc + n_rnd * noise + q * upper
            raw = is_acc[:, i] + inp
            if np.abs(raw).max() > acc_bound:
                raise AccumulatorOverflowError(
                    f"|accumulator| {np.abs(raw).max()} exceeds bound {acc_bound}"
                )
            is_new = np.where(raw >= i0, i0 - params.alpha, np.where(raw < -i0, -i0, raw))
            sigma_new = np.where(is_new >= 0, 1, -1).astype(np.int64)
            is_acc[:, i] = is_new
            delay.write(i, sigma_new)
            emit(t, i, "FIN")
            cycle += 1
            delay.end_cycle()
        delay.advance_step()
        if record_trace:
            trace.append((delay.plane_t().T.copy(), is_acc.copy()))

    final = ReplicaSet(sigma=delay.plane_t().T.copy(),
                       sigma_prev=np.zeros((r_count, n), dtype=np.int64),
                       is_acc=is_acc, t=params.steps)
    result = _finalize(model, params, graph, final, params.seed, params.steps,
                       None, trace)
    expected = count_total_cycles(model, params.steps, sparse_bypass)
    assert cycle == expected, f"cycle accounting drift: {cycle} != {expected}"
    per_step = expected // params.steps if params.steps else 0
    report = estimate_report(cycle, f_clk, power_w, utilization, cycles_per_step=per_step)
    return result, report
