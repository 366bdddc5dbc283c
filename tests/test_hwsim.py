"""Tests for the cycle-accurate datapath model and delay-line semantics."""

from collections import Counter

import numpy as np
import pytest

from ssqa import hwsim
from ssqa.hwsim import (
    DEFAULT_F_CLK,
    DEFAULT_POWER_W,
    DualBramDelay,
    DelayAddressError,
    ShiftRegDelay,
    count_total_cycles,
    cycle_report,
    estimate_report,
    resource_scaling_model,
    run_hw,
)
from ssqa.ising import IsingModel, WeightedGraph, maxcut_to_ising
from ssqa.schedules import AnnealParams, LinearSchedule, QSchedule
from ssqa.solver import AccumulatorOverflowError, run_ssqa


def random_model(rng, n, p=0.4):
    couplings = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                couplings.append((i, j, int(rng.integers(-8, 8))))
    return IsingModel(n, rng.integers(-8, 8, size=n), tuple(couplings))


# ---------------------------------------------------------- cycle accounting

def test_count_total_cycles_sparse_vs_dense():
    model = IsingModel(4, np.zeros(4, dtype=np.int64), ((0, 1, 1), (2, 3, -1)))
    # Degrees are (1,1,1,1): sparse bypass costs sum(deg+1) = 8 per step.
    assert count_total_cycles(model, 10, sparse_bypass=True) == 80
    # Dense mode costs n*(n-1+1) = 16 per step.
    assert count_total_cycles(model, 10, sparse_bypass=False) == 160
    # A degree-4 circulant row: 800 * (4 + 1) per step.
    edges = sorted({tuple(sorted((i, (i + d) % 800))) for i in range(800) for d in (1, 2)})
    ring = IsingModel(800, np.zeros(800, dtype=np.int64), tuple((i, j, 1) for i, j in edges))
    assert count_total_cycles(ring, 1) == 4000
    # Every row of K_n holds n - 1 couplings, so both schedules cost n^2.
    n = 12
    complete = IsingModel(n, np.zeros(n, dtype=np.int64),
                          tuple((i, j, 1) for i in range(n) for j in range(i + 1, n)))
    assert count_total_cycles(complete, 1, sparse_bypass=False) == n * n
    assert count_total_cycles(complete, 3) == 3 * n * n
    single = IsingModel(1, np.zeros(1, dtype=np.int64), ())
    assert count_total_cycles(single, 1) == count_total_cycles(single, 1, False) == 1


def test_estimate_report_arithmetic():
    rep = estimate_report(2_000_000, f_clk=166e6, power_w=0.091)
    assert rep.latency_s == 2_000_000 / 166e6
    assert rep.energy_j == pytest.approx(0.091 * rep.latency_s)
    assert rep.adp_s == pytest.approx(0.199 * rep.latency_s)
    for f_clk in (0, -1, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            estimate_report(1, f_clk=f_clk)
    for power_w in (-1, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            estimate_report(1, power_w=power_w)
    zero = estimate_report(0, f_clk=166e6, power_w=0.091)
    assert zero.latency_s == 0.0 and zero.energy_j == 0.0 and zero.adp_s == 0.0
    # A negative count gave a negative latency and energy.
    for cycles in (-4000, -1, float("nan")):
        with pytest.raises(ValueError, match="cycle count"):
            estimate_report(cycles)
    assert estimate_report(4000).cycles_per_step == 0  # cycle_report fills it in


def test_resource_scaling_model():
    sr_small, sr_big = (resource_scaling_model(n, "shift_register") for n in (100, 800))
    db_small, db_big = (resource_scaling_model(n, "dual_bram") for n in (100, 800))
    # Shift registers grow linearly with N; the BRAM design uses none.
    assert sr_small["registers"] == 300 and sr_big["registers"] == 2400
    assert db_small["registers"] == db_big["registers"] == 0
    assert sr_big["fanout_class"] == "linear"
    assert db_big["fanout_class"] == "constant"
    # Both store the N x N coupling matrix in BRAM.
    assert db_big["bram_bits"] == 2 * 800 + 800 * 800 * 4
    with pytest.raises(ValueError):
        resource_scaling_model(10, "tape")


# ------------------------------------------------------- delay-line semantics

class NaiveTwoPlane:
    """Two plain arrays: cur is the t plane; old holds the t-1 plane and is
    progressively overwritten by t+1 writes (committed at end_cycle, so a
    same-cycle read returns the pre-write word). advance_step swaps roles.
    This mirrors the two-bank organization: the oldest plane is recycled in
    place as the destination of new writes.
    """

    def __init__(self, plane_t, plane_tm1):
        self.cur = np.array(plane_t)
        self.old = np.array(plane_tm1)
        self.pending = []

    def read_t(self, a):
        return self.cur[a].copy()

    def read_tminus1(self, a):
        return self.old[a].copy()

    def write(self, a, w):
        self.pending.append((a, np.array(w)))

    def end_cycle(self):
        for a, w in self.pending:
            self.old[a] = w
        self.pending.clear()

    def advance_step(self):
        self.end_cycle()
        self.cur, self.old = self.old, self.cur


class NaiveThreePlane(NaiveTwoPlane):
    """Three planes: new writes land in a separate plane, so the t-1 plane
    survives the whole step. This is the shift-register organization."""

    def __init__(self, plane_t, plane_tm1):
        super().__init__(plane_t, plane_tm1)
        self.nxt = np.array(plane_t)

    def end_cycle(self):
        for a, w in self.pending:
            self.nxt[a] = w
        self.pending.clear()

    def advance_step(self):
        self.end_cycle()
        self.old = self.cur
        self.cur = self.nxt.copy()


@pytest.mark.parametrize("delay_cls,oracle_cls", [
    (DualBramDelay, NaiveTwoPlane),
    (ShiftRegDelay, NaiveThreePlane),
])
def test_delay_fuzz_against_naive(delay_cls, oracle_cls):
    rng = np.random.default_rng(42)
    n, r = 16, 3
    p0 = rng.choice([-1, 1], size=(n, r))
    p1 = rng.choice([-1, 1], size=(n, r))
    dut = delay_cls(p0, p1)
    ref = oracle_cls(p0, p1)
    for _ in range(2000):
        op = rng.integers(0, 5)
        a = int(rng.integers(0, n))
        if op == 0:
            assert np.array_equal(dut.read_t(a), ref.read_t(a))
        elif op == 1:
            assert np.array_equal(dut.read_tminus1(a), ref.read_tminus1(a))
        elif op == 2:
            w = rng.choice([-1, 1], size=r)
            dut.write(a, w)
            ref.write(a, w)
        elif op == 3:
            dut.end_cycle()
            ref.end_cycle()
        else:
            dut.advance_step()
            ref.advance_step()
    for a in range(n):
        assert np.array_equal(dut.read_t(a), ref.read_t(a))
        assert np.array_equal(dut.read_tminus1(a), ref.read_tminus1(a))


def test_dual_bram_recycles_oldest_plane_in_place():
    """Once a t+1 write commits, the t-1 word at that address is gone; the
    spin-serial schedule reads each t-1 address before overwriting it, which
    is why this is safe in the datapath (and why the banks can alternate)."""
    d = DualBramDelay(np.array([[1], [1]]), np.array([[-1], [-1]]))
    d.write(0, [1])
    d.end_cycle()
    assert d.read_tminus1(0).tolist() == [1]    # old word overwritten
    assert d.read_tminus1(1).tolist() == [-1]   # untouched address survives


@pytest.mark.parametrize("delay_cls", [DualBramDelay, ShiftRegDelay])
def test_same_cycle_collision_reads_old_word(delay_cls):
    """A read at a just-written address must return the pre-write word."""
    p0 = np.array([[1], [1]])
    p1 = np.array([[-1], [-1]])
    d = delay_cls(p0, p1)
    d.write(0, [-1])
    assert d.read_t(0).tolist() == [1]         # write not yet visible
    assert d.read_tminus1(0).tolist() == [-1]  # old plane untouched
    d.end_cycle()
    d.advance_step()
    # The written word is now the current plane; old plane is the former t.
    assert d.read_t(0).tolist() == [-1]
    assert d.read_tminus1(0).tolist() == [1]


@pytest.mark.parametrize("delay_cls", [DualBramDelay, ShiftRegDelay])
def test_delay_address_bounds(delay_cls):
    """An address is ... or a word index in [0, N): a bool, a float, None, an
    array or an index outside [0, N) is not one, on a read or a write. A
    rejected write, or one of a word that does not fit, queues nothing."""
    n, r = 4, 2
    p0, p1 = np.arange(n * r).reshape(n, r), -np.arange(n * r).reshape(n, r)
    d, fresh = delay_cls(p0, p1), delay_cls(p0, p1)
    for bad in (-1, n, 100, True, False, np.True_, 1.5, np.float64(2.0), None, np.arange(n), [0]):
        for access in (d.read_t, d.read_tminus1, lambda a: d.write(a, np.zeros(r))):
            with pytest.raises(DelayAddressError):
                access(bad)
    for addr, word in ((0, np.zeros(r + 1)), (0, np.zeros((n, r))), (..., np.zeros(r + 1))):
        with pytest.raises(ValueError):
            d.write(addr, word)
    assert d.read_t(np.int64(n - 1)).tolist() == p0[n - 1].tolist()
    for dl in (d, fresh):
        dl.advance_step()
    assert np.array_equal(d.read_t(...), fresh.read_t(...))
    assert np.array_equal(d.read_tminus1(...), fresh.read_tminus1(...))


@pytest.mark.parametrize("delay_cls", [DualBramDelay, ShiftRegDelay])
def test_delay_reads_are_read_only(delay_cls):
    """Writing into a word or plane that a read returned raises and leaves
    the banks as they were."""
    n, r = 3, 2
    p0, p1 = np.ones((n, r), dtype=np.int64), -np.ones((n, r), dtype=np.int64)
    d = delay_cls(p0, p1)
    for read in (d.read_t, d.read_tminus1):
        for addr in (0, n - 1, ...):
            view = read(addr)
            with pytest.raises(ValueError):
                view[...] = 5
    assert np.array_equal(d.read_t(...), p0) and np.array_equal(d.read_tminus1(...), p1)


@pytest.mark.parametrize("delay_cls", [DualBramDelay, ShiftRegDelay])
def test_bound_transactions_equal_checked_ones(delay_cls):
    """Whole-plane transactions at ... equal N word cycles on a twin, each
    reading t-1 word i, writing word i and ending the cycle. Plane reads are
    read-only views of the banks; a plane written in place into
    next_plane() and a queued plane of another array both commit."""
    rng = np.random.default_rng(5)
    n, r = 7, 3
    p0, p1 = rng.choice([-1, 1], size=(n, r)), rng.choice([-1, 1], size=(n, r))
    d, twin = delay_cls(p0, p1), delay_cls(p0, p1)
    for step in range(6):
        for read, bank in ((d.read_t, d._t), (d.read_tminus1, d._tm1)):
            assert np.shares_memory(read(...), bank)
            assert np.array_equal(read(...), [read(i) for i in range(n)])
        # The FIN order: every t-1 word is read before the first write.
        old = d.read_tminus1(...).copy()
        words = rng.choice([-1, 1], size=(n, r))
        if step % 2:
            d.write(..., words)
        else:
            d.next_plane()[...] = words
            d.write(..., d.next_plane())
        for i in range(n):
            assert np.array_equal(old[i], twin.read_tminus1(i))
            twin.write(i, words[i])
            twin.end_cycle()
        for dl in (d, twin):
            dl.advance_step()
        assert np.array_equal(d.read_t(...), twin.read_t(...))
        assert np.array_equal(d.read_tminus1(...), twin.read_tminus1(...))


# ------------------------------------------------------------ run_hw behavior

@pytest.mark.parametrize("delay_kind", ["dual_bram", "shift_register"])
@pytest.mark.parametrize("sparse", [True, False])
def test_run_hw_bit_exact_and_cycle_exact(delay_kind, sparse):
    rng = np.random.default_rng(10)
    model = random_model(rng, 12)
    params = AnnealParams(steps=40, replicas=3, seed=6, q=QSchedule(0, 4, 5, 0.5),
                          i0=LinearSchedule(4, 12))
    ref = run_ssqa(model, params, record_trace=True)
    hw, report = run_hw(model, params, delay_kind, sparse_bypass=sparse,
                        record_trace=True)
    assert hw.best_value == ref.best_value
    assert np.array_equal(hw.best_state, ref.best_state)
    for (sa, ia), (sb, ib) in zip(ref.trace, hw.trace):
        assert np.array_equal(sa, sb) and np.array_equal(ia, ib)
    assert report.total_cycles == count_total_cycles(model, 40, sparse)


@pytest.mark.parametrize("delay_kind", ["dual_bram", "shift_register"])
@pytest.mark.parametrize("steps", [0, 1, 7])
def test_run_hw_calls_its_own_delay_class(delay_kind, steps, monkeypatch):
    """run_hw reads the t plane and writes the t+1 plane once per step, the
    last step included, through read_t and write in its kind's class
    __dict__, which is where the traced benchmark counts them."""
    calls = Counter()
    for cls in (DualBramDelay, ShiftRegDelay):
        for attr in ("read_t", "write"):
            def counted(self, *args, _orig=cls.__dict__[attr], _key=(cls.kind, attr)):
                calls[_key] += 1
                return _orig(self, *args)
            monkeypatch.setattr(cls, attr, counted)
    model = IsingModel(3, np.zeros(3, dtype=np.int64), ((0, 1, 1), (1, 2, -1)))
    run_hw(model, AnnealParams(steps=steps, replicas=2, seed=1), delay_kind)
    assert calls[delay_kind, "read_t"] == calls[delay_kind, "write"] == steps
    assert sum(calls.values()) == 2 * steps  # none through the other class


@pytest.mark.parametrize("delay_kind", ["dual_bram", "shift_register"])
def test_run_hw_hands_the_delay_line_only_ellipsis(delay_kind, monkeypatch):
    """run_hw reads and writes whole planes: each address it hands over is `...`."""
    addrs = []
    monkeypatch.setattr(hwsim, "_check_addr", lambda n, addr: addrs.append(addr))
    model = IsingModel(3, np.zeros(3, dtype=np.int64), ((0, 1, 1), (1, 2, -1)))
    run_hw(model, AnnealParams(steps=7, replicas=2, seed=1), delay_kind)
    assert len(addrs) == 3 * 7 and all(addr is ... for addr in addrs)


def test_run_hw_reports_mac_fin_split():
    model = IsingModel(4, np.zeros(4, dtype=np.int64), ((0, 1, 1), (1, 2, -1), (1, 3, 2)))
    params = AnnealParams(steps=6, replicas=3, seed=2)
    _, sparse = run_hw(model, params)
    assert (sparse.mac_cycles, sparse.fin_cycles) == (6 * 6, 6 * 4)
    _, dense = run_hw(model, params, sparse_bypass=False)
    assert (dense.mac_cycles, dense.fin_cycles) == (6 * 4 * 3, 6 * 4)
    for rep, sb in ((sparse, True), (dense, False)):
        assert rep.mac_cycles + rep.fin_cycles == count_total_cycles(model, 6, sb)
        # Any engine's run is priced the same way, so every report splits.
        assert rep == cycle_report(model, 6, sb)
        assert rep.mac_cycles + rep.fin_cycles == rep.total_cycles == 6 * rep.cycles_per_step


def test_run_hw_accumulator_bound_is_enforced(monkeypatch):
    model = IsingModel(3, np.array([3, -2, 1]), ((0, 1, 7), (0, 2, -7), (1, 2, 7)))
    params = AnnealParams(steps=4, replicas=2, seed=3)
    run_hw(model, params)  # the true bound holds
    monkeypatch.setattr(IsingModel, "max_input_magnitude", lambda self, n_rnd, q: 0)
    with pytest.raises(AccumulatorOverflowError):
        run_hw(model, params)


def test_run_hw_accumulator_check_sees_sums_past_int8(monkeypatch):
    """The step dtype is sized from the weight width, not from the bound that
    the per-step check verifies, so a wrong bound raises instead of wrapping.
    Here the true sums reach |J| * 2 = 240, past int8, and the check reports
    the true peak, which no int8 holds."""
    model = IsingModel(3, np.zeros(3, dtype=np.int64),
                       ((0, 1, 120), (0, 2, -120), (1, 2, 100)), weight_bits=8)
    params = AnnealParams(steps=4, replicas=2, seed=3)
    run_hw(model, params)  # the true bound holds
    monkeypatch.setattr(IsingModel, "max_input_magnitude", lambda self, n_rnd, q: 0)
    with pytest.raises(AccumulatorOverflowError, match="exceeds bound 5") as err:
        run_hw(model, params)
    assert int(str(err.value).split()[1]) > 128


def test_run_hw_rejects_unknown_delay_kind():
    model = IsingModel(2, np.zeros(2, dtype=np.int64), ((0, 1, 1),))
    with pytest.raises(ValueError):
        run_hw(model, AnnealParams(), delay_kind="tape")


def test_run_hw_report_defaults():
    graph = WeightedGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    model = maxcut_to_ising(graph)
    _, report = run_hw(model, AnnealParams(steps=5, replicas=2, seed=1), graph=graph)
    assert report.f_clk == DEFAULT_F_CLK
    assert report.power_w == DEFAULT_POWER_W
    assert report.cycles_per_step == count_total_cycles(model, 1)
    assert report.latency_s == report.total_cycles / DEFAULT_F_CLK
    # A run of no steps still reports the schedule's per-step count.
    path = WeightedGraph(3, ((0, 1, 1), (1, 2, 1)))
    _, report = run_hw(maxcut_to_ising(path), AnnealParams(steps=0, replicas=2), graph=path)
    assert report.total_cycles == 0
    assert report.cycles_per_step == count_total_cycles(maxcut_to_ising(path), 1) == 7
