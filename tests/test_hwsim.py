"""Tests for the cycle-accurate datapath model and delay-line semantics."""

import io
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
    rep = estimate_report(2_000_000, f_clk=166e6, power_w=0.091, utilization=0.199)
    assert rep.latency_s == 2_000_000 / 166e6
    assert rep.energy_j == pytest.approx(0.091 * rep.latency_s)
    assert rep.adp_s == pytest.approx(0.199 * rep.latency_s)
    for f_clk in (0, -1, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            estimate_report(1, f_clk=f_clk)
    for power_w in (-1, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            estimate_report(1, power_w=power_w)
    for utilization in (-3, 1.5):
        with pytest.raises(ValueError):
            estimate_report(1, utilization=utilization)
    zero = estimate_report(0, f_clk=166e6, power_w=0.091)
    assert zero.latency_s == 0.0 and zero.energy_j == 0.0 and zero.adp_s == 0.0


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
    d = delay_cls(np.ones((4, 2)), np.ones((4, 2)))
    for bad in (-1, 4, 100):
        with pytest.raises(DelayAddressError):
            d.read_t(bad)
        with pytest.raises(DelayAddressError):
            d.write(bad, [1, 1])


@pytest.mark.parametrize("delay_cls", [DualBramDelay, ShiftRegDelay])
def test_vector_read_t_equals_scalar_reads(delay_cls):
    rng = np.random.default_rng(3)
    n, r = 9, 4
    p0, p1 = rng.choice([-1, 1], size=(n, r)), rng.choice([-1, 1], size=(n, r))
    # d takes the array forms, twin the same accesses one address per cycle.
    d, twin = delay_cls(p0, p1), delay_cls(p0, p1)
    for _ in range(50):
        addrs = rng.integers(0, n, size=int(rng.integers(0, 2 * n)))
        if rng.random() < 0.5:
            # A same-cycle pending write is not visible to the gather.
            a, w = int(rng.integers(0, n)), rng.choice([-1, 1], size=r)
            d.write(a, w)
            twin.write(a, w)
        got = d.read_t(addrs)
        assert got.shape == (len(addrs), r)
        for k, a in enumerate(addrs):
            assert np.array_equal(got[k], d.read_t(int(a)))
        advance = rng.random() < 0.3
        for dl in (d, twin):
            dl.advance_step() if advance else dl.end_cycle()
        # A FIN phase over a permutation: all t-1 reads, then all writes,
        # against one read-write-commit cycle per address in that order.
        perm, words = rng.permutation(n), rng.choice([-1, 1], size=(n, r))
        old = d.read_tminus1(perm)
        d.write(perm, words)
        d.end_cycle()
        for k, a in enumerate(perm.tolist()):
            assert np.array_equal(old[k], twin.read_tminus1(a))
            twin.write(a, words[k])
            twin.end_cycle()
        for dl in (d, twin) if rng.random() < 0.5 else ():
            dl.advance_step()
        for a in range(n):
            assert np.array_equal(d.read_t(a), twin.read_t(a))
            assert np.array_equal(d.read_tminus1(a), twin.read_tminus1(a))
    for bad in ([-1], [0, n], [3, -2, 1], [n + 5]):
        with pytest.raises(DelayAddressError):
            d.read_t(np.array(bad))
        with pytest.raises(DelayAddressError):
            d.read_tminus1(np.array(bad))


@pytest.mark.parametrize("delay_cls", [DualBramDelay, ShiftRegDelay])
def test_fin_write_addresses_must_be_a_permutation(delay_cls):
    n, r = 4, 2
    d, fresh = (delay_cls(np.ones((n, r)), -np.ones((n, r))) for _ in range(2))
    for bad in ([0, 1, 1, 3], [0, 1, 2], [-1, 1, 2, 3], [0, 1, 2, n], [0, 1, 2, 3, 0]):
        with pytest.raises(DelayAddressError):
            d.write(np.array(bad), np.zeros((len(bad), r)))
    # The rejected writes queued nothing.
    d.advance_step()
    fresh.advance_step()
    assert np.array_equal(d.read_t(np.arange(n)), fresh.read_t(np.arange(n)))
    assert np.array_equal(d.read_tminus1(np.arange(n)), fresh.read_tminus1(np.arange(n)))
    d.write(np.array([2, 0, 3, 1]), np.array([[1, 1], [-1, -1], [1, -1], [-1, 1]]))
    d.advance_step()
    assert d.read_t(np.arange(n)).tolist() == [[-1, -1], [-1, 1], [1, 1], [1, -1]]


@pytest.mark.parametrize("delay_cls", [DualBramDelay, ShiftRegDelay])
def test_bind_rejects_a_bad_stream_and_binds_nothing(delay_cls):
    n, r = 4, 2
    d = delay_cls(np.ones((n, r)), -np.ones((n, r)))
    good = d.bind(np.arange(n))
    for bad in ([0, 1, 1, 3], [0, 1, 2], [-1, 1, 2, 3], [0, 1, 2, n], [0, 1, 2, 3, 0],
                [1, 0, 2, 3]):  # the last is a permutation, but not in spin order
        with pytest.raises(DelayAddressError):
            d.bind(np.array(bad))
    # The stream bound before the rejected binds is still the bound one.
    assert np.shares_memory(d.read_t(good), d._t)
    assert not np.shares_memory(d.read_t(np.arange(n)), d._t)


@pytest.mark.parametrize("delay_cls", [DualBramDelay, ShiftRegDelay])
def test_bound_stream_is_read_only(delay_cls):
    n = 5
    d = delay_cls(np.ones((n, 1)), np.ones((n, 1)))
    stream = np.arange(n)
    bound = d.bind(stream)
    assert not bound.flags.writeable
    with pytest.raises(ValueError):
        bound[0] = 1
    stream[0] = 1  # the caller's array is not the bound one
    assert bound.tolist() == list(range(n))


@pytest.mark.parametrize("delay_cls", [DualBramDelay, ShiftRegDelay])
def test_bound_transactions_equal_checked_ones(delay_cls):
    """Reads by the bound stream are read-only views of the banks with the
    words of the checked gather, and a step written in place into
    next_plane() leaves the delay line as the checked array write does. The
    bound stream with any other word array is a checked, queued write."""
    rng = np.random.default_rng(5)
    n, r = 7, 3
    p0, p1 = rng.choice([-1, 1], size=(n, r)), rng.choice([-1, 1], size=(n, r))
    d, twin = delay_cls(p0, p1), delay_cls(p0, p1)
    spins = d.bind(np.arange(n))
    for step in range(6):
        for read, bank in ((d.read_t, d._t), (d.read_tminus1, d._tm1)):
            view = read(spins)
            assert np.array_equal(view, read(np.arange(n)))
            assert np.shares_memory(view, bank) and not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 0
        # The FIN order: every t-1 word is read before the first write.
        assert np.array_equal(d.read_tminus1(spins), twin.read_tminus1(np.arange(n)))
        words = rng.choice([-1, 1], size=(n, r))
        if step % 2:
            d.write(spins, words)
        else:
            d.next_plane()[...] = words
            d.write(spins, d.next_plane())
        twin.write(np.arange(n), words)
        for dl in (d, twin):
            dl.advance_step()
        assert np.array_equal(d.plane_t(), twin.plane_t())
        assert np.array_equal(d.read_tminus1(spins), twin.read_tminus1(np.arange(n)))
        assert d.parity == twin.parity


@pytest.mark.parametrize("delay_cls,parities", [
    (DualBramDelay, [0, 1, 0]),
    (ShiftRegDelay, [0, 0, 0]),
], ids=["dual_bram", "shift_register"])
def test_delay_parity(delay_cls, parities):
    """The dual-BRAM bank parity alternates each step; a shift register's stays 0."""
    d = delay_cls(np.ones((2, 1)), np.ones((2, 1)))
    seen = [d.parity]
    for _ in parities[1:]:
        d.advance_step()
        seen.append(d.parity)
    assert seen == parities


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
def test_run_hw_calls_its_own_delay_class(delay_kind, monkeypatch):
    """run_hw reads the t plane and writes the t+1 plane once per step, through
    read_t and write in its kind's class __dict__, which is where the traced
    benchmark counts them."""
    calls = Counter()
    for cls in (DualBramDelay, ShiftRegDelay):
        for attr in ("read_t", "write"):
            def counted(self, *args, _orig=cls.__dict__[attr], _key=(cls.kind, attr)):
                calls[_key] += 1
                return _orig(self, *args)
            monkeypatch.setattr(cls, attr, counted)
    model = IsingModel(3, np.zeros(3, dtype=np.int64), ((0, 1, 1), (1, 2, -1)))
    run_hw(model, AnnealParams(steps=7, replicas=2, seed=1), delay_kind)
    assert calls == {(delay_kind, "read_t"): 7, (delay_kind, "write"): 7}


@pytest.mark.parametrize("delay_kind", ["dual_bram", "shift_register"])
def test_run_hw_checks_its_address_stream_once_per_run(delay_kind, monkeypatch):
    """run_hw binds its FIN stream once; no step runs an address check."""
    calls = Counter()
    for name in ("_check_addr", "_check_write"):
        def counted(*args, _orig=getattr(hwsim, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(hwsim, name, counted)
    model = IsingModel(3, np.zeros(3, dtype=np.int64), ((0, 1, 1), (1, 2, -1)))
    run_hw(model, AnnealParams(steps=7, replicas=2, seed=1), delay_kind)
    assert calls == {"_check_write": 1, "_check_addr": 1}


def test_run_hw_trace_file_format():
    model = IsingModel(3, np.zeros(3, dtype=np.int64), ((0, 1, 1), (1, 2, -1)))
    params = AnnealParams(steps=2, replicas=2, seed=1)
    # Degrees (1, 2, 1): each step is MAC FIN, MAC MAC FIN, MAC FIN. The
    # last column is the dual-BRAM bank parity, 0 throughout for registers.
    step = [(0, "MAC"), (0, "FIN"), (1, "MAC"), (1, "MAC"), (1, "FIN"), (2, "MAC"), (2, "FIN")]
    for kind, parities in (("dual_bram", (0, 1)), ("shift_register", (0, 0))):
        buf = io.StringIO()
        _, report = run_hw(model, params, kind, trace_file=buf)
        want = [f"{7 * t + c},{t},{spin},-1,{phase},{parities[t]}"
                for t in range(2) for c, (spin, phase) in enumerate(step)]
        assert buf.getvalue() == "".join(line + "\n" for line in want), kind
        assert report.total_cycles == len(want)
    assert want[:3] == ["0,0,0,-1,MAC,0", "1,0,0,-1,FIN,0", "2,0,1,-1,MAC,0"]


def test_run_hw_reports_mac_fin_split():
    model = IsingModel(4, np.zeros(4, dtype=np.int64), ((0, 1, 1), (1, 2, -1), (1, 3, 2)))
    params = AnnealParams(steps=6, replicas=3, seed=2)
    _, sparse = run_hw(model, params)
    assert (sparse.mac_cycles, sparse.fin_cycles) == (6 * 6, 6 * 4)
    _, dense = run_hw(model, params, sparse_bypass=False)
    assert (dense.mac_cycles, dense.fin_cycles) == (6 * 4 * 3, 6 * 4)
    for rep, sb in ((sparse, True), (dense, False)):
        assert rep.mac_cycles + rep.fin_cycles == count_total_cycles(model, 6, sb)
    # The reference engines simulate no cycle, so their split is zero.
    assert (estimate_report(100).mac_cycles, estimate_report(100).fin_cycles) == (0, 0)


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
