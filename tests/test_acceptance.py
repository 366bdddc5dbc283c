"""Acceptance gate: ten end-to-end checks at their stated tolerances.

Each test prints one summary line so a full run reads as a scorecard.
Instances that are not bundled (no redistributable source was available)
are skipped explicitly rather than silently passed.
"""

import itertools

import numpy as np
import pytest

from ssqa import gset
from ssqa.bench import RunConfig, run_trials
from ssqa.hwsim import (
    DualBramDelay,
    count_total_cycles,
    estimate_report,
    run_hw,
)
from ssqa.ising import IsingModel, WeightedGraph, cut_value, maxcut_to_ising
from ssqa.schedules import AnnealParams, LinearSchedule, QSchedule, i0_at, q_at
from ssqa.solver import run_psa, run_ssa, run_ssqa

G11_BEST = 564


def tuned_params(**kw):
    """Package defaults: 500 steps, R=20, tuned schedule constants."""
    return AnnealParams(**kw)


def random_connected_graph(rng, n):
    """Random connected graph with +-1 weights: spanning tree + extra edges."""
    order = rng.permutation(n)
    edges = {}
    for idx in range(1, n):
        u, v = order[idx], order[rng.integers(0, idx)]
        a, b = (u, v) if u < v else (v, u)
        edges[(a, b)] = int(rng.choice([-1, 1]))
    extra = rng.integers(n // 2, 2 * n)
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        a, b = (u, v) if u < v else (v, u)
        edges.setdefault((int(a), int(b)), int(rng.choice([-1, 1])))
    return WeightedGraph(n, tuple((u, v, w) for (u, v), w in sorted(edges.items())))


def exhaustive_maxcut(graph):
    n = graph.n_nodes
    states = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1) * 2 - 1
    cut = np.zeros(1 << n, dtype=np.int64)
    for u, v, w in graph.edges:
        cut += w * (states[:, u] != states[:, v])
    return int(cut.max())


def check_trace_invariants(trace, params):
    """Criterion 7 helper: saturation bounds and sign consistency per step."""
    for t, (sigma, is_acc) in enumerate(trace):
        i0 = i0_at(params, t)
        assert (is_acc >= -i0).all(), f"Is below -I0 at step {t}"
        assert (is_acc <= i0 - params.alpha).all(), f"Is above I0-alpha at step {t}"
        assert np.array_equal(sigma, np.where(is_acc >= 0, 1, -1)), \
            f"sign inconsistency at step {t}"


def test_01_oracle_optimality_on_small_graphs():
    """50 random connected graphs, N <= 16, +-1 weights; exhaustive optimum;
    tuned solver at R=20 x 500 steps x 10 seeds finds it on >= 90% of pairs."""
    rng = np.random.default_rng(2024)
    hits = total = 0
    for g_idx in range(50):
        n = int(rng.integers(6, 17))
        graph = random_connected_graph(rng, n)
        model = maxcut_to_ising(graph)
        optimum = exhaustive_maxcut(graph)
        for seed in range(1, 11):
            result = run_ssqa(model, tuned_params(seed=seed), graph)
            total += 1
            hits += result.best_value == optimum
    rate = hits / total
    print(f"\n[1] oracle optimality: {hits}/{total} = {rate:.1%} (need >= 90%)")
    assert rate >= 0.90


def test_02_g11_quality():
    """G11, R=20, 500 steps, 20 trials: best >= 556 and mean >= 547."""
    summary = run_trials(RunConfig(instance="G11", trials=20, seed=1))
    s = summary.summary_dict()
    print(f"\n[2] G11 20 trials: mean {s['mean']:.1f} (need >= 547), "
          f"best {s['max']} (need >= 556), min {s['min']}")
    assert s["max"] >= 556
    assert s["mean"] >= 547


@pytest.mark.parametrize("name", ["G11", "G12", "G13"])
def test_03_replica_saturation(name):
    """Normalized mean cut at R=20 >= 0.98 and >= (R=5 value) + 0.005,
    over 10 trials per point, on each bundled toroidal instance."""
    if name not in gset.bundled_instance_names():
        pytest.skip(f"{name} edge file not bundled: no redistributable source "
                    f"was reachable when the data set was assembled")
    best = gset.registry_lookup(name).best_known_cut
    norms = {}
    for r in (5, 20):
        summary = run_trials(RunConfig(instance=name, replicas=r, trials=10, seed=1))
        norms[r] = summary.summary_dict()["mean"] / best
    print(f"\n[3] {name} normalized mean: R=20 {norms[20]:.4f} (need >= 0.98), "
          f"R=5 {norms[5]:.4f} (need gap >= 0.005)")
    assert norms[20] >= 0.98
    assert norms[20] - norms[5] >= 0.005


def test_04_cycle_model_exactness():
    """G11 sparse-bypass cycle counts are exact; latency/energy within 1%."""
    graph = gset.load_instance("G11")
    model = maxcut_to_ising(graph)
    per_step = count_total_cycles(model, 1)
    total = count_total_cycles(model, 500)
    report = estimate_report(total)
    print(f"\n[4] G11 cycles/step {per_step} (need 4000), total {total:,} "
          f"(need 2,000,000); latency {report.latency_s*1e3:.3f} ms vs 12.01, "
          f"energy {report.energy_j*1e3:.4f} mJ vs 1.093")
    assert per_step == 4000
    assert total == 2_000_000
    assert abs(report.latency_s - 12.01e-3) / 12.01e-3 < 0.01
    assert abs(report.energy_j - 1.093e-3) / 1.093e-3 < 0.01


def test_05_bit_exact_engine_equivalence_and_invariants():
    """20 random (model, seed) pairs, N <= 64, R <= 8, 1000 steps: full
    (sigma, Is) traces of the reference engine and both delay-line datapath
    models are identical. Doubles as the trace-invariant check (criterion 7)."""
    rng = np.random.default_rng(99)
    for pair in range(20):
        n = int(rng.integers(6, 65))
        r = int(rng.integers(1, 9))
        seed = int(rng.integers(1, 2**31))
        couplings = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < min(0.8, 4.0 / n):
                    couplings.append((i, j, int(rng.integers(-8, 8))))
        model = IsingModel(n, rng.integers(-8, 8, size=n), tuple(couplings))
        params = AnnealParams(steps=1000, replicas=r, seed=seed,
                              q=QSchedule(0, 4, 25, 0.5),
                              i0=LinearSchedule(4, 16),
                              n_rnd=LinearSchedule(4, 0))
        ref = run_ssqa(model, params, record_trace=True)
        check_trace_invariants(ref.trace, params)
        for kind in ("dual_bram", "shift_register"):
            hw, _ = run_hw(model, params, kind, record_trace=True)
            for t, ((sa, ia), (sb, ib)) in enumerate(zip(ref.trace, hw.trace)):
                assert np.array_equal(sa, sb), f"pair {pair} {kind} sigma step {t}"
                assert np.array_equal(ia, ib), f"pair {pair} {kind} Is step {t}"
    print("\n[5] bit-exact equivalence: 20 pairs x 2 delay kinds x 1000 steps OK")


def test_06_read_before_write_fuzz():
    """10,000-operation randomized fuzz of the two-bank delay line against a
    naive two-plane array model, including same-cycle collisions."""

    class TwoPlane:
        def __init__(self, cur, old):
            self.cur, self.old, self.pending = np.array(cur), np.array(old), []

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

    rng = np.random.default_rng(7)
    n, r = 32, 4
    p0 = rng.choice([-1, 1], size=(n, r))
    p1 = rng.choice([-1, 1], size=(n, r))
    dut, ref = DualBramDelay(p0, p1), TwoPlane(p0, p1)
    reads = 0
    for _ in range(10_000):
        op = rng.integers(0, 6)
        a = int(rng.integers(0, n))
        if op in (0, 1):
            assert np.array_equal(dut.read_t(a), ref.read_t(a))
            reads += 1
        elif op == 2:
            assert np.array_equal(dut.read_tminus1(a), ref.read_tminus1(a))
            reads += 1
        elif op == 3:
            w = rng.choice([-1, 1], size=r)
            dut.write(a, w)
            ref.write(a, w)
            # Same-cycle collision: the read must see the pre-write word.
            assert np.array_equal(dut.read_tminus1(a), ref.read_tminus1(a))
            reads += 1
        elif op == 4:
            dut.end_cycle()
            ref.end_cycle()
        else:
            dut.advance_step()
            ref.advance_step()
    print(f"\n[6] delay fuzz: 10,000 ops, {reads} compared reads, all equal")


def test_07_saturation_invariant_on_solver_scale_runs():
    """Trace invariants on tuned-default runs at both desk scales (small
    random models and a G11 run); criterion-5 traces are checked in test 05."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(6, 17))
        graph = random_connected_graph(rng, n)
        model = maxcut_to_ising(graph)
        params = tuned_params(seed=int(rng.integers(1, 1000)))
        result = run_ssqa(model, params, graph, record_trace=True)
        check_trace_invariants(result.trace, params)
    g11 = maxcut_to_ising(gset.load_instance("G11"))
    params = tuned_params(replicas=4, seed=1)
    result = run_ssqa(g11, params, record_trace=True)
    check_trace_invariants(result.trace, params)
    print("\n[7] saturation + sign invariants hold on 10 small runs and G11")


def test_08_q_schedule_staircase():
    """q_at reproduces the staircase exactly, including the q_max clamp."""
    s = QSchedule(q_min=0, q_max=8, tau=25, beta=0.5)
    for m in range(0, 16):
        expect = min(0 + m * 0.5, 8.0)
        for t in (m * 25, m * 25 + 24):
            assert q_at(s, t) == expect
    assert q_at(s, 400) == 8.0 and q_at(s, 100_000) == 8.0
    offset = QSchedule(q_min=1.5, q_max=4.0, tau=10, beta=1.0)
    assert [q_at(offset, t) for t in (0, 9, 10, 25, 30, 1000)] == [
        1.5, 1.5, 2.5, 3.5, 4.0, 4.0]
    print("\n[8] q(t) staircase exact, clamped at q_max")


def test_09_ssqa_beats_ssa_step_budget():
    """On G11 over 10 trials, SSQA at 500 steps achieves a mean cut at least
    as high as the single-network engine at 5000 steps."""
    graph = gset.load_instance("G11")
    model = maxcut_to_ising(graph)
    ssqa_cuts = [run_ssqa(model, tuned_params(seed=s), graph).best_value
                 for s in range(1, 11)]
    ssa_cuts = [run_ssa(model, tuned_params(seed=s, steps=5000), graph).best_value
                for s in range(1, 11)]
    m_ssqa, m_ssa = np.mean(ssqa_cuts), np.mean(ssa_cuts)
    print(f"\n[9] mean cut: SSQA@500 {m_ssqa:.1f} vs SSA@5000 {m_ssa:.1f}")
    assert m_ssqa >= m_ssa


def test_10_psa_tanh_statistics():
    """Empirical mean spin under the tanh engine matches tanh(I0*I) within
    0.02 over a grid of inputs, 100,000 samples per point."""
    h = np.arange(-7, 8)
    model = IsingModel(len(h), h, ())  # no couplings: spins are independent
    i0 = 0.3
    params = AnnealParams(steps=100_000, replicas=1, seed=42,
                          i0=LinearSchedule.constant(i0))
    result = run_psa(model, params, collect_spin_mean=True)
    empirical = result.spin_mean[0]
    expected = np.tanh(i0 * h)
    dev = np.abs(empirical - expected).max()
    print(f"\n[10] pSA statistics: max |mean - tanh| = {dev:.4f} (need < 0.02)")
    assert dev < 0.02
