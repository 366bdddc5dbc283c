"""Tests for the reference engines: golden traces, invariants, equivalences."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ssqa.gset import load_instance
from ssqa.ising import IsingModel, WeightedGraph, maxcut_to_ising, replica_energies
from ssqa.rng import RngStreams
from ssqa.schedules import (AnnealParams, LinearSchedule, QSchedule, i0_at, n_rnd_at, q_value_at,
                            schedule_table)
from ssqa.solver import (
    _NOISE_BLOCK,
    _add_coupling,
    _bias_plane,
    _noise_planes,
    _saturate_and_sign,
    _step_arrays,
    _step_dtype,
    _step_inputs,
    accumulator_bound,
    initial_state,
    run_psa,
    run_ssa,
    run_ssqa,
    select_best_replica,
)


def two_spin_model():
    return IsingModel(2, np.array([2, -1]), ((0, 1, 3),))


def noiseless_params(**kw):
    base = dict(steps=3, replicas=2, q=QSchedule(2, 2, 1, 0),
                i0=LinearSchedule.constant(4), n_rnd=LinearSchedule.constant(0),
                seed=1)
    base.update(kw)
    return AnnealParams(**base)


def random_model(rng, n, p=0.4, weight_bits=4):
    lim = 1 << (weight_bits - 1)
    couplings = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                couplings.append((i, j, int(rng.integers(-lim, lim))))
    h = rng.integers(-lim, lim, size=n)
    return IsingModel(n, h, tuple(couplings), weight_bits)


# ------------------------------------------------------- hand-computed trace

def hand_steps(model, params, rng, sigma, is_acc):
    """Step the engines' kernel, _step_arrays, in the run's step dtype from
    hand-set replica-major (R, N) planes, with the t-1 plane a copy of the
    t plane as at the start of a run, over the engines' per-step inputs (h
    rides with the noise). Yields replica-major (sigma, Is) after each of
    params.steps steps."""
    dtype = _step_dtype(model, params, model.coupling_matrix())
    jmat, bias = model.coupling_matrix(dtype), _bias_plane(model, params.replicas, dtype)
    sigma = np.array(np.transpose(sigma), dtype=dtype, order="C")
    is_acc = np.array(np.transpose(is_acc), dtype=dtype, order="C")
    sigma_prev = sigma.copy()
    for raw, q, i0, floor in _step_inputs(params, rng, bias):
        _step_arrays(jmat, params, sigma, sigma_prev, raw, is_acc, q, i0, floor)
        sigma, sigma_prev, is_acc = sigma_prev, sigma, raw
        yield sigma.T.copy(), is_acc.T.copy()


def test_three_step_golden_trace():
    """Hand evaluation of the update rule for N=2, R=2, q=2, I0=4, no noise.

    Expected states were computed by hand from
    I = h + J*sigma(t) + q*sigma_{k+1}(t-1), then the three-branch
    saturation with bounds [-4, 3] and sign extraction.
    """
    model = two_spin_model()
    params = noiseless_params()
    steps = list(hand_steps(model, params, RngStreams(1, 2),
                            sigma=[[1, -1], [-1, 1]], is_acc=np.zeros((2, 2))))
    assert len(steps) == 3
    sigma, is_acc = steps[0]
    assert sigma.tolist() == [[-1, 1], [1, -1]]
    assert is_acc.tolist() == [[-3, 3], [3, -4]]  # both saturation branches

    sigma, is_acc = steps[1]
    assert sigma.tolist() == [[1, 1], [1, -1]]
    # raw = -4 is NOT below -I0 = -4, so the middle branch keeps it.
    assert is_acc.tolist() == [[0, 1], [3, -4]]

    sigma, is_acc = steps[2]
    assert sigma.tolist() == [[1, 1], [1, 1]]
    assert is_acc.tolist() == [[3, 1], [0, 0]]


def test_single_pbit_accumulation_and_saturation():
    """N=1, R=1, h=+2, no couplings, no noise, q=0, I0=4: the accumulator
    integrates h until it saturates at I0 - alpha."""
    model = IsingModel(1, np.array([2]), ())
    params = noiseless_params(replicas=1, q=QSchedule(0, 0, 1, 0))
    rng = RngStreams(1, 1)
    sigma, is_acc = next(hand_steps(model, params, rng, sigma=[[1]], is_acc=[[0]]))
    assert is_acc.tolist() == [[2]] and sigma.tolist() == [[1]]
    # From Is=3, raw = 3 + 2 = 5 >= I0=4 -> saturate at I0 - alpha = 3.
    sigma, is_acc = next(hand_steps(model, params, rng, sigma=[[1]], is_acc=[[3]]))
    assert is_acc.tolist() == [[3]] and sigma.tolist() == [[1]]


def test_zero_steps_run_is_well_defined():
    graph = WeightedGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    model = maxcut_to_ising(graph)
    result = run_ssqa(model, AnnealParams(steps=0, replicas=3, seed=1), graph)
    assert result.steps_executed == 0
    assert 0 <= result.best_value <= 4
    assert result.best_value == max(result.per_replica_final)


# ------------------------------------------------- independent naive oracle

def naive_trace(model, params):
    """Straight-loop re-implementation of the update rule (test oracle).

    Reads every sigma from the previous-step plane, mirrors the engines'
    RNG consumption (one word per spin per replica per step, spin-major).
    """
    rng = RngStreams(params.seed, params.replicas)
    sigma = rng.next_bipolar(model.n).T.astype(np.int64).copy()
    prev = sigma.copy()
    is_acc = np.zeros((params.replicas, model.n), dtype=np.int64)
    jmat = np.asarray(model.coupling_matrix().todense())
    trace = []
    for t in range(params.steps):
        q, i0, nr = q_value_at(params, t), i0_at(params, t), n_rnd_at(params, t)
        noise = rng.next_bipolar(model.n).T
        new_sigma = np.empty_like(sigma)
        new_is = np.empty_like(is_acc)
        for k in range(params.replicas):
            up = (k + 1) % params.replicas
            for i in range(model.n):
                field = sum(int(jmat[i, j]) * int(sigma[k, j]) for j in range(model.n))
                coup = q * int(prev[up, i])
                if not params.periodic_replicas and k == params.replicas - 1:
                    coup = 0
                raw = int(is_acc[k, i]) + int(model.h[i]) + field + nr * int(noise[k, i]) + coup
                if raw >= i0:
                    raw = i0 - params.alpha
                elif raw < -i0:
                    raw = -i0
                new_is[k, i] = raw
                new_sigma[k, i] = 1 if raw >= 0 else -1
        prev, sigma, is_acc = sigma, new_sigma, new_is
        trace.append((sigma.copy(), is_acc.copy()))
    return trace


@pytest.mark.parametrize("seed,periodic", [(3, True), (4, True), (5, False)])
def test_engine_matches_naive_oracle(seed, periodic):
    rng = np.random.default_rng(seed)
    model = random_model(rng, 6)
    params = AnnealParams(steps=50, replicas=3, seed=seed,
                          q=QSchedule(0, 4, 5, 1.0),
                          i0=LinearSchedule(4, 12), n_rnd=LinearSchedule.constant(2),
                          periodic_replicas=periodic)
    result = run_ssqa(model, params, record_trace=True)
    expected = naive_trace(model, params)
    assert len(result.trace) == len(expected) == 50
    for (sig_a, is_a), (sig_b, is_b) in zip(result.trace, expected):
        assert np.array_equal(sig_a, sig_b)
        assert np.array_equal(is_a, is_b)


# h != 0 (random_model draws a bias per spin) with the i0 ramp "3:9": the
# bias rides in the noise blocks, and the -i0 plane is refilled as i0 rises.
@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
def test_engines_match_naive_oracle_with_bias_and_i0_ramp(alpha):
    from ssqa.bench import parse_ramp
    from ssqa.hwsim import run_hw

    model = random_model(np.random.default_rng(20 + alpha), 7, p=0.5)
    assert model.h.any()
    params = AnnealParams(steps=40, replicas=3, seed=alpha + 1, alpha=alpha,
                          q=QSchedule(0, 3, 4, 0.7), i0=parse_ramp("3:9"),
                          n_rnd=LinearSchedule(3, 0))
    assert sorted(set(schedule_table(params)[0].tolist())) == list(range(3, 10))
    expected = naive_trace(model, params)
    runs = [run_ssqa(model, params, record_trace=True).trace]
    runs += [run_hw(model, params, kind, record_trace=True)[0].trace
             for kind in ("dual_bram", "shift_register")]
    for trace in runs:
        assert len(trace) == len(expected) == 40
        for (sig_a, is_a), (sig_b, is_b) in zip(trace, expected):
            assert np.array_equal(sig_a, sig_b) and np.array_equal(is_a, is_b)


@pytest.mark.parametrize("engine", ["run_ssqa", "run_ssa", "dual_bram", "shift_register"])
def test_schedule_calls_do_not_grow_with_steps(engine, monkeypatch):
    """Steps read the per-run schedule table: a run makes as many scalar
    schedule calls at 500 steps as at 10."""
    from ssqa import hwsim, solver

    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for owner in (solver, hwsim):
        for name in ("i0_at", "n_rnd_at", "q_value_at"):
            monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
    model = random_model(np.random.default_rng(8), 8)
    counts = []
    for steps in (10, 500):
        params = AnnealParams(steps=steps, replicas=3, seed=2, i0=LinearSchedule(3, 9))
        calls.clear()
        if engine == "run_ssqa":
            run_ssqa(model, params)
        elif engine == "run_ssa":
            run_ssa(model, params)
        else:
            hwsim.run_hw(model, params, engine)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


# Each weight width with an i0 ramp on its scale lands on its own step dtype.
@pytest.mark.parametrize("weight_bits,i0,n_rnd,dtype", [
    (4, LinearSchedule(4, 8), 2, np.int8),
    (8, LinearSchedule(200, 600), 50, np.int16),
    (12, LinearSchedule(3000, 5000), 800, np.int32),
])
def test_engines_match_naive_oracle_at_each_step_dtype(weight_bits, i0, n_rnd, dtype):
    """Both engines on a periodic and an open replica chain."""
    from ssqa.hwsim import run_hw

    model = random_model(np.random.default_rng(weight_bits), 6, p=0.6, weight_bits=weight_bits)
    for periodic in (True, False):
        params = AnnealParams(steps=40, replicas=3, seed=weight_bits, q=QSchedule(0, 4, 5, 1.0),
                              i0=i0, n_rnd=LinearSchedule.constant(n_rnd),
                              periodic_replicas=periodic)
        assert _step_dtype(model, params, model.coupling_matrix()) == dtype
        expected = naive_trace(model, params)
        runs = [run_ssqa(model, params, record_trace=True).trace]
        runs += [run_hw(model, params, kind, record_trace=True)[0].trace
                 for kind in ("dual_bram", "shift_register")]
        for trace in runs:
            assert len(trace) == len(expected) == 40
            for (sig_a, is_a), (sig_b, is_b) in zip(trace, expected):
                assert sig_a.dtype == is_a.dtype == np.int64
                assert np.array_equal(sig_a, sig_b) and np.array_equal(is_a, is_b)


def test_step_dtype_is_sized_from_widths():
    g11 = maxcut_to_ising(load_instance("G11"))
    g14 = maxcut_to_ising(load_instance("G14"))

    def dtype(model, **kw):
        return _step_dtype(model, AnnealParams(**kw), model.coupling_matrix())

    assert dtype(g11) == np.int8  # 2 * (5 * 8 + 6 + 2 + 5) = 106
    assert dtype(g14) == np.int16  # 2 * (133 * 8 + 6 + 2 + 5) = 2154
    assert dtype(g11, i0=LinearSchedule.constant(2**40)) == np.int64
    # Twice the bound crosses 127 between i0 = 15 (bound 63) and i0 = 16 (bound 64).
    assert dtype(g11, i0=LinearSchedule.constant(15)) == np.int8
    assert dtype(g11, i0=LinearSchedule.constant(16)) == np.int16


def test_accumulator_bound_covers_a_large_alpha():
    """With alpha > 2 i0, a saturated Is = i0 - alpha lies below -i0."""
    from ssqa.hwsim import run_hw

    graph = load_instance("G11")
    model = maxcut_to_ising(graph)
    assert accumulator_bound(model, AnnealParams()) == 17
    assert accumulator_bound(maxcut_to_ising(load_instance("G14")), AnnealParams()) == 145
    params = AnnealParams(steps=50, replicas=4, seed=1, alpha=30)
    assert accumulator_bound(model, params) == 12 + 25
    hw, _ = run_hw(model, params, graph=graph, record_trace=True)
    ref = run_ssqa(model, params, graph, record_trace=True)
    assert min(int(acc.min()) for _, acc in ref.trace) == 5 - 30
    assert hw.best_value == ref.best_value
    assert all(np.array_equal(a, b) for x, y in zip(hw.trace, ref.trace) for a, b in zip(x, y))


# --------------------------------------------------------------- invariants

def test_saturation_and_sign_invariants():
    rng = np.random.default_rng(7)
    model = random_model(rng, 10)
    params = AnnealParams(steps=80, replicas=4, seed=9, i0=LinearSchedule(4, 24),
                          n_rnd=LinearSchedule.constant(2))
    result = run_ssqa(model, params, record_trace=True)
    for t, (sigma, is_acc) in enumerate(result.trace):
        i0 = i0_at(params, t)
        assert (is_acc >= -i0).all() and (is_acc <= i0 - params.alpha).all()
        assert np.array_equal(sigma, np.where(is_acc >= 0, 1, -1))
        assert set(np.unique(sigma)) <= {-1, 1}


@settings(max_examples=300, deadline=None)
@given(raw=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                      elements=st.integers(-40, 40)),
       i0=st.integers(-12, 12), alpha=st.integers(0, 3),
       dtype=st.sampled_from(["int8", "int16", "int32", "int64"]))
# With i0 < 0 or alpha >= 2 the rule is not np.clip(raw, -i0, i0 - alpha).
@example(raw=np.array([[-5, -3, 0, 3, 5]]), i0=-3, alpha=0, dtype="int64")
@example(raw=np.array([[-5, -3, 0, 3, 5]]), i0=-3, alpha=0, dtype="int8")
def test_saturate_and_sign_matches_three_branch_rule(raw, i0, alpha, dtype):
    """The branch-free in-place update equals the nested np.where rule bit
    for bit, at every integer step dtype. The elements stay in int8 range."""
    raw = raw.astype(dtype)
    top = i0 - alpha
    expect = np.where(raw >= i0, top, np.where(raw < -i0, -i0, raw)).astype(raw.dtype)
    got, sigma = raw.copy(), np.empty_like(raw)
    _saturate_and_sign(got, i0, top, np.full_like(raw, -i0), sigma)
    assert got.tobytes() == expect.tobytes()
    assert np.array_equal(sigma, np.where(expect >= 0, 1, -1))


@st.composite
def coupling_cases(draw):
    """(raw, prev, q, periodic) of one coupling add."""
    dtype = draw(st.sampled_from(["int8", "int16", "int64"]))
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 24)))
    raw = draw(hnp.arrays(dtype, shape, elements=st.integers(-60, 60)))
    prev = draw(hnp.arrays(dtype, shape, elements=st.sampled_from([-1, 1])))
    return raw, prev, draw(st.sampled_from([0, 1, -1, 2])), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=coupling_cases())
def test_add_coupling_matches_two_slice_rule(case):
    """The one-pass neighbour plane adds, byte for byte, what the two slice
    adds over the replica axis add, for open and periodic chains."""
    raw, prev, q, periodic = case
    expect = raw.copy()
    expect[:, :-1] += q * prev[:, 1:]
    if periodic:
        expect[:, -1] += q * prev[:, 0]
    _add_coupling(raw, prev, q, periodic)
    assert raw.dtype == expect.dtype and raw.tobytes() == expect.tobytes()


@pytest.mark.parametrize("replicas", [1, 20])
def test_noise_planes_are_c_order_planes(replicas):
    """Every plane of a step is C-ordered: an elementwise pass that mixes a
    C- and an F-ordered plane is strided."""
    for dtype in (np.int8, np.int16):
        n_rnd = schedule_table(AnnealParams(steps=7, replicas=replicas))[1]
        bias = np.zeros((800, replicas), dtype)
        for noise in _noise_planes(RngStreams(1, replicas), n_rnd, bias):
            assert noise.shape == (800, replicas) and noise.dtype == dtype
            assert noise.flags.c_contiguous


def steps_per_block(n):
    return max(1, _NOISE_BLOCK // n)


# Step counts around the block size K: none, one, a block short of its last
# step, one whole block, and one or several blocks with a short last block.
STEP_COUNTS = (lambda k: 0, lambda k: 1, lambda k: k - 1, lambda k: k, lambda k: k + 1,
               lambda k: 2 * k + 3)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 7, 800, _NOISE_BLOCK + 5]), steps=st.sampled_from(STEP_COUNTS),
       replicas=st.sampled_from([1, 3, 20]), dtype=st.sampled_from([np.int8, np.int16]),
       seed=st.integers(0, 2**32), n_rnd=st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
       biased=st.booleans())
@example(n=_NOISE_BLOCK + 5, steps=STEP_COUNTS[-1], replicas=20, dtype=np.int16, seed=1,
         n_rnd=(6, 0), biased=False)
@example(n=7, steps=STEP_COUNTS[-1], replicas=3, dtype=np.int8, seed=1, n_rnd=(6, 0),
         biased=True)
def test_noise_planes_equal_step_by_step_draws(n, steps, replicas, dtype, seed, n_rnd, biased):
    """Each plane is n_rnd(t) times the +-1 bits of a twin stream drawing
    one step at a time, plus the bias plane when there is one, in the step
    dtype; planes are C-ordered, writable and disjoint, and both streams end
    in one state."""
    params = AnnealParams(steps=steps(steps_per_block(n)), replicas=replicas, seed=seed,
                          n_rnd=LinearSchedule(*n_rnd))
    bias = np.zeros((n, replicas), dtype)
    if biased:
        bias[:] = np.random.default_rng(seed).integers(-8, 8, size=bias.shape)
    blocks, twin = RngStreams(seed, replicas), RngStreams(seed, replicas)
    planes = list(_noise_planes(blocks, schedule_table(params)[1], bias))
    assert len(planes) == params.steps
    for t, plane in enumerate(planes):
        expect = (n_rnd_at(params, t) * twin.next_bipolar(n) + bias).astype(dtype)
        assert plane.dtype == dtype and plane.shape == (n, replicas)
        assert plane.tobytes() == expect.tobytes()
        assert plane.flags.c_contiguous and plane.flags.writeable
    # Disjoint: sorted by address, each plane ends before the next begins.
    spans = sorted((p.__array_interface__["data"][0], p.nbytes) for p in planes)
    assert all(start + size <= nxt for (start, size), (nxt, _) in zip(spans, spans[1:]))
    assert not any(np.shares_memory(a, b) for a, b in zip(planes, planes[1:]))
    assert np.array_equal(blocks.states, twin.states)


@pytest.mark.parametrize("engine", ["run_ssqa", "run_ssa", "dual_bram", "shift_register"])
def test_runs_draw_one_word_per_spin_update(engine, monkeypatch):
    """A run draws R N (steps + 1) words, the start plane and each step's
    noise, whatever the block size: no step overdraws its streams."""
    from ssqa.hwsim import run_hw

    words, next_block = [], RngStreams.next_block

    def spy(self, n, low_bit=False):
        words.append(self.n_streams * n)
        return next_block(self, n, low_bit)

    monkeypatch.setattr(RngStreams, "next_block", spy)
    graph = load_instance("G11")
    model = maxcut_to_ising(graph)
    for steps in (0, 1, steps_per_block(model.n) + 1):
        params = AnnealParams(steps=steps, replicas=3, seed=4)
        words.clear()
        if engine == "run_ssqa":
            run_ssqa(model, params, graph)
        elif engine == "run_ssa":
            run_ssa(model, params, graph)
            params = params.with_(replicas=1)
        else:
            run_hw(model, params, engine, graph)
        assert sum(words) == params.replicas * model.n * (steps + 1)


def test_initial_state_properties():
    """The start plane is spin-major and C-ordered in the step dtype, and
    the same draw at every dtype."""
    model = random_model(np.random.default_rng(0), 8)
    planes = [initial_state(model, RngStreams(2, 5), dtype)
              for dtype in (np.int8, np.int16, np.float64)]
    for plane, dtype in zip(planes, (np.int8, np.int16, np.float64)):
        assert plane.shape == (8, 5) and plane.dtype == dtype
        assert plane.flags.c_contiguous
        assert set(np.unique(plane)) <= {-1, 1}
        assert np.array_equal(plane, planes[0])


# ------------------------------------------------------------- equivalences

def test_ssa_is_single_replica_zero_q():
    model = random_model(np.random.default_rng(1), 8)
    params = AnnealParams(steps=60, replicas=20, seed=5)
    a = run_ssa(model, params, record_trace=True)
    b = run_ssqa(model, params.with_(replicas=1, q=QSchedule(0, 0, 1, 0)),
                 record_trace=True)
    assert a.best_value == b.best_value
    for (sa, ia), (sb, ib) in zip(a.trace, b.trace):
        assert np.array_equal(sa, sb) and np.array_equal(ia, ib)


def test_zero_q_replicas_decouple():
    """With q = 0, replica k's trajectory is independent of the replica count."""
    model = random_model(np.random.default_rng(2), 8)
    zero_q = QSchedule(0, 0, 1, 0)
    small = run_ssqa(model, AnnealParams(steps=40, replicas=2, q=zero_q, seed=3),
                     record_trace=True)
    large = run_ssqa(model, AnnealParams(steps=40, replicas=6, q=zero_q, seed=3),
                     record_trace=True)
    for (sa, _), (sb, _) in zip(small.trace, large.trace):
        assert np.array_equal(sa, sb[:2])


def test_identically_seeded_streams_give_identical_replicas():
    """With q = 0 and every replica stream forced to the same state, all
    replica trajectories coincide exactly."""
    model = random_model(np.random.default_rng(6), 8)
    params = AnnealParams(steps=30, replicas=4, q=QSchedule(0, 0, 1, 0), seed=1)
    rng = RngStreams(1, 4)
    rng.states[:] = rng.states[0]  # collapse to one shared stream state
    start = initial_state(model, rng, np.int64).T
    steps = list(hand_steps(model, params, rng, sigma=start, is_acc=np.zeros_like(start)))
    assert len(steps) == 30
    for sigma, is_acc in steps:
        assert all(np.array_equal(sigma[0], sigma[k]) for k in range(4))
        assert all(np.array_equal(is_acc[0], is_acc[k]) for k in range(4))


def test_ssa_finds_small_optimum_majority_of_seeds():
    """10-node graph with a known exhaustive optimum: the single-network
    engine at a long step budget solves it on most seeds."""
    import itertools

    rng = np.random.default_rng(12)
    graph_edges = []
    for i, j in itertools.combinations(range(10), 2):
        if rng.random() < 0.4:
            graph_edges.append((i, j, int(rng.choice([-1, 1]))))
    graph = WeightedGraph(10, tuple(graph_edges))
    model = maxcut_to_ising(graph)
    optimum = max(
        __import__("ssqa.ising", fromlist=["cut_value"]).cut_value(graph, np.array(bits))
        for bits in itertools.product((-1, 1), repeat=10)
    )
    hits = sum(
        run_ssa(model, AnnealParams(steps=3000, seed=s), graph).best_value == optimum
        for s in range(1, 8)
    )
    assert hits >= 4  # majority of 7 seeds


def test_determinism_and_seed_sensitivity():
    graph = WeightedGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    model = maxcut_to_ising(graph)
    params = AnnealParams(steps=50, replicas=4, seed=11)
    a = run_ssqa(model, params, graph, record_trace=True)
    b = run_ssqa(model, params, graph, record_trace=True)
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_state, b.best_state)
    assert all(np.array_equal(x[0], y[0]) for x, y in zip(a.trace, b.trace))
    c = run_ssqa(model, params.with_(seed=12), graph, record_trace=True)
    assert any(not np.array_equal(x[0], y[0]) for x, y in zip(a.trace, c.trace))


# ------------------------------------------------------------ result plumbing

def test_select_best_replica_tie_breaks_low_index():
    assert select_best_replica([3, 7, 7, 1]) == (1, 7)
    assert select_best_replica([5]) == (0, 5)
    with pytest.raises(ValueError):
        select_best_replica([])


def test_cut_objective_selects_best_replica():
    graph = WeightedGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    model = maxcut_to_ising(graph)
    result = run_ssqa(model, AnnealParams(steps=100, replicas=8, seed=1), graph)
    assert result.objective == "cut"
    assert result.best_value == max(result.per_replica_final)
    assert result.best_value == 4  # trivial square instance is solved
    from ssqa.ising import cut_value
    assert cut_value(graph, result.best_state) == result.best_value


def test_energy_objective_without_graph():
    model = random_model(np.random.default_rng(4), 6)
    result = run_ssqa(model, AnnealParams(steps=100, replicas=4, seed=1))
    assert result.objective == "energy"
    from ssqa.ising import energy
    assert energy(model, result.best_state) == result.best_value
    assert result.best_value == min(result.per_replica_final)


def test_trajectory_recording():
    """The per-step minimum energy comes from record_trace's planes."""
    model = random_model(np.random.default_rng(5), 6)
    result = run_ssqa(model, AnnealParams(steps=30, replicas=2, seed=1), record_trace=True)
    trajectory = [min(replica_energies(model, s.T)).item() for s, _ in result.trace]
    assert len(trajectory) == 30
    assert all(isinstance(v, int) for v in trajectory)


def test_psa_saturation_and_symmetry():
    # Huge bias: tanh saturates, spin pinned to +1 on every step.
    model = IsingModel(1, np.array([7]), (), weight_bits=4)
    params = AnnealParams(steps=200, replicas=1, seed=3,
                          i0=LinearSchedule.constant(10.0))
    result = run_psa(model, params, collect_spin_mean=True)
    assert result.spin_mean[0, 0] == 1.0
    # No bias, no couplings: +1 with empirical probability 0.5 +- 0.02.
    model0 = IsingModel(1, np.zeros(1, dtype=np.int64), ())
    params0 = params.with_(steps=10_000)
    result0 = run_psa(model0, params0, collect_spin_mean=True)
    assert abs(result0.spin_mean[0, 0]) < 0.04  # mean in [-1,1]; p(+1) in 0.5 +- 0.02


def test_psa_solves_square():
    graph = WeightedGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    model = maxcut_to_ising(graph)
    params = AnnealParams(steps=200, replicas=8, seed=2,
                          i0=LinearSchedule(0.2, 4.0))
    result = run_psa(model, params, graph)
    assert result.best_value == 4


def test_best_state_is_int8_and_scores_like_int64():
    from ssqa.hwsim import run_hw
    from ssqa.ising import cut_value, energy

    rng = np.random.default_rng(8)
    edges = [(u, v) for u in range(7) for v in range(u + 1, 7) if rng.random() < 0.6]
    graph = WeightedGraph(7, tuple((u, v, int(rng.choice([-1, 1]))) for u, v in edges))
    model = maxcut_to_ising(graph)
    params = AnnealParams(steps=60, replicas=3, seed=4)
    results = [run_ssqa(model, params, graph), run_ssa(model, params, graph),
               run_hw(model, params, graph=graph)[0],
               run_psa(model, params.with_(i0=LinearSchedule(0.2, 4.0)), graph)]
    for result in results:
        state = result.best_state
        assert state.dtype == np.int8 and set(np.unique(state)) <= {-1, 1}
        wide = state.astype(np.int64)
        assert cut_value(graph, state) == cut_value(graph, wide) == result.best_value
        assert energy(model, state) == energy(model, wide)
