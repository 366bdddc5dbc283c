"""Tests for the reference engines: golden traces, invariants, equivalences."""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse import _sparsetools

from ssqa.gset import load_instance
from ssqa.ising import IsingModel, WeightedGraph, maxcut_to_ising, replica_energies
from ssqa.rng import RngStreams
from ssqa.schedules import (AnnealParams, LinearSchedule, QSchedule, i0_at, n_rnd_at, q_value_at,
                            schedule_table)
from ssqa.solver import (
    _NOISE_BLOCK,
    _NOISE_LANES,
    _add_coupling,
    _check_field_planes,
    _step,
    _step_constants,
    _step_dtype,
    _step_inputs,
    _two_planes,
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
    """Step the engines' kernel, _step, in the run's step dtype from hand-set
    replica-major (R, N) planes, with the t-1 plane a copy of the t plane as
    at the start of a run and the planes checked once as the engines check
    theirs (_step_constants), over the engines' per-step inputs (h rides
    with the noise). Yields replica-major (sigma, Is) after each of
    params.steps steps."""
    dtype = _step_dtype(model, params)
    sigma = np.array(np.transpose(sigma), dtype=dtype, order="C")
    is_acc = np.array(np.transpose(is_acc), dtype=dtype, order="C")
    sigma_prev = sigma.copy()
    run = _step_constants(model, sigma, is_acc)
    for raw, q, floor, ceil in _step_inputs(params, rng, model.h, dtype):
        _step(run, sigma, sigma_prev, raw, is_acc, q, floor, ceil, sigma_prev)
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
    integrates h until it saturates at I0 - 1."""
    model = IsingModel(1, np.array([2]), ())
    params = noiseless_params(replicas=1, q=QSchedule(0, 0, 1, 0))
    rng = RngStreams(1, 1)
    sigma, is_acc = next(hand_steps(model, params, rng, sigma=[[1]], is_acc=[[0]]))
    assert is_acc.tolist() == [[2]] and sigma.tolist() == [[1]]
    # From Is=3, raw = 3 + 2 = 5 >= I0=4 -> saturate at I0 - 1 = 3.
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
    RNG consumption (one word per spin per replica per step, spin-major),
    and couples replica k to replica (k + 1) mod R, a ring.
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
                raw = int(is_acc[k, i]) + int(model.h[i]) + field + nr * int(noise[k, i]) + coup
                if raw >= i0:
                    raw = i0 - 1
                elif raw < -i0:
                    raw = -i0
                new_is[k, i] = raw
                new_sigma[k, i] = 1 if raw >= 0 else -1
        prev, sigma, is_acc = sigma, new_sigma, new_is
        trace.append((sigma.copy(), is_acc.copy()))
    return trace


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_engine_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    model = random_model(rng, 6)
    params = AnnealParams(steps=50, replicas=3, seed=seed,
                          q=QSchedule(0, 4, 5, 1.0),
                          i0=LinearSchedule(4, 12), n_rnd=LinearSchedule.constant(2))
    result = run_ssqa(model, params, record_trace=True)
    expected = naive_trace(model, params)
    assert len(result.trace) == len(expected) == 50
    for (sig_a, is_a), (sig_b, is_b) in zip(result.trace, expected):
        assert np.array_equal(sig_a, sig_b)
        assert np.array_equal(is_a, is_b)


# h != 0 (random_model draws a bias per spin) with the i0 ramp "3:9": the
# bias rides in the noise blocks, and the -i0 plane is refilled as i0 rises.
@pytest.mark.parametrize("case", [0, 1, 2, 3])
def test_engines_match_naive_oracle_with_bias_and_i0_ramp(case):
    from ssqa.bench import parse_ramp
    from ssqa.hwsim import run_hw

    model = random_model(np.random.default_rng(20 + case), 7, p=0.5)
    assert model.h.any()
    params = AnnealParams(steps=40, replicas=3, seed=case + 1,
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
    """Both engines on the replica ring."""
    from ssqa.hwsim import run_hw

    model = random_model(np.random.default_rng(weight_bits), 6, p=0.6, weight_bits=weight_bits)
    params = AnnealParams(steps=40, replicas=3, seed=weight_bits, q=QSchedule(0, 4, 5, 1.0),
                          i0=i0, n_rnd=LinearSchedule.constant(n_rnd))
    assert _step_dtype(model, params) == dtype
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
        return _step_dtype(model, AnnealParams(**kw))

    assert dtype(g11) == np.int8  # 2 * (5 * 8 + 6 + 2 + 5) = 106
    assert dtype(g14) == np.int16  # 2 * (133 * 8 + 6 + 2 + 5) = 2154
    assert dtype(g11, i0=LinearSchedule.constant(2**40)) == np.int64
    # Twice the bound crosses 127 between i0 = 15 (bound 63) and i0 = 16 (bound 64).
    assert dtype(g11, i0=LinearSchedule.constant(15)) == np.int8
    assert dtype(g11, i0=LinearSchedule.constant(16)) == np.int16
    # The bound run_hw checks each sum against: 12 + 5 and 140 + 5.
    assert accumulator_bound(g11, AnnealParams()) == 17
    assert accumulator_bound(g14, AnnealParams()) == 145


# --------------------------------------------------------------- invariants

def test_saturation_and_sign_invariants():
    rng = np.random.default_rng(7)
    model = random_model(rng, 10)
    params = AnnealParams(steps=80, replicas=4, seed=9, i0=LinearSchedule(4, 24),
                          n_rnd=LinearSchedule.constant(2))
    result = run_ssqa(model, params, record_trace=True)
    for t, (sigma, is_acc) in enumerate(result.trace):
        i0 = i0_at(params, t)
        assert (is_acc >= -i0).all() and (is_acc <= i0 - 1).all()
        assert np.array_equal(sigma, np.where(is_acc >= 0, 1, -1))
        assert set(np.unique(sigma)) <= {-1, 1}


@settings(max_examples=300, deadline=None)
@given(raw=hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                      elements=st.integers(-40, 40)),
       i0=st.integers(1, 12), dtype=st.sampled_from(["int8", "int16", "int32", "int64"]))
# The narrowest clamp, [-1, 0], at the narrowest and widest dtype.
@example(raw=np.array([[-5, -3, -1, 0, 1, 3, 5]]), i0=1, dtype="int8")
@example(raw=np.array([[-5, -3, -1, 0, 1, 3, 5]]), i0=1, dtype="int64")
# A clamped plane that holds 0, whose spin is +1, at every dtype.
@example(raw=np.array([[-9, 0], [0, 9]]), i0=4, dtype="int8")
@example(raw=np.array([[-9, 0], [0, 9]]), i0=4, dtype="int16")
@example(raw=np.array([[-9, 0], [0, 9]]), i0=4, dtype="int32")
@example(raw=np.array([[-9, 0], [0, 9]]), i0=4, dtype="int64")
def test_saturate_and_sign_matches_three_branch_rule(raw, i0, dtype):
    """The clip and the sign of _step equal the nested np.where rule bit for
    bit, at every integer step dtype, against 0-d -i0 and i0 - 1 bounds of
    the step dtype, as _step_inputs yields them: a step with no couplings,
    q = 0 and a zero accumulator saturates its noise plane. The elements
    stay in int8 range."""
    raw = raw.astype(dtype)
    top = i0 - 1
    expect = np.where(raw >= i0, top, np.where(raw < -i0, -i0, raw)).astype(raw.dtype)
    got, sigma = raw.copy(), np.full_like(raw, 55)
    model = IsingModel(len(raw), np.zeros(len(raw), np.int64), ())
    zero, spins = np.zeros_like(raw), np.ones_like(raw)
    run = _step_constants(model, spins, zero)
    run[1][...] = 77  # the scratch plane's values are not read
    _step(run, spins, spins, got, zero, 0, np.array(-i0, raw.dtype), np.array(top, raw.dtype),
          sigma)
    assert got.tobytes() == expect.tobytes()
    assert np.array_equal(sigma, np.where(expect >= 0, 1, -1))
    assert sigma.dtype == raw.dtype and not (sigma == 0).any()


@st.composite
def coupling_cases(draw):
    """(raw, prev, q) of one coupling add; R = 1 is drawn too."""
    dtype = draw(st.sampled_from(["int8", "int16", "int64"]))
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 24)))
    raw = draw(hnp.arrays(dtype, shape, elements=st.integers(-60, 60)))
    prev = draw(hnp.arrays(dtype, shape, elements=st.sampled_from([-1, 1])))
    return raw, prev, draw(st.sampled_from([0, 1, -1, 2]))


@settings(max_examples=300, deadline=None)
@given(case=coupling_cases())
def test_add_coupling_matches_two_slice_rule(case):
    """The one-pass neighbour plane adds, byte for byte, what the two slice
    adds over the replica axis add on the ring, where the last replica
    couples to replica 0 (at R = 1, a replica to itself)."""
    raw, prev, q = case
    expect = raw.copy()
    expect[:, :-1] += q * prev[:, 1:]
    expect[:, -1] += q * prev[:, 0]
    _add_coupling(raw, prev, q, np.full_like(raw, 77))
    assert raw.dtype == expect.dtype and raw.tobytes() == expect.tobytes()


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
@pytest.mark.parametrize("replicas", [1, 5])
def test_accumulate_matches_edge_loop_at_every_step_dtype(dtype, replicas):
    """_step adds J sigma through the scipy kernel that _step_constants
    binds (a private module): by diagonals at R = 1 on this model, whose
    diagonals hold twice its stored couplings, and the multi-column CSR
    kernel above. At every step dtype, from a read-only sigma as run_hw's
    delay views are,
    with raw near a quarter of the dtype's range and an i0 that no sum
    reaches, the sum equals the edge loop's and the @ product's, so a scipy
    release that moves or changes the kernel fails here. A non-contiguous
    accumulator, which the kernel would write through a copy, and planes in
    another dtype, which it would sum in a narrower one, fail the engines'
    once-per-run check."""
    rng = np.random.default_rng(replicas)
    model = random_model(rng, 9, p=0.5)
    jmat = model.coupling_matrix(dtype)
    shape, big = (model.n, replicas), int(np.iinfo(dtype).max) // 4
    sigma = rng.choice(np.array([-1, 1], dtype), size=shape)
    sigma.flags.writeable = False
    prev = rng.choice(np.array([-1, 1], dtype), size=shape)
    raw = rng.integers(-big, big, size=shape, endpoint=True).astype(dtype)
    is_acc = rng.integers(-20, 20, size=shape, endpoint=True).astype(dtype)
    expect = raw.astype(np.int64) + is_acc + 2 * np.roll(prev, -1, axis=1)
    field = np.zeros(shape, np.int64)
    for i, j, w in model.couplings.tolist():
        field[i] += w * sigma[j].astype(np.int64)
        field[j] += w * sigma[i].astype(np.int64)
    assert np.array_equal(field, model.coupling_matrix() @ sigma.astype(np.int64))
    expect += field
    i0 = int(np.iinfo(dtype).max)
    assert np.abs(expect).max() < i0
    run = _step_constants(model, sigma, raw)
    out = np.empty_like(raw)
    _step(run, sigma, prev, raw, is_acc, 2, np.array(-i0, dtype), np.array(i0, dtype), out)
    assert raw.dtype == dtype and raw.tobytes() == expect.astype(dtype).tobytes()
    assert np.array_equal(out, np.where(expect >= 0, 1, -1))
    strided = np.zeros((model.n, 2 * replicas), dtype)[:, ::2]
    other = np.int32 if dtype == np.int64 else np.int64
    for bad_raw, bad_sigma in ((strided, sigma), (raw.astype(other), sigma),
                               (raw, sigma.astype(other)), (raw[1:], sigma[1:])):
        for operands in (jmat, model.coupling_diagonals(dtype)):
            with pytest.raises(ValueError, match="C-ordered"):
                _check_field_planes(operands, bad_sigma, bad_raw)
    # Diagonals the DIA kernel would read out of bounds or in another width.
    offsets, data = model.coupling_diagonals(dtype)
    for bad in ((offsets.astype(np.int64), data), (offsets, data[:, 1:]),
                (offsets, data[1:]), (offsets, data.astype(other)),
                (offsets, np.asfortranarray(data))):
        with pytest.raises(ValueError, match="C-ordered"):
            _check_field_planes(bad, sigma, raw)


@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
def test_clip_ufunc_saturates_at_every_step_dtype(dtype):
    """_step saturates through numpy's clip ufunc, numpy._core.umath.clip, a
    private name. In place on an (N, R) plane, against 0-d bounds of the
    step dtype, it equals a clamp into [-i0, i0 - 1] at every step dtype,
    with raw at the dtype's extremes, around both bounds and at i0 = 1 and
    the dtype's largest i0, and keeps raw's dtype. So a numpy release that
    moves or changes the ufunc fails here."""
    from ssqa.solver import _clip

    assert isinstance(_clip, np.ufunc)
    info = np.iinfo(dtype)
    for i0 in (1, 5, int(info.max)):
        lo, hi = -i0, i0 - 1
        values = [info.min, info.min + 1, lo - 1, lo, lo + 1, -1, 0, 1, hi - 1, hi, i0,
                  info.max - 1, info.max]
        raw = np.tile(np.array(values, dtype)[:, None], (1, 3))
        expect = np.minimum(np.maximum(raw.astype(object), lo), hi).astype(dtype)
        _clip(raw, np.array(lo, dtype), np.array(hi, dtype), out=raw)
        assert raw.dtype == dtype and raw.tobytes() == expect.tobytes()


def torus_model(rows, cols, weights):
    """A rows x cols toroidal grid, node r cols + c, with the given weights
    on its 2 rows cols edges (right, then down)."""
    pairs = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            pairs += [(node, r * cols + (c + 1) % cols), (node, ((r + 1) % rows) * cols + c)]
    couplings = [(min(a, b), max(a, b), int(w)) for (a, b), w in zip(pairs, weights)]
    return IsingModel(rows * cols, np.zeros(rows * cols, np.int64), couplings)


def padded_model(n, pad):
    """Full diagonals n - 1 (one coupling) and n - 2 (two) and one coupling
    at offset n - pad: its diagonals hold 2 (3 + pad) entries against 8
    stored couplings, so pad 4 is below twice the couplings, 5 at it and 6
    above."""
    couplings = ((0, n - 1, 1), (0, n - 2, -1), (1, n - 1, 2), (0, n - pad, -3))
    return IsingModel(n, np.zeros(n, np.int64), couplings)


@st.composite
def diagonal_cases(draw):
    """(model, dtype): a torus, a K_n, no couplings, a padded model near
    twice its couplings, or a sparse random model. At int8 the weights are
    small (at most 2 in magnitude), so a row's |J| sum fits the dtype with
    room for raw."""
    dtype = draw(st.sampled_from([np.int8, np.int16, np.int32, np.int64]))
    lim = 1 if dtype == np.int8 else 7
    weight = st.integers(-lim, lim)
    kind = draw(st.sampled_from(["torus", "complete", "empty", "padded", "random"]))
    if kind == "torus":
        rows, cols = draw(st.integers(3, 6)), draw(st.integers(3, 6))
        model = torus_model(rows, cols, draw(st.lists(weight, min_size=2 * rows * cols,
                                                      max_size=2 * rows * cols)))
    elif kind == "complete":
        n = draw(st.integers(2, 40))
        pairs = list(zip(*np.triu_indices(n, 1)))
        ws = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
        model = IsingModel(n, np.zeros(n, np.int64),
                           [(int(i), int(j), w) for (i, j), w in zip(pairs, ws)])
    elif kind == "empty":
        n = draw(st.integers(1, 30))
        model = IsingModel(n, np.zeros(n, np.int64), ())
    elif kind == "padded":
        model = padded_model(draw(st.integers(7, 40)), draw(st.sampled_from([4, 5, 6])))
    else:
        n = draw(st.integers(2, 40))
        seed = draw(st.integers(0, 2**32 - 1))
        model = random_model(np.random.default_rng(seed), n, p=0.15, weight_bits=2 + 2 * (
            dtype != np.int8))
    return model, dtype


def _complete_model(n, seed):
    """A +-1 K_n from default_rng(seed), pairs in triu_indices order."""
    weights = np.random.default_rng(seed).choice([-1, 1], size=n * (n - 1) // 2)
    return IsingModel(n, np.zeros(n, np.int64),
                      [(int(i), int(j), int(w))
                       for i, j, w in zip(*np.triu_indices(n, 1), weights)])


@settings(max_examples=200, deadline=None)
@given(case=diagonal_cases(), seed=st.integers(0, 2**32 - 1))
@example(case=(torus_model(4, 5, [1, -1] * 20), np.int8), seed=1)
@example(case=(_complete_model(40, 2), np.int8), seed=2)
@example(case=(_complete_model(40, 3), np.int16), seed=3)
@example(case=(IsingModel(9, np.zeros(9, np.int64), ()), np.int8), seed=4)
@example(case=(padded_model(20, 4), np.int8), seed=5)
@example(case=(padded_model(20, 5), np.int32), seed=6)
@example(case=(padded_model(20, 6), np.int64), seed=7)
def test_diagonal_product_matches_edge_loop_and_csr_kernel(case, seed):
    """scipy's dia_matvec over the model's cached diagonals, from a
    read-only sigma, adds into raw what the edge loop and the CSR kernel
    add, byte for byte, at every step dtype, with raw as far from 0 as the
    row sums leave room for. The diagonals are int32 ascending offsets
    with their negatives, whose (n_diags, N) data is read-only, cached per
    dtype, and read entry [d, j] as J[j - offsets[d], j]."""
    model, dtype = case
    n, rng = model.n, np.random.default_rng(seed)
    offsets, data = model.coupling_diagonals(dtype)
    assert model.coupling_diagonals(dtype)[1] is data
    assert offsets is model.coupling_diagonals(np.int64)[0]
    assert offsets.dtype == np.int32 and data.dtype == dtype and data.shape == (len(offsets), n)
    assert not offsets.flags.writeable and not data.flags.writeable
    assert np.array_equal(offsets, -offsets[::-1]) and np.all(np.diff(offsets) > 0)
    dense = model.coupling_matrix().toarray()
    rows = np.arange(n)[None, :] - offsets[:, None]
    inside = (rows >= 0) & (rows < n)
    assert np.array_equal(data[inside], dense[rows[inside], np.nonzero(inside)[1]])
    assert not data[~inside].any()
    assert model.diagonal_entries() == int(inside.sum())
    sigma = rng.choice(np.array([-1, 1], dtype), size=(n, 1))
    sigma.flags.writeable = False
    room = int(np.iinfo(dtype).max) - int(np.abs(dense).sum(axis=1).max())
    assert room > 0
    raw = rng.integers(-room, room, size=(n, 1), endpoint=True).astype(dtype)
    expect = raw.astype(np.int64)
    for i, j, w in model.couplings.tolist():
        expect[i] += w * int(sigma[j, 0])
        expect[j] += w * int(sigma[i, 0])
    by_diagonals, by_rows = raw.copy(), raw.copy()
    _check_field_planes((offsets, data), sigma, by_diagonals)
    _sparsetools.dia_matvec(n, n, len(offsets), n, offsets, data, sigma, by_diagonals)
    jmat = model.coupling_matrix(dtype)
    _sparsetools.csr_matvec(n, n, jmat.indptr, jmat.indices, jmat.data, sigma, by_rows)
    assert by_diagonals.tobytes() == by_rows.tobytes() == expect.astype(dtype).tobytes()


def test_field_product_kernel_is_chosen_by_replicas_and_padding():
    """_step_constants binds dia_matvec at R = 1 when J's diagonals hold at
    most twice the CSR's stored couplings: on G11's torus (4,784 entries
    against 3,200), on a K_n (equal) and on a model with no couplings. G14
    (1,528 diagonals, 634,998 entries against 9,388), a sparse random
    graph, a model just past twice its couplings and every model at R > 1
    take the CSR kernels. The diagonals are built only for a run that
    takes them."""
    g11 = maxcut_to_ising(load_instance("G11"))
    g14 = maxcut_to_ising(load_instance("G14"))
    assert (g11.diagonal_entries(), g11.coupling_matrix().nnz) == (4784, 3200)
    assert (g14.diagonal_entries(), g14.coupling_matrix().nnz) == (634998, 9388)
    assert len(g14._diagonal_offsets) == 1528
    complete = _complete_model(40, 4)
    sparse = random_model(np.random.default_rng(5), 200, p=0.03)
    empty = IsingModel(30, np.zeros(30, np.int64), ())
    by_diagonals = [g11, complete, empty, padded_model(30, 4), padded_model(30, 5)]
    by_rows = [g14, sparse, padded_model(30, 6)]
    for model in by_diagonals + by_rows:
        for replicas in (1, 2, 20):
            dtype = _step_dtype(model, AnnealParams(replicas=replicas))
            sigma = np.ones((model.n, replicas), dtype)
            kernel = _step_constants(model, sigma, np.zeros_like(sigma))[0].func
            if replicas > 1:
                assert kernel is _sparsetools.csr_matvecs
            elif model in by_diagonals:
                assert kernel is _sparsetools.dia_matvec
            else:
                assert kernel is _sparsetools.csr_matvec
        assert bool(model._diagonals_by_dtype) == (model in by_diagonals)


@pytest.mark.parametrize("replicas", [1, 20])
def test_step_inputs_are_c_order_planes(replicas):
    """Every plane of a step is C-ordered: an elementwise pass that mixes a
    C- and an F-ordered plane is strided, and the field kernels take whole
    planes as flat buffers. Both plane stores, run_ssqa's and the delay
    line of either kind, yield whole (N, R) planes of the step dtype, and
    the delay line's t plane is read-only. The saturation bounds are 0-d
    arrays of the step dtype."""
    from ssqa.hwsim import DELAY_KINDS, _DELAY_LINES, _delay_planes

    stores = [_two_planes] + [partial(_delay_planes, _DELAY_LINES[kind]) for kind in DELAY_KINDS]
    for dtype in (np.int8, np.int16):
        params = AnnealParams(steps=7, replicas=replicas)
        h = np.zeros(800, np.int64)
        planes = []
        for noise, _, floor, ceil in _step_inputs(params, RngStreams(1, replicas), h, dtype):
            planes.append(noise)
            assert floor.shape == ceil.shape == () and floor.dtype == ceil.dtype == dtype
        for store in stores:
            for now, prev, out in store(np.ones((800, replicas), dtype), 3):
                planes += (now, prev, out)
                assert out.flags.writeable
                if store is not _two_planes:
                    assert not now.flags.writeable
        for plane in planes:
            assert plane.shape == (800, replicas) and plane.dtype == dtype
            assert plane.flags.c_contiguous


def test_default_schedule_steps_take_the_two_clamps(monkeypatch):
    """At the defaults (i0 5), every step of run_ssqa at R = 20, run_ssa
    (R = 1) and run_hw on G11, and of run_hw on G14 over 40 steps, leaves
    its accumulator in [-5, 4], and each run reaches both ends: the steps
    take both clamps."""
    import ssqa.solver
    from ssqa.hwsim import run_hw

    step, ends = ssqa.solver._step, set()

    def spy(run, sigma, prev, raw, *args):
        step(run, sigma, prev, raw, *args)
        low, high = int(raw.min()), int(raw.max())
        assert -5 <= low and high <= 4
        ends.update({low, high} & {-5, 4})

    monkeypatch.setattr(ssqa.solver, "_step", spy)
    for name, steps in (("G11", 500), ("G14", 40)):
        graph = load_instance(name)
        model = maxcut_to_ising(graph)
        params = AnnealParams(steps=steps)
        engines = [partial(run_hw, model, params, graph=graph)]
        if name == "G11":
            engines += [partial(run_ssqa, model, params, graph),
                        partial(run_ssa, model, params, graph)]
        for engine in engines:
            ends.clear()
            engine()
            assert ends == {-5, 4}


# Ramps whose i0 rounds below 1 at the first step (0:4, -2:3) or at the
# last of 20 steps (1:0, where 1 - 19 / 20 rounds to 0).
@pytest.mark.parametrize("ramp,value,step", [("0:4", 0, 0), ("-2:3", -2, 0), ("1:0", 0, 19)])
def test_i0_below_one_is_rejected_before_any_step(ramp, value, step, monkeypatch, capsys):
    """The SSQA engines, RunConfig and a sweep-steps point reject an i0 that
    rounds below 1, naming the step and the value, before any step or
    trial; run_psa reads i0 as a gain and still runs at 0.3."""
    import ssqa.solver
    from ssqa import bench, cli
    from ssqa.bench import RunConfig, parse_ramp
    from ssqa.hwsim import run_hw

    def refuse(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(ssqa.solver, "_step", refuse)
    monkeypatch.setattr(bench, "run_one_trial", refuse)
    model = random_model(np.random.default_rng(1), 6)
    params = AnnealParams(steps=20, replicas=3, i0=parse_ramp(ramp))
    message = f"i0 rounds to {value} at step {step}"
    for engine in (run_ssqa, run_ssa, run_hw):
        with pytest.raises(ValueError, match=message):
            engine(model, params)
    for engine in ("ssqa_ref", "ssqa_hw", "ssa"):
        with pytest.raises(ValueError, match=message):
            RunConfig(engine=engine, steps=20, i0=ramp)
    # The base config's one step is valid under 1:0, whose 20-step point fails.
    code = cli.main(["sweep-steps", "--instance", "G11", "--steps", "1", f"--i0={ramp}",
                     "--steps-list", "1,20", "--trials", "1"])
    assert code == 2 and "i0 rounds to" in capsys.readouterr().err
    assert RunConfig(engine="psa", steps=20, i0=ramp).i0 == ramp
    result = run_psa(model, params.with_(i0=LinearSchedule.constant(0.3)))
    assert result.steps_executed == 20


@pytest.mark.parametrize("engine", ["run_ssqa", "dual_bram", "shift_register"])
def test_engines_check_field_planes_once_per_run(engine, monkeypatch):
    """Each engine checks its field-product operands once, where it sets
    them up, and no step checks them again: the CSR at R = 4, and at R = 1
    the diagonals of G11's torus."""
    import ssqa.hwsim
    import ssqa.solver

    calls, check = [], _check_field_planes

    def spy(*args):
        calls.append(args)
        check(*args)

    monkeypatch.setattr(ssqa.solver, "_check_field_planes", spy)
    g11 = maxcut_to_ising(load_instance("G11"))
    for model, replicas, by_diagonals in ((random_model(np.random.default_rng(3), 9), 4, False),
                                          (g11, 1, True)):
        params = AnnealParams(steps=12, replicas=replicas, seed=2)
        calls.clear()
        if engine == "run_ssqa":
            run_ssqa(model, params)
        else:
            ssqa.hwsim.run_hw(model, params, engine)
        assert len(calls) == 1 and isinstance(calls[0][0], tuple) == by_diagonals


def steps_per_block(n):
    return max(1, _NOISE_BLOCK // n)


def lanes_per_block(replicas):
    return max(1, _NOISE_LANES // replicas)


# Step counts around the block size K: none, one, a block short of its last
# step, one whole block, and one or several blocks with a short last block.
STEP_COUNTS = (lambda k: 0, lambda k: 1, lambda k: k - 1, lambda k: k, lambda k: k + 1,
               lambda k: 2 * k + 3)


def lane_block_examples(test):
    """Examples at N = 800 and R = 1 and 3, whose blocks hold C lanes of K
    steps (C = 20 and 6): one step short of a block, one block, a block and
    3 steps, and two blocks, one lane and a 2-step tail."""
    for replicas in (1, 3):
        c = lanes_per_block(replicas)
        for steps in (lambda k, c=c: c * k - 1, lambda k, c=c: c * k,
                      lambda k, c=c: c * k + 3, lambda k, c=c: 2 * c * k + k + 2):
            test = example(n=800, steps=steps, replicas=replicas, dtype=np.int8, seed=2,
                           n_rnd=(6, -3), biased=True, i0=(3, 9))(test)
    return test


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 7, 800, _NOISE_BLOCK + 5]), steps=st.sampled_from(STEP_COUNTS),
       replicas=st.sampled_from([1, 3, 20]), dtype=st.sampled_from([np.int8, np.int16]),
       seed=st.integers(0, 2**32), n_rnd=st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
       biased=st.booleans(), i0=st.tuples(st.integers(1, 9), st.integers(1, 9)))
@example(n=_NOISE_BLOCK + 5, steps=STEP_COUNTS[-1], replicas=20, dtype=np.int16, seed=1,
         n_rnd=(6, 0), biased=False, i0=(3, 9))
@example(n=7, steps=STEP_COUNTS[-1], replicas=3, dtype=np.int8, seed=1, n_rnd=(6, 0),
         biased=True, i0=(3, 9))
# i0 ramps from 1, the narrowest clamp [-1, 0], over several noise blocks.
@example(n=800, steps=STEP_COUNTS[-1], replicas=3, dtype=np.int8, seed=1, n_rnd=(6, 0),
         biased=False, i0=(1, 5))
@example(n=800, steps=STEP_COUNTS[-1], replicas=3, dtype=np.int8, seed=1, n_rnd=(6, 0),
         biased=False, i0=(1, 6))
@lane_block_examples
def test_step_inputs_equal_step_by_step_draws(n, steps, replicas, dtype, seed, n_rnd, biased,
                                              i0):
    """Each noise plane, whether its block holds one lane or several, is
    n_rnd(t) times the +-1 bits of a twin stream drawing one step at a
    time, plus h when there is one, in the step dtype;
    planes are C-ordered, writable and disjoint, and both streams end in one
    state. q is the schedule's at each step, and floor and ceil are 0-d
    -i0 and i0 - 1 of the schedule's i0 at every step: one pair while i0
    holds, replaced when it changes."""
    params = AnnealParams(steps=steps(steps_per_block(n)), replicas=replicas, seed=seed,
                          n_rnd=LinearSchedule(*n_rnd), i0=LinearSchedule(*i0))
    h = np.zeros(n, np.int64)
    if biased:
        h[:] = np.random.default_rng(seed).integers(-8, 8, size=n)
    blocks, twin = RngStreams(seed, replicas), RngStreams(seed, replicas)
    planes, bounds = [], []
    for t, (plane, q, floor, ceil) in enumerate(_step_inputs(params, blocks, h, dtype)):
        assert q == q_value_at(params, t) and type(q) is int
        level = i0_at(params, t)
        assert floor.shape == ceil.shape == () and floor.dtype == ceil.dtype == dtype
        assert floor == -level and ceil == level - 1
        if t and level == i0_at(params, t - 1):
            assert floor is bounds[-1][0] and ceil is bounds[-1][1]
        else:
            assert not bounds or (floor is not bounds[-1][0] and ceil is not bounds[-1][1])
        planes.append(plane)
        bounds.append((floor, ceil))
    assert len(planes) == params.steps
    for t, plane in enumerate(planes):
        expect = (n_rnd_at(params, t) * twin.next_bipolar(n) + h[:, None]).astype(dtype)
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

    def spy(self, n, low_bit=False, **kw):
        words.append(self.n_streams * n)
        return next_block(self, n, low_bit, **kw)

    monkeypatch.setattr(RngStreams, "next_block", spy)
    graph = load_instance("G11")
    model = maxcut_to_ising(graph)
    # The last count is past one R = 3 block of 6 lanes, into the lane path.
    for steps in (0, 1, steps_per_block(model.n) + 1,
                  lanes_per_block(3) * steps_per_block(model.n) + 2):
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


def naive_psa(model, params):
    """run_psa's update with one next_uniform call per step (test oracle of
    its blocked draws): the final spin-major plane and the spin sum."""
    jmat = model.coupling_matrix()
    h = model.h.astype(np.float64)[:, None]
    rng = RngStreams(params.seed, params.replicas)
    sigma = initial_state(model, rng, np.float64)
    spin_sum = np.zeros_like(sigma)
    for t in range(params.steps):
        inp = params.i0.at(float(t), params.steps) * (h + jmat @ sigma)
        sigma = np.where(rng.next_uniform(model.n) + np.tanh(inp) >= 0, 1.0, -1.0)
        spin_sum += sigma
    return sigma, spin_sum


@pytest.mark.parametrize("n", [1, 7, 15])
@pytest.mark.parametrize("steps", STEP_COUNTS, ids=["0", "1", "K-1", "K", "K+1", "2K+3"])
def test_psa_blocks_equal_step_by_step_draws(n, steps):
    """run_psa draws K = max(1, _NOISE_BLOCK // N) steps of uniforms per RNG
    call and evolves bit for bit as with one call per step, for step counts
    around K."""
    model = random_model(np.random.default_rng(n), n, p=0.6)
    params = AnnealParams(steps=steps(steps_per_block(n)), replicas=3, seed=n,
                          i0=LinearSchedule(0.2, 3.0))
    result = run_psa(model, params, collect_spin_mean=True)
    sigma, spin_sum = naive_psa(model, params)
    assert result.spin_mean.tobytes() == (spin_sum / max(params.steps, 1)).T.tobytes()
    assert np.array_equal(result.per_replica_final, replica_energies(model, sigma))
    assert np.array_equal(result.best_state, sigma[:, result.best_replica])


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
