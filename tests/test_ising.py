"""Unit and property tests for model types, energy, cut, and the mapping."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ssqa.ising import (
    DimensionError,
    IsingModel,
    WeightedGraph,
    WeightRangeError,
    cut_value,
    energy,
    maxcut_to_ising,
    pseudo_quantum_energy,
    replica_cuts,
)


def square_graph():
    """4-cycle with unit weights; MAX-CUT = 4 (alternating partition)."""
    return WeightedGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))


def random_graph(rng, n, weights=(-1, 1)):
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.5:
            edges.append((u, v, int(rng.choice(weights))))
    return WeightedGraph(n, tuple(edges))


def brute_force_maxcut(graph):
    best = None
    for bits in itertools.product((-1, 1), repeat=graph.n_nodes):
        c = cut_value(graph, np.array(bits))
        if best is None or c > best:
            best = c
    return best


def brute_force_min_energy(model):
    best = None
    for bits in itertools.product((-1, 1), repeat=model.n):
        e = energy(model, np.array(bits))
        if best is None or e < best:
            best = e
    return best


# ---------------------------------------------------------------- validation

def test_graph_rejects_self_loop_duplicate_and_order():
    with pytest.raises(ValueError, match="self-loop"):
        WeightedGraph(3, ((1, 1, 1),))
    with pytest.raises(ValueError, match="duplicate"):
        WeightedGraph(3, ((0, 1, 1), (0, 1, 2)))
    with pytest.raises(ValueError, match="not u<v"):
        WeightedGraph(3, ((2, 1, 1),))
    with pytest.raises(ValueError, match="out of range"):
        WeightedGraph(3, ((0, 3, 1),))


def test_model_rejects_bad_h_and_weights():
    with pytest.raises(DimensionError):
        IsingModel(3, np.zeros(2, dtype=np.int64), ())
    with pytest.raises(WeightRangeError):
        IsingModel(3, np.array([8, 0, 0]), ())  # 4-bit range is [-8, 7]
    with pytest.raises(WeightRangeError):
        IsingModel(3, np.zeros(3, dtype=np.int64), ((0, 1, -9),))
    # Boundary values of the 4-bit range are accepted.
    IsingModel(3, np.array([-8, 7, 0]), ((0, 1, -8), (1, 2, 7)))


def test_energy_rejects_bad_state():
    model = maxcut_to_ising(square_graph())
    with pytest.raises(DimensionError):
        energy(model, np.ones(3, dtype=np.int64))
    with pytest.raises(ValueError):
        energy(model, np.array([1, 0, 1, -1]))


@pytest.mark.parametrize("bad", [0, 2, -3])
@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
def test_cut_and_energy_reject_non_spin_values(bad, dtype):
    graph = square_graph()
    state = np.array([1, -1, bad, 1], dtype=dtype)
    with pytest.raises(ValueError, match="spins must be"):
        cut_value(graph, state)
    with pytest.raises(ValueError, match="spins must be"):
        energy(maxcut_to_ising(graph), state)
    state[2] = -1
    assert cut_value(graph, state) == 2 and energy(maxcut_to_ising(graph), state) == 0


# ------------------------------------------------------------ hand oracles

def test_square_cut_values():
    g = square_graph()
    assert cut_value(g, np.array([1, -1, 1, -1])) == 4
    assert cut_value(g, np.array([1, 1, 1, 1])) == 0
    assert cut_value(g, np.array([1, 1, -1, -1])) == 2


@pytest.mark.parametrize("weights", [(-1, 1), (-300, 7, 200), (2**40, -(2**35))])
@pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.float64])
def test_replica_cuts_score_every_column_like_a_loop(weights, dtype):
    """One gather scores each replica of a spin-major plane as a straight
    loop over the edges does, whatever width the weights need."""
    rng = np.random.default_rng(len(weights))
    graph = random_graph(rng, 9, weights)
    plane = rng.choice([-1, 1], size=(9, 5)).astype(dtype)
    got = replica_cuts(graph, plane)
    expect = [sum(w for u, v, w in graph.edges if plane[u, k] != plane[v, k]) for k in range(5)]
    assert got.dtype == np.int64 and got.tolist() == expect
    assert [cut_value(graph, plane[:, k]) for k in range(5)] == expect


def test_replica_cuts_reject_bad_planes():
    graph = square_graph()
    with pytest.raises(DimensionError):
        replica_cuts(graph, np.ones((3, 2), dtype=np.int8))
    plane = np.ones((4, 3), dtype=np.int8)
    plane[2, 1] = 0
    with pytest.raises(ValueError, match="spins must be"):
        replica_cuts(graph, plane)


def test_two_spin_energy_by_hand():
    # H = -h1*s1 - h2*s2 - J*s1*s2 with h=(1,-2), J=3.
    model = IsingModel(2, np.array([1, -2]), ((0, 1, 3),))
    assert energy(model, np.array([1, 1])) == -1 + 2 - 3
    assert energy(model, np.array([1, -1])) == -1 - 2 + 3
    assert energy(model, np.array([-1, -1])) == 1 - 2 - 3


def test_coupling_matrix_symmetric_zero_diag():
    model = IsingModel(4, np.zeros(4, dtype=np.int64), ((0, 1, 2), (1, 3, -5)))
    m = np.asarray(model.coupling_matrix().todense())
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 0)
    assert m[0, 1] == 2 and m[1, 3] == -5 and m[0, 2] == 0


def test_adjacency_matches_couplings():
    model = IsingModel(4, np.zeros(4, dtype=np.int64), ((0, 1, 2), (1, 3, -5)))
    adj = model.adjacency()
    assert sorted(adj[1]) == [(0, 2), (3, -5)]
    assert adj[2] == []


def test_max_input_magnitude():
    model = IsingModel(3, np.array([1, 0, -2]), ((0, 1, 3), (1, 2, -4)))
    # Spin 1: |h|=0, row |J| sum = 7; plus n_rnd 2 and q 5.
    assert model.max_input_magnitude(2, 5) == 7 + 2 + 5


# ------------------------------------------------------- mapping identities

def test_maxcut_mapping_identity():
    """H(s) = W_total - 2*cut(s) for every state of a random 8-node graph."""
    rng = np.random.default_rng(0)
    g = random_graph(rng, 8)
    model = maxcut_to_ising(g)
    for bits in itertools.product((-1, 1), repeat=8):
        s = np.array(bits)
        assert energy(model, s) == g.total_weight - 2 * cut_value(g, s)


def test_maxcut_mapping_optimum_agrees():
    rng = np.random.default_rng(1)
    for trial in range(5):
        g = random_graph(rng, 7)
        model = maxcut_to_ising(g)
        assert brute_force_min_energy(model) == g.total_weight - 2 * brute_force_maxcut(g)


@given(st.lists(st.sampled_from([-1, 1]), min_size=4, max_size=4))
def test_flip_symmetry(bits):
    """Global spin flip leaves both energy (h=0) and cut unchanged."""
    g = square_graph()
    model = maxcut_to_ising(g)
    s = np.array(bits)
    assert energy(model, s) == energy(model, -s)
    assert cut_value(g, s) == cut_value(g, -s)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 7))
def test_energy_affine_in_weights(seed, n):
    """Doubling every edge weight doubles energy deviation (h = 0 mapping)."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n)
    g2 = WeightedGraph(n, tuple((u, v, 2 * w) for u, v, w in g.edges))
    m1, m2 = maxcut_to_ising(g), maxcut_to_ising(g2, weight_bits=5)
    s = rng.choice([-1, 1], size=n)
    assert energy(m2, s) == 2 * energy(m1, s)
    assert cut_value(g2, s) == 2 * cut_value(g, s)


def loop_energy(model, s):
    """Edge-loop definition of H(s), the reference for the vectorized form."""
    e = -sum(int(model.h[i]) * int(s[i]) for i in range(model.n))
    for i, j, w in model.couplings:
        e -= w * int(s[i]) * int(s[j])
    return e


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([(-1, 1), (1, 3, 7), (-7, -1, 7)]))
def test_vectorized_cut_energy_and_bound_match_edge_loops(seed, n, weights):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, weights)
    model = maxcut_to_ising(g)
    biased = IsingModel(n, rng.integers(-8, 8, size=n), model.couplings)
    for s in rng.choice([-1, 1], size=(4, n)):
        cut = cut_value(g, s)
        assert cut == sum(w for u, v, w in g.edges if s[u] != s[v])
        assert energy(model, s) == loop_energy(model, s)
        assert energy(biased, s) == loop_energy(biased, s)
        assert 2 * cut == g.total_weight - energy(model, s)
        assert type(cut) is int and type(energy(model, s)) is int
    row_sum = [0] * n
    for i, j, w in biased.couplings:
        row_sum[i] += abs(w)
        row_sum[j] += abs(w)
    local = max(abs(int(h)) + r for h, r in zip(biased.h, row_sum))
    assert biased.max_input_magnitude(3, -2) == local + 3 + 2


def test_coupling_matrix_is_cached_and_read_only():
    model = IsingModel(3, np.zeros(3, dtype=np.int64), ((0, 1, 2), (1, 2, -1)))
    m = model.coupling_matrix()
    assert model.coupling_matrix() is m
    with pytest.raises(ValueError):
        m.data[0] = 5


# --------------------------------------------- replica-coupled energy checks

def test_pseudo_quantum_energy_periodic_and_open():
    model = maxcut_to_ising(square_graph())
    sig = np.array([[1, -1, 1, -1], [1, 1, 1, 1], [-1, -1, 1, 1]])
    base = sum(energy(model, row) for row in sig)
    inter_periodic = sum(int((sig[k] * sig[(k + 1) % 3]).sum()) for k in range(3))
    inter_open = sum(int((sig[k] * sig[k + 1]).sum()) for k in range(2))
    q = 2
    assert pseudo_quantum_energy(model, sig, q) == base - q * inter_periodic
    assert pseudo_quantum_energy(model, sig, q, periodic=False) == base - q * inter_open


def test_pseudo_quantum_energy_identical_replicas():
    """With all replicas equal, the interaction term is maximal: -q*R*N."""
    model = maxcut_to_ising(square_graph())
    s = np.array([1, -1, 1, -1])
    sig = np.tile(s, (5, 1))
    assert pseudo_quantum_energy(model, sig, 3) == 5 * energy(model, s) - 3 * 5 * 4


def test_pseudo_quantum_energy_minimal_wrap():
    """R=2, N=1, h=0, both spins +1, q=3: two wrap terms of -q each."""
    model = IsingModel(1, np.zeros(1, dtype=np.int64), ())
    sig = np.array([[1], [1]])
    assert pseudo_quantum_energy(model, sig, 3) == -6
    assert pseudo_quantum_energy(model, sig, 0) == 0  # coupling term vanishes


def test_pseudo_quantum_energy_numpy_integer_q():
    """A numpy integer q takes the integer branch, as a Python int does."""
    model = maxcut_to_ising(square_graph())
    sig = np.array([[1, -1, 1, -1], [1, 1, -1, -1], [-1, 1, 1, 1]])
    for q in (2, 0, -3):
        want = pseudo_quantum_energy(model, sig, q)
        for numpy_q in (np.int64(q), np.int8(q)):
            got = pseudo_quantum_energy(model, sig, numpy_q)
            assert type(got) is int and got == want


def test_pseudo_quantum_energy_vs_triple_loop():
    """Random N=3, R=3 instance against an independent triple-loop evaluator."""
    rng = np.random.default_rng(9)
    model = IsingModel(3, rng.integers(-8, 8, size=3),
                       ((0, 1, int(rng.integers(-8, 8))),
                        (1, 2, int(rng.integers(-8, 8))),
                        (0, 2, int(rng.integers(-8, 8)))))
    sig = rng.choice([-1, 1], size=(3, 3))
    q = 2
    expect = 0
    for k in range(3):
        expect += energy(model, sig[k])
        for i in range(3):
            expect -= q * int(sig[k, i]) * int(sig[(k + 1) % 3, i])
    assert pseudo_quantum_energy(model, sig, q) == expect


def test_pseudo_quantum_energy_shape_check():
    model = maxcut_to_ising(square_graph())
    with pytest.raises(DimensionError):
        pseudo_quantum_energy(model, np.ones((2, 3), dtype=np.int64), 1)
