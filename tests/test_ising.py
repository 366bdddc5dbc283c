"""Unit and property tests for model types, energy, cut, and the mapping."""

import itertools
import numbers

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ssqa.ising import (
    DimensionError,
    EdgeError,
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


def test_non_integer_and_wide_entries_are_rejected():
    """A weight is never truncated: 1.5 and 2**70 are errors, not 1 and an
    OverflowError at the first cut."""
    for bad in (1.5, 2**70, -(2**63) - 1, np.float64(2.0)):
        with pytest.raises(ValueError, match="edge 0 holds a value that is not an integer"):
            WeightedGraph(3, ((0, 1, bad),))
        with pytest.raises(ValueError, match="coupling 1 holds a value that is not an integer"):
            IsingModel(3, [0, 0, 0], ((0, 2, 1), (0, 1, bad)))
    with pytest.raises(ValueError, match="not an integer"):
        WeightedGraph(3, ((0.5, 1, 1),))
    with pytest.raises(ValueError, match="not an integer"):
        WeightedGraph(3, np.array([[0, 1, 2**63]], dtype=np.uint64))
    g = WeightedGraph(3, np.array([[0, 1, 2**63 - 1]], dtype=np.uint64))
    assert g.total_weight == 2**63 - 1 and type(g.total_weight) is int


def test_non_integer_biases_are_rejected():
    """h entries follow the couplings' rule: 0.5 is an error, not 0, and the
    error names the first bad index. The stored h is a read-only copy."""
    for h, row in (([0.5, 1.7], 0), (["1", 0], 0), ([0, 1.0], 1), (np.zeros(2), 0),
                   ([0, 2**70], 1), ([1, np.float64(-2.0)], 1)):
        with pytest.raises(ValueError, match=rf"h\[{row}\] holds a value that is not an integer"):
            IsingModel(2, h, ())
    for h in ([3, -4], np.array([3, 4], dtype=np.uint8), [np.int32(3), -4]):
        model = IsingModel(2, h, ())
        assert model.h.dtype == np.int64 and model.h.tolist() == np.asarray(h).tolist()
    with pytest.raises(DimensionError):
        IsingModel(3, [0.5, 0], ())
    given = np.array([3, -4])
    model = IsingModel(2, given, ())
    with pytest.raises(ValueError):
        model.h[0] = 7  # h is read-only, as the couplings are
    given[0] = 7  # the caller's array was copied
    assert model.h.tolist() == [3, -4]


def test_total_weight_must_fit_int64():
    """Sum |w| bounds every cut and every partial sum, so a graph past int64
    is an error, not a wrapped cut."""
    for n, rows in ((2, ((0, 1, -2**63),)), (3, ((0, 1, 2**62), (1, 2, 2**62)))):
        with pytest.raises(ValueError, match="sum of \\|weight\\| exceeds int64"):
            WeightedGraph(n, rows)
    g = WeightedGraph(3, ((0, 1, -2**62), (1, 2, 2**62 - 1)))
    assert cut_value(g, [1, -1, 1]) == -1 and cut_value(g, [1, 1, -1]) == 2**62 - 1
    assert WeightedGraph(2, ((0, 1, -2**63 + 1),)).total_weight == -2**63 + 1


def test_model_sum_of_weights_must_fit_int64():
    """Sum |h| + sum |J| bounds every energy and every local field, so a
    model past int64 is an error at construction, not a wrapped field that
    sizes a negative accumulator bound."""
    pairs = itertools.combinations(range(4), 2)
    with pytest.raises(ValueError, match="sum of \\|h\\| and \\|J\\| exceeds int64"):
        IsingModel(4, np.zeros(4, dtype=np.int64), [(i, j, 2**61 + 2**60) for i, j in pairs],
                   weight_bits=63)
    with pytest.raises(ValueError, match="exceeds int64"):
        IsingModel(2, [2**62, -2**62], ((0, 1, 1),), weight_bits=64)
    # Right at the limit: 2^63 - 1 in all.
    model = IsingModel(2, [2**62 - 1, 0], ((0, 1, 2**62),), weight_bits=64)
    assert model.max_input_magnitude(0, 0) == 2**63 - 1
    assert energy(model, [1, 1]) == -(2**63) + 1


@pytest.mark.parametrize("n", [0, -3])
def test_graph_needs_a_node(n):
    with pytest.raises(ValueError, match="n_nodes must be >= 1"):
        WeightedGraph(n, ())


def test_pair_keys_must_fit_int64():
    """Repeated pairs are found by sorting keys a n + b, so n^2 must fit int64."""
    with pytest.raises(ValueError, match="would not fit int64"):
        WeightedGraph(2**32, ((0, 1, 1),))
    assert len(WeightedGraph(3_037_000_499, ((0, 3_037_000_498, 1),)).edges) == 1


def test_edges_and_couplings_are_read_only_int64_copies():
    rows = np.array([[0, 1, 2], [1, 2, -1]], dtype=np.int32)
    g = WeightedGraph(3, rows)
    model = maxcut_to_ising(g)
    for arr in (g.edges, model.couplings):
        assert arr.dtype == np.int64 and arr.shape == (2, 3)
        with pytest.raises(ValueError):
            arr[0, 2] = 5
    assert rows.flags.writeable  # the caller's array is copied, not frozen
    assert model.couplings[:, 2].tolist() == [-2, 1] and g.edges[:, 2].tolist() == [2, -1]
    assert WeightedGraph(3, ()).edges.shape == (0, 3)
    with pytest.raises(ValueError, match="expected \\(a, b, w\\) rows"):
        WeightedGraph(3, ((0, 1), (1, 2)))


def test_graphs_and_models_compare_by_value():
    g = square_graph()
    assert maxcut_to_ising(g) == maxcut_to_ising(g)
    assert WeightedGraph(4, np.array(g.edges)) == g
    assert maxcut_to_ising(g) != maxcut_to_ising(g, weight_bits=5)
    other = WeightedGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 2)))
    assert g != other and maxcut_to_ising(g) != maxcut_to_ising(other)
    biased = IsingModel(4, [1, 0, 0, 0], maxcut_to_ising(g).couplings)
    assert biased != maxcut_to_ising(g)
    assert g != WeightedGraph(5, g.edges) and g != g.edges
    for value in (g, biased):
        with pytest.raises(TypeError):
            hash(value)


def loop_first_bad_edge(n, rows, noun, pair):
    """Per-edge loop definition of the edge rules: (row, message) of the
    first row that breaks one, or None."""
    seen = set()
    for k, row in enumerate(rows):
        if not all(isinstance(x, numbers.Integral) and -(2**63) <= x < 2**63 for x in row):
            return k, f"{noun} {k} holds a value that is not an integer in int64"
        a, b, _ = row
        if a == b:
            return k, f"self-loop at node {a}"
        if a > b:
            return k, f"{noun} ({a},{b}) not {pair}"
        if a < 0 or b >= n:
            return k, f"{noun} ({a},{b}) out of range 0..{n - 1}"
        if (a, b) in seen:
            return k, f"duplicate {noun} ({a},{b})"
        seen.add((a, b))
    return None


@st.composite
def edge_lists(draw):
    """(n, rows): good rows (distinct a < b in range), then up to two faults,
    each a self-loop, a reversed pair, an out-of-range node, a repeated pair
    or a non-integer or wide entry."""
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    rows = [(a, b, draw(st.integers(-8, 7))) for a, b in
            (draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else [])]
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        k = draw(st.integers(0, len(rows)))
        a, b, w = rows[k] if k < len(rows) else (0, n - 1, 1)
        fault = draw(st.sampled_from(["loop", "reverse", "range", "repeat", "odd"]))
        if fault == "loop":
            a = b
        elif fault == "reverse":
            a, b = b, a
        elif fault == "range":
            a, b = draw(st.sampled_from([(-1, b), (a, n), (n, n + 1), (-2, -1)]))
        elif fault == "odd":
            col = draw(st.integers(0, 2))
            a, b, w = (draw(st.sampled_from([0.5, 1.5, -2.0, 2**63, -(2**63) - 1, 2**70]))
                       if c == col else x for c, x in enumerate((a, b, w)))
        rows.insert(draw(st.integers(0, len(rows))), (a, b, w))  # "repeat": row k again
    return n, rows


def dense_j(n, rows):
    """J built edge by edge."""
    j = np.zeros((n, n), dtype=np.int64)
    for a, b, w in rows:
        j[a, b] = j[b, a] = w
    return j


@settings(max_examples=300, deadline=None)
@given(edge_lists())
@example((3, [(0, 1, 1), (2, 1, 1), (0, 1, 1.5)]))
@example((3, [(0, 1, 1), (0, 1, 2**70)]))
@example((2, [(0, 1, 2), (1, 0, 1)]))
def test_array_validator_matches_edge_loop(case):
    """Graphs and models accept exactly the rows a per-edge loop accepts,
    and reject its first bad row with its message, from tuples or from an
    array; an accepted model's J is the one built edge by edge."""
    n, rows = case
    inputs = [tuple(rows)]
    if all(isinstance(x, int) and abs(x) < 2**62 for row in rows for x in row):
        inputs.append(np.array(rows, dtype=np.int64).reshape(-1, 3))
    for noun, pair, build in (("edge", "u<v", lambda r: WeightedGraph(n, r)),
                              ("coupling", "i<j", lambda r: IsingModel(n, np.zeros(n, dtype=np.int64), r))):
        bad = loop_first_bad_edge(n, rows, noun, pair)
        for given_rows in inputs:
            if bad is None:
                built = build(given_rows)
                stored = built.edges if noun == "edge" else built.couplings
                assert stored.tolist() == [list(r) for r in rows]
                continue
            with pytest.raises(EdgeError) as info:
                build(given_rows)
            assert (info.value.row, str(info.value)) == bad
    if loop_first_bad_edge(n, rows, "edge", "u<v") is None:
        model = maxcut_to_ising(WeightedGraph(n, rows), weight_bits=5)
        expect = -dense_j(n, rows)
        assert np.array_equal(model.coupling_matrix().toarray(), expect)
        assert np.array_equal(model.coupling_matrix(np.int8).toarray(), expect)


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
    """Edge-loop definition of H(s), the reference for the vectorized form,
    in Python ints."""
    e = -sum(int(model.h[i]) * int(s[i]) for i in range(model.n))
    for i, j, w in model.couplings.tolist():
        e -= w * int(s[i]) * int(s[j])
    return e


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from([(-1, 1), (1, 3, 7), (-7, -1, 7)]))
@example(4, 3, (-1, 1))  # a graph with no edges
@example(19, 3, (-(2**61), 2**61))  # three edges of |w| = 2^61: sum |w| near int64's limit
def test_vectorized_cut_energy_and_bound_match_edge_loops(seed, n, weights):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, weights)
    bits = max(4, max(map(abs, weights)).bit_length() + 1)
    model = maxcut_to_ising(g, bits)
    biased = IsingModel(n, rng.integers(-8, 8, size=n), model.couplings, bits)
    for s in rng.choice([-1, 1], size=(4, n)):
        cut = cut_value(g, s)
        assert cut == sum(w for u, v, w in g.edges if s[u] != s[v])
        assert 2 * cut == g.total_weight - loop_energy(model, s) and type(cut) is int
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

def test_pseudo_quantum_energy_ring():
    """Replica R - 1 couples to replica 0; at R = 1 a replica couples to
    itself, so the coupling term is -q N."""
    model = maxcut_to_ising(square_graph())
    sig = np.array([[1, -1, 1, -1], [1, 1, 1, 1], [-1, -1, 1, 1]])
    base = sum(energy(model, row) for row in sig)
    inter = sum(int((sig[k] * sig[(k + 1) % 3]).sum()) for k in range(3))
    q = 2
    assert pseudo_quantum_energy(model, sig, q) == base - q * inter
    for row in sig:
        assert pseudo_quantum_energy(model, row[None], q) == energy(model, row) - q * model.n


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
