"""Ising model data types, energy / cut evaluation, and the MAX-CUT mapping.

All arithmetic on models within their declared weight bit-width is exact
integer arithmetic; nothing here rounds. Edges and couplings are stored once,
as read-only (E, 3) int64 arrays, and one vectorized validator owns their
rules (_edge_array, which the G-set parser shares). A model's coupling CSR
and its coupling diagonals (each in every step dtype asked for) are built on
first use and cached on the instance. Graphs and models compare by value and
are not hashable.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np
from scipy import sparse


class DimensionError(ValueError):
    """State length does not match the model or graph."""


class WeightRangeError(ValueError):
    """A bias or coupling does not fit the declared bit-width."""


def _check_spins(s: np.ndarray) -> None:
    if not ((s == 1) | (s == -1)).all():
        raise ValueError("spins must be -1 or +1")


_INT64 = np.iinfo(np.int64)
# Typed entry by entry, only when the rows are not an integer array.
_is_int64 = np.frompyfunc(
    lambda x: isinstance(x, numbers.Integral) and _INT64.min <= x <= _INT64.max, 1, 1)


def _int64_entries(values):
    """values as a new int64 array, and the mask of its entries that are not
    integers in int64 (stored as 0): a float or a string is never converted."""
    a = np.asarray(values)
    if np.can_cast(a.dtype, np.int64):
        return a.astype(np.int64), np.zeros(a.shape, dtype=bool)
    a = np.array(values, dtype=object)  # keep each entry's own type
    bad = ~_is_int64(a).astype(bool)
    return np.where(bad, 0, a).astype(np.int64), bad


def _abs_sum_exceeds_int64(values) -> bool:
    """Whether sum |v| of an int64 array passes int64, summed exactly in
    Python ints only when peak * count does."""
    peak = max(int(values.max(initial=0)), -int(values.min(initial=0)))
    return peak * len(values) > _INT64.max and sum(map(abs, values.tolist())) > _INT64.max


class EdgeError(ValueError):
    """A row breaks an edge rule; row is its index."""
    row = -1


def _edge_array(n: int, rows, noun="edge", pair="u<v", base=0) -> np.ndarray:
    """(a, b, w) rows as a new read-only (E, 3) int64 array. EdgeError names
    the first row that breaks a rule and the first rule it breaks, in this
    order: integer entries in int64 (a float is never truncated), a != b,
    a < b, 0 <= a and b < n, no pair twice (a sort of the keys a n + b).
    Messages number the rows and nodes from base."""
    if int(n) ** 2 > _INT64.max:
        raise ValueError(f"{n} nodes: a pair key a*n + b would not fit int64")
    edges, bad = _int64_entries(rows)
    if edges.size == 0:
        edges, bad = edges.reshape(0, 3), bad.reshape(0, 3)
    elif edges.ndim != 2 or edges.shape[1] != 3:
        raise ValueError(f"expected (a, b, w) rows, got an array of shape {edges.shape}")
    bad = bad.any(axis=1)
    a, b = edges[:, 0], edges[:, 1]
    key = a * n + b  # wraps only on rows that break the range rule
    order = np.argsort(key, kind="stable")
    repeat = np.zeros_like(bad)
    repeat[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    broken = np.stack([bad, a == b, a > b, (a < 0) | (b >= n), repeat])
    hit = np.flatnonzero(broken.any(axis=0))
    if len(hit):
        row = int(hit[0])
        a, b = edges[row, 0] + base, edges[row, 1] + base
        error = EdgeError((f"{noun} {row + base} holds a value that is not an integer in int64",
                           f"self-loop at node {a}", f"{noun} ({a},{b}) not {pair}",
                           f"{noun} ({a},{b}) out of range {base}..{n - 1 + base}",
                           f"duplicate {noun} ({a},{b})")[int(broken[:, row].argmax())])
        error.row = row
        raise error
    edges.setflags(write=False)
    return edges


def _equal_fields(self, other) -> bool:
    """Value equality over the dataclass fields, arrays by np.array_equal."""
    return type(other) is type(self) and all(
        np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected weighted graph; edges normalized to u < v, 0-based."""

    n_nodes: int
    edges: np.ndarray  # (E, 3) int64 rows (u, v, w), u < v; read-only
    __eq__ = _equal_fields  # by value; a class with __eq__ is not hashable

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        edges = _edge_array(self.n_nodes, self.edges)
        if _abs_sum_exceeds_int64(edges[:, 2]):
            raise ValueError("the sum of |weight| exceeds int64, so a cut could wrap")
        object.__setattr__(self, "edges", edges)

    @property
    def total_weight(self) -> int:
        return sum(self.edges[:, 2].tolist())  # a Python int: no int64 sum can wrap


@dataclass(frozen=True, eq=False)
class IsingModel:
    """Ising instance: biases h, couplings J (i < j, symmetric), bit-width."""

    n: int
    h: np.ndarray  # (n,) int64 biases; read-only
    couplings: np.ndarray  # (E, 3) int64 rows (i, j, J_ij), i < j; read-only
    weight_bits: int = 4
    __eq__ = _equal_fields

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        h, bad = _int64_entries(self.h)
        if h.shape != (self.n,):
            raise DimensionError(f"h has shape {h.shape}, expected ({self.n},)")
        if bad.any():
            raise ValueError(f"h[{bad.argmax()}] holds a value that is not an integer in int64")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        lo, hi = -(1 << (self.weight_bits - 1)), (1 << (self.weight_bits - 1)) - 1
        if (h < lo).any() or (h > hi).any():
            raise WeightRangeError(f"h outside [{lo},{hi}] for {self.weight_bits} bits")
        couplings = _edge_array(self.n, self.couplings, "coupling", "i<j")
        object.__setattr__(self, "couplings", couplings)
        out = (couplings[:, 2] < lo) | (couplings[:, 2] > hi)
        if out.any():
            i, j, w = couplings[out.argmax()].tolist()
            raise WeightRangeError(
                f"J[{i},{j}]={w} outside [{lo},{hi}] for {self.weight_bits} bits")
        if _abs_sum_exceeds_int64(np.concatenate([h, couplings[:, 2]])):
            raise ValueError("the sum of |h| and |J| exceeds int64, so an energy or a local "
                             "field could wrap")

    @cached_property
    def _csr(self) -> sparse.csr_matrix:
        i, j, w = self.couplings.T
        m = sparse.csr_matrix((np.concatenate([w, w]),
                               (np.concatenate([i, j]), np.concatenate([j, i]))),
                              shape=(self.n, self.n), dtype=np.int64)
        for a in (m.data, m.indices, m.indptr):
            a.setflags(write=False)
        return m

    @cached_property
    def _csr_by_dtype(self) -> dict:
        return {np.dtype(np.int64): self._csr}

    def coupling_matrix(self, dtype=np.int64) -> sparse.csr_matrix:
        """Symmetric N x N coupling matrix as CSR in dtype (zero diagonal),
        columns sorted within each row. Built once per model and dtype and
        shared: read-only. Every dtype shares the int64 matrix's index arrays."""
        dtype = np.dtype(dtype)
        m = self._csr_by_dtype.get(dtype)
        if m is None:
            csr = self._csr
            data = csr.data.astype(dtype)
            data.setflags(write=False)
            m = sparse.csr_matrix((data, csr.indices, csr.indptr), shape=csr.shape, copy=False)
            self._csr_by_dtype[dtype] = m
        return m

    @cached_property
    def _diagonal_offsets(self) -> np.ndarray:
        """Ascending int32 offsets k of J's diagonals J[i, i + k] that hold a
        coupling, each k with its -k (J is symmetric). A mask over the
        offsets 1..N-1 finds them in order, with no sort."""
        i, j, _ = self.couplings.T
        held = np.zeros(self.n, dtype=bool)
        held[j - i] = True
        above = np.flatnonzero(held).astype(np.int32)
        offsets = np.concatenate([-above[::-1], above])
        offsets.setflags(write=False)
        return offsets

    @cached_property
    def _diagonals_by_dtype(self) -> dict:
        return {}

    def diagonal_entries(self) -> int:
        """Entries of J's held diagonals inside the matrix, sum of N - |k|
        over their offsets k: what a product by diagonals reads, the zeros
        between couplings included."""
        return int((self.n - np.abs(self._diagonal_offsets.astype(np.int64))).sum())

    def coupling_diagonals(self, dtype=np.int64) -> tuple:
        """J by its held diagonals, as scipy's DIA kernel reads it: int32
        offsets and an (n_diags, N) data array in dtype whose entry [d, j]
        is J[j - offsets[d], j] (0 outside the matrix and off the
        couplings). Built from the couplings once per model and dtype and
        shared: read-only. Every dtype shares the offsets."""
        dtype = np.dtype(dtype)
        pair = self._diagonals_by_dtype.get(dtype)
        if pair is None:
            offsets = self._diagonal_offsets
            half = len(offsets) // 2
            # slot[k]: the index of offset k among the positive offsets.
            slot = np.zeros(self.n, dtype=np.intp)
            slot[offsets[half:]] = np.arange(half)
            i, j, w = self.couplings.T
            d = slot[j - i]
            data = np.zeros((len(offsets), self.n), dtype)
            data[half + d, j] = w  # J[i, j], offset j - i, read at column j
            data[half - 1 - d, i] = w  # J[j, i], offset i - j, read at column i
            data.setflags(write=False)
            pair = self._diagonals_by_dtype[dtype] = offsets, data
        return pair

    def adjacency(self) -> list:
        """Per-spin list of (neighbor, weight); iteration cost is the degree."""
        adj = [[] for _ in range(self.n)]
        for i, j, w in self.couplings.tolist():
            adj[i].append((j, w))
            adj[j].append((i, w))
        return adj

    @cached_property
    def _max_local_input(self) -> int:
        """max_i |h_i| + sum_j |J_ij|, which the model bounds by int64."""
        row_sum = abs(self._csr) @ np.ones(self.n, dtype=np.int64)
        return int((np.abs(self.h) + row_sum).max())

    def max_input_magnitude(self, n_rnd_max: int, q_max: int) -> int:
        """Worst-case |I| of one spin update; sizes the accumulator."""
        return self._max_local_input + abs(n_rnd_max) + abs(q_max)


def energy(model: IsingModel, state) -> int:
    """H(s) = -sum_i h_i s_i - sum_{i<j} J_ij s_i s_j, exact integer."""
    return int(replica_energies(model, np.asarray(state)[:, None])[0])


def replica_energies(model: IsingModel, plane) -> np.ndarray:
    """(R,) int64 energies of the R replicas of a spin-major (N, R) plane,
    each coupling counted once (s_i s_j gathered per coupling, as
    replica_cuts gathers edge ends), so every partial sum stays within
    sum |h| + sum |J|, which the model bounds by int64."""
    s = np.asarray(plane)
    if s.shape[0] != model.n:
        raise DimensionError(f"state has {s.shape[0]} spins, expected {model.n}")
    _check_spins(s)
    s = s.astype(np.int64)
    i, j, w = model.couplings.T
    pairs = np.take(s, i, axis=0) * np.take(s, j, axis=0)
    return -(model.h @ s) - np.einsum("er,e->r", pairs, w)


def cut_value(graph: WeightedGraph, state) -> int:
    """Total weight of edges crossing the partition induced by the state."""
    return int(replica_cuts(graph, np.asarray(state)[:, None])[0])


def replica_cuts(graph: WeightedGraph, plane) -> np.ndarray:
    """(R,) int64 cuts of the R replicas of a spin-major (N, R) plane: one
    gather of each edge endpoint's side, their XOR (True where the edge
    crosses the cut) and one contraction with the weights, in int64. Every
    partial sum is exact, as crossings are 0 or 1 and the graph bounds
    sum |w| by int64."""
    s = np.asarray(plane)
    if s.shape[0] != graph.n_nodes:
        raise DimensionError(f"state has {s.shape[0]} spins, expected {graph.n_nodes}")
    _check_spins(s)
    u, v, w = graph.edges.T
    side = s < 0
    crossed = np.take(side, u, axis=0)  # several times faster than side[u]
    crossed ^= np.take(side, v, axis=0)
    return np.einsum("er,e->r", crossed, w, dtype=np.int64)


def maxcut_to_ising(graph: WeightedGraph, weight_bits: int = 4) -> IsingModel:
    """Map MAX-CUT to Ising with h = 0, J_ij = -w_ij.

    Then H(s) = W_total - 2*cut(s): minimizing energy maximizes the cut.
    """
    return IsingModel(
        n=graph.n_nodes,
        h=np.zeros(graph.n_nodes, dtype=np.int64),
        couplings=graph.edges * (1, 1, -1),
        weight_bits=weight_bits,
    )


def pseudo_quantum_energy(model: IsingModel, replica_spins, q):
    """Replica-coupled energy: sum_k ( H(s_k) - q * sum_i s_{i,k} s_{i,k+1} ).

    replica_spins is an R x N array. The replicas form a ring: replica R - 1
    couples to replica 0, and at R = 1 a replica couples to itself (-q N).
    """
    sig = np.asarray(replica_spins)
    if sig.ndim != 2 or sig.shape[1] != model.n:
        raise DimensionError(f"replica array shape {sig.shape}, expected (R, {model.n})")
    total = int(replica_energies(model, sig.T).sum())
    nbr = np.roll(sig, -1, axis=0)
    inter = (sig * nbr).sum(axis=1)
    if isinstance(q, numbers.Integral):  # a numpy integer too
        return total - int(q) * int(inter.sum())
    return total - q * float(inter.sum())
