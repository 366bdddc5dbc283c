"""Ising model data types, energy / cut evaluation, and the MAX-CUT mapping.

All arithmetic on models within their declared weight bit-width is exact
integer arithmetic; nothing here rounds. Edges and couplings are stored as
tuples; a graph's int64 edge arrays and a model's coupling CSR are built on
first use and cached on the instance, so construction does no array work.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse


class DimensionError(ValueError):
    """State length does not match the model or graph."""


class WeightRangeError(ValueError):
    """A bias or coupling does not fit the declared bit-width."""


def _check_state(spins, n) -> np.ndarray:
    s = np.asarray(spins)
    if s.shape[-1] != n:
        raise DimensionError(f"state has {s.shape[-1]} spins, expected {n}")
    if not ((s == 1) | (s == -1)).all():
        raise ValueError("spins must be -1 or +1")
    return s.astype(np.int64)


def _columns(triples) -> tuple:
    """(a, b, w) int64 read-only arrays of a tuple of (a, b, w) triples."""
    cols = np.array(triples, dtype=np.int64).reshape(-1, 3).T.copy()
    cols.setflags(write=False)
    return tuple(cols)


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph; edges normalized to u < v, 0-based."""

    n_nodes: int
    edges: tuple  # of (u, v, w)

    def __post_init__(self):
        seen = set()
        for u, v, w in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (0 <= u < v < self.n_nodes):
                raise ValueError(f"edge ({u},{v}) out of range or not u<v")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))

    @property
    def total_weight(self) -> int:
        return sum(w for _, _, w in self.edges)

    @cached_property
    def _edge_arrays(self) -> tuple:
        """(u, v, w) int64 arrays of the edge list."""
        return _columns(self.edges)


@dataclass(frozen=True)
class IsingModel:
    """Ising instance: biases h, couplings J (i < j, symmetric), bit-width."""

    n: int
    h: np.ndarray
    couplings: tuple  # of (i, j, J_ij), i < j
    weight_bits: int = 4

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        h = np.asarray(self.h, dtype=np.int64)
        if h.shape != (self.n,):
            raise DimensionError(f"h has shape {h.shape}, expected ({self.n},)")
        object.__setattr__(self, "h", h)
        lo, hi = -(1 << (self.weight_bits - 1)), (1 << (self.weight_bits - 1)) - 1
        if (h < lo).any() or (h > hi).any():
            raise WeightRangeError(f"h outside [{lo},{hi}] for {self.weight_bits} bits")
        seen = set()
        for i, j, w in self.couplings:
            if not (0 <= i < j < self.n):
                raise ValueError(f"coupling ({i},{j}) out of range or not i<j")
            if (i, j) in seen:
                raise ValueError(f"duplicate coupling ({i},{j})")
            if not (lo <= w <= hi):
                raise WeightRangeError(
                    f"J[{i},{j}]={w} outside [{lo},{hi}] for {self.weight_bits} bits"
                )
            seen.add((i, j))

    @cached_property
    def _csr(self) -> sparse.csr_matrix:
        i, j, w = _columns(self.couplings)
        m = sparse.csr_matrix((np.concatenate([w, w]),
                               (np.concatenate([i, j]), np.concatenate([j, i]))),
                              shape=(self.n, self.n), dtype=np.int64)
        for a in (m.data, m.indices, m.indptr):
            a.setflags(write=False)
        return m

    def coupling_matrix(self) -> sparse.csr_matrix:
        """Symmetric N x N coupling matrix as CSR (zero diagonal), columns
        sorted within each row. Built once per model and shared: read-only."""
        return self._csr

    def adjacency(self) -> list:
        """Per-spin list of (neighbor, weight); iteration cost is the degree."""
        adj = [[] for _ in range(self.n)]
        for i, j, w in self.couplings:
            adj[i].append((j, w))
            adj[j].append((i, w))
        return adj

    def max_input_magnitude(self, n_rnd_max: int, q_max: int) -> int:
        """Worst-case |I| of one spin update; sizes the accumulator."""
        row_sum = abs(self._csr) @ np.ones(self.n, dtype=np.int64)
        local = np.abs(self.h) + row_sum
        return int(local.max()) + abs(n_rnd_max) + abs(q_max)


def energy(model: IsingModel, state) -> int:
    """H(s) = -sum_i h_i s_i - sum_{i<j} J_ij s_i s_j, exact integer."""
    s = _check_state(state, model.n)
    # s.J.s counts every coupling twice.
    return -int(model.h @ s) - int(s @ (model._csr @ s)) // 2


def cut_value(graph: WeightedGraph, state) -> int:
    """Total weight of edges crossing the partition induced by the state."""
    s = _check_state(state, graph.n_nodes)
    u, v, w = graph._edge_arrays
    return int(w[s[u] != s[v]].sum())


def maxcut_to_ising(graph: WeightedGraph, weight_bits: int = 4) -> IsingModel:
    """Map MAX-CUT to Ising with h = 0, J_ij = -w_ij.

    Then H(s) = W_total - 2*cut(s): minimizing energy maximizes the cut.
    """
    couplings = tuple((u, v, -w) for u, v, w in graph.edges)
    return IsingModel(
        n=graph.n_nodes,
        h=np.zeros(graph.n_nodes, dtype=np.int64),
        couplings=couplings,
        weight_bits=weight_bits,
    )


def pseudo_quantum_energy(model: IsingModel, replica_spins, q, periodic: bool = True):
    """Replica-coupled energy: sum_k ( H(s_k) - q * sum_i s_{i,k} s_{i,k+1} ).

    replica_spins is an R x N array. The replica index wraps periodically by
    default; with periodic=False the k = R boundary term is dropped.
    """
    sig = np.asarray(replica_spins)
    if sig.ndim != 2 or sig.shape[1] != model.n:
        raise DimensionError(f"replica array shape {sig.shape}, expected (R, {model.n})")
    total = sum(energy(model, sig[k]) for k in range(sig.shape[0]))
    nbr = np.roll(sig, -1, axis=0)
    inter = (sig * nbr).sum(axis=1)
    if not periodic:
        inter = inter[:-1]
    return total - q * int(inter.sum()) if isinstance(q, int) else total - q * float(inter.sum())
