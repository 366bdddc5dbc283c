"""Ising model data types, energy / cut evaluation, and the MAX-CUT mapping.

All arithmetic on models within their declared weight bit-width is exact
integer arithmetic; nothing here rounds. Edges and couplings are stored as
tuples; a graph's int64 edge arrays and a model's coupling CSR (in each step
dtype asked for) are built on first use and cached on the instance, so
construction does no array work.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
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

    @cached_property
    def _narrow_weights(self) -> np.ndarray:
        """The edge weights in the narrowest signed integer that holds them."""
        w = self._edge_arrays[2]
        return w.astype(np.min_scalar_type(-1 - int(np.abs(w).max(initial=0))))


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

    def adjacency(self) -> list:
        """Per-spin list of (neighbor, weight); iteration cost is the degree."""
        adj = [[] for _ in range(self.n)]
        for i, j, w in self.couplings:
            adj[i].append((j, w))
            adj[j].append((i, w))
        return adj

    @cached_property
    def _max_local_input(self) -> int:
        """max_i |h_i| + sum_j |J_ij|."""
        row_sum = abs(self._csr) @ np.ones(self.n, dtype=np.int64)
        return int((np.abs(self.h) + row_sum).max())

    def max_input_magnitude(self, n_rnd_max: int, q_max: int) -> int:
        """Worst-case |I| of one spin update; sizes the accumulator."""
        return self._max_local_input + abs(n_rnd_max) + abs(q_max)


def energy(model: IsingModel, state) -> int:
    """H(s) = -sum_i h_i s_i - sum_{i<j} J_ij s_i s_j, exact integer."""
    return int(replica_energies(model, np.asarray(state)[:, None])[0])


def replica_energies(model: IsingModel, plane) -> np.ndarray:
    """(R,) int64 energies of the R replicas of a spin-major (N, R) plane."""
    s = np.asarray(plane)
    if s.shape[0] != model.n:
        raise DimensionError(f"state has {s.shape[0]} spins, expected {model.n}")
    _check_spins(s)
    s = s.astype(np.int64)
    # s.J.s counts every coupling twice.
    return -(model.h @ s) - (s * (model._csr @ s)).sum(axis=0) // 2


def cut_value(graph: WeightedGraph, state) -> int:
    """Total weight of edges crossing the partition induced by the state."""
    return int(replica_cuts(graph, np.asarray(state)[:, None])[0])


def replica_cuts(graph: WeightedGraph, plane) -> np.ndarray:
    """(R,) int64 cuts of the R replicas of a spin-major (N, R) plane, from
    one gather of each edge endpoint. The (E, R) planes are held in the
    narrowest integer that holds every weight (int8 on the G-set), and the
    sum is buffered, so no (E, R) int64 plane is formed."""
    s = np.asarray(plane)
    if s.shape[0] != graph.n_nodes:
        raise DimensionError(f"state has {s.shape[0]} spins, expected {graph.n_nodes}")
    _check_spins(s)
    u, v, _ = graph._edge_arrays
    w = graph._narrow_weights
    side = (s < 0).astype(w.dtype)
    crossed = np.take(side, u, axis=0)  # several times faster than side[u]
    crossed ^= np.take(side, v, axis=0)  # 1 where the edge crosses the cut
    crossed *= w[:, None]
    return np.add.reduce(crossed, axis=0, dtype=np.int64)


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
    total = int(replica_energies(model, sig.T).sum())
    nbr = np.roll(sig, -1, axis=0)
    inter = (sig * nbr).sum(axis=1)
    if not periodic:
        inter = inter[:-1]
    if isinstance(q, numbers.Integral):  # a numpy integer too
        return total - int(q) * int(inter.sum())
    return total - q * float(inter.sum())
