"""A fully connected instance: every pair of 800 spins coupled.

The paper's annealer targets fully connected Ising models, where the dual
block-RAM datapath streams all N - 1 couplings of a spin row, one MAC cycle
each, plus one finalize cycle. This demo builds a +-1 K_800 (the paper's
800-node size) from a fixed seed as one (E, 3) int64 edge array, writes it
as G-set text and reads it back, then runs the cycle-accurate model with
the sparse bypass off and checks it bit for bit against the reference
engine: N (N - 1) + N cycles per step.
"""

import time

import numpy as np

from ssqa import (AnnealParams, WeightedGraph, maxcut_to_ising, parse_gset, run_hw,
                  run_ssqa, serialize_gset)

n = 800
rng = np.random.default_rng(2026)
u, v = np.triu_indices(n, 1)  # every pair u < v
start = time.perf_counter()
graph = WeightedGraph(n, np.column_stack([u, v, rng.choice([-1, 1], size=u.size)]))
model = maxcut_to_ising(graph)
model.coupling_matrix()
built = time.perf_counter() - start
print(f"K_{n}: {len(graph.edges):,} edges, total weight {graph.total_weight}, "
      f"built with its coupling matrix in {built:.2f} s")

text = serialize_gset(graph)
assert parse_gset(text) == graph  # graphs compare by value
print(f"G-set text: {len(text):,} bytes, parses back to the same graph")

params = AnnealParams(steps=4, replicas=4, seed=7)
ref = run_ssqa(model, params, graph, record_trace=True)
hw, report = run_hw(model, params, "dual_bram", graph=graph, sparse_bypass=False,
                    record_trace=True)
exact = (hw.best_value == ref.best_value and np.array_equal(hw.best_state, ref.best_state)
         and all(np.array_equal(sa, sb) and np.array_equal(ia, ib)
                 for (sa, ia), (sb, ib) in zip(ref.trace, hw.trace)))
assert exact, "run_hw differs from run_ssqa"
assert report.cycles_per_step == n * (n - 1) + n
print(f"run_hw, sparse bypass off: cut {hw.best_value} after {params.steps} steps, "
      f"bit-exact vs run_ssqa: {exact}")
print(f"{report.cycles_per_step:,} cycles per step = N(N-1) + N "
      f"({report.mac_cycles:,} MAC + {report.fin_cycles:,} finalize in total), "
      f"{report.latency_s / params.steps * 1e3:.2f} ms per step at {report.f_clk / 1e6:.0f} MHz")
