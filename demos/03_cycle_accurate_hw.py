"""Cycle-accurate hardware model: bit-exactness, cycle counts, cost report.

The spin-serial datapath model executes the same update rule spin by spin
through its delay lines: one MAC cycle per coupling of the spin's row, then
one finalize cycle. Its results are bit-exact equal to the vectorized
reference engine, and its cycle count is an exact closed form: N*(k+1) per
step on a regular graph of degree k.
"""

import numpy as np

from ssqa import (
    AnnealParams,
    cycle_report,
    load_instance,
    maxcut_to_ising,
    resource_scaling_model,
    run_hw,
    run_ssqa,
)

graph = load_instance("G11")
model = maxcut_to_ising(graph)
params = AnnealParams(steps=20, replicas=4, seed=3)  # short run for the demo

ref = run_ssqa(model, params, graph, record_trace=True)
for kind in ("dual_bram", "shift_register"):
    hw, report = run_hw(model, params, kind, graph=graph, record_trace=True)
    exact = all(
        np.array_equal(sa, sb) and np.array_equal(ia, ib)
        for (sa, ia), (sb, ib) in zip(ref.trace, hw.trace)
    )
    print(f"{kind:15s} cut {hw.best_value}, bit-exact vs reference: {exact}, "
          f"{report.cycles_per_step} cycles/step "
          f"({report.mac_cycles:,} MAC + {report.fin_cycles:,} finalize in total)")

# Full-length G11 budget: degree 4, so 800*(4+1) = 4000 cycles per step.
# cycle_report prices a run of any engine without running it.
report = cycle_report(model, steps=500)
print(f"\n500-step G11 budget: {report.total_cycles:,} cycles "
      f"({report.mac_cycles:,} MAC + {report.fin_cycles:,} finalize)")
print(f"at {report.f_clk/1e6:.0f} MHz: latency {report.latency_s*1e3:.2f} ms, "
      f"energy {report.energy_j*1e3:.3f} mJ, area-delay {report.adp_s*1e3:.2f} ms "
      f"(at utilization {report.utilization})")

print("\ndelay-line resource scaling (spin-plane registers per replica):")
for n in (100, 800, 4000):
    sr = resource_scaling_model(n, "shift_register")
    db = resource_scaling_model(n, "dual_bram")
    print(f"  N={n:5d}: shift_register {sr['registers']:6d} registers, "
          f"dual_bram {db['registers']} registers "
          f"({db['bram_bits']:,} BRAM bits)")
