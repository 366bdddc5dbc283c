"""Workload definitions of the ssqa benchmark.

Each workload maps its name to the fields of one ``ssqa.bench.RunConfig``
(minus the seed, which comes from the command line), run one trial at a time
through ``ssqa.bench.run_one_trial``. All use the tuned default schedule and
integer mode; trial k of a run with seed s anneals with seed s + k.
"""

from __future__ import annotations

# Steps of the g14-hw slice. run_hw costs 55-90 ms of host time per G14 step
# on a 2-core x86 host, so 40 steps keep one trial near 3 s.
HW_STEPS = 40

WORKLOADS = {
    # The paper's headline configuration: 500 steps x 20 replicas. The RNG
    # layer and the step kernel share the time; hwsim only counts cycles.
    "g11-ssqa": {"instance": "G11", "engine": "ssqa_ref", "replicas": 20, "steps": 500},
    # Same RNG and solver code with arrays 1/20 as wide, so per-step dispatch
    # dominates. 500 steps rather than the 5000-step comparison budget: one
    # 5000-step trial takes about 43 s on a 2-core x86 host with the numpy RNG
    # fallback, longer than a whole run.
    "g11-ssa": {"instance": "G11", "engine": "ssa", "replicas": 1, "steps": 500},
    # The only workload that runs the cycle-accurate model. G14 is the densest
    # bundled instance (10,188 cycles per step, 92% MAC), so per-cycle
    # simulator cost dominates. The q staircase is the default one scaled to
    # the slice: q reaches q_max = 2 at 80% of the run, as it does at 500
    # steps. Unscaled, q rounds to 0 for all 40 steps and 4 of trial seeds
    # 1-24 collapse to cuts below 110 of 3064.
    "g14-hw": {"instance": "G14", "engine": "ssqa_hw", "delay_kind": "dual_bram",
               "replicas": 20, "steps": HW_STEPS,
               "q_tau": 1, "q_beta": 2.0 / (0.8 * HW_STEPS)},
}
