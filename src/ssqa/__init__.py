"""Stochastic simulated quantum annealing for Ising / MAX-CUT problems.

Library layout:

* ising      - model types, energy and cut evaluation, MAX-CUT mapping
* gset       - G-set benchmark parsing and instance registry
* schedules  - q(t) staircase, saturation-bound and noise ramps
* rng        - 64-bit xorshift streams shared by all engines
* solver     - reference engines (replica-coupled, single-network, tanh)
* hwsim      - cycle-accurate spin-serial datapath model and cost reports
* bench      - multi-trial harness, sweeps, CSV/JSON emission
* cli        - the ssqa-bench command line tool
"""

from .ising import (
    DimensionError,
    IsingModel,
    WeightedGraph,
    WeightRangeError,
    cut_value,
    energy,
    maxcut_to_ising,
    pseudo_quantum_energy,
)
from .gset import GsetRecord, load_instance, parse_gset, registry_lookup, serialize_gset
from .schedules import AnnealParams, LinearSchedule, QSchedule, i0_at, n_rnd_at, q_at
from .solver import RunResult, run_psa, run_ssa, run_ssqa, select_best_replica
from .hwsim import (
    CycleReport,
    DualBramDelay,
    ShiftRegDelay,
    count_total_cycles,
    cycle_report,
    estimate_report,
    resource_scaling_model,
    run_hw,
)

__version__ = "0.1.0"
