"""Multi-trial benchmark harness: single runs, sweeps, engine comparisons.

Trial k uses seed base_seed + k, so interrupted sweeps can resume and any
row can be reproduced in isolation. Results are emitted as a JSON summary
({instance, engine, params, trials, summary}) and a per-trial CSV.

Each instance is parsed once per process and reused by every later trial,
sweep point and comparison side: a file path is read once per process, so
a change to the file after its first use is not seen.
"""

from __future__ import annotations

import csv
import functools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from . import gset, hwsim, solver
from .ising import maxcut_to_ising
from .schedules import AnnealParams, LinearSchedule, QSchedule


class IntegrityError(RuntimeError):
    """A reported cut exceeds the registered best-known value."""


ENGINES = ("ssqa_ref", "ssqa_hw", "ssa", "psa")


# The types a RunConfig field of each annotation accepts; a float field
# also takes an int, and no numeric field takes a bool.
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


@dataclass(frozen=True)
class RunConfig:
    """One benchmark configuration. It checks itself on construction, so an
    invalid one cannot be built: a field of the wrong type raises TypeError
    and a value out of range raises ValueError."""

    instance: str = "G11"
    engine: str = "ssqa_ref"
    delay_kind: str = "dual_bram"
    replicas: int = 20
    steps: int = 500
    trials: int = 1
    seed: int = 1
    q_min: float = 0.0
    q_max: float = 2.0
    q_tau: int = 10
    q_beta: float = 0.05
    i0: str | float = "5"  # ramp spec, see parse_ramp
    n_rnd: str | float = "6:0"
    sparse_bypass: bool = True
    f_clk: float = hwsim.DEFAULT_F_CLK
    power_w: float = hwsim.DEFAULT_POWER_W
    workers: int = 1

    def __post_init__(self):
        for f in fields(self):
            value, accepted = getattr(self, f.name), _FIELD_TYPES.get(f.type)
            if accepted and (not isinstance(value, accepted)
                             or isinstance(value, bool) != (f.type == "bool")):
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if self.delay_kind not in hwsim.DELAY_KINDS:
            raise ValueError(f"unknown delay kind {self.delay_kind!r}; "
                             f"choose from {hwsim.DELAY_KINDS}")
        # Steps, replicas, the q staircase and both ramps, i0 >= 1 at both
        # ends but for psa (which reads i0 as a gain), then the cost model.
        params = self.anneal_params(self.seed)
        if self.engine != "psa":
            solver._schedule_extremes(params)
        hwsim.estimate_report(0, self.f_clk, self.power_w)
        # Recorded as the engine runs it.
        if self.engine == "ssa":  # R = 1, q = 0
            self.__dict__.update(replicas=1, q_min=0.0, q_max=0.0, q_tau=1, q_beta=0.0)
        elif self.engine == "psa":  # no q staircase, no noise ramp
            self.__dict__.update(q_min=0.0, q_max=0.0, q_tau=1, q_beta=0.0, n_rnd="0")

    def anneal_params(self, seed: int) -> AnnealParams:
        return AnnealParams(
            steps=self.steps,
            replicas=self.replicas,
            q=QSchedule(self.q_min, self.q_max, self.q_tau, self.q_beta),
            i0=parse_ramp(self.i0),
            n_rnd=parse_ramp(self.n_rnd),
            seed=seed,
        )


def parse_ramp(text: str) -> LinearSchedule:
    """'8' -> constant 8; '8:64' -> linear 8 to 64."""
    parts = str(text).split(":")
    if len(parts) == 1:
        return LinearSchedule.constant(float(parts[0]))
    if len(parts) == 2:
        return LinearSchedule(float(parts[0]), float(parts[1]))
    raise ValueError(f"bad ramp spec {text!r}; use 'v' or 'start:end'")


@functools.cache
def _load(instance: str):
    graph = gset.load_instance(instance)
    record = None
    try:
        record = gset.registry_lookup(instance)
    except gset.UnknownInstanceError:
        pass
    return graph, maxcut_to_ising(graph), record


def run_one_trial(config: RunConfig, trial_index: int) -> dict:
    graph, model, record = _load(config.instance)
    seed = config.seed + trial_index
    params = config.anneal_params(seed)
    if config.engine == "ssqa_hw":
        result, report = hwsim.run_hw(
            model, params, config.delay_kind, graph=graph,
            sparse_bypass=config.sparse_bypass, f_clk=config.f_clk,
            power_w=config.power_w)
    else:
        run = {"ssqa_ref": solver.run_ssqa, "ssa": solver.run_ssa,
               "psa": solver.run_psa}[config.engine]
        result = run(model, params, graph)
        report = hwsim.cycle_report(model, config.steps, config.sparse_bypass,
                                    config.f_clk, config.power_w)
    if record is not None and result.best_value > record.best_known_cut:
        raise IntegrityError(
            f"{config.instance}: cut {result.best_value} exceeds best known "
            f"{record.best_known_cut}; cut evaluation is broken")
    return {
        "trial": trial_index,
        "seed": seed,
        "best_cut": int(result.best_value),
        "best_replica": result.best_replica,
        "cycles": report.total_cycles,
        "latency_s": report.latency_s,
        "energy_j": report.energy_j,
    }


@dataclass
class TrialSummary:
    config: RunConfig
    trials: list
    best_known: int | None

    @property
    def cuts(self) -> np.ndarray:
        return np.array([t["best_cut"] for t in self.trials])

    def summary_dict(self) -> dict:
        cuts = self.cuts
        out = {
            "mean": float(cuts.mean()),
            "std": float(cuts.std(ddof=1)) if len(cuts) > 1 else 0.0,
            "max": int(cuts.max()),
            "min": int(cuts.min()),
            "total_latency_s": float(sum(t["latency_s"] for t in self.trials)),
            "total_energy_j": float(sum(t["energy_j"] for t in self.trials)),
        }
        if self.best_known:
            out["normalized_mean"] = float(cuts.mean() / self.best_known)
            out["best_known"] = self.best_known
        return out

    def as_json(self) -> str:
        return json.dumps({
            "instance": self.config.instance,
            "engine": self.config.engine,
            "params": asdict(self.config),
            "trials": self.trials,
            "summary": self.summary_dict(),
        }, indent=2)


def run_trials(config: RunConfig) -> TrialSummary:
    """Execute config.trials independent runs; ordering is by trial index."""
    # Loaded before the pool starts, so workers started by fork inherit the parse.
    record = _load(config.instance)[2]
    indices = range(config.trials)
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(run_one_trial, [config] * config.trials, indices))
    else:
        rows = [run_one_trial(config, i) for i in indices]
    return TrialSummary(config, rows, record.best_known_cut if record else None)


TRIAL_CSV_COLUMNS = ["trial", "seed", "best_cut", "best_replica", "cycles",
                     "latency_s", "energy_j"]


def write_trials_csv(path, summaries, extra_cols=()):
    """One row per trial; summaries may carry extra constant columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(extra_cols) + TRIAL_CSV_COLUMNS)
        for extras, summary in summaries:
            for row in summary.trials:
                writer.writerow(list(extras) + [row[c] for c in TRIAL_CSV_COLUMNS])


def sweep(config: RunConfig, field: str, values) -> list:
    """One ((value,), TrialSummary) per value of one RunConfig field, with
    the same trial seeds at every point."""
    return [((v,), run_trials(replace(config, **{field: v}))) for v in values]


def compare(config_a: RunConfig, config_b: RunConfig) -> tuple:
    """Paired comparison of two engine configurations.

    Returns (report, summary_a, summary_b). The report holds, per side "a"
    and "b", the engine, steps, replicas, summary and final-state memory,
    then the difference of the mean cuts a - b.
    """
    sa, sb = run_trials(config_a), run_trials(config_b)
    out = {}
    for tag, s in (("a", sa), ("b", sb)):
        _, model, _ = _load(s.config.instance)
        out[tag] = {
            "engine": s.config.engine,
            "steps": s.config.steps,
            "replicas": s.config.replicas,
            "summary": s.summary_dict(),
            # Memory model: solution storage is one bit per spin per replica.
            "final_state_bits": model.n * s.config.replicas,
        }
    out["mean_diff_a_minus_b"] = out["a"]["summary"]["mean"] - out["b"]["summary"]["mean"]
    return out, sa, sb
