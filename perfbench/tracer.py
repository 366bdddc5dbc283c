"""Span recorder for the traced benchmark run.

The recorder wraps the public callables of each ssqa module at runtime, in
the namespace where the caller looks them up (``solver.cut_value``, not
``ising.cut_value``; ``RngStreams.next_block`` on the class), so no call
escapes its span. Source files are never changed. Spans are kept in memory
as (name, start, end, parent, trial, work) tuples and written out when the
run ends; ``parent`` is the index of the enclosing recorded span or -1.

The simulator's cycles are counted, not spanned: every MAC cycle of
``hwsim.run_hw`` reads the t plane of the delay line once, and every finalize
(FIN) cycle writes one word to it.
"""

from __future__ import annotations

import csv
import functools
import gzip
import time
from contextlib import contextmanager


def _targets():
    """(span name, owner, attribute, work-of-args) for every wrapped callable.

    The layer of a span is the part of its name before the first dot.
    """
    from ssqa import bench, gset, hwsim, ising, rng, solver

    model = ising.IsingModel
    streams = rng.RngStreams
    words = lambda args: args[0].n_streams * args[1]  # noqa: E731
    targets = [
        ("bench.run_one_trial", bench, "run_one_trial", None),
        ("gset.load_instance", gset, "load_instance", None),
        ("gset.registry_lookup", gset, "registry_lookup", None),
        ("ising.WeightedGraph", ising.WeightedGraph, "__post_init__", None),
        ("ising.maxcut_to_ising", bench, "maxcut_to_ising", None),
        ("ising.coupling_matrix", model, "coupling_matrix", None),
        ("ising.adjacency", model, "adjacency", None),
        ("ising.max_input_magnitude", model, "max_input_magnitude", None),
        ("ising.cut_value", solver, "cut_value", None),
        ("rng.RngStreams", streams, "__init__", None),
        ("rng.next_bipolar", streams, "next_bipolar", None),
        ("rng.next_block", streams, "next_block", words),
        ("solver.run_ssqa", solver, "run_ssqa", None),
        ("solver.run_ssa", solver, "run_ssa", None),
        ("solver.initial_state", solver, "initial_state", None),
        ("solver.initial_state", hwsim, "initial_state", None),
        ("solver.finalize", solver, "_finalize", None),
        ("solver.finalize", hwsim, "_finalize", None),
        ("hwsim.run_hw", hwsim, "run_hw", None),
        ("hwsim.count_total_cycles", hwsim, "count_total_cycles", None),
        ("hwsim.estimate_report", hwsim, "estimate_report", None),
    ]
    for owner in (solver, hwsim):
        for fn in ("q_value_at", "i0_at", "n_rnd_at"):
            targets.append((f"schedules.{fn}", owner, fn, None))
    return targets


def _counted():
    """(counter name, owner, attribute) for every callable counted per call."""
    from ssqa import hwsim

    return [(name, delay, attr)
            for delay in (hwsim.DualBramDelay, hwsim.ShiftRegDelay)
            for name, attr in (("hwsim.mac_cycles", "read_t"), ("hwsim.fin_cycles", "write"))]


class Tracer:
    """Records one span per call of every wrapped callable while installed,
    and counts the calls of every counted one."""

    def __init__(self):
        self.spans = []
        self.counts = {name: 0 for name, _, _ in _counted()}
        self.trial = -1
        self._stack = []

    def _wrap(self, name, orig, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.trial,
                              work(args) if work else 0)

        return wrapper

    def _count(self, name, orig):
        counts = self.counts

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return orig(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, trial: int):
        """Wrap every target for the duration of one trial, then restore."""
        self.trial = trial
        saved = []
        try:
            for name, owner, attr, work in _targets():
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, work))
            for name, owner, attr in _counted():
                orig = owner.__dict__[attr]
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._count(name, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)
            self.trial = -1

    def write(self, path):
        """Write every span as CSV (gzip): index, name, start, end, parent, trial, work."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start", "end", "parent", "trial", "work"])
            for i, span in enumerate(self.spans):
                out.writerow((i,) + span)


def self_times(spans):
    """Per-span self time: its duration minus the durations of its children."""
    self_s = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    return self_s


def layer_metrics(spans, counts, trial_rows, updates_per_trial):
    """Per-layer metrics, each a mean per traced trial.

    counts are the Tracer's call counts; trial_rows maps a traced trial index
    to its bench row; updates_per_trial is replicas * N * steps. Counts come
    from the spans, the call counts and the rows, so they repeat exactly from
    run to run.
    """
    n = len(trial_rows)
    self_s = self_times(spans)
    calls, incl, layer_self = {}, {}, {}
    words = 0
    for i, (name, start, end, _, _, work) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + (end - start)
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s[i]
        if name == "rng.next_block":
            words += work
    # The CycleReport count of the modelled design; the reference engines
    # report it too, without simulating any cycle.
    cycles = sum(row["cycles"] for row in trial_rows.values()) / n
    trial_s = incl["bench.run_one_trial"] / n
    sched = [k for k in calls if k.startswith("schedules.")]

    def per(name, table=calls):
        return table.get(name, 0) / n

    m = {
        "traced_trial_s": (trial_s, "s"),
        "gset.load_instance.calls": (per("gset.load_instance"), "count"),
        "gset.load_instance.s": (per("gset.load_instance", incl), "s"),
        "gset.self_s": (layer_self.get("gset", 0.0) / n, "s"),
        "ising.maxcut_to_ising.s": (per("ising.maxcut_to_ising", incl), "s"),
        "ising.coupling_matrix.calls": (per("ising.coupling_matrix"), "count"),
        "ising.adjacency.calls": (per("ising.adjacency"), "count"),
        "ising.max_input_magnitude.s": (per("ising.max_input_magnitude", incl), "s"),
        "ising.cut_value.calls": (per("ising.cut_value"), "count"),
        "ising.cut_value.s": (per("ising.cut_value", incl), "s"),
        "ising.self_s": (layer_self.get("ising", 0.0) / n, "s"),
        "schedules.calls": (sum(calls[k] for k in sched) / n, "count"),
        "schedules.s": (sum(incl[k] for k in sched) / n, "s"),
        "rng.next_block.calls": (per("rng.next_block"), "count"),
        "rng.words": (words / n, "count"),
        "rng.next_block.s": (per("rng.next_block", incl), "s"),
        "rng.words_per_s": (words / incl["rng.next_block"], "1/s"),
        "rng.self_s": (layer_self.get("rng", 0.0) / n, "s"),
        "solver.self_s": (layer_self.get("solver", 0.0) / n, "s"),
        "solver.ns_per_update": (layer_self.get("solver", 0.0) / n / updates_per_trial * 1e9, "ns"),
        "hwsim.self_s": (layer_self.get("hwsim", 0.0) / n, "s"),
        "hwsim.host_ns_per_cycle": (layer_self.get("hwsim", 0.0) / n / cycles * 1e9, "ns"),
        "hwsim.cycles_per_host_s": (cycles * n / layer_self.get("hwsim", 0.0), "1/s"),
        "hwsim.cycles": (cycles, "count"),
        "hwsim.mac_cycles": (counts["hwsim.mac_cycles"] / n, "count"),
        "hwsim.fin_cycles": (counts["hwsim.fin_cycles"] / n, "count"),
        "hwsim.count_total_cycles.calls": (per("hwsim.count_total_cycles"), "count"),
        "hwsim.count_total_cycles.s": (per("hwsim.count_total_cycles", incl), "s"),
        "bench.run_one_trial.self_s": (layer_self.get("bench", 0.0) / n, "s"),
        "bench.overhead_frac": (layer_self.get("bench", 0.0) / n / trial_s, "frac"),
    }
    self_sum = sum(layer_self.values()) / n
    return m, self_sum
