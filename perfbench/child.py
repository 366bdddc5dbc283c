"""One benchmark process: set up a workload, run its trials, check them.

run.py starts this file in a fresh interpreter with PYTHONPATH pointing at
the checkout's ``src`` and the BLAS/OpenMP pools pinned to one thread, so
``setup_s`` includes ``import ssqa`` and the peak RSS covers one workload.

    child.py setup --root DIR --workload NAME
    child.py run --root DIR --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]

The last line of standard output is one JSON object with the results. A run
checks every trial against perfbench/expected.json and stops if it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

EXPECTED = HERE / "expected.json"

# Where run_one_trial looks up each engine's entry point.
ENGINE_ENTRY = {"ssqa_ref": ("solver", "run_ssqa"), "ssa": ("solver", "run_ssa"),
                "ssqa_hw": ("hwsim", "run_hw")}

# The speed of a shared host drifts by up to 2x over minutes, so identical
# work gives host seconds that differ more than any useful bound. Each timing
# is therefore also given in normalized seconds: scaled by REF_NOMINAL_S over
# the time of a fixed reference kernel run in the same process next to it
# (right after set-up; right before and after each trial). The kernel loops
# in Python over small numpy arrays, as the hot paths of ssqa do, and never
# calls ssqa, so a change to ssqa cannot move it.
REF_ITERS = 10_000
REF_NOMINAL_S = 0.1


def reference_kernel_s() -> float:
    """Host seconds of the fixed reference kernel."""
    import numpy as np

    x = np.arange(1, 21, dtype=np.uint64)
    acc = np.zeros(20, dtype=np.int64)
    t0 = time.perf_counter()
    for _ in range(REF_ITERS):
        x ^= x << np.uint64(13)
        x ^= x >> np.uint64(7)
        x ^= x << np.uint64(17)
        acc += np.where(x & np.uint64(1), 1, -1)
    return time.perf_counter() - t0


def setup(root: Path, config: dict):
    """Import ssqa and build the instance as a user would; return (seconds, graph, model)."""
    t0 = time.perf_counter()
    import ssqa
    from ssqa import gset, ising

    graph = gset.load_instance(config["instance"])
    model = ising.maxcut_to_ising(graph)
    model.coupling_matrix()
    if config["engine"] == "ssqa_hw":
        model.adjacency()
    elapsed = time.perf_counter() - t0
    src = (root / "src").resolve()
    if src not in Path(ssqa.__file__).resolve().parents:
        raise SystemExit(f"imported ssqa from {ssqa.__file__}, not from {src}")
    return elapsed, graph, model


def provenance(seed: int) -> dict:
    import platform

    import numpy
    import scipy
    from ssqa import rng

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rng_backend": "numba" if rng._HAVE_NUMBA else "numpy",
        "seed": seed,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Capture:
    """Keeps the engine's return value, which run_one_trial does not pass on."""

    def __init__(self, module, attr):
        self.value = None
        orig = getattr(module, attr)

        def capture(*args, **kwargs):
            self.value = orig(*args, **kwargs)
            return self.value

        setattr(module, attr, capture)


def load_expected(workload: str) -> dict:
    """The recorded outputs of one workload (see record.py)."""
    if not EXPECTED.is_file():
        raise SystemExit(f"{EXPECTED} is missing; write it with perfbench/record.py")
    return json.loads(EXPECTED.read_text())[workload]


def check_trial(row, result, graph, model, cfg, expected) -> list:
    """Problems with one trial's outputs; an empty list means it is correct.

    The bit-exact comparison of a run_hw trial is check_bit_exact.
    """
    from ssqa import gset, ising

    problems = []
    cut = row["best_cut"]
    want = expected["best_cut"].get(str(row["seed"]))
    if want is not None and cut != want:
        problems.append(f"best cut {cut} != recorded {want} for seed {row['seed']}")
    if row["cycles"] != expected["cycles"]:
        problems.append(f"cycles {row['cycles']} != recorded {expected['cycles']}")
    if result is None:
        return problems + ["engine result was not captured"]
    if int(result.best_value) != cut:
        problems.append(f"row cut {cut} != engine best_value {result.best_value}")
    # H = W - 2 cut under the MAX-CUT mapping.
    h = ising.energy(model, result.best_state)
    w = graph.total_weight
    if w - h != 2 * cut:
        problems.append(f"cut {cut} != (W - H)/2 = ({w} - {h})/2")
    best_known = gset.registry_lookup(cfg.instance).best_known_cut
    if not 0 < cut <= best_known:
        problems.append(f"cut {cut} outside (0, best known {best_known}]")
    return problems


def check_bit_exact(seed, result, graph, model, cfg) -> list:
    """Problems if a run_hw result differs from solver.run_ssqa with the same params."""
    from ssqa import solver

    ref = solver.run_ssqa(model, cfg.anneal_params(seed), graph)
    same = (ref.best_value == result.best_value and ref.best_replica == result.best_replica
            and (ref.best_state == result.best_state).all()
            and (ref.per_replica_final == result.per_replica_final).all())
    return [] if same else ["run_hw result differs from solver.run_ssqa"]


def run(args) -> dict:
    spec = WORKLOADS[args.workload]
    setup_s, graph, model = setup(args.root, spec)
    from ssqa import bench
    import ssqa

    expected = load_expected(args.workload)
    cfg = bench.RunConfig(seed=args.seed, workers=1, **spec)
    module, attr = ENGINE_ENTRY[cfg.engine]
    capture = Capture(getattr(ssqa, module), attr)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    times, traced_times, rows, traced_rows, failures = [], [], [], {}, []
    hw_results = []  # (trial, seed, result) of run_hw trials, compared after the loop
    norm = {False: [], True: []}  # normalized trial seconds, untraced / traced
    ref_before = ref_setup = reference_kernel_s()
    refs = [ref_setup]
    k = 0
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and k % 2 == 1
        capture.value = None
        row, problems = None, []
        try:
            if traced:
                with tracer.installed(k):
                    t0 = time.perf_counter()
                    row = bench.run_one_trial(cfg, k)
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                row = bench.run_one_trial(cfg, k)
                dt = time.perf_counter() - t0
            result = capture.value
            if cfg.engine == "ssqa_hw" and result is not None:
                result = result[0]
            problems = check_trial(row, result, graph, model, cfg, expected)
        except Exception as exc:  # a raising trial is a failed trial
            problems = [f"{type(exc).__name__}: {exc}"]
        ref_after = reference_kernel_s()
        refs.append(ref_after)
        if problems:
            failures.append({"trial": k, "problems": problems})
        else:
            rows.append(row)
            if cfg.engine == "ssqa_hw":
                hw_results.append((k, row["seed"], result))
            (traced_times if traced else times).append(dt)
            norm[traced].append(dt * REF_NOMINAL_S / ((ref_before + ref_after) / 2))
            if traced:
                traced_rows[k] = row
        ref_before = ref_after
        k += 1
        elapsed = time.perf_counter() - begin
        if k >= (2 if tracer else 1) and elapsed + elapsed / k > args.seconds:
            break

    # Before the bit-exact reruns, so that their memory stays out of the figure.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for trial, seed, result in hw_results:
        try:
            problems = check_bit_exact(seed, result, graph, model, cfg)
        except Exception as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"trial": trial, "problems": problems})

    out = {
        "workload": args.workload,
        "setup_s": setup_s,
        "setup_norm_s": setup_s * REF_NOMINAL_S / ref_setup,
        "trial_s": times,
        "trial_norm_s": norm[False],
        "reference_kernel_s": refs,
        "attempted": k,
        "failures": failures,
        "best_cuts": [r["best_cut"] for r in rows],
        "best_known": bench.gset.registry_lookup(cfg.instance).best_known_cut,
        "sim_latency_s": rows[0]["latency_s"] if rows else None,
        "updates_per_trial": cfg.replicas * model.n * cfg.steps,
        "peak_rss_mb": peak_rss_mb,
        "provenance": provenance(args.seed),
    }
    if tracer is not None:
        from tracer import layer_metrics

        out["traced_trial_s"] = traced_times
        if traced_rows:
            metrics, self_sum = layer_metrics(tracer.spans, tracer.counts, traced_rows,
                                              out["updates_per_trial"])
            if times:
                metrics["trace_overhead_frac"] = (
                    statistics.median(norm[True]) / statistics.median(norm[False]) - 1, "frac")
            out["layers"] = metrics
            out["layer_self_sum_s"] = self_sum
        if args.spans:
            tracer.write(args.spans)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="write the traced run's spans here (CSV, gzip)")
    args = p.parse_args(argv)
    if args.mode == "setup":
        setup_s = setup(args.root, WORKLOADS[args.workload])[0]
        out = {"setup_s": setup_s, "setup_norm_s": setup_s * REF_NOMINAL_S / reference_kernel_s()}
    else:
        out = run(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
