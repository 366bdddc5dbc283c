"""ssqa benchmark: run one workload (or all) and report its metrics.

    python3 perfbench/run.py --workload g11-ssqa --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the root of a source checkout; the package is imported from its
``src`` directory. With ``--trace 0`` the run reports the end-to-end metrics
(listed in BENCHMARK.json); with ``--trace 1`` it reports the per-layer
metrics from a span trace of every second trial. Every trial is checked (see
child.py); the command exits 1 if any check fails, and 2 if the checkout
cannot be benchmarked. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. End-to-end times are in
normalized seconds: host seconds scaled by a reference kernel timed next to
them (see child.py). The lines before it also give the raw host seconds. The
full result, with its provenance, is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# setup_s is the median of this many fresh interpreters: the workload's own
# process plus SETUP_RUNS - 1 that only set up.
SETUP_RUNS = 7
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMBA_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, timeout) -> dict:
    """Run child.py in a fresh interpreter and return its final JSON line."""
    cmd = [sys.executable, str(HERE / "child.py"), *args, "--root", str(ROOT)]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark process failed ({proc.returncode}): {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    beyond = 10
    return sorted(values)[n - beyond - 1], round(100 * (n - beyond) / n, 1)


def end_to_end(res: dict) -> dict:
    """End-to-end metrics; times are in normalized seconds (see child.py)."""
    p50 = statistics.median(res["trial_norm_s"])
    cuts = res["best_cuts"]
    return {
        "setup_s": (statistics.median(res["setup_norm_samples_s"]), "s"),
        "trial_s.p50": (p50, "s"),
        "spin_updates_per_s": (res["updates_per_trial"] / p50, "1/s"),
        "cut_ratio_mean": (statistics.fmean(cuts) / res["best_known"], "ratio"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    OUT.mkdir(exist_ok=True)
    args = ["run", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        args += ["--spans", str(OUT / f"spans_{name}.csv.gz")]
    setups = [run_child(["setup", "--workload", name], 60)
              for _ in range(0 if trace else SETUP_RUNS - 1)]
    res = run_child(args, CHILD_TIMEOUT_S)
    setups.append(res)
    res["setup_samples_s"] = [s["setup_s"] for s in setups]
    res["setup_norm_samples_s"] = [s["setup_norm_s"] for s in setups]
    res["provenance"]["git_commit"] = git_commit()
    failed = len(res["failures"])
    ok = failed == 0 and bool(res["trial_s"])
    if trace:
        ok = ok and "layers" in res
        metrics = res.get("layers", {})
    else:
        metrics = end_to_end(res) if ok else {}
    res["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    res["correct"] = ok
    (OUT / f"result_{name}_trace{trace}.json").write_text(json.dumps(res, indent=1))
    report(res, trace)
    return res


def report(res: dict, trace: int) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    name, times = res["workload"], res["trial_s"]
    print(f"== {name}  seed {res['provenance']['seed']}  "
          f"rng {res['provenance']['rng_backend']}  commit {res['provenance']['git_commit']}")
    for f in res["failures"]:
        print(f"  FAILED trial {f['trial']}: {'; '.join(f['problems'])}")
    fail_frac = len(res["failures"]) / res["attempted"]
    print(f"  trial_fail_frac     {fail_frac:.6g}  ({len(res['failures'])}/{res['attempted']} trials)")
    if not trace:
        n = {"setup_s": len(res["setup_samples_s"]), "peak_rss_mb": 1}
        for k, m in res["metrics"].items():
            print(f"  {k:<19} {m['value']:.6g} {m['unit']}  (n={n.get(k, len(times))})")
        tail = tail_percentile(res["trial_norm_s"])
        print(f"  trial_s.tail        " + (f"{tail[0]:.6g} s at p{tail[1]}  (n={len(times)})" if tail
                                        else f"n/a: needs 11 trials, have {len(times)}"))
        if times:
            print(f"  raw host seconds    setup_s {statistics.median(res['setup_samples_s']):.6g}, "
                  f"trial_s.p50 {statistics.median(times):.6g}; reference kernel "
                  f"{statistics.median(res['reference_kernel_s']):.6g} s (n={len(res['reference_kernel_s'])})")
        if res["sim_latency_s"] is not None:
            print(f"  sim_latency_s       {res['sim_latency_s']:.6g} s simulated at 166 MHz  (per trial)")
        return
    n = len(res.get("traced_trial_s", []))
    for k, m in res["metrics"].items():
        print(f"  {k:<31} {m['value']:.6g} {m['unit']}  (mean of {n} traced trials)")
    if "layer_self_sum_s" in res:
        print(f"  layer self times sum to {res['layer_self_sum_s']:.6g} s per traced trial "
              f"(traced trial {res['metrics']['traced_trial_s']['value']:.6g} s)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="ssqa benchmark")
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ssqa" / "__init__.py").is_file():
        print(f"no ssqa source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    prefix = len(names) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["failures"]) for r in results),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k): m
                    for r in results for k, m in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
