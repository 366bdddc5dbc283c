"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload g11-ssqa --seeds 1-5
    python3 perfbench/spread.py --workload all --seeds 1-10 --baseline "note"

Each run lasts BENCHMARK.json's run_seconds. For every metric prints the
median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json. The
summary, with the provenance of the last run, goes to
.bench_out/spread_<workload>_trace<t>.json; --baseline also appends it as an
entry of perfbench/baseline.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def spread_workload(name, seeds, seconds, trace) -> dict:
    runs = []
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        line = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
        if proc.returncode != 0 or not line.get("correct"):
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"{name} seed {seed}: run failed ({proc.returncode})")
        runs.append(line)
    result = json.loads((OUT / f"result_{name}_trace{trace}.json").read_text())
    metrics = {}
    for key, m in runs[0]["metrics"].items():
        metrics[key] = dict(summarize([r["metrics"][key]["value"] for r in runs]), unit=m["unit"])
    return {"workload": name, "trace": trace, "seeds": seeds, "seconds": seconds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "provenance": result["provenance"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--baseline", metavar="NOTE", help="append the summary to baseline.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = {}
    for name in names:
        s = spread_workload(name, seed_list(args.seeds), seconds, args.trace)
        summaries[name] = s
        (OUT / f"spread_{name}_trace{args.trace}.json").write_text(json.dumps(s, indent=1))
        print(f"== {name}  {len(s['seeds'])} runs  attempted {s['attempted']}  failed {s['failed']}")
        for key, m in s["metrics"].items():
            bound = bounds.get(key)
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            flag = "" if bound is None or m["spread"] is None else (
                "  ok" if m["spread"] < bound / 3 else "  WIDE" if m["spread"] > bound else "  >bound/3")
            print(f"  {key:<31} median {m['median']:.6g} {m['unit']}  "
                  f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {spread}"
                  + (f"  bound {bound}{flag}" if bound is not None else ""))
    if args.baseline:
        path = HERE / "baseline.json"
        doc = json.loads(path.read_text()) if path.is_file() else {"entries": []}
        doc["entries"].append({"note": args.baseline, "workloads": summaries})
        path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
