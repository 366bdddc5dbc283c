"""Compare two spread summaries of the same workload (parent vs change).

    python3 perfbench/compare.py PARENT.json CHANGE.json

Inputs are .bench_out/spread_<workload>_trace0.json files written by
spread.py. For each end-to-end metric prints both medians, the change as a
share of the parent's median, and whether it stays within the metric's bound
from BENCHMARK.json. Summaries whose RNG backend differs (numba kernel vs
numpy fallback) measure different code and are flagged as not comparable;
the command then exits 3. It exits 1 if a metric worsens beyond its bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Host properties that must match for timings to be comparable.
MUST_MATCH = ("rng_backend", "nproc", "python", "numpy", "scipy")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    diffs = [k for k in MUST_MATCH if a["provenance"].get(k) != b["provenance"].get(k)]
    for k in diffs:
        print(f"NOT COMPARABLE: {k} {a['provenance'].get(k)} vs {b['provenance'].get(k)}")
    worse = False
    for name, m in a["metrics"].items():
        if name not in b["metrics"] or name not in metrics:
            continue
        pa, pb = m["median"], b["metrics"][name]["median"]
        change = (pb - pa) / pa
        bad = -change if metrics[name]["better"] == "higher" else change
        verdict = "worse beyond bound" if bad > metrics[name]["bound"] else "within bound"
        worse |= bad > metrics[name]["bound"]
        print(f"{a['workload']:<9} {name:<19} parent {pa:.6g}  change {pb:.6g} {m['unit']}  "
              f"{change:+.2%}  ({verdict}, bound {metrics[name]['bound']})")
    if diffs:
        return 3
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
