"""Record the reference outputs that every benchmark trial is checked against.

    python3 perfbench/record.py

For each workload, runs trial seeds 1..TRIAL_SEEDS through
ssqa.bench.run_one_trial and writes perfbench/expected.json: the best cut per
trial seed and the cycle count per trial. A trial seed outside that range is
held out; its trial still gets every other check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from workloads import WORKLOADS  # noqa: E402

# Trial seeds 1-24 cover most trials of the spread runs (run seeds 1-10,
# about ten trials each); later trial seeds are held out.
TRIAL_SEEDS = 24


def main() -> int:
    from ssqa import bench

    out = {}
    for name, config in WORKLOADS.items():
        cfg = bench.RunConfig(seed=1, workers=1, **config)
        rows = [bench.run_one_trial(cfg, k) for k in range(TRIAL_SEEDS)]
        cycles = {r["cycles"] for r in rows}
        if len(cycles) != 1:
            raise SystemExit(f"{name}: cycle count varies by seed: {cycles}")
        out[name] = {"best_cut": {str(r["seed"]): r["best_cut"] for r in rows},
                     "cycles": cycles.pop()}
        print(name, out[name], flush=True)
    (HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
