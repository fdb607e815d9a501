#!/usr/bin/env python3
"""Check that the benchmark is steady: run each workload once per seed and
report, for every end-to-end metric, the median and the spread (distance
between first and third quartile over the median), against its bound.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workloads a,b]

Run from the root of a checkout. Exits non-zero when a run is incorrect or a
spread (setup_s aside) is not below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    opts = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in opts.workloads.split(","):
        values = {}
        for seed in range(opts.first_seed, opts.first_seed + opts.seeds):
            out = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: INCORRECT {result}", file=sys.stderr)
                steady = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({opts.seeds} seeds)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            note = f"bound {bound:<5} {'ok' if ok else 'WIDE'}"
            print(f"  {name:32} median {med:<14.6g} spread {spread:7.4f}  {note}")
            print("      " + " ".join(f"{v:.4g}" for v in vs))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
