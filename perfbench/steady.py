"""Steadiness of the benchmark: two sets of runs of the same code, compared.

    python3 perfbench/steady.py

For every workload of BENCHMARK.json it makes RUNS timed runs of run.py
per set, with tracing off and run_seconds long. Set 1 uses seeds 1..RUNS
and set 2 seeds RUNS+1..2*RUNS; the two sets alternate run by run, so both
see the same drift of the host. For every workload and end-to-end metric
it prints each set's median and quartiles, the quartile spread as a share
of the median, and how far set 2's median lies from set 1's, each against
the metric's bound in BENCHMARK.json. It also compares the share of failed
operations between the sets. It exits 0 only if every figure is within its
bound. The raw results go to .perfbench_out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = results[workload] = ([], [])
        for i in range(1, RUNS + 1):
            for s, seed in enumerate((i, RUNS + i)):
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                     "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, check=True)
                summary = json.loads(proc.stdout.strip().splitlines()[-1])
                sets[s].append(summary)
                values = {k: round(v["value"], 4) for k, v in summary["metrics"].items()}
                print(f"{workload} set {s + 1} seed {seed}: {values} "
                      f"failed {summary['failed']}/{summary['attempted']}", flush=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1))

    steady = True
    for workload, sets in results.items():
        print(f"\n{workload}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in sets]
        steady &= shares[0] == shares[1]
        print(f"  failed share per set: {shares}")
        for metric, bound in bounds.items():
            medians = []
            for j, runs in enumerate(sets, 1):
                q1, med, q3 = statistics.quantiles(
                    [r["metrics"][metric]["value"] for r in runs], n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                steady &= spread <= bound
                print(f"  {metric:12s} set {j}: median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}"
                      f"  spread {spread:.3f} (bound {bound}){'' if spread <= bound else '  OVER'}")
            drift = medians[1] / medians[0] - 1.0
            steady &= abs(drift) <= bound
            print(f"  {metric:12s} set 2 vs set 1: {drift:+.3f}"
                  f"{'' if abs(drift) <= bound else '  OVER'}")
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
