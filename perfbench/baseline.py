"""Runs the benchmark over several seeds and records the result.

    python3 perfbench/baseline.py

For each workload: one untraced run per seed 1-10 (end-to-end metrics)
and one traced run on seed 1 (per-layer metrics), 20 s each.  Writes
every run's values to baseline.json, and per metric the median and the
spread (distance between the first and third quartile over the median,
from `statistics.quantiles`).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "baseline.json")
SEEDS = tuple(range(1, 11))
SECONDS = 20


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    out = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "machine": platform.machine(), "seconds": SECONDS, "seeds": list(SEEDS), "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            res = run_once(workload, seed, SECONDS, 0)
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(workload, seed, runs[-1]["metrics"], file=sys.stderr)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name] for r in runs]
            summary[name] = {"median": statistics.median(values),
                             "spread": spread(values)}
        traced = run_once(workload, SEEDS[0], SECONDS, 1)
        out["workloads"][workload] = {
            "end_to_end": summary,
            "runs": runs,
            "per_layer_seed": SEEDS[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(OUT, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
