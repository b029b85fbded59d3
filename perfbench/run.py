"""Benchmark of the schreier toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads: verify, norms,
analysis, cli (see README.md in this directory).  A single client runs
one workload closed-loop: one op at a time, each waited for.  Every pass
over the op list runs in a fresh interpreter with PYTHONHASHSEED=0, so
each pass starts with cold caches, as every CLI user does.

With --trace 0 the run repeats untraced passes for S seconds (and until at
least 100 ops were timed) and reports the end-to-end metrics.  With
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics, plus the tracing overhead.  Every op's output is
checked outside the timed region.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import reference
from tracer import LIBRARY_LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify", "norms", "analysis", "cli")

MIN_OPS = 100        # so that p90 has at least 10 samples beyond it
SETUP_SAMPLES = 7    # set-up is timed in at least this many fresh interpreters
STOP_STARTING_S = 100  # no new pass after this, so a run ends well inside 180 s
PASS_TIMEOUT_S = 50



def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class WorkerFailed(Exception):
    pass


def spawn(workload, seed, mode):
    """Runs one worker process to completion and returns its JSON result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    spawned = _now()
    proc = subprocess.Popen([sys.executable, WORKER, workload, str(seed), repr(spawned), mode],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any CLI child it started
        proc.communicate()
        raise WorkerFailed(f"{mode} pass of {workload} exceeded {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def timed_pass(workload, seed, mode):
    """One pass, with the machine's speed measured just before and after it."""
    result, speed = reference.measure_around(lambda: spawn(workload, seed, mode))
    result["speed"] = speed
    return result


def percentile(values, p):
    """Nearest-rank percentile."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(p / 100 * len(ranked)) - 1)]


def setup_samples(workload, seed, passes):
    """Set-up times at the reference speed, from the passes and extra probes."""
    samples = [p["setup_s"] * p["speed"] for p in passes]
    while len(samples) < SETUP_SAMPLES:
        probe = timed_pass(workload, seed, "setup")
        samples.append(probe["setup_s"] * probe["speed"])
    return samples


def end_to_end(passes, setups):
    latencies = [t * p["speed"] for p in passes for t in p["latencies_s"]]
    n_pass = len(passes)
    return {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} fresh interpreters"),
        "wall_s": (statistics.median(p["wall_s"] * p["speed"] for p in passes), "s",
                   f"median of {n_pass} passes"),
        "latency_p50_ms": (1000 * percentile(latencies, 50), "ms", f"p50 of {len(latencies)} ops"),
        "latency_p90_ms": (1000 * percentile(latencies, 90), "ms", f"p90 of {len(latencies)} ops"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB",
                        f"median of {n_pass} passes"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t, workload):
    """Per-layer metrics of one traced pass: (value, unit, source keys)."""
    self_s, calls, counts = t["self_s"], t["calls"], t["counts"]

    def busy(prefix):
        return sum(v for k, v in self_s.items() if k == prefix or k.startswith(prefix + "."))

    library_s = sum(busy(layer) for layer in LIBRARY_LAYERS)
    fund_hits = counts.get("ordinals.fundamental.hits", 0)
    fund_total = fund_hits + counts.get("ordinals.fundamental.misses", 0)
    t_calls = calls.get("norms.T", 0)
    return {
        "ordinals.busy_s": (busy("ordinals"), "s", ()),
        "ordinals.fundamental.calls": (calls.get("ordinals.fundamental", 0), "count",
                                       ("ordinals.fundamental",)),
        "ordinals.fundamental.hit_ratio": (_ratio(fund_hits, fund_total), "ratio",
                                           ("ordinals.fundamental", "ordinals.fundamental.hit_ratio")),
        "families.busy_s": (busy("families"), "s", ()),
        "families.member.calls": (calls.get("families.member", 0), "count", ("families.member",)),
        "families.member.busy_s": (self_s.get("families.member", 0.0), "s", ("families.member",)),
        "families.member.memo_entries": (counts.get("families.member.memo_entries", 0), "count",
                                         ("families.member.memo_entries",)),
        "families.member.hit_ratio": (_ratio(counts.get("families.member.hits", 0),
                                             calls.get("families.member", 0)), "ratio",
                                      ("families.member", "families.member.hit_ratio")),
        "families.enum.sets": (counts.get("families.iter_maximal.items", 0), "count",
                               ("families.iter_maximal",)),
        "families.verify.busy_s": (self_s.get("families.verify", 0.0), "s", ()),
        "families.verify.patterns": (counts.get("families.verify.patterns", 0), "count",
                                     ("families.verify_bracket_inclusion", "families.verify.patterns")),
        "families.threshold.rejections": (counts.get("families.threshold.rejections", 0), "count",
                                          ("families.threshold_search", "families.threshold.rejections")),
        "vectors.busy_s": (busy("vectors"), "s", ()),
        "vectors.combine.calls": (calls.get("vectors.combine", 0), "count", ("vectors.combine",)),
        "vectors.evaluate.calls": (calls.get("vectors.evaluate", 0), "count", ("vectors.evaluate",)),
        "norms.busy_s": (busy("norms"), "s", ()),
        "norms.T.calls": (t_calls, "count", ("norms.norm",)),
        "norms.T.busy_s": (self_s.get("norms.T", 0.0), "s", ("norms.norm",)),
        "norms.T.busy_s_per_call": (_ratio(self_s.get("norms.T", 0.0), t_calls), "s", ("norms.norm",)),
        "norms.X.calls": (calls.get("norms.X", 0), "count", ("norms.norm",)),
        "norms.X.busy_s": (self_s.get("norms.X", 0.0), "s", ("norms.norm",)),
        "norms.X.unconverged": (counts.get("norms.X.unconverged", 0), "count", ("norms.norm",)),
        "norms.S.busy_s": (self_s.get("norms.S", 0.0), "s", ("norms.norm",)),
        "norms.cover.busy_s": (self_s.get("norms.cover", 0.0), "s",
                               ("norms.interval_norm", "norms.norm_j")),
        "constructions.busy_s": (busy("constructions"), "s", ()),
        "constructions.scc.calls": (calls.get("constructions.scc_basic", 0), "count",
                                    ("constructions.scc_basic",)),
        "constructions.budget_exhausted": (counts.get("constructions.budget_exhausted", 0), "count",
                                           ("constructions.budget_exhausted",)),
        "analysis.busy_s": (busy("analysis"), "s", ()),
        "analysis.distortion.tried_ratio": (_ratio(counts.get("analysis.distortion.tried", 0),
                                                   counts.get("analysis.distortion.pairs", 0)), "ratio",
                                            ("analysis.distortion_witness", "analysis.distortion.tried_ratio")),
        "cli.import_s": (counts.get("cli.import_s", 0.0), "s", ()),
        "cli.parsing.busy_s": (self_s.get("cli.parsing", 0.0), "s", ()),
        "cli.reports.busy_s": (self_s.get("cli.reports", 0.0), "s", ("cli._emit",)),
        "cli.compute_s": (library_s if workload == "cli" else 0.0, "s", ()),
        "bench.self_s": (self_s.get("bench", 0.0), "s", ()),
    }


def per_layer(untraced, traced, workload):
    metrics, missing = {}, {}
    rows = []
    for p in traced:
        row = layer_metrics(p["trace"], workload)
        rows.append({name: (value * p["speed"] if unit == "s" else value, unit, sources)
                     for name, (value, unit, sources) in row.items()})
    absent = {}
    for p in traced:
        absent.update(p["trace"]["missing"])
    for name, (_, unit, sources) in rows[0].items():
        gone = [s for s in sources if s in absent]
        if gone:
            missing[name] = "; ".join(f"{s}: {absent[s]}" for s in gone)
            continue
        metrics[name] = (statistics.median(r[name][0] for r in rows), unit,
                         f"median of {len(rows)} traced passes")
    traced_wall = statistics.median(p["wall_s"] * p["speed"] for p in traced)
    # each traced pass runs right after an untraced one: the difference
    # within a pair is less exposed to the machine's drift than one of medians
    overhead = statistics.median(t["wall_s"] * t["speed"] - u["wall_s"] * u["speed"]
                                 for u, t in zip(untraced, traced))
    for name in ("import_s", "inputs_s"):
        metrics[f"setup.{name}"] = (statistics.median(p[name] * p["speed"] for p in untraced + traced),
                                    "s", "median of all passes")
    metrics["trace.wall_s"] = (traced_wall, "s", f"median of {len(traced)} traced passes")
    metrics["trace.overhead_s"] = (overhead, "s",
                                   f"median over {len(traced)} pairs of traced minus untraced wall_s")
    metrics["trace.spans"] = (statistics.median(p["trace"]["spans_kept"] + p["trace"]["spans_dropped"]
                                                for p in traced), "count", "median of traced passes")
    return metrics, missing


def run(workload, seed, seconds, trace):
    start = _now()
    deadline = start + seconds
    spawn(workload, seed, "setup")  # untimed: byte-compiles the sources once
    untraced, traced = [], []
    while True:
        untraced.append(timed_pass(workload, seed, "pass"))
        if trace:
            traced.append(timed_pass(workload, seed, "trace"))
        now = _now()
        n_ops = sum(len(p["latencies_s"]) for p in untraced)
        if (now >= deadline and (trace or n_ops >= MIN_OPS)) or now - start >= STOP_STARTING_S:
            break
    missing = {}
    if trace:
        metrics, missing = per_layer(untraced, traced, workload)
    else:
        metrics = end_to_end(untraced, setup_samples(workload, seed, untraced))
    passes = untraced + traced
    attempted = sum(len(p["latencies_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    return metrics, missing, attempted, failures, statistics.median(p["speed"] for p in passes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="one workload, or all four in turn (metrics then prefixed by workload)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [os.path.join(ROOT, "src", "schreier", "__init__.py"), os.path.join(ROOT, "tests", "oracles.py")]
    absent = [p for p in needed if not os.path.exists(p)]
    if absent:
        print(f"not a schreier source checkout: missing {', '.join(absent)}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    prefix = args.workload == "all"
    total_attempted, all_failures, reported = 0, [], {}
    for workload in names:
        try:
            metrics, missing, attempted, failures, speed = run(workload, args.seed, args.seconds,
                                                               args.trace)
        except WorkerFailed as exc:
            print(f"benchmark aborted: {exc}", file=sys.stderr)
            return 1
        print(f"workload {workload}, seed {args.seed}, trace {args.trace}, "
              f"nproc {os.cpu_count()}, python {sys.version.split()[0]}; times in seconds at the "
              f"reference speed (measured x speed factor, median factor {speed:.4g})")
        for name, (value, unit, basis) in metrics.items():
            print(f"  {name:36s} {value:14.6g} {unit:6s} ({basis})")
            reported[f"{workload}.{name}" if prefix else name] = {"value": value, "unit": unit}
        for name, reason in missing.items():
            print(f"  {name:36s} MISSING ({reason})")
        print(f"  {'error_rate':36s} {len(failures) / attempted:14.6g} ratio  "
              f"({len(failures)} failed of {attempted} ops)")
        for f in failures[:10]:
            print(f"FAILED {workload} {f['op']}: {' | '.join(f['problems'])}", file=sys.stderr)
        total_attempted += attempted
        all_failures += failures
    print(json.dumps({
        "correct": not all_failures,
        "attempted": total_attempted,
        "failed": len(all_failures),
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
