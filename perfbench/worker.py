"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SPAWN_TIME MODE

MODE is `setup` (stop once the first op is ready), `pass` (one untraced
pass over the op list) or `trace` (one traced pass).  SPAWN_TIME is the
parent's CLOCK_MONOTONIC reading just before it started this process, so
set-up time covers interpreter start as well.  Prints one JSON object.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb():
    """This process's own peak RSS (VmHWM).  `ru_maxrss` would not do: Linux
    carries the high-water mark over fork and exec, so it reads at least
    the RSS of the process that started this one."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv):
    workload, seed, spawned, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    t0 = _now()
    import schreier  # noqa: F401  (the import is part of set-up)
    t_import = _now()
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import oracles
    import workloads

    runner, children = None, []
    if workload == "cli":
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
        runner = cli_runner(env, mode == "trace", children)
    ops = workloads.build(workload, seed, oracles, runner)
    t_ready = _now()
    result = {"setup_s": t_ready - spawned, "import_s": t_import - t0, "inputs_s": t_ready - t_import}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    from schreier import families, ordinals
    cache_info = getattr(ordinals.fundamental, "cache_info", None)  # before wrapping hides it
    tracer = None
    if mode == "trace" and workload != "cli":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, tracing.schreier_modules())

    memo = getattr(families, "_member_cache", None)
    memo_before = len(memo) if memo is not None else 0
    info_before = cache_info() if cache_info is not None else None
    latencies, outputs = [], []
    for op_id, op in enumerate(ops):
        start = time.perf_counter()
        try:
            out = tracer.run_op(op_id, op.run) if tracer is not None else op.run()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out = _Raised(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - start)
        outputs.append(out)
    info_after = cache_info() if cache_info is not None else None
    memo_added = len(memo) - memo_before if memo is not None else 0
    peak_mb = max(c["peak_rss_mb"] for c in children) if workload == "cli" else peak_rss_mb()

    # checks run after the pass: whatever they cache or allocate cannot
    # reach the ops or the peak RSS read above
    golden = None
    if seed == workloads.DEFAULT_SEED or any(op.fixed for op in ops):
        with open(os.path.join(HERE, "golden.json")) as fh:
            golden = json.load(fh).get(workload, {})
    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, _Raised):
            problems = [out.error]
        else:
            problems = _check(op, out, seed, golden, workloads.DEFAULT_SEED)
        if problems:
            failures.append({"op": op.name, "problems": problems[:3]})

    result.update({
        "latencies_s": latencies,
        "wall_s": sum(latencies),
        "peak_rss_mb": peak_mb,
        "failures": failures,
    })
    if tracer is not None:
        extra = {"families.member.memo_entries": memo_added}
        if info_before is not None:
            extra["ordinals.fundamental.hits"] = info_after.hits - info_before.hits
            extra["ordinals.fundamental.misses"] = info_after.misses - info_before.misses
        else:
            tracer.missing["ordinals.fundamental.hit_ratio"] = "fundamental has no cache_info()"
        if memo is None:
            tracer.missing["families.member.memo_entries"] = "families._member_cache not found"
        result["trace"] = tracing.summary(tracer, extra)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracing.write_spans(tracer, os.path.join(OUT_DIR, f"spans-{workload}.jsonl"))
    if workload == "cli" and mode == "trace":
        result["trace"] = _merge_cli_traces([c["trace"] for c in children], workload)
    print(json.dumps(result))
    return 0


class _Raised:
    def __init__(self, error):
        self.error = error


def _check(op, out, seed, golden, default_seed):
    try:
        problems = list(op.check(out))
        if golden is not None and op.summary is not None and (seed == default_seed or op.fixed):
            expected = golden.get(op.name)
            got = json.loads(json.dumps(op.summary(out)))
            if expected is None:
                problems.append("no golden value recorded")
            elif not _same(got, expected):
                problems.append(f"golden value differs: got {got}, expected {expected}")
    except Exception as exc:  # a check that cannot run counts the op as failed
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return problems


def _same(got, expected):
    """Equal, except that floats need only agree within FLOAT_RTOL."""
    import workloads

    if isinstance(got, float) and isinstance(expected, float):
        return math.isclose(got, expected, rel_tol=workloads.FLOAT_RTOL)
    if isinstance(got, list) and isinstance(expected, list):
        return len(got) == len(expected) and all(map(_same, got, expected))
    if isinstance(got, dict) and isinstance(expected, dict):
        return got.keys() == expected.keys() and all(_same(got[k], expected[k]) for k in got)
    return got == expected


def cli_runner(env, trace, children):
    """Runs each CLI command as a fresh `cli_child.py` subprocess, waits for
    it, and appends the child's own report (peak RSS, and its trace when
    `trace`) to `children`."""
    import subprocess

    os.makedirs(OUT_DIR, exist_ok=True)

    def runner(argv):
        path = os.path.join(OUT_DIR, f"cli-child-{os.getpid()}-{len(children)}.json")
        proc = subprocess.run([sys.executable, os.path.join(HERE, "cli_child.py"), path, str(int(trace))]
                              + argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=120, text=True)
        with open(path) as fh:
            children.append(json.load(fh))
        os.remove(path)
        return proc.returncode, proc.stdout

    return runner


def _merge_cli_traces(traces, workload):
    """Sums the per-command traces of one pass; each span's op id becomes
    the command's position in the pass."""
    import tracer as tracing

    merged = {"calls": {}, "counts": {}, "self_s": {}, "missing": {}, "spans_kept": 0, "spans_dropped": 0}
    spans = []
    for i, t in enumerate(traces):
        for key in ("calls", "counts", "self_s"):
            for name, value in t[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        merged["missing"].update(t["missing"])
        kept = t["spans"][:max(0, tracing.MAX_KEPT_SPANS - len(spans))]
        merged["spans_kept"] += len(kept)
        merged["spans_dropped"] += t["spans_dropped"] + len(t["spans"]) - len(kept)
        spans.extend(span[:4] + [i] for span in kept)
    with open(os.path.join(OUT_DIR, f"spans-{workload}.jsonl"), "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return merged


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
