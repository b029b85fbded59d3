"""Runs one CLI command and reports its own peak RSS.

    python3 perfbench/cli_child.py OUT.json TRACE <schreier arguments...>

Behaves like `python3 -m schreier.cli <arguments>` (same report on stdout,
same exit code) and writes {"peak_rss_mb": ...} to OUT.json.  The parent
cannot read the child's peak from `ru_maxrss`: Linux carries a process's
high-water mark over fork and exec, so a child's reads at least its
parent's RSS.  With TRACE 1 the span recorder is on, and OUT.json also
holds the command's counters and spans; the import of the CLI is timed as
`cli.import_s`.
"""

from __future__ import annotations

import json
import sys
import time

from worker import peak_rss_mb


def main(out_path, trace, argv):
    if not trace:
        from schreier import cli
        code = cli.main(argv)
        sys.stdout.flush()
        report = {}
    else:
        code, report = _traced(argv)
    report["peak_rss_mb"] = peak_rss_mb()
    with open(out_path, "w") as fh:
        json.dump(report, fh)
    return code


def _traced(argv):
    import tracer as tracing

    start = time.perf_counter()
    from schreier import cli
    import_s = time.perf_counter() - start
    from schreier import families, ordinals

    memo = getattr(families, "_member_cache", None)
    cache_info = getattr(ordinals.fundamental, "cache_info", None)
    tracer = tracing.Tracer()
    tracing.install(tracer, tracing.schreier_modules(with_cli=True))
    extra = {"cli.import_s": import_s}
    memo_before = len(memo) if memo is not None else 0
    info_before = cache_info() if cache_info is not None else None
    code = tracer.run_op(0, lambda: cli.main(argv))
    sys.stdout.flush()
    if info_before is not None:
        info_after = cache_info()
        extra["ordinals.fundamental.hits"] = info_after.hits - info_before.hits
        extra["ordinals.fundamental.misses"] = info_after.misses - info_before.misses
    else:
        tracer.missing["ordinals.fundamental.hit_ratio"] = "fundamental has no cache_info()"
    if memo is not None:
        extra["families.member.memo_entries"] = len(memo) - memo_before
    else:
        tracer.missing["families.member.memo_entries"] = "families._member_cache not found"
    report = {"trace": tracing.summary(tracer, extra)}
    report["trace"]["spans"] = tracer.spans
    return code, report


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
