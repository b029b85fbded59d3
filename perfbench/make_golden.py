"""Writes golden.json: every op's exact summary on the default seed.

    PYTHONPATH=src python3 perfbench/make_golden.py

Refuses to write if any op fails its own check, so golden values are only
taken from outputs that the oracles and witness re-checks accept.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "tests"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from worker import cli_runner  # noqa: E402


def main():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    runner = cli_runner(env, False, [])
    golden, failed = {}, []
    for name in WORKLOADS:
        golden[name] = {}
        for op in workloads.build(name, workloads.DEFAULT_SEED, oracles, runner):
            out = op.run()
            problems = op.check(out)
            if problems:
                failed.append(f"{name}/{op.name}: {problems}")
            if op.summary is not None:
                golden[name][op.name] = json.loads(json.dumps(op.summary(out)))
    if failed:
        print("\n".join(failed), file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        fh.write("{\n")
        for i, name in enumerate(WORKLOADS):
            fh.write(f" {json.dumps(name)}: {{\n")
            rows = sorted(golden[name].items())
            for j, (op, summary) in enumerate(rows):
                comma = "," if j + 1 < len(rows) else ""
                fh.write(f"  {json.dumps(op)}: {json.dumps(summary, sort_keys=True)}{comma}\n")
            fh.write(" }" + ("," if i + 1 < len(WORKLOADS) else "") + "\n")
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
