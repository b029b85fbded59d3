"""A fixed reference computation that measures the machine's current speed.

Shared machines change speed by up to 1.7x over tens of seconds (other
tenants on the same host), which moves every time measured in a run
together.  `run.py` times `measure()` in its own process three times
just before and three times just after each pass, and scales the pass's
times by NOMINAL_S / (median of the six): seconds at the reference speed.

The kernels are stdlib-only and import nothing from the program, so no
change to the program can move them.  They mirror the program's mix:
small-integer loops, a small tuple-keyed dict memo, exact rational
arithmetic and hashing of nested frozen dataclasses, each taking about an
eighth of a round, and a large memo that takes the other half.  The large
memo allocates and probes ~15 MB of small objects, a working set far
beyond the CPU caches like that of the member memo (~180k entries, ~100 MB
in `verify`), so that it slows down with the program when memory
bandwidth or the shared cache is contended.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

# measure() on an unloaded 2-core x86-64 VM with Python 3.11.7; it only
# fixes the scale, so that reported values read as seconds.
NOMINAL_S = 0.120


@dataclass(frozen=True)
class _Term:
    exponent: tuple
    coefficient: int


def _integers():
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return acc


def _dict_memo():
    memo = {}
    for i in range(30_000):
        key = (i % 97, i % 89, (i % 7,))
        memo[key] = memo.get(key, 0) + 1
    return len(memo)


def _rationals():
    total = Fraction(0)
    for i in range(1, 5_000):
        total += Fraction(i % 13 + 1, i % 8 + 1)
    return total


def _dataclasses():
    seen = {}
    for i in range(6_000):
        term = _Term((_Term((), i % 50), i % 13), i % 5)
        seen[term] = seen.get(term, 0) + 1
    return len(seen)


def _large_memo():
    memo = {}
    for i in range(40_000):
        memo[(i >> 3, (i & 7, i % 13))] = [i]
    total = 0
    for i in range(40_000):
        j = i * 7919 % 40_000  # a scattered probe order
        total += memo[(j >> 3, (j & 7, j % 13))][0]
    return total


def measure():
    """Seconds taken by one round of the five kernels."""
    start = time.perf_counter()
    _integers()
    _dict_memo()
    _rationals()
    _dataclasses()
    _large_memo()
    return time.perf_counter() - start


def measure_around(fn, rounds=3):
    """Runs fn() between `rounds` reference rounds before and after it.

    Returns fn's result and the speed factor: NOMINAL_S over the median of
    all rounds, which scales measured seconds to seconds at the reference
    speed.  The median keeps one disturbed round from moving the factor.
    """
    times = [measure() for _ in range(rounds)]
    result = fn()
    times += [measure() for _ in range(rounds)]
    return result, NOMINAL_S / statistics.median(times)
