"""Independent reference oracles used by the test suite.

These deliberately avoid the production algorithms' shortcuts:

* `tsirelson_oracle` enumerates admissible partitions directly from the
  implicit definition, allowing gaps between pieces (the production DP
  only looks at covering interval chunks, justified by monotonicity; the
  oracle does not rely on that argument beyond restricting pieces to
  interval hulls, which preserves minima and can only increase piece
  values under a lattice norm).

* `tsirelson_interval_oracle` takes the best sum of `tsirelson_oracle`
  values over every system of at most n successive interval pieces, gaps
  allowed, where the production kernel only looks at covering chunks.

* `schlumprecht_oracle` is the unmemoised recursion over exactly k
  contiguous chunks that the production evaluator replaced with the
  memoised "at most k" kernel.

* `dfs_leaves_oracle` and `members_over_oracle` list the DFS leaves and
  the members of a family by testing every subset with the exhaustive
  decider, where the production enumerations extend greedy states.

* `alpha_oracle` maximises the alpha-index diagnostic over every interval
  piece system of each target block with the exhaustive decider and no
  pruning, where the production search shares the X(xi) norm's pruned
  admissible-sum kernel.

* `wmax_certificate` certifies that a claimed value function equals the
  sup over the full norming set: it checks that every claimed value is
  achieved by an explicit valid functional, and that the value function is
  closed under one application of each functional formation rule over all
  successive set systems (not only interval systems).  Closure over the
  minimal declared sizes suffices because best-cover(j)/j is
  non-increasing in j.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterator, List, Sequence, Tuple

from schreier.analysis import ALPHA_TARGET_BLOCKS
from schreier.families import SchreierFamily, member, member_exhaustive
from schreier.norms import MixedSchreierSpace, norm
from schreier.ordinals import Ordinal, fundamental, omega_power
from schreier.vectors import BlockSequence, SumNode, Vector, evaluate, validate_functional


# ---------------------------------------------------------------------------
# family enumeration oracles
# ---------------------------------------------------------------------------


def _subsets(universe: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    for r in range(len(universe) + 1):
        yield from combinations(universe, r)


def dfs_leaves_oracle(fam, first: int, horizon: int) -> List[Tuple[int, ...]]:
    """Members with min = first inside [first, horizon] that no element
    above their max extends, in DFS (lexicographic) order."""
    leaves = []
    for rest in _subsets(range(first + 1, horizon + 1)):
        E = (first,) + rest
        if member_exhaustive(E, fam) and not any(
            member_exhaustive(E + (x,), fam) for x in range(E[-1] + 1, horizon + 1)
        ):
            leaves.append(E)
    return sorted(leaves)


def members_over_oracle(fam, universe: Sequence[int]) -> List[Tuple[int, ...]]:
    """Every member with support inside universe, in DFS (lexicographic) order."""
    return sorted(E for E in _subsets(universe) if member_exhaustive(E, fam))


# ---------------------------------------------------------------------------
# Tsirelson oracle
# ---------------------------------------------------------------------------


def tsirelson_oracle(x: Vector, _memo=None) -> Fraction:
    """Brute-force implicit Tsirelson norm.

    max(sup |x_i|, max over k >= 2, successive interval pieces
    I_1 < ... < I_k inside the support with k <= min I_1, of
    (1/2) sum oracle(I_i x)); pieces may start anywhere and leave gaps.
    """
    if _memo is None:
        _memo = {}
    key = x.entries
    if key in _memo:
        return _memo[key]
    pos = x.support()
    if not pos:
        return Fraction(0)
    best = max(abs(v) for _, v in x.entries)
    n = len(pos)

    def pieces_from(idx: int, count: int) -> Iterator[List[Tuple[int, int]]]:
        # systems of `count` disjoint interval pieces within pos[idx:]
        if count == 0:
            yield []
            return
        for a in range(idx, n - count + 1):
            for b in range(a, n - count + 1):
                for rest in pieces_from(b + 1, count - 1):
                    yield [(a, b)] + rest

    for a0 in range(n):
        kmax = min(pos[a0], n - a0)
        for k in range(2, kmax + 1):
            for b0 in range(a0, n - k + 1):
                for rest in pieces_from(b0 + 1, k - 1):
                    system = [(a0, b0)] + rest
                    total = sum(
                        tsirelson_oracle(x.restrict(pos[a : b + 1]), _memo)
                        for a, b in system
                    )
                    cand = total / 2
                    if cand > best:
                        best = cand
    _memo[key] = best
    return best


def _interval_systems(n: int, start: int, count: int) -> Iterator[List[Tuple[int, int]]]:
    """Systems of at most `count` successive interval pieces (a, b) of
    positions start..n-1, gaps allowed; the empty system included."""
    yield []
    if count == 0:
        return
    for a in range(start, n):
        for b in range(a, n):
            for rest in _interval_systems(n, b + 1, count - 1):
                yield [(a, b)] + rest


def tsirelson_interval_oracle(x: Vector, n: int) -> Fraction:
    """Brute-force interval norm on T: the best sum of oracle norms over
    at most n successive interval pieces of the support."""
    memo: dict = {}
    pos = x.support()
    return max(
        sum((tsirelson_oracle(x.restrict(pos[a : b + 1]), memo) for a, b in system), Fraction(0))
        for system in _interval_systems(len(pos), 0, n)
    )


# ---------------------------------------------------------------------------
# alpha-index diagnostic oracle
# ---------------------------------------------------------------------------


def alpha_oracle(bs: BlockSequence, n: int, size_floor: int, horizon: int, xi: Ordinal) -> Fraction:
    """Brute-force alpha-index diagnostic: over the last ALPHA_TARGET_BLOCKS
    blocks within the horizon and every system of successive interval
    pieces of a block's support whose minima `member_exhaustive` accepts,
    the best sum of piece mass / size, where each size is the least legal
    one: max(size_floor, piece length, previous size + 1, previous max + 1)."""
    base = omega_power(xi)
    fam = SchreierFamily(fundamental(base, n) if base.is_limit else base)
    limit = min(horizon, len(bs))
    best = Fraction(0)
    for block in bs.blocks[max(0, limit - ALPHA_TARGET_BLOCKS) : limit]:
        pos = block.support()
        masses = [abs(v) for _, v in block.entries]
        for system in _interval_systems(len(pos), 0, len(pos)):
            if not system or not member_exhaustive(tuple(pos[a] for a, _ in system), fam):
                continue
            total = Fraction(0)
            prev_size = prev_max = 0
            for a, b in system:
                size = max(size_floor, b - a + 1, prev_size + 1, prev_max + 1)
                total += sum(masses[a : b + 1]) / size
                prev_size, prev_max = size, pos[b]
            best = max(best, total)
    return best


# ---------------------------------------------------------------------------
# Schlumprecht oracle
# ---------------------------------------------------------------------------


def schlumprecht_oracle(x: Vector) -> float:
    """Unmemoised Schlumprecht norm over support positions: the largest
    |x_i|, or the best sum over exactly k >= 2 contiguous chunks weighted
    by 1/log2(k+1)."""
    vals = [abs(float(v)) for _, v in x.entries]
    if not vals:
        return 0.0

    def value(i: int, j: int) -> float:
        best = max(vals[i : j + 1])
        for k in range(2, j - i + 2):
            best = max(best, split(i, j, k) / math.log2(k + 1))
        return best

    def split(i: int, j: int, k: int) -> float:
        if k == 1:
            return value(i, j)
        return max(value(i, m) + split(m + 1, j, k - 1) for m in range(i, j - k + 2))

    return value(0, len(vals) - 1)


# ---------------------------------------------------------------------------
# norming-set sup certificate for the mixed Schreier space
# ---------------------------------------------------------------------------


def _submasks(mask: int) -> Iterator[int]:
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def _successive_systems(indices: Tuple[int, ...]) -> Iterator[List[Tuple[int, ...]]]:
    """All systems S_1 < ... < S_d of disjoint nonempty subsets of the
    given increasing index tuple: each index is skipped or joins a piece,
    and pieces are segregated by order (every piece lies fully before the
    next)."""

    def rec(i: int) -> Iterator[List[Tuple[int, ...]]]:
        if i == len(indices):
            yield []
            return
        yield from rec(i + 1)  # skip indices[i]
        remaining = indices[i + 1 :]
        for r in range(len(remaining) + 1):
            for extra in combinations(range(len(remaining)), r):
                piece = (indices[i],) + tuple(remaining[e] for e in extra)
                nxt = i + 1 + (extra[-1] + 1 if extra else 0)
                for rest in rec(nxt):
                    yield [piece] + rest

    yield from rec(0)


def wmax_certificate(space: MixedSchreierSpace, x: Vector) -> Tuple[bool, str]:
    """Certify value = sup over the norming set, for every restriction of x.

    Returns (ok, detail).  Checks, for every nonempty subset restriction y:
      1. the reported value is exact, converged, and achieved by a stored
         functional that validates;
      2. unit closure: value >= every |y(c)|;
      3. average closure: value >= (1/max(2,d)) sum of piece values for
         every successive system of subsets;
      4. admissible-sum closure: value >= the best very-fast-growing sum of
         averages over every admissible successive system with minimal
         legal declared sizes.
    Any value function with 2-4 dominates every norming functional by
    induction over its formation, and 1 pins it from below, so passing
    certifies exact equality with the sup.
    """
    pos = x.support()
    n = len(pos)
    fam = SchreierFamily(omega_power(space.xi))
    vals: Dict[Tuple[int, ...], Fraction] = {}
    for mask in range(1, 1 << n):
        idx = tuple(i for i in range(n) if mask >> i & 1)
        sub = x.restrict(pos[i] for i in idx)
        r = norm(space, sub)
        if not (r.exact and r.converged):
            return False, f"value for {sub} not exact/converged"
        if evaluate(r.witness, sub) != r.value:
            return False, f"witness does not achieve the value on {sub}"
        if isinstance(r.witness, SumNode) and not validate_functional(r.witness, space.xi).ok:
            return False, f"stored witness invalid on {sub}"
        vals[idx] = r.value

    cover_memo: Dict[Tuple[Tuple[int, ...], int], Fraction] = {}

    def bestcover(piece: Tuple[int, ...], m: int) -> Fraction:
        # compositions of the piece into <= m successive chunks
        key = (piece, min(m, len(piece)))
        if key in cover_memo:
            return cover_memo[key]
        m = min(m, len(piece))
        best = vals[piece]
        if m > 1:
            for cut in range(1, len(piece)):
                head = piece[:cut]
                best = max(best, vals[head] + bestcover(piece[cut:], m - 1))
        cover_memo[key] = best
        return best

    for mask in range(1, 1 << n):
        idx = tuple(i for i in range(n) if mask >> i & 1)
        v = vals[idx]
        if any(v < abs(x[pos[i]]) for i in idx):
            return False, f"unit closure fails on {idx}"
        for system in _successive_systems(idx):
            if not system:
                continue
            d = len(system)
            avg_bound = sum(vals[tuple(p)] for p in system) / max(2, d)
            if v < avg_bound:
                return False, f"average closure fails on {idx} at {system}"
            minima = tuple(pos[p[0]] for p in system)
            if member(minima, fam).member:
                total = Fraction(0)
                prev_size = 0
                prev_max = 0
                for p in system:
                    j = max(2, prev_size + 1, prev_max + 1)
                    total += bestcover(tuple(p), j) / j
                    prev_size = j
                    prev_max = pos[p[-1]]
                if v < total:
                    return False, f"admissible-sum closure fails on {idx} at {system}"
    return True, "certified"
