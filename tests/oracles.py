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

* `interval_cover_oracle` evaluates every chunk of every cover of the
  support by at most n interval chunks with `norm` on the restricted
  vector, in a session of its own, where `interval_norm` and `norm_j`
  read every chunk from one session over the whole vector.

* `schlumprecht_oracle` is the unmemoised recursion over exactly k
  contiguous chunks that the production evaluator replaced with the
  memoised "at most k" kernel.

* `dfs_leaves_oracle` and `members_over_oracle` list the DFS leaves and
  the members of a family by testing every subset with the exhaustive
  decider, where the production enumerations extend greedy states.

* `threshold_oracle` finds the threshold n of S_xi inside S_zeta and its
  rejection chain from every subset of the window and the exhaustive
  decider, where `threshold_search` walks greedy states and trusts a
  structural threshold for every set with a larger minimum.

* `mass_oracle` maximises a coefficient sum over every subset of the
  support that the exhaustive decider accepts, where `family_mass` uses a
  closed form or a pruned search over capped greedy states.

* `alpha_oracle` maximises the alpha-index diagnostic over every interval
  piece system of each target block with the exhaustive decider and no
  pruning, where the production search shares the X(xi) norm's pruned
  admissible-sum kernel.

* `admissible_sum_oracle` is the admissible-sum DFS of the X(xi) norm and
  the alpha-index diagnostic with the exhaustive decider and no pruning
  bound, so that the pruned search can be held to the same value and the
  same first best piece system.

* `wmax_certificate` certifies that a claimed value function equals the
  sup over the full norming set: it checks that every claimed value is
  achieved by an explicit valid functional, and that the value function is
  closed under one application of each functional formation rule over all
  successive set systems (not only interval systems).  Closure over the
  minimal declared sizes suffices because best-cover(j)/j is
  non-increasing in j.

* `generate_W` lists the norming set itself up to a generation depth,
  supported in a window, so that its sup can be compared with the
  recursion's value on small vectors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from schreier.analysis import ALPHA_TARGET_BLOCKS
from schreier.families import SchreierFamily, member, member_exhaustive
from schreier.norms import MixedSchreierSpace, NormResult, NormSpace, PartNode, norm
from schreier.ordinals import Ordinal, fundamental, omega_power
from schreier.reports import Record
from schreier.vectors import (
    Average,
    BlockSequence,
    Functional,
    SumNode,
    Unit,
    Vector,
    evaluate,
    validate_functional,
)


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


def threshold_oracle(xi: Ordinal, zeta: Ordinal, horizon: int):
    """(n, rejections) of the threshold search of S_xi inside S_zeta up to
    the horizon, from the members of S_xi outside S_zeta with support in
    [1, horizon]: each candidate n, from 1 on, is rejected by the first such
    set in DFS (lexicographic) order with min >= n, and the next candidate
    lies past that set's minimum.

    S_xi is hereditary, so every initial segment of a member is one: the
    members are grown from the empty set by appending a larger element,
    each extension decided by `member_exhaustive` alone."""
    fam_xi, fam_zeta = SchreierFamily(xi), SchreierFamily(zeta)
    escapes, stack = [], [()]
    while stack:
        E = stack.pop()
        if E and not member_exhaustive(E, fam_zeta):
            escapes.append(E)
        grown = (E + (x,) for x in range(E[-1] + 1 if E else 1, horizon + 1))
        stack.extend(F for F in grown if member_exhaustive(F, fam_xi))
    n, rejections = 1, []
    for E in sorted(escapes):
        if E[0] >= n:
            rejections.append((n, E))
            n = max(n + 1, E[0] + 1)
    return n, rejections


def mass_oracle(coeffs: Dict[int, Fraction], fam) -> Fraction:
    """Largest coefficient sum over the members inside the support."""
    support = sorted(c for c, v in coeffs.items() if v > 0)
    return max(
        sum((coeffs[c] for c in E), Fraction(0))
        for E in _subsets(support)
        if member_exhaustive(E, fam)
    )


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


def _covers(n: int, start: int, count: int) -> Iterator[List[Tuple[int, int]]]:
    """Covers of positions start..n-1 by at most `count` successive
    interval chunks (a, b), no gaps."""
    yield [(start, n - 1)]
    if count > 1:
        for m in range(start, n - 1):
            for rest in _covers(n, m + 1, count - 1):
                yield [(start, m)] + rest


def interval_cover_oracle(space: NormSpace, x: Vector, n: int, scale: int = 1) -> NormResult:
    """(1/scale) * the best sum of `norm(space, x.restrict(chunk))` over
    every cover of the support by at most n interval chunks.

    Sums nest from the right, v_1 + (v_2 + ...), as the chunk-cover
    kernel adds them, so float sums agree to the bit.  The result is exact
    and converged if every chunk of every cover is, its tolerance is n
    times the largest chunk tolerance over scale, and its witness joins
    the chunk witnesses of the first best cover when every chunk has one.
    """
    if x.is_zero:
        return NormResult(Fraction(0), exact=True)
    pos = x.support()
    results: Dict[Tuple[int, int], NormResult] = {}
    best = chunks = None
    for cover in _covers(len(pos), 0, n):
        rs = []
        for a, b in cover:
            if (a, b) not in results:
                results[(a, b)] = norm(space, x.restrict(pos[a : b + 1]))
            rs.append(results[(a, b)])
        total = rs[-1].value
        for r in reversed(rs[:-1]):
            total = r.value + total
        if best is None or total > best:
            best, chunks = total, rs
    witness = None
    if all(r.witness is not None for r in chunks):
        witness = PartNode(Fraction(1, scale), tuple(r.witness for r in chunks))
    evaluated = results.values()
    return NormResult(
        best / scale,
        exact=all(r.exact for r in evaluated),
        converged=all(r.converged for r in evaluated),
        witness=witness,
        tolerance=n * max(r.tolerance for r in evaluated) / scale,
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


def admissible_sum_oracle(fam, pos, i: int, j: int, floor: int, piece, best):
    """`norms._admissible_sum` unpruned: every system of successive interval
    pieces of positions i..j (gaps allowed) whose minima `member_exhaustive`
    accepts, in the same DFS order, each piece offered the least legal size
    max(floor, previous size + 1, previous max + 1).  Returns the first
    total strictly above `best` that no later system beats strictly, with
    its (a, b, declared size) triples, or (best, None)."""
    found, path = None, []

    def dfs(start, minima, prev_size, prev_max, total):
        nonlocal best, found
        for a in range(start, j + 1):
            new_minima = minima + (pos[a],)
            if not member_exhaustive(new_minima, fam):
                continue
            size = max(floor, prev_size + 1, prev_max + 1)
            for b in range(a, j + 1):
                got = piece(a, b, size)
                if got is None:
                    continue
                value, declared = got
                path.append((a, b, declared))
                if total + value > best:
                    best, found = total + value, tuple(path)
                dfs(b + 1, new_minima, declared, pos[b], total + value)
                path.pop()

    dfs(i, (), 0, 0, Fraction(0))
    return best, found


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


def _successive_systems(indices: Tuple[int, ...]) -> List[List[Tuple[int, ...]]]:
    """All systems S_1 < ... < S_d of disjoint nonempty subsets of the
    given increasing index tuple: each index is skipped or joins a piece,
    and pieces are segregated by order (every piece lies fully before the
    next)."""
    # systems[i] lists the systems of indices[i:], built from the back
    systems: List[List[List[Tuple[int, ...]]]] = [[] for _ in indices] + [[[]]]
    for i in reversed(range(len(indices))):
        out = list(systems[i + 1])  # skip indices[i]
        remaining = indices[i + 1 :]
        for r in range(len(remaining) + 1):
            for extra in combinations(range(len(remaining)), r):
                piece = (indices[i],) + tuple(remaining[e] for e in extra)
                nxt = i + 1 + (extra[-1] + 1 if extra else 0)
                out.extend([piece] + rest for rest in systems[nxt])
        systems[i] = out
    return systems[0]


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

    # the closure checks run on integer numerators over one common denominator
    scale = math.lcm(*(v.denominator for v in vals.values()))
    nums = {idx: v.numerator * (scale // v.denominator) for idx, v in vals.items()}
    cover_memo: Dict[Tuple[Tuple[int, ...], int], int] = {}

    def bestcover(piece: Tuple[int, ...], m: int) -> int:
        # compositions of the piece into <= m successive chunks
        key = (piece, min(m, len(piece)))
        if key in cover_memo:
            return cover_memo[key]
        m = min(m, len(piece))
        best = nums[piece]
        if m > 1:
            for cut in range(1, len(piece)):
                best = max(best, nums[piece[:cut]] + bestcover(piece[cut:], m - 1))
        cover_memo[key] = best
        return best

    for mask in range(1, 1 << n):
        idx = tuple(i for i in range(n) if mask >> i & 1)
        v = nums[idx]
        if any(v < abs(x[pos[i]]) * scale for i in idx):
            return False, f"unit closure fails on {idx}"
        for system in _successive_systems(idx):
            if not system:
                continue
            d = len(system)
            if v * max(2, d) < sum(nums[p] for p in system):
                return False, f"average closure fails on {idx} at {system}"
            minima = tuple(pos[p[0]] for p in system)
            if member(minima, fam).member:
                sizes = []
                prev_size = 0
                prev_max = 0
                for p in system:
                    prev_size = max(2, prev_size + 1, prev_max + 1)
                    sizes.append(prev_size)
                    prev_max = pos[p[-1]]
                # v < sum of bestcover(p, j) / j, over the common multiple of the sizes j
                common = math.lcm(*sizes)
                total = sum(bestcover(p, j) * (common // j) for p, j in zip(system, sizes))
                if v * common < total:
                    return False, f"admissible-sum closure fails on {idx} at {system}"
    return True, "certified"


class WGeneration(Record):
    functionals: List[Functional]
    truncated: bool
    depth: int


def generate_W(
    xi: Ordinal, support_window: Sequence[int], depth: int, budget: int = 200_000
) -> WGeneration:
    """All norming-set functionals up to the given generation depth,
    supported in the window, pruned without lowering any achievable value.

    Prunings (value-safe for the sup over the generated set): averages
    carry the minimal declared size max(2, #children), and inside a sum
    node the declared sizes are re-raised to the minimal values satisfying
    the growth conditions; larger declared sizes only shrink the scaling
    1/size, and the minimal re-declaration dominates any legal one.  The
    generated set is closed under leaf sign flips by construction.

    Each functional travels with its support, the concatenation of its
    children's supports, so no support lookup hashes a functional tree.
    Generation stops early (truncated=True) if the budget is exceeded.
    """
    fam = SchreierFamily(omega_power(xi))
    # every functional generated so far, with its support
    current: Dict[Functional, Tuple[int, ...]] = {}
    for c in sorted(set(support_window)):
        current[Unit(1, c)] = current[Unit(-1, c)] = (c,)
    truncated = False
    Item = Tuple[Functional, Tuple[int, ...]]

    def successive_sequences(items: Iterable[Item]) -> Iterator[Tuple[Item, ...]]:
        by_min: Dict[int, List[Item]] = {}
        for item in sorted(items, key=lambda fs: (fs[1], repr(fs[0]))):
            by_min.setdefault(item[1][0], []).append(item)
        mins = sorted(by_min)

        def rec(prev_max: int) -> Iterator[Tuple[Item, ...]]:
            for mn in mins:
                if mn <= prev_max:
                    continue
                for item in by_min[mn]:
                    yield (item,)
                    for rest in rec(item[1][-1]):
                        yield (item,) + rest

        return rec(0)

    def joined(seq: Tuple[Item, ...]) -> Tuple[int, ...]:
        return tuple(c for _, s in seq for c in s)

    for _ in range(depth):
        if truncated:
            break
        new: Dict[Functional, Tuple[int, ...]] = {}
        for seq in successive_sequences(current.items()):
            if len(new) + len(current) > budget:
                truncated = True
                break
            new[Average(max(2, len(seq)), tuple(f for f, _ in seq))] = joined(seq)
        if not truncated:
            averages = [(f, s) for f, s in {**current, **new}.items() if isinstance(f, Average)]
            for seq in successive_sequences(averages):
                if len(new) + len(current) > budget:
                    truncated = True
                    break
                if not member(tuple(s[0] for _, s in seq), fam).member:
                    continue
                resized: List[Average] = []
                prev_size = 0
                prev_max = 0
                for a, s in seq:
                    size = max(a.size, prev_size + 1, prev_max + 1)
                    resized.append(Average(size, a.children))
                    prev_size = size
                    prev_max = s[-1]
                new[SumNode(tuple(resized))] = joined(seq)
        current.update(new)
    return WGeneration(sorted(current, key=repr), truncated, depth)
