"""Evaluators for the implicit norms and their auxiliary norms.

Spaces:

  * l1, c0, lp(p): closed forms.
  * Tsirelson: the implicit norm
        |x| = max(sup|x_i|, sup (1/2) sum |E_i x|)
    over successive E_1 < ... < E_k with k <= min E_1, computed by an exact
    memoised dynamic program over interval restrictions of the support.
    The program runs on integer numerators over one scale D * 2^h, where
    D is the lcm of the coefficient denominators and h is about half the
    support size, and returns a `Fraction`; the witness is a partition tree.
  * Schlumprecht: the same scheme with weight 1/log2(k+1); the weights are
    irrational, so values are floats with a declared tolerance.
  * Mixed Schreier space X(xi): normed by the set W generated from unit
    functionals by scaled averages and by admissible, very fast growing
    sums of averages.  The norm satisfies

        |x| = max(sup|x_i|, sup sum_q |E_q x|_{j_q})

    over S_{w^xi}-admissible E_1 < ... < E_d with j_q above the previous
    piece's max, where |y|_j = sup (1/j) sum over at most j pieces.  Every
    cycle of that implicit system passes through a weight <= 1/2 self map
    which can never attain the sup, so excluding the one degenerate
    configuration turns it into a well-founded recursion on support
    intervals; the recursion below computes its least fixpoint exactly and
    assembles a norming functional witnessing each value from below.

The Tsirelson, Schlumprecht and mixed evaluators and the interval norms
(norm_j, interval_norm) share one kernel, `_cover`: the best sum of chunk
values over at most k contiguous chunks covering support positions s..j,
memoised under the key (s, j, min(k, j - s + 1)).  "At most k" gives the
same sup as "exactly k": when a piece E splits into E' < E'',
|E x| <= |E' x| + |E'' x| by the triangle inequality and
1-unconditionality, so splitting a chunk never lowers the sum, and the
split keeps the first piece's minimum, so admissibility holds too.  (The
Schlumprecht weight depends on k; its session says why the kernel is
still exact there.)  A norm that is itself a sup over splits asks the
kernel for at least two chunks, so it never needs its own value.

The X(xi) norm and `analysis.alpha_index_diagnostic` share a second
kernel, `_admissible_sum`, the pruned search over admissible, very fast
growing piece systems.  Piece systems are restricted to interval chunks
of the support, with gaps allowed between pieces but not inside them: all
these norms are 1-unconditional lattice norms, monotone under support
restriction, so filling an internal gap never lowers a piece norm while
the piece minimum (which admissibility constrains) only moves left when
extending that way; the sup over interval systems therefore equals the sup
over arbitrary successive systems.  Within a chosen piece system the
minimal legal weights j_q are optimal because best-sum(j)/j is
non-increasing in j.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .families import SchreierFamily, member
from .ordinals import Ordinal, omega_power
from .vectors import (
    Average,
    Functional,
    SumNode,
    Unit,
    Vector,
    evaluate,
    functional_support,
)

# steps of the X(xi) piece-system search before a session stops and reports
# its values as certified lower bounds
MIXED_TICK_BUDGET = 30_000_000

# ---------------------------------------------------------------------------
# space descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class L1Space:
    pass


@dataclass(frozen=True)
class C0Space:
    pass


@dataclass(frozen=True)
class LpSpace:
    p: float

    def __post_init__(self) -> None:
        if not self.p > 1:
            raise ValueError("lp requires p > 1 (use l1 for p = 1)")


@dataclass(frozen=True)
class TsirelsonSpace:
    pass


@dataclass(frozen=True)
class SchlumprechtSpace:
    tolerance: float = 1e-9


@dataclass(frozen=True)
class MixedSchreierSpace:
    xi: Ordinal
    depth_cap: int = 64

    def __post_init__(self) -> None:
        if self.xi.is_zero:
            raise ValueError("the mixed Schreier space needs xi >= 1")
        if self.depth_cap < 1:
            raise ValueError("depth cap must be >= 1")


NormSpace = Union[L1Space, C0Space, LpSpace, TsirelsonSpace, SchlumprechtSpace, MixedSchreierSpace]

L1 = L1Space()
C0 = C0Space()
T = TsirelsonSpace()


# ---------------------------------------------------------------------------
# results and partition witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartLeaf:
    coord: int
    sign: int


@dataclass(frozen=True)
class PartNode:
    """weight * (sum of children); the partition-tree witness."""

    weight: Fraction
    children: Tuple["Partition", ...]


Partition = Union[PartLeaf, PartNode]


def evaluate_partition(w: Union[Partition, Functional], x: Vector):
    """Pairing of a partition tree with x; an interval norm over X(xi)
    puts norming functionals under its PartNode, which pair by `evaluate`."""
    if isinstance(w, PartLeaf):
        return w.sign * x[w.coord]
    if isinstance(w, PartNode):
        return w.weight * sum(evaluate_partition(c, x) for c in w.children)
    return evaluate(w, x)


@dataclass
class NormResult:
    value: Union[Fraction, float]
    exact: bool
    converged: bool = True
    witness: Optional[Union[Partition, Functional]] = None
    tolerance: float = 0.0

    def achieved(self, x: Vector) -> bool:
        """Exact results must be reproduced by their witness."""
        if not self.exact or self.witness is None:
            return True
        return evaluate_partition(self.witness, x) == self.value


def _leaf(x: Vector, coord: int) -> PartLeaf:
    return PartLeaf(coord, -1 if x[coord] < 0 else 1)


def _best_leaf(x: Vector) -> Tuple[Fraction, Optional[PartLeaf]]:
    if x.is_zero:
        return Fraction(0), None
    coord = max(x.support(), key=lambda c: abs(x[c]))
    return abs(x[coord]), _leaf(x, coord)


# ---------------------------------------------------------------------------
# the chunk-cover and admissible-sum kernels
# ---------------------------------------------------------------------------


def _cover(chunk, memo: dict, s: int, j: int, k: int, split: bool = False):
    """Best sum over at most k contiguous chunks covering positions s..j.

    `chunk(a, b)` returns (value, witness) for the chunk of positions a..b;
    the result is (best sum, the chosen chunks' witnesses in order).  With
    split=True at least two chunks are used (k >= 2 and s < j), so a chunk
    function whose value is itself a sup over splits of a..b never asks
    for its own value.

    `memo` holds the best split of s..j into 2..k chunks under the key
    (s, j, min(k, j - s + 1)): no cover has more chunks than positions, so
    every larger k shares one entry.  Chunks only ever split into strictly
    shorter chunks, so the recursion is well founded.
    """
    k = min(k, j - s + 1)
    if k < 2:
        v, w = chunk(s, j)
        return v, (w,)
    key = (s, j, k)
    hit = memo.get(key)
    if hit is None:
        best = None
        for m in range(s, j):
            v1, w1 = chunk(s, m)
            v2, ws = _cover(chunk, memo, m + 1, j, k - 1)
            if best is None or v1 + v2 > best:
                best, wits = v1 + v2, (w1,) + ws
        hit = memo[key] = (best, wits)
    if split:
        return hit
    v, w = chunk(s, j)
    return hit if hit[0] > v else (v, (w,))


def _admissible_sum(fam, pos, prefix, i: int, j: int, floor: int, piece, best):
    """Best sum over successive interval pieces [a, b] of positions i..j
    (gaps allowed) whose minima pos[a] form a member of `fam`, each offered
    the least legal size max(floor, previous size + 1, previous max + 1).
    `piece(a, b, size)` gives (value, declared size, witness) or None to skip;
    prefix[t] is the l1 mass of positions 0..t-1.  Returns the best total
    strictly above `best` with its witnesses, or (best, None).

    A piece is worth at most its mass over its size and later sizes are at
    least max(floor, previous size + 1), so nothing from a on beats best
    strictly once total + mass(a..j) / that <= best: pruning there keeps
    every strict improvement.
    """
    found = None

    def dfs(start, minima, prev_size, prev_max, total, wits):
        nonlocal best, found
        for a in range(start, j + 1):
            if total + (prefix[j + 1] - prefix[a]) / max(floor, prev_size + 1) <= best:
                return
            new_minima = minima + (pos[a],)
            if not member(new_minima, fam).member:
                continue  # admissible sets are closed under initial segments
            size = max(floor, prev_size + 1, prev_max + 1)
            for b in range(a, j + 1):
                got = piece(a, b, size)
                if got is None:
                    continue
                value, declared, wit = got
                t, w = total + value, wits + (wit,)
                if t > best:
                    best, found = t, w
                dfs(b + 1, new_minima, declared, pos[b], t, w)

    dfs(i, (), 0, 0, Fraction(0), ())
    return best, found


# ---------------------------------------------------------------------------
# Tsirelson and Schlumprecht evaluators
# ---------------------------------------------------------------------------


class _TsirelsonSession:
    """Exact DP over interval restrictions of the support.

    norm(i, j) is the norm of x restricted to support positions i..j: the
    largest |x_c| there, or half the best split of positions s..j into at
    most min(value at s, j - s + 1) chunks, for some start s (dropping
    earlier positions keeps min E_1 large).

    Values are integer numerators over `scale` = D * 2^h, with D the lcm
    of the coefficient denominators and h = (n - 1) // 2 for n support
    positions, so halving is a shift.  The norm on an interval of l
    positions is a multiple of 2^(h - (l - 1) // 2), by induction on l.
    A coordinate is a multiple of 2^h.  Half the sum of two chunks is at
    most the larger chunk, which is at most the norm (monotonicity), so a
    split that attains the norm either has two chunks equal to it, norms
    of shorter intervals, or halves a sum of at least three chunks of at
    most l - 2 positions each, which the induction makes multiples of
    2^(h - (l - 1) // 2 + 1).  A split that falls short of the norm may be
    rounded down by the shift, but it stays below the norm and wins no
    comparison, so every memoised value is exact.
    """

    def __init__(self, x: Vector):
        self.pos = x.support()
        self.vals = [v for _, v in x.entries]
        h = (len(self.vals) - 1) // 2
        self.scale = math.lcm(*(v.denominator for v in self.vals)) << h
        self.absvals = [abs(v.numerator) * (self.scale // v.denominator) for v in self.vals]
        self.memo: Dict[Tuple[int, int], Tuple[int, Partition]] = {}
        self.cover_memo: dict = {}

    def norm(self, i: int, j: int) -> Tuple[int, Partition]:
        hit = self.memo.get((i, j))
        if hit is not None:
            return hit
        t = max(range(i, j + 1), key=self.absvals.__getitem__)
        best = self.absvals[t]
        wit: Partition = PartLeaf(self.pos[t], -1 if self.vals[t] < 0 else 1)
        for s in range(i, j):
            k = min(self.pos[s], j - s + 1)
            if k < 2:
                continue
            val, parts = _cover(self.norm, self.cover_memo, s, j, k, split=True)
            val >>= 1
            if val > best:
                best, wit = val, PartNode(Fraction(1, 2), parts)
        self.memo[(i, j)] = (best, wit)
        return best, wit


def _tsirelson_norm(x: Vector) -> NormResult:
    if x.is_zero:
        return NormResult(Fraction(0), exact=True)
    session = _TsirelsonSession(x)
    value, wit = session.norm(0, len(x.support()) - 1)
    return NormResult(Fraction(value, session.scale), exact=True, witness=wit)


class _SchlumprechtSession:
    """Same DP shape as Tsirelson with weight 1/log2(k+1) and no
    admissibility constraint; float arithmetic with a declared tolerance.

    The weight depends on the chunk count, so norm(i, j) reads the kernel
    once per k.  "At most k" is still exact: a best split into k' <= k
    chunks carries the larger weight 1/log2(k'+1), so weighting it by
    1/log2(k+1) never exceeds the sup.
    """

    def __init__(self, x: Vector):
        self.vals = [abs(float(v)) for _, v in x.entries]
        self.memo: Dict[Tuple[int, int], Tuple[float, None]] = {}
        self.cover_memo: dict = {}

    def norm(self, i: int, j: int) -> Tuple[float, None]:
        hit = self.memo.get((i, j))
        if hit is not None:
            return hit
        best = max(self.vals[i : j + 1])
        for k in range(2, j - i + 2):
            val, _ = _cover(self.norm, self.cover_memo, i, j, k, split=True)
            best = max(best, val / math.log2(k + 1))
        self.memo[(i, j)] = (best, None)
        return best, None


def _schlumprecht_norm(x: Vector, tolerance: float) -> NormResult:
    if x.is_zero:
        return NormResult(0.0, exact=False, tolerance=tolerance)
    session = _SchlumprechtSession(x)
    value, _ = session.norm(0, len(x.support()) - 1)
    return NormResult(value, exact=False, tolerance=tolerance)


# ---------------------------------------------------------------------------
# mixed Schreier space evaluator
# ---------------------------------------------------------------------------


class _MixedSession:
    """Exact recursion for the mixed Schreier norm with functional witnesses.

    Pieces are intervals of support positions: (start, end) inclusive.
    `norm(i, j)` evaluates the restriction to positions i..j by
    `_admissible_sum` with floor 2: a piece of size j is worth its cover with
    at most j chunks over j, at most its mass over j since norming
    functionals have coefficients in [-1, 1].  MIXED_TICK_BUDGET guards the
    worst-case exponential piece-system enumeration; once it runs out every
    piece is skipped, and the values found so far stay certified lower
    bounds of a session that reports non-convergence.
    """

    def __init__(self, x: Vector, xi: Ordinal, depth_cap: int):
        self.pos = x.support()
        self.vals = [v for _, v in x.entries]
        self.absvals = [abs(v) for v in self.vals]
        self.prefix = list(itertools.accumulate(self.absvals, initial=Fraction(0)))
        self.fam = SchreierFamily(omega_power(xi))
        self.depth_cap = depth_cap
        self.budget = MIXED_TICK_BUDGET
        self.converged = True
        self.norm_memo: Dict[Tuple[int, int], Tuple[Fraction, Functional]] = {}
        self.cover_memo: dict = {}

    def norm(self, i: int, j: int, depth: int = 0) -> Tuple[Fraction, Functional]:
        key = (i, j)
        hit = self.norm_memo.get(key)
        if hit is not None:
            return hit
        t = max(range(i, j + 1), key=self.absvals.__getitem__)
        best: Fraction = self.absvals[t]
        wit: Functional = Unit(-1 if self.vals[t] < 0 else 1, self.pos[t])
        if depth >= self.depth_cap:
            self.converged = False
        else:
            chunk = functools.partial(self.norm, depth=depth + 1)

            def piece(a: int, b: int, size: int):
                self.budget -= 1
                if self.budget < 0:
                    self.converged = False
                elif (a, b) != (i, j):  # (i, j) alone is the degenerate self map
                    val, chunk_wits = _cover(chunk, self.cover_memo, a, b, size)
                    return val / size, size, Average(size, chunk_wits)
                return None

            best, pieces = _admissible_sum(self.fam, self.pos, self.prefix, i, j, 2, piece, best)
            if pieces is not None:
                wit = SumNode(pieces)
        self.norm_memo[key] = (best, wit)
        return best, wit


def _mixed_norm(space: MixedSchreierSpace, x: Vector) -> NormResult:
    if x.is_zero:
        return NormResult(Fraction(0), exact=True)
    session = _MixedSession(x, space.xi, space.depth_cap)
    value, wit = session.norm(0, len(x.support()) - 1)
    return NormResult(value, exact=session.converged, converged=session.converged, witness=wit)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def norm(space: NormSpace, x: Vector) -> NormResult:
    """Norm of a finitely supported vector in the given space.

    Exact rational for l1, c0, Tsirelson and the mixed Schreier space
    (there the result is a certified lower bound with converged=False if
    the budget or depth cap is hit); float with declared tolerance for lp
    and Schlumprecht.  Exact results carry a witness that re-evaluates to
    the value.
    """
    if isinstance(space, L1Space):
        if x.is_zero:
            return NormResult(Fraction(0), exact=True)
        leaves = tuple(_leaf(x, c) for c in x.support())
        return NormResult(x.l1(), exact=True, witness=PartNode(Fraction(1), leaves))
    if isinstance(space, C0Space):
        value, wit = _best_leaf(x)
        return NormResult(value, exact=True, witness=wit)
    if isinstance(space, LpSpace):
        value = sum(abs(float(v)) ** space.p for _, v in x.entries) ** (1.0 / space.p)
        return NormResult(value, exact=False, tolerance=1e-12)
    if isinstance(space, TsirelsonSpace):
        return _tsirelson_norm(x)
    if isinstance(space, SchlumprechtSpace):
        return _schlumprecht_norm(x, space.tolerance)
    if isinstance(space, MixedSchreierSpace):
        return _mixed_norm(space, x)
    raise TypeError(f"not a norm space: {space!r}")


def norm_j(space: NormSpace, x: Vector, j: int) -> NormResult:
    """|x|_j = sup (1/j) * sum of piece norms over at most j successive pieces.

    The interval norm with j pieces, scaled by 1/j.
    """
    if j < 2:
        raise ValueError("the weighted norms need j >= 2")
    return _interval_cover(space, x, j, j)


def interval_norm(space: NormSpace, x: Vector, n: int) -> NormResult:
    """Sup of sums of norms over at most n successive interval restrictions."""
    if n < 1:
        raise ValueError("need n >= 1 intervals")
    return _interval_cover(space, x, n, 1)


def _interval_cover(space: NormSpace, x: Vector, n: int, scale: int) -> NormResult:
    """(1/scale) * the best sum of chunk norms over at most n interval
    chunks covering the support.

    Covering chunks suffice: filling a gap never lowers a chunk norm
    (support monotonicity) and splitting a chunk never lowers the sum
    (triangle inequality).  For T the chunk values come from one session
    over the whole of x; other spaces evaluate each chunk with `norm`.

    The result is exact and converged only when every chunk evaluated is:
    a chunk that lost the comparison may still be an underestimate.  At
    most n chunks enter the sum, so its error is at most n times the
    largest chunk tolerance, before the 1/scale.
    """
    if x.is_zero:
        return NormResult(Fraction(0), exact=True)
    pos = x.support()
    if isinstance(space, TsirelsonSpace):
        session = _TsirelsonSession(x)
        total, parts = _cover(session.norm, {}, 0, len(pos) - 1, n)
        return NormResult(Fraction(total, session.scale * scale), exact=True,
                          witness=PartNode(Fraction(1, scale), parts))
    results: Dict[Tuple[int, int], NormResult] = {}

    def chunk(a: int, b: int) -> Tuple[object, NormResult]:
        r = results.get((a, b))
        if r is None:
            r = results[(a, b)] = norm(space, x.restrict(pos[a : b + 1]))
        return r.value, r

    total, chunks = _cover(chunk, {}, 0, len(pos) - 1, n)
    witness = None
    if all(r.witness is not None for r in chunks):
        witness = PartNode(Fraction(1, scale), tuple(r.witness for r in chunks))
    evaluated = results.values()
    return NormResult(
        total / scale,
        exact=all(r.exact for r in evaluated),
        converged=all(r.converged for r in evaluated),
        witness=witness,
        tolerance=n * max(r.tolerance for r in evaluated) / scale,
    )


# ---------------------------------------------------------------------------
# norming-set generation
# ---------------------------------------------------------------------------


@dataclass
class WGeneration:
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

    Generation stops early (truncated=True) if the budget is exceeded.
    """
    window = sorted(set(support_window))
    fam = SchreierFamily(omega_power(xi))
    level: Set[Functional] = set()
    for c in window:
        level.add(Unit(1, c))
        level.add(Unit(-1, c))
    truncated = False

    def successive_sequences(pool: List[Functional]) -> Iterator[Tuple[Functional, ...]]:
        by_min: Dict[int, List[Functional]] = {}
        for f in pool:
            s = functional_support(f)
            by_min.setdefault(s[0], []).append(f)
        mins = sorted(by_min)

        def rec(prev_max: int) -> Iterator[Tuple[Functional, ...]]:
            for mn in mins:
                if mn <= prev_max:
                    continue
                for f in by_min[mn]:
                    fmax = functional_support(f)[-1]
                    yield (f,)
                    for rest in rec(fmax):
                        yield (f,) + rest

        return rec(0)

    current = set(level)
    for _ in range(depth):
        if truncated:
            break
        pool = sorted(current, key=lambda f: (functional_support(f), repr(f)))
        new: Set[Functional] = set()
        for children in successive_sequences(pool):
            if len(new) + len(current) > budget:
                truncated = True
                break
            new.add(Average(max(2, len(children)), children))
        if not truncated:
            averages = sorted(
                (f for f in current | new if isinstance(f, Average)),
                key=lambda f: (functional_support(f), repr(f)),
            )
            for seq in successive_sequences(averages):
                if len(new) + len(current) > budget:
                    truncated = True
                    break
                minima = tuple(functional_support(a)[0] for a in seq)
                if not member(minima, fam).member:
                    continue
                resized: List[Average] = []
                prev_size = 0
                prev_max = 0
                for a in seq:
                    size = max(a.size, prev_size + 1, prev_max + 1)
                    resized.append(Average(size, a.children))
                    prev_size = size
                    prev_max = functional_support(a)[-1]
                new.add(SumNode(tuple(resized)))
        current |= new
    return WGeneration(sorted(current, key=repr), truncated, depth)
