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

Each space evaluates the interval restrictions of one vector in one
session, whose memoised `value(i, j)` gives the value on support positions
i..j and records the choice that reached it; `witness(i, j)` rebuilds the
witness from the recorded choices alone, once per answer.  `norm` reads
positions 0..n-1; the interval norms (norm_j, interval_norm) read every
chunk of their covers from the same session.  One private evaluation,
`_norm`, serves them all and builds the witness only when asked: the
public entry points ask, while `analysis` and `constructions`, which read
only the value, exactness and convergence, build no witness tree.  The
witness never feeds back into the value, so both give the same numbers.
A caller that scales or divides by a norm reads it through `_exact`, the
one gate that refuses a float or budget-limited value.

The Tsirelson, Schlumprecht and mixed evaluators and the interval norms
share one kernel, `_cover`: the best sum of chunk values over at most k
contiguous chunks covering support positions s..j, memoised under the key
(s, j, min(k, j - s + 1)).  "At most k" gives the same sup as "exactly k":
when a piece E splits into E' < E'', |E x| <= |E' x| + |E'' x| by the
triangle inequality and 1-unconditionality, so splitting a chunk never
lowers the sum, and the split keeps the first piece's minimum, so
admissibility holds too.  (The Schlumprecht weight depends on k; its
session says why the kernel is still exact there.)  A norm that is itself
a sup over splits asks the kernel for at least two chunks, so it never
needs its own value.

T and X(xi) also hand the kernel the l1 prefix sums of their session as
`cover_prefix` (None in every other session), so a cover of s..j that may
use as many chunks as positions is read in O(1) as the l1 mass of s..j.
This is exact and keeps the witness: the singletons reach the mass, while
a chunk of two or more (nonzero) positions is worth strictly less: its
largest entry, or in T half a cover worth at most the mass, or in X(xi)
pieces each worth at most their mass over a size >= 2.  So the singletons
are the unique best cover.  On a support whose least coordinate is at
least its length the T norm thus collapses to the classical
max(|x|_inf, |x|_1 / 2) (Casazza-Shura, Tsirelson's space, LNM 1363).  l1
ties its mass on every chunk, where the kernel keeps the whole chunk as
witness; c0 qualifies but its chunks are closed forms, so it keeps no
prefix; lp and Schlumprecht are floats, whose sums in another order could
move their last bits.

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
non-increasing in j.  The search prunes a DFS frame once its total plus
the mass left, over the size the frame offers, cannot beat the best: very
fast growth makes that size max(floor, previous size + 1, previous max +
1), no later piece is declared smaller, and a piece is worth at most its
mass over its size.  The best only moves on a strict improvement, so the
pruned search returns the value and witness (the first best system in DFS
order) of the unpruned one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .ordinals import Ordinal, omega_power
from .reports import BudgetExhausted, Record
from .vectors import (
    Average,
    Functional,
    SumNode,
    Unit,
    Vector,
    evaluate,
)

# steps of the X(xi) piece-system search before a session stops and reports
# its values as certified lower bounds
MIXED_TICK_BUDGET = 30_000_000

# ---------------------------------------------------------------------------
# space descriptors
# ---------------------------------------------------------------------------


class L1Space(Record, frozen=True):
    pass


class C0Space(Record, frozen=True):
    pass


class LpSpace(Record, frozen=True):
    p: float

    def __post_init__(self) -> None:
        if not self.p > 1:
            raise ValueError("lp requires p > 1 (use l1 for p = 1)")
        if self.p == math.inf:
            raise ValueError("lp requires a finite p (use c0 for the sup norm)")


class TsirelsonSpace(Record, frozen=True):
    pass


class SchlumprechtSpace(Record, frozen=True):
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if not 0 < self.tolerance < math.inf:
            raise ValueError("the Schlumprecht tolerance must be finite and positive")


class MixedSchreierSpace(Record, frozen=True):
    xi: Ordinal

    def __post_init__(self) -> None:
        if self.xi.is_zero:
            raise ValueError("the mixed Schreier space needs xi >= 1")


NormSpace = Union[L1Space, C0Space, LpSpace, TsirelsonSpace, SchlumprechtSpace, MixedSchreierSpace]

L1 = L1Space()
C0 = C0Space()
T = TsirelsonSpace()


# ---------------------------------------------------------------------------
# results and partition witnesses
# ---------------------------------------------------------------------------


class PartLeaf(Record, frozen=True):
    coord: int
    sign: int


class PartNode(Record, frozen=True):
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


class NormResult(Record):
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


# ---------------------------------------------------------------------------
# the chunk-cover and admissible-sum kernels
# ---------------------------------------------------------------------------


def _cover(value, memo: dict, s: int, j: int, k: int, split: bool = False, prefix=None):
    """Best sum over at most k contiguous chunks covering positions s..j.

    `value(a, b)` gives the value of the chunk of positions a..b.  With
    split=True at least two chunks are used (k >= 2 and s < j), so a chunk
    function whose value is itself a sup over splits of a..b never asks
    for its own value.

    `memo` holds the best split of s..j into 2..k chunks as (best, first
    split point reaching it) under the key (s, j, min(k, j - s + 1)): no
    cover has more chunks than positions, so every larger k shares one
    entry.  Chunks only ever split into strictly shorter chunks, so the
    recursion is well founded.  `_cover_parts` rebuilds the chosen chunks.

    `prefix[t]`, if given, is the l1 mass of positions 0..t-1, and every
    chunk of two or more positions must be worth strictly less than its
    mass (T and X(xi)).  Then a cover with as many chunks as positions is
    worth prefix[j + 1] - prefix[s], split or not, and is returned without
    evaluating a chunk or storing an entry: the singletons are its unique
    best cover, so the strict `>` below would have chosen them too.
    """
    k = min(k, j - s + 1)
    if k < 2:
        return value(s, j)
    if prefix is not None and k == j - s + 1:
        return prefix[j + 1] - prefix[s]
    key = (s, j, k)
    hit = memo.get(key)
    if hit is None:
        best = None
        for m in range(s, j):
            v = value(s, m) + _cover(value, memo, m + 1, j, k - 1, False, prefix)
            if best is None or v > best:
                best, at = v, m
        hit = memo[key] = (best, at)
    if split:
        return hit[0]
    v = value(s, j)
    return hit[0] if hit[0] > v else v


def _cover_parts(value, witness, memo: dict, s: int, j: int, k: int, split: bool = False,
                 prefix=None) -> tuple:
    """The chunk witnesses a finished `_cover` call chose, from its memo;
    the singletons where the prefix shortcut fired."""
    k = min(k, j - s + 1)
    if k >= 2:
        if prefix is not None and k == j - s + 1:
            return tuple(witness(t, t) for t in range(s, j + 1))
        best, m = memo[(s, j, k)]
        if split or best > value(s, j):
            return (witness(s, m),) + _cover_parts(value, witness, memo, m + 1, j, k - 1, False, prefix)
    return (witness(s, j),)


def _admissible_sum(fam, pos, prefix, i: int, j: int, floor: int, piece, best):
    """Best sum over successive interval pieces [a, b] of positions i..j
    (gaps allowed) whose minima pos[a] form a member of `fam`, each offered
    the least legal size max(floor, previous size + 1, previous max + 1).
    `piece(a, b, size)` gives (value, declared size), declared at least the
    size offered and value at most mass(a..b) / declared, or None to skip;
    prefix[t] is the l1 mass of positions 0..t-1.  Returns the best total
    strictly above `best` with its pieces as (a, b, declared size) triples,
    or (best, None).

    A frame offers every piece it places the same size, and each later
    piece is offered more than the previous declared size, so every piece
    at or below the frame is declared at least the frame's size: nothing
    from a on beats best strictly once total + mass(a..j) / size <= best.
    Pruning there drops no strict improvement, and `best` and `found`
    change only on one, so the value and its pieces (the first best system
    in DFS order) are those of the unpruned search; only the pieces
    evaluated are fewer.
    """
    from .families import member

    found, path = None, []

    def dfs(start, minima, prev_size, prev_max, total):
        nonlocal best, found
        size = max(floor, prev_size + 1, prev_max + 1)
        for a in range(start, j + 1):
            if total + (prefix[j + 1] - prefix[a]) / size <= best:
                return
            new_minima = minima + (pos[a],)
            if not member(new_minima, fam).member:
                continue  # admissible sets are closed under initial segments
            for b in range(a, j + 1):
                got = piece(a, b, size)
                if got is None:
                    continue
                value, declared = got
                t = total + value
                path.append((a, b, declared))
                if t > best:
                    best, found = t, tuple(path)
                dfs(b + 1, new_minima, declared, pos[b], t)
                path.pop()

    dfs(i, (), 0, 0, Fraction(0))
    return best, found


# ---------------------------------------------------------------------------
# sessions: one evaluator of the interval restrictions of x per space
# ---------------------------------------------------------------------------


class _TsirelsonSession:
    """Exact DP over interval restrictions of the support.

    value(i, j) is the norm of x restricted to support positions i..j: the
    largest |x_c| there, or half the best split of positions s..j into at
    most min(value at s, j - s + 1) chunks, for some start s (dropping
    earlier positions keeps min E_1 large).  The memo records the leaf t
    or the split (s, k) that first reached it.

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
    comparison, so every memoised value is exact.  `cover_prefix` holds the
    l1 mass over the same scale for the kernel's shortcut, and
    `witness(t, t)` is the leaf t, which the shortcut leaves unevaluated.
    """

    exact, converged, tolerance = True, True, 0.0
    half = Fraction(1, 2)  # the weight of every split node, built once

    def __init__(self, x: Vector):
        self.pos = x.support()
        self.vals = [v for _, v in x.entries]
        h = max(len(self.vals) - 1, 0) // 2
        self.scale = math.lcm(*(v.denominator for v in self.vals)) << h
        self.absvals = [abs(v.numerator) * (self.scale // v.denominator) for v in self.vals]
        self.cover_prefix = list(itertools.accumulate(self.absvals, initial=0))
        self.memo: Dict[Tuple[int, int], tuple] = {}
        self.cover_memo: dict = {}

    def value(self, i: int, j: int) -> int:
        hit = self.memo.get((i, j))
        if hit is not None:
            return hit[0]
        choice = max(range(i, j + 1), key=self.absvals.__getitem__)
        best = self.absvals[choice]
        for s in range(i, j):
            k = min(self.pos[s], j - s + 1)
            if k < 2:
                continue
            val = _cover(self.value, self.cover_memo, s, j, k, True, self.cover_prefix) >> 1
            if val > best:
                best, choice = val, (s, k)
        self.memo[(i, j)] = (best, choice)
        return best

    def witness(self, i: int, j: int) -> Partition:
        choice = i if i == j else self.memo[(i, j)][1]
        if isinstance(choice, int):
            return PartLeaf(self.pos[choice], -1 if self.vals[choice] < 0 else 1)
        s, k = choice
        parts = _cover_parts(self.value, self.witness, self.cover_memo, s, j, k, True, self.cover_prefix)
        return PartNode(self.half, parts)


class _SchlumprechtSession:
    """Same DP shape as Tsirelson with weight 1/log2(k+1) and no
    admissibility constraint; float arithmetic with a declared tolerance.

    The weight depends on the chunk count, so value(i, j) reads the kernel
    once per k.  "At most k" is still exact: a best split into k' <= k
    chunks carries the larger weight 1/log2(k'+1), so weighting it by
    1/log2(k+1) never exceeds the sup.
    """

    exact, converged, scale, cover_prefix = False, True, None, None

    def __init__(self, x: Vector, tolerance: float):
        self.tolerance = tolerance
        self.vals = _magnitudes(x)
        self.memo: Dict[Tuple[int, int], float] = {}
        self.cover_memo: dict = {}

    def value(self, i: int, j: int) -> float:
        hit = self.memo.get((i, j))
        if hit is not None:
            return hit
        best = max(self.vals[i : j + 1])
        for k in range(2, j - i + 2):
            best = max(best, _cover(self.value, self.cover_memo, i, j, k, split=True) / math.log2(k + 1))
        self.memo[(i, j)] = best
        return best


class _MixedSession:
    """Exact recursion for the mixed Schreier norm with functional witnesses.

    Pieces are intervals of support positions: (start, end) inclusive.
    `value(i, j)` evaluates the restriction to positions i..j by
    `_admissible_sum` with floor 2: a piece of size j is worth its cover with
    at most j chunks over j, at most its mass over j since norming
    functionals have coefficients in [-1, 1].  The memo records the best
    coordinate or piece system, which `witness` turns into a functional.
    MIXED_TICK_BUDGET guards the worst-case exponential piece-system
    enumeration; once it runs out every piece is skipped, and the values
    found so far stay certified lower bounds of a session that reports
    non-convergence.  The kernel reads a piece whose size reaches its
    length as its l1 mass from `cover_prefix`, at no tick, and
    `witness(t, t)` is the unit functional at t, which that shortcut leaves
    unevaluated.
    """

    exact, scale, tolerance = True, None, 0.0

    def __init__(self, x: Vector, xi: Ordinal):
        from .families import SchreierFamily

        self.pos = x.support()
        self.vals = [v for _, v in x.entries]
        self.absvals = [abs(v) for v in self.vals]
        self.prefix = self.cover_prefix = list(itertools.accumulate(self.absvals, initial=Fraction(0)))
        self.fam = SchreierFamily(omega_power(xi))
        self.budget = MIXED_TICK_BUDGET
        self.converged = True
        self.norm_memo: Dict[Tuple[int, int], tuple] = {}
        self.cover_memo: dict = {}

    def chunk(self, i: int, j: int) -> Fraction:
        """value(i, j), evaluated with the tick budget a session of its own
        would start with if no earlier chunk evaluated it."""
        if (i, j) not in self.norm_memo:
            self.budget = MIXED_TICK_BUDGET
        return self.value(i, j)

    def value(self, i: int, j: int) -> Fraction:
        hit = self.norm_memo.get((i, j))
        if hit is not None:
            return hit[0]
        t = max(range(i, j + 1), key=self.absvals.__getitem__)

        def piece(a: int, b: int, size: int):
            self.budget -= 1
            if self.budget < 0:
                self.converged = False
            elif (a, b) != (i, j):  # (i, j) alone is the degenerate self map
                return _cover(self.value, self.cover_memo, a, b, size, False, self.cover_prefix) / size, size
            return None

        best, pieces = _admissible_sum(self.fam, self.pos, self.prefix, i, j, 2, piece, self.absvals[t])
        self.norm_memo[(i, j)] = (best, t if pieces is None else pieces)
        return best

    def witness(self, i: int, j: int) -> Functional:
        choice = i if i == j else self.norm_memo[(i, j)][1]
        if isinstance(choice, int):
            return Unit(-1 if self.vals[choice] < 0 else 1, self.pos[choice])
        return SumNode(tuple(Average(size, _cover_parts(self.value, self.witness, self.cover_memo, a, b, size,
                                                        False, self.cover_prefix))
                             for a, b, size in choice))


class _ClosedSession:
    """l1, c0 and lp on support positions i..j: the l1 mass as a difference
    of prefix sums, the first largest |x_c|, or m (sum (|x_c|/m)^p)^(1/p)
    with m the chunk's largest |x_c|, added in support order: no ratio
    exceeds 1, so no power overflows, and the ratio 1 keeps the sum from
    underflowing to 0.  l1 ties its mass on every chunk, so it hands the
    kernel no `cover_prefix`."""

    converged, scale, cover_prefix = True, None, None

    def __init__(self, space: Union[L1Space, C0Space, LpSpace], x: Vector):
        self.space, self.entries, self.memo = space, x.entries, {}
        self.exact = not isinstance(space, LpSpace)
        self.tolerance = 0.0 if self.exact else 1e-12
        self.absvals = [abs(v) for _, v in x.entries] if self.exact else _magnitudes(x)
        if isinstance(space, L1Space):
            self.prefix = list(itertools.accumulate(self.absvals, initial=Fraction(0)))

    def value(self, i: int, j: int):
        hit = self.memo.get((i, j))
        if hit is None:
            if isinstance(self.space, L1Space):
                hit = self.prefix[j + 1] - self.prefix[i]
            elif isinstance(self.space, C0Space):
                hit = max(self.absvals[i : j + 1])
            else:
                p, chunk = self.space.p, self.absvals[i : j + 1]
                m = max(chunk)
                hit = m * sum((a / m) ** p for a in chunk) ** (1.0 / p)
            self.memo[(i, j)] = hit
        return hit

    def witness(self, i: int, j: int) -> Partition:
        """All the leaves for l1, the first largest one for c0."""
        if isinstance(self.space, C0Space):
            i = j = max(range(i, j + 1), key=self.absvals.__getitem__)
        leaves = tuple(PartLeaf(c, -1 if v < 0 else 1) for c, v in self.entries[i : j + 1])
        return PartNode(Fraction(1), leaves) if isinstance(self.space, L1Space) else leaves[0]


def _magnitudes(x: Vector) -> List[float]:
    """The |x_c| of a float space; a ValueError for a coefficient that no
    finite nonzero float holds."""
    out = []
    for c, v in x.entries:
        try:
            a = abs(float(v))
        except OverflowError:
            a = math.inf
        if not 0 < a < math.inf:
            raise ValueError(f"the coefficient at coordinate {c} does not fit a float")
        out.append(a)
    return out


def _session(space: NormSpace, x: Vector):
    """The evaluator of x's interval restrictions in the given space:
    `value(i, j)` for support positions i..j.  Values are final, or integer
    numerators over `scale` when that is set; they are exact rationals with
    a `witness(i, j)` when `exact` is set, else floats within `tolerance`;
    `converged` turns false once a budget ran out."""
    if isinstance(space, (L1Space, C0Space, LpSpace)):
        return _ClosedSession(space, x)
    if isinstance(space, TsirelsonSpace):
        return _TsirelsonSession(x)
    if isinstance(space, SchlumprechtSpace):
        return _SchlumprechtSession(x, space.tolerance)
    if isinstance(space, MixedSchreierSpace):
        return _MixedSession(x, space.xi)
    raise TypeError(f"not a norm space: {space!r}")


def _result(session, total, witness, tolerance: float, scale: int = 1) -> NormResult:
    """The NormResult of a session value (or sum of values) over `scale`;
    a ValueError for a float value that left the float range, which finite
    coefficients can reach in lp and Schlumprecht."""
    if session.scale:
        total = Fraction(total, session.scale * scale)
    elif scale != 1:
        total = total / scale
    if not session.exact and not math.isfinite(total):
        raise ValueError("the norm does not fit a float")
    exact = session.exact and session.converged
    return NormResult(total, exact, session.converged, witness, tolerance)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def norm(space: NormSpace, x: Vector) -> NormResult:
    """Norm of a finitely supported vector in the given space.

    Exact rational for l1, c0, Tsirelson and the mixed Schreier space
    (there the result is a certified lower bound with converged=False if
    MIXED_TICK_BUDGET runs out); float with declared tolerance for lp and
    Schlumprecht.  The zero vector has the exact norm 0 in every space, as
    in the interval norms.  Exact results carry a witness that re-evaluates
    to the value.
    """
    return _norm(space, x, witnessed=True)


def norm_j(space: NormSpace, x: Vector, j: int) -> NormResult:
    """|x|_j = sup (1/j) * sum of piece norms over at most j successive pieces.

    The interval norm with j pieces, scaled by 1/j.
    """
    if j < 2:
        raise ValueError("the weighted norms need j >= 2")
    return _norm(space, x, j, j, True)


def interval_norm(space: NormSpace, x: Vector, n: int) -> NormResult:
    """Sup of sums of norms over at most n successive interval restrictions."""
    if n < 1:
        raise ValueError("need n >= 1 intervals")
    return _norm(space, x, n, 1, True)


def _exact(space: NormSpace, x: Vector, n: int = 0) -> Fraction:
    """The value of `_norm(space, x, n)` for a caller that scales or
    divides by it, which needs it exact: a ValueError for lp and
    Schlumprecht, whose floats are no exact scale, raised before anything
    is evaluated, and BudgetExhausted for an X(xi) value whose budget ran
    out, which is only a lower bound."""
    if isinstance(space, (LpSpace, SchlumprechtSpace)):
        raise ValueError(f"the norm of {space} is not exact; a scale or a ratio needs exact values")
    r = _norm(space, x, n)
    if not r.converged:
        raise BudgetExhausted(f"the norm of {space} ran out of its tick budget; its value is only a lower bound")
    return r.value


def _norm(space: NormSpace, x: Vector, n: int = 0, scale: int = 1, witnessed: bool = False) -> NormResult:
    """The one evaluation behind `norm` (n = 0) and the interval norms: the
    NormResult of x, or of (1/scale) times the best sum of chunk norms over
    at most n interval chunks covering the support; with its witness only
    when `witnessed`.  Value, exact, converged and tolerance do not depend
    on it: the witness is rebuilt from the recorded choices alone.

    Covering chunks suffice: filling a gap never lowers a chunk norm
    (support monotonicity) and splitting a chunk never lowers the sum
    (triangle inequality).  Every chunk value comes from one session over
    the whole of x, so a chunk reuses the sub-intervals that other chunks
    already evaluated.  An X(xi) chunk not yet evaluated starts from a full
    MIXED_TICK_BUDGET, as it would in a session of its own.

    The result is exact and converged only when every chunk evaluated is:
    a chunk that lost the comparison may still be an underestimate.  With
    n at least the support size, T and X(xi) evaluate no chunk: the value
    is the exact l1 mass, whatever the tick budget.  At
    most n chunks enter the sum, so its error is at most n times the
    chunk tolerance, before the 1/scale.
    """
    if x.is_zero:
        return NormResult(Fraction(0), exact=True)
    session, last, witness = _session(space, x), len(x.entries) - 1, None
    if not n:
        total, tolerance = session.value(0, last), session.tolerance
        if witnessed and session.exact:
            witness = session.witness(0, last)
        return _result(session, total, witness, tolerance)
    tolerance = 0.0
    if session.tolerance:
        # at most n chunks enter the sum, each within the chunk tolerance
        try:
            tolerance = n * session.tolerance / scale
        except OverflowError:  # an n that no float holds
            tolerance = math.inf
        if tolerance == math.inf:
            raise ValueError(f"{n} chunks at tolerance {session.tolerance:g} give a tolerance past the float range")
    memo, prefix = {}, session.cover_prefix
    chunk = session.chunk if isinstance(session, _MixedSession) else session.value
    total = _cover(chunk, memo, 0, last, n, False, prefix)
    if witnessed and session.exact:
        parts = _cover_parts(chunk, session.witness, memo, 0, last, n, False, prefix)
        witness = PartNode(Fraction(1, scale), parts)
    return _result(session, total, witness, tolerance, scale)
