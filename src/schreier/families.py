"""Regular families of finite subsets of the naturals.

The transfinite Schreier hierarchy is built from

    S_0     = {{}} u {{n}}
    S_1     = {E : |E| <= min E}
    S_{x+1} = S_1[S_x]
    S_lam   = {E : exists n <= min E with E in S_{lam[n]}}   (lam a limit)

together with the cardinality families A_n = {E : |E| <= n}, the bracket

    F[G] = { E_1 u ... u E_d : E_1 < ... < E_d, E_i in G,
             (min E_i)_i in F }

and relabelings F(M) = {M(E) : E in F} along a strictly increasing index
sequence M.  Limit stages use the canonical fundamental sequences from
`ordinals`; limit membership is decided by the existential rule above and
never assumes the stages are nested.

Each family expression is compiled once, on first use, into a kernel that
answers every question about it; past `_kernel`, which compiles it, only
canonical rewriting and the two independent oracles read the expression.
A kernel decides membership exactly and with a witness: it splits a set
greedily into maximal blocks, which is complete when the outer family is
spreading and the inner one hereditary, and backtracks everywhere else.
Each kernel keeps its answers in a table of its own, keyed by the set,
and the tables of all kernels share one cap of MEMO_CAP answers; the
answers that depend only on the size and the minimum of a set are built
once and shared, and at the cap all of these clear with the kernel table.
`member_exhaustive` is an independent decider kept for cross-checking: it
tries every block end from left to right, with no greedy choice, and drops
only a prefix of blocks whose minima leave the outer family, which no
later block can undo, as every family here keeps the initial segments of
its members.  A kernel also carries a greedy state that it extends by
one element at a time along a DFS, the labels its members' elements are
drawn from, and its bracket shape; the maximal-set enumeration and the
exact maximisation of a weight function over a family (`family_mass`)
ride on them, as do the horizon-certified threshold and inclusion searches
and the index-sequence refinements of `verifiers`, which take an index
sequence from a given value on with `IndexSequence.from_value`.  Those
names stay readable here, and `verifiers` compiles on the first read of one.

Finite sets are plain tuples of naturals, strictly increasing.  The empty
set is a member of every family here.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .ordinals import ONE, Ordinal, add, finite, fundamental
from .reports import Record

FinSet = Tuple[int, ...]

# answers the kernels' tables hold at most in all, well above the ~40k of
# a verification pass; a store at the cap first clears every table, the
# shared leaf answers and the kernel table, so a hit does no bookkeeping
MEMO_CAP = 1 << 17


def finset(elements: Iterable[int]) -> FinSet:
    """Normalise an iterable of naturals >= 1 into a strictly increasing tuple."""
    elems = sorted(set(elements))
    if elems and elems[0] < 1:
        raise ValueError(f"elements must be naturals >= 1, got {elems[0]}")
    return tuple(elems)


def spread_of(E: FinSet, F: FinSet) -> bool:
    """True when F is a spread of E: equal lengths and E_i <= F_i pointwise."""
    if len(E) != len(F):
        raise ValueError("spread comparison requires equal lengths")
    return all(e <= f for e, f in zip(E, F))


# ---------------------------------------------------------------------------
# index sequences
# ---------------------------------------------------------------------------


class SequenceExhausted(Exception):
    """An explicit-prefix index sequence was read past its end."""


class IndexSequence(Record, frozen=True):
    """Strictly increasing map i -> m_i (1-indexed).

    Three kinds, by which fields are set:
      * explicit prefix only: reading past the end raises;
      * arithmetic: empty prefix, i -> tail_start + tail_step*(i-1);
      * table-extended: explicit prefix followed by an arithmetic tail.
    """

    prefix: Tuple[int, ...] = ()
    tail_start: Optional[int] = None
    tail_step: Optional[int] = None

    def __post_init__(self) -> None:
        for i in range(1, len(self.prefix)):
            if self.prefix[i] <= self.prefix[i - 1]:
                raise ValueError("index sequence must be strictly increasing")
        if self.prefix and self.prefix[0] < 1:
            raise ValueError("index sequence values must be >= 1")
        if (self.tail_start is None) != (self.tail_step is None):
            raise ValueError("tail_start and tail_step must be given together")
        if self.tail_start is not None:
            if self.tail_start < 1:
                raise ValueError("arithmetic tail start must be >= 1")
            if self.tail_step < 1:
                raise ValueError("arithmetic tail must be strictly increasing")
            if self.prefix and self.tail_start <= self.prefix[-1]:
                raise ValueError("arithmetic tail must continue past the prefix")

    @staticmethod
    def explicit(values: Iterable[int]) -> "IndexSequence":
        return IndexSequence(prefix=tuple(values))

    @staticmethod
    def arithmetic(start: int, step: int) -> "IndexSequence":
        return IndexSequence(tail_start=start, tail_step=step)

    @staticmethod
    def table(values: Iterable[int], tail_start: int, tail_step: int) -> "IndexSequence":
        return IndexSequence(prefix=tuple(values), tail_start=tail_start, tail_step=tail_step)

    @property
    def is_identity(self) -> bool:
        ok_prefix = self.prefix == tuple(range(1, len(self.prefix) + 1))
        return (
            ok_prefix
            and self.tail_start == len(self.prefix) + 1
            and self.tail_step == 1
        )

    def value_at(self, i: int) -> int:
        if i < 1:
            raise ValueError("index sequence positions start at 1")
        if i <= len(self.prefix):
            return self.prefix[i - 1]
        if self.tail_start is None:
            raise SequenceExhausted(f"explicit sequence of length {len(self.prefix)} read at {i}")
        return self.tail_start + self.tail_step * (i - len(self.prefix) - 1)

    def apply(self, E: FinSet) -> FinSet:
        """M(E) = (m_i : i in E)."""
        return tuple(self.value_at(i) for i in E)

    def position_of(self, value: int) -> Optional[int]:
        """Inverse lookup; None when value is not attained."""
        i = bisect_left(self.prefix, value)
        if i < len(self.prefix):
            return i + 1 if self.prefix[i] == value else None
        if self.tail_start is None or value < self.tail_start:
            return None
        q, r = divmod(value - self.tail_start, self.tail_step)
        if r != 0:
            return None
        return len(self.prefix) + 1 + q

    def preimage(self, E: FinSet) -> Optional[FinSet]:
        """The set B with M(B) = E, or None if some element is missed."""
        out = []
        for v in E:
            pos = self.position_of(v)
            if pos is None:
                return None
            out.append(pos)
        return tuple(out)

    def from_value(self, m: int) -> "IndexSequence":
        """The subsequence of the values >= m: the prefix filtered, and the
        tail moved to its first value >= m."""
        prefix = self.prefix[bisect_left(self.prefix, m):]
        if self.tail_start is None:
            return IndexSequence(prefix)
        start = max(m, self.tail_start)
        start += (self.tail_start - start) % self.tail_step
        return IndexSequence(prefix, start, self.tail_step)

    def values_within(self, lo: int, hi: int) -> List[int]:
        """All attained values in [lo, hi], ascending."""
        rest = self.from_value(lo)
        out = [v for v in rest.prefix if v <= hi]
        if rest.tail_start is not None:
            out.extend(range(rest.tail_start, hi + 1, rest.tail_step))
        return out

    def values_above(self, above: int, count: int) -> List[int]:
        """The first `count` attained values > above, however far past it
        they lie; fewer when an explicit sequence ends first."""
        rest = self.from_value(above + 1)
        out = list(rest.prefix[:count])
        if rest.tail_start is not None:
            stop = rest.tail_start + rest.tail_step * (count - len(out))
            out.extend(range(rest.tail_start, stop, rest.tail_step))
        return out


NATURALS = IndexSequence.arithmetic(1, 1)
EVENS = IndexSequence.arithmetic(2, 2)


# ---------------------------------------------------------------------------
# family expressions
# ---------------------------------------------------------------------------


class SchreierFamily(Record, frozen=True):
    index: Ordinal


class CardinalityFamily(Record, frozen=True):
    bound: int

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("cardinality bound must be >= 0")


class BracketFamily(Record, frozen=True):
    outer: "Family"
    inner: "Family"


class RelabeledFamily(Record, frozen=True):
    base: "Family"
    labels: IndexSequence


Family = Union[SchreierFamily, CardinalityFamily, BracketFamily, RelabeledFamily]


def S(index) -> SchreierFamily:
    """Schreier family S_xi; accepts an int or an Ordinal."""
    if isinstance(index, int):
        index = finite(index)
    return SchreierFamily(index)


def A(bound: int) -> CardinalityFamily:
    return CardinalityFamily(bound)


def canonicalize(fam: Family) -> Family:
    """Rewrite to a canonical form preserving membership exactly.

    S_1[S_x] -> S_{x+1} (that is the definition), and identity relabelings
    are dropped.  Used so that inclusion checks can recognise equal
    families syntactically.
    """
    if isinstance(fam, BracketFamily):
        outer = canonicalize(fam.outer)
        inner = canonicalize(fam.inner)
        if (
            isinstance(outer, SchreierFamily)
            and outer.index == ONE
            and isinstance(inner, SchreierFamily)
        ):
            return SchreierFamily(add(inner.index, ONE))
        return BracketFamily(outer, inner)
    if isinstance(fam, RelabeledFamily):
        base = canonicalize(fam.base)
        if fam.labels.is_identity:
            return base
        return RelabeledFamily(base, fam.labels)
    return fam


# ---------------------------------------------------------------------------
# membership witnesses
# ---------------------------------------------------------------------------


class LeafWitness(Record, frozen=True):
    rule: str


class SplitWitness(Record, frozen=True):
    """Decomposition into successive blocks with its sub-witnesses."""

    blocks: Tuple[FinSet, ...]
    block_witnesses: Tuple["Witness", ...]
    minima_witness: "Witness"


class LimitWitness(Record, frozen=True):
    n: int
    stage: Ordinal
    inner: "Witness"


class RelabelWitness(Record, frozen=True):
    preimage: FinSet
    inner: "Witness"


Witness = Union[LeafWitness, SplitWitness, LimitWitness, RelabelWitness]


class MembershipResult(Record, frozen=True):
    member: bool
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.member


# ---------------------------------------------------------------------------
# membership kernels
# ---------------------------------------------------------------------------
#
# A kernel's `decide` asks its sub-kernels every sub-question directly,
# through `_member`, so their answers are kept too.  Each kernel keeps its
# answers in its own table, `memo`, keyed by the set alone; equal families
# share one kernel, so there is one answer per family and set.
# `_member_cache` counts the answers of all tables together against
# MEMO_CAP and clears them all at the cap.  The answers of S_0, S_1 and A_n
# depend only on the size and the minimum of the set, and the minima
# witness of S_{x+1} only on the block count and the minimum, so each is
# built once, shared, and cleared with the tables.  A kernel's greedy
# state stands for a nonempty member E and decides E + (x,), for x > max E,
# in O(depth) without the memo.  S_0, S_1 and A_n hold the room left; F[G]
# holds the states of the block minima in F and of the open block in G, and
# S_{x+1} is S_1[S_x]; a limit S_lam holds (n, the kernel of S_lam[n], its
# state, E) for its least live stage n, the n that LimitWitness records, and
# replays later stages only when stage n dies; F(M) holds the state of the
# preimage.  F[G] with a relabeled F, which is not spreading, or with a G
# that is not hereditary has no greedy state.  A kernel's `labels` are the
# values its members' elements can take, M for F(M) and all naturals
# otherwise, and the enumerations draw their candidates from them.  Past
# `_kernel`, only `canonicalize` and the oracles `member_exhaustive` and
# `recheck_witness` read a family expression here; every other question
# is asked of its kernel.

class _Memo:
    """The member memo: the answer tables of every kernel under one cap.

    `len()` is the number of answers stored since the last clear, counted
    as they are stored.  `tables` lists every nonempty answer table: a
    table joins it at its first store after a clear, so the answers of a
    kernel that a running search still holds after a clear, and that the
    kernel table no longer holds, are counted and cleared all the same.
    `rooms` and `minima` hold the shared leaf answers.
    """

    def __init__(self) -> None:
        self.count = 0
        self.tables: List[Dict[FinSet, MembershipResult]] = []
        # (kernel of S_0, S_1 or A_n, |E|, min E) -> its member answer
        self.rooms: Dict[Tuple["_Room", int, int], MembershipResult] = {}
        # (block count, min E) -> the minima witness of S_{x+1}
        self.minima: Dict[Tuple[int, int], LeafWitness] = {}

    def __len__(self) -> int:
        return self.count

    def store(self, table: Dict[FinSet, MembershipResult], E: FinSet,
              answer: MembershipResult) -> None:
        if self.count >= MEMO_CAP:
            self.clear()
        if not table:
            self.tables.append(table)
        table[E] = answer
        self.count += 1

    def clear(self) -> None:
        """Empty every answer table, the shared leaf answers and the kernel
        table; a family compiled again gets a new kernel, so nothing may
        tell kernels apart by identity."""
        for table in self.tables:
            table.clear()
        self.tables.clear()
        self.rooms.clear()
        self.minima.clear()
        self.count = 0
        _kernels.clear()


_member_cache = _Memo()
_kernels: Dict[Family, "_Kernel"] = {}
_NOT_MEMBER = MembershipResult(False)
_NOT_A_SET = "a set must be strictly increasing naturals >= 1, got {}"
_EMPTY_MEMBER = MembershipResult(True, LeafWitness("empty set"))


def member(E, fam: Family) -> MembershipResult:
    """Exact membership of E in the family, with a witness when it holds.

    E is any iterable of strictly increasing naturals >= 1; anything else
    raises ValueError.
    """
    E = tuple(E)
    k = _kernels.get(fam) or _kernel(fam)
    hit = k.memo.get(E)
    if hit is None:
        # only a miss is checked: a hit was checked when it was stored.  The
        # exact-type test spares plain ints the slower isinstance call.
        prev = 0
        for x in E:
            if type(x) is not int and not isinstance(x, int) or x <= prev:
                raise ValueError(_NOT_A_SET.format(E))
            prev = x
        hit = k.decide(E) if E else _EMPTY_MEMBER
        _member_cache.store(k.memo, E, hit)
    return hit


def _member(E: FinSet, k: "_Kernel") -> MembershipResult:
    """`member` of a nonempty E in the family of kernel k, for a kernel's
    sub-questions: E is a piece of a set already checked."""
    hit = k.memo.get(E)
    if hit is None:
        hit = k.decide(E)
        _member_cache.store(k.memo, E, hit)
    return hit


def _kernel(fam: Family) -> "_Kernel":
    """The kernel of fam, compiled on first use and shared by equal families:
    the one place that dispatches on the family expression."""
    k = _kernels.get(fam)
    if k is not None:
        return k
    if isinstance(fam, CardinalityFamily):
        k = _Room(fam, lambda x: fam.bound - 1 if fam.bound else None,
                  lambda E: f"|E|={len(E)}<={fam.bound}")
    elif isinstance(fam, SchreierFamily):
        xi = fam.index
        if xi.is_zero:
            k = _Room(fam, lambda x: 0, lambda E: "singleton")
        elif xi == ONE:
            k = _Room(fam, lambda x: x - 1, lambda E: f"|E|={len(E)}<=min E={E[0]}")
            k.shape = k, _kernel(S(0))  # S_1 = S_1[S_0]
        elif xi.is_successor:
            k = _Successor(fam, _kernel(S(1)), _kernel(SchreierFamily(xi.predecessor())))
        else:
            k = _Limit(fam)
    elif isinstance(fam, BracketFamily):
        outer, inner = _kernel(fam.outer), _kernel(fam.inner)
        k = (_Bracket if outer.plain and inner.hereditary else _SetBracket)(fam, outer, inner)
    elif isinstance(fam, RelabeledFamily):
        k = _Relabeled(fam, _kernel(fam.base))
    else:
        raise TypeError(f"not a family expression: {fam!r}")
    _kernels[fam] = k
    return k


class _Kernel:
    """The compiled form of one family expression.  `plain` marks families
    built from S and A by brackets only, hereditary and spreading; F(M) is
    hereditary, in general not spreading, when F is, and `hereditary` marks
    F[G] only for F plain and G hereditary, the brackets `_kernel` compiles
    to `_Bracket`.  `labels` holds every value a
    member's elements can take: M for F(M), all naturals otherwise.
    `shape` holds the kernels (outer, inner) of F[G], of S_1 = S_1[S_0] and
    of a bracket relabeled once, and None for every other family.
    `sized` marks the size-determined families S_0, S_1 and A_n, whose
    members are the sets of a feasible size above their minimum.  `memo`
    holds the kernel's member answers, keyed by the set."""

    plain = hereditary = True
    sized = False
    labels = NATURALS
    shape = None

    def __init__(self, fam: Family) -> None:
        self.fam = fam
        self.memo: Dict[FinSet, MembershipResult] = {}

    def state_of(self, E: FinSet):
        """Greedy state of a nonempty E, or None when E is not a member."""
        state = self.start(E[0])
        for x in E[1:]:
            if state is None:
                return None
            state = self.push(state, x)
        return state

    def capped(self, state, left: int):
        """A key for the state when at most `left` elements can follow: equal
        keys accept the same extensions.  A state carrying its E is its key."""
        return state


class _Room(_Kernel):
    """S_0, S_1 and A_n: the state is the room left, `start(x)` at x, so
    every set of a feasible size above its minimum is a member.  `rule(E)`
    names the bound in the witness."""

    sized = True

    def __init__(self, fam: Family, start, rule) -> None:
        super().__init__(fam)
        self.start, self.rule = start, rule

    def push(self, state: int, x: int):
        return state - 1 if state else None

    def capped(self, state: int, left: int):
        # more room than the positions left is never used up
        return min(state, left)

    def decide(self, E: FinSet) -> MembershipResult:
        room = self.start(E[0])
        if room is None or len(E) > room + 1:
            return _NOT_MEMBER
        # the rule reads only |E| and min E, so equal pairs share one answer
        rooms = _member_cache.rooms
        key = (self, len(E), E[0])
        hit = rooms.get(key)
        if hit is None:
            hit = rooms[key] = MembershipResult(True, LeafWitness(self.rule(E)))
        return hit


class _Bracket(_Kernel):
    """F[G].  With F spreading and G hereditary the greedy split into maximal
    G-blocks is complete: block i of it ends no earlier than block i of any
    valid split, so its minima spread an initial segment of those minima."""

    def __init__(self, fam: Family, outer: _Kernel, inner: _Kernel) -> None:
        super().__init__(fam)
        self.outer, self.inner = outer, inner
        self.shape = outer, inner
        self.plain = outer.plain and inner.plain

    def start(self, x: int):
        outer, inner = self.outer.start(x), self.inner.start(x)
        return None if outer is None or inner is None else (outer, inner)

    def push(self, state, x: int):
        # x joins the open block when the inner family allows, else opens
        # a new block, which the outer family must accept
        outer, inner = state
        nxt = self.inner.push(inner, x)
        if nxt is not None:
            return outer, nxt
        outer = self.outer.push(outer, x)
        nxt = None if outer is None else self.inner.start(x)
        return None if nxt is None else (outer, nxt)

    def capped(self, state, left: int):
        return self.outer.capped(state[0], left), self.inner.capped(state[1], left)

    def opens(self, minima: FinSet) -> bool:
        """Whether blocks with these minima may start; partial minima
        prune, as every family here keeps initial segments of members."""
        return _member(minima, self.outer).member

    def minima_witness(self, minima: FinSet) -> Witness:
        return _member(minima, self.outer).witness

    def split(self, E: FinSet, start: int = 0, minima: FinSet = (), found: tuple = ()):
        """The first split of E into inner blocks that the outer family
        accepts, longest block first, as (block, witness) pairs; None when
        there is none.  A bracket that is not hereditary backtracks to
        shorter blocks when a later one fails."""
        if start == len(E):
            return found
        minima += (E[start],)
        if not self.opens(minima):
            return None
        for end in range(len(E), start, -1):
            res = _member(E[start:end], self.inner)
            if res.member:
                done = self.split(E, end, minima, found + ((E[start:end], res.witness),))
                if done is not None or self.hereditary:
                    return done
        return None

    def decide(self, E: FinSet) -> MembershipResult:
        found = self.split(E)
        if found is None:
            return _NOT_MEMBER
        blocks, wits = zip(*found)
        minima_witness = self.minima_witness(tuple(b[0] for b in blocks))
        return MembershipResult(True, SplitWitness(blocks, wits, minima_witness))


class _Successor(_Bracket):
    """S_{x+1} = S_1[S_x]: at most min E blocks.  The first block starts at
    min E, so minima[0] is min E and S_1 decides the minima from their
    count and their first element alone."""

    def opens(self, minima: FinSet) -> bool:
        return len(minima) <= minima[0]

    def minima_witness(self, minima: FinSet) -> Witness:
        shared = _member_cache.minima
        key = (len(minima), minima[0])
        hit = shared.get(key)
        if hit is None:
            hit = shared[key] = LeafWitness(f"d={len(minima)}<=min E={minima[0]}")
        return hit


class _SetBracket(_Bracket):
    """F[G] with a relabeled F or a non-hereditary G: its state is E; a push asks member."""

    hereditary = False
    def start(self, x: int):
        return self.push((), x)

    def push(self, state, x: int):
        E = state + (x,)
        return E if _member(E, self).member else None

    capped = _Kernel.capped


class _Limit(_Kernel):
    """S_lam at a limit lam; `stages[n]` is the kernel of S_lam[n]."""

    def __init__(self, fam: Family) -> None:
        super().__init__(fam)
        self.stages: List[Optional[_Kernel]] = [None]

    def stage(self, n: int) -> _Kernel:
        stages = self.stages
        while len(stages) <= n:
            stages.append(_kernel(SchreierFamily(fundamental(self.fam.index, len(stages)))))
        return stages[n]

    def start(self, x: int):
        return self.least_stage((x,), 1)

    def push(self, state, x: int):
        n, stage, stage_state, E = state
        E += (x,)
        stage_state = stage.push(stage_state, x)
        if stage_state is None:
            return self.least_stage(E, n + 1)
        return n, stage, stage_state, E

    def least_stage(self, E: FinSet, n: int):
        """Limit state of E from stage n on; None when no stage up to min E holds E."""
        for m in range(n, E[0] + 1):
            stage = self.stage(m)
            state = stage.state_of(E)
            if state is not None:
                return m, stage, state, E
        return None

    def decide(self, E: FinSet) -> MembershipResult:
        # exists n <= min E with E in S_{lam[n]}
        for n in range(1, E[0] + 1):
            stage = self.stage(n)
            inner = _member(E, stage)
            if inner.member:
                return MembershipResult(True, LimitWitness(n, stage.fam.index, inner.witness))
        return _NOT_MEMBER


class _Relabeled(_Kernel):
    """F(M): the state of the preimage in F."""

    plain = False

    def __init__(self, fam: Family, base: _Kernel) -> None:
        super().__init__(fam)
        self.base, self.labels, self.position = base, fam.labels, fam.labels.position_of
        self.hereditary = base.hereditary
        if not isinstance(base, _Relabeled):
            # F[G](M) is the bracket over M; F(M)(L) is no bracket relabeled once
            self.shape = base.shape

    def start(self, x: int):
        pos = self.position(x)
        return None if pos is None else self.base.start(pos)

    def push(self, state, x: int):
        pos = self.position(x)
        return None if pos is None else self.base.push(state, pos)

    def capped(self, state, left: int):
        return self.base.capped(state, left)

    def decide(self, E: FinSet) -> MembershipResult:
        pre = self.labels.preimage(E)
        inner = None if pre is None else _member(pre, self.base)
        if inner is None or not inner.member:
            return _NOT_MEMBER
        return MembershipResult(True, RelabelWitness(pre, inner.witness))


def _walk(
    fam: Family, universe: Sequence[int], root: FinSet = (), rhs: Optional[Family] = None
) -> Iterator[Tuple[FinSet, bool, bool, object]]:
    """The members of fam that extend root (empty or a singleton) by
    elements of the ascending universe, in DFS pre-order and increasing
    element order, as (E, leaf, escaped, state).

    Greedy states ride along the DFS, so an extension costs one push per
    family, and each member comes with its greedy state in fam (None for
    the empty set).  A leaf has no extension by a later universe element.
    With rhs given, a member outside rhs comes back escaped, and its
    extensions, which lie outside rhs as well because rhs is hereditary,
    are skipped.
    """
    k = _kernel(fam)
    start, push = k.start, k.push
    r = None if rhs is None else _kernel(rhs)
    state = start(root[0]) if root else None
    if root and state is None:
        return
    stack = [(root, state, None, 0)]
    while stack:
        E, state, rhs_state, first = stack.pop()
        if r is not None and E:
            rhs_state = r.push(rhs_state, E[-1]) if len(E) > 1 else r.start(E[0])
            if rhs_state is None:
                yield E, False, True, state
                continue
        kids = []
        for i in range(first, len(universe)):
            x = universe[i]
            nxt = push(state, x) if E else start(x)
            if nxt is not None:
                kids.append((E + (x,), nxt, rhs_state, i + 1))
        yield E, not kids, False, state
        stack.extend(reversed(kids))


# ---------------------------------------------------------------------------
# membership: independent exhaustive decider
# ---------------------------------------------------------------------------

_exhaustive_cache: Dict[Tuple[Family, FinSet], bool] = {}


def member_exhaustive(E, fam: Family) -> bool:
    """Membership by a search over every split into successive blocks.

    No greedy ordering: in the successor and bracket cases
    `_blocks_exhaustive` tries every end of every block, from left to
    right, and asks this oracle whether the block lies in the inner family.
    The one pruning is sound for every family here: a prefix of blocks
    whose minima leave the outer family is dropped, because the outer
    family keeps the initial segments of its members, so no later blocks
    bring the minima back in.  Kept as an independent cross-check for
    `member`, and raises the same ValueError for a tuple that is not a set.
    """
    E = tuple(E)
    key = (fam, E)
    hit = _exhaustive_cache.get(key)
    if hit is None:
        if not _is_finset(E):
            raise ValueError(_NOT_A_SET.format(E))
        hit = _exhaustive_uncached(E, fam)
        _exhaustive_cache[key] = hit
    return hit


def _is_finset(E: tuple) -> bool:
    """Strictly increasing naturals >= 1: the oracles' own check, written
    apart from `member`'s so that each can catch a fault in the other."""
    return all(isinstance(x, int) for x in E) and all(a < b for a, b in zip((0,) + E, E))


def _blocks_exhaustive(E: FinSet, outer: Family, inner: Family, start: int = 0,
                       minima: FinSet = ()) -> bool:
    """Whether E[start:] splits into successive blocks in inner whose minima,
    after those given, lie in outer; the search of `member_exhaustive`."""
    if start == len(E):
        return True
    minima += (E[start],)
    return member_exhaustive(minima, outer) and any(
        member_exhaustive(E[start:end], inner) and _blocks_exhaustive(E, outer, inner, end, minima)
        for end in range(start + 1, len(E) + 1)
    )


def _exhaustive_uncached(E: FinSet, fam: Family) -> bool:
    if not E:
        return True
    if isinstance(fam, CardinalityFamily):
        return len(E) <= fam.bound
    if isinstance(fam, SchreierFamily):
        xi = fam.index
        if xi.is_zero:
            return len(E) <= 1
        if xi == ONE:
            return len(E) <= E[0]
        if xi.is_successor:
            return _blocks_exhaustive(E, SchreierFamily(ONE), SchreierFamily(xi.predecessor()))
        return any(
            member_exhaustive(E, SchreierFamily(fundamental(xi, n)))
            for n in range(1, E[0] + 1)
        )
    if isinstance(fam, BracketFamily):
        return _blocks_exhaustive(E, fam.outer, fam.inner)
    if isinstance(fam, RelabeledFamily):
        pre = fam.labels.preimage(E)
        return pre is not None and member_exhaustive(pre, fam.base)
    raise TypeError(f"not a family expression: {fam!r}")


def recheck_witness(E, fam: Family, witness: Witness) -> bool:
    """Re-derive membership bottom-up from a stored witness; False for a
    tuple that is not a set."""
    from .vectors import successive

    E = tuple(E)
    if not _is_finset(E):
        return False
    if not E:
        return isinstance(witness, LeafWitness)
    if isinstance(witness, LeafWitness):
        if isinstance(fam, CardinalityFamily):
            return len(E) <= fam.bound
        if isinstance(fam, SchreierFamily):
            if fam.index.is_zero:
                return len(E) <= 1
            if fam.index == ONE:
                return len(E) <= E[0]
        return False
    if isinstance(witness, LimitWitness):
        if not (isinstance(fam, SchreierFamily) and fam.index.is_limit):
            return False
        if not 1 <= witness.n <= E[0] or fundamental(fam.index, witness.n) != witness.stage:
            return False
        return recheck_witness(E, SchreierFamily(witness.stage), witness.inner)
    if isinstance(witness, SplitWitness):
        blocks, wits = witness.blocks, witness.block_witnesses
        # one witness per block: zip would drop the blocks past the last one
        if (tuple(itertools.chain.from_iterable(blocks)) != E or not successive(blocks)
                or len(wits) != len(blocks)):
            return False
        if isinstance(fam, SchreierFamily) and fam.index.is_successor and fam.index != ONE:
            inner, outer_ok = SchreierFamily(fam.index.predecessor()), len(blocks) <= E[0]
        elif isinstance(fam, BracketFamily):
            minima = tuple(b[0] for b in blocks)
            inner, outer_ok = fam.inner, recheck_witness(minima, fam.outer, witness.minima_witness)
        else:
            return False
        return outer_ok and all(recheck_witness(b, inner, w) for b, w in zip(blocks, wits))
    if isinstance(witness, RelabelWitness):
        if not isinstance(fam, RelabeledFamily) or fam.labels.preimage(E) != witness.preimage:
            return False
        return recheck_witness(witness.preimage, fam.base, witness.inner)
    return False


# ---------------------------------------------------------------------------
# enumeration of maximal members
# ---------------------------------------------------------------------------


class MaximalEnumeration(Record):
    sets: List[FinSet]
    truncated: List[bool]
    all_truncated: bool


def iter_maximal(fam: Family, first: int, horizon: int) -> Iterator[FinSet]:
    """Lazily yield the DFS leaves among members with min = first.

    DFS over one-element extensions in increasing element order; each leaf
    (a member with no in-window extension by a larger element) is yielded as
    it is found.  A leaf need not be inclusion-maximal: it may still take an
    element between two of its own, so that (1, 4) is a leaf of A_3 at
    horizon 4 although (1, 2, 4) and (1, 3, 4) are members.  Every maximal
    member is a leaf, which is what the horizon-certified searches need;
    `enumerate_maximal` filters the leaves down to the maximal ones.
    """
    # the canonical form keeps a bracket under an identity relabeling plain
    for E, _ in _leaves(canonicalize(fam), first, horizon):
        yield E


def _leaves(fam: Family, first: int, horizon: int) -> Iterator[Tuple[FinSet, object]]:
    """The DFS leaves of `iter_maximal` for a canonical fam, each with its
    greedy state; only the kernel's labels can extend a member."""
    if first > horizon:
        raise ValueError("first must be <= horizon")
    for E, leaf, _, state in _walk(fam, _kernel(fam).labels.values_within(first + 1, horizon), (first,)):
        if leaf:
            yield E, state


def enumerate_maximal(fam: Family, first: int, horizon: int) -> MaximalEnumeration:
    """All inclusion-maximal members with min = first and support in [first, horizon].

    Sets that could still be extended past the horizon are flagged as
    truncated; if every maximal set is truncated the horizon was too small
    for this family and the result says so.

    A DFS leaf E is maximal when no single element y between its own joins
    it, as the family is hereditary.  For a plain family (hereditary and
    spreading) sorted(E + (y,)) lies pointwise below E + (z,) for every z >
    max E, so a gap that joins E would let every such z join it too.  So a
    leaf with max E < horizon, which refuses max E + 1, is maximal, and so
    is one that refuses horizon + 1; only a leaf at the horizon that takes
    horizon + 1 is asked about a gap, the largest one.
    """
    sets: List[FinSet] = []
    truncated: List[bool] = []
    fam = canonicalize(fam)
    k = _kernel(fam)
    probe_values = k.labels.values_above(horizon, 4)
    for current, state in _leaves(fam, first, horizon):
        if not k.plain or (current[-1] == horizon and k.push(state, horizon + 1) is not None):
            gaps = [y for y in k.labels.values_within(first + 1, current[-1]) if y not in current]
            if k.plain:
                # by spreading again, a gap that joins E lets every later one join
                gaps = gaps[-1:]
            if any(k.state_of(tuple(sorted(current + (y,)))) is not None for y in gaps):
                continue
        sets.append(current)
        truncated.append(any(k.push(state, v) is not None for v in probe_values))
    all_truncated = bool(sets) and all(truncated)
    return MaximalEnumeration(sets, truncated, all_truncated)


# ---------------------------------------------------------------------------
# exact mass maximisation over a family
# ---------------------------------------------------------------------------


class MassResult(Record):
    mass: Fraction
    argmax: FinSet


def family_mass(coeffs: Dict[int, Fraction], fam: Family) -> MassResult:
    """Exact max over members G of the family of sum of coeffs over G.

    Coefficients must be non-negative with finite support on naturals >= 1.
    A size-determined family (S_0, S_1, A_n) takes, for each first element
    m, m plus as many of the largest coefficients after it as its greedy
    state has room left: every set of that size above m is a member.  Every
    other family runs a depth-first search over support positions that
    carries the greedy state of the chosen set.  It cuts a branch whose
    mass plus the residual sum cannot strictly beat the best so far, and
    skips a node whose mass is no larger than that of an earlier node with
    the same key (next position, capped state): equal keys accept the
    same extensions, so the earlier node's futures dominate, and the best
    never decreases.  Argmax ties go to the first set in DFS order.
    """
    if any(c < 0 for c in coeffs.values()):
        raise ValueError("coefficients must be non-negative")
    if any(i < 1 for i in coeffs):
        raise ValueError(f"coordinates must be naturals >= 1, got {min(coeffs)}")
    support = sorted(i for i, c in coeffs.items() if c > 0)
    vals = [Fraction(coeffs[i]) for i in support]
    # integer numerators over one common denominator keep every sum exact
    scale = math.lcm(*(v.denominator for v in vals))
    weight = {i: v.numerator * (scale // v.denominator) for i, v in zip(support, vals)}
    fam = canonicalize(fam)
    k = _kernel(fam)
    best_mass, best_set = 0, ()

    if k.sized:
        ranked = sorted(support, key=weight.__getitem__, reverse=True)
        for m in support:
            room = k.start(m)
            if room is None:
                continue
            rest = list(itertools.islice((i for i in ranked if i > m), room))
            mass = weight[m] + sum(weight[i] for i in rest)
            if mass > best_mass:
                best_mass, best_set = mass, (m, *sorted(rest))
        return MassResult(Fraction(best_mass, scale), best_set)

    n = len(support)
    # suffix[t] is the weight of support positions t..n-1
    suffix = list(itertools.accumulate((weight[i] for i in reversed(support)), initial=0))[::-1]
    seen: Dict[tuple, int] = {}

    def dfs(q: int, state, mass: int, chosen: FinSet) -> None:
        nonlocal best_mass, best_set
        for idx in range(q, n):
            if mass + suffix[idx] <= best_mass:
                return
            x = support[idx]
            nxt = k.push(state, x) if chosen else k.start(x)
            if nxt is None:
                continue
            grown, more = mass + weight[x], chosen + (x,)
            if grown > best_mass:
                best_mass, best_set = grown, more
            key = (idx + 1, k.capped(nxt, n - idx - 1))
            if seen.get(key, -1) >= grown:
                continue
            seen[key] = grown
            dfs(idx + 1, nxt, grown, more)

    dfs(0, None, 0, ())
    return MassResult(Fraction(best_mass, scale), best_set)


def clear_caches() -> None:
    """Drop the member memo, the compiled kernels and the exhaustive
    oracle's table (idempotent pure caches)."""
    _member_cache.clear()
    _exhaustive_cache.clear()


# the verifiers, which compile on first use: most commands never run one
_VERIFIERS = (
    "ThresholdResult", "threshold_search", "construct_L", "construct_L_bracket",
    "construct_N", "verify_union_property", "verify_bracket_inclusion",
)


def __getattr__(name):
    if name not in _VERIFIERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verifiers

    value = globals()[name] = getattr(verifiers, name)
    return value
