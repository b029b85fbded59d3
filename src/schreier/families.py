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
`member` memoises those answers in a memo of at most MEMO_CAP entries.
`member_exhaustive` is an independent decider kept for cross-checking: it
tries every block end from left to right, with no greedy choice, and drops
only a prefix of blocks whose minima leave the outer family, which no
later block can undo, as every family here keeps the initial segments of
its members.  A kernel also carries a greedy state that it extends by
one element at a time along a DFS, and the labels its members' elements
are drawn from; the maximal-set enumeration, the horizon-certified
threshold and inclusion searches, and the exact maximisation of a weight
function over a family (`family_mass`) ride on them, and the dominance
pass of the inclusion check reads a bracket's outer and inner kernels.
The module also builds the index sequences that push brackets into higher
families.

Finite sets are plain tuples of naturals, strictly increasing.  The empty
set is a member of every family here.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .ordinals import ONE, Ordinal, compare, add, finite, fundamental
from .reports import Record, WitnessReport

FinSet = Tuple[int, ...]

# cap on the DFS leaves of S_xi members `threshold_search` reaches per
# candidate n before it settles for the structural threshold
THRESHOLD_MINIMALITY_BUDGET = 200_000
# cap on the minima patterns of the dominance pass in `verify_bracket_inclusion`
BRACKET_PATTERN_BUDGET = 2_000_000
# entries the member memo holds at most, well above the ~40k of a
# verification pass; a store into a full memo first clears it whole, so a
# hit does no bookkeeping
MEMO_CAP = 1 << 17


def finset(elements: Iterable[int]) -> FinSet:
    """Normalise an iterable of naturals >= 1 into a strictly increasing tuple."""
    elems = sorted(set(elements))
    if elems and elems[0] < 1:
        raise ValueError(f"elements must be naturals >= 1, got {elems[0]}")
    return tuple(elems)


def successive(blocks: Sequence[FinSet]) -> bool:
    """True when max of each block is below min of the next (empty blocks rejected)."""
    if any(not b for b in blocks):
        return False
    return all(blocks[i][-1] < blocks[i + 1][0] for i in range(len(blocks) - 1))


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

    def values_within(self, lo: int, hi: int) -> List[int]:
        """All attained values in [lo, hi], ascending."""
        out = [v for v in self.prefix if lo <= v <= hi]
        if self.tail_start is not None:
            # the least tail value >= lo; the tail continues past the prefix
            start = max(lo, self.tail_start)
            start += (self.tail_start - start) % self.tail_step
            out.extend(range(start, hi + 1, self.tail_step))
        return out

    def values_above(self, above: int, count: int) -> List[int]:
        """The first `count` attained values > above, however far past it
        they lie; fewer when an explicit sequence ends first."""
        hi = max(above, self.prefix[-1]) if self.prefix else above
        if self.tail_start is not None:
            # the tail has `count` values within `count` steps of its start
            hi = max(hi, self.tail_start) + self.tail_step * count
        return self.values_within(above + 1, hi)[:count]


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
# through `_member`, so the memo holds those too.  The memo is keyed by
# (kernel, E), which hashes by the kernel's identity; equal families share
# one kernel, so it keeps one entry per family and set.  A kernel's greedy
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

_member_cache: Dict[Tuple["_Kernel", FinSet], MembershipResult] = {}
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
    key = (k, E)
    hit = _member_cache.get(key)
    if hit is None:
        # only a miss is checked: a hit was checked when it was stored.  The
        # exact-type test spares plain ints the slower isinstance call.
        prev = 0
        for x in E:
            if type(x) is not int and not isinstance(x, int) or x <= prev:
                raise ValueError(_NOT_A_SET.format(E))
            prev = x
        hit = k.decide(E) if E else _EMPTY_MEMBER
        if len(_member_cache) >= MEMO_CAP:
            _member_cache.clear()
        _member_cache[key] = hit
    return hit


def _member(E: FinSet, k: "_Kernel") -> MembershipResult:
    """`member` of a nonempty E in the family of kernel k, for a kernel's
    sub-questions: E is a piece of a set already checked."""
    key = (k, E)
    hit = _member_cache.get(key)
    if hit is None:
        hit = k.decide(E)
        if len(_member_cache) >= MEMO_CAP:
            _member_cache.clear()
        _member_cache[key] = hit
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
    F[G] only for F plain and G hereditary.  `labels` holds every value a
    member's elements can take: M for F(M), all naturals otherwise."""

    plain = hereditary = True
    labels = NATURALS

    def __init__(self, fam: Family) -> None:
        self.fam = fam

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
        return MembershipResult(True, LeafWitness(self.rule(E)))


class _Bracket(_Kernel):
    """F[G].  With F spreading and G hereditary the greedy split into maximal
    G-blocks is complete: block i of it ends no earlier than block i of any
    valid split, so its minima spread an initial segment of those minima."""

    def __init__(self, fam: Family, outer: _Kernel, inner: _Kernel) -> None:
        super().__init__(fam)
        self.outer, self.inner = outer, inner
        self.plain = outer.plain and inner.plain
        self.hereditary = outer.plain and inner.hereditary

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

    def opens(self, minima: FinSet, E: FinSet) -> bool:
        """Whether blocks with these minima may start; partial minima
        prune, as every family here keeps initial segments of members."""
        return _member(minima, self.outer).member

    def minima_witness(self, minima: FinSet, E: FinSet) -> Witness:
        return _member(minima, self.outer).witness

    def split(self, E: FinSet, start: int = 0, minima: FinSet = (), found: tuple = ()):
        """The first split of E into inner blocks that the outer family
        accepts, longest block first, as (block, witness) pairs; None when
        there is none.  A bracket that is not hereditary backtracks to
        shorter blocks when a later one fails."""
        if start == len(E):
            return found
        minima += (E[start],)
        if not self.opens(minima, E):
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
        minima_witness = self.minima_witness(tuple(b[0] for b in blocks), E)
        return MembershipResult(True, SplitWitness(blocks, wits, minima_witness))


class _Successor(_Bracket):
    """S_{x+1} = S_1[S_x]: at most min E blocks, with the minimum fixed by E."""

    def opens(self, minima: FinSet, E: FinSet) -> bool:
        return len(minima) <= E[0]

    def minima_witness(self, minima: FinSet, E: FinSet) -> Witness:
        return LeafWitness(f"d={len(minima)}<=min E={E[0]}")


class _SetBracket(_Bracket):
    """F[G] with a relabeled F or a non-hereditary G: its state is E; a push asks member."""

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
) -> Iterator[Tuple[FinSet, bool, bool]]:
    """The members of fam that extend root (empty or a singleton) by
    elements of the ascending universe, in DFS pre-order and increasing
    element order, as (E, leaf, escaped).

    Greedy states ride along the DFS, so an extension costs one push per
    family.  A leaf has no extension by a later universe element.  With rhs
    given, a member outside rhs comes back escaped, and its extensions,
    which lie outside rhs as well because rhs is hereditary, are skipped.
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
                yield E, False, True
                continue
        kids = []
        for i in range(first, len(universe)):
            x = universe[i]
            nxt = push(state, x) if E else start(x)
            if nxt is not None:
                kids.append((E + (x,), nxt, rhs_state, i + 1))
        yield E, not kids, False
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
    if first > horizon:
        raise ValueError("first must be <= horizon")
    # the canonical form keeps a bracket under an identity relabeling plain,
    # and only the kernel's labels can extend a member
    fam = canonicalize(fam)
    for E, leaf, _ in _walk(fam, _kernel(fam).labels.values_within(first + 1, horizon), (first,)):
        if leaf:
            yield E


def enumerate_maximal(fam: Family, first: int, horizon: int) -> MaximalEnumeration:
    """All inclusion-maximal members with min = first and support in [first, horizon].

    Sets that could still be extended past the horizon are flagged as
    truncated; if every maximal set is truncated the horizon was too small
    for this family and the result says so.
    """
    sets: List[FinSet] = []
    truncated: List[bool] = []
    fam = canonicalize(fam)
    k = _kernel(fam)
    probe_values = k.labels.values_above(horizon, 4)
    for current in iter_maximal(fam, first, horizon):
        # a DFS leaf need not be maximal (A_3 from 1 at horizon 4 yields the
        # leaf (1, 4) inside (1, 2, 4)); as the family is hereditary, it is
        # maximal when no single element between its own joins it, and for
        # a spreading family the largest such element is the one to try
        gaps = [y for y in k.labels.values_within(first + 1, current[-1]) if y not in current]
        if k.plain:
            gaps = gaps[-1:]
        if any(k.state_of(tuple(sorted(current + (y,)))) is not None for y in gaps):
            continue
        sets.append(current)
        state = k.state_of(current)
        truncated.append(any(k.push(state, v) is not None for v in probe_values))
    all_truncated = bool(sets) and all(truncated)
    return MaximalEnumeration(sets, truncated, all_truncated)


# ---------------------------------------------------------------------------
# threshold search (horizon-certified)
# ---------------------------------------------------------------------------


class ThresholdResult(Record):
    n: int
    certified_horizon: int
    rejections: List[Tuple[int, FinSet]]
    minimal: bool = True


def _structural_threshold(xi: Ordinal, zeta: Ordinal) -> int:
    """An n valid for every E (not only in-window): recursion on zeta.

    Peeling a successor target preserves thresholds since S_eta is
    contained in S_{eta+1}; at a limit target, pick the least stage k with
    xi <= zeta[k] and force min E >= k so the existential membership rule
    fires at stage k.
    """
    if xi == zeta:
        return 1
    if zeta.is_successor:
        return _structural_threshold(xi, zeta.predecessor())
    k = 1
    while compare(xi, fundamental(zeta, k)) > 0:
        k += 1
    return max(k, _structural_threshold(xi, fundamental(zeta, k)))


def threshold_search(xi: Ordinal, zeta: Ordinal, horizon: int) -> ThresholdResult:
    """Least n so that every E in S_xi with n <= min E, support in [n, horizon],
    lies in S_zeta.

    Requires xi <= zeta.  A structurally certified n (valid at every
    horizon) is computed first; candidates below it are then checked by a
    DFS over the S_xi members that carries their S_zeta state along, so
    the first member to leave S_zeta, in DFS order, rejects the candidate
    and is recorded with it.  If the DFS for one candidate would reach more
    than THRESHOLD_MINIMALITY_BUDGET leaves, the structural n is returned
    with minimal=False rather than an uncertified smaller value.
    """
    if compare(xi, zeta) > 0:
        raise ValueError("threshold search needs xi <= zeta")
    fam_xi, fam_zeta = SchreierFamily(xi), SchreierFamily(zeta)
    n_struct = _structural_threshold(xi, zeta)
    rejections: List[Tuple[int, FinSet]] = []
    best = n_struct
    minimal = True
    n = 1
    while n < n_struct:
        bad: Optional[FinSet] = None
        budget = THRESHOLD_MINIMALITY_BUDGET
        for E, leaf, escaped in _walk(fam_xi, range(n, horizon + 1), rhs=fam_zeta):
            if escaped:
                bad = E
                break
            if leaf and E:
                budget -= 1
                if budget < 0:
                    break
        if budget < 0:
            minimal = False
            break
        if bad is None:
            best = n
            break
        rejections.append((n, bad))
        # the counterexample kills every candidate up to its min element
        n = max(n + 1, bad[0] + 1)
    return ThresholdResult(best, horizon, rejections, minimal)


# ---------------------------------------------------------------------------
# index-sequence constructions pushing brackets into higher families
# ---------------------------------------------------------------------------


class ConstructionError(Exception):
    """A construction ran out of room before reaching the requested length."""


def _tail_from(M: IndexSequence, minimum: int, horizon: int) -> IndexSequence:
    """The subsequence of M with values >= minimum, as a fresh sequence."""
    values = M.values_within(minimum, horizon)
    if M.tail_start is not None:
        last = values[-1] if values else max(minimum - 1, M.tail_start - M.tail_step)
        nxt = last + M.tail_step
        if M.position_of(nxt) is None:
            # align to the arithmetic grid of M
            off = (nxt - M.tail_start) % M.tail_step
            nxt += (M.tail_step - off) % M.tail_step
        return IndexSequence.table(values, nxt, M.tail_step)
    if not values:
        raise ConstructionError(f"index sequence exhausted above {minimum}")
    return IndexSequence.explicit(values)


def construct_L(xi: Ordinal, zeta: Ordinal, M: IndexSequence, horizon: int) -> IndexSequence:
    """Subsequence L of M with S_xi(L)[S_zeta] contained in S_{zeta+xi}.

    Base xi = 0 returns M; successor stages reuse the L built one stage
    down; limit stages build the diagonal of refinements L_n, where stage n
    clears the ordinal threshold k_n (zeta + xi[n] < gamma_{k_n} along the
    fundamental sequence of zeta + xi) and the horizon-certified index
    threshold r_n.  The result is table-extended: explicit up to the
    horizon, arithmetic past it when M allows.
    """
    if xi.is_zero:
        return M
    if xi.is_successor:
        return construct_L(xi.predecessor(), zeta, M, horizon)

    target = add(zeta, xi)
    if not target.is_limit:
        raise ValueError("zeta + xi must be a limit when xi is")
    diag: List[int] = []
    current = M
    n = 1
    while True:
        stage = add(zeta, fundamental(xi, n))
        k_n = 1
        while compare(stage, fundamental(target, k_n)) >= 0:
            k_n += 1
        gamma = fundamental(target, k_n)
        r_n = max(k_n, threshold_search(stage, gamma, horizon).n)
        try:
            current = _tail_from(current, r_n, horizon)
            L_n = construct_L(fundamental(xi, n), zeta, current, horizon)
            ell = L_n.value_at(n)
        except (SequenceExhausted, ConstructionError) as exc:
            raise ConstructionError(
                f"horizon {horizon} too small at diagonal stage {n}: {exc}"
            ) from exc
        if diag and ell <= diag[-1]:
            raise ConstructionError(f"diagonal not increasing at stage {n}")
        if ell > horizon:
            break
        diag.append(ell)
        current = L_n
        n += 1
    if not diag:
        raise ConstructionError(f"horizon {horizon} too small to start the diagonal")
    step = M.tail_step if M.tail_step is not None else max(diag[-1] - diag[-2], 1) if len(diag) > 1 else 1
    return IndexSequence.table(diag, diag[-1] + step, step)


def construct_L_bracket(xi: Ordinal, zeta: Ordinal, horizon: int) -> IndexSequence:
    """L with S_xi[S_zeta](L) contained in S_{zeta+xi}: construct_L over all naturals."""
    return construct_L(xi, zeta, NATURALS, horizon)


def construct_N(
    xi: Ordinal, zeta: Ordinal, blocks: Sequence, horizon: int
) -> IndexSequence:
    """Positions N so that E in S_xi(N) implies the union of blocks F_i, i in E,
    lands in S_{zeta+xi}.

    Takes m_i = min F_i, builds L inside M = (m_i) via construct_L, and
    returns the positions of L's values inside M.  Blocks must be
    successive members of S_zeta.
    """
    blocks = [tuple(b) for b in blocks]
    if not successive(blocks):
        raise ValueError("blocks must be successive and nonempty")
    fam = SchreierFamily(zeta)
    for i, b in enumerate(blocks):
        if not member(b, fam).member:
            raise ValueError(f"block {i + 1} is not in the stated family")
    mins = [b[0] for b in blocks]
    M = IndexSequence.explicit(mins)
    L = construct_L(xi, zeta, M, horizon)
    positions = []
    # no value of L past the last minimum lies in M
    for v in L.values_within(1, max(mins, default=0)):
        pos = M.position_of(v)
        if pos is None:
            break
        positions.append(pos)
    if not positions:
        raise ConstructionError("no block minima survive the refinement")
    return IndexSequence.explicit(positions)


def verify_union_property(
    N: IndexSequence, blocks: Sequence, xi: Ordinal, zeta: Ordinal
) -> WitnessReport:
    """Exhaustively check: E in S_xi(N) over the block indices implies
    union of F_i, i in E, is in S_{zeta+xi}."""
    blocks = [tuple(b) for b in blocks]
    target = SchreierFamily(add(zeta, xi))
    indexed = RelabeledFamily(SchreierFamily(xi), N)
    count = 0
    limit = len(blocks)
    for E, _, _ in _walk(indexed, range(1, limit + 1)):
        if not E:
            continue
        union = tuple(itertools.chain.from_iterable(blocks[i - 1] for i in E))
        count += 1
        if not member(union, target).member:
            return WitnessReport(
                False,
                detail=f"union of blocks {E} escapes the target family",
                counterexample=(E, union),
                certified_horizon=limit,
                method="exhaustive-union",
            )
    return WitnessReport(
        True,
        detail=f"{count} index sets checked",
        certified_horizon=limit,
        method="exhaustive-union",
        stats={"checked": count},
    )


# ---------------------------------------------------------------------------
# inclusion verification
# ---------------------------------------------------------------------------


def _bracket_shape(k: _Kernel):
    """Recognise F[G] from its kernel, with or without a relabeling of the
    whole bracket.

    Returns the kernels of the minima and inner families and the labels L
    of the whole bracket, all naturals when it is not relabeled.  Under
    F[G](L) every member is L(C) for C in F[G], so blocks live in the
    preimage (position) space, which is value space when L is the identity.
    S_1 is read as S_1[S_0], relabeled or not.
    """
    labels = k.labels
    if isinstance(k, _Relabeled):
        k = k.base
    if k is _kernel(S(1)):
        return k, _kernel(S(0)), labels
    if isinstance(k, _Bracket):
        return k.outer, k.inner, labels
    return None


def _max_block_size(inner: _Kernel, first: int, window: Sequence[int]) -> int:
    """Largest size of an inner-family member with min = first inside window.

    window holds the admissible values above first, ascending.  Because the
    families are spreading, the top-packed candidate (first plus the k-1
    largest window values) is a member whenever any k-sized member exists,
    so a downward scan over k is exact.
    """
    for k in range(len(window) + 1, 0, -1):
        cand = (first,) + tuple(window[len(window) - (k - 1):])
        if _member(cand, inner).member:
            return k
    return 0


def _dominance_blocks(
    minima: _Kernel, inner: _Kernel, labels: IndexSequence, horizon: int
) -> Iterator[Tuple[FinSet, List[Tuple[FinSet, FinSet, FinSet]]]]:
    """Each nonempty minima pattern of a bracket shape within the horizon,
    with what each of its blocks contributes: (compressed, left_packed,
    top_packed).

    Minima patterns are the members of the minima family among the
    positions 1..top of the labels L of the whole bracket within the
    horizon.  Block i runs from its minimum a up to, not including, the
    next minimum (past top for the last block), and holds at most k =
    `_max_block_size` inner elements.  Its compressed part is the k values
    from L(a), its left-packed part a..a+k-1 and its top-packed part a with
    the k-1 largest values of its window, a genuine inner member by
    spreading.  With the inner family fixed, a block depends on a and the
    next minimum alone, so each such pair is worked out once per call.
    """
    values = labels.values_within(1, horizon)
    top = len(values)
    contributions: Dict[Tuple[int, int], Tuple[FinSet, FinSet, FinSet]] = {}

    def block(a: int, nxt: int) -> Tuple[FinSet, FinSet, FinSet]:
        k = _max_block_size(inner, a, range(a + 1, nxt))
        base = values[a - 1]
        contributions[a, nxt] = parts = (
            tuple(range(base, base + k)),
            tuple(range(a, a + k)),
            (a,) + tuple(range(nxt - k + 1, nxt)),
        )
        return parts

    for Apat, _, _ in _walk(minima.fam, minima.labels.values_within(1, top)):
        if Apat:
            # block i ends below the next minimum, the last one at the top
            ends = zip(Apat, Apat[1:] + (top + 1,))
            yield Apat, [contributions.get(key) or block(*key) for key in ends]


def verify_bracket_inclusion(lhs: Family, rhs: Family, horizon: int) -> WitnessReport:
    """Check every member of lhs with support in [1, horizon] for membership
    in rhs, and return the first counterexample if one exists.

    Three exact strategies, most specific first:

    * structural: after canonical rewriting lhs equals rhs, so the
      inclusion is an identity;
    * member sweep (method "powerset") at small horizons: every lhs
      member, by DFS with the rhs state carried along, so the
      counterexample is the first escaping member in DFS order;
    * spread-dominance (`_verify_by_dominance`) at larger horizons.
    """
    lhs_c, rhs_c = canonicalize(lhs), canonicalize(rhs)
    if lhs_c == rhs_c:
        return WitnessReport(
            True, detail="families identical after canonical rewriting",
            certified_horizon=horizon, method="structural",
        )

    if horizon <= 16:
        checked = 0
        for E, _, escaped in _walk(lhs_c, range(1, horizon + 1), rhs=rhs_c):
            if escaped:
                return WitnessReport(
                    False, detail="member of lhs escapes rhs",
                    counterexample=E, certified_horizon=horizon,
                    method="powerset",
                )
            checked += 1
        return WitnessReport(
            True, detail=f"{checked} members checked",
            certified_horizon=horizon, method="powerset", stats={"members": checked},
        )
    return _verify_by_dominance(_kernel(lhs_c), _kernel(rhs_c), horizon)


def _verify_by_dominance(lhs: _Kernel, rhs: _Kernel, horizon: int) -> WitnessReport:
    """Spread-dominance check of the kernel of a canonical lhs against that
    of rhs, at any horizon.

    Applies to a bracket-shaped lhs against a hereditary and spreading rhs:
    every member E of F[G] is a spread of its per-block left-compression
    E_c, and E_c is contained in the compression with every block at
    maximal feasible size, so checking one compressed set per minima
    pattern covers every member exactly.  When the inner family is
    size-determined (S_0, S_1, A_n) the compressed set is itself a genuine
    lhs member and a failure is a genuine counterexample.

    The pass enumerates all minima patterns; if there are more than
    BRACKET_PATTERN_BUDGET, the report comes back not-ok with
    budget_exhausted set rather than silently passing.
    """
    shape = _bracket_shape(lhs)
    if shape is None or not rhs.plain:
        return WitnessReport(
            False, detail="no exact strategy applies at this horizon; "
            "use a horizon <= 16 for a powerset sweep",
            certified_horizon=None, budget_exhausted=True, method="none",
        )
    minima, inner, labels = shape
    if not inner.plain:
        return WitnessReport(
            False, detail="inner family too irregular for the dominance pass",
            certified_horizon=None, budget_exhausted=True, method="none",
        )

    patterns = 0
    undecided: Optional[FinSet] = None
    # left-packed blocks of feasible size are genuine members of a
    # size-determined inner family; top-packed ones of any spreading one
    raw_part = 1 if isinstance(inner, _Room) else 2
    for _, blocks in _dominance_blocks(minima, inner, labels, horizon):
        patterns += 1
        if patterns > BRACKET_PATTERN_BUDGET:
            return WitnessReport(
                False, detail=f"more than {BRACKET_PATTERN_BUDGET} minima patterns",
                certified_horizon=None, budget_exhausted=True, method="dominance",
            )
        # every part is a set this pass built, so the kernels are asked
        # directly; comp is empty only when no block takes an element
        comp = tuple(itertools.chain.from_iterable([b[0] for b in blocks]))
        if comp and not _member(comp, rhs).member:
            raw = tuple(itertools.chain.from_iterable(b[raw_part] for b in blocks))
            genuine = labels.apply(raw)
            if _member(genuine, lhs).member and not _member(genuine, rhs).member:
                return WitnessReport(
                    False, detail="member of lhs escapes rhs",
                    counterexample=genuine, certified_horizon=horizon,
                    method="dominance",
                )
            if undecided is None:
                undecided = comp
    if undecided is not None:
        return WitnessReport(
            False, detail="dominance bound failed and no genuine "
            "counterexample located; inclusion undecided",
            counterexample=undecided, certified_horizon=None,
            budget_exhausted=True, method="dominance",
        )
    return WitnessReport(
        True, detail=f"{patterns} minima patterns dominated and checked",
        certified_horizon=horizon, method="dominance", stats={"patterns": patterns},
    )


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

    if isinstance(k, _Room):
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
    """Drop the module-level memo tables and the compiled kernels
    (idempotent pure caches)."""
    _member_cache.clear()
    _kernels.clear()
    _exhaustive_cache.clear()
