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

Membership is exact and witness-producing.  The production decider splits
a set greedily into maximal blocks, which is complete when the outer
family is spreading, and backtracks only under a relabeled outer family;
`member_exhaustive` is an independent brute-force decider kept for
cross-checking.  Enumerations do not ask the decider: they carry a greedy
state along the DFS and extend it by one element at a time.  On top of
membership the module provides maximal-set enumeration, horizon-certified
threshold and inclusion searches, the index-sequence constructions that
push brackets into higher families, and exact maximisation of a weight
function over a family.

Finite sets are plain tuples of naturals, strictly increasing.  The empty
set is a member of every family here.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .ordinals import ZERO, ONE, Ordinal, compare, add, finite, fundamental
from .reports import WitnessReport

FinSet = Tuple[int, ...]

# cap on the DFS leaves of S_xi members `threshold_search` reaches per
# candidate n before it settles for the structural threshold
THRESHOLD_MINIMALITY_BUDGET = 200_000
# cap on the minima patterns of the dominance pass in `verify_bracket_inclusion`
BRACKET_PATTERN_BUDGET = 2_000_000


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


@dataclass(frozen=True)
class IndexSequence:
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
            if self.tail_step < 1 or self.tail_start < 1:
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
        """All attained values in [lo, hi]."""
        out = [v for v in self.prefix if lo <= v <= hi]
        if self.tail_start is not None and self.tail_start <= hi:
            v = self.tail_start
            if v < lo:
                v += ((lo - v + self.tail_step - 1) // self.tail_step) * self.tail_step
            while v <= hi:
                out.append(v)
                v += self.tail_step
        return sorted(v for v in out if lo <= v <= hi)


NATURALS = IndexSequence.arithmetic(1, 1)
EVENS = IndexSequence.arithmetic(2, 2)


# ---------------------------------------------------------------------------
# family expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SchreierFamily:
    index: Ordinal


@dataclass(frozen=True)
class CardinalityFamily:
    bound: int

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise ValueError("cardinality bound must be >= 0")


@dataclass(frozen=True)
class BracketFamily:
    outer: "Family"
    inner: "Family"


@dataclass(frozen=True)
class RelabeledFamily:
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


def is_plain(fam: Family) -> bool:
    """True for families built from S/A by brackets only (no relabeling).

    Plain families are hereditary and spreading; relabeled ones are
    hereditary but in general not spreading.
    """
    if isinstance(fam, (SchreierFamily, CardinalityFamily)):
        return True
    if isinstance(fam, BracketFamily):
        return is_plain(fam.outer) and is_plain(fam.inner)
    return False


def is_size_determined(fam: Family) -> bool:
    """True when membership depends only on (min, cardinality).

    Holds for S_0, S_1 and A_n; for these, every left-packed interval of a
    feasible size is itself a member, which the inclusion verifier exploits.
    """
    if isinstance(fam, CardinalityFamily):
        return True
    return isinstance(fam, SchreierFamily) and fam.index in (ZERO, ONE)


# ---------------------------------------------------------------------------
# membership witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeafWitness:
    rule: str


@dataclass(frozen=True)
class SplitWitness:
    """Decomposition into successive blocks with its sub-witnesses."""

    blocks: Tuple[FinSet, ...]
    block_witnesses: Tuple["Witness", ...]
    minima_witness: "Witness"


@dataclass(frozen=True)
class LimitWitness:
    n: int
    stage: Ordinal
    inner: "Witness"


@dataclass(frozen=True)
class RelabelWitness:
    preimage: FinSet
    inner: "Witness"


Witness = Union[LeafWitness, SplitWitness, LimitWitness, RelabelWitness]


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    witness: Optional[Witness] = None

    def __bool__(self) -> bool:
        return self.member


# ---------------------------------------------------------------------------
# membership: greedy with backtracking
# ---------------------------------------------------------------------------

_member_cache: Dict[Tuple[Family, FinSet], MembershipResult] = {}


def member(E, fam: Family) -> MembershipResult:
    """Exact membership of E in the family, with a witness when it holds.

    Successor and bracket decompositions are split greedily into maximal
    member blocks, which is complete when the outer family is spreading;
    a relabeled outer family gets full backtracking behind the greedy
    choice.  Limit Schreier membership tests n = 1..min E against stage
    lam[n] and records the n used.
    """
    E = tuple(E)
    key = (fam, E)
    hit = _member_cache.get(key)
    if hit is None:
        hit = _member_uncached(E, fam)
        _member_cache[key] = hit
    return hit


def _member_uncached(E: FinSet, fam: Family) -> MembershipResult:
    if not E:
        return MembershipResult(True, LeafWitness("empty set"))
    if isinstance(fam, CardinalityFamily):
        ok = len(E) <= fam.bound
        return MembershipResult(ok, LeafWitness(f"|E|={len(E)}<={fam.bound}") if ok else None)
    if isinstance(fam, SchreierFamily):
        xi = fam.index
        if xi.is_zero:
            ok = len(E) <= 1
            return MembershipResult(ok, LeafWitness("singleton") if ok else None)
        if xi == ONE:
            ok = len(E) <= E[0]
            return MembershipResult(ok, LeafWitness(f"|E|={len(E)}<=min E={E[0]}") if ok else None)
        if xi.is_successor:
            sub = SchreierFamily(xi.predecessor())
            found = _split_search(E, sub, d_limit=E[0], outer=None)
            if found is None:
                return MembershipResult(False)
            blocks, wits = found
            return MembershipResult(
                True,
                SplitWitness(blocks, wits, LeafWitness(f"d={len(blocks)}<=min E={E[0]}")),
            )
        # limit stage: exists n <= min E with E in S_{xi[n]}
        for n in range(1, E[0] + 1):
            stage = fundamental(xi, n)
            inner = member(E, SchreierFamily(stage))
            if inner.member:
                return MembershipResult(True, LimitWitness(n, stage, inner.witness))
        return MembershipResult(False)
    if isinstance(fam, BracketFamily):
        found = _split_search(E, fam.inner, d_limit=len(E), outer=fam.outer)
        if found is None:
            return MembershipResult(False)
        blocks, wits = found
        minima = tuple(b[0] for b in blocks)
        return MembershipResult(True, SplitWitness(blocks, wits, member(minima, fam.outer).witness))
    if isinstance(fam, RelabeledFamily):
        pre = fam.labels.preimage(E)
        if pre is None:
            return MembershipResult(False)
        inner = member(pre, fam.base)
        if not inner.member:
            return MembershipResult(False)
        return MembershipResult(True, RelabelWitness(pre, inner.witness))
    raise TypeError(f"not a family expression: {fam!r}")


def _split_search(
    E: FinSet,
    inner: Family,
    d_limit: int,
    outer: Optional[Family],
) -> Optional[Tuple[Tuple[FinSet, ...], Tuple[Witness, ...]]]:
    """Split E into successive inner-family blocks, greedy-first.

    With `outer` set, the minima of the blocks must form a member of it;
    otherwise the block count must stay within d_limit (the S_1 rule with
    the minimum already fixed by E).  Partial minima are pruned through the
    outer family, which is sound because every family expressible here is
    closed under taking initial segments of its members.

    Block i of the greedy split ends no earlier than block i of any valid
    split, so its minima spread an initial segment of that split's minima;
    only a relabeled outer family, which is not spreading, needs more.
    """
    greedy = outer is None or is_plain(outer)

    def rec(start: int, minima: List[int], acc: List[Tuple[FinSet, Witness]]):
        if start == len(E):
            if outer is not None and not member(tuple(minima), outer).member:
                return None
            return acc
        if outer is None and len(acc) == d_limit:
            return None
        new_minima = minima + [E[start]]
        if outer is not None and not member(tuple(new_minima), outer).member:
            # initial segments of outer members stay in outer, so no
            # extension of this prefix of minima can succeed either
            return None
        # longest prefix first = greedy; shorter blocks only when not greedy
        for end in range(len(E), start, -1):
            block = E[start:end]
            res = member(block, inner)
            if not res.member:
                continue
            out = rec(end, new_minima, acc + [(block, res.witness)])
            if out is not None or greedy:
                return out
        return None

    found = rec(0, [], [])
    if found is None:
        return None
    blocks = tuple(b for b, _ in found)
    wits = tuple(w for _, w in found)
    return blocks, wits


# ---------------------------------------------------------------------------
# membership: incremental greedy state for enumeration
# ---------------------------------------------------------------------------
#
# A greedy state stands for a nonempty member E and decides E + (x,), for
# x > max E, in O(depth) without the memo.  S_0, S_1 and A_n hold the room
# left; F[G] holds the states of the block minima in F and of the open
# block in G, and S_{x+1} = S_1[S_x] adds S_x; a limit S_lam holds
# (n, S_lam[n], its state, E) for its least live stage n, the n that
# LimitWitness records, and replays later stages only when stage n dies;
# F(M) holds the state of the preimage.  F[G] with a relabeled F, which is
# not spreading, has no greedy state: its state is E, and a push asks member.

_S1 = SchreierFamily(ONE)


def _start(fam: Family, x: int):
    """Greedy state of the singleton (x,), or None when it is not a member."""
    if isinstance(fam, CardinalityFamily):
        return fam.bound - 1 if fam.bound else None
    if isinstance(fam, SchreierFamily):
        xi = fam.index
        if xi.is_zero:
            return 0
        if xi == ONE:
            return x - 1
        if xi.is_successor:
            inner = SchreierFamily(xi.predecessor())
            return x - 1, _start(inner, x), inner
        return _least_stage(xi, (x,), 1)
    if isinstance(fam, RelabeledFamily):
        pos = fam.labels.position_of(x)
        return None if pos is None else _start(fam.base, pos)
    if isinstance(fam, BracketFamily):
        if not is_plain(fam.outer):
            return (x,) if member((x,), fam).member else None
        outer, inner = _start(fam.outer, x), _start(fam.inner, x)
        return None if outer is None or inner is None else (outer, inner)
    raise TypeError(f"not a family expression: {fam!r}")


def _push(fam: Family, state, x: int):
    """Greedy state of E + (x,) from the state of E, for x > max E; None
    when E + (x,) is not a member."""
    if isinstance(fam, RelabeledFamily):
        pos = fam.labels.position_of(x)
        return None if pos is None else _push(fam.base, state, pos)
    if type(state) is int:  # S_0, S_1, A_n: the room left
        return state - 1 if state else None
    if isinstance(fam, BracketFamily):
        if not is_plain(fam.outer):
            E = state + (x,)
            return E if member(E, fam).member else None
        return _push_block(fam.outer, fam.inner, state[0], state[1], x)
    xi = fam.index
    if xi.is_successor:
        room, inner_state, inner = state
        nxt = _push_block(_S1, inner, room, inner_state, x)
        return None if nxt is None else nxt + (inner,)
    n, stage, stage_state, E = state
    E += (x,)
    stage_state = _push(stage, stage_state, x)
    if stage_state is None:
        return _least_stage(xi, E, n + 1)
    return n, stage, stage_state, E


def _push_block(outer: Family, inner: Family, outer_state, inner_state, x: int):
    """x joins the open block when the inner family allows, else opens a
    new block, which the outer family must accept."""
    nxt = _push(inner, inner_state, x)
    if nxt is not None:
        return outer_state, nxt
    outer_state = _push(outer, outer_state, x)
    nxt = None if outer_state is None else _start(inner, x)
    return None if nxt is None else (outer_state, nxt)


def _state_of(fam: Family, E: FinSet):
    """Greedy state of a nonempty E, or None when E is not a member."""
    state = _start(fam, E[0])
    for x in E[1:]:
        if state is None:
            return None
        state = _push(fam, state, x)
    return state


def _least_stage(xi: Ordinal, E: FinSet, n: int):
    """Limit state of E in S_xi from stage n on, or None when no stage
    n..min E holds E."""
    for m in range(n, E[0] + 1):
        stage = SchreierFamily(fundamental(xi, m))
        state = _state_of(stage, E)
        if state is not None:
            return m, stage, state, E
    return None


def _walk(
    fam: Family, universe: Sequence[int], root: FinSet = (), rhs: Optional[Family] = None
) -> Iterator[Tuple[FinSet, bool, bool]]:
    """The members of fam that extend root (empty or a singleton) by
    elements of the ascending universe, in DFS pre-order and increasing
    element order, as (E, leaf, escaped).

    Greedy states ride along the DFS, so an extension costs one `_push` per
    family.  A leaf has no extension by a later universe element.  With rhs
    given, a member outside rhs comes back escaped, and its extensions,
    which lie outside rhs as well because rhs is hereditary, are skipped.
    """
    state = _start(fam, root[0]) if root else None
    if root and state is None:
        return
    stack = [(root, state, None, 0)]
    while stack:
        E, state, rhs_state, start = stack.pop()
        if rhs is not None and E:
            rhs_state = _push(rhs, rhs_state, E[-1]) if len(E) > 1 else _start(rhs, E[0])
            if rhs_state is None:
                yield E, False, True
                continue
        kids = []
        for i in range(start, len(universe)):
            x = universe[i]
            nxt = _push(fam, state, x) if E else _start(fam, x)
            if nxt is not None:
                kids.append((E + (x,), nxt, rhs_state, i + 1))
        yield E, not kids, False
        stack.extend(reversed(kids))


# ---------------------------------------------------------------------------
# membership: independent exhaustive decider
# ---------------------------------------------------------------------------

_exhaustive_cache: Dict[Tuple[Family, FinSet], bool] = {}


def member_exhaustive(E, fam: Family) -> bool:
    """Brute-force membership, enumerating every decomposition.

    No greedy ordering and no structural pruning: successor and bracket
    cases iterate over all 2^(|E|-1) compositions of E into successive
    blocks.  Kept as an independent cross-check for `member`.
    """
    E = tuple(E)
    key = (fam, E)
    hit = _exhaustive_cache.get(key)
    if hit is None:
        hit = _exhaustive_uncached(E, fam)
        _exhaustive_cache[key] = hit
    return hit


def _compositions(E: FinSet) -> Iterator[List[FinSet]]:
    """All splits of E into successive nonempty blocks."""
    n = len(E)
    for mask in range(1 << (n - 1)):
        blocks: List[FinSet] = []
        start = 0
        for i in range(n - 1):
            if mask >> i & 1:
                blocks.append(E[start : i + 1])
                start = i + 1
        blocks.append(E[start:])
        yield blocks


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
            sub = SchreierFamily(xi.predecessor())
            return any(
                len(blocks) <= E[0] and all(member_exhaustive(b, sub) for b in blocks)
                for blocks in _compositions(E)
            )
        return any(
            member_exhaustive(E, SchreierFamily(fundamental(xi, n)))
            for n in range(1, E[0] + 1)
        )
    if isinstance(fam, BracketFamily):
        return any(
            member_exhaustive(tuple(b[0] for b in blocks), fam.outer)
            and all(member_exhaustive(b, fam.inner) for b in blocks)
            for blocks in _compositions(E)
        )
    if isinstance(fam, RelabeledFamily):
        pre = fam.labels.preimage(E)
        return pre is not None and member_exhaustive(pre, fam.base)
    raise TypeError(f"not a family expression: {fam!r}")


def recheck_witness(E, fam: Family, witness: Witness) -> bool:
    """Re-derive membership bottom-up from a stored witness."""
    E = tuple(E)
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
        if witness.n > E[0] or fundamental(fam.index, witness.n) != witness.stage:
            return False
        return recheck_witness(E, SchreierFamily(witness.stage), witness.inner)
    if isinstance(witness, SplitWitness):
        blocks = witness.blocks
        if tuple(itertools.chain.from_iterable(blocks)) != E or not successive(blocks):
            return False
        if isinstance(fam, SchreierFamily) and fam.index.is_successor and fam.index != ONE:
            sub = SchreierFamily(fam.index.predecessor())
            if len(blocks) > E[0]:
                return False
            return all(recheck_witness(b, sub, w) for b, w in zip(blocks, witness.block_witnesses))
        if isinstance(fam, BracketFamily):
            minima = tuple(b[0] for b in blocks)
            if not recheck_witness(minima, fam.outer, witness.minima_witness):
                return False
            return all(
                recheck_witness(b, fam.inner, w)
                for b, w in zip(blocks, witness.block_witnesses)
            )
        return False
    if isinstance(witness, RelabelWitness):
        if not isinstance(fam, RelabeledFamily):
            return False
        if fam.labels.apply(witness.preimage) != E:
            return False
        return recheck_witness(witness.preimage, fam.base, witness.inner)
    return False


# ---------------------------------------------------------------------------
# enumeration of maximal members
# ---------------------------------------------------------------------------


@dataclass
class MaximalEnumeration:
    sets: List[FinSet]
    truncated: List[bool]
    all_truncated: bool


def _extension_candidates(fam: Family, above: int, limit: int) -> List[int]:
    """Values > above, <= limit that could extend a member of fam.

    For relabeled families only attained label values can ever occur; for
    everything else all naturals in range are candidates.
    """
    if isinstance(fam, RelabeledFamily):
        return fam.labels.values_within(above + 1, limit)
    return list(range(above + 1, limit + 1))


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
    for E, leaf, _ in _walk(fam, _extension_candidates(fam, first, horizon), (first,)):
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
    probe_values = _extension_candidates(fam, horizon, horizon + 4 * max(horizon, 16))[:4]
    for current in iter_maximal(fam, first, horizon):
        # a DFS leaf need not be maximal (A_3 from 1 at horizon 4 yields the
        # leaf (1, 4) inside (1, 2, 4)); as the family is hereditary, it is
        # maximal when no single element between its own joins it, and for
        # a spreading family the largest such element is the one to try
        gaps = [y for y in _extension_candidates(fam, first, current[-1]) if y not in current]
        if is_plain(fam):
            gaps = gaps[-1:]
        if any(_state_of(fam, tuple(sorted(current + (y,)))) is not None for y in gaps):
            continue
        sets.append(current)
        state = _state_of(fam, current)
        truncated.append(any(_push(fam, state, v) is not None for v in probe_values))
    all_truncated = bool(sets) and all(truncated)
    return MaximalEnumeration(sets, truncated, all_truncated)


# ---------------------------------------------------------------------------
# threshold search (horizon-certified)
# ---------------------------------------------------------------------------


@dataclass
class ThresholdResult:
    n: int
    certified_horizon: int
    rejections: List[Tuple[int, FinSet]]
    minimal: bool = True


_threshold_cache: Dict[Tuple[Ordinal, Ordinal, int], ThresholdResult] = {}


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
    key = (xi, zeta, horizon)
    hit = _threshold_cache.get(key)
    if hit is not None:
        return hit
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
    result = ThresholdResult(best, horizon, rejections, minimal)
    _threshold_cache[key] = result
    return result


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
    i = 1
    while True:
        try:
            v = L.value_at(i)
        except SequenceExhausted:
            break
        pos = M.position_of(v)
        if pos is None:
            break
        positions.append(pos)
        i += 1
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
    for E in _all_members_over(indexed, list(range(1, limit + 1))):
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


def _all_members_over(fam: Family, universe: List[int]) -> Iterator[FinSet]:
    """Every member of fam with support inside the given ground values.

    DFS in increasing element order; sound because members are closed
    under initial segments for every expressible family.
    """
    for E, _, _ in _walk(fam, universe):
        yield E


# ---------------------------------------------------------------------------
# inclusion verification
# ---------------------------------------------------------------------------


def _bracket_shape(fam: Family):
    """Recognise F[G], with or without a relabeling of the whole bracket.

    Returns (minima_family, inner_family, whole_labels).  Without a
    relabeling the blocks of a member live in value space; under
    F[G](L) every member is L(C) for C in F[G], so blocks live in the
    preimage (position) space and whole_labels carries L.
    """
    fam = canonicalize(fam)
    if isinstance(fam, RelabeledFamily) and isinstance(fam.base, BracketFamily):
        return fam.base.outer, fam.base.inner, fam.labels
    if isinstance(fam, RelabeledFamily) and isinstance(fam.base, SchreierFamily):
        idx = fam.base.index
        if idx.is_successor and idx != ONE:
            return SchreierFamily(ONE), SchreierFamily(idx.predecessor()), fam.labels
        if idx == ONE:
            return SchreierFamily(ONE), SchreierFamily(ZERO), fam.labels
    if isinstance(fam, BracketFamily):
        return fam.outer, fam.inner, None
    if isinstance(fam, SchreierFamily) and fam.index.is_successor and fam.index != ONE:
        return SchreierFamily(ONE), SchreierFamily(fam.index.predecessor()), None
    return None


def _max_block_size(inner: Family, first: int, window: List[int]) -> int:
    """Largest size of an inner-family member with min = first inside window.

    window holds the admissible values above first, ascending.  Because the
    families are spreading, the top-packed candidate (first plus the k-1
    largest window values) is a member whenever any k-sized member exists,
    so a downward scan over k is exact.
    """
    for k in range(len(window) + 1, 0, -1):
        cand = (first,) + tuple(sorted(window[len(window) - (k - 1):]))
        if member(cand, inner).member:
            return k
    return 0


def verify_bracket_inclusion(lhs: Family, rhs: Family, horizon: int) -> WitnessReport:
    """Check every member of lhs with support in [1, horizon] for membership
    in rhs, and return the first counterexample if one exists.

    Three exact strategies, most specific first:

    * structural: after canonical rewriting lhs equals rhs, so the
      inclusion is an identity;
    * member sweep (method "powerset") at small horizons: every lhs
      member, by DFS with the rhs state carried along, so the
      counterexample is the first escaping member in DFS order;
    * spread-dominance for bracket-shaped lhs against a hereditary and
      spreading rhs: every member E of F[G] is a spread of its per-block
      left-compression E_c, and E_c is contained in the compression with
      every block at maximal feasible size, so checking one compressed set
      per minima pattern covers every member exactly.  When the inner
      family is size-determined (S_0, S_1, A_n) the compressed set is
      itself a genuine lhs member and a failure is a genuine
      counterexample.

    The dominance pass enumerates all minima patterns; if there are more
    than BRACKET_PATTERN_BUDGET, the report comes back not-ok with
    budget_exhausted set rather than silently passing.
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

    shape = _bracket_shape(lhs_c)
    if shape is None or not is_plain(rhs_c):
        return WitnessReport(
            False, detail="no exact strategy applies at this horizon; "
            "use a horizon <= 16 for a powerset sweep",
            certified_horizon=None, budget_exhausted=True, method="none",
        )
    minima_fam, inner_fam, whole_labels = shape
    if not is_plain(inner_fam):
        return WitnessReport(
            False, detail="inner family too irregular for the dominance pass",
            certified_horizon=None, budget_exhausted=True, method="none",
        )

    if whole_labels is None:
        # blocks live in value space; minima patterns are members of the
        # (possibly relabeled) outer family inside [1, horizon]
        if isinstance(minima_fam, RelabeledFamily):
            ground = minima_fam.labels.values_within(1, horizon)
        else:
            ground = list(range(1, horizon + 1))
    else:
        # whole bracket relabeled by L: members are L(C); enumerate in
        # position space and map compressions through L
        values = whole_labels.values_within(1, horizon)
        ground = list(range(1, len(values) + 1))

    patterns = 0
    undecided: Optional[FinSet] = None
    genuine_inner = is_size_determined(inner_fam)
    for Apat in _all_members_over(minima_fam, ground):
        if not Apat:
            continue
        patterns += 1
        if patterns > BRACKET_PATTERN_BUDGET:
            return WitnessReport(
                False, detail=f"more than {BRACKET_PATTERN_BUDGET} minima patterns",
                certified_horizon=None, budget_exhausted=True, method="dominance",
            )
        compressed: List[int] = []
        left_packed: List[int] = []
        top_packed: List[int] = []
        upper_bound = horizon if whole_labels is None else len(values)
        for i, a in enumerate(Apat):
            upper = (Apat[i + 1] - 1) if i + 1 < len(Apat) else upper_bound
            window = list(range(a + 1, upper + 1))
            k = _max_block_size(inner_fam, a, window)
            base = a if whole_labels is None else values[a - 1]
            compressed.extend(range(base, base + k))
            left_packed.extend(range(a, a + k))
            # the top-packed block is a genuine inner member by spreading
            top_packed.extend([a] + window[len(window) - (k - 1) :] if k > 1 else [a])
        comp = tuple(compressed)
        if not member(comp, rhs_c).member:
            if genuine_inner:
                # left-packed blocks of feasible size are genuine members
                # of a size-determined inner family
                raw = tuple(left_packed)
            else:
                raw = tuple(top_packed)
            genuine = raw if whole_labels is None else whole_labels.apply(raw)
            if member(genuine, lhs_c).member and not member(genuine, rhs_c).member:
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


@dataclass
class MassResult:
    mass: Fraction
    argmax: FinSet


def family_mass(coeffs: Dict[int, Fraction], fam: Family) -> MassResult:
    """Exact max over members G of the family of sum of coeffs over G.

    Coefficients must be non-negative with finite support.  Closed forms
    cover A_n, S_0 and S_1; S_2 runs an exact scan over decomposition
    states; everything else falls back to branch-and-bound over member
    extensions with a residual-sum bound.
    """
    support = sorted(i for i, c in coeffs.items() if c > 0)
    if any(c < 0 for c in coeffs.values()):
        raise ValueError("coefficients must be non-negative")
    vals = {i: Fraction(coeffs[i]) for i in support}
    if not support:
        return MassResult(Fraction(0), ())
    fam = canonicalize(fam)

    if isinstance(fam, SchreierFamily) and fam.index.is_zero:
        best = max(support, key=lambda i: vals[i])
        return MassResult(vals[best], (best,))
    if isinstance(fam, CardinalityFamily):
        chosen = sorted(sorted(support, key=lambda i: vals[i], reverse=True)[: fam.bound])
        return MassResult(sum((vals[i] for i in chosen), Fraction(0)), tuple(chosen))
    if isinstance(fam, SchreierFamily) and fam.index == ONE:
        best_mass, best_set = Fraction(0), ()
        for pos, m in enumerate(support):
            rest = sorted(support[pos + 1 :], key=lambda i: vals[i], reverse=True)[: m - 1]
            g = tuple(sorted([m] + rest))
            mass = sum((vals[i] for i in g), Fraction(0))
            if mass > best_mass:
                best_mass, best_set = mass, g
        return MassResult(best_mass, best_set)
    if isinstance(fam, SchreierFamily) and fam.index == add(ONE, ONE):
        return _mass_s2(support, vals)
    return _mass_branch_and_bound(support, vals, fam)


def _mass_s2(support: List[int], vals: Dict[int, Fraction]) -> MassResult:
    """Exact S_2 mass by a left-to-right scan over decomposition states.

    State (blocks_left, room_in_block) after each position; blocks_left is
    fixed by the first element taken (d <= min G), room tracks how many
    more elements the open block may take (|block| <= its min).
    """
    n = len(support)
    best_mass, best_set = Fraction(0), ()
    # states map (blocks_left, room) -> (mass, chosen tuple); bounded by
    # the number of remaining positions, so the table stays small
    for start in range(n):
        m = support[start]
        d0 = min(m, n - start)
        states: Dict[Tuple[int, int], Tuple[Fraction, FinSet]] = {
            (d0 - 1, min(m - 1, n - start - 1)): (vals[m], (m,))
        }
        if vals[m] > best_mass:
            best_mass, best_set = vals[m], (m,)
        for pos in range(start + 1, n):
            x = support[pos]
            remaining = n - pos - 1
            nxt: Dict[Tuple[int, int], Tuple[Fraction, FinSet]] = {}

            def push(key, mass, chosen):
                key = (min(key[0], remaining), min(key[1], remaining))
                cur = nxt.get(key)
                if cur is None or mass > cur[0]:
                    nxt[key] = (mass, chosen)

            for (d_left, room), (mass, chosen) in states.items():
                push((d_left, room), mass, chosen)  # skip x
                if room > 0:  # extend the open block
                    push((d_left, room - 1), mass + vals[x], chosen + (x,))
                if d_left > 0:  # open a new block at x
                    push((d_left - 1, x - 1), mass + vals[x], chosen + (x,))
            states = nxt
            for mass, chosen in states.values():
                if mass > best_mass:
                    best_mass, best_set = mass, chosen
    return MassResult(best_mass, best_set)


def _mass_branch_and_bound(
    support: List[int], vals: Dict[int, Fraction], fam: Family
) -> MassResult:
    suffix = [Fraction(0)] * (len(support) + 1)
    for i in range(len(support) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + vals[support[i]]
    best = {"mass": Fraction(0), "set": ()}

    def rec(current: FinSet, mass: Fraction, start: int) -> None:
        if mass > best["mass"]:
            best["mass"], best["set"] = mass, current
        for idx in range(start, len(support)):
            if mass + suffix[idx] <= best["mass"]:
                return
            cand = current + (support[idx],)
            if member(cand, fam).member:
                rec(cand, mass + vals[support[idx]], idx + 1)

    rec((), Fraction(0), 0)
    return MassResult(best["mass"], best["set"])


def clear_caches() -> None:
    """Drop the module-level memo tables (idempotent pure caches)."""
    _member_cache.clear()
    _exhaustive_cache.clear()
    _threshold_cache.clear()
