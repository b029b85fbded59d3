"""Horizon-certified verifiers over the regular families of `families`.

`threshold_search` finds the least n from which S_xi sits inside S_zeta
up to a horizon, walking only the members whose minimum lies below a
threshold that a structural proof certifies; `construct_L`,
`construct_L_bracket` and `construct_N` build the index sequences that
push brackets into higher families, each a subsequence of the sequence
it refines, and `verify_union_property` checks the block unions they
promise; `verify_bracket_inclusion` checks F subset G up to a horizon, by
a member sweep or, for a bracket, by a spread-dominance pass over its
minima patterns.  Each asks `families` what it knows: an index sequence
its values from a given one on, and a kernel its bracket shape and its
labels.  Each report names the horizon it was certified to and whether a
budget cut it short.

The module is apart from `families` because most commands never run a
verifier: `families` binds these names and compiles this module on the
first read of one.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .families import (
    NATURALS,
    Family,
    FinSet,
    IndexSequence,
    RelabeledFamily,
    SchreierFamily,
    SequenceExhausted,
    _Kernel,
    _Room,
    _kernel,
    _member,
    _walk,
    canonicalize,
    member,
)
from .ordinals import Ordinal, add, compare, fundamental
from .reports import ConstructionError, Record, WitnessReport

# cap on the DFS leaves of S_xi members `threshold_search` reaches per
# candidate n, over the roots below the structural threshold, before it
# settles for the structural threshold
THRESHOLD_MINIMALITY_BUDGET = 200_000
# cap on the minima patterns of the dominance pass in `verify_bracket_inclusion`
BRACKET_PATTERN_BUDGET = 2_000_000


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

    Requires xi <= zeta.  A structurally certified n_struct (valid at every
    horizon) is computed first: every S_xi member with min E >= n_struct
    lies in S_zeta by proof, so no such member is walked.  Each candidate
    n below n_struct is then checked by a DFS over the S_xi members with
    min E in [n, n_struct) that carries their S_zeta state along.  Roots
    come in ascending order, so the first member to leave S_zeta, in DFS
    order, is the first of a walk over every root; it rejects the candidate
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
        walks = (_walk(fam_xi, range(root + 1, horizon + 1), (root,), rhs=fam_zeta)
                 for root in range(n, min(n_struct, horizon + 1)))
        for E, leaf, escaped, _ in itertools.chain.from_iterable(walks):
            if escaped:
                bad = E
                break
            if leaf:
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


def construct_L(xi: Ordinal, zeta: Ordinal, M: IndexSequence, horizon: int) -> IndexSequence:
    """Subsequence L of M with S_xi(L)[S_zeta] contained in S_{zeta+xi}.

    Base xi = 0 returns M; successor stages reuse the L built one stage
    down; limit stages build the diagonal of refinements L_n, where stage n
    clears the ordinal threshold k_n (zeta + xi[n] < gamma_{k_n} along the
    fundamental sequence of zeta + xi) and the horizon-certified index
    threshold r_n.  Each stage refines the values of the stage before
    that are at least r_n, so every L_n, and L, is a subsequence of M; L
    continues with M's own values after its last diagonal value.

    The nested refinements and thresholds repeat across stages, so each
    is built once per call, in a memo dropped when the call returns.
    """
    return _construct_L(xi, zeta, M, horizon, {})


def _construct_L(
    xi: Ordinal, zeta: Ordinal, M: IndexSequence, horizon: int, memo: dict
) -> IndexSequence:
    """`construct_L`, reading and filling `memo`, which holds its results
    under (xi, zeta, M, horizon) and `threshold_search` results under their
    own arguments (stage, gamma, horizon)."""
    key = (xi, zeta, M, horizon)
    if key in memo:
        return memo[key]
    if xi.is_zero:
        return M
    if xi.is_successor:
        memo[key] = L = _construct_L(xi.predecessor(), zeta, M, horizon, memo)
        return L

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
        found = memo.get((stage, gamma, horizon))
        if found is None:
            memo[stage, gamma, horizon] = found = threshold_search(stage, gamma, horizon)
        r_n = max(k_n, found.n)
        try:
            current = current.from_value(r_n)
            L_n = _construct_L(fundamental(xi, n), zeta, current, horizon, memo)
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
    rest = M.from_value(diag[-1] + 1)
    memo[key] = L = IndexSequence(tuple(diag) + rest.prefix, rest.tail_start, rest.tail_step)
    return L


def construct_L_bracket(xi: Ordinal, zeta: Ordinal, horizon: int) -> IndexSequence:
    """L with S_xi[S_zeta](L) contained in S_{zeta+xi}: construct_L over all naturals."""
    return construct_L(xi, zeta, NATURALS, horizon)


def construct_N(
    xi: Ordinal, zeta: Ordinal, blocks: Sequence, horizon: int
) -> IndexSequence:
    """Positions N so that E in S_xi(N) implies the union of blocks F_i, i in E,
    lands in S_{zeta+xi}.

    Takes m_i = min F_i, builds L inside M = (m_i) via construct_L, and
    returns the positions in M of L's values, every one of which M holds.
    Blocks must be successive members of S_zeta.
    """
    from .vectors import successive

    blocks = [tuple(b) for b in blocks]
    if not successive(blocks):
        raise ValueError("blocks must be successive and nonempty")
    fam = SchreierFamily(zeta)
    for i, b in enumerate(blocks):
        if not member(b, fam).member:
            raise ValueError(f"block {i + 1} is not in the stated family")
    M = IndexSequence.explicit(b[0] for b in blocks)
    L = construct_L(xi, zeta, M, horizon)
    if not L.prefix:
        raise ConstructionError("no block minima survive the refinement")
    return IndexSequence.explicit(M.preimage(L.prefix))


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
    for E, _, _, _ in _walk(indexed, range(1, limit + 1)):
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

    for Apat, _, _, _ in _walk(minima.fam, minima.labels.values_within(1, top)):
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
        for E, _, escaped, _ in _walk(lhs_c, range(1, horizon + 1), rhs=rhs_c):
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
    if lhs.shape is None or not rhs.plain:
        return WitnessReport(
            False, detail="no exact strategy applies at this horizon; "
            "use a horizon <= 16 for a powerset sweep",
            certified_horizon=None, budget_exhausted=True, method="none",
        )
    # under F[G](L) every member is L(C) for C in F[G], so the blocks live
    # in position space, which is value space when L is all naturals
    (minima, inner), labels = lhs.shape, lhs.labels
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
