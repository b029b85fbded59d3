"""Family membership, enumeration, constructions and mass maximisation."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import dfs_leaves_oracle, mass_oracle, members_over_oracle, threshold_oracle
from schreier import families, verifiers
from schreier.families import (
    A,
    BracketFamily,
    CardinalityFamily,
    EVENS,
    IndexSequence,
    LeafWitness,
    NATURALS,
    RelabeledFamily,
    S,
    SchreierFamily,
    SequenceExhausted,
    canonicalize,
    construct_L,
    construct_L_bracket,
    construct_N,
    enumerate_maximal,
    family_mass,
    finset,
    iter_maximal,
    member,
    member_exhaustive,
    recheck_witness,
    spread_of,
    threshold_search,
    verify_bracket_inclusion,
    verify_union_property,
    _kernel,
    _walk,
)
from schreier.ordinals import OMEGA, ONE, add, finite, fundamental, omega_power
from schreier.parsing import parse_family, parse_ordinal, print_family
from schreier.reports import ConstructionError, to_jsonable
from schreier.verifiers import _dominance_blocks, _verify_by_dominance


def subsets(universe):
    for r in range(len(universe) + 1):
        yield from itertools.combinations(universe, r)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_member_examples():
    assert member((5,), S(0)).member
    assert not member((1, 2), S(1)).member
    res = member((2, 3, 4, 5, 6), S(2))
    assert res.member
    assert res.witness.blocks == ((2, 3), (4, 5, 6))
    assert member_exhaustive((2, 3, 4, 5, 6), S(2))
    res = member((3, 5, 7), S(OMEGA))
    assert res.member
    assert res.witness.n <= 3  # any stage up to min E certifies


NOT_SETS = [
    ((3, 1, 2), S(1)),  # as a set its min is 1, so it is no member
    ((0, 1), A(2)),
    ((-1,), A(2)),
    ((2, 2), A(3)),
    ((4, 2), RelabeledFamily(S(1), EVENS)),
    ((1.5, 2), A(2)),
]


@pytest.mark.parametrize("E, fam", NOT_SETS)
def test_member_rejects_tuples_that_are_not_sets(E, fam):
    with pytest.raises(ValueError, match="strictly increasing naturals >= 1"):
        member(E, fam)


@pytest.mark.parametrize("E, fam", NOT_SETS)
def test_oracles_reject_tuples_that_are_not_sets(E, fam):
    with pytest.raises(ValueError, match="strictly increasing naturals >= 1"):
        member_exhaustive(E, fam)
    # a leaf witness that the cardinality rules alone would accept
    assert not recheck_witness(E, fam, LeafWitness(f"|E|={len(E)}"))


def test_empty_set_member_everywhere():
    for fam in (S(0), S(1), S(3), S(OMEGA), A(2), BracketFamily(S(1), S(2))):
        assert member((), fam).member


def test_witness_recheck():
    rng = random.Random(3)
    fams = [S(0), S(1), S(2), S(3), S(OMEGA), A(3),
            BracketFamily(S(1), S(1)), RelabeledFamily(S(2), EVENS)]
    for _ in range(200):
        E = tuple(sorted(rng.sample(range(1, 15), rng.randint(0, 6))))
        fam = rng.choice(fams)
        res = member(E, fam)
        if res.member:
            assert recheck_witness(E, fam, res.witness)


def test_recheck_rejects_forged_witnesses():
    # one block and no block witness: zip would pair nothing and accept
    # sets that are not members
    assert not member((1, 2, 3), S(2)).member and not member_exhaustive((1, 2, 3), S(2))
    forged = families.SplitWitness(((1, 2, 3),), (), families.LeafWitness("d=1<=min E=1"))
    assert not recheck_witness((1, 2, 3), S(2), forged)
    bracket = BracketFamily(S(1), A(1))
    assert not member((2, 3, 4), bracket).member and not member_exhaustive((2, 3, 4), bracket)
    forged = families.SplitWitness(((2, 3, 4),), (), families.LeafWitness("|E|=1<=min E=2"))
    assert not recheck_witness((2, 3, 4), bracket, forged)
    # a stage index below 1 is refused, not raised on
    wit = member((3, 5, 7), S(OMEGA)).witness
    for n in (0, -2):
        forged = families.LimitWitness(n, wit.stage, wit.inner)
        assert not recheck_witness((3, 5, 7), S(OMEGA), forged)
    # a preimage past the end of an explicit relabeling is refused, not raised on
    fam = RelabeledFamily(S(1), IndexSequence.explicit([2, 4]))
    assert not recheck_witness((4,), fam, families.RelabelWitness((3,), families.LeafWitness("x")))


def test_greedy_equals_exhaustive_small():
    indices = [finite(0), finite(1), finite(2), OMEGA, add(OMEGA, ONE)]
    for xi in indices:
        fam = S(xi)
        for E in subsets(range(1, 9)):
            assert member(E, fam).member == member_exhaustive(E, fam), (xi, E)


def test_hereditary_exhaustive():
    for fam in (S(2), S(OMEGA), A(3), BracketFamily(S(1), S(1))):
        for E in subsets(range(1, 11)):
            if member(E, fam).member:
                for F in subsets(E):
                    assert member(F, fam).member, (fam, E, F)
                break  # one full subset sweep per family is enough here


def test_hereditary_random():
    rng = random.Random(9)
    fams = [S(1), S(2), S(3), S(OMEGA), A(4)]
    for _ in range(300):
        fam = rng.choice(fams)
        E = tuple(sorted(rng.sample(range(1, 13), rng.randint(1, 7))))
        if member(E, fam).member:
            F = tuple(sorted(rng.sample(E, rng.randint(0, len(E)))))
            assert member(F, fam).member


def test_spreading_random():
    rng = random.Random(10)
    fams = [S(1), S(2), S(OMEGA), A(3)]
    for _ in range(300):
        fam = rng.choice(fams)
        E = tuple(sorted(rng.sample(range(1, 12), rng.randint(1, 5))))
        if not member(E, fam).member:
            continue
        F = tuple(e + rng.randint(0, 4) + i for i, e in enumerate(E))
        F = tuple(sorted(F))
        if len(set(F)) == len(E) and all(a <= b for a, b in zip(E, F)):
            assert member(F, fam).member, (fam, E, F)


def test_bracket_associativity():
    combos = [(S(1), S(1), A(2)), (A(2), S(1), S(1)), (S(1), A(2), S(1))]
    for F, G, H in combos:
        left = BracketFamily(BracketFamily(F, G), H)
        right = BracketFamily(F, BracketFamily(G, H))
        for E in subsets(range(1, 11)):
            assert member(E, left).member == member(E, right).member, (F, G, H, E)


# the nine criterion-01 indices, brackets, and the three ways a relabeling
# can sit in a bracket; the last two families, one with a relabeled outer
# family and one with an inner family that is not hereditary, have no
# greedy state, and their enumerations ask `member`
GREEDY_FAMILIES = [
    S(xi) for xi in (
        finite(0), finite(1), finite(2), finite(3), OMEGA, add(OMEGA, ONE),
        omega_power(ONE, 2), omega_power(finite(2)), omega_power(OMEGA),
    )
] + [
    BracketFamily(S(1), A(2)),
    BracketFamily(S(2), S(1)),
    BracketFamily(S(OMEGA), S(2)),
    BracketFamily(S(2), RelabeledFamily(S(1), EVENS)),
    RelabeledFamily(BracketFamily(S(1), A(2)), EVENS),
    BracketFamily(RelabeledFamily(S(1), EVENS), A(2)),
    BracketFamily(A(2), BracketFamily(RelabeledFamily(S(1), EVENS), A(2))),
]


def greedy_member(E, fam):
    return not E or _kernel(fam).state_of(E) is not None


@pytest.mark.parametrize("fam", GREEDY_FAMILIES, ids=repr)
@settings(max_examples=30, deadline=None)
@given(elements=st.sets(st.integers(1, 20), max_size=14), evens=st.booleans())
def test_greedy_state_matches_exhaustive(fam, elements, evens):
    # doubling puts the set on the labels of the relabeled families
    E = tuple(sorted(2 * e if evens else e for e in elements))
    assert greedy_member(E, fam) == member_exhaustive(E, fam), E


@pytest.mark.parametrize("fam, E", [
    (BracketFamily(S(2), RelabeledFamily(S(1), EVENS)), (1, 3, 4, 5, 6, 8, 9, 13, 14, 15, 16, 18, 19, 20)),
    (BracketFamily(S(2), S(1)), (1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 15, 16, 18, 19)),
    (BracketFamily(S(2), RelabeledFamily(S(1), EVENS)), (3, 4, 5, 7, 8, 10, 11, 12, 13, 14, 15, 16, 17, 20)),
], ids=repr)
def test_exhaustive_work_does_not_hang_on_the_draw(fam, E):
    # draws of the property test above on which a search through all
    # 2^(|E|-1) compositions fills the oracle's memo with 16k-25k entries
    families._exhaustive_cache.clear()
    member_exhaustive(E, fam)
    assert len(families._exhaustive_cache) <= 100


@pytest.mark.parametrize("fam", GREEDY_FAMILIES, ids=repr)
def test_enumerations_match_oracles(fam):
    horizon = 10
    for first in range(1, horizon + 1):
        leaves = dfs_leaves_oracle(fam, first, horizon)
        assert list(iter_maximal(fam, first, horizon)) == leaves, first
        maximal = [
            E for E in leaves
            if not any(member_exhaustive(tuple(sorted(E + (y,))), fam)
                       for y in range(first + 1, E[-1]) if y not in E)
        ]
        candidates = (fam.labels.values_within(horizon + 1, 5 * horizon)
                      if isinstance(fam, RelabeledFamily) else range(horizon + 1, 5 * horizon + 1))
        probes = candidates[:4]
        enum = enumerate_maximal(fam, first, horizon)
        assert enum.sets == maximal, first
        assert enum.truncated == [
            any(member_exhaustive(E + (v,), fam) for v in probes) for E in maximal
        ], first
    for universe in (list(range(1, horizon + 1)), EVENS.values_within(1, 2 * horizon)):
        assert [E for E, _, _, _ in _walk(fam, universe)] == members_over_oracle(fam, universe)


@pytest.mark.parametrize("fam", GREEDY_FAMILIES, ids=repr)
def test_greedy_state_matches_exhaustive_on_every_small_set(fam):
    # every nonempty subset of [1, 10]: random draws rarely put a block
    # minimum off the labels where it matters, as in (2, 4, 5) for
    # A(2)[S(1)(even)[A(2)]]
    for size in range(1, 11):
        for E in itertools.combinations(range(1, 11), size):
            assert greedy_member(E, fam) == member_exhaustive(E, fam), E


def test_enumerate_maximal_probes_sparse_labels_past_any_window():
    # (1, 101) is a member: the first label above the horizon lies far
    # beyond it, and the set must still be flagged as truncated
    fam = RelabeledFamily(A(3), IndexSequence.arithmetic(1, 100))
    assert member((1, 101), fam).member
    enum = enumerate_maximal(fam, 1, 10)
    assert enum.sets == [(1,)]
    assert enum.truncated == [True] and enum.all_truncated
    # an explicit sequence that ends inside the horizon has nothing to probe
    enum = enumerate_maximal(RelabeledFamily(A(3), IndexSequence.explicit([1, 5])), 1, 10)
    assert enum.sets == [(1, 5)] and enum.truncated == [False]
    assert not enum.all_truncated


@pytest.mark.parametrize("outer", [S(1), BracketFamily(S(1), A(2))], ids=repr)
def test_enumerations_compile_the_canonical_form(monkeypatch, outer):
    # an identity relabeling of a bracket's outer family is dropped before
    # the enumerations compile it, so they run the plain bracket's greedy
    # pushes and never ask the memoised decider
    plain = BracketFamily(outer, A(2))
    relabeled = BracketFamily(RelabeledFamily(outer, NATURALS), A(2))
    expected = [(list(iter_maximal(plain, first, 14)), enumerate_maximal(plain, first, 14))
                for first in (3, 5, 8)]

    def asked(E, k):
        raise AssertionError(f"the enumeration asked the decider about {E}")

    monkeypatch.setattr(families, "_member", asked)
    for first, (leaves, enum) in zip((3, 5, 8), expected):
        assert list(iter_maximal(relabeled, first, 14)) == leaves
        got = enumerate_maximal(relabeled, first, 14)
        assert (got.sets, got.truncated, got.all_truncated) == (enum.sets, enum.truncated, enum.all_truncated)


def test_relabeled_outer_keeps_backtracking():
    # the greedy split (4, 6), (7,) has minima (4, 7), which lie outside
    # S_1(EVENS); only the split (4,), (6, 7) shows membership
    fam = BracketFamily(RelabeledFamily(S(1), EVENS), A(2))
    E = (4, 6, 7)
    res = member(E, fam)
    assert res.member and res.witness.blocks == ((4,), (6, 7))
    assert member_exhaustive(E, fam) and greedy_member(E, fam)


# full witness reprs, frozen from the decider before family kernels
PINNED_WITNESSES = {
    ("S(w^w)", (3, 5, 7)):
        "LimitWitness(n=1, stage=Ordinal[w], inner=LimitWitness(n=1, stage=Ordinal[1], "
        "inner=LeafWitness(rule='|E|=3<=min E=3')))",
    ("S(w^w)", (4, 5, 6, 7, 8, 9, 10, 11, 12)):
        "LimitWitness(n=1, stage=Ordinal[w], inner=LimitWitness(n=2, stage=Ordinal[2], "
        "inner=SplitWitness(blocks=((4, 5, 6, 7), (8, 9, 10, 11, 12)), "
        "block_witnesses=(LeafWitness(rule='|E|=4<=min E=4'), LeafWitness(rule='|E|=5<=min E=8')), "
        "minima_witness=LeafWitness(rule='d=2<=min E=4'))))",
    ("S(w^w)", (1, 2)): "None",
    ("S(2)[S(1)]", (2, 3, 5, 6, 7, 8, 9, 10)):
        "SplitWitness(blocks=((2, 3), (5, 6, 7, 8, 9), (10,)), "
        "block_witnesses=(LeafWitness(rule='|E|=2<=min E=2'), LeafWitness(rule='|E|=5<=min E=5'), "
        "LeafWitness(rule='|E|=1<=min E=10')), minima_witness=SplitWitness(blocks=((2, 5), (10,)), "
        "block_witnesses=(LeafWitness(rule='|E|=2<=min E=2'), "
        "LeafWitness(rule='|E|=1<=min E=10')), minima_witness=LeafWitness(rule='d=2<=min E=2')))",
    ("A(3)[S(1)]", (1, 2, 3, 4, 5, 6)):
        "SplitWitness(blocks=((1,), (2, 3), (4, 5, 6)), "
        "block_witnesses=(LeafWitness(rule='|E|=1<=min E=1'), "
        "LeafWitness(rule='|E|=2<=min E=2'), LeafWitness(rule='|E|=3<=min E=4')), "
        "minima_witness=LeafWitness(rule='|E|=3<=3'))",
    ("S(1)(even)[A(2)]", (4, 6, 7)):
        "SplitWitness(blocks=((4,), (6, 7)), block_witnesses=(LeafWitness(rule='|E|=1<=2'), "
        "LeafWitness(rule='|E|=2<=2')), minima_witness=RelabelWitness(preimage=(2, 3), "
        "inner=LeafWitness(rule='|E|=2<=min E=2')))",
    ("S(1)(even)[A(2)]", (2, 3, 4)): "None",
}


@pytest.mark.parametrize("text, E", list(PINNED_WITNESSES), ids=repr)
def test_witnesses_pinned(text, E):
    res = member(E, parse_family(text))
    assert repr(res.witness) == PINNED_WITNESSES[text, E]
    assert res.member == (res.witness is not None)


def test_iter_maximal_deep_limits():
    # a limit state follows only its least live stage; following every
    # stage of S(w^2) at once does not finish on the first of these
    start = time.perf_counter()
    assert sum(1 for _ in iter_maximal(S(omega_power(finite(2))), 7, 14)) == 64
    assert sum(1 for _ in iter_maximal(S(omega_power(ONE, 2)), 6, 14)) == 128
    assert time.perf_counter() - start < 10


def test_s1_subset_of_higher():
    for xi in (finite(1), finite(2), finite(3), OMEGA, omega_power(OMEGA)):
        for E in subsets(range(1, 10)):
            if member(E, S(1)).member:
                assert member(E, S(xi)).member


# ---------------------------------------------------------------------------
# spreads and relabelings
# ---------------------------------------------------------------------------


def test_spread_of_examples():
    assert spread_of((2, 5), (3, 7))
    assert not spread_of((2, 5), (1, 9))
    with pytest.raises(ValueError):
        spread_of((1, 2), (3,))


def test_finset_examples():
    assert finset([5, 2, 5, 3]) == (2, 3, 5)
    assert finset(()) == ()
    for bad in ([0, 2], [3, -1]):
        with pytest.raises(ValueError, match="naturals >= 1"):
            finset(bad)


def test_relabel_set():
    M = IndexSequence.explicit([4, 7, 9, 15])
    assert M.apply((1, 3)) == (4, 9)
    assert EVENS.apply((1, 3)) == (2, 6)
    with pytest.raises(SequenceExhausted):
        M.apply((5,))


def test_index_sequence_kinds():
    arith = IndexSequence.arithmetic(3, 4)
    assert [arith.value_at(i) for i in (1, 2, 3)] == [3, 7, 11]
    assert arith.position_of(11) == 3
    assert arith.position_of(12) is None
    table = IndexSequence.table([2, 5], 9, 3)
    assert [table.value_at(i) for i in (1, 2, 3, 4)] == [2, 5, 9, 12]
    assert table.preimage((5, 12)) == (2, 4)
    assert table.preimage((5, 11)) is None
    assert NATURALS.is_identity


def _first_values(seq, count):
    """The first `count` values of seq, read by position; fewer when it ends."""
    values = []
    for i in range(1, count + 1):
        try:
            values.append(seq.value_at(i))
        except SequenceExhausted:
            break
    return values


@pytest.mark.parametrize("seq", [
    IndexSequence.explicit([1, 4, 7, 9, 15]),
    IndexSequence.explicit([3]),
    IndexSequence.explicit([]),
    IndexSequence.table([2, 5, 6], 9, 3),
    IndexSequence.table([1], 2, 1),
    IndexSequence.arithmetic(3, 4),
    NATURALS,
])
def test_position_of_inverts_value_at(seq):
    values = _first_values(seq, 29)
    for i, v in enumerate(values, start=1):
        assert seq.position_of(v) == i
    # unattained values below the last one read, and past an explicit end
    top = max(values, default=0)
    for v in range(top + 5 if seq.tail_start is None else top):
        if v not in values:
            assert seq.position_of(v) is None


_sequences = st.one_of(
    st.builds(lambda vals: IndexSequence.explicit(sorted(vals)),
              st.sets(st.integers(1, 40), max_size=8)),
    st.builds(IndexSequence.arithmetic, st.integers(1, 10), st.integers(1, 5)),
    # a prefix off the grid of its tail
    st.builds(lambda vals, gap, step: IndexSequence.table(sorted(vals), max(vals) + gap, step),
              st.sets(st.integers(1, 30), min_size=1, max_size=6), st.integers(1, 6),
              st.integers(1, 5)),
)


@settings(max_examples=300, deadline=None)
@given(_sequences, st.integers(0, 60), st.integers(0, 40))
@example(IndexSequence.table((2, 4, 7), 30, 2), 12, 20)
@example(IndexSequence.arithmetic(5, 3), 9, 10)
def test_from_value_is_the_subsequence_from_a_value(seq, m, width):
    # the values >= m read by position, apart from any tail alignment
    values = [v for v in _first_values(seq, 120) if v >= m]
    rest = seq.from_value(m)
    assert rest.prefix == tuple(v for v in seq.prefix if v >= m)
    assert _first_values(rest, 20) == values[:20]
    assert seq.values_within(m, m + width) == [v for v in values if v <= m + width]
    assert seq.values_above(m - 1, width) == values[:width]


# ---------------------------------------------------------------------------
# maximal enumeration
# ---------------------------------------------------------------------------


def test_enumerate_maximal_examples():
    enum = enumerate_maximal(A(2), 1, 4)
    assert sorted(enum.sets) == [(1, 2), (1, 3), (1, 4)]
    enum = enumerate_maximal(S(1), 3, 10)
    assert all(len(E) == 3 and E[0] == 3 for E in enum.sets)
    assert len(enum.sets) == 21  # choose 2 of [4..10]
    enum = enumerate_maximal(S(2), 2, 7)
    assert (2, 3, 4, 5, 6, 7) in enum.sets


def test_maximal_cardinalities():
    for n in (1, 2, 4, 6):
        enum = enumerate_maximal(S(1), n, n + 8)
        assert all(len(E) == n for E in enum.sets)
    enum = enumerate_maximal(A(3), 2, 8)
    assert all(len(E) == 3 for E in enum.sets)


def test_truncation_flags():
    # a 6-set needs six elements; horizon 8 still leaves room beyond
    enum = enumerate_maximal(S(1), 6, 8)
    assert enum.sets == [(6, 7, 8)]
    assert enum.all_truncated


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def test_threshold_identity():
    assert threshold_search(finite(2), finite(2), 12).n == 1


def test_threshold_s1_in_s2():
    res = threshold_search(finite(1), finite(2), 20)
    assert res.n == 1 and res.minimal


def test_threshold_s2_to_omega_golden():
    # derived: with canonical stages, every S_2 set with min >= 1 already
    # sits inside some stage below its min; the search walks the S_2
    # members with min 1, below the structural n = 2, and the exhaustive
    # decider agrees up to horizon 10 (test_threshold_matches_oracle)
    res = threshold_search(finite(2), OMEGA, 20)
    assert res.n == 1 and res.minimal


THRESHOLD_ORDINALS = [finite(0), finite(1), finite(2), finite(3), finite(4), OMEGA, add(OMEGA, ONE),
                      omega_power(ONE, 2), omega_power(finite(2))]


# pairs checked past the grid's horizons too: (3, w) rejects n = 1 by a
# member with min 2, a root just below its structural n = 3
THRESHOLD_PAST_THE_GRID = {(finite(3), OMEGA): (13,)}


@pytest.mark.parametrize("xi, zeta", [
    (xi, zeta) for i, xi in enumerate(THRESHOLD_ORDINALS) for zeta in THRESHOLD_ORDINALS[i:]
], ids=str)
def test_threshold_matches_oracle(xi, zeta):
    # the search trusts the structural threshold for every set with a
    # larger minimum; the oracle trusts nothing but the exhaustive decider
    for horizon in (*range(6, 11), *THRESHOLD_PAST_THE_GRID.get((xi, zeta), ())):
        res = threshold_search(xi, zeta, horizon)
        assert res.minimal and (res.n, res.rejections) == threshold_oracle(xi, zeta, horizon), horizon


def test_threshold_rejection_is_first_escaping_member():
    # below n = 3, the first S_3 member in DFS order to leave S_w is
    # (2, ..., 8): its greedy S_2 split needs three blocks, and min E = 2
    res = threshold_search(finite(3), OMEGA, 14)
    assert res.n == 3 and res.minimal
    assert res.rejections == [(1, tuple(range(2, 9)))]


def test_threshold_rejects_bad_order():
    with pytest.raises(ValueError):
        threshold_search(finite(2), finite(1), 10)


def test_threshold_budget_path_is_not_remembered(monkeypatch):
    # one DFS leaf is too few to certify n = 1 (the walk below the
    # structural n = 3 reaches 513), so n = 3 comes back unproven; with the
    # budget restored the same call proves n = 1, as a fresh search would
    monkeypatch.setattr(verifiers, "THRESHOLD_MINIMALITY_BUDGET", 1)
    res = threshold_search(finite(3), add(OMEGA, ONE), 12)
    assert res.n == 3 and not res.minimal
    monkeypatch.undo()
    res = threshold_search(finite(3), add(OMEGA, ONE), 12)
    assert res.n == 1 and res.minimal


def test_threshold_walks_only_below_the_structural_threshold(monkeypatch):
    # every S_2 member with min >= 2 lies in S_w by the structural proof,
    # so the walk tries each element above the root 1 once: a few pushes
    # per position, where a walk over every root pushed 143k times at
    # horizon 16 and ran out of budget at horizon 40
    pushes = 0

    def counted(push):
        def wrapper(self, state, x):
            nonlocal pushes
            pushes += 1
            return push(self, state, x)
        return wrapper

    for cls in (families._Room, families._Bracket, families._SetBracket, families._Limit,
                families._Relabeled):
        monkeypatch.setattr(cls, "push", counted(cls.push))
    for horizon in (20, 40):
        pushes = 0
        res = threshold_search(finite(2), OMEGA, horizon)
        assert (res.n, res.rejections, res.minimal) == (1, [], True)
        assert pushes < 200, (horizon, pushes)


# ---------------------------------------------------------------------------
# index-sequence constructions
# ---------------------------------------------------------------------------


def test_construct_L_base_and_successor():
    M = EVENS
    assert construct_L(finite(0), finite(1), M, 30) is M
    assert construct_L(finite(3), finite(1), M, 30) is M


def test_construct_L_diagonal_golden():
    L = construct_L(OMEGA, ONE, EVENS, 60)
    assert L.values_within(1, 24) == [4, 6, 10, 12, 16, 18, 22, 24]


_REFINED = [EVENS, NATURALS, IndexSequence.arithmetic(5, 3), IndexSequence.table((2, 3, 5), 7, 2),
            IndexSequence.table((2, 4, 7), 30, 2), IndexSequence.explicit(range(2, 61, 2))]


def test_construct_L_stays_inside_its_sequence(monkeypatch):
    # every call, the nested stages included, returns a subsequence of its M
    build, calls = verifiers._construct_L, []

    def traced(xi, zeta, M, horizon, memo):
        L = build(xi, zeta, M, horizon, memo)
        calls.append((xi, zeta, M, horizon, L))
        return L

    monkeypatch.setattr(verifiers, "_construct_L", traced)
    grid = [(parse_ordinal(x), finite(z), M, h)
            for x in ("w", "w+1", "w*2", "w^2") for z in (0, 1, 2) for M in _REFINED
            for h in ((12, 20) if x in ("w", "w+1") else (12, 20, 30))]
    for case in grid:
        try:
            construct_L(*case)
        except ConstructionError:
            pass
    assert len(calls) > len(grid)
    for xi, zeta, M, horizon, L in calls:
        values = _first_values(L, 40)
        assert all(M.position_of(v) is not None for v in values), (xi, zeta, M, horizon, L)
    # past its diagonal L goes on with M's own values, not by M's step
    table = IndexSequence.table((2, 4, 7), 30, 2)
    assert construct_L(OMEGA, ONE, table, 12) == IndexSequence.table((4, 7), 30, 2)
    assert construct_L(OMEGA, ONE, IndexSequence.explicit(range(2, 61, 2)), 20) == \
        IndexSequence.explicit((4, 6, 10, 12, 16, 18) + tuple(range(20, 61, 2)))


def test_construct_L_builds_each_refinement_once(monkeypatch):
    # stage n of a limit rebuilds the refinements of the stages below it;
    # without the memo this call makes 302,316 nested calls and 67,184
    # threshold searches, on 105 and 44 distinct inputs
    build, search, calls, searches = verifiers._construct_L, verifiers.threshold_search, [], []

    def traced(xi, zeta, M, horizon, memo):
        calls.append((xi, zeta, M, horizon))
        return build(xi, zeta, M, horizon, memo)

    monkeypatch.setattr(verifiers, "_construct_L", traced)
    monkeypatch.setattr(verifiers, "threshold_search", lambda *a: searches.append(a) or search(*a))
    L = construct_L(omega_power(finite(2)), finite(0), EVENS, 20)
    assert _first_values(L, 6) == [2, 8, 12, 14, 18, 20]
    assert len(set(calls)) == 105 and len(calls) < 200
    assert len(searches) == len(set(searches)) == 44


def test_construct_N_reduces_to_L_on_singletons():
    blocks = [(i,) for i in range(2, 12)]
    N = construct_N(finite(1), finite(0), blocks, 40)
    # with singleton blocks, refinement keeps every index
    assert N.prefix == tuple(range(1, len(blocks) + 1))


def test_construct_L_horizon_too_small():
    with pytest.raises(ConstructionError, match="stage"):
        construct_L(OMEGA, ONE, IndexSequence.explicit([2, 4]), 30)


def test_construct_N_rejects_bad_blocks():
    with pytest.raises(ValueError, match="block 2"):
        construct_N(finite(1), finite(0), [(2,), (4, 5)], 30)
    with pytest.raises(ValueError, match="successive"):
        construct_N(finite(1), finite(1), [(2, 3), (3, 4)], 30)


def test_verify_union_property():
    blocks = [(2, 3), (4, 5, 6), (7, 8, 9, 10), (11, 12, 13, 14, 15)]
    N = construct_N(finite(1), finite(1), blocks, 40)
    rep = verify_union_property(N, blocks, finite(1), finite(1))
    assert rep.ok


def test_verify_union_property_finds_an_escaping_union():
    # without a refinement the dyadic blocks 2..3 and 4..7 under the index
    # set (2, 3, 4) of S_w make 2..15, which needs more than two S_1 blocks
    blocks = [(1,), (2, 3), tuple(range(4, 8)), tuple(range(8, 16)), tuple(range(16, 32))]
    rep = verify_union_property(NATURALS, blocks, OMEGA, ONE)
    assert not rep.ok and rep.method == "exhaustive-union"
    assert rep.counterexample == ((2, 3, 4), tuple(range(2, 16)))


# ---------------------------------------------------------------------------
# inclusion verification
# ---------------------------------------------------------------------------


def test_verify_small_horizon_examples():
    assert verify_bracket_inclusion(S(1), S(2), 15).ok
    rep = verify_bracket_inclusion(S(2), S(1), 15)
    assert not rep.ok
    assert rep.counterexample == (2, 3, 4)  # first escaping member in DFS order


def test_verify_structural_equality():
    lhs = RelabeledFamily(BracketFamily(S(1), S(1)), NATURALS)
    rep = verify_bracket_inclusion(lhs, S(2), 40)
    assert rep.ok and rep.method == "structural"


def test_verify_dominance_holds_under_fast_relabel():
    # tripling the values outpaces the growth of S_2 inside this window,
    # so the relabeled family sits inside S_1 up to the horizon
    sparse = IndexSequence.arithmetic(3, 3)
    lhs = RelabeledFamily(S(2), sparse)
    rep = verify_bracket_inclusion(lhs, S(1), 24)
    assert rep.ok and rep.method == "dominance"


def test_verify_dominance_refutes_with_genuine_counterexample():
    # two S_1 blocks with even minima overfill the S_1 cardinality budget
    lhs = BracketFamily(RelabeledFamily(S(1), EVENS), S(1))
    rep = verify_bracket_inclusion(lhs, S(1), 24)
    assert not rep.ok and rep.method == "dominance"
    assert rep.counterexample == (4, 5, 6, 7, 8, 9, 10, 11)
    assert member(rep.counterexample, lhs).member
    assert not member(rep.counterexample, S(1)).member


def test_verify_dominance_undecided_is_flagged():
    # with a non-size-determined inner family the compressed bound can
    # overshoot; the verifier must say so instead of inventing an answer
    lhs = BracketFamily(RelabeledFamily(S(1), EVENS), S(2))
    rep = verify_bracket_inclusion(lhs, S(2), 24)
    assert not rep.ok and rep.budget_exhausted


def _criterion_02_inclusions():
    """The three bracket inclusions of acceptance criterion 02."""
    L = construct_L(OMEGA, ONE, EVENS, 60)
    rng = random.Random(2024)
    values, prev = [], 0
    for v in L.values_within(1, 60):
        prev = max(v + 2 * rng.randint(0, 2), prev + 2)
        values.append(prev)
    spread = IndexSequence.explicit(values)
    L3 = construct_L_bracket(finite(1), finite(1), 40)
    return [
        (BracketFamily(RelabeledFamily(S(OMEGA), L), S(1)), S(add(ONE, OMEGA))),
        (BracketFamily(RelabeledFamily(S(OMEGA), spread), S(1)), S(add(ONE, OMEGA))),
        (RelabeledFamily(BracketFamily(S(1), S(1)), L3), S(2)),
    ]


def _split_blocks(E, fam):
    """The blocks, in the bracket's own coordinates, of the member
    witness of E in a bracket-shaped fam."""
    wit = member(E, fam).witness
    if isinstance(wit, families.RelabelWitness):
        wit = wit.inner
    return wit.blocks


@pytest.mark.parametrize("case", range(4))
def test_dominance_pass_matches_member_sweep(case):
    # the criterion's inner families are all S_1; a fourth inclusion has
    # an inner family that is not size-determined
    lhs, rhs = [*_criterion_02_inclusions(),
                (BracketFamily(RelabeledFamily(S(1), EVENS), S(2)), S(3))][case]
    lhs_c, rhs_c = canonicalize(lhs), canonicalize(rhs)
    k = _kernel(lhs_c)
    (minima, inner), labels = k.shape, k.labels
    inner_fam = inner.fam
    for horizon in range(10, 17):
        top, base = len(labels.values_within(1, horizon)), labels.value_at
        pass_blocks = dict(_dominance_blocks(minima, inner, labels, horizon))
        # each block against a `_walk` sweep of the inner family in its window
        for Apat, blocks in pass_blocks.items():
            for i, (a, (comp, raw)) in enumerate(zip(Apat, blocks)):
                upper = Apat[i + 1] - 1 if i + 1 < len(Apat) else top
                k = max(len(E) for E, _, _, _ in _walk(inner_fam, range(a + 1, upper + 1), (a,)))
                assert comp == tuple(range(base(a), base(a) + k)), (horizon, Apat, i)
                # one raw part: left-packed for a sized inner family,
                # else top-packed, which spreading makes a member
                if inner.sized:
                    assert raw == tuple(range(a, a + k)), (horizon, Apat, i)
                else:
                    assert len(raw) == k and raw[0] == a, (horizon, Apat, i)
                    assert k == 1 or raw[-1] == upper, (horizon, Apat, i)
                    assert member(raw, inner_fam).member, (horizon, Apat, i)
        # every lhs member of the sweep splits into blocks that fit the
        # pass's blocks for the same minima
        for E, _, _, _ in _walk(lhs_c, range(1, horizon + 1)):
            if not E:
                continue
            split = _split_blocks(E, lhs_c)
            fits = pass_blocks[tuple(b[0] for b in split)]
            assert all(len(b) <= len(f[0]) for b, f in zip(split, fits)), (horizon, E)
        # the verdicts agree with the sweep, also on a false inclusion
        for target in (rhs_c, S(1)):
            walk = _walk(lhs_c, range(1, horizon + 1), rhs=target)
            escaped = next((E for E, _, out, _ in walk if out), None)
            dominance = _verify_by_dominance(_kernel(lhs_c), _kernel(target), horizon)
            assert dominance.method == "dominance"
            assert dominance.ok == (escaped is None), (horizon, target)
            if not dominance.ok and not dominance.budget_exhausted:
                cx = dominance.counterexample
                assert member(cx, lhs_c).member and not member(cx, target).member


@pytest.mark.parametrize("lhs, rhs, ok, method, found, pinned", [
    # S_1(L) is S_1[S_0](L), and S_1 is S_1[S_0]: dominance passes in position space
    (RelabeledFamily(S(1), EVENS), S(1), True, "dominance", "143 minima patterns", 143),
    (RelabeledFamily(S(1), EVENS), A(3), False, "dominance", "escapes", (8, 10, 12, 14)),
    (S(1), S(2), True, "dominance", "17710 minima patterns", 17710),
    (S(1), A(3), False, "dominance", "escapes", (4, 5, 6, 7)),
    # a limit is not bracket-shaped
    (S(OMEGA), S(add(OMEGA, ONE)), False, "none", "no exact strategy", None),
    # a relabeled rhs is not spreading
    (BracketFamily(S(2), A(2)), RelabeledFamily(S(1), EVENS), False, "none", "no exact strategy", None),
    (BracketFamily(S(1), RelabeledFamily(S(1), EVENS)), S(2), False, "none", "too irregular", None),
    # F(M)(L) is no bracket relabeled once
    (parse_family("S(1)[A(2)](even)(even)"), S(2), False, "none", "no exact strategy", None),
], ids=["S1(even) in S1", "S1(even) in A3", "S1 in S2", "S1 in A3", "Sw in Sw+1", "relabeled rhs",
        "relabeled inner", "relabeled twice"])
def test_bracket_inclusion_past_the_sweep(lhs, rhs, ok, method, found, pinned):
    # `pinned` is the pattern count of a certified inclusion, and the
    # counterexample of a failed dominance pass
    rep = verify_bracket_inclusion(lhs, rhs, 20)
    assert (rep.ok, rep.method) == (ok, method) and found in rep.detail
    if ok:
        assert rep.stats == {"patterns": pinned} and rep.certified_horizon == 20
    elif method == "dominance":
        assert rep.counterexample == pinned and not rep.budget_exhausted
        assert member_exhaustive(pinned, lhs) and not member_exhaustive(pinned, rhs)
    else:
        assert rep.budget_exhausted and rep.certified_horizon is None


def test_dominance_pass_with_no_block_elements():
    # no block of S(1)[A(0)] takes an element, so every compressed set is empty
    rep = _verify_by_dominance(_kernel(BracketFamily(S(1), A(0))), _kernel(S(2)), 20)
    assert rep.ok and rep.method == "dominance" and rep.stats == {"patterns": 17710}


# ---------------------------------------------------------------------------
# hash and equality of family expressions
# ---------------------------------------------------------------------------


_indices = st.sampled_from(["0", "1", "2", "3", "w", "w+1", "w*2+3", "w^2", "w^w"])
_labels = st.one_of(
    st.builds(IndexSequence.arithmetic, st.integers(1, 5), st.integers(1, 4)),
    st.builds(
        lambda vals: IndexSequence.explicit(sorted(vals)),
        st.sets(st.integers(1, 40), min_size=1, max_size=6),
    ),
)
family_expressions = st.recursive(
    st.one_of(st.builds(lambda t: parse_family(f"S({t})"), _indices), st.builds(A, st.integers(0, 6))),
    lambda kids: st.one_of(
        st.builds(BracketFamily, kids, kids), st.builds(RelabeledFamily, kids, _labels)
    ),
    max_leaves=4,
)


@settings(max_examples=100, deadline=None)
@given(family_expressions)
def test_equal_families_hash_equal(fam):
    # a twin built independently, through the grammar
    twin = parse_family(print_family(fam))
    assert twin is not fam and twin == fam and hash(twin) == hash(fam)
    # the stored hash is the one the record would compute from its fields
    assert hash(fam) == hash(tuple(getattr(fam, name) for name in fam._fields))
    assert canonicalize(twin) == canonicalize(fam)
    assert hash(canonicalize(twin)) == hash(canonicalize(fam))


@settings(max_examples=300, deadline=None)
@given(family_expressions, st.sets(st.integers(1, 12), max_size=7), st.booleans())
# sets on which the greedy split of a relabeled outer family fails
@example(parse_family("S(1)(arith(3,2))[S(1)]"), {5, 6, 7, 8, 9, 10}, False)
@example(parse_family("A(2)[S(1)(even)[A(2)]]"), {2, 4, 5}, False)
@example(parse_family("S(w)(even)[A(3)]"), {4, 5, 6, 7}, False)
def test_member_matches_exhaustive_on_expressions(fam, elements, evens):
    # doubling puts the set on the labels of the even relabelings
    E = tuple(sorted(2 * e if evens else e for e in elements))
    res = member(E, fam)
    assert res.member == member_exhaustive(E, fam), E
    assert not res.member or recheck_witness(E, fam, res.witness), E


def test_equal_families_share_memo_entries():
    pairs = [
        (canonicalize(BracketFamily(S(1), S(1))), S(2)),
        (S(fundamental(omega_power(OMEGA), 3)), parse_family("S(w^3)")),
        (RelabeledFamily(BracketFamily(S(1), A(2)), IndexSequence.arithmetic(2, 2)),
         RelabeledFamily(BracketFamily(S(1), A(2)), EVENS)),
        (RelabeledFamily(S(1), IndexSequence.explicit([2, 4, 6])), parse_family("S(1)([2,4,6])")),
        (A(3), CardinalityFamily(3)),
    ]
    for x, y in pairs:
        assert x is not y and x == y and hash(x) == hash(y), x
        assert families._kernel(x) is families._kernel(y), x
        member((2, 4, 6), x)
        size = len(families._member_cache)
        member((2, 4, 6), y)
        assert len(families._member_cache) == size, x
    # a block a kernel asked about while splitting is the public question's
    # entry too: S(2) = S(1)[S(1)] splits (3, 4, 5, 6) into (3, 4, 5), (6,)
    member((3, 4, 5, 6), S(2))
    size = len(families._member_cache)
    assert member((3, 4, 5), S(1)).member and len(families._member_cache) == size
    # the count is the number of answers stored since the last clear: the
    # benchmark's memo_entries and its hit counter read it
    families.clear_caches()
    assert len(families._member_cache) == 0
    member((3, 4, 5), S(1))
    assert len(families._member_cache) == 1
    # a miss on S(2) stores its own answer and the two block answers it
    # asked for, (3, 4, 5, 6) and (6,) in S(1); (3, 4, 5) was a hit
    member((3, 4, 5, 6), S(2))
    assert len(families._member_cache) == 4
    assert set(families._kernel(S(1)).memo) == {(3, 4, 5), (3, 4, 5, 6), (6,)}
    member((3, 4, 5, 6), S(2))
    assert len(families._member_cache) == 4
    families.clear_caches()
    assert len(families._member_cache) == 0


def test_leaf_answers_are_shared_until_the_clear():
    # answers that read only |E| and min E are built once per pair
    families.clear_caches()
    assert member((3, 4), S(1)) is member((3, 5), S(1))
    assert member((3, 4), A(2)) is member((3, 6), A(2)) is not member((3, 4), S(1))
    # (2, 3, 5) splits into two S(1) blocks, and so does the one S(2)
    # block of (2, 4, 6) in S(3)
    assert (member((2, 3, 5), S(2)).witness.minima_witness
            is member((2, 4, 6), S(3)).witness.block_witnesses[0].minima_witness)
    assert member((2, 3, 5), S(2)).witness.minima_witness == LeafWitness("d=2<=min E=2")
    assert families._member_cache.rooms and families._member_cache.minima
    families.clear_caches()
    assert not families._member_cache.rooms and not families._member_cache.minima


def test_clear_caches_drops_kernels_and_memo():
    fam = BracketFamily(S(OMEGA), S(2))
    before = member((3, 4, 5, 6, 7), fam)
    assert families._kernels and families._member_cache
    families.clear_caches()
    assert not families._kernels and not families._member_cache
    assert member((3, 4, 5, 6, 7), fam) == before
    assert families._kernel(fam).fam is fam


def test_member_memo_stays_within_its_cap(monkeypatch):
    # a store into a full memo clears it whole first; the answers after a
    # clear equal those of the uncapped memo
    fams = (S(OMEGA), BracketFamily(S(1), A(2)))
    sets = [E for size in range(1, 6) for E in itertools.combinations(range(2, 14), size)]
    expected = [member(E, fam) for fam in fams for E in sets]
    families.clear_caches()
    monkeypatch.setattr(families, "MEMO_CAP", 64)
    for _ in range(2):
        got = []
        for fam in fams:
            for E in sets:
                got.append(member(E, fam))
                assert len(families._member_cache) <= 64
        assert got == expected


def _reachable_kernels(k):
    """k and every kernel it holds, through its stages, blocks or base."""
    found, todo = [], [k]
    while todo:
        k = todo.pop()
        if all(k is not seen for seen in found):
            found.append(k)
            for value in vars(k).values():
                todo.extend(x for x in (value if isinstance(value, list) else [value])
                            if isinstance(x, families._Kernel))
    return found


def test_held_kernel_answers_stay_within_the_cap(monkeypatch):
    # a search that holds a kernel across clears of the memo keeps asking
    # it and its stage kernels, which the kernel table no longer holds; the
    # answers they store after a clear are counted and cleared all the same
    sets = [E for size in range(1, 6) for E in itertools.combinations(range(2, 14), size)]
    expected = [member(E, S(OMEGA)) for E in sets]
    families.clear_caches()
    monkeypatch.setattr(families, "MEMO_CAP", 32)
    held = families._kernel(S(OMEGA))
    got, public = [], []
    for E in sets:
        got.append(families._member(E, held))
        public.append(member(E, S(OMEGA)))
        assert sum(len(k.memo) for k in _reachable_kernels(held)) <= 32
        assert len(families._member_cache) <= 32
    # stages S(1) and S(2), the latter compiled after a clear with an S(1)
    # of its own
    assert len(_reachable_kernels(held)) == 4
    assert families._kernel(S(OMEGA)) is not held
    assert got == expected and public == expected


def test_kernel_table_clears_with_the_member_memo(monkeypatch):
    # each S(2)(M)[S(1)] with a new M compiles kernels of its own; the
    # kernel table empties with the memo at its cap, so it stays bounded
    # however many families are asked about, and no answer changes
    rng = random.Random(3)
    cases = []
    for _ in range(300):
        M = sorted(rng.sample(range(2, 40), 12))
        fam = BracketFamily(RelabeledFamily(S(2), IndexSequence.explicit(M)), S(1))
        cases.append((tuple(sorted(rng.sample(M, rng.randint(1, 6)))), fam))
    families.clear_caches()
    expected = [member(E, fam) for E, fam in cases]
    assert 0 < sum(r.member for r in expected) < len(cases)
    assert len(families._kernels) > 2 * len(cases)
    families.clear_caches()
    monkeypatch.setattr(families, "MEMO_CAP", 32)
    got, sizes = [], []
    for E, fam in cases:
        got.append(member(E, fam))
        sizes.append(len(families._kernels))
    assert got == expected
    assert max(sizes) <= 2 * 32 + 8
    # a kernel compiled before a clear is still read as the S(1) it is
    k = families._kernel(S(1))
    families.clear_caches()
    assert k.shape[0] is k


def test_family_hash_is_read_only_and_hidden():
    fam = parse_family("S(1)[A(2)](even)")
    parts = (fam, fam.base, fam.base.outer, fam.base.inner)
    for part in parts:
        with pytest.raises(dataclasses.FrozenInstanceError):
            part._hash = 0
        assert "_hash" not in part._fields
    assert repr(fam.base) == (
        "BracketFamily(outer=SchreierFamily(index=Ordinal[1]), inner=CardinalityFamily(bound=2))"
    )
    assert to_jsonable(fam) == {
        "type": "RelabeledFamily",
        "base": {
            "type": "BracketFamily",
            "outer": {
                "type": "SchreierFamily",
                "index": {"type": "Ordinal", "terms": [[{"type": "Ordinal", "terms": []}, 1]]},
            },
            "inner": {"type": "CardinalityFamily", "bound": 2},
        },
        "labels": {"type": "IndexSequence", "prefix": [], "tail_start": 2, "tail_step": 2},
    }
    assert "hash" not in json.dumps(to_jsonable(fam))


def test_canonicalize():
    assert canonicalize(BracketFamily(S(1), S(1))) == S(2)
    assert canonicalize(RelabeledFamily(S(2), NATURALS)) == S(2)
    assert canonicalize(BracketFamily(S(1), S(OMEGA))) == S(add(OMEGA, ONE))


# ---------------------------------------------------------------------------
# mass maximisation
# ---------------------------------------------------------------------------


def test_family_mass_examples():
    uniform5 = {i: Fraction(1, 5) for i in range(5, 10)}
    res = family_mass(uniform5, S(0))
    assert res.mass == Fraction(1, 5) and len(res.argmax) == 1
    res = family_mass(uniform5, A(2))
    assert res.mass == Fraction(2, 5)
    # derived from the exhaustive oracle below: {4,5,6,7} is admissible for
    # S_1 (four elements, min 4) and beats every three-element candidate
    uniform6 = {i: Fraction(1, 6) for i in range(2, 8)}
    res = family_mass(uniform6, S(1))
    assert res.mass == Fraction(2, 3)
    assert res.argmax == (4, 5, 6, 7)


MASS_FAMILIES = [
    S(0), S(1), S(2), S(3), A(2), A(3), S(OMEGA), S(add(OMEGA, ONE)),
    BracketFamily(S(1), A(2)),
    BracketFamily(S(2), S(1)),
    RelabeledFamily(S(2), EVENS),
    BracketFamily(RelabeledFamily(S(1), EVENS), A(2)),
]


@pytest.mark.parametrize("fam", MASS_FAMILIES, ids=repr)
def test_family_mass_against_brute_force(fam):
    rng = random.Random(21)
    for _ in range(12):
        support = sorted(rng.sample(range(1, 16), rng.randint(1, 12)))
        if rng.random() < 0.5:
            support = [2 * c for c in support]  # on the labels of EVENS
        coeffs = {c: Fraction(rng.randint(0, 6), 7) for c in support}
        res = family_mass(coeffs, fam)
        assert res.mass == mass_oracle(coeffs, fam), coeffs
        assert member_exhaustive(res.argmax, fam), coeffs
        assert sum((coeffs[c] for c in res.argmax), Fraction(0)) == res.mass


def test_family_mass_pinned_s2():
    # the argmax opens three blocks at 3, (3, 4, 5) (6..11) (12..17); two
    # greedy states at the same position differ only in their block count
    coeffs = {2: 10, 3: 1, 4: 1, 5: 10}
    coeffs.update({c: 3 for c in range(6, 18)})
    res = family_mass(coeffs, S(2))
    assert res.mass == 48 and res.argmax == tuple(range(3, 18))


def test_family_mass_leaves_member_memo_alone():
    coeffs = {c: Fraction(c % 5, 4) for c in range(2, 14)}
    before = len(families._member_cache)
    for fam in (S(2), S(OMEGA), BracketFamily(S(1), A(2)), BracketFamily(S(OMEGA), S(2))):
        family_mass(coeffs, fam)
    assert len(families._member_cache) == before


@pytest.mark.parametrize("fam", [S(0), S(1), S(2), A(2), S(OMEGA), BracketFamily(S(1), A(2))], ids=repr)
def test_family_mass_rejects_coordinates_below_one(fam):
    with pytest.raises(ValueError):
        family_mass({0: Fraction(1), 3: Fraction(1, 2)}, fam)


def test_family_mass_rejects_negative():
    with pytest.raises(ValueError):
        family_mass({3: Fraction(-1, 2)}, S(1))
