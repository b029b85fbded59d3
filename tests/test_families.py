"""Family membership, enumeration, constructions and mass maximisation."""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import dfs_leaves_oracle, members_over_oracle
from schreier.families import (
    A,
    BracketFamily,
    EVENS,
    IndexSequence,
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
    _all_members_over,
    _extension_candidates,
    _state_of,
)
from schreier.ordinals import OMEGA, ONE, add, finite, omega_power


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
# can sit in a bracket; the last family has a relabeled outer family, so it
# has no greedy state and its enumerations ask `member`
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
]


def greedy_member(E, fam):
    return not E or _state_of(fam, E) is not None


@pytest.mark.parametrize("fam", GREEDY_FAMILIES, ids=repr)
@settings(max_examples=30, deadline=None)
@given(elements=st.sets(st.integers(1, 20), max_size=14), evens=st.booleans())
def test_greedy_state_matches_exhaustive(fam, elements, evens):
    # doubling puts the set on the labels of the relabeled families
    E = tuple(sorted(2 * e if evens else e for e in elements))
    assert greedy_member(E, fam) == member_exhaustive(E, fam), E


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
        probes = _extension_candidates(fam, horizon, 5 * horizon)[:4]
        enum = enumerate_maximal(fam, first, horizon)
        assert enum.sets == maximal, first
        assert enum.truncated == [
            any(member_exhaustive(E + (v,), fam) for v in probes) for E in maximal
        ], first
    for universe in (list(range(1, horizon + 1)), EVENS.values_within(1, 2 * horizon)):
        assert list(_all_members_over(fam, universe)) == members_over_oracle(fam, universe)


def test_relabeled_outer_keeps_backtracking():
    # the greedy split (4, 6), (7,) has minima (4, 7), which lie outside
    # S_1(EVENS); only the split (4,), (6, 7) shows membership
    fam = BracketFamily(RelabeledFamily(S(1), EVENS), A(2))
    E = (4, 6, 7)
    res = member(E, fam)
    assert res.member and res.witness.blocks == ((4,), (6, 7))
    assert member_exhaustive(E, fam) and greedy_member(E, fam)


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
    values = []
    for i in range(1, 30):
        try:
            values.append(seq.value_at(i))
        except SequenceExhausted:
            break
    for i, v in enumerate(values, start=1):
        assert seq.position_of(v) == i
    # unattained values below the last one read, and past an explicit end
    top = max(values, default=0)
    for v in range(top + 5 if seq.tail_start is None else top):
        if v not in values:
            assert seq.position_of(v) is None


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
    # sits inside some stage below its min; frozen after exhaustive check
    res = threshold_search(finite(2), OMEGA, 20)
    assert res.n == 1 and res.minimal


def test_threshold_rejection_is_first_escaping_member():
    # below n = 3, the first S_3 member in DFS order to leave S_w is
    # (2, ..., 8): its greedy S_2 split needs three blocks, and min E = 2
    res = threshold_search(finite(3), OMEGA, 14)
    assert res.n == 3 and res.minimal
    assert res.rejections == [(1, tuple(range(2, 9)))]


def test_threshold_rejects_bad_order():
    with pytest.raises(ValueError):
        threshold_search(finite(2), finite(1), 10)


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


def test_construct_N_reduces_to_L_on_singletons():
    blocks = [(i,) for i in range(2, 12)]
    N = construct_N(finite(1), finite(0), blocks, 40)
    # with singleton blocks, refinement keeps every index
    assert N.prefix == tuple(range(1, len(blocks) + 1))


def test_construct_L_horizon_too_small():
    from schreier.families import ConstructionError

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


def brute_mass(coeffs, fam):
    support = sorted(c for c in coeffs if coeffs[c] > 0)
    best, best_set = Fraction(0), ()
    for E in subsets(support):
        if member(E, fam).member:
            m = sum((coeffs[i] for i in E), Fraction(0))
            if m > best:
                best, best_set = m, E
    return best


def test_family_mass_against_brute_force():
    rng = random.Random(21)
    fams = [S(0), S(1), S(2), A(2), A(3), S(OMEGA)]
    for _ in range(60):
        support = sorted(rng.sample(range(1, 14), rng.randint(1, 8)))
        coeffs = {c: Fraction(rng.randint(0, 6), 7) for c in support}
        fam = rng.choice(fams)
        assert family_mass(coeffs, fam).mass == brute_mass(coeffs, fam)


def test_family_mass_rejects_negative():
    with pytest.raises(ValueError):
        family_mass({3: Fraction(-1, 2)}, S(1))
