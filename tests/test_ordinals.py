"""Ordinal arithmetic: golden values against a textbook oracle, order and
fundamental-sequence properties."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from schreier.ordinals import (
    ONE,
    OMEGA,
    Ordinal,
    ZERO,
    add,
    compare,
    finite,
    fundamental,
    omega_power,
    to_text,
)
from schreier.parsing import parse_ordinal
from schreier.reports import to_jsonable


# ---------------------------------------------------------------------------
# textbook oracle: ordinal sum via term concatenation + renormalisation
# ---------------------------------------------------------------------------


def oracle_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """CNF addition the slow way: concatenate the term lists, then repair
    normal form left to right by absorbing any term whose exponent is not
    strictly above everything to its right."""
    terms = list(a.terms) + list(b.terms)
    changed = True
    while changed:
        changed = False
        for i in range(len(terms) - 1):
            e1, c1 = terms[i]
            e2, c2 = terms[i + 1]
            if compare(e1, e2) < 0:
                del terms[i]
                changed = True
                break
            if compare(e1, e2) == 0:
                terms[i : i + 2] = [(e1, c1 + c2)]
                changed = True
                break
    return Ordinal(tuple(terms))


def random_ordinal(rng: random.Random, depth: int = 2) -> Ordinal:
    if depth == 0 or rng.random() < 0.3:
        return finite(rng.randint(0, 9))
    k = rng.randint(1, 3)
    exps = []
    while len(exps) < k:
        e = random_ordinal(rng, depth - 1)
        if all(compare(e, f) != 0 for f in exps):
            exps.append(e)
    exps.sort(key=lambda e: [0], reverse=True)
    # sort properly using compare
    for i in range(len(exps)):
        for j in range(i + 1, len(exps)):
            if compare(exps[i], exps[j]) < 0:
                exps[i], exps[j] = exps[j], exps[i]
    return Ordinal(tuple((e, rng.randint(1, 4)) for e in exps))


ordinals = st.builds(lambda seed: random_ordinal(random.Random(seed)), st.integers(0, 10**6))


# ---------------------------------------------------------------------------
# golden values
# ---------------------------------------------------------------------------


def test_compare_examples():
    assert compare(ZERO, OMEGA) < 0
    w2p1 = add(omega_power(ONE, 2), finite(1))
    assert compare(w2p1, w2p1) == 0
    assert compare(omega_power(OMEGA), omega_power(ONE, 999)) > 0


def test_add_examples():
    assert add(finite(3), OMEGA) == OMEGA
    assert add(OMEGA, finite(3)) == parse_ordinal("w+3")
    # derived against the textbook oracle
    a = add(omega_power(finite(2)), OMEGA)
    b = omega_power(finite(2))
    expected = oracle_add(a, b)
    assert add(a, b) == expected == parse_ordinal("w^2*2")


def test_fundamental_examples():
    assert fundamental(OMEGA, 5) == finite(5)
    assert fundamental(omega_power(finite(2)), 3) == parse_ordinal("w*3")
    assert fundamental(omega_power(OMEGA), 4) == parse_ordinal("w^4")
    assert fundamental(parse_ordinal("w*2"), 3) == parse_ordinal("w+3")
    assert fundamental(parse_ordinal("w^2+w"), 4) == parse_ordinal("w^2+4")


def test_fundamental_rejects_non_limits():
    with pytest.raises(ValueError):
        fundamental(ZERO, 1)
    with pytest.raises(ValueError):
        fundamental(parse_ordinal("w+1"), 1)
    with pytest.raises(ValueError):
        fundamental(finite(7), 2)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(ordinals, ordinals)
def test_add_matches_oracle(a, b):
    assert add(a, b) == oracle_add(a, b)


@settings(max_examples=100, deadline=None)
@given(ordinals, ordinals, ordinals)
def test_add_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


@settings(max_examples=60, deadline=None)
@given(ordinals)
def test_add_identity(a):
    assert add(a, ZERO) == a == add(ZERO, a)


@settings(max_examples=80, deadline=None)
@given(ordinals, st.integers(1, 12))
def test_fundamental_increasing_and_below(a, n):
    lam = add(a, OMEGA)  # force a limit
    assert compare(fundamental(lam, n), fundamental(lam, n + 1)) < 0
    assert compare(fundamental(lam, n), lam) < 0


@settings(max_examples=120, deadline=None)
@given(ordinals)
def test_text_round_trip(a):
    assert parse_ordinal(to_text(a)) == a


def test_total_order_sample():
    rng = random.Random(5)
    sample = [random_ordinal(rng) for _ in range(40)]
    for a in sample:
        for b in sample:
            c1, c2 = compare(a, b), compare(b, a)
            assert c1 == -c2
            if c1 == 0:
                assert a == b
    for a in sample:
        for b in sample:
            for c in sample:
                if compare(a, b) <= 0 and compare(b, c) <= 0:
                    assert compare(a, c) <= 0


# ---------------------------------------------------------------------------
# hash and equality of the stored attributes
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(ordinals, ordinals)
def test_equal_ordinals_hash_equal(a, b):
    # built independently: parsed from text, and summed by the oracle
    twin = parse_ordinal(to_text(a))
    assert twin == a and hash(twin) == hash(a) == hash((a.terms,))
    total, oracle_total = add(a, b), oracle_add(a, b)
    assert total == oracle_total and hash(total) == hash(oracle_total)
    # the stored predicates read the normal form
    last_finite = bool(a.terms) and a.terms[-1][0].terms == ()
    assert a.is_zero == (a.terms == ())
    assert a.is_successor == last_finite
    assert a.is_limit == (bool(a.terms) and not last_finite)
    if a.is_successor:
        assert add(a.predecessor(), ONE) == a
        assert a.predecessor() is a.predecessor()


def test_fundamental_hashes_as_parsed():
    w3 = fundamental(omega_power(OMEGA), 3)
    parsed = parse_ordinal("w^3")
    assert w3 is not parsed and w3 == parsed and hash(w3) == hash(parsed)
    assert {w3: "hit"}[parsed] == "hit"


def test_stored_attributes_are_read_only_and_hidden():
    a = parse_ordinal("w^2+3")
    a.predecessor()  # stores the predecessor as well
    for name in ("is_zero", "is_successor", "is_limit", "terms"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, True)
    assert list(a._fields) == ["terms"]
    assert repr(a) == "Ordinal[w^2+3]"
    jsonable = to_jsonable(a)
    assert set(jsonable) == {"type", "terms"}
    for word in ("hash", "is_", "predecessor"):
        assert word not in json.dumps(jsonable)
