"""Vectors, block sequences, functional evaluation and validity."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schreier.ordinals import OMEGA, finite
from schreier.vectors import (
    Average,
    BlockSequence,
    SumNode,
    Unit,
    Vector,
    block_combine,
    combine,
    evaluate,
    functional_support,
    negate,
    validate_functional,
)


def vec(*pairs):
    return Vector.from_dict({c: Fraction(v) for c, v in pairs})


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)
vectors = st.dictionaries(st.integers(1, 12), rationals, max_size=6).map(Vector.from_dict)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_examples():
    assert evaluate(Unit(1, 3), Vector.basis(3)) == 1
    avg = Average(2, (Unit(1, 1), Unit(1, 2)))
    assert evaluate(avg, vec((1, 1), (2, 1))) == 1
    # hand arithmetic: 1 + 1/2 on the two pair averages
    g = SumNode((
        Average(2, (Unit(1, 1), Unit(1, 2))),
        Average(4, (Unit(1, 5), Unit(1, 6))),
    ))
    assert evaluate(g, vec((1, 1), (2, 1), (5, 1), (6, 1))) == Fraction(3, 2)


@settings(max_examples=120, deadline=None)
@given(vectors, vectors, rationals, rationals)
def test_evaluate_linear(x, y, a, b):
    f = SumNode((
        Average(2, (Unit(1, 2), Unit(-1, 3))),
        Average(5, (Unit(1, 7), Unit(1, 9))),
    ))
    lhs = evaluate(f, (x * a) + (y * b))
    rhs = a * evaluate(f, x) + b * evaluate(f, y)
    assert lhs == rhs


def test_evaluate_support_bound():
    rng = random.Random(4)
    for _ in range(100):
        coords = sorted(rng.sample(range(1, 12), rng.randint(1, 5)))
        x = Vector.from_dict({c: Fraction(rng.randint(-5, 5), 3) for c in coords})
        children = tuple(Unit(rng.choice((1, -1)), c) for c in sorted(rng.sample(range(1, 12), 3)))
        f = Average(4, children)
        overlap = set(functional_support(f)) & set(x.support())
        assert abs(evaluate(f, x)) <= x.linf() * len(overlap)


def test_negate_pushes_to_leaves():
    g = SumNode((Average(2, (Unit(1, 1), Unit(-1, 2))),))
    ng = negate(g)
    assert isinstance(ng, SumNode)
    assert ng.children[0].children == (Unit(-1, 1), Unit(1, 2))
    x = vec((1, 2), (2, 3))
    assert evaluate(ng, x) == -evaluate(g, x)


# ---------------------------------------------------------------------------
# validity
# ---------------------------------------------------------------------------


def test_validate_examples():
    ok = validate_functional(Average(2, (Unit(1, 1), Unit(1, 2))), finite(1))
    assert ok.ok
    bad = SumNode((
        Average(3, (Unit(1, 2),)),
        Average(3, (Unit(1, 5),)),
    ))
    rep = validate_functional(bad, finite(1))
    assert not rep.ok and "sizes" in rep.detail
    # min-support pattern {1, 5} needs two stages below min 1: inadmissible
    bad2 = SumNode((
        Average(2, (Unit(1, 1),)),
        Average(5, (Unit(1, 5),)),
    ))
    rep = validate_functional(bad2, finite(1))
    assert not rep.ok and "admissible" in rep.detail


def test_validate_size_versus_support():
    # size must exceed the previous child's max support
    bad = SumNode((
        Average(2, (Unit(1, 2), Unit(1, 6))),
        Average(3, (Unit(1, 7),)),
    ))
    rep = validate_functional(bad, finite(1))
    assert not rep.ok and "max support" in rep.detail


@pytest.mark.parametrize("f, detail", [
    (Average(2, (Unit(1, 3), Unit(1, 2))), "average children must have successive supports"),
    # a sum node whose sizes do not increase, under an average
    (Average(2, (Unit(1, 1), SumNode((Average(3, (Unit(1, 2),)), Average(2, (Unit(1, 4),)))))),
     "sizes not strictly increasing"),
    (SumNode((Average(2, (Unit(1, 3), Unit(1, 4))), Average(5, (Unit(1, 1), Unit(1, 2))))),
     "sum-node children must have successive supports"),
    # a valid sum node over an average whose children are not successive
    (SumNode((Average(2, (Unit(1, 3), Unit(1, 2))),)),
     "average children must have successive supports"),
    ("U(1)", "not a functional: 'U(1)'"),
], ids=["average", "average-child", "sum-node", "sum-node-child", "non-functional"])
def test_validate_reports_each_violation(f, detail):
    rep = validate_functional(f, finite(1))
    assert not rep.ok and rep.detail == detail and rep.counterexample == f


def test_average_arity_invariants():
    with pytest.raises(ValueError):
        Average(1, (Unit(1, 1),))
    with pytest.raises(ValueError):
        Average(2, (Unit(1, 1), Unit(1, 2), Unit(1, 3)))


# ---------------------------------------------------------------------------
# block sequences
# ---------------------------------------------------------------------------


def test_block_combine_identity():
    bs = BlockSequence.basis(4)
    out = block_combine(bs, [((i,), [Fraction(1)]) for i in range(1, 5)])
    assert out.blocks == bs.blocks
    assert out.origins == ((1,), (2,), (3,), (4,))


def test_block_combine_averages_and_differences():
    bs = BlockSequence.basis(6)
    halves = block_combine(bs, [((1, 2), [Fraction(1, 2)] * 2), ((3, 4), [Fraction(1, 2)] * 2)])
    assert halves.blocks[0] == vec((1, Fraction(1, 2)), (2, Fraction(1, 2)))
    diffs = block_combine(bs, [((2, 3), [Fraction(1, 2), Fraction(-1, 2)])])
    assert diffs.blocks[0] == vec((2, Fraction(1, 2)), (3, Fraction(-1, 2)))


def test_block_combine_composes_origins():
    bs = BlockSequence.basis(8)
    first = block_combine(bs, [((1, 2), [1, 1]), ((3, 4), [1, 1]), ((5, 6), [1, 1])])
    second = block_combine(first, [((1, 3), [Fraction(1, 2), Fraction(1, 2)])])
    # composing two blockings records the composite index set
    assert second.origins == ((1, 2, 5, 6),)
    direct = block_combine(bs, [((1, 2, 5, 6), [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])])
    assert second.blocks == direct.blocks


def test_block_combine_rejects_bad_groups():
    bs = BlockSequence.basis(4)
    with pytest.raises(ValueError):
        block_combine(bs, [((2, 1), [1, 1])])
    with pytest.raises(ValueError):
        block_combine(bs, [((1, 2), [1, 1]), ((2, 3), [1, 1])])
    with pytest.raises(ValueError):
        block_combine(bs, [((1,), [1, 1])])


def test_block_sequence_invariants():
    with pytest.raises(ValueError):
        BlockSequence((vec((1, 1), (3, 1)), vec((2, 1))))
    with pytest.raises(ValueError):
        BlockSequence((Vector(),))


def test_vector_algebra():
    x = vec((1, Fraction(1, 2)), (4, -2))
    y = vec((1, Fraction(1, 2)), (2, 1))
    assert (x + y) == vec((1, 1), (2, 1), (4, -2))
    assert (x - x).is_zero
    assert (x * 2)[4] == -4
    assert x.l1() == Fraction(5, 2)
    assert x.linf() == 2
    assert x.restrict(range(1, 3)) == vec((1, Fraction(1, 2)))
    assert x - y == vec((2, -1), (4, -2))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(vectors, rationals), max_size=4))
def test_combine_matches_vector_algebra(terms):
    sums = {}
    for x, a in terms:
        for c, v in x.entries:
            sums[c] = sums.get(c, 0) + Fraction(a) * v
    expected = Vector.from_dict(sums)
    got = combine([x for x, _ in terms], [a for _, a in terms])
    assert got == expected
    assert all(v != 0 for _, v in got.entries)


def test_combine_drops_exact_cancellations():
    x = vec((1, Fraction(1, 2)), (3, Fraction(2, 3)), (5, 1))
    y = vec((1, 1), (3, Fraction(4, 3)), (4, 7))
    assert combine([x, y], [2, Fraction(-1, 1)]) == vec((4, -7), (5, 2))
    assert combine([x, y, x], [1, 0, -1]).is_zero
    assert combine([x, x, x], [Fraction(1, 3), Fraction(2, 3), -1]).is_zero
