"""Norm evaluators against brute-force oracles and golden values."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    admissible_sum_oracle,
    generate_W,
    interval_cover_oracle,
    schlumprecht_oracle,
    tsirelson_interval_oracle,
    tsirelson_oracle,
    wmax_certificate,
)
from schreier import norms
from schreier.families import S, member
from schreier.norms import (
    C0,
    L1,
    LpSpace,
    MixedSchreierSpace,
    NormResult,
    PartLeaf,
    PartNode,
    SchlumprechtSpace,
    T,
    evaluate_partition,
    interval_norm,
    norm,
    norm_j,
)
from schreier.ordinals import OMEGA, finite, omega_power
from schreier.vectors import Average, SumNode, Unit, Vector, evaluate, validate_functional


def vec(*pairs):
    return Vector.from_dict({c: Fraction(v) for c, v in pairs})


def random_vector(rng, max_support, coord_range=14, signed=True):
    m = rng.randint(1, max_support)
    coords = sorted(rng.sample(range(1, coord_range), m))
    lo = -4 if signed else 1
    data = {c: Fraction(rng.randint(lo, 4), rng.randint(1, 3)) for c in coords}
    return Vector.from_dict(data)


# ---------------------------------------------------------------------------
# Tsirelson
# ---------------------------------------------------------------------------


def test_tsirelson_golden_values():
    assert norm(T, Vector.basis(5)).value == 1
    assert norm(T, vec((3, 1), (4, 1), (5, 1))).value == Fraction(3, 2)
    assert norm(T, vec((1, 1), (2, 1))).value == 1


def test_tsirelson_matches_oracle():
    rng = random.Random(42)
    for _ in range(60):
        x = random_vector(rng, 7)
        if x.is_zero:
            continue
        r = norm(T, x)
        assert r.value == tsirelson_oracle(x)
        assert evaluate_partition(r.witness, x) == r.value


def test_tsirelson_unconditional():
    rng = random.Random(43)
    for _ in range(40):
        x = random_vector(rng, 6)
        if x.is_zero:
            continue
        absolute = Vector(tuple((c, abs(v)) for c, v in x.entries))
        assert norm(T, x).value == norm(T, absolute).value


def test_norm_result_invariants():
    rng = random.Random(44)
    for space in (T, L1, C0):
        for _ in range(25):
            x = random_vector(rng, 6)
            if x.is_zero:
                continue
            r = norm(space, x)
            assert r.value >= x.linf()
            assert r.achieved(x)


# ---------------------------------------------------------------------------
# properties of the chunk-cover kernel
# ---------------------------------------------------------------------------


# denominators whose lcm is well above their maximum, so a T session that
# scales by anything less than the lcm rounds some coordinate
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 9)
coefficients = st.sampled_from(DENOMINATORS).flatmap(
    lambda d: st.integers(-4 * d, 4 * d).filter(bool).map(lambda a: Fraction(a, d)))


@st.composite
def wide_vectors(draw, max_support=7):
    """Support size m <= max_support with every coordinate >= m, so the
    Tsirelson admissibility bound never cuts the chunk count below the
    number of positions and every chunk count is reached."""
    m = draw(st.integers(1, max_support))
    coords = draw(st.lists(st.integers(m, 3 * m), min_size=m, max_size=m, unique=True))
    values = draw(st.lists(coefficients, min_size=m, max_size=m))
    return Vector.from_dict(dict(zip(sorted(coords), values)))


@st.composite
def shifted_vectors(draw, max_support=5):
    """Support size m with a least coordinate drawn both below and at or
    above m, so the T admissibility bound either caps the chunk count or
    leaves as many chunks as positions."""
    m = draw(st.integers(1, max_support))
    low = draw(st.integers(1, 2 * m))
    coords = [low] + draw(st.lists(st.integers(low + 1, low + 3 * m), min_size=m - 1, max_size=m - 1,
                                   unique=True))
    values = draw(st.lists(coefficients, min_size=m, max_size=m))
    return Vector.from_dict(dict(zip(sorted(coords), values)))


def halving_depth(w):
    if isinstance(w, PartNode):
        return 1 + max(halving_depth(c) for c in w.children)
    return 0


def test_tsirelson_nested_halvings():
    # (1/2)(x_3 + (1/2)(x_4 + (1/2)(x_5 + x_6 + x_7) + x_8 + x_9) + x_10):
    # three nested halvings on eight coordinates, the most a witness can
    # nest there, and the value needs all three
    x = vec((3, 5), (4, 3), (5, 1), (6, 1), (7, 1), (8, 3), (9, 1), (10, 7))
    r = norm(T, x)
    assert r.value == Fraction(65, 8) == tsirelson_oracle(x)
    assert halving_depth(r.witness) == 3 and r.achieved(x)
    r = interval_norm(T, x, 2)
    assert r.value == tsirelson_interval_oracle(x, 2) and r.achieved(x)
    assert norm_j(T, x, 2).value == r.value / 2
    # one halving over the denominators 2, 3 and 5, whose lcm is 30
    y = vec((3, Fraction(1, 2)), (4, Fraction(-1, 3)), (5, Fraction(1, 5)))
    r = norm(T, y)
    assert r.value == Fraction(31, 60) and r.achieved(y)


@settings(max_examples=60, deadline=None)
@given(st.one_of(wide_vectors(), shifted_vectors()))
def test_kernel_tsirelson_matches_oracle(x):
    r = norm(T, x)
    assert r.value == tsirelson_oracle(x)
    assert r.exact and r.achieved(x)
    if x.support()[0] >= len(x.entries):
        # every split may take singletons, so the norm is the classical
        # max(|x|_inf, |x|_1 / 2) (Casazza-Shura, LNM 1363)
        assert r.value == max(x.linf(), x.l1() / 2)


@settings(max_examples=40, deadline=None)
@given(wide_vectors(max_support=6), st.integers(1, 3))
def test_kernel_interval_norms_match_brute_force(x, n):
    expected = tsirelson_interval_oracle(x, n)
    r = interval_norm(T, x, n)
    assert r.value == expected and r.achieved(x)
    if n >= 2:
        r = norm_j(T, x, n)
        assert r.value == expected / n and r.achieved(x)


@pytest.mark.parametrize("space", [T, MixedSchreierSpace(finite(1))], ids=repr)
@settings(max_examples=40, deadline=None)
@given(x=shifted_vectors())
def test_interval_norms_around_the_support_size_match_cover_oracle(space, x):
    # n = |supp| is the first chunk count at which a cover is the l1 mass;
    # one chunk fewer must still run the cover program
    m = len(x.entries)
    for n in {m - 1, m, m + 1} - {0}:
        pairs = [(interval_norm(space, x, n), interval_cover_oracle(space, x, n))]
        if n >= 2:
            pairs.append((norm_j(space, x, n), interval_cover_oracle(space, x, n, scale=n)))
        for r, expected in pairs:
            assert r.value == expected.value
            assert r.witness == expected.witness
            assert r.exact and r.converged and r.achieved(x)
        if n >= m:
            assert interval_norm(space, x, n).value == x.l1()


@settings(max_examples=60, deadline=None)
@given(wide_vectors())
def test_kernel_schlumprecht_matches_oracle(x):
    r = norm(SchlumprechtSpace(), x)
    assert not r.exact
    assert abs(r.value - schlumprecht_oracle(x)) <= r.tolerance


@settings(max_examples=60, deadline=None)
@given(st.one_of(wide_vectors(), shifted_vectors()), st.data())
def test_kernel_tsirelson_monotone_and_unconditional(x, data):
    value = norm(T, x).value
    pos = x.support()
    kept = data.draw(st.lists(st.sampled_from(pos), min_size=1, unique=True))
    assert norm(T, x.restrict(kept)).value <= value
    signs = data.draw(st.lists(st.sampled_from((-1, 1)), min_size=len(pos), max_size=len(pos)))
    flipped = Vector.from_dict({c: s * v for (c, v), s in zip(x.entries, signs)})
    assert norm(T, flipped).value == value


small_vectors = st.dictionaries(st.integers(1, 9), coefficients, min_size=1, max_size=5).map(
    Vector.from_dict)


@settings(max_examples=60, deadline=None)
@given(small_vectors, small_vectors, st.integers(1, 3))
def test_kernel_tsirelson_triangle_inequality(x, y, n):
    assert norm(T, x + y).value <= norm(T, x).value + norm(T, y).value
    assert interval_norm(T, x + y, n).value <= interval_norm(T, x, n).value + interval_norm(T, y, n).value
    j = n + 1
    assert norm_j(T, x + y, j).value <= norm_j(T, x, j).value + norm_j(T, y, j).value


# five coordinates, so x, y and x + y all have support <= 5
window_vectors = st.dictionaries(st.integers(3, 7), coefficients, min_size=1, max_size=5).map(
    Vector.from_dict)


@settings(max_examples=15, deadline=None)
@given(window_vectors, window_vectors, st.integers(1, 3))
def test_mixed_norm_triangle_inequality(x, y, n):
    X = MixedSchreierSpace(finite(1))
    assert norm(X, x + y).value <= norm(X, x).value + norm(X, y).value
    assert interval_norm(X, x + y, n).value <= interval_norm(X, x, n).value + interval_norm(X, y, n).value
    j = n + 1
    assert norm_j(X, x + y, j).value <= norm_j(X, x, j).value + norm_j(X, y, j).value


# ---------------------------------------------------------------------------
# closed forms and Schlumprecht
# ---------------------------------------------------------------------------


def test_closed_forms():
    x = vec((2, Fraction(1, 2)), (5, -1), (9, Fraction(3, 4)))
    assert norm(L1, x).value == Fraction(9, 4)
    assert norm(C0, x).value == 1
    lp = norm(LpSpace(2.0), x)
    assert not lp.exact
    assert abs(lp.value - math.sqrt(0.25 + 1 + 0.5625)) < 1e-9


def test_c0_witness_is_the_first_largest_coordinate():
    x = vec((2, 1), (3, -2), (5, 2), (7, -2), (8, 1))
    r = norm(C0, x)
    assert r.value == 2 and r.witness == PartLeaf(3, -1)
    # the first cut that reaches 4 follows coordinate 3, and 5 comes
    # before 7 in the second chunk
    r = interval_norm(C0, x, 2)
    assert r.value == 4 and r.witness.children == (PartLeaf(3, -1), PartLeaf(5, 1))


def test_schlumprecht_pair():
    r = norm(SchlumprechtSpace(), vec((1, 1), (2, 1)))
    assert not r.exact
    assert abs(r.value - 2 / math.log2(3)) <= 1e-9


def test_schlumprecht_dominated_by_l1_and_dominates_sup():
    rng = random.Random(45)
    for _ in range(20):
        x = random_vector(rng, 5)
        if x.is_zero:
            continue
        v = norm(SchlumprechtSpace(), x).value
        assert float(x.linf()) - 1e-9 <= v <= float(x.l1()) + 1e-9


# ---------------------------------------------------------------------------
# weighted and interval norms
# ---------------------------------------------------------------------------


def test_norm_j_examples():
    X = MixedSchreierSpace(finite(1))
    assert norm_j(X, Vector.basis(2), 2).value == Fraction(1, 2)
    assert norm_j(X, vec((2, 1), (3, 1)), 2).value == 1


def test_norm_j_below_norm():
    X = MixedSchreierSpace(finite(1))
    rng = random.Random(46)
    for _ in range(15):
        x = random_vector(rng, 5, coord_range=10)
        if x.is_zero:
            continue
        for j in (2, 3):
            assert norm_j(X, x, j).value <= norm(X, x).value


def test_interval_norm_examples():
    assert interval_norm(T, vec((1, 1), (3, 1), (5, 1)), 3).value == 3
    assert interval_norm(T, Vector.basis(4), 2).value == 1
    x = vec((4, Fraction(1, 2)), (5, Fraction(1, 2)), (6, Fraction(1, 2)), (7, Fraction(1, 2)))
    assert interval_norm(T, x, 2).value == Fraction(5, 4)


def test_interval_norm_bounds_and_splits():
    rng = random.Random(47)
    for _ in range(25):
        x = random_vector(rng, 6)
        if x.is_zero:
            continue
        base = norm(T, x).value
        for n in (1, 2, 3):
            v = interval_norm(T, x, n).value
            assert base <= v <= n * base
        # split superadditivity over an interval cut
        pos = x.support()
        if len(pos) >= 2:
            cut = pos[len(pos) // 2]
            left = x.restrict(range(1, cut))
            right = x.restrict(range(cut, pos[-1] + 1))
            if not left.is_zero and not right.is_zero:
                whole = interval_norm(T, x, 3).value
                parts = interval_norm(T, left, 1).value + interval_norm(T, right, 2).value
                assert whole >= parts


def test_interval_norm_additive_on_l1():
    rng = random.Random(48)
    for _ in range(20):
        x = random_vector(rng, 6)
        if x.is_zero:
            continue
        for n in (2, 3, 4):
            assert interval_norm(L1, x, n).value == x.l1()


def test_interval_norms_carry_chunk_convergence(monkeypatch):
    monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", 8)
    X = MixedSchreierSpace(finite(1))
    x = vec((2, 1), (3, 1), (4, 1), (5, 1))
    r = interval_norm(X, x, 2)
    assert r.value == Fraction(9, 4)
    for r in (r, norm_j(X, x, 2)):
        assert not r.exact and not r.converged
    # four chunks over four positions: the cover is the l1 mass, read from
    # the prefix sums without evaluating any chunk, so no budgeted chunk
    # enters and the value is exact at any budget
    r = interval_norm(X, x, 4)
    assert r.value == 4 and all(isinstance(c, Unit) for c in r.witness.children)
    assert all(norm(X, Vector.basis(c)).converged for c in x.support())
    assert r.exact and r.converged and r.achieved(x)


def _node(weight, *children):
    return PartNode(Fraction(weight), children)


def test_ties_go_to_the_first_best_choice():
    # hand-checked vectors with tied coordinates, splits and piece systems:
    # a leaf beats a split of equal value, the whole chunk beats a split of
    # equal sum, and among equal splits or piece systems the first found wins
    X1 = MixedSchreierSpace(finite(1))
    x = vec((2, 1), (3, -1), (4, 1))
    assert norm(C0, x).witness == PartLeaf(2, 1)
    # {2} + {3, 4} ties {2, 3} + {4}; the c0 leaf of {3, 4} is coordinate 3
    assert interval_norm(C0, x, 2).witness == _node(1, PartLeaf(2, 1), PartLeaf(3, -1))
    x = vec((2, 1), (3, 1))
    assert interval_norm(L1, x, 2).witness == _node(1, _node(1, PartLeaf(2, 1), PartLeaf(3, 1)))
    assert norm(T, x).witness == PartLeaf(2, 1)  # (1/2)(1 + 1) only ties |x_2|
    assert norm(X1, x).witness == Unit(1, 2)
    x = vec((3, 1), (4, 1), (5, 1), (6, 1))
    # {3}{4}{5,6}, {3}{4,5}{6} and {3,4}{5}{6} all give 3/2; |{5,6}| = 1 is a leaf
    r = norm(T, x)
    assert r.value == Fraction(3, 2)
    assert r.witness == _node(Fraction(1, 2), PartLeaf(3, 1), PartLeaf(4, 1), PartLeaf(5, 1))
    # {3} + {4,5,6} ties {3,4,5} + {6} at 5/2
    r = interval_norm(T, x, 2)
    assert r.value == Fraction(5, 2)
    assert r.witness == _node(1, PartLeaf(3, 1),
                              _node(Fraction(1, 2), PartLeaf(4, 1), PartLeaf(5, 1), PartLeaf(6, 1)))
    x = vec((2, 1), (3, 1), (4, 1), (5, 1))
    # A_2 on {2} then A_3 on {3,4,5} ties A_2 on {2,3} then A_4 on {4,5}
    r = norm(X1, x)
    assert r.value == Fraction(3, 2)
    assert r.witness == SumNode((Average(2, (Unit(1, 2),)), Average(3, (Unit(1, 3), Unit(1, 4), Unit(1, 5)))))
    # {2}{3}{4,5} ties {2}{3,4}{5}; the X(1) norm of {4,5} is its first coordinate
    assert interval_norm(X1, x, 3).witness == _node(1, Unit(1, 2), Unit(1, 3), Unit(1, 4))


def test_interval_norms_carry_chunk_tolerance():
    x = vec((2, 1), (3, 1), (4, Fraction(1, 2)), (5, 1))
    r = interval_norm(LpSpace(2.0), x, 3)
    assert not r.exact and r.converged
    assert math.isclose(r.tolerance, 3 * norm(LpSpace(2.0), x).tolerance)
    r = norm_j(SchlumprechtSpace(1e-6), x, 3)
    assert math.isclose(r.tolerance, 1e-6)
    assert interval_norm(L1, x, 3).tolerance == 0


def test_interval_norms_achieved_on_mixed_space():
    X = MixedSchreierSpace(finite(1))
    x = vec((2, 1), (3, 1), (4, Fraction(1, 2)), (5, 1))
    r = interval_norm(X, x, 2)
    assert r.value == Fraction(17, 8) and r.exact and r.achieved(x)
    r = norm_j(X, x, 2)
    assert r.value == Fraction(17, 16) and r.exact and r.achieved(x)
    rng = random.Random(52)
    for _ in range(10):
        x = random_vector(rng, 5, coord_range=10)
        if x.is_zero:
            continue
        for n in (1, 2, 3):
            r = interval_norm(X, x, n)
            assert r.exact and r.converged and r.achieved(x)
        for j in (2, 3):
            r = norm_j(X, x, j)
            assert r.exact and r.converged and r.achieved(x)


# every space, with X(xi) at a successor and at a limit index
COVER_SPACES = [L1, C0, LpSpace(3.0), T, SchlumprechtSpace(),
                MixedSchreierSpace(finite(1)), MixedSchreierSpace(OMEGA)]
cover_vectors = st.dictionaries(st.integers(1, 12), coefficients, min_size=1, max_size=6).map(
    Vector.from_dict)


@pytest.mark.parametrize("space", COVER_SPACES, ids=repr)
@settings(max_examples=40, deadline=None)
@given(x=cover_vectors, n=st.integers(1, 4))
def test_interval_norms_match_cover_oracle(space, x, n):
    pairs = [(interval_norm(space, x, n), interval_cover_oracle(space, x, n))]
    if n >= 2:
        pairs.append((norm_j(space, x, n), interval_cover_oracle(space, x, n, scale=n)))
    for r, expected in pairs:
        assert r.value == expected.value
        assert (r.exact, r.converged, r.tolerance) == (expected.exact, expected.converged, expected.tolerance)
        assert (r.witness is None) == (expected.witness is None) == (not r.exact)
        assert r.achieved(x) and expected.achieved(x)


def test_budgeted_mixed_interval_norm_is_a_witnessed_lower_bound(monkeypatch):
    X = MixedSchreierSpace(finite(1))
    x = Vector.from_dict({c: Fraction(1) for c in range(4, 10)})
    full = {n: interval_norm(X, x, n) for n in (1, 2)}
    assert all(r.exact and r.converged for r in full.values())
    monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", 20)
    # norm_j(., 2) is interval_norm(., 2) over 2
    for n, scale, r in ((1, 1, interval_norm(X, x, 1)), (2, 1, interval_norm(X, x, 2)),
                        (2, 2, norm_j(X, x, 2))):
        assert not r.exact and not r.converged
        assert x.linf() <= r.value * scale < full[n].value
        assert evaluate_partition(r.witness, x) == r.value


@pytest.mark.parametrize("budget", [20, None], ids=["20", "derived"])
def test_budgeted_mixed_norms_stay_witnessed_lower_bounds(monkeypatch, budget):
    # a budget only stops the search early: every value stays at most the
    # full-budget one and is reached by its witness
    X = MixedSchreierSpace(finite(1))
    rng = random.Random(16)
    xs = [Vector.from_dict({c: Fraction(1) for c in range(4, 10)})]
    xs += [Vector.from_dict({c: Fraction(rng.randint(1, 6), rng.randint(1, 3))
                             for c in rng.sample(range(2, 16), m)}) for m in (5, 6, 7, 8)]
    cases = [(x, n) for x in xs for n in range(len(x.entries) + 2)]  # n = 0 stands for `norm`

    def run(budget):
        monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", budget)
        return [norm(X, x) if n == 0 else interval_norm(X, x, n) for x, n in cases]

    full = [norm(X, x) if n == 0 else interval_norm(X, x, n) for x, n in cases]
    if budget is None:
        # half the least power of two at which every case converges, so
        # that some search is still cut however cheap the search becomes
        budget = 1
        while not all(r.converged for r in run(budget)):
            budget *= 2
        budget //= 2
    results = run(budget)
    assert not all(r.converged for r in results)
    for (x, n), f, r in zip(cases, full, results):
        assert f.exact and r.value <= f.value
        assert evaluate_partition(r.witness, x) == r.value
        assert r.exact == r.converged and (r.value == f.value or not r.converged)
        if n >= len(x.entries):
            assert r.exact and r.value == x.l1()


ZERO_RESULTS = [
    (L1, NormResult(Fraction(0), exact=True)),
    (C0, NormResult(Fraction(0), exact=True)),
    (LpSpace(3.0), NormResult(Fraction(0), exact=True)),
    (T, NormResult(Fraction(0), exact=True)),
    (SchlumprechtSpace(1e-6), NormResult(Fraction(0), exact=True)),
    (MixedSchreierSpace(finite(1)), NormResult(Fraction(0), exact=True)),
]


@pytest.mark.parametrize("space, expected", ZERO_RESULTS, ids=repr)
def test_zero_vector_results(space, expected):
    # repr tells Fraction(0) from 0.0, which compare equal
    assert repr(norm(space, Vector())) == repr(expected)
    # the interval norms of the zero vector are an exact 0 in every space
    zero = repr(NormResult(Fraction(0), exact=True))
    for n in (1, 3):
        assert repr(interval_norm(space, Vector(), n)) == zero
    assert repr(norm_j(space, Vector(), 2)) == zero


# every space, and X(1) again under a tick budget that runs out
WITNESS_FREE_CASES = [(space, None) for space, _ in ZERO_RESULTS] + [(MixedSchreierSpace(finite(1)), 40)]


@pytest.mark.parametrize("space, budget", WITNESS_FREE_CASES, ids=repr)
def test_witness_free_evaluation_matches_public_norms(monkeypatch, space, budget):
    # `_norm` without a witness is what the analysis and construction
    # layers read: value, exactness, convergence and tolerance must be those
    # of `norm`, `interval_norm` and `norm_j`, floats bit for bit
    if budget is not None:
        monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", budget)
    rng = random.Random(21)
    vectors = [Vector()] + [
        Vector.from_dict({c: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
                          for c in sorted(rng.sample(range(1, 14), size))})
        for size in range(1, 8) for _ in range(3)]
    unconverged = 0
    for x in vectors:
        pairs = [(norm(space, x), norms._norm(space, x))]
        pairs += [(interval_norm(space, x, n), norms._norm(space, x, n)) for n in (1, 2, 3)]
        pairs += [(norm_j(space, x, j), norms._norm(space, x, j, j)) for j in (2, 3)]
        for public, free in pairs:
            fields = [(repr(r.value), r.exact, r.converged, repr(r.tolerance)) for r in (public, free)]
            assert fields[0] == fields[1], x
            assert free.witness is None and public.achieved(x)
            # an unconverged X(1) value keeps the witness of its lower bound
            floats = isinstance(space, (LpSpace, SchlumprechtSpace))
            assert (public.witness is not None) == (not floats and not x.is_zero)
            unconverged += not public.converged
    # the lowered budget runs out on some vectors, and only there
    assert (unconverged > 0) == (budget is not None)


# ---------------------------------------------------------------------------
# mixed Schreier space
# ---------------------------------------------------------------------------


def test_mixed_norm_examples():
    X = MixedSchreierSpace(finite(1))
    r = norm(X, vec((2, 1), (3, 1)))
    assert r.value == 1 and r.converged
    assert norm(X, vec((4, 1), (5, 1), (6, 1), (7, 1))).value == Fraction(4, 3)


def test_mixed_norm_certificates():
    X = MixedSchreierSpace(finite(1))
    rng = random.Random(49)
    for _ in range(12):
        x = random_vector(rng, 5, coord_range=11)
        if x.is_zero:
            continue
        ok, detail = wmax_certificate(X, x)
        assert ok, detail


def test_mixed_norm_witness_validates():
    X = MixedSchreierSpace(finite(1))
    rng = random.Random(50)
    for _ in range(20):
        x = random_vector(rng, 6, coord_range=12)
        if x.is_zero:
            continue
        r = norm(X, x)
        assert r.exact and evaluate(r.witness, x) == r.value
        if isinstance(r.witness, SumNode):
            assert validate_functional(r.witness, finite(1)).ok


def test_mixed_norm_small_budget_gives_lower_bound(monkeypatch):
    X = MixedSchreierSpace(finite(1))
    x = vec((2, 1), (3, 1), (4, 1), (5, 1))
    full = norm(X, x).value
    monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", 8)
    r = norm(X, x)
    assert not r.converged and not r.exact
    assert x.linf() <= r.value <= full


def test_mixed_norm_long_support_under_budget(monkeypatch):
    # the recursion only descends to shorter intervals, so its depth stays
    # below the support size; a budget bounds the work at any support
    monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", 200)
    rng = random.Random(52)
    x = Vector.from_dict({c: Fraction(rng.randint(1, 9), 9) for c in range(2, 122)})
    r = norm(MixedSchreierSpace(finite(1)), x)
    assert not r.exact and not r.converged
    assert x.linf() < r.value <= x.l1()
    assert evaluate(r.witness, x) == r.value


def test_mixed_norm_tick_budget_gives_lower_bound(monkeypatch):
    monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", 20)
    x = Vector.from_dict({c: Fraction(1) for c in range(4, 10)})
    r = norm(MixedSchreierSpace(finite(1)), x)
    assert not r.exact and not r.converged
    assert x.linf() <= r.value <= Fraction(5, 3)
    # the witness found before the budget ran out still norms to the value
    assert evaluate(r.witness, x) == r.value
    if isinstance(r.witness, SumNode):
        assert validate_functional(r.witness, finite(1)).ok


@pytest.mark.parametrize("budget", [20, norms.MIXED_TICK_BUDGET])
def test_mixed_witness_rebuild_is_pure(monkeypatch, budget):
    # the witness is rebuilt from the recorded choices: it evaluates no
    # interval anew, so it ticks no budget and leaves every memo as it was
    monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", budget)
    x = Vector.from_dict({c: Fraction(1) for c in range(4, 10)})
    session = norms._session(MixedSchreierSpace(finite(1)), x)
    value = session.value(0, 5)
    state = (len(session.norm_memo), len(session.cover_memo), session.budget, session.converged)
    assert session.converged == (budget > 20)
    witness = session.witness(0, 5)
    assert (len(session.norm_memo), len(session.cover_memo), session.budget, session.converged) == state
    assert evaluate(witness, x) == value == norm(MixedSchreierSpace(finite(1)), x).value


@pytest.mark.parametrize("fam", [S(2), S(OMEGA), S(omega_power(finite(2)))], ids=repr)
def test_admissible_sum_matches_unpruned_search(fam):
    # the pruned search returns the value and the first best piece system
    # of the unpruned one; a bound that divides the mass left by more than
    # the size a frame offers loses best systems
    rng = random.Random(19)
    for _ in range(40):
        pos = sorted(rng.sample(range(1, 41), rng.randint(1, 7)))
        masses = [Fraction(rng.randint(1, 6), rng.randint(1, 2)) for _ in pos]
        prefix = list(itertools.accumulate(masses, initial=Fraction(0)))

        def piece(a, b, size):
            size = max(size, b - a + 1)
            return (prefix[b + 1] - prefix[a]) / size, size

        last, start = len(pos) - 1, rng.randrange(len(pos))
        for (i, j), floor in itertools.product([(0, last), (start, last)], range(2, 6)):
            for best in (Fraction(0), max(masses[i : j + 1])):
                got = norms._admissible_sum(fam, pos, prefix, i, j, floor, piece, best)
                assert got == admissible_sum_oracle(fam, pos, i, j, floor, piece, best)


def test_mixed_norm_monotone_bounds():
    X = MixedSchreierSpace(finite(1))
    rng = random.Random(51)
    for _ in range(15):
        x = random_vector(rng, 6, coord_range=12)
        if x.is_zero:
            continue
        v = norm(X, x).value
        assert x.linf() <= v <= x.l1()


# ---------------------------------------------------------------------------
# norming-set generation
# ---------------------------------------------------------------------------


def test_generate_w_depth_zero():
    g = generate_W(finite(1), [2, 5, 7], 0)
    units = {f for f in g.functionals}
    assert len(units) == 6
    assert all(getattr(f, "coord", None) in (2, 5, 7) for f in units)


def test_generate_w_valid_and_achieves_norm():
    g = generate_W(finite(1), [2, 3], 2)
    assert not g.truncated
    for f in g.functionals:
        assert validate_functional(f, finite(1)).ok
    x = vec((2, 1), (3, 1))
    assert max(evaluate(f, x) for f in g.functionals) == 1


def test_generate_w_matches_norm_small_windows():
    X = MixedSchreierSpace(finite(1))
    rng = random.Random(52)
    for _ in range(3):
        coords = sorted(rng.sample(range(1, 8), 3))
        x = Vector.from_dict({c: Fraction(rng.randint(-3, 3)) for c in coords})
        if x.is_zero:
            continue
        g = generate_W(finite(1), coords, 3, budget=300_000)
        assert not g.truncated
        assert max(evaluate(f, x) for f in g.functionals) == norm(X, x).value


def test_generate_w_budget_truncates():
    g = generate_W(finite(1), list(range(1, 8)), 3, budget=500)
    assert g.truncated
