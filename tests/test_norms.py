"""Norm evaluators against brute-force oracles and golden values."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
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
    PartNode,
    SchlumprechtSpace,
    T,
    evaluate_partition,
    generate_W,
    interval_norm,
    norm,
    norm_j,
)
from schreier.ordinals import OMEGA, finite
from schreier.vectors import SumNode, Unit, Vector, evaluate, validate_functional


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
@given(wide_vectors())
def test_kernel_tsirelson_matches_oracle(x):
    r = norm(T, x)
    assert r.value == tsirelson_oracle(x)
    assert r.achieved(x)


@settings(max_examples=40, deadline=None)
@given(wide_vectors(max_support=6), st.integers(1, 3))
def test_kernel_interval_norms_match_brute_force(x, n):
    expected = tsirelson_interval_oracle(x, n)
    r = interval_norm(T, x, n)
    assert r.value == expected and r.achieved(x)
    if n >= 2:
        r = norm_j(T, x, n)
        assert r.value == expected / n and r.achieved(x)


@settings(max_examples=60, deadline=None)
@given(wide_vectors())
def test_kernel_schlumprecht_matches_oracle(x):
    r = norm(SchlumprechtSpace(), x)
    assert not r.exact
    assert abs(r.value - schlumprecht_oracle(x)) <= r.tolerance


@settings(max_examples=60, deadline=None)
@given(wide_vectors(), st.data())
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


def test_interval_norms_carry_chunk_convergence():
    capped = MixedSchreierSpace(finite(1), depth_cap=1)
    x = vec((2, 1), (3, 1), (4, 1), (5, 1))
    for r in (interval_norm(capped, x, 2), norm_j(capped, x, 2)):
        assert not r.exact and not r.converged
    # the best cover takes the four singletons, which converge; the
    # unconverged longer chunks lost, but their values are lower bounds
    r = interval_norm(capped, x, 4)
    assert r.value == 4 and all(isinstance(c, Unit) for c in r.witness.children)
    assert all(norm(capped, Vector.basis(c)).converged for c in x.support())
    assert not r.exact and not r.converged


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


def test_mixed_norm_depth_cap_gives_lower_bound():
    capped = MixedSchreierSpace(finite(1), depth_cap=1)
    full = MixedSchreierSpace(finite(1))
    x = vec((2, 1), (3, 1), (4, 1), (5, 1))
    r = norm(capped, x)
    assert not r.converged and not r.exact
    assert x.linf() <= r.value <= norm(full, x).value


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
