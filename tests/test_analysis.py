"""Spreading-model estimators, distortion search, experiments, diagnostics."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from oracles import alpha_oracle
from schreier.analysis import (
    IntervalNormSpec,
    alpha_index_diagnostic,
    distortion_witness,
    l1_lower_constant,
    ratio_bound_check,
    second_norm_value,
    spreading_profile,
    standard_corpus,
    interval_distortion_experiment,
    predicted_interval_ratio,
)
from schreier.families import A, S, member, verify_bracket_inclusion
from schreier.norms import C0, L1, T, MixedSchreierSpace, SchlumprechtSpace, norm
from schreier.ordinals import OMEGA, finite
from schreier.vectors import BlockSequence, Vector, combine


def vec(*pairs):
    return Vector.from_dict({c: Fraction(v) for c, v in pairs})


# ---------------------------------------------------------------------------
# spreading profiles
# ---------------------------------------------------------------------------


def test_profile_tsirelson_golden():
    est = spreading_profile(T, BlockSequence.basis(12), S(1), 8)
    assert est.l1_lower == Fraction(1, 2)
    assert est.l1_upper == 1
    assert est.c0_lower == 1
    assert est.c0_upper == 2
    assert est.witnesses["c0_upper"][0] in ((4, 5, 6, 7), (5, 6, 7, 8))
    assert est.reverify(T, BlockSequence.basis(12))


def test_profile_l1_basis():
    est = spreading_profile(L1, BlockSequence.basis(12), S(1), 8)
    assert est.l1_lower == est.l1_upper == est.c0_lower == 1
    # the c0 upper constant is the largest admissible cardinality here
    assert est.c0_upper == 4


def test_profile_l1_upper_is_max_block_norm():
    rng = random.Random(31)
    blocks = []
    start = 1
    for _ in range(8):
        width = rng.randint(1, 2)
        blocks.append(
            Vector.from_dict(
                {start + i: Fraction(rng.randint(1, 5), 3) for i in range(width)}
            )
        )
        start += width
    bs = BlockSequence(tuple(blocks))
    est = spreading_profile(T, bs, S(1), 8)
    assert est.l1_upper == max(norm(T, b).value for b in blocks)
    assert est.c0_lower == min(norm(T, b).value for b in blocks)


def test_c0_upper_matches_dense_sign_grid():
    # convexity: the sup over the cube is attained at a sign pattern, and
    # 1-unconditionality collapses all sign patterns to all-ones; a dense
    # grid over the cube must agree within tolerance
    rng = random.Random(32)
    for _ in range(10):
        blocks = tuple(Vector.basis(i) for i in range(1, 7))
        bs = BlockSequence(blocks)
        est = spreading_profile(T, bs, A(3), 6)
        grid_best = 0.0
        steps = [-1, -0.5, 0.5, 1]
        for E in itertools.combinations(range(1, 7), 3):
            for signs in itertools.product(steps, repeat=3):
                if max(abs(s) for s in signs) != 1:
                    continue
                coeffs = [Fraction(s).limit_denominator(4) for s in signs]
                v = norm(T, combine([bs.blocks[i - 1] for i in E], coeffs)).value
                grid_best = max(grid_best, float(v))
        assert abs(float(est.c0_upper) - grid_best) < 1e-6


def test_l1_lower_restricted_min():
    value, (E, coeffs) = l1_lower_constant(T, BlockSequence.basis(16), S(1), 12, min_first=4)
    assert E[0] >= 4
    assert value <= 1


def test_profile_monotone_in_family():
    # S_1 inside S_2 (inclusion verified), so the lower l1 estimate can only
    # drop and the upper c0 constant can only grow on the larger family
    assert verify_bracket_inclusion(S(1), S(2), 10).ok
    bs = BlockSequence.basis(12)
    small = spreading_profile(T, bs, S(1), 8)
    large = spreading_profile(T, bs, S(2), 8)
    assert large.l1_lower <= small.l1_lower
    assert large.c0_upper >= small.c0_upper


def test_profile_rejects_horizon_past_blocks():
    with pytest.raises(ValueError, match="horizon"):
        spreading_profile(T, BlockSequence.basis(4), S(1), 8)


# ---------------------------------------------------------------------------
# distortion search
# ---------------------------------------------------------------------------


def test_distortion_tsirelson_interval2():
    rep = distortion_witness(T, IntervalNormSpec(2), S(1), BlockSequence.basis(24), Fraction(6, 5))
    assert rep.found is not None
    assert rep.found.ratio >= Fraction(5, 4)
    assert rep.found.reverify(T, IntervalNormSpec(2), S(1))
    assert member(rep.found.index_set, S(1)).member


def test_distortion_takes_no_float_candidates():
    # the Schlumprecht norm is a float: no block, average or sum of it can
    # be normalised exactly, so no pair is tried
    rep = distortion_witness(SchlumprechtSpace(), IntervalNormSpec(2), S(1), BlockSequence.basis(24), Fraction(6, 5))
    assert rep.candidates_tried == 0 and rep.found is None


def test_distortion_requires_t_above_one():
    with pytest.raises(ValueError):
        distortion_witness(T, IntervalNormSpec(2), S(1), BlockSequence.basis(8), Fraction(1))


def test_distortion_baselines_clear():
    for space in (L1, C0):
        for n in (2, 3, 4):
            for label, corpus in standard_corpus(space, n):
                rep = distortion_witness(
                    space, IntervalNormSpec(n), S(1), corpus, Fraction(101, 100),
                    corpus_label=label,
                )
                assert rep.found is None, (label, n, rep.found)
                assert rep.best_ratio <= 1


def test_distortion_trend_non_decreasing():
    best = []
    for n in (2, 3, 4):
        rep = distortion_witness(
            T, IntervalNormSpec(n), S(1), BlockSequence.basis(24), Fraction(100),
        )
        best.append(rep.best_ratio)
    assert best[0] <= best[1] <= best[2]


def test_interval_ratios_flat_on_l1():
    # unit vectors in l1 all have |x|_n = 1: interval norms are additive
    rng = random.Random(33)
    for _ in range(20):
        coords = sorted(rng.sample(range(1, 12), rng.randint(1, 5)))
        x = Vector.from_dict({c: Fraction(rng.randint(1, 5), 7) for c in coords})
        unit = x * (Fraction(1) / norm(L1, x).value)
        for n in (2, 3):
            assert second_norm_value(L1, IntervalNormSpec(n), unit) == 1


# ---------------------------------------------------------------------------
# interval-norm experiment
# ---------------------------------------------------------------------------


def test_formula_golden_value():
    assert predicted_interval_ratio(4, 100, Fraction(1, 100)) == Fraction(4000000, 1101708)


def test_experiment_small_scale():
    rep = interval_distortion_experiment(finite(1), 2, 6, Fraction(1, 10))
    assert rep.membership.ok
    assert not rep.budget_exhausted
    assert rep.achieved_ratio is not None
    assert rep.formula_value == predicted_interval_ratio(2, 6, Fraction(1, 10))
    # the two sides are normalised, so the interval norms bound the ratio
    assert 0 < rep.achieved_ratio <= 2 * 2  # |.|_n <= n * |.| on both sides


def test_experiment_requires_k_at_least_n():
    with pytest.raises(ValueError):
        interval_distortion_experiment(finite(1), 3, 2, Fraction(1, 10))


# ---------------------------------------------------------------------------
# ratio algebra
# ---------------------------------------------------------------------------


def test_ratio_chain_holds_with_measured_constants():
    bs = BlockSequence.basis(12)
    rep = ratio_bound_check(
        T, IntervalNormSpec(2), bs, S(1),
        a=Fraction(2), a0=Fraction(2), b=Fraction(1), b0=Fraction(2),
        samples=25,
    )
    assert rep.ok


def test_ratio_chain_detects_corrupted_constant():
    bs = BlockSequence.basis(12)
    rep = ratio_bound_check(
        T, IntervalNormSpec(2), bs, S(1),
        a=Fraction(11, 10), a0=Fraction(2), b=Fraction(1), b0=Fraction(2),
        samples=25,
    )
    assert not rep.ok
    assert any("first_lower" in v.get("checks", {}) and not v["checks"]["first_lower"]
               for v in rep.violations if "checks" in v)


def test_ratio_chain_detects_corrupted_second_upper_constant():
    bs = BlockSequence.basis(12)
    rep = ratio_bound_check(
        T, IntervalNormSpec(2), bs, S(1),
        a=Fraction(2), a0=Fraction(2), b=Fraction(1), b0=Fraction(1, 2),
        samples=25,
    )
    assert not rep.ok
    assert any(not v["checks"]["second_upper"] for v in rep.violations)


# ---------------------------------------------------------------------------
# finite average-index diagnostic
# ---------------------------------------------------------------------------


def test_alpha_diag_single_unit():
    d = alpha_index_diagnostic(BlockSequence.basis(12), 1, 4, 12)
    assert d == Fraction(1, 4)


def test_alpha_diag_l1_type_bounded_away():
    for horizon in (6, 9, 12):
        d = alpha_index_diagnostic(BlockSequence.basis(12), 1, 5, horizon)
        assert d >= Fraction(1, 5)


def test_alpha_diag_scc_below_lemma_bound():
    from schreier.constructions import scc_basic
    from schreier.families import IndexSequence

    scc = scc_basic(finite(2), finite(1), Fraction(1, 2), IndexSequence.arithmetic(2, 1))
    bs = BlockSequence((scc.vector,))
    d = alpha_index_diagnostic(bs, 1, 4, 1)
    assert d < Fraction(1, 4) + 6 * scc.eps
    # thin coefficients push the diagnostic below the floor itself
    assert d < Fraction(1, 4)


def test_alpha_diag_matches_brute_force():
    rng = random.Random(55)
    for _ in range(60):
        blocks, start = [], rng.randint(1, 4)
        for _ in range(rng.randint(1, 4)):
            width = rng.randint(1, 6)
            coords = sorted(rng.sample(range(start, start + width + 2), width))
            blocks.append(Vector.from_dict(
                {c: Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3)) for c in coords}))
            start = coords[-1] + 1 + rng.randint(0, 2)
        bs = BlockSequence(tuple(blocks))
        n, floor = rng.randint(1, 3), rng.randint(2, 5)
        xi = rng.choice((finite(1), finite(2), OMEGA))
        horizon = rng.randint(1, len(blocks))
        assert alpha_index_diagnostic(bs, n, floor, horizon, xi) == alpha_oracle(bs, n, floor, horizon, xi)
