"""Spreading-model estimators, distortion search, experiments, diagnostics."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from oracles import alpha_oracle
from schreier import analysis, norms
from schreier.analysis import (
    IntervalNormSpec,
    alpha_index_diagnostic,
    distortion_witness,
    l1_lower_candidates,
    l1_lower_constant,
    ratio_bound_check,
    second_norm_value,
    spreading_profile,
    standard_corpus,
    interval_distortion_experiment,
    predicted_interval_ratio,
)
from schreier.families import A, S, enumerate_maximal, member, verify_bracket_inclusion
from schreier.norms import C0, L1, T, LpSpace, MixedSchreierSpace, SchlumprechtSpace, _norm, norm
from schreier.ordinals import OMEGA, finite
from schreier.reports import BudgetExhausted
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


@pytest.mark.parametrize("horizon", [0, -2])
def test_profile_rejects_horizon_below_one(horizon):
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        spreading_profile(T, BlockSequence.basis(4), S(1), horizon)


# the spaces of the toolkit, by whether their norms are exact rationals
EXACT_SPACES = [T, L1, C0, MixedSchreierSpace(finite(1))]
FLOAT_SPACES = [SchlumprechtSpace(1e-6), LpSpace(3.0)]


def _seeded_blocks(seed, count=7):
    """Blocks of widths 1-3 with signed rational entries."""
    rng = random.Random(seed)
    blocks, start = [], 1
    for _ in range(count):
        width = rng.randint(1, 3)
        blocks.append(Vector.from_dict(
            {start + i: Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 3))
             for i in range(width)}))
        start += width
    return BlockSequence(tuple(blocks))


def _scale_free(x):
    """x up to a positive scale: its entries over the size of its first."""
    first = abs(x.entries[0][1])
    return tuple((c, v / first) for c, v in x.entries)


def _direct(space, bs, E, coeffs):
    return norm(space, combine([bs.blocks[i - 1] for i in E], coeffs)).value


@pytest.mark.parametrize("space", EXACT_SPACES + FLOAT_SPACES, ids=repr)
@pytest.mark.parametrize("fam", [S(1), A(3)], ids=repr)
def test_shared_all_ones_values_match_direct_norms(monkeypatch, space, fam):
    # inside `spreading_profile` a uniform candidate on E reads its value
    # as 1/|E| times the exact norm of the all-ones sum over E: each value
    # must equal the norm of the uniform combination itself, bit for bit
    # in the float spaces, where nothing may be read that way
    seen = []
    uniform_candidates = analysis.l1_lower_candidates

    def recording(space, bs, fam, min_first, limit, *, ones=None):
        known = set(ones or ())
        for E, coeffs, value in uniform_candidates(space, bs, fam, min_first, limit, ones=ones):
            seen.append((E, coeffs, value, E in known))
            yield E, coeffs, value

    monkeypatch.setattr(analysis, "l1_lower_candidates", recording)
    for seed in range(3):
        bs = _seeded_blocks(seed)
        seen.clear()
        est = spreading_profile(space, bs, fam, 6)
        inside = list(seen)
        assert inside
        for E, coeffs, value, known in inside:
            assert coeffs == tuple(Fraction(1, len(E)) for _ in E)
            assert repr(value) == repr(_direct(space, bs, E, coeffs)), (seed, E)
        # in an exact space most candidates are read; in a float space none
        read = sum(known for *_, known in inside)
        assert read > 0 if space in EXACT_SPACES else read == 0
        # the public generator gives the same candidates
        public = list(l1_lower_candidates(space, bs, fam, 1, 6))
        assert [(E, c, repr(v)) for E, c, v, _ in inside] == [(E, c, repr(v)) for E, c, v in public]
        # c0_upper is the largest direct all-ones norm over the maximal sets
        maximal = [E for first in range(1, 7) for E in enumerate_maximal(fam, first, 6).sets]
        direct = [_direct(space, bs, E, [1] * len(E)) for E in maximal]
        assert repr(est.c0_upper) == repr(max(direct))
        E, ones = est.witnesses["c0_upper"]
        assert repr(_direct(space, bs, E, ones)) == repr(est.c0_upper)
        assert est.reverify(space, bs)
        value, witness = l1_lower_constant(space, bs, fam, 6)
        assert (repr(value), witness) == (repr(est.l1_lower), est.witnesses["l1_lower"])


@pytest.mark.parametrize("space", EXACT_SPACES, ids=repr)
@pytest.mark.parametrize("fam", [S(1), A(2), A(3)], ids=repr)
def test_profile_norms_no_vector_twice(monkeypatch, space, fam):
    # within one call, no vector is normed twice, not even at another
    # positive scale: the all-ones sums, the uniform candidates and the
    # descent's combinations share their values; `_norm` is the evaluation
    # every analysis search calls
    normed = []

    def counting(space, x):
        result = _norm(space, x)
        normed.append(_scale_free(x))
        assert result.exact
        return result

    monkeypatch.setattr(analysis, "_norm", counting)
    for seed in range(4):
        bs = _seeded_blocks(seed)
        for call in (lambda: spreading_profile(space, bs, fam, 6),
                     lambda: l1_lower_constant(space, bs, fam, 6)):
            normed.clear()
            call()
            assert len(normed) == len(set(normed)), seed


@pytest.mark.parametrize("seed, E", [(12, (2, 3, 4, 5)), (35, (1, 2, 4, 5)), (53, (2, 3, 4, 5)),
                                     (60, (2, 3, 4, 5))])
def test_descent_reads_equal_coefficients_as_scaled_all_ones(monkeypatch, seed, E):
    # these descents end on two equal coefficients, c times the all-ones
    # sum over two blocks: read from the all-ones norms, every step must be
    # the one that evaluating every combination takes
    bs = _seeded_blocks(seed, 5)
    vecs = [bs.blocks[i - 1] for i in E]
    ones = {sub: _direct(T, bs, sub, [1] * len(sub))
            for k in range(1, len(E) + 1) for sub in itertools.combinations(E, k)}
    start = [Fraction(1, len(E))] * len(E)
    value = _direct(T, bs, E, start)
    direct = analysis._descend_l1(T, E, vecs, start, value, {})
    calls = []
    monkeypatch.setattr(analysis, "_norm", lambda space, x: calls.append(x) or _norm(space, x))
    assert analysis._descend_l1(T, E, vecs, start, value, ones) == direct
    nonzero = [c for c in direct[1] if c]
    assert nonzero == [Fraction(1, 2)] * 2 and calls


def _plain_descent(space, vecs, start, value):
    """The l1 descent that evaluates every step it tries: no tuple skipped
    as seen, no all-ones read and no block bound."""
    coeffs = list(start)
    for _ in range(analysis.L1_DESCENT_ROUNDS):
        improved = False
        for step in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
            for i, j in itertools.permutations(range(len(coeffs)), 2):
                if coeffs[i] < step:
                    continue
                cand = list(coeffs)
                cand[i] -= step
                cand[j] += step
                v = norm(space, combine(vecs, cand)).value
                if v < value:
                    coeffs, value, improved = cand, v, True
        if not improved:
            break
    return value, coeffs


def _descents(space, bs, fam):
    """The exact all-ones norms `spreading_profile` keeps at horizon 6, and
    a uniform-start descent on every maximal set of two or more indices."""
    sets = [E for first in range(1, 7) for E in enumerate_maximal(fam, first, 6).sets]
    ones = {}
    for E in [(i,) for i in range(1, 7)] + sets:
        r = norm(space, combine([bs.blocks[i - 1] for i in E], [1] * len(E)))
        if r.exact:
            ones[E] = r.value
    for E in sets:
        if len(E) > 1:
            vecs = [bs.blocks[i - 1] for i in E]
            start = [Fraction(1, len(E))] * len(E)
            yield E, vecs, start, norm(space, combine(vecs, start)).value, ones


@pytest.mark.parametrize("space", [T, L1, C0], ids=repr)
@pytest.mark.parametrize("fam", [S(1), A(2), A(3)], ids=repr)
def test_descent_block_bound_matches_unskipped_descent(space, fam):
    # a step whose block bound max_b c_b |b| reaches the best is skipped
    # unevaluated: every descent must end where evaluating every step ends
    for seed in range(3):
        for E, vecs, start, value, ones in _descents(space, _seeded_blocks(seed), fam):
            got = analysis._descend_l1(space, E, vecs, start, value, ones)
            assert got == _plain_descent(space, vecs, start, value), (seed, E)


# (space, family, seed, index set) and the steps the descent evaluates,
# with the block bound and without it (no singleton in `ones`)
DESCENT_COUNTS = [
    (T, A(3), 0, (1, 2, 3), (6, 22)),
    (T, S(1), 1, (3, 4, 5), (11, 18)),
    (L1, A(2), 2, (1, 2), (6, 8)),
    (C0, A(3), 1, (2, 3, 4), (2, 20)),
]


@pytest.mark.parametrize("space, fam, seed, E, counts", DESCENT_COUNTS, ids=repr)
def test_descent_block_bound_evaluation_counts(monkeypatch, space, fam, seed, E, counts):
    [(_, vecs, start, value, ones)] = [d for d in _descents(space, _seeded_blocks(seed), fam) if d[0] == E]
    calls, got = [], []
    monkeypatch.setattr(analysis, "_norm", lambda space, x: calls.append(x) or _norm(space, x))
    for known in (ones, {F: v for F, v in ones.items() if len(F) > 1}):
        calls.clear()
        got.append(analysis._descend_l1(space, E, vecs, start, value, known))
        got.append(len(calls))
    assert got[0] == got[2] and (got[1], got[3]) == counts


def _wide_blocks(seed):
    """Six blocks of widths 1-5 with positive entries: X(1) block norms
    there exceed the sup norm, so the block bound can exceed a combination
    value whose tick budget ran out."""
    rng = random.Random(seed)
    blocks, start = [], 1
    for _ in range(6):
        width = rng.randint(1, 5)
        blocks.append(Vector.from_dict({start + i: Fraction(rng.randint(1, 4), rng.randint(1, 2))
                                        for i in range(width)}))
        start += width
    return BlockSequence(tuple(blocks))


@pytest.mark.parametrize("fam, seed, budget", [(A(2), 2, 16), (A(3), 2, 16)], ids=repr)
def test_descent_evaluates_every_step_in_budgeted_mixed_space(monkeypatch, fam, seed, budget):
    # an X(1) value whose budget ran out is only a lower bound, which may
    # fall below the block bound of exact block norms: the descent skips
    # nothing there and takes the steps that evaluating every one takes
    monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", budget)
    X1 = MixedSchreierSpace(finite(1))
    unconverged = 0
    for E, vecs, start, value, ones in _descents(X1, _wide_blocks(seed), fam):
        got = analysis._descend_l1(X1, E, vecs, start, value, ones)
        assert got == _plain_descent(X1, vecs, start, value), E
        unconverged += not norm(X1, combine(vecs, got[1])).converged
    assert unconverged


# ---------------------------------------------------------------------------
# distortion search
# ---------------------------------------------------------------------------


def test_distortion_tsirelson_interval2():
    rep = distortion_witness(T, IntervalNormSpec(2), S(1), BlockSequence.basis(24), Fraction(6, 5))
    assert rep.found is not None
    assert rep.found.ratio >= Fraction(5, 4)
    assert rep.found.reverify(T, IntervalNormSpec(2), S(1))
    assert member(rep.found.index_set, S(1)).member


# (space, second norm, family, block sequence, t) and the parent search's
# (candidates_tried, witness found, best ratio, best pair)
DISTORTION_CASES = [
    ((T, IntervalNormSpec(2), S(1), BlockSequence.basis(24), Fraction(6, 5)),
     (64, True, Fraction(2), ("avg[2]", "block[2]"))),
    ((T, IntervalNormSpec(3), S(1), BlockSequence.basis(24), Fraction(100)),
     (81, False, Fraction(2), ("avg[2]", "block[2]"))),
    ((T, IntervalNormSpec(2), A(3), _seeded_blocks(5, 10), Fraction(100)),
     (90, False, Fraction(7, 4), ("block[1]", "block[3]"))),
    ((T, L1, S(1), _seeded_blocks(6, 10), Fraction(100)),
     (55, False, Fraction(2), ("block[3]", "block[4]"))),
    ((T, C0, S(2), BlockSequence.basis(16), Fraction(3, 2)),
     (11, True, Fraction(2), ("block[2]", "avg[4]"))),
    ((MixedSchreierSpace(finite(1)), IntervalNormSpec(2), S(1), _seeded_blocks(7, 10), Fraction(100)),
     (55, False, Fraction(2), ("block[8]", "block[2]"))),
    ((L1, IntervalNormSpec(3), S(1), _seeded_blocks(8, 10), Fraction(101, 100)),
     (71, False, Fraction(1), ("block[1]", "block[1]"))),
]


DISTORTION_IDS = ["T-int2-found", "T-int3", "T-int2-A3", "T-l1", "T-c0-found", "X1-int2", "l1-int3"]


@pytest.mark.parametrize("args, expected", DISTORTION_CASES, ids=DISTORTION_IDS)
def test_distortion_takes_each_second_norm_once(monkeypatch, args, expected):
    # every candidate's second norm is evaluated at most once, and only for
    # candidates in some pair the search reaches; the search is unchanged
    candidates, calls = [], []
    candidate_vectors = analysis._candidate_vectors

    def listing(space, bs):
        candidates.extend(candidate_vectors(space, bs))
        return candidates

    def counting(space, spec, x):
        calls.append(x)
        return second_norm_value(space, spec, x)

    monkeypatch.setattr(analysis, "_candidate_vectors", listing)
    monkeypatch.setattr(analysis, "second_norm_value", counting)
    rep = distortion_witness(*args)
    assert (rep.candidates_tried, rep.found is not None, rep.best_ratio, rep.best_pair) == expected
    ids = [id(x) for x in calls]
    assert len(ids) == len(set(ids)) and set(ids) <= {id(v) for _, v, _ in candidates}
    # in every case some candidate meets no member pair before the search
    # stops, and its second norm is never needed
    assert len(ids) < len(candidates)
    if rep.found is not None:
        space, spec, fam = args[0], args[1], args[2]
        assert rep.found.reverify(space, spec, fam)


@pytest.mark.parametrize("args, expected", DISTORTION_CASES, ids=DISTORTION_IDS)
def test_distortion_norms_no_window_twice(monkeypatch, args, expected):
    # the averages of the rapidly increasing sums read the windows that the
    # `avg[k]` scans already normed: within one search no vector is normed
    # twice in the same norm, not even at another positive scale
    normed = []

    def counting(space, x, *rest):
        normed.append((space, rest, _scale_free(x)))
        return _norm(space, x, *rest)

    monkeypatch.setattr(analysis, "_norm", counting)
    monkeypatch.setattr(norms, "_norm", counting)
    rep = distortion_witness(*args)
    assert (rep.candidates_tried, rep.found is not None, rep.best_ratio, rep.best_pair) == expected
    assert normed and len(normed) == len(set(normed))


@pytest.mark.parametrize("space", [LpSpace(2.0), SchlumprechtSpace()], ids=repr)
def test_distortion_rejects_a_first_norm_that_is_not_exact(space):
    # no block, average or sum of a float norm can be normalised exactly:
    # the search refuses the space, where a search that tried no pair
    # would read as one that found no distortion
    with pytest.raises(ValueError, match="not exact"):
        distortion_witness(space, IntervalNormSpec(2), S(1), BlockSequence.basis(24), Fraction(6, 5))


@pytest.mark.parametrize("budget", [1, 8, 20])
def test_distortion_rejects_a_second_norm_whose_budget_ran_out(monkeypatch, budget):
    # an X(1) value whose budget ran out is a lower bound, and a ratio of
    # lower bounds is no exact ratio: at these budgets it read as 4,
    # 144144/39653 and 396/113
    monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", budget)
    with pytest.raises(BudgetExhausted, match="lower bound"):
        distortion_witness(T, MixedSchreierSpace(finite(1)), S(1), BlockSequence.basis(24), Fraction(100))


@pytest.mark.parametrize("second", [LpSpace(2.0), SchlumprechtSpace()], ids=repr)
def test_distortion_rejects_a_second_norm_that_is_not_exact(second):
    # a ratio of floats would be reported as an exact ratio
    with pytest.raises(ValueError, match="not exact"):
        distortion_witness(T, second, S(1), BlockSequence.basis(24), Fraction(11, 10))


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


@pytest.mark.parametrize("samples", [0, -3])
def test_ratio_chain_rejects_fewer_than_one_sample(samples):
    # a check of no samples cannot fail, so it is refused, not reported ok
    with pytest.raises(ValueError, match="at least one sample"):
        ratio_bound_check(T, IntervalNormSpec(2), BlockSequence.basis(12), S(1),
                          2, 2, 1, 2, samples=samples)


@pytest.mark.parametrize("space", [LpSpace(2.0), SchlumprechtSpace()], ids=repr)
def test_ratio_chain_rejects_a_norm_that_is_not_exact(space):
    with pytest.raises(ValueError, match="not exact"):
        ratio_bound_check(space, IntervalNormSpec(2), BlockSequence.basis(12), S(1),
                          1, 1, 1, 1, samples=3)


@pytest.mark.parametrize("second", [LpSpace(2.0), SchlumprechtSpace()], ids=repr)
def test_ratio_chain_rejects_a_second_norm_that_is_not_exact(second):
    # a float second norm would pass as a Fraction of its float
    with pytest.raises(ValueError, match="not exact"):
        ratio_bound_check(T, second, BlockSequence.basis(12), S(1), 2, 2, 1, 2, samples=3)


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
