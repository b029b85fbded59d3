"""Special convex combinations, averages, admissible functionals, blockings."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from schreier import constructions, norms, verifiers
from schreier.constructions import (
    BudgetExhausted,
    ImprovedBlocking,
    PropertyPn,
    build_l1_average,
    build_ris,
    build_schreier_functional,
    c0_to_l1_blocking,
    james_blocking_step,
    l1_to_c0_blocking,
    rational_sqrt_below,
    scc_basic,
    scc_on_blocks,
    two_norm_blocking,
)
from schreier.families import (
    IndexSequence,
    S,
    SchreierFamily,
    family_mass,
    member,
    verify_bracket_inclusion,
)
from schreier.norms import C0, L1, T, LpSpace, MixedSchreierSpace, SchlumprechtSpace, norm
from schreier.ordinals import OMEGA, ZERO, finite
from schreier.vectors import Average, BlockSequence, Unit, Vector, evaluate


def vec(*pairs):
    return Vector.from_dict({c: Fraction(v) for c, v in pairs})


# ---------------------------------------------------------------------------
# special convex combinations
# ---------------------------------------------------------------------------


def test_scc_basic_level_one():
    res = scc_basic(finite(1), finite(0), Fraction(1, 4), IndexSequence.arithmetic(5, 1))
    assert res.support_set == (5, 6, 7, 8, 9)
    assert all(v == Fraction(1, 5) for _, v in res.vector.entries)
    assert res.mass_certificate[0] == Fraction(1, 5)
    assert res.reverify()


def test_scc_basic_level_two():
    res = scc_basic(finite(2), finite(1), Fraction(1, 3), IndexSequence.arithmetic(2, 1))
    assert res.reverify()
    assert res.mass_certificate[0] < Fraction(1, 3)
    assert member(res.support_set, S(2)).member


def test_scc_limit_level():
    res = scc_basic(OMEGA, finite(0), Fraction(1, 3), IndexSequence.arithmetic(2, 1))
    assert res.reverify()
    assert member(res.support_set, S(OMEGA)).member


def test_scc_rejects_equal_indices():
    with pytest.raises(ValueError):
        scc_basic(finite(1), finite(1), Fraction(1, 4), IndexSequence.arithmetic(2, 1))


def test_scc_budget_exhaustion_reports_best():
    # an epsilon no tail can reach within a tiny budget
    with pytest.raises(BudgetExhausted) as exc:
        scc_basic(finite(1), finite(0), Fraction(1, 100), IndexSequence.arithmetic(2, 1), budget=3)
    assert exc.value.best is not None
    assert exc.value.best.mass_certificate[0] >= Fraction(1, 100)


def _dominance_patterns_spent():
    rep = verify_bracket_inclusion(S(1), S(2), 20)
    assert not rep.ok and rep.budget_exhausted
    assert rep.method == "dominance" and rep.certified_horizon is None
    return rep.detail


def _average_leaves_spent():
    # every restart needs more leaves than the budget allows
    with pytest.raises(BudgetExhausted) as exc:
        scc_basic(finite(2), finite(1), Fraction(1, 3), IndexSequence.arithmetic(2, 1), budget=3)
    assert exc.value.best is None
    return str(exc.value)


@pytest.mark.parametrize("module, budget, spend, message", [
    (verifiers, "BRACKET_PATTERN_BUDGET", _dominance_patterns_spent, "more than 1 minima patterns"),
    (constructions, "MAX_REPEATED_AVERAGE_LEAVES", _average_leaves_spent,
     "no (2, 1, 1/3) combination certified within budget (best mass n/a)"),
], ids=["bracket-patterns", "average-leaves"])
def test_spent_budgets_end_the_search(monkeypatch, module, budget, spend, message):
    monkeypatch.setattr(module, budget, 1)
    assert spend() == message


def test_scc_on_blocks_reduces_to_basic():
    bs = BlockSequence(tuple(Vector.basis(i) for i in range(5, 12)))
    out, cert = scc_on_blocks(bs, finite(1), finite(0), Fraction(1, 4))
    base = scc_basic(finite(1), finite(0), Fraction(1, 4), IndexSequence.explicit(range(5, 12)))
    assert out == base.vector
    assert cert.reverify()


def test_scc_on_blocks_support_containment():
    blocks = tuple(vec((2 * i, 1), (2 * i + 1, Fraction(1, 2))) for i in range(2, 12))
    bs = BlockSequence(blocks)
    out, cert = scc_on_blocks(bs, finite(1), finite(0), Fraction(1, 3))
    allowed = set()
    for b in blocks:
        allowed.update(b.support())
    assert set(out.support()) <= allowed


# ---------------------------------------------------------------------------
# l1 averages and rapidly increasing sequences
# ---------------------------------------------------------------------------


def test_l1_average_in_tsirelson():
    bs = BlockSequence.basis(20)
    out, info = build_l1_average(T, 3, bs, Fraction(0), start=3)
    assert info["indices"] == (3, 4, 5)
    assert info["norm_before"] == Fraction(1, 2)
    assert norm(T, out).value == 1


def test_l1_average_quality_one_in_l1():
    bs = BlockSequence.basis(10)
    out, info = build_l1_average(L1, 4, bs, Fraction(1))
    assert info["norm_before"] == 1
    assert norm(L1, out).value == 1


@pytest.mark.parametrize("space", [LpSpace(2.0), SchlumprechtSpace()], ids=["lp", "schlumprecht"])
def test_float_norms_give_no_exact_scale(space):
    bs = BlockSequence.basis(30)
    with pytest.raises(ValueError, match="not exact"):
        build_l1_average(space, 2, bs, Fraction(0))
    with pytest.raises(ValueError, match="not exact"):
        l1_to_c0_blocking(space, bs, finite(1), Fraction(1, 2), count=1)


def test_budget_limited_norms_give_no_exact_scale(monkeypatch):
    # an X(1) value whose budget ran out is only a lower bound: a budget
    # error (exit 2), not an argument error
    monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", 1)
    X1 = MixedSchreierSpace(finite(1))
    with pytest.raises(BudgetExhausted, match="lower bound"):
        build_l1_average(X1, 4, BlockSequence.basis(12), Fraction(0))
    with pytest.raises(BudgetExhausted, match="lower bound"):
        build_ris(X1, (2, 4), BlockSequence.basis(12))


def test_l1_average_unreachable_quality_in_c0():
    bs = BlockSequence.basis(10)
    with pytest.raises(BudgetExhausted) as exc:
        build_l1_average(C0, 4, bs, Fraction(1, 2))
    assert exc.value.best["norm_before"] == Fraction(1, 4)


def test_ris_gap_condition():
    ris = build_ris(T, (2, 8), BlockSequence.basis(20))
    assert len(ris) == 2
    sizes = (2, 8)
    prev_max = 0
    for size, block in zip(sizes, ris.blocks):
        assert size > prev_max
        prev_max = block.support()[-1]


def test_ris_single_and_errors():
    single = build_ris(T, (3,), BlockSequence.basis(12))
    assert len(single) == 1
    with pytest.raises(ValueError):
        build_ris(T, (4, 4), BlockSequence.basis(12))
    with pytest.raises(ValueError):
        build_ris(T, (2, 3), BlockSequence.basis(12))  # 3 <= max supp of first


# ---------------------------------------------------------------------------
# signed admissible functionals
# ---------------------------------------------------------------------------


def test_schreier_functional_plain():
    alpha = Average(2, (Unit(1, 2), Unit(1, 3)))
    g = build_schreier_functional([1], [[alpha]], finite(1))
    assert evaluate(g, vec((2, 1), (3, 1))) == 1


def test_schreier_functional_signed_pair():
    # derived by hand: 1 on the first pair, +1/2 from the negated second
    # pair against the negated tail of the vector
    a1 = Average(2, (Unit(1, 2), Unit(1, 3)))
    a2 = Average(4, (Unit(1, 6), Unit(1, 7)))
    g = build_schreier_functional([1, -1], [[a1], [a2]], finite(1))
    x = vec((2, 1), (3, 1), (6, -1), (7, -1))
    assert evaluate(g, x) == Fraction(3, 2)


def test_schreier_functional_rejects_inadmissible():
    a1 = Average(2, (Unit(1, 1), Unit(1, 2)))
    a2 = Average(4, (Unit(1, 5), Unit(1, 6)))
    with pytest.raises(ValueError, match="admissible"):
        build_schreier_functional([1, 1], [[a1], [a2]], finite(1))


# ---------------------------------------------------------------------------
# blocking steps
# ---------------------------------------------------------------------------


def test_rational_sqrt_below():
    for K in (Fraction(2), Fraction(4), Fraction(9, 4), Fraction(101, 7)):
        t = rational_sqrt_below(K)
        assert t * t <= K
        assert float(K) - float(t * t) < 1e-9


def test_james_step_l1_is_certificate():
    cert = james_blocking_step(L1, BlockSequence.basis(20), 1, Fraction(4), 20)
    assert isinstance(cert, PropertyPn)
    assert cert.verified_constant == 1


def test_james_step_c0_blocks():
    cert = james_blocking_step(C0, BlockSequence.basis(30), 1, Fraction(4), 30)
    assert isinstance(cert, ImprovedBlocking)
    for E, coeffs, value in cert.combinations:
        assert member(E, S(1)).member
        assert sum(map(abs, coeffs)) == 1
        assert value < 1 / cert.target


def test_james_step_tsirelson_improves():
    cert = james_blocking_step(T, BlockSequence.basis(30), 1, Fraction(2), 30)
    assert isinstance(cert, ImprovedBlocking)
    # soundness re-check: every combination is a unit l1 vector of small norm
    for E, coeffs, value in cert.combinations:
        raw = Vector.from_dict(
            {}
        )
        blocks = [Vector.basis(i) for i in E]
        raw = blocks[0] * coeffs[0]
        for b, c in zip(blocks[1:], coeffs[1:]):
            raw = raw + b * c
        assert norm(T, raw).value == value < 1 / cert.target
    # renormalised blocks are unit vectors
    for b in cert.blocking.blocks:
        assert norm(T, b).value == 1


def test_two_norm_blocking_identity_case():
    bs = BlockSequence.basis(16)
    out, report = two_norm_blocking(L1, L1, bs, Fraction(1, 2), 16)
    assert report["rounds"][0]["second_lower"] == 1
    assert len(out) == len(bs)


def test_two_norm_blocking_improves_c0():
    bs = BlockSequence.basis(24)
    out, report = two_norm_blocking(L1, C0, bs, Fraction(1), 24, max_rounds=2)
    firsts = [r["second_lower"] for r in report["rounds"]]
    assert len(firsts) >= 2 and firsts[-1] >= firsts[0]


def test_two_norm_blocking_runs_on_s1_at_xi_zero():
    # omega^0 = 1 is no limit, so every stage is S_1 itself: round 0 reads
    # the l1 lower constants of the basis over S_1 in c0 and l1
    _, report = two_norm_blocking(L1, C0, BlockSequence.basis(8), Fraction(1, 2), 8, xi=ZERO)
    assert report["rounds"][0] == {"round": 0, "second_lower": Fraction(1, 4), "first_lower": 1}


def test_two_norm_blocking_rejects_bad_eps():
    with pytest.raises(ValueError):
        two_norm_blocking(L1, C0, BlockSequence.basis(8), Fraction(0), 8)


# ---------------------------------------------------------------------------
# structural blockings
# ---------------------------------------------------------------------------


def test_c0_to_l1_blocking():
    bs = BlockSequence.basis(12)
    sets = [(2, 3), (4, 5, 6), (7, 8, 9, 10)]
    out = c0_to_l1_blocking(bs, sets)
    assert [b.support() for b in out.blocks] == [(2, 3), (4, 5, 6), (7, 8, 9, 10)]
    with pytest.raises(ValueError, match="cardinalities"):
        c0_to_l1_blocking(bs, [(2, 3), (4, 5)])
    with pytest.raises(ValueError, match="admissible"):
        c0_to_l1_blocking(bs, [(2, 3), (4, 5, 6, 7, 8)])


def test_l1_to_c0_blocking_in_tsirelson():
    bs = BlockSequence.basis(30)
    out, certs = l1_to_c0_blocking(T, bs, finite(1), Fraction(1, 2), count=1)
    assert len(out) == 1
    assert norm(T, out.blocks[0]).value == 1
    assert certs[0].eps == Fraction(1, 2)
    assert certs[0].reverify()


def test_l1_to_c0_blocking_second_stage_is_infeasible():
    # a second combination must start past the first one's support, and
    # the canonical hierarchy needs exponentially many blocks from there;
    # the builder must fail cleanly rather than grind
    bs = BlockSequence.basis(60)
    with pytest.raises(BudgetExhausted):
        l1_to_c0_blocking(T, bs, finite(1), Fraction(1, 2), count=2)
