"""Command-line interface: dispatch, report schema, exit codes, round trips."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from schreier import norms
from schreier.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from schreier.families import BracketFamily, CardinalityFamily, IndexSequence, RelabeledFamily, SchreierFamily
from schreier.norms import C0Space, L1Space, LpSpace, MixedSchreierSpace, SchlumprechtSpace, TsirelsonSpace
from schreier.ordinals import Ordinal, finite
from schreier.parsing import (
    ParseError,
    parse_family,
    parse_functional,
    parse_ordinal,
    parse_set,
    parse_space,
    parse_vector,
    print_family,
    print_functional,
    print_ordinal,
    print_set,
    print_space,
    print_vector,
)
from schreier.vectors import Average, SumNode, Unit, Vector


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------


def test_parse_ordinal_examples():
    assert print_ordinal(parse_ordinal("w^2*3+w+7")) == "w^2*3+w+7"
    # non-normal literals are normalised, not rejected
    assert print_ordinal(parse_ordinal("3+w")) == "w"
    assert print_ordinal(parse_ordinal("w+w")) == "w*2"


def test_parse_family_example():
    fam = parse_family("S(w)[A(2)](even)")
    assert isinstance(fam, RelabeledFamily)
    assert isinstance(fam.base, BracketFamily)
    assert fam.labels == IndexSequence.arithmetic(2, 2)
    assert print_family(fam) == "S(w)[A(2)](even)"


def test_parse_vector_example():
    x = parse_vector("2:1/2,3:1/2")
    assert x[2] == Fraction(1, 2) and x[3] == Fraction(1, 2)
    assert print_vector(x) == "2:1/2,3:1/2"
    assert parse_vector("0").is_zero


def test_parse_space_examples():
    assert isinstance(parse_space("l1"), L1Space)
    assert isinstance(parse_space("c0"), C0Space)
    assert parse_space("lp(2.5)").p == 2.5
    assert isinstance(parse_space("T"), TsirelsonSpace)
    assert parse_space("S(tol=1e-08)").tolerance == 1e-8
    xs = parse_space("X(w,cap=9)")
    assert isinstance(xs, MixedSchreierSpace) and xs.depth_cap == 9


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        parse_ordinal("w^")
    assert exc.value.offset == 2
    with pytest.raises(ParseError):
        parse_set("3,2")
    with pytest.raises(ParseError):
        parse_vector("2:1/0")


def test_parsers_reject_coordinate_zero():
    with pytest.raises(ParseError) as exc:
        parse_set("0,2")
    assert exc.value.offset == 0
    with pytest.raises(ParseError) as exc:
        parse_vector("1:1,0:2")
    assert exc.value.offset == 4


def _random_ordinal(rng, depth=2):
    if depth == 0 or rng.random() < 0.35:
        return finite(rng.randint(0, 20))
    from schreier.ordinals import compare

    exps = []
    while len(exps) < rng.randint(1, 3):
        e = _random_ordinal(rng, depth - 1)
        if all(compare(e, f) != 0 for f in exps):
            exps.append(e)
    for i in range(len(exps)):
        for j in range(i + 1, len(exps)):
            if compare(exps[i], exps[j]) < 0:
                exps[i], exps[j] = exps[j], exps[i]
    return Ordinal(tuple((e, rng.randint(1, 5)) for e in exps))


def _random_family(rng, depth=2):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        if rng.random() < 0.5:
            return SchreierFamily(_random_ordinal(rng, 1))
        return CardinalityFamily(rng.randint(0, 6))
    if roll < 0.7:
        return BracketFamily(_random_family(rng, depth - 1), _random_family(rng, depth - 1))
    seqs = [
        IndexSequence.arithmetic(2, 2),
        IndexSequence.arithmetic(rng.randint(1, 5), rng.randint(1, 4)),
        IndexSequence.explicit(sorted(rng.sample(range(1, 40), rng.randint(1, 6)))),
    ]
    return RelabeledFamily(_random_family(rng, depth - 1), rng.choice(seqs))


def _random_vector(rng):
    coords = sorted(rng.sample(range(1, 40), rng.randint(0, 7)))
    return Vector.from_dict(
        {c: Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 15)) for c in coords}
    )


def _random_space(rng):
    return rng.choice(
        [
            L1Space(),
            C0Space(),
            LpSpace(1.0 + rng.randint(1, 40) / 8),
            TsirelsonSpace(),
            SchlumprechtSpace(10.0 ** -rng.randint(6, 12)),
            MixedSchreierSpace(_random_ordinal(rng, 1) + finite(1), rng.randint(1, 99)),
        ]
    )


def _random_functional(rng, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return Unit(rng.choice((1, -1)), rng.randint(1, 30))
    kids = []
    start = 1
    for _ in range(rng.randint(1, 3)):
        f = _random_functional(rng, 0)
        kids.append(Unit(f.sign, start))
        start += rng.randint(1, 4)
    if rng.random() < 0.5:
        return Average(max(2, len(kids)) + rng.randint(0, 3), tuple(kids))
    return SumNode(tuple(Average(max(2, 1) + i, (k,)) for i, k in enumerate(kids)))


def test_round_trip_corpus():
    rng = random.Random(99)
    for _ in range(500):
        a = _random_ordinal(rng)
        assert parse_ordinal(print_ordinal(a)) == a
        fam = _random_family(rng)
        assert parse_family(print_family(fam)) == fam
        x = _random_vector(rng)
        assert parse_vector(print_vector(x)) == x
        sp = _random_space(rng)
        assert parse_space(print_space(sp)) == sp
        f = _random_functional(rng)
        assert parse_functional(print_functional(f)) == f
        E = tuple(sorted(rng.sample(range(1, 30), rng.randint(0, 6))))
        assert parse_set(print_set(E)) == E


# ---------------------------------------------------------------------------
# command dispatch
# ---------------------------------------------------------------------------


def test_member_command(capsys):
    code, report = run(capsys, "schreier", "member", "--family", "S(2)", "--set", "2,3,4,5,6")
    assert code == EXIT_OK
    assert report["values"]["member"] is True
    assert report["witnesses"]["blocks"] == [[2, 3], [4, 5, 6]]


def test_norm_command_exact_rationals(capsys):
    code, report = run(capsys, "norm", "eval", "--space", "T", "--vector", "3:1,4:1,5:1")
    assert code == EXIT_OK
    assert report["values"]["value"] == "3/2"
    assert report["values"]["exact"] is True


def test_verify_refinement_whole_bracket_command(capsys):
    code, report = run(capsys, "verify", "refinement", "--which", "whole",
                       "--xi", "1", "--zeta", "1", "--horizon", "40")
    assert code == EXIT_OK
    assert report["values"]["ok"] is True


def test_verify_violation_exit_code(capsys):
    code, report = run(capsys, "verify", "bracket", "--lhs", "S(2)", "--rhs", "S(1)",
                       "--horizon", "12")
    assert code == EXIT_VIOLATION
    assert report["values"]["ok"] is False
    assert report["witnesses"]["counterexample"] == [2, 3, 4]


def test_scc_budget_exit_code(capsys):
    code, report = run(capsys, "scc", "basic", "--xi", "1", "--zeta", "0",
                       "--eps", "1/100", "--seq", "arith(2,1)", "--budget", "3")
    assert code == EXIT_BUDGET
    assert report["budget_exhausted"] is True


def test_unconverged_interval_norm_exit_code(capsys):
    code, report = run(capsys, "norm", "interval", "--space", "X(1,cap=1)",
                       "--vector", "2:1,3:1,4:1,5:1", "--n", "2")
    assert code == EXIT_BUDGET
    assert report["values"]["value"] == "9/4"
    assert report["values"]["converged"] is False
    assert report["budget_exhausted"] is True


def test_report_schema_and_out_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["--out", str(out), "schreier", "mass", "--family", "S(1)",
                 "--coeffs", "2:1/6,3:1/6,4:1/6,5:1/6,6:1/6,7:1/6"])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    for key in ("command", "params", "values", "witnesses", "certified_horizon", "budget_exhausted"):
        assert key in report
    assert report["values"]["mass"] == "2/3"


def test_diag_command(capsys):
    code, report = run(capsys, "diag", "alpha", "--n", "1", "--floor", "4", "--horizon", "8")
    assert code == EXIT_OK
    assert report["values"]["max_average_mass"] == "1/4"


def test_parse_error_exit(capsys):
    code = main(["norm", "eval", "--space", "T", "--vector", "2::1"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "offset" in json.loads(captured.err)


@pytest.mark.parametrize("argv", [
    # parse errors
    ["schreier", "member", "--family", "S(1)", "--set", "0,2"],
    ["norm", "eval", "--space", "T", "--vector", "0:1"],
    # argparse errors, which would otherwise exit with 2 (EXIT_BUDGET)
    ["schreier", "nosuch"],
    ["norm", "eval", "--space", "T"],
    ["norm", "j", "--space", "T", "--vector", "2:1", "--j", "1"],
    ["--seed", "1", "ordinal", "parse", "--text", "w"],
    # arguments that parse but cannot be run
    ["scc", "basic", "--xi", "1", "--zeta", "2", "--eps", "1/3", "--seq", "arith(2,1)"],
    ["scc", "basic", "--xi", "2", "--zeta", "1", "--eps", "0"],
    ["schreier", "maximal", "--family", "S(1)", "--first", "5", "--horizon", "3"],
    ["ordinal", "fundamental", "--limit", "3", "--n", "2"],
    ["distort", "search", "--space", "T", "--second", "interval:x", "--family", "S(1)", "--t", "6/5"],
    ["smodel", "profile", "--space", "T", "--family", "S(1)", "--horizon", "0"],
    ["scc", "basic", "--xi", "2", "--zeta", "1", "--eps", "1/3", "--budget", "0"],
    ["scc", "blocks", "--xi", "2", "--zeta", "1", "--eps", "1/3", "--budget", "0"],
    # bad block corpora; a dict stands for a corpus file with that content
    ["diag", "alpha", "--n", "1", "--floor", "2", "--horizon", "2", "--blocks", {"vectors": ["2:1"]}],
    ["diag", "alpha", "--n", "1", "--floor", "2", "--horizon", "2", "--blocks", {"blocks": ["3:1", "2:1"]}],
    ["diag", "alpha", "--n", "1", "--floor", "2", "--horizon", "2", "--blocks", {"blocks": [2, 3]}],
    ["smodel", "profile", "--space", "T", "--family", "S(1)", "--horizon", "8",
     "--blocks", {"blocks": ["2:1", "3:1"]}],
    # an empty corpus
    ["scc", "blocks", "--xi", "2", "--zeta", "1", "--eps", "1/3", "--blocks", {"blocks": []}],
    ["diag", "alpha", "--n", "1", "--floor", "2", "--horizon", "2", "--blocks", {"blocks": []}],
    ["distort", "search", "--space", "T", "--second", "interval:2", "--family", "S(1)",
     "--t", "6/5", "--blocks", {"blocks": []}],
])
def test_usage_error_exit(capsys, tmp_path, argv):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            corpus = tmp_path / "corpus.json"
            corpus.write_text(json.dumps(arg))
            argv[i] = str(corpus)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


def test_mixed_norm_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", 20)
    code, report = run(capsys, "norm", "eval", "--space", "X(1)",
                       "--vector", "4:1,5:1,6:1,7:1,8:1,9:1")
    assert code == EXIT_BUDGET
    assert report["values"]["converged"] is False and report["budget_exhausted"] is True


def test_threshold_command_takes_no_family(capsys):
    code, report = run(capsys, "schreier", "threshold", "--xi", "2", "--zeta", "w",
                       "--horizon", "20")
    assert code == EXIT_OK
    assert report["values"]["n"] == 1 and report["values"]["minimal"] is True
