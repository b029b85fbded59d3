"""Command-line interface: dispatch, report schema, exit codes, round trips."""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from schreier import analysis, norms
from schreier.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from schreier.constructions import BudgetExhausted
from schreier.families import BracketFamily, CardinalityFamily, IndexSequence, RelabeledFamily, SchreierFamily
from schreier.norms import C0Space, L1Space, LpSpace, MixedSchreierSpace, SchlumprechtSpace, TsirelsonSpace
from schreier.ordinals import OMEGA, Ordinal, finite
from schreier.parsing import (
    MAX_NESTING,
    ParseError,
    parse_family,
    parse_functional,
    parse_ordinal,
    parse_sequence,
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
    xs = parse_space("X(w)")
    assert isinstance(xs, MixedSchreierSpace) and xs.xi == OMEGA


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        parse_ordinal("w^")
    assert exc.value.offset == 2
    with pytest.raises(ParseError):
        parse_set("3,2")
    with pytest.raises(ParseError):
        parse_vector("2:1/0")
    # a sequence that parses but is not strictly increasing points at its start
    with pytest.raises(ParseError) as exc:
        parse_family("S(2)([3,2])")
    assert exc.value.offset == 5


@pytest.mark.parametrize("parse, text, what, offset", [
    (parse_ordinal, "w+1)", "ordinal", 3),
    (parse_family, "S(1)]", "family", 4),
    (parse_sequence, "even,", "sequence", 4),
    (parse_space, "T x", "space", 1),
    (parse_functional, "U(1)U(2)", "functional", 4),
], ids=["ordinal", "family", "sequence", "space", "functional"])
def test_parsers_reject_trailing_input(parse, text, what, offset):
    with pytest.raises(ParseError) as exc:
        parse(f" {text} ")
    assert exc.value.offset == offset
    assert str(exc.value) == f"trailing input after {what} at offset {offset}: {text!r}"


@pytest.mark.parametrize("text", ["lp(1)", "lp(0.5)", "lp(1e400)", "X(0)", "S(tol=0)", "S(tol=-1)",
                                  "S(tol=1e999)"])
def test_space_descriptor_errors_point_at_the_descriptor(text):
    with pytest.raises(ParseError) as exc:
        parse_space(text)
    assert exc.value.offset == 0


def test_parsers_reject_coordinate_zero():
    with pytest.raises(ParseError) as exc:
        parse_set("0,2")
    assert exc.value.offset == 0
    with pytest.raises(ParseError) as exc:
        parse_vector("1:1,0:2")
    assert exc.value.offset == 4


@pytest.mark.parametrize("seq, message", [
    ("arith(0,1)", "arithmetic tail start must be >= 1"),
    ("arith(2,0)", "arithmetic tail must be strictly increasing"),
])
def test_arithmetic_sequence_errors_name_the_bad_part(capsys, seq, message):
    code = main(["scc", "basic", "--xi", "2", "--zeta", "1", "--eps", "1/3", "--seq", seq])
    err = json.loads(capsys.readouterr().err)
    assert code == EXIT_USAGE and err["offset"] == 0
    assert err["error"].startswith(message + " at offset 0"), err


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
            LpSpace(1 + 10.0 ** rng.uniform(-9, 1)),
            TsirelsonSpace(),
            SchlumprechtSpace(10.0 ** rng.uniform(-12, 2)),
            MixedSchreierSpace(_random_ordinal(rng, 1) + finite(1)),
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


def test_refinements_stay_inside_their_sequence(capsys):
    # the nested diagonals of w^2 over `even` stay inside it, so the
    # diagonal increases and the outer inclusion is certified
    code, report = run(capsys, "verify", "refinement", "--which", "outer",
                       "--xi", "w^2", "--zeta", "2", "--horizon", "20")
    assert code == EXIT_OK and report["values"]["stats"] == {"patterns": 16}
    # an explicit sequence is refined as a whole, not cut at the horizon
    values = []
    for seq in ("[" + ",".join(map(str, range(2, 61, 2))) + "]", "even"):
        code, report = run(capsys, "verify", "refinement", "--which", "outer",
                           "--xi", "w", "--zeta", "1", "--horizon", "20", "--seq", seq)
        assert code == EXIT_OK
        values.append(report["values"])
    assert values[0] == values[1] and values[0]["stats"] == {"patterns": 64}


def _nested_ordinal(depth):
    return "w^(" * depth + "1" + ")" * depth


def _nested_family(depth):
    return "S(1)[" * depth + "S(1)" + "]" * depth


@pytest.mark.parametrize("command", [
    lambda d: ["ordinal", "parse", "--text", _nested_ordinal(d)],
    lambda d: ["schreier", "member", "--family", f"S({_nested_ordinal(d)})", "--set", "3,4,5"],
    lambda d: ["schreier", "threshold", "--xi", _nested_ordinal(d), "--zeta", _nested_ordinal(d),
               "--horizon", "6"],
    lambda d: ["norm", "eval", "--space", f"X({_nested_ordinal(d)})", "--vector", "3:1,4:1,5:1"],
    lambda d: ["schreier", "member", "--family", _nested_family(d), "--set", "3,4,5"],
    lambda d: ["verify", "bracket", "--lhs", _nested_family(d), "--rhs", "S(3)", "--horizon", "8"],
], ids=["ordinal parse", "member ordinal", "threshold", "norm X", "member family", "verify bracket"])
def test_nesting_past_the_bound_is_a_parse_error(capsys, command):
    # at the bound the command runs to its report; one level deeper the
    # text is refused where the nesting passes the bound
    code = main(command(MAX_NESTING))
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_BUDGET) and _strict_json(captured.out)
    code = main(command(MAX_NESTING + 1))
    error = json.loads(capsys.readouterr().err)
    assert code == EXIT_USAGE and "nested too deeply" in error["error"] and error["offset"] > 0


def test_functional_nesting_past_the_bound_is_a_parse_error():
    def nested(depth):
        return "AVG(2)[" * depth + "U(+1)" + "]" * depth

    assert parse_functional(nested(MAX_NESTING)) is not None
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_functional(nested(MAX_NESTING + 1))


# every subcommand, with the params its report must carry: each option
# given or defaulted, by its name, so that a report can be rerun from them
PARAMS = [
    (["schreier", "member", "--family", "S(2)", "--set", "2,3,4,5,6"],
     {"family": "S(2)", "set": "2,3,4,5,6"}),
    (["schreier", "maximal", "--family", "A(2)", "--first", "1", "--horizon", "4"],
     {"family": "A(2)", "first": 1, "horizon": 4}),
    (["schreier", "mass", "--family", "S(1)", "--coeffs", "2:1/2,3:1/2"],
     {"family": "S(1)", "coeffs": "2:1/2,3:1/2"}),
    (["schreier", "threshold", "--xi", "1", "--zeta", "2", "--horizon", "8"],
     {"xi": "1", "zeta": "2", "horizon": 8}),
    (["ordinal", "add", "--a", "w", "--b", "1"], {"a": "w", "b": "1"}),
    (["ordinal", "compare", "--a", "w", "--b", "3"], {"a": "w", "b": "3"}),
    (["ordinal", "fundamental", "--limit", "w^2", "--n", "3"], {"limit": "w^2", "n": 3}),
    (["ordinal", "parse", "--text", "3+w"], {"text": "3+w"}),
    (["norm", "eval", "--space", "T", "--vector", "3:1,4:1,5:1"],
     {"space": "T", "vector": "3:1,4:1,5:1"}),
    (["norm", "j", "--space", "T", "--vector", "3:1,4:1,5:1", "--j", "3"],
     {"space": "T", "vector": "3:1,4:1,5:1", "j": 3}),
    (["norm", "interval", "--space", "T", "--vector", "3:1,4:1,5:1", "--n", "2"],
     {"space": "T", "vector": "3:1,4:1,5:1", "n": 2}),
    (["scc", "basic", "--xi", "1", "--zeta", "0", "--eps", "1/3"],
     {"xi": "1", "zeta": "0", "eps": "1/3", "seq": "arith(2,1)", "budget": 60}),
    (["scc", "blocks", "--xi", "1", "--zeta", "0", "--eps", "1/3", "--budget", "5"],
     {"xi": "1", "zeta": "0", "eps": "1/3", "budget": 5}),
    (["smodel", "profile", "--space", "l1", "--family", "S(1)", "--horizon", "4",
      "--blocks", "corpus.json"],
     {"space": "l1", "family": "S(1)", "horizon": 4, "blocks": "corpus.json"}),
    (["distort", "search", "--space", "T", "--second", "interval:2", "--family", "S(1)",
      "--t", "6/5"],
     {"space": "T", "second": "interval:2", "family": "S(1)", "t": "6/5"}),
    (["distort", "baseline", "--space", "c0", "--second", "interval:2"],
     {"space": "c0", "second": "interval:2", "family": "S(1)", "t": "101/100", "n": 2}),
    (["verify", "bracket", "--lhs", "S(1)", "--rhs", "S(2)", "--horizon", "10"],
     {"lhs": "S(1)", "rhs": "S(2)", "horizon": 10}),
    (["verify", "pair-absorption", "--xi", "1", "--horizon", "8"], {"xi": "1", "horizon": 8}),
    (["verify", "refinement", "--which", "whole", "--xi", "1", "--zeta", "1", "--horizon", "40"],
     {"which": "whole", "xi": "1", "zeta": "1", "horizon": 40}),
    (["verify", "refinement", "--which", "outer", "--xi", "1", "--zeta", "1", "--horizon", "12",
      "--seq", "even"],
     {"which": "outer", "xi": "1", "zeta": "1", "horizon": 12, "seq": "even"}),
    (["diag", "alpha", "--n", "1", "--floor", "4", "--horizon", "8", "--blocks", "corpus.json"],
     {"n": 1, "floor": 4, "horizon": 8, "blocks": "corpus.json"}),
]

CORPUS = {"blocks": ["2:1", "3:1/2,4:1/2", "5:1", "6:1,7:1", "8:1", "9:1", "10:1", "11:1", "12:1"]}


@pytest.mark.parametrize("argv, params", PARAMS, ids=[" ".join(argv[:2]) for argv, _ in PARAMS])
def test_reports_list_their_own_params(capsys, monkeypatch, tmp_path, argv, params):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.json").write_text(json.dumps(CORPUS))
    code, report = run(capsys, *argv)
    assert code == EXIT_OK
    assert report["command"] == " ".join(argv[:2])
    assert report["params"] == params


@pytest.mark.parametrize("blocks, corpus", [([], "basis"), (["--blocks", "corpus.json"], "corpus.json")],
                         ids=["basis", "file"])
def test_distortion_search_reports_its_corpus(capsys, monkeypatch, tmp_path, blocks, corpus):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "corpus.json").write_text(json.dumps(CORPUS))
    code, report = run(capsys, "distort", "search", "--space", "T", "--second", "interval:2",
                       "--family", "S(1)", "--t", "6/5", *blocks)
    assert code == EXIT_OK
    assert report["values"]["corpus"] == corpus


def _strict_json(text):
    """stdout as JSON, refusing the NaN and Infinity that `json.loads`
    would otherwise take."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


# argv, the MIXED_TICK_BUDGET it runs under (None: the default), its exit
# code, and values its report must hold
EDGE_CASES = [
    # a float first norm is no exact scale, even where it would try no pair
    (["distort", "search", "--space", "S", "--second", "interval:2", "--family", "S(1)", "--t", "6/5"],
     None, EXIT_USAGE, {}),
    (["distort", "baseline", "--space", "S", "--second", "interval:3", "--n", "3"], None, EXIT_USAGE, {}),
    # A(0) holds no pair: a search that tried none checked nothing
    (["distort", "search", "--space", "T", "--second", "interval:2", "--family", "A(0)", "--t", "6/5"],
     None, EXIT_BUDGET, {"found": False, "candidates_tried": 0}),
    (["distort", "baseline", "--space", "T", "--second", "interval:2", "--family", "A(0)"],
     None, EXIT_BUDGET, {"all_clear": False}),
    # a ratio of X(1) values whose budget ran out is no exact ratio
    (["distort", "search", "--space", "T", "--second", "X(1)", "--family", "S(1)", "--t", "100"],
     8, EXIT_BUDGET, {}),
    # the README searches
    (["distort", "search", "--space", "T", "--second", "interval:2", "--family", "S(1)", "--t", "6/5"],
     None, EXIT_OK, {"found": True, "candidates_tried": 64}),
    (["distort", "baseline", "--space", "c0", "--second", "interval:3", "--n", "3"],
     None, EXIT_OK, {"all_clear": True}),
    # floats past their range reach no report
    (["norm", "eval", "--space", "S", "--vector", ",".join(f"{c}:{10 ** 308}" for c in (2, 3, 4))],
     None, EXIT_USAGE, {}),
    # a tolerance past the float range is refused where it is declared, or
    # where n chunks of it would pass the range, and named in the error
    (["norm", "eval", "--space", "S(tol=1e999)", "--vector", "1:1"], None, EXIT_USAGE,
     {"error": "the Schlumprecht tolerance must be finite and positive at offset 0: 'S(tol=1e999)'",
      "offset": 0}),
    (["norm", "interval", "--space", "S(tol=1e308)", "--vector", "1:1,2:1", "--n", "2"],
     None, EXIT_USAGE, {"error": "2 chunks at tolerance 1e+308 give a tolerance past the float range"}),
    (["norm", "j", "--space", "S(tol=1e308)", "--vector", "1:1,2:1", "--j", "2"],
     None, EXIT_USAGE, {"error": "2 chunks at tolerance 1e+308 give a tolerance past the float range"}),
    (["norm", "interval", "--space", "S", "--vector", "1:1,2:1", "--n", str(10 ** 400)],
     None, EXIT_USAGE, {}),
    # an exact space has no tolerance to scale, whatever the count of chunks
    (["norm", "interval", "--space", "T", "--vector", "1:1,2:1", "--n", str(10 ** 400)],
     None, EXIT_OK, {"value": "2/1", "tolerance": 0.0}),
]


@pytest.mark.parametrize("argv, budget, code, values", EDGE_CASES,
                         ids=[" ".join(a[:4]) + f" #{i}" for i, (a, *_) in enumerate(EDGE_CASES)])
def test_edge_inputs_exit_as_documented(capsys, monkeypatch, argv, budget, code, values):
    # every report is strict JSON; a usage error writes none, and its error
    # holds `values`; a budget exit that reports says so in `budget_exhausted`
    if budget is not None:
        monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", budget)
    assert main(argv) == code
    captured = capsys.readouterr()
    if not captured.out:
        error = _strict_json(captured.err)
        assert code != EXIT_OK and "error" in error
        assert {k: error[k] for k in values} == values
        return
    report = _strict_json(captured.out)
    assert report["budget_exhausted"] is (code == EXIT_BUDGET)
    assert {k: report["values"][k] for k in values} == values
    for result in report["values"].get("results", ()):
        assert result["candidates_tried"] == 0 if code == EXIT_BUDGET else result["candidates_tried"] > 0


@pytest.mark.parametrize("value, tolerance", [(float("inf"), 1e-9), (1.0, float("inf")), (float("nan"), 1e-9)])
def test_reports_refuse_non_finite_floats(capsys, monkeypatch, value, tolerance):
    # the library refuses every non-finite float the edge table reaches
    # before a report is built; a result that carried one anyway must not
    # print as NaN or Infinity
    monkeypatch.setattr(norms, "norm", lambda space, x: norms.NormResult(value, False, True, None, tolerance))
    assert main(["norm", "eval", "--space", "S", "--vector", "1:1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "not JSON compliant" in json.loads(captured.err)["error"]


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
    assert report["params"] == {"xi": "1", "zeta": "0", "eps": "1/100", "seq": "arith(2,1)",
                                "budget": 3}


def test_budget_error_outside_a_handler_exit_code(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise BudgetExhausted("no restarts left")

    monkeypatch.setattr(analysis, "spreading_profile", exhausted)
    code = main(["smodel", "profile", "--space", "T", "--family", "S(1)", "--horizon", "8"])
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "no restarts left"}


def test_unconverged_interval_norm_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", 8)
    code, report = run(capsys, "norm", "interval", "--space", "X(1)",
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
    ["norm", "eval", "--space", "X(w,cap=9)", "--vector", "2:1"],
    # well-formed index sequences that are not strictly increasing from 1
    ["schreier", "member", "--family", "S(2)([3,2])", "--set", "2"],
    ["schreier", "member", "--family", "S(w)(arith(0,1))", "--set", "2"],
    ["schreier", "member", "--family", "S(w)(arith(1,0))", "--set", "2"],
    ["scc", "basic", "--xi", "2", "--zeta", "1", "--eps", "1/3", "--seq", "[4,3]"],
    # well-formed space descriptors that name no space
    ["norm", "eval", "--space", "lp(1)", "--vector", "2:1"],
    ["norm", "eval", "--space", "lp(0.5)", "--vector", "2:1"],
    ["norm", "eval", "--space", "X(0)", "--vector", "2:1"],
    ["norm", "eval", "--space", "S(tol=-1)", "--vector", "2:1"],
    ["norm", "eval", "--space", "lp(1e400)", "--vector", "1:1/2"],
    # coefficients that no float holds, in the float spaces
    ["norm", "eval", "--space", "lp(3)", "--vector", f"1:{10 ** 400}"],
    ["norm", "eval", "--space", "S", "--vector", f"2:1/{10 ** 400}"],
    # argparse errors, which would otherwise exit with 2 (EXIT_BUDGET)
    ["schreier", "nosuch"],
    ["norm", "eval", "--space", "T"],
    ["norm", "j", "--space", "T", "--vector", "2:1", "--j", "1"],
    ["--seed", "1", "ordinal", "parse", "--text", "w"],
    # only the basic combination reads an index sequence
    ["scc", "blocks", "--xi", "2", "--zeta", "1", "--eps", "1/3", "--seq", "arith(3,1)"],
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
    # arguments that only the library rejects, with a ValueError
    ["schreier", "threshold", "--xi", "w", "--zeta", "2", "--horizon", "5"],
    ["smodel", "profile", "--space", "T", "--family", "A(0)", "--horizon", "3"],
    ["distort", "search", "--space", "T", "--second", "interval:2", "--family", "S(1)",
     "--t", "1"],
    ["distort", "baseline", "--space", "c0", "--second", "interval:3", "--t", "1/2"],
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


@pytest.mark.parametrize("argv", [
    ["verify", "refinement", "--which", "union", "--xi", "1", "--zeta", "1", "--horizon", "3"],
    ["verify", "refinement", "--which", "outer", "--xi", "w", "--zeta", "1", "--horizon", "3"],
    ["verify", "refinement", "--which", "whole", "--xi", "w", "--zeta", "1", "--horizon", "2"],
    ["verify", "refinement", "--which", "outer", "--xi", "w", "--zeta", "1", "--horizon", "12",
     "--seq", "[2,4,6]"],
])
def test_construction_out_of_horizon_exit_code(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


def test_programming_errors_are_not_caught(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("a bug, not bad input")

    monkeypatch.setattr(analysis, "spreading_profile", broken)
    with pytest.raises(TypeError):
        main(["smodel", "profile", "--space", "T", "--family", "S(1)", "--horizon", "8"])
    assert capsys.readouterr().out == ""


def test_mixed_norm_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(norms, "MIXED_TICK_BUDGET", 20)
    code, report = run(capsys, "norm", "eval", "--space", "X(1)",
                       "--vector", "4:1,5:1,6:1,7:1,8:1,9:1")
    assert code == EXIT_BUDGET
    assert report["values"]["converged"] is False and report["budget_exhausted"] is True


@pytest.mark.parametrize("vector, value", [("1:2", 2.0), ("1:1/2,2:1/3", 0.5)])
def test_lp_norm_with_a_large_exponent(capsys, vector, value):
    # the 2000th powers of 2 and of 1/2 leave the float range; the chunk's
    # largest |x_c| is taken out before the powers
    code, report = run(capsys, "norm", "eval", "--space", "lp(2000)", "--vector", vector)
    assert code == EXIT_OK
    assert abs(report["values"]["value"] - value) <= report["values"]["tolerance"]


def test_threshold_command_takes_no_family(capsys):
    code, report = run(capsys, "schreier", "threshold", "--xi", "2", "--zeta", "w",
                       "--horizon", "20")
    assert code == EXIT_OK
    assert report["values"]["n"] == 1 and report["values"]["minimal"] is True


# --help and the usage errors as printed at 80 columns by the parser that
# built every verb's subcommands; the parser now builds those of the verbs
# argv names only, so the verb lists, choices and errors must not change
USAGE = json.loads((Path(__file__).parent / "cli_usage.json").read_text())


@pytest.mark.parametrize("case", USAGE, ids=lambda case: " ".join(case["argv"]) or "no arguments")
def test_help_and_usage_errors_are_unchanged(capsys, monkeypatch, tmp_path, case):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)  # a case may write its --out report here
    if "corpus" in case:  # or read its --blocks corpus from here
        (tmp_path / "corpus.json").write_text(json.dumps(case["corpus"]))
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:  # --help prints and exits 0
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])
    if "file" in case:
        assert (tmp_path / case["argv"][1]).read_text() == case["file"]
