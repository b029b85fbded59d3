"""Command-line front end.

One process per command, subcommand style; every run emits a single JSON
report with the shape

    { "command": ..., "params": ..., "values": ..., "witnesses": ...,
      "certified_horizon": ..., "budget_exhausted": ... }

Exact rationals are serialised as "p/q" strings.  Exit codes: 0 success,
1 a verification command found a violation, 2 a budget or horizon was
exhausted before the answer was certified, or a construction ran out of
horizon or sequence, 3 a usage or parse error, or any argument the library
rejects (the JSON body {"error": ...} goes to stderr, with "offset" for
parse errors).  The library owns its argument rules: it rejects an argument
with a ValueError, and `main` alone turns that into exit code 3.

Block-sequence corpora are JSON files: {"blocks": ["<vector>", ...]} in
the vector grammar, with at least one block.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

# Each verb handler imports the modules it needs, `families` included, and
# the parser builds the subcommands of the verbs in argv only.  Compiling a
# module from source is what peaks a command's memory: on Python 3.11 the
# import of the 1,317-line families.py alone reached a VmHWM of 17.2 MB,
# against 14.5 MB for `ordinals`.  Split into `families` and the
# `verifiers` it loads on first use, which compile apart, it peaks at
# 16.0 MB, and only `verify` and `schreier threshold` compile the second.
from . import parsing
from .ordinals import add, compare, fundamental
from .reports import BudgetExhausted, ConstructionError, to_jsonable

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3


class UsageError(Exception):
    """Bad arguments that the library never sees (argparse errors, corpus
    files, rationals), reported with EXIT_USAGE."""


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a UsageError instead of exiting with 2,
    which is EXIT_BUDGET here."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _emit(args, params: dict, values, witnesses=None,
          certified_horizon=None, budget_exhausted=False) -> int:
    report = {
        "command": f"{args.verb} {args.sub}",
        "params": to_jsonable(params),
        "values": to_jsonable(values),
        "witnesses": to_jsonable(witnesses),
        "certified_horizon": certified_horizon,
        "budget_exhausted": budget_exhausted,
    }
    text = json.dumps(report, indent=2)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_BUDGET if budget_exhausted else EXIT_OK


def _load_blocks(path: Optional[str], default_length: int = 16):
    from .vectors import BlockSequence

    if path is None:
        return BlockSequence.basis(default_length)
    try:
        with open(path) as fh:
            texts = json.load(fh)["blocks"]
        if not all(isinstance(t, str) for t in texts):
            raise TypeError("blocks must be vector strings")
        if not texts:
            raise ValueError("the corpus has no blocks")
        return BlockSequence(tuple(parsing.parse_vector(t) for t in texts))
    except parsing.ParseError:
        raise
    except (OSError, LookupError, TypeError, ValueError) as exc:
        raise UsageError(f'bad block corpus {path}, want {{"blocks": ["<vector>", ...]}}: {exc!r}') from exc


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------


def _cmd_schreier(args) -> int:
    from . import families

    if args.sub == "threshold":
        res = families.threshold_search(
            parsing.parse_ordinal(args.xi), parsing.parse_ordinal(args.zeta), args.horizon
        )
        return _emit(args, {"xi": args.xi, "zeta": args.zeta, "horizon": args.horizon},
                     {"n": res.n, "minimal": res.minimal},
                     {"rejections": res.rejections},
                     certified_horizon=res.certified_horizon)
    fam = parsing.parse_family(args.family)
    if args.sub == "member":
        E = parsing.parse_set(args.set)
        res = families.member(E, fam)
        return _emit(args, {"family": args.family, "set": args.set},
                     {"member": res.member}, res.witness)
    if args.sub == "maximal":
        enum = families.enumerate_maximal(fam, args.first, args.horizon)
        return _emit(args, {"family": args.family, "first": args.first, "horizon": args.horizon},
                     {"sets": [parsing.print_set(s) for s in enum.sets],
                      "truncated": enum.truncated},
                     certified_horizon=args.horizon,
                     budget_exhausted=enum.all_truncated)
    coeffs = dict(parsing.parse_vector(args.coeffs).entries)
    res = families.family_mass(coeffs, fam)
    return _emit(args, {"family": args.family, "coeffs": args.coeffs},
                 {"mass": res.mass}, {"argmax": parsing.print_set(res.argmax)})


def _cmd_ordinal(args) -> int:
    if args.sub == "add":
        value = parsing.parse_ordinal(args.a) + parsing.parse_ordinal(args.b)
        return _emit(args, {"a": args.a, "b": args.b},
                     {"sum": parsing.print_ordinal(value)})
    if args.sub == "compare":
        c = compare(parsing.parse_ordinal(args.a), parsing.parse_ordinal(args.b))
        word = {-1: "less", 0: "equal", 1: "greater"}[c]
        return _emit(args, {"a": args.a, "b": args.b}, {"order": word})
    if args.sub == "fundamental":
        value = fundamental(parsing.parse_ordinal(args.limit), args.n)
        return _emit(args, {"limit": args.limit, "n": args.n},
                     {"value": parsing.print_ordinal(value)})
    value = parsing.parse_ordinal(args.text)
    return _emit(args, {"text": args.text}, {"canonical": parsing.print_ordinal(value)})


def _cmd_norm(args) -> int:
    from . import norms

    space = parsing.parse_space(args.space)
    x = parsing.parse_vector(args.vector)
    if args.sub == "eval":
        res = norms.norm(space, x)
    elif args.sub == "j":
        res = norms.norm_j(space, x, args.j)
    else:
        res = norms.interval_norm(space, x, args.n)
    return _emit(args, {"space": args.space, "vector": args.vector},
                 {"value": res.value, "exact": res.exact, "converged": res.converged,
                  "tolerance": res.tolerance},
                 res.witness,
                 budget_exhausted=not res.converged)


def _cmd_scc(args) -> int:
    from . import constructions

    xi = parsing.parse_ordinal(args.xi)
    zeta = parsing.parse_ordinal(args.zeta)
    eps = _parse_fraction(args.eps)
    params = {"xi": args.xi, "zeta": args.zeta, "eps": args.eps}
    try:
        if args.sub == "basic":
            params["seq"] = args.seq
            labels = parsing.parse_sequence(args.seq)
            cert = constructions.scc_basic(xi, zeta, eps, labels, budget=args.budget)
            vec = cert.vector
        else:
            bs = _load_blocks(args.blocks)
            vec, cert = constructions.scc_on_blocks(bs, xi, zeta, eps, budget=args.budget)
    except BudgetExhausted as exc:
        return _emit(args, params, {"error": str(exc)}, exc.best, budget_exhausted=True)
    return _emit(args, params,
                 {"vector": parsing.print_vector(vec),
                  "mass": cert.mass_certificate[0],
                  "support": parsing.print_set(cert.support_set)},
                 {"mass_argmax": parsing.print_set(cert.mass_certificate[1])})


def _cmd_smodel(args) -> int:
    from . import analysis

    space = parsing.parse_space(args.space)
    fam = parsing.parse_family(args.family)
    bs = _load_blocks(args.blocks, default_length=max(16, args.horizon))
    est = analysis.spreading_profile(space, bs, fam, args.horizon)
    return _emit(args, {"space": args.space, "family": args.family, "horizon": args.horizon},
                 {"l1_lower": est.l1_lower, "l1_upper": est.l1_upper,
                  "c0_lower": est.c0_lower, "c0_upper": est.c0_upper},
                 est.witnesses, certified_horizon=est.horizon)


def _second_spec(text: str):
    from .analysis import IntervalNormSpec

    if text.startswith("interval:"):
        return IntervalNormSpec(int(text.split(":", 1)[1]))
    return parsing.parse_space(text)


def _cmd_distort(args) -> int:
    from . import analysis

    space = parsing.parse_space(args.space)
    spec = _second_spec(args.second)
    fam = parsing.parse_family(args.family)
    t = _parse_fraction(args.t)
    if args.sub == "search":
        bs = _load_blocks(args.blocks, default_length=24)
        report = analysis.distortion_witness(space, spec, fam, bs, t,
                                             corpus_label=args.blocks or "basis")
        return _emit(args, {"space": args.space, "second": args.second,
                            "family": args.family, "t": args.t,
                            "corpus": report.corpus_label},
                     {"found": report.found is not None, "best_ratio": report.best_ratio,
                      "best_pair": report.best_pair},
                     report.found)
    results = []
    all_clear = True
    for label, bs in analysis.standard_corpus(space, args.n):
        report = analysis.distortion_witness(space, spec, fam, bs, t, corpus_label=label)
        results.append({"corpus": label, "found": report.found is not None,
                        "best_ratio": report.best_ratio})
        all_clear = all_clear and report.found is None
    code = _emit(args, {"space": args.space, "second": args.second, "t": args.t, "n": args.n},
                 {"results": results, "all_clear": all_clear})
    return code if all_clear else EXIT_VIOLATION


def _cmd_verify(args) -> int:
    from . import families

    if args.sub == "bracket":
        params = {"lhs": args.lhs, "rhs": args.rhs, "horizon": args.horizon}
        lhs = parsing.parse_family(args.lhs)
        rhs = parsing.parse_family(args.rhs)
        report = families.verify_bracket_inclusion(lhs, rhs, args.horizon)
    elif args.sub == "pair-absorption":
        params = {"xi": args.xi, "horizon": args.horizon}
        target = families.SchreierFamily(parsing.parse_ordinal(args.xi))
        lhs = families.RelabeledFamily(
            families.BracketFamily(target, families.CardinalityFamily(2)), families.EVENS
        )
        report = families.verify_bracket_inclusion(lhs, target, args.horizon)
    else:
        params = {"which": args.which, "xi": args.xi, "zeta": args.zeta, "horizon": args.horizon}
        if args.seq is not None:
            params["seq"] = args.seq
        report = _verify_refinement(args)
    code = _emit(args, params,
                 {"ok": report.ok, "detail": report.detail, "method": report.method,
                  "stats": report.stats},
                 {"witness": report.witness, "counterexample": report.counterexample},
                 certified_horizon=report.certified_horizon,
                 budget_exhausted=report.budget_exhausted)
    if not report.ok and not report.budget_exhausted:
        return EXIT_VIOLATION
    return code


def _verify_refinement(args):
    from . import families
    from .families import SchreierFamily

    xi = parsing.parse_ordinal(args.xi)
    zeta = parsing.parse_ordinal(args.zeta)
    horizon = args.horizon
    target = SchreierFamily(add(zeta, xi))
    if args.which == "outer":
        M = families.EVENS if args.seq is None else parsing.parse_sequence(args.seq)
        L = families.construct_L(xi, zeta, M, horizon)
        lhs = families.BracketFamily(
            families.RelabeledFamily(SchreierFamily(xi), L), SchreierFamily(zeta)
        )
        return families.verify_bracket_inclusion(lhs, target, horizon)
    if args.which == "whole":
        L = families.construct_L_bracket(xi, zeta, horizon)
        lhs = families.RelabeledFamily(
            families.BracketFamily(SchreierFamily(xi), SchreierFamily(zeta)), L
        )
        return families.verify_bracket_inclusion(lhs, target, horizon)
    blocks = []
    start = 2
    size = 2
    while start + size - 1 <= horizon // 2:
        blocks.append(tuple(range(start, start + size)))
        start, size = start + size, size + 1
    N = families.construct_N(xi, zeta, blocks, horizon)
    return families.verify_union_property(N, blocks, xi, zeta)


def _cmd_diag(args) -> int:
    from . import analysis

    bs = _load_blocks(args.blocks, default_length=max(16, args.horizon))
    value = analysis.alpha_index_diagnostic(bs, args.n, args.floor, args.horizon)
    return _emit(args, {"n": args.n, "floor": args.floor, "horizon": args.horizon},
                 {"max_average_mass": value})


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of `argv`.  Every verb is added with its help, but only
    the verbs named somewhere in argv get their subcommands: argparse takes
    a verb only by its full name, so the one argv selects is among them."""
    top = _Parser(
        prog="schreier",
        description="Exact Schreier-family combinatorics, implicit norms, "
        "and distortion witness searches",
    )
    top.add_argument("--out", help="write the JSON report to this path")
    verbs = top.add_subparsers(dest="verb", required=True)
    named = set(argv)

    def verb(name, summary, func):
        p = verbs.add_parser(name, help=summary)
        p.set_defaults(func=func)
        return p.add_subparsers(dest="sub", required=True) if name in named else None

    sub = verb("schreier", "family membership and enumeration", _cmd_schreier)
    if sub is not None:
        q = sub.add_parser("member")
        q.add_argument("--family", required=True)
        q.add_argument("--set", required=True)
        q = sub.add_parser("maximal")
        q.add_argument("--family", required=True)
        q.add_argument("--first", type=_at_least(1), required=True)
        q.add_argument("--horizon", type=_at_least(1), required=True)
        q = sub.add_parser("mass")
        q.add_argument("--family", required=True)
        q.add_argument("--coeffs", required=True, help="coord:value pairs, comma separated")
        q = sub.add_parser("threshold")
        q.add_argument("--xi", required=True)
        q.add_argument("--zeta", required=True)
        q.add_argument("--horizon", type=_at_least(1), required=True)

    sub = verb("ordinal", "ordinal arithmetic", _cmd_ordinal)
    if sub is not None:
        q = sub.add_parser("add")
        q.add_argument("--a", required=True)
        q.add_argument("--b", required=True)
        q = sub.add_parser("compare")
        q.add_argument("--a", required=True)
        q.add_argument("--b", required=True)
        q = sub.add_parser("fundamental")
        q.add_argument("--limit", required=True)
        q.add_argument("--n", type=_at_least(1), required=True)
        q = sub.add_parser("parse")
        q.add_argument("--text", required=True)

    sub = verb("norm", "norm evaluation", _cmd_norm)
    if sub is not None:
        q = sub.add_parser("eval")
        q.add_argument("--space", required=True)
        q.add_argument("--vector", required=True)
        q = sub.add_parser("j")
        q.add_argument("--space", required=True)
        q.add_argument("--vector", required=True)
        q.add_argument("--j", type=_at_least(2), required=True)
        q = sub.add_parser("interval")
        q.add_argument("--space", required=True)
        q.add_argument("--vector", required=True)
        q.add_argument("--n", type=_at_least(1), required=True)

    sub = verb("scc", "special convex combinations", _cmd_scc)
    if sub is not None:
        for name in ("basic", "blocks"):
            q = sub.add_parser(name)
            q.add_argument("--xi", required=True)
            q.add_argument("--zeta", required=True)
            q.add_argument("--eps", required=True)
            if name == "basic":
                q.add_argument("--seq", default="arith(2,1)")
            q.add_argument("--budget", type=_at_least(1), default=60)
            if name == "blocks":
                q.add_argument("--blocks", default=None)

    sub = verb("smodel", "spreading-model constants", _cmd_smodel)
    if sub is not None:
        q = sub.add_parser("profile")
        q.add_argument("--space", required=True)
        q.add_argument("--family", required=True)
        q.add_argument("--horizon", type=_at_least(1), required=True)
        q.add_argument("--blocks", default=None)

    sub = verb("distort", "distortion witness search", _cmd_distort)
    if sub is not None:
        q = sub.add_parser("search")
        q.add_argument("--space", required=True)
        q.add_argument("--second", required=True, help="a space or interval:<n>")
        q.add_argument("--family", required=True)
        q.add_argument("--t", required=True)
        q.add_argument("--blocks", default=None)
        q = sub.add_parser("baseline")
        q.add_argument("--space", required=True)
        q.add_argument("--second", required=True)
        q.add_argument("--family", default="S(1)")
        q.add_argument("--t", default="101/100")
        q.add_argument("--n", type=_at_least(1), default=2)

    sub = verb("verify", "inclusion and construction checks", _cmd_verify)
    if sub is not None:
        q = sub.add_parser("bracket")
        q.add_argument("--lhs", required=True)
        q.add_argument("--rhs", required=True)
        q.add_argument("--horizon", type=_at_least(1), required=True)
        q = sub.add_parser("pair-absorption")
        q.add_argument("--xi", required=True)
        q.add_argument("--horizon", type=_at_least(1), required=True)
        q = sub.add_parser("refinement")
        q.add_argument("--which", choices=("outer", "whole", "union"), required=True,
                       help="refine the outer family, the whole bracket, or block unions")
        q.add_argument("--xi", required=True)
        q.add_argument("--zeta", required=True)
        q.add_argument("--horizon", type=_at_least(1), required=True)
        q.add_argument("--seq", default=None)

    sub = verb("diag", "finite index diagnostics", _cmd_diag)
    if sub is not None:
        q = sub.add_parser("alpha")
        q.add_argument("--n", type=_at_least(1), required=True)
        q.add_argument("--floor", type=_at_least(2), required=True)
        q.add_argument("--horizon", type=_at_least(1), required=True)
        q.add_argument("--blocks", default=None)

    return top


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
        return args.func(args)
    # a ParseError is a ValueError; its own clause keeps its offset
    except parsing.ParseError as exc:
        print(json.dumps({"error": str(exc), "offset": exc.offset}), file=sys.stderr)
        return EXIT_USAGE
    except (UsageError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except (BudgetExhausted, ConstructionError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
