"""Command-line front end.

One process per command, subcommand style; every run emits a single JSON
report with the shape

    { "command": ..., "params": ..., "values": ..., "witnesses": ...,
      "certified_horizon": ..., "budget_exhausted": ... }

Each flag is declared once, in `_OPTIONS`, and each subcommand in
`_COMMANDS` lists the flags it takes.  A report's "params" are the options
of its subcommand that have a value, given or by default, under their
names, so a report can be rerun from its own params; `--out` is not among
them.  What a command found, such as the corpus `distort search` read,
goes in "values".

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
# the parser builds the subcommands of the verbs in argv only.
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


# the parsed names that are not the subcommand's options
_NOT_PARAMS = ("verb", "sub", "func", "out")


def _emit(args, values, witnesses=None, certified_horizon=None, budget_exhausted=False) -> int:
    """Print the report of the parsed subcommand `args`, or write it to
    --out; its params are read from `args`."""
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS and v is not None}
    report = {
        "command": f"{args.verb} {args.sub}",
        "params": to_jsonable(params),
        "values": to_jsonable(values),
        "witnesses": to_jsonable(witnesses),
        "certified_horizon": certified_horizon,
        "budget_exhausted": budget_exhausted,
    }
    # a float that left its range is no number: refuse it, never print it
    text = json.dumps(report, indent=2, allow_nan=False)
    if args.out:
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
        return _emit(args, {"n": res.n, "minimal": res.minimal},
                     {"rejections": res.rejections},
                     certified_horizon=res.certified_horizon)
    fam = parsing.parse_family(args.family)
    if args.sub == "member":
        E = parsing.parse_set(args.set)
        res = families.member(E, fam)
        return _emit(args, {"member": res.member}, res.witness)
    if args.sub == "maximal":
        enum = families.enumerate_maximal(fam, args.first, args.horizon)
        return _emit(args, {"sets": [parsing.print_set(s) for s in enum.sets],
                            "truncated": enum.truncated},
                     certified_horizon=args.horizon, budget_exhausted=enum.all_truncated)
    coeffs = dict(parsing.parse_vector(args.coeffs).entries)
    res = families.family_mass(coeffs, fam)
    return _emit(args, {"mass": res.mass}, {"argmax": parsing.print_set(res.argmax)})


def _cmd_ordinal(args) -> int:
    if args.sub == "add":
        value = parsing.parse_ordinal(args.a) + parsing.parse_ordinal(args.b)
        return _emit(args, {"sum": parsing.print_ordinal(value)})
    if args.sub == "compare":
        c = compare(parsing.parse_ordinal(args.a), parsing.parse_ordinal(args.b))
        word = {-1: "less", 0: "equal", 1: "greater"}[c]
        return _emit(args, {"order": word})
    if args.sub == "fundamental":
        value = fundamental(parsing.parse_ordinal(args.limit), args.n)
        return _emit(args, {"value": parsing.print_ordinal(value)})
    value = parsing.parse_ordinal(args.text)
    return _emit(args, {"canonical": parsing.print_ordinal(value)})


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
    return _emit(args, {"value": res.value, "exact": res.exact, "converged": res.converged,
                        "tolerance": res.tolerance},
                 res.witness, budget_exhausted=not res.converged)


def _cmd_scc(args) -> int:
    from . import constructions

    xi = parsing.parse_ordinal(args.xi)
    zeta = parsing.parse_ordinal(args.zeta)
    eps = _parse_fraction(args.eps)
    try:
        if args.sub == "basic":
            labels = parsing.parse_sequence(args.seq)
            cert = constructions.scc_basic(xi, zeta, eps, labels, budget=args.budget)
            vec = cert.vector
        else:
            bs = _load_blocks(args.blocks)
            vec, cert = constructions.scc_on_blocks(bs, xi, zeta, eps, budget=args.budget)
    except BudgetExhausted as exc:
        return _emit(args, {"error": str(exc)}, exc.best, budget_exhausted=True)
    return _emit(args, {"vector": parsing.print_vector(vec), "mass": cert.mass_certificate[0],
                        "support": parsing.print_set(cert.support_set)},
                 {"mass_argmax": parsing.print_set(cert.mass_certificate[1])})


def _cmd_smodel(args) -> int:
    from . import analysis

    space = parsing.parse_space(args.space)
    fam = parsing.parse_family(args.family)
    bs = _load_blocks(args.blocks, default_length=max(16, args.horizon))
    est = analysis.spreading_profile(space, bs, fam, args.horizon)
    return _emit(args, {"l1_lower": est.l1_lower, "l1_upper": est.l1_upper,
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
        return _emit(args, {"corpus": report.corpus_label, "found": report.found is not None,
                            "best_ratio": report.best_ratio, "best_pair": report.best_pair,
                            "candidates_tried": report.candidates_tried},
                     report.found, budget_exhausted=not report.candidates_tried)
    # a corpus on which no pair was tried checked nothing, so it is not clear
    reports = [analysis.distortion_witness(space, spec, fam, bs, t, corpus_label=label)
               for label, bs in analysis.standard_corpus(space, args.n)]
    results = [{"corpus": r.corpus_label, "found": r.found is not None, "best_ratio": r.best_ratio,
                "candidates_tried": r.candidates_tried} for r in reports]
    found = any(r.found is not None for r in reports)
    untried = not all(r.candidates_tried for r in reports)
    code = _emit(args, {"results": results, "all_clear": not (found or untried)},
                 budget_exhausted=untried)
    return EXIT_VIOLATION if found else code


def _cmd_verify(args) -> int:
    from . import families

    if args.sub == "bracket":
        lhs = parsing.parse_family(args.lhs)
        rhs = parsing.parse_family(args.rhs)
        report = families.verify_bracket_inclusion(lhs, rhs, args.horizon)
    elif args.sub == "pair-absorption":
        target = families.SchreierFamily(parsing.parse_ordinal(args.xi))
        lhs = families.RelabeledFamily(
            families.BracketFamily(target, families.CardinalityFamily(2)), families.EVENS
        )
        report = families.verify_bracket_inclusion(lhs, target, args.horizon)
    else:
        report = _verify_refinement(args)
    code = _emit(args, {"ok": report.ok, "detail": report.detail, "method": report.method,
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
    return _emit(args, {"max_average_mass": value})


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


# every flag once, with its argparse settings; a subcommand lists the flags
# it takes, each a name or (name, overrides) where one use differs
_OPTIONS = {
    **dict.fromkeys(("--a", "--b", "--eps", "--family", "--lhs", "--limit", "--rhs", "--second",
                     "--set", "--space", "--t", "--text", "--vector", "--xi", "--zeta"),
                    {"required": True}),
    **dict.fromkeys(("--first", "--horizon", "--n"), {"type": _at_least(1), "required": True}),
    **dict.fromkeys(("--j", "--floor"), {"type": _at_least(2), "required": True}),
    "--coeffs": {"required": True, "help": "coord:value pairs, comma separated"},
    "--which": {"choices": ("outer", "whole", "union"), "required": True,
                "help": "refine the outer family, the whole bracket, or block unions"},
    "--budget": {"type": _at_least(1), "default": 60},
    "--seq": {},
    "--blocks": {},
}

# verb: (help, handler, {subcommand: flags})
_COMMANDS = {
    "schreier": ("family membership and enumeration", _cmd_schreier, {
        "member": ("--family", "--set"),
        "maximal": ("--family", "--first", "--horizon"),
        "mass": ("--family", "--coeffs"),
        "threshold": ("--xi", "--zeta", "--horizon"),
    }),
    "ordinal": ("ordinal arithmetic", _cmd_ordinal, {
        "add": ("--a", "--b"),
        "compare": ("--a", "--b"),
        "fundamental": ("--limit", "--n"),
        "parse": ("--text",),
    }),
    "norm": ("norm evaluation", _cmd_norm, {
        "eval": ("--space", "--vector"),
        "j": ("--space", "--vector", "--j"),
        "interval": ("--space", "--vector", "--n"),
    }),
    "scc": ("special convex combinations", _cmd_scc, {
        "basic": ("--xi", "--zeta", "--eps", ("--seq", {"default": "arith(2,1)"}), "--budget"),
        "blocks": ("--xi", "--zeta", "--eps", "--budget", "--blocks"),
    }),
    "smodel": ("spreading-model constants", _cmd_smodel, {
        "profile": ("--space", "--family", "--horizon", "--blocks"),
    }),
    "distort": ("distortion witness search", _cmd_distort, {
        "search": ("--space", ("--second", {"help": "a space or interval:<n>"}), "--family", "--t",
                   "--blocks"),
        "baseline": ("--space", "--second", ("--family", {"required": False, "default": "S(1)"}),
                     ("--t", {"required": False, "default": "101/100"}),
                     ("--n", {"required": False, "default": 2})),
    }),
    "verify": ("inclusion and construction checks", _cmd_verify, {
        "bracket": ("--lhs", "--rhs", "--horizon"),
        "pair-absorption": ("--xi", "--horizon"),
        "refinement": ("--which", "--xi", "--zeta", "--horizon", "--seq"),
    }),
    "diag": ("finite index diagnostics", _cmd_diag, {
        "alpha": ("--n", "--floor", "--horizon", "--blocks"),
    }),
}


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
    for verb, (summary, func, subcommands) in _COMMANDS.items():
        p = verbs.add_parser(verb, help=summary)
        p.set_defaults(func=func)
        if verb not in argv:
            continue
        sub = p.add_subparsers(dest="sub", required=True)
        for name, flags in subcommands.items():
            q = sub.add_parser(name)
            for flag in flags:
                flag, overrides = (flag, {}) if isinstance(flag, str) else flag
                q.add_argument(flag, **{**_OPTIONS[flag], **overrides})
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
