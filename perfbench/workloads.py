"""The benchmark's four workloads as fixed lists of ops.

An op is one library call (or one CLI subprocess) the single client makes
and waits for.  Every seed gives the same op list with the same shapes
(horizons, support sizes, families); the seed only draws the values inside
them, so a run's cost does not hinge on the seed.  Each op carries a check
and a summary that is compared with the golden values in `golden.json`:
on the default seed for every op, and on every seed for ops whose inputs
do not depend on it.  A summary holds mathematical results only (verdicts,
certified horizons, thresholds, norm values, counts over a fixed set),
never how much search found them or which of several valid witnesses was
found, so a faster search that is still correct passes.  Ops whose result
is such a witness have no summary; their check re-verifies the witness.

Checks use independent evidence where it exists: witnesses re-evaluated
(`NormResult.achieved`, `recheck_witness`), counterexamples confirmed
against both families by the exhaustive decider, and small inputs compared
with the oracles in `tests/oracles.py`.  The worker runs every check after
the pass, so checks warm no cache for the ops and add nothing to their
peak RSS.
"""

from __future__ import annotations

import itertools
import json
import random
import shlex
from fractions import Fraction

from schreier import analysis, constructions, families, norms, vectors
from schreier.ordinals import ONE, OMEGA, add, finite, omega_power

DEFAULT_SEED = 0


class Op:
    __slots__ = ("name", "run", "check", "summary", "fixed")

    def __init__(self, name, run, check, summary, fixed=False):
        self.name = name
        self.run = run          # () -> output; the timed call
        self.check = check      # output -> list of problems, empty when correct
        self.summary = summary  # output -> JSON-able mathematical result, or None
        self.fixed = fixed      # inputs do not depend on the seed


def build(workload, seed, oracles, runner=None):
    """The op list of a workload; `runner(argv)` executes CLI commands."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        return _cli_ops(rng, oracles, runner)
    return {"verify": _verify_ops, "norms": _norms_ops, "analysis": _analysis_ops}[workload](rng, oracles)


def q(x):
    """A value for JSON: rationals as exact 'p/q' strings, floats unchanged
    (golden floats are compared within FLOAT_RTOL)."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


# The Schlumprecht norm iterates to a tolerance of 1e-9, so another
# correct evaluation order may change the last digits of its value.
FLOAT_RTOL = 1e-8


# ---------------------------------------------------------------------------
# verify: horizon-certified family work, no norms
# ---------------------------------------------------------------------------

SWEEP_INDICES = (
    ("0", finite(0)), ("1", finite(1)), ("2", finite(2)), ("3", finite(3)),
    ("w", OMEGA), ("w+1", add(OMEGA, ONE)), ("w*2", omega_power(ONE, 2)),
    ("w^2", omega_power(finite(2))), ("w^w", omega_power(OMEGA)),
)


def _verify_ops(rng, oracles):
    F = families
    exhaustive = F.member_exhaustive
    S = F.S
    ops = []

    def report_check(expect_ok, horizon):
        def check(rep):
            problems = []
            if bool(rep.ok) != expect_ok or rep.budget_exhausted:
                problems.append(f"ok={rep.ok} budget_exhausted={rep.budget_exhausted}: {rep.detail}")
            if expect_ok and rep.certified_horizon != horizon:
                problems.append(f"certified to {rep.certified_horizon}, asked {horizon}")
            return problems
        return check

    def report_summary(rep):
        return {"ok": bool(rep.ok), "certified_horizon": rep.certified_horizon}

    # criterion-01 membership sweep: one op per (index, size)
    universe = range(1, 13)
    for label, xi in SWEEP_INDICES:
        fam = S(xi)
        for r in range(13):
            sets = list(itertools.combinations(universe, r))
            sample = rng.sample(sets, min(6, len(sets)))

            def check(out, fam=fam, sets=sets, sample=sample):
                problems = []
                for E, res in zip(sets, out):
                    if res.member and not F.recheck_witness(E, fam, res.witness):
                        problems.append(f"witness of {E} does not recheck")
                results = dict(zip(sets, out))
                for E in sample:
                    if results[E].member != exhaustive(E, fam):
                        problems.append(f"{E}: member disagrees with the exhaustive decider")
                return problems

            ops.append(Op(f"member-sweep S({label}) size {r}",
                          lambda fam=fam, sets=sets: [F.member(E, fam) for E in sets],
                          check, lambda out: sum(res.member for res in out), fixed=True))

    # horizon-certified thresholds
    for xi, zeta, horizon in ((finite(2), OMEGA, 16), (finite(3), OMEGA, 14)):
        def check(res, xi=xi, zeta=zeta, horizon=horizon):
            problems = []
            if res.certified_horizon != horizon or not res.minimal:
                problems.append(f"certified {res.certified_horizon}, minimal={res.minimal}")
            for n, E in res.rejections:
                if E[0] < n or not exhaustive(E, S(xi)) or exhaustive(E, S(zeta)):
                    problems.append(f"rejection of {n} by {E} does not recheck")
            return problems

        ops.append(Op(f"threshold({xi},{zeta},{horizon})",
                      lambda xi=xi, zeta=zeta, horizon=horizon: F.threshold_search(xi, zeta, horizon),
                      check, lambda res: {"n": res.n, "certified_horizon": res.certified_horizon},
                      fixed=True))

    # refinement of the outer family inside the evens, then a seeded spread of L
    H = 40
    target = F.SchreierFamily(add(ONE, OMEGA))

    def outer_lhs(L):
        return F.BracketFamily(F.RelabeledFamily(F.SchreierFamily(OMEGA), L), S(1))

    def refine_outer():
        L = F.construct_L(OMEGA, ONE, F.EVENS, H)
        return L, F.verify_bracket_inclusion(outer_lhs(L), target, H)

    def check_refine(out):
        L, rep = out
        values = L.values_within(1, H)
        problems = report_check(True, H)(rep)
        if any(v % 2 or b <= a for v, a, b in zip(values, [0] + values, values)):
            problems.append(f"L is not an increasing sequence of evens: {values}")
        return problems

    ops.append(Op(f"refine-outer(w,1,evens,{H})", refine_outer, check_refine,
                  lambda out: report_summary(out[1]), fixed=True))

    steps = [2 * rng.randint(0, 2) for _ in range(H)]

    def refine_spread():
        L = F.construct_L(OMEGA, ONE, F.EVENS, H)
        values, prev = [], 0
        for v, step in zip(L.values_within(1, H), steps):
            prev = max(v + step, prev + 2)
            values.append(prev)
        spread = F.IndexSequence.explicit(values)
        return spread, F.verify_bracket_inclusion(outer_lhs(spread), target, H)

    ops.append(Op(f"refine-outer-spread({H})", refine_spread, check_refine,
                  lambda out: report_summary(out[1])))

    def refine_whole():
        L3 = F.construct_L_bracket(finite(1), finite(1), H)
        lhs = F.RelabeledFamily(F.BracketFamily(S(1), S(1)), L3)
        return F.verify_bracket_inclusion(lhs, S(2), H)

    ops.append(Op(f"refine-whole(1,1,{H})", refine_whole, report_check(True, H), report_summary,
                  fixed=True))

    blocks, start, size = [], 2, 2
    while start + size - 1 <= H:
        blocks.append(tuple(range(start, start + size)))
        start, size = start + size, size + 1

    def union():
        N = F.construct_N(finite(1), finite(1), blocks, H)
        return F.verify_union_property(N, blocks, finite(1), finite(1))

    ops.append(Op(f"union(1,1,{H})", union, report_check(True, len(blocks)),
                  report_summary, fixed=True))

    ops.append(Op("inclusion S(1)<=S(2) at 15",
                  lambda: F.verify_bracket_inclusion(S(1), S(2), 15),
                  report_check(True, 15), report_summary, fixed=True))
    for xi in (1, 2):
        lhs = F.RelabeledFamily(F.BracketFamily(S(xi), F.A(2)), F.EVENS)
        ops.append(Op(f"pair-absorption({xi}) at 14",
                      lambda lhs=lhs, xi=xi: F.verify_bracket_inclusion(lhs, S(xi), 14),
                      report_check(True, 14), report_summary, fixed=True))

    # a false inclusion: the early-exit path must hand back a genuine counterexample
    lhs_f, rhs_f = S(3), S(OMEGA)

    def check_false(rep):
        problems = report_check(False, 14)(rep)
        E = rep.counterexample
        if E is None or not exhaustive(E, lhs_f) or exhaustive(E, rhs_f):
            problems.append(f"counterexample {E} does not confirm against both families")
        return problems

    ops.append(Op("false-inclusion S(3)<=S(w) at 14",
                  lambda: F.verify_bracket_inclusion(lhs_f, rhs_f, 14),
                  check_false, lambda rep: {"ok": bool(rep.ok)}, fixed=True))

    # maximal-set enumeration on a few families
    horizon = 14
    for label, fam, first in (("S(2)", S(2), 2), ("S(w)", S(OMEGA), 2), ("A(3)", F.A(3), 1),
                              ("S(1)[A(2)]", F.BracketFamily(S(1), F.A(2)), 2)):

        def check_enum(res, fam=fam, first=first):
            problems = []
            picked = random.Random(repr(res.sets[:3])).sample(res.sets, min(8, len(res.sets)))
            for E in picked:
                if E[0] != first or not exhaustive(E, fam):
                    problems.append(f"{E} is not a member with min {first}")
                for v in range(first + 1, horizon + 1):
                    if v not in E and exhaustive(tuple(sorted(E + (v,))), fam):
                        problems.append(f"{E} extends by {v}: not maximal")
                        break
            return problems

        ops.append(Op(f"enumerate-maximal {label} from {first} to {horizon}",
                      lambda fam=fam, first=first: F.enumerate_maximal(fam, first, horizon),
                      check_enum, lambda res: {"sets": len(res.sets), "all_truncated": res.all_truncated},
                      fixed=True))
    return ops


# ---------------------------------------------------------------------------
# norms: a few large exact evaluations
# ---------------------------------------------------------------------------


def random_vector(rng, size):
    """`size` coordinates drawn from [size, 3*size), so every position is at
    least the support size and the Tsirelson DP explores every chunk count:
    the cost depends on the size, not on which coordinates were drawn."""
    coords = sorted(rng.sample(range(size, 3 * size), size))
    return vectors.Vector.from_dict(
        {c: Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 2, 4))) for c in coords})


def _bounds_check(x, value, slack=0):
    if not x.linf() - slack <= value <= x.l1() + slack:
        return [f"value {value} outside [sup|x_i|, l1] = [{x.linf()}, {x.l1()}]"]
    return []


def _exact_check(x, res, expect_converged=True):
    problems = _bounds_check(x, res.value)
    if not res.exact or res.converged != expect_converged:
        problems.append(f"exact={res.exact} converged={res.converged}")
    if not res.achieved(x):
        problems.append("witness does not re-evaluate to the value")
    return problems


def _norms_ops(rng, oracles):
    N = norms
    X1 = N.MixedSchreierSpace(finite(1))
    ops = []

    def norm_op(label, space, x, check):
        ops.append(Op(f"{label} #{len(ops)}", lambda: N.norm(space, x), check,
                      lambda res: q(res.value)))

    def check_x(res, x):
        problems = _exact_check(x, res)
        if isinstance(res.witness, vectors.SumNode):
            rep = vectors.validate_functional(res.witness, finite(1))
            if not rep.ok:
                problems.append(f"witness is not a norming functional: {rep.detail}")
        return problems

    def cover_op(label, size):
        x = random_vector(rng, size)
        ops.append(Op(f"{label}(T, 3) support {size} #{len(ops)}",
                      lambda: getattr(N, label)(N.T, x, 3),
                      lambda res: [] if res.achieved(x) else ["witness does not re-evaluate"],
                      lambda res: q(res.value)))

    # the few large evaluations: the top 5% of ops
    for size in (12, 13, 14):
        x = random_vector(rng, size)
        norm_op(f"T support {size}", N.T, x, lambda res, x=x: _exact_check(x, res))
    for size in (9, 10):
        x = random_vector(rng, size)
        norm_op(f"X(1) support {size}", X1, x, lambda res, x=x: check_x(res, x))
    schlumprecht = N.SchlumprechtSpace()

    def check_s(res, x):
        return _bounds_check(x, res.value, schlumprecht.tolerance)

    x = random_vector(rng, 16)
    norm_op("Schlumprecht support 16", schlumprecht, x, lambda res, x=x: check_s(res, x))
    # 60-75 ms evaluations, so that the 90th percentile op is always one of them
    for _ in range(12):
        x = random_vector(rng, 11)
        norm_op("T support 11", N.T, x, lambda res, x=x: _exact_check(x, res))
    for label in ("interval_norm", "norm_j"):
        cover_op(label, 10)
    x = random_vector(rng, 14)
    norm_op("Schlumprecht support 14", schlumprecht, x, lambda res, x=x: check_s(res, x))
    x = random_vector(rng, 8)
    norm_op("X(1) support 8", X1, x, lambda res, x=x: check_x(res, x))
    # below them
    x = random_vector(rng, 12)
    norm_op("Schlumprecht support 12", schlumprecht, x, lambda res, x=x: check_s(res, x))
    for label in ("interval_norm", "norm_j"):
        cover_op(label, 8)
    # many small evaluations, each cross-checked by an independent oracle;
    # most have one size, so that the median op is always one of them
    for size in (4,) * 15 + (5,) * 15 + (6,) * 40 + (7,) * 10:
        x = random_vector(rng, size)

        def check_small(res, x=x):
            problems = _exact_check(x, res)
            if res.value != oracles.tsirelson_oracle(x):
                problems.append("disagrees with tsirelson_oracle")
            return problems

        norm_op(f"T support {size}", N.T, x, check_small)
    for size in (3, 4, 5) * 3 + (4,):
        x = random_vector(rng, size)

        def check_small_x(res, x=x):
            problems = _exact_check(x, res)
            if len(x.support()) <= 4:
                ok, detail = oracles.wmax_certificate(X1, x)
                if not ok:
                    problems.append(f"wmax_certificate: {detail}")
            return problems

        norm_op(f"X(1) support {size}", X1, x, check_small_x)
    return ops


# ---------------------------------------------------------------------------
# analysis: many small norm calls through constructions and analysis
# ---------------------------------------------------------------------------


def _random_blocks(rng, count):
    """Blocks of widths 1, 2, 1, 2, ...: the shape is fixed, the values are drawn."""
    blocks, start = [], 1
    for k in range(count):
        width = 1 + k % 2
        blocks.append(vectors.Vector.from_dict(
            {start + i: Fraction(rng.randint(1, 4), rng.choice((1, 2))) for i in range(width)}))
        start += width
    return vectors.BlockSequence(tuple(blocks))


def _analysis_ops(rng, oracles):
    An, C, F, N = analysis, constructions, families, norms
    ops = []

    horizon = 6
    # 40 A(2) profiles of about 4 ms hold the median op, 25 A(3) profiles of
    # about 20 ms the 90th percentile op.  The cost of a profile depends on
    # the drawn values, so their blocks are drawn once for every seed: the
    # percentiles then measure the program, not the draw.
    fixed_rng = random.Random("analysis:profiles")
    for label, fam, count, draw in (("S(1)", F.S(1), 10, rng), ("A(2)", F.A(2), 40, fixed_rng),
                                    ("A(3)", F.A(3), 25, fixed_rng)):
        for _ in range(count):
            bs = _random_blocks(draw, horizon + 1)

            def check(est, bs=bs):
                problems = []
                if not est.reverify(N.T, bs):
                    problems.append("a stored spreading witness does not re-evaluate")
                block_norms = [oracles.tsirelson_oracle(b) for b in bs.blocks[:horizon]]
                if est.l1_upper != max(block_norms) or est.c0_lower != min(block_norms):
                    problems.append("block-norm constants disagree with tsirelson_oracle")
                if not est.l1_lower <= est.l1_upper:
                    problems.append("l1 lower constant above the upper one")
                return problems

            ops.append(Op(f"spreading_profile(T, {label}) #{len(ops)}",
                          lambda bs=bs, fam=fam: An.spreading_profile(N.T, bs, fam, horizon), check,
                          lambda est: [q(est.l1_upper), q(est.c0_lower), q(est.c0_upper)],
                          fixed=draw is fixed_rng))

    basis24 = vectors.BlockSequence.basis(24)
    for n, t in ((2, Fraction(6, 5)), (2, Fraction(100)), (3, Fraction(100)), (4, Fraction(100))):
        spec = An.IntervalNormSpec(n)

        def check(rep, spec=spec, t=t):
            if t == Fraction(6, 5):
                if rep.found is None or not rep.found.reverify(N.T, spec, F.S(1)):
                    return ["no re-verifiable distortion witness on the Tsirelson basis"]
                return [] if rep.found.ratio > t else [f"ratio {rep.found.ratio} not above {t}"]
            return [] if rep.found is None and rep.best_ratio >= 1 else [f"unexpected result {rep.best_ratio}"]

        ops.append(Op(f"distortion_witness(T, interval:{n}, t={t})",
                      lambda spec=spec, t=t: An.distortion_witness(N.T, spec, F.S(1), basis24, t),
                      check, lambda rep: {"found": True} if rep.found else {"best": q(rep.best_ratio)},
                      fixed=True))
    for space, name in ((N.L1, "l1"), (N.C0, "c0")):
        for n in (2, 3, 4):
            def baseline(space=space, n=n):
                return [An.distortion_witness(space, An.IntervalNormSpec(n), F.S(1), corpus,
                                              Fraction(101, 100), corpus_label=label)
                        for label, corpus in An.standard_corpus(space, n)]

            ops.append(Op(f"baseline {name} interval:{n}", baseline,
                          lambda reps: [f"distortion found in {r.corpus_label}" for r in reps if r.found],
                          lambda reps: [q(r.best_ratio) for r in reps], fixed=True))

    def check_blocking(cert):
        t = C.rational_sqrt_below(Fraction(2))
        if isinstance(cert, C.PropertyPn):
            return [] if cert.verified_constant <= t else [f"constant {cert.verified_constant} above {t}"]
        problems = []
        for E, coeffs, value in cert.combinations:
            combo = vectors.combine([basis30.blocks[i - 1] for i in E], coeffs)
            if not value < 1 / t or N.norm(N.T, combo).value != value:
                problems.append(f"combination on {E} does not recheck below 1/t")
        return problems

    basis30 = vectors.BlockSequence.basis(30)
    ops.append(Op("james_blocking_step(T, basis 30)",
                  lambda: C.james_blocking_step(N.T, basis30, 1, Fraction(2), 30), check_blocking,
                  lambda cert: type(cert).__name__, fixed=True))

    cases = []
    for a in range(2, 7):
        for _ in range(3):
            cases.append((finite(1), finite(0), Fraction(1, rng.randint(3, 5)), a, 1))
    for a in (2, 3):
        for eps in (Fraction(1, 2), Fraction(2, 5)):
            cases.append((finite(2), finite(0), eps, a, 1))
            cases.append((finite(2), finite(1), eps, a, 1))
    for step in (1, 2):
        cases.append((OMEGA, finite(0), Fraction(1, 3), 2, step))
    for a in range(2, 12):
        cases.append((finite(1), finite(0), Fraction(1, a + 1), a + 1, 1))
    for xi, zeta, eps, a, step in cases:
        M = F.IndexSequence.arithmetic(a, step)
        ops.append(Op(f"scc_basic({xi},{zeta},{eps},arith({a},{step})) #{len(ops)}",
                      lambda xi=xi, zeta=zeta, eps=eps, M=M: C.scc_basic(xi, zeta, eps, M),
                      lambda res, eps=eps: [] if res.reverify() and res.mass_certificate[0] < eps
                      else ["combination certificate does not re-verify"], None))

    for n, k in ((1, 4), (2, 6), (3, 9)):
        def check(rep, n=n, k=k):
            problems = []
            if not rep.membership.ok or rep.budget_exhausted or rep.achieved_ratio is None:
                problems.append("experiment did not complete with an admissible index set")
            if rep.formula_value != An.predicted_interval_ratio(n, k, Fraction(1, 10)):
                problems.append("formula value differs from the closed form")
            return problems

        ops.append(Op(f"interval_distortion_experiment(1,{n},{k})",
                      lambda n=n, k=k: An.interval_distortion_experiment(finite(1), n, k, Fraction(1, 10)),
                      check, lambda rep: q(rep.achieved_ratio), fixed=True))
    return ops


# ---------------------------------------------------------------------------
# cli: the quick README commands as fresh subprocesses
# ---------------------------------------------------------------------------


def _vector_text(x):
    return ",".join(f"{c}:{q(v)}" for c, v in x.entries)


def cli_commands(rng):
    """The 13 README commands that finish quickly, values drawn from rng."""
    member_set = sorted(rng.sample(range(2, 13), 5))
    first = rng.randint(1, 3)
    coeffs = [Fraction(rng.randint(1, 6), 12) for _ in range(6)]
    c1, c2, c3 = (rng.randint(1, 4) for _ in range(3))
    x3 = random_vector(rng, 3)
    x4 = random_vector(rng, 4)
    a = rng.choice((2, 3))
    return [
        f'schreier member --family "S(2)" --set "{",".join(map(str, member_set))}"',
        f'schreier maximal --family "A(2)" --first {first} --horizon {first + 3}',
        'schreier mass --family "S(1)" --coeffs "'
        + ",".join(f"{i + 2}:{q(c)}" for i, c in enumerate(coeffs)) + '"',
        f'ordinal add --a "w^2*{c1}+w*{c2}" --b "w^2*{c3}"',
        f'norm eval --space T --vector "{_vector_text(x3)}"',
        f'norm interval --space T --vector "{_vector_text(x4)}" --n 2',
        f'scc basic --xi 2 --zeta 1 --eps 1/3 --seq "arith({a},1)"',
        'smodel profile --space T --family "S(1)" --horizon 8',
        'distort search --space T --second interval:2 --family "S(1)" --t 6/5',
        'distort baseline --space c0 --second interval:3 --n 3',
        f'verify pair-absorption --xi {rng.choice((1, 2))} --horizon 14',
        'verify bracket --lhs "S(1)" --rhs "S(2)" --horizon 15',
        'diag alpha --n 1 --floor 4 --horizon 8',
    ]


def _opt(argv, flag):
    return argv[argv.index(flag) + 1]


def _cli_check(argv, code, values, oracles):
    """Recompute each command's answer independently where one exists."""
    from schreier import parsing

    exhaustive = families.member_exhaustive
    verb = " ".join(argv[:2])
    if code != 0:
        return [f"exit code {code}"]
    if verb == "schreier member":
        E = parsing.parse_set(_opt(argv, "--set"))
        return [] if values["member"] == exhaustive(E, parsing.parse_family(_opt(argv, "--family"))) else [
            "membership disagrees with the exhaustive decider"]
    if verb == "schreier maximal":
        first, horizon = int(_opt(argv, "--first")), int(_opt(argv, "--horizon"))
        fam = parsing.parse_family(_opt(argv, "--family"))
        members = [(first,) + rest for r in range(horizon)
                   for rest in itertools.combinations(range(first + 1, horizon + 1), r)
                   if exhaustive((first,) + rest, fam)]
        maximal = [E for E in members if not any(set(E) < set(G) for G in members)]
        got = [parsing.parse_set(s) for s in values["sets"]]
        return [] if sorted(got) == sorted(maximal) else ["maximal sets differ from brute force"]
    if verb == "schreier mass":
        coeffs = {int(c): Fraction(v) for c, v in (t.split(":") for t in _opt(argv, "--coeffs").split(","))}
        fam = parsing.parse_family(_opt(argv, "--family"))
        support = sorted(coeffs)
        best = max(sum((coeffs[i] for i in G), Fraction(0)) for r in range(len(support) + 1)
                   for G in itertools.combinations(support, r) if exhaustive(G, fam))
        return [] if Fraction(values["mass"]) == best else ["mass differs from brute force"]
    if verb == "ordinal add":
        c1, c2 = (int(t.split("*")[1]) for t in _opt(argv, "--a").split("+"))
        c3 = int(_opt(argv, "--b").split("*")[1])
        return [] if values["sum"] == f"w^2*{c1 + c3}" else [f"sum {values['sum']}"]
    if verb in ("norm eval", "norm interval"):
        x = parsing.parse_vector(_opt(argv, "--vector"))
        oracle = oracles.tsirelson_oracle
        expected = oracle(x)
        if verb == "norm interval":  # --n 2: the best split into at most two intervals
            pos = x.support()
            expected = max([expected] + [oracle(x.restrict(pos[:m])) + oracle(x.restrict(pos[m:]))
                                         for m in range(1, len(pos))])
        return [] if Fraction(values["value"]) == expected else ["value disagrees with tsirelson_oracle"]
    if verb == "scc basic":
        vec = parsing.parse_vector(values["vector"])
        problems = [] if Fraction(values["mass"]) < Fraction(1, 3) else ["mass not below eps"]
        if sum(v for _, v in vec.entries) != 1 or any(v < 0 for _, v in vec.entries):
            problems.append("not a convex combination")
        return problems
    if verb == "smodel profile":  # on the T basis; the searched l1 constant bounds the true one >= 1/2
        ok = values["l1_upper"] == values["c0_lower"] == "1/1"
        return [] if ok and Fraction(1, 2) <= Fraction(values["l1_lower"]) <= 1 else ["constants out of range"]
    if verb == "distort search":
        return [] if values["found"] and Fraction(values["best_ratio"]) > Fraction(_opt(argv, "--t")) else [
            "no witness above t"]
    if verb == "distort baseline":
        return [] if values["all_clear"] else ["baseline found a distortion pair"]
    if verb in ("verify pair-absorption", "verify bracket"):
        return [] if values["ok"] else [f"verdict {values['ok']}"]
    if verb == "diag alpha":
        return [] if Fraction(values["max_average_mass"]) > 0 else ["no average mass found"]
    return [f"no check for {verb}"]


# The mathematical results of each command; searched values, witnesses and
# search statistics in its report are checked or left out, not pinned.
CLI_RESULT_KEYS = {
    "schreier member": ("member",),
    "schreier maximal": ("sets", "truncated"),
    "schreier mass": ("mass",),
    "ordinal add": ("sum",),
    "norm eval": ("value",),
    "norm interval": ("value",),
    "scc basic": (),
    "smodel profile": ("l1_upper", "c0_lower", "c0_upper"),
    "distort search": ("found",),
    "distort baseline": ("all_clear",),
    "verify pair-absorption": ("ok",),
    "verify bracket": ("ok",),
    "diag alpha": ("max_average_mass",),
}


def _cli_ops(rng, oracles, runner):
    ops = []
    for line in cli_commands(rng):
        argv = shlex.split(line)

        def run(argv=argv):
            return runner(argv)

        def check(out, argv=argv):
            code, stdout = out
            try:
                report = json.loads(stdout)
            except ValueError:
                return [f"exit code {code}, output is not one JSON report"]
            return _cli_check(argv, code, report["values"], oracles)

        def summary(out, keys=CLI_RESULT_KEYS[" ".join(argv[:2])]):
            code, stdout = out
            values = json.loads(stdout)["values"]
            return {"code": code, **{k: values[k] for k in keys}}

        ops.append(Op(" ".join(argv[:2]), run, check, summary))
    return ops
