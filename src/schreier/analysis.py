"""Measurement and witness search over block sequences.

Estimators here quantify how close a block sequence is to the l1 or c0
unit bases over coefficient sets drawn from a family, search for distortion
witness pairs under a second norm, and run the finite diagnostics that
stand in for the infinitary indices.  All quantifiers over "all block
sequences" are replaced by declared corpora; every report names its corpus
and the horizon it was certified to.

Exactness policy: upper c0 and l1 constants are exact (extreme-point
arguments over the unit balls); the lower l1 constant is a non-convex
minimum, reported as the best value found by structured search with its
witness, never as a claimed global optimum.

Each search evaluates a vector at most once.  `spreading_profile` keeps
the exact norms of the all-ones sums over its index sets, a block's own
norm on a singleton, and the uniform l1 candidate on E reads 1/|E| times
the value on E.  That is positive homogeneity, |cx| = c|x|, which holds
exactly in `Fraction` arithmetic.  Only exact results are kept: a float
norm (lp, Schlumprecht) or an X(xi) norm whose budget ran out is not, so
such a candidate evaluates its own combination, bit for bit as before.
The l1 descent evaluates no coefficient tuple twice, and in T, l1 and c0
skips a step unevaluated once the block bound max_b c_b |b|, read from the
exact block norms in `ones`, reaches the best: 1-unconditionality makes it
a lower bound, and a step is taken only on a strict improvement.
`distortion_witness` evaluates each candidate's second norm once, on its
first use, and its rapidly increasing sums read the l1 averages already
normed for the same window.  The memos live for one call.  Every search
here reads only values, exactness and convergence, so it calls the
witness-free evaluation `norms._norm` and builds no witness tree; every
scale it divides by and every ratio it reports is read through
`norms._exact`, which refuses a float or budget-limited value.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .families import (
    Family,
    FinSet,
    MembershipResult,
    SchreierFamily,
    enumerate_maximal,
    iter_maximal,
    member,
)
from .norms import (
    C0Space,
    L1Space,
    MixedSchreierSpace,
    NormSpace,
    TsirelsonSpace,
    _admissible_sum,
    _exact,
    _norm,
)
from .ordinals import ONE, Ordinal, _stage, add, omega_power
from .reports import BudgetExhausted, Factory, Record, WitnessReport
from .vectors import BlockSequence, Vector, combine

# rounds of the exact mass-shifting descent that refines the l1 lower constant
L1_DESCENT_ROUNDS = 3
# uniform candidates `l1_lower_candidates` takes per starting index
L1_CANDIDATES_PER_FIRST = 24
# length of the block sequences in `standard_corpus`
CORPUS_LENGTH = 24
# `interval_distortion_experiment` gives up when its supports pass this
INTERVAL_EXPERIMENT_HORIZON = 64
# the samples of `ratio_bound_check` come from this seed, over index sets
# within this horizon
RATIO_CHECK_SEED = 0
RATIO_CHECK_HORIZON = 12
# `alpha_index_diagnostic` maximises over this many last blocks in the horizon
ALPHA_TARGET_BLOCKS = 3


# ---------------------------------------------------------------------------
# second-norm specifications
# ---------------------------------------------------------------------------


class IntervalNormSpec(Record, frozen=True):
    """|.|_n in the ambient space: sup of sums over n successive intervals."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("interval norm needs n >= 1")


SecondNorm = Union[NormSpace, IntervalNormSpec]


def second_norm_value(space: NormSpace, spec: SecondNorm, x: Vector) -> Fraction:
    """The second norm of x: `spec`, or the interval norm it names in
    `space`, read through `norms._exact`: a ratio of floats or of lower
    bounds is no exact ratio."""
    space, n = (space, spec.n) if isinstance(spec, IntervalNormSpec) else (spec, 0)
    return _exact(space, x, n)


# ---------------------------------------------------------------------------
# spreading-model constants
# ---------------------------------------------------------------------------


class SpreadingEstimate(Record):
    family: Family
    horizon: int
    l1_lower: Fraction
    l1_upper: Fraction
    c0_lower: Fraction
    c0_upper: Fraction
    witnesses: Dict[str, Tuple[FinSet, Tuple[Fraction, ...]]] = Factory(dict)

    def reverify(self, space: NormSpace, bs: BlockSequence) -> bool:
        """Every stored witness must re-evaluate to its bound."""
        for name, (E, coeffs) in self.witnesses.items():
            value = _norm(space, combine([bs.blocks[i - 1] for i in E], coeffs)).value
            expected = getattr(self, name)
            if value != expected:
                return False
        return True


def _maximal_index_sets(fam: Family, limit: int) -> List[FinSet]:
    out: List[FinSet] = []
    for first in range(1, limit + 1):
        out.extend(enumerate_maximal(fam, first, limit).sets)
    return out


def _descend_l1(
    space: NormSpace,
    E: FinSet,
    vectors: List[Vector],
    start: List[Fraction],
    value,
    ones: Dict[FinSet, Fraction],
):
    """Local mass-shifting descent on the simplex, exact arithmetic, from
    `start` of known norm `value`.

    No coefficient tuple is evaluated twice.  Skipping one already seen
    keeps the path: it was not taken when seen, so its value was at least
    the best then, and the best only falls under the strict `<`.  A tuple
    whose nonzero coefficients all equal c is c times the all-ones sum over
    their indices, and reads its value from `ones` when that holds it.

    In T, l1 and c0 a tuple is skipped unevaluated once the block bound
    max_b c_b |b|, read from the exact block norms `ones[(b,)]`, reaches
    the best: these norms are exact and 1-unconditional, so |sum c_b b| >=
    c_b |b| for every block b, and the step could not be taken under the
    strict `<`.  X(xi) evaluates every tuple: a value whose budget ran out
    is only a lower bound, which a skip could replace.
    """
    coeffs = list(start)
    # the exact block norms, in the spaces where they bound every combination
    bounded = isinstance(space, (TsirelsonSpace, L1Space, C0Space))
    block_norms = [ones.get((e,)) for e in E] if bounded else []
    seen = {tuple(coeffs)}
    steps = [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    for _ in range(L1_DESCENT_ROUNDS):
        improved = False
        for step in steps:
            for i in range(len(coeffs)):
                for j in range(len(coeffs)):
                    if i == j or coeffs[i] < step:
                        continue
                    cand = list(coeffs)
                    cand[i] -= step
                    cand[j] += step
                    key = tuple(cand)
                    if key in seen:
                        continue
                    seen.add(key)
                    if any(c * b >= value for c, b in zip(key, block_norms) if b is not None):
                        continue
                    scales = set(key) - {0}
                    sub = tuple(e for e, c in zip(E, key) if c)
                    if len(scales) == 1 and sub in ones:
                        v = ones[sub] * scales.pop()
                    else:
                        v = _norm(space, combine(vectors, cand)).value
                    if v < value:
                        coeffs, value = cand, v
                        improved = True
        if not improved:
            break
    return value, coeffs


def l1_lower_candidates(
    space: NormSpace,
    bs: BlockSequence,
    fam: Family,
    min_first: int,
    limit: int,
    *,
    ones: Optional[Dict[FinSet, Fraction]] = None,
) -> Iterator[Tuple[FinSet, Tuple[Fraction, ...], Fraction]]:
    """Structured candidate combinations on the l1 sphere: uniform
    coefficients over admissible index sets, lazily: the first
    L1_CANDIDATES_PER_FIRST DFS leaves of `iter_maximal` for each starting
    index from min_first to limit, which need not be maximal (the
    enumeration is exponential at large horizons; the cap keeps the search
    structured, not exhaustive, which the reported estimates already
    acknowledge).  Needs limit <= len(bs): each leaf lies in
    [first, limit], and its indices address blocks of bs.

    `ones`, a memo that changes no result, holds exact norms of all-ones
    sums: the uniform combination on E is 1/|E| times the all-ones sum
    over E, so it reads its value from `ones[E]` when that holds it."""
    if ones is None:
        ones = {}
    for first in range(min_first, limit + 1):
        for E in itertools.islice(iter_maximal(fam, first, limit), L1_CANDIDATES_PER_FIRST):
            u = Fraction(1, len(E))
            coeffs = tuple(u for _ in E)
            if E in ones:
                value = ones[E] / len(E)
            else:
                value = _norm(space, combine([bs.blocks[i - 1] for i in E], coeffs)).value
            yield E, coeffs, value


def l1_lower_constant(
    space: NormSpace,
    bs: BlockSequence,
    fam: Family,
    horizon: int,
    min_first: int = 1,
    *,
    ones: Optional[Dict[FinSet, Fraction]] = None,
) -> Tuple[Fraction, Tuple[FinSet, Tuple[Fraction, ...]]]:
    """Best (smallest) norm found on the l1 sphere over admissible index sets.

    This is an upper estimate of the true infimum, with the witness
    achieving it; uniform patterns are scanned first and the best is
    refined by exact local descent.  Both read the memo `ones` of
    `l1_lower_candidates`.
    """
    if ones is None:
        ones = {}
    limit = min(horizon, len(bs))
    best: Optional[Fraction] = None
    best_witness: Tuple[FinSet, Tuple[Fraction, ...]] = ((), ())
    for E, coeffs, value in l1_lower_candidates(space, bs, fam, min_first, limit, ones=ones):
        if best is None or value < best:
            best, best_witness = value, (E, coeffs)
    if best is None:
        raise ValueError("no admissible index set within the horizon")
    E, coeffs = best_witness
    vecs = [bs.blocks[i - 1] for i in E]
    refined, new_coeffs = _descend_l1(space, E, vecs, list(coeffs), best, ones)
    if refined < best:
        best, best_witness = refined, (E, tuple(new_coeffs))
    return best, best_witness


def spreading_profile(
    space: NormSpace, bs: BlockSequence, fam: Family, horizon: int
) -> SpreadingEstimate:
    """Exact upper constants, exact c0 lower constant, and searched l1
    lower constant over the family within the horizon.

    l1_upper is the max block norm (extreme points of the l1 ball) and
    c0_upper the max over maximal sets of the all-ones sum (extreme points
    of the sup ball plus 1-unconditionality); c0_lower is the min block
    norm.  l1_lower comes from `l1_lower_constant` and is an upper estimate
    of the infimum with its witness.  The block norms and the all-ones
    sums, exact ones kept in `ones`, are each evaluated once for both.
    """
    if horizon < 1:
        raise ValueError(f"the horizon must be at least 1, got {horizon}")
    if horizon > len(bs):
        raise ValueError("horizon exceeds available blocks")
    block_results = [_norm(space, b) for b in bs.blocks[:horizon]]
    block_norms = [r.value for r in block_results]
    i_up = max(range(horizon), key=lambda i: block_norms[i])
    i_dn = min(range(horizon), key=lambda i: block_norms[i])
    witnesses = {
        "l1_upper": ((i_up + 1,), (Fraction(1),)),
        "c0_lower": ((i_dn + 1,), (Fraction(1),)),
    }
    # a singleton's all-ones sum is its block
    ones = {(i + 1,): r.value for i, r in enumerate(block_results) if r.exact}
    c0_up = Fraction(0)
    c0_wit = ((), ())
    for E in _maximal_index_sets(fam, horizon):
        all_ones = tuple(Fraction(1) for _ in E)
        v = ones.get(E)
        if v is None:
            r = _norm(space, combine([bs.blocks[i - 1] for i in E], all_ones))
            v = r.value
            if r.exact:
                ones[E] = v
        if v > c0_up:
            c0_up, c0_wit = v, (E, all_ones)
    witnesses["c0_upper"] = c0_wit
    l1_low, l1_wit = l1_lower_constant(space, bs, fam, horizon, ones=ones)
    witnesses["l1_lower"] = l1_wit
    return SpreadingEstimate(
        family=fam,
        horizon=horizon,
        l1_lower=l1_low,
        l1_upper=block_norms[i_up],
        c0_lower=block_norms[i_dn],
        c0_upper=c0_up,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# distortion witness search
# ---------------------------------------------------------------------------


class DistortionWitness(Record):
    index_set: FinSet
    membership: MembershipResult
    x: Vector
    y: Vector
    ratio: Fraction
    x_second: Fraction
    y_second: Fraction
    x_label: str
    y_label: str

    def reverify(self, space: NormSpace, spec: SecondNorm, fam: Family) -> bool:
        if not member(self.index_set, fam).member:
            return False
        if _norm(space, self.x).value != 1 or _norm(space, self.y).value != 1:
            return False
        rx = second_norm_value(space, spec, self.x)
        ry = second_norm_value(space, spec, self.y)
        return rx / ry == self.ratio


class DistortionReport(Record):
    found: Optional[DistortionWitness]
    best_ratio: Fraction
    best_pair: Optional[Tuple[str, str]]
    corpus_label: str
    candidates_tried: int
    t: Fraction


def _candidate_vectors(space: NormSpace, bs: BlockSequence) -> List[Tuple[str, Vector, FinSet]]:
    """Structured candidates: normalised single blocks, l1 averages of a few
    window sizes, and short rapidly-increasing average sums, which read the
    windows the averages already normed."""
    from .constructions import build_l1_average, build_ris

    out: List[Tuple[str, Vector, FinSet]] = []
    for i, block in enumerate(bs.blocks[:8], 1):
        out.append((f"block[{i}]", block * (Fraction(1) / _exact(space, block)), (i,)))
    normed: dict = {}
    for k in (2, 3, 4, 6, 8):
        if k > len(bs):
            continue
        try:
            vec, info = build_l1_average(space, k, bs, Fraction(0), normed=normed)
        except BudgetExhausted:
            continue
        out.append((f"avg[{k}]", vec, info["indices"]))
    for sizes in ((2, 4), (2, 6), (3, 8)):
        if sizes[-1] > len(bs):
            continue
        try:
            ris = build_ris(space, sizes, bs, normed=normed)
        except (BudgetExhausted, ValueError):
            continue
        total = combine(ris.blocks, [1] * len(ris.blocks))
        indices = ris.origin(range(1, len(ris) + 1))
        out.append((f"ris{sizes}", total * (Fraction(1) / _exact(space, total)), indices))
    return out


def distortion_witness(
    space: NormSpace,
    spec: SecondNorm,
    fam: Family,
    bs: BlockSequence,
    t: Fraction,
    corpus_label: str = "ad-hoc",
) -> DistortionReport:
    """Search for a unit pair in a common family span with second-norm
    ratio above t; report the best ratio found otherwise.

    Candidates are structured (single blocks, l1 averages, rapidly
    increasing sums) and every pair is constrained to an index set passing
    the family membership check.  All values exact; the first witness
    exceeding t is returned.
    """
    t = Fraction(t)
    if t <= 1:
        raise ValueError("distortion threshold must exceed 1")
    candidates = _candidate_vectors(space, bs)
    # each candidate's second norm, evaluated on its first use
    seconds: List[object] = [None] * len(candidates)

    def second(k: int):
        if seconds[k] is None:
            seconds[k] = second_norm_value(space, spec, candidates[k][1])
        return seconds[k]

    best_ratio = Fraction(0)
    best_pair: Optional[Tuple[str, str]] = None
    tried = 0
    found: Optional[DistortionWitness] = None
    pairs = itertools.product(enumerate(candidates), repeat=2)
    for (kx, (lx, vx, ix)), (ky, (ly, vy, iy)) in pairs:
        combined = tuple(sorted(set(ix) | set(iy)))
        membership = member(combined, fam)
        if not membership.member:
            continue
        # a second norm of a nonzero vector is positive
        rx = second(kx)
        ry = second(ky)
        tried += 1
        ratio = rx / ry
        if ratio > best_ratio:
            best_ratio, best_pair = ratio, (lx, ly)
        if ratio > t and found is None:
            found = DistortionWitness(
                index_set=combined,
                membership=membership,
                x=vx,
                y=vy,
                ratio=ratio,
                x_second=rx,
                y_second=ry,
                x_label=lx,
                y_label=ly,
            )
            break
    return DistortionReport(
        found=found,
        best_ratio=best_ratio,
        best_pair=best_pair,
        corpus_label=corpus_label,
        candidates_tried=tried,
        t=t,
    )


def standard_corpus(space: NormSpace, n: int) -> List[Tuple[str, BlockSequence]]:
    """The declared test corpus of block sequences for baseline controls.

    For the closed-form spaces the corpus holds the sequences on which the
    classical non-distortability argument stabilises the interval norms:
    the basis for l1 (interval norms are additive there), and blockings by
    runs of length n for c0, where |block|_n saturates at n and every
    normalised combination has the same interval norm.  Reports quote the
    corpus label.
    """
    if isinstance(space, C0Space):
        runs = []
        pos = 1
        while len(runs) < CORPUS_LENGTH // max(n, 1) and pos + n - 1 <= CORPUS_LENGTH:
            runs.append(
                Vector.from_dict({c: Fraction(1) for c in range(pos, pos + n)})
            )
            pos += n
        return [
            (f"c0-saturated-runs(n={n})", BlockSequence(tuple(runs))),
        ]
    if isinstance(space, L1Space):
        return [
            ("l1-basis", BlockSequence.basis(CORPUS_LENGTH)),
        ]
    return [("basis", BlockSequence.basis(CORPUS_LENGTH))]


# ---------------------------------------------------------------------------
# interval-norm distortion experiment
# ---------------------------------------------------------------------------


class IntervalExperimentReport(Record):
    xi: Ordinal
    n: int
    k: int
    eps: Fraction
    formula_value: Fraction
    achieved_ratio: Optional[Fraction]
    membership: WitnessReport
    details: Dict[str, object]
    budget_exhausted: bool = False


def predicted_interval_ratio(n: int, k: int, eps: Fraction) -> Fraction:
    """(n / (1+eps)^2) * (k / (k + 2n)), exactly."""
    eps = Fraction(eps)
    return Fraction(n) / (1 + eps) ** 2 * Fraction(k, k + 2 * n)


def interval_distortion_experiment(
    xi: Ordinal, n: int, k: int, eps: Fraction
) -> IntervalExperimentReport:
    """Desk-scale interval-norm distortion run in the mixed Schreier space.

    Builds a k-term sum of basis blocks (the l1-flavoured side) and an
    n-term spread sum (the c0-flavoured side) far enough out that the
    combined index set is admissible one level above the space's family;
    computes the interval-norm ratio exactly and reports it next to the
    formula value without asserting attainment.  The measured l1/c0
    quality of both sides is included so shortfalls are attributable.
    """
    eps = Fraction(eps)
    if k < n:
        raise ValueError("need k >= n")
    space = MixedSchreierSpace(xi)
    formula = predicted_interval_ratio(n, k, eps)
    start = k + 2 * n
    y_bar = Vector.from_dict({start + i: Fraction(1) for i in range(k)})
    z_positions = [start + k - 1 + 2 * (i + 1) for i in range(n)]
    z_bar = Vector.from_dict({c: Fraction(1) for c in z_positions})
    combined = tuple(sorted(y_bar.support() + z_bar.support()))
    target = SchreierFamily(add(omega_power(xi), ONE))
    membership = member(combined, target)
    mreport = WitnessReport(
        ok=membership.member,
        detail="combined index set admissible one level up"
        if membership.member
        else "combined index set escapes the target family",
        witness=membership.witness,
        counterexample=None if membership.member else combined,
        certified_horizon=combined[-1],
    )
    if combined[-1] > INTERVAL_EXPERIMENT_HORIZON:
        return IntervalExperimentReport(
            xi, n, k, eps, formula, None, mreport, {"reason": "horizon too small"}, True
        )
    ny = _norm(space, y_bar)
    nz = _norm(space, z_bar)
    iy = _norm(space, y_bar, n)
    iz = _norm(space, z_bar, n)
    exhausted = not (ny.exact and nz.exact and iy.exact and iz.exact)
    achieved = None
    if not exhausted:
        #  |z|_n / |y|_n for the normalised vectors z_bar/|z_bar|, y_bar/|y_bar|
        achieved = (iz.value / nz.value) / (iy.value / ny.value)
    details = {
        "y_norm": ny.value,
        "z_norm": nz.value,
        "y_interval_norm": iy.value,
        "z_interval_norm": iz.value,
        "y_support": y_bar.support(),
        "z_support": z_positions,
        "y_l1_deficit": Fraction(k) / ny.value,
        "z_c0_excess": nz.value,
    }
    return IntervalExperimentReport(
        xi, n, k, eps, formula, achieved, mreport, details, exhausted
    )


# ---------------------------------------------------------------------------
# ratio algebra check
# ---------------------------------------------------------------------------


class RatioCheckReport(Record):
    delta: Fraction
    samples: int
    violations: List[dict]

    @property
    def ok(self) -> bool:
        return not self.violations


def ratio_bound_check(
    space: NormSpace,
    spec: SecondNorm,
    bs: BlockSequence,
    fam: Family,
    a: Fraction,
    a0: Fraction,
    b: Fraction,
    b0: Fraction,
    samples: int = 20,
) -> RatioCheckReport:
    """Sample unit vectors in family spans and check the measured constants.

    With measured constants a (l1 lower, first norm), b (l1 upper, first),
    a0/b0 (same for the second norm) and delta = max(ab, a0*b0) - 1, each
    sample x of first norm 1 with coefficient mass l(x) must pass four
    checks: l(x)/a <= 1 <= b*l(x) and l(x)/a0 <= |x|_2 <= b0*l(x).  These
    imply the pairwise chain, so it needs no check of its own: for any two
    samples x, y,

        |x|_2/|y|_2 <= b0*l(x) / (l(y)/a0) = a0*b0 * l(x)/l(y)
                    <= a0*b0 * a*b <= (1+delta)^2,

    using l(x) <= a and l(y) >= 1/b.  A violation therefore means a
    constant was measured wrong, and the report names the check that failed.
    Raises `norms._exact`'s errors when the first or the second norm is
    not exact.
    """
    if samples < 1:
        raise ValueError(f"the ratio check needs at least one sample, got {samples}")
    a, a0, b, b0 = Fraction(a), Fraction(a0), Fraction(b), Fraction(b0)
    delta = max(a * b, a0 * b0) - 1
    if delta < 0:
        raise ValueError("constants are inconsistent: ab and a0*b0 must be >= 1")
    rng = random.Random(RATIO_CHECK_SEED)
    limit = min(RATIO_CHECK_HORIZON, len(bs))
    sets = _maximal_index_sets(fam, limit)
    if not sets:
        raise ValueError("no admissible index sets within the horizon")
    violations: List[dict] = []
    for _ in range(samples):
        E = rng.choice(sets)
        coeffs = [Fraction(rng.randint(1, 8), 8) for _ in E]
        # nonzero: the blocks are, with disjoint supports
        raw = combine([bs.blocks[i - 1] for i in E], coeffs)
        scale = _exact(space, raw)
        unit_coeffs = [c / scale for c in coeffs]
        ell1 = sum(map(abs, unit_coeffs))
        second = second_norm_value(space, spec, raw * (Fraction(1) / scale))
        checks = {
            "first_lower": ell1 / a <= 1,
            "first_upper": 1 <= b * ell1,
            "second_lower": ell1 / a0 <= second,
            "second_upper": second <= b0 * ell1,
        }
        if not all(checks.values()):
            violations.append({"set": E, "coeffs": unit_coeffs, "checks": checks})
    return RatioCheckReport(delta=delta, samples=samples, violations=violations)


# ---------------------------------------------------------------------------
# finite stand-in for the asymptotic average index
# ---------------------------------------------------------------------------


def alpha_index_diagnostic(
    bs: BlockSequence,
    n: int,
    size_floor: int,
    horizon: int,
    xi: Ordinal = ONE,
) -> Fraction:
    """Max of sum_q |alpha_q(x_k)| over very fast growing admissible average
    tuples with sizes >= size_floor, taken over the last blocks in horizon.

    A finite stand-in for the vanishing-average index: near zero means no
    admissible average family can extract mass from the tail blocks.  The
    maximisation is exact over sign-matched unit averages on interval piece
    systems of each block's support, which dominate all other averages of
    the same shape.  It runs the X(xi) norm's search, `_admissible_sum`,
    with sizes of at least the floor and the piece length, so a piece is
    worth its mass over its size as the pruning needs; the best value
    carries over from block to block.
    """
    if size_floor < 2:
        raise ValueError("the average sizes need a floor >= 2")
    fam = SchreierFamily(_stage(xi, n))
    limit = min(horizon, len(bs))
    best = Fraction(0)
    for block in bs.blocks[max(0, limit - ALPHA_TARGET_BLOCKS) : limit]:
        pos = block.support()
        prefix = list(itertools.accumulate((abs(v) for _, v in block.entries), initial=Fraction(0)))

        def piece(a: int, b: int, size: int):
            size = max(size, b - a + 1)
            return (prefix[b + 1] - prefix[a]) / size, size

        best, _ = _admissible_sum(fam, pos, prefix, 0, len(pos) - 1, size_floor, piece, best)
    return best
