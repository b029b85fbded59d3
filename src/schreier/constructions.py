"""Builders for the special vectors, functionals and blockings.

Special convex combinations (s.c.c.) are probability vectors spread over a
set in S_xi while putting mass below a stated epsilon on every member of a
lower family S_zeta.  The builder uses the canonical repeated-average
hierarchy (unit coordinates at level 0, an average of current-min many
previous-level pieces at successor levels, a recursion into the canonical
fundamental stage at limits); the pedigree of the construction is
irrelevant because every output is certified by the exact mass maximiser
before it is returned, restarting on deeper tails of the index sequence
until certification succeeds or the budget runs out.

The blocking machinery implements the finite stage of the classical
norm-improvement iteration: either a sequence has property P_n (every
admissible combination keeps an l1 lower bound at the target constant) or
a violating family of combinations exists, and averaging along the
violations yields a blocking with a strictly better constant.  Targets use
exact rationals t with t*t <= K; no irrational roots enter the arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from .families import (
    FinSet,
    IndexSequence,
    SchreierFamily,
    SequenceExhausted,
    family_mass,
    member,
)
from .ordinals import ONE, Ordinal, _stage, compare, fundamental, omega_power
from .reports import BudgetExhausted, Record
from .vectors import (
    Average,
    BlockSequence,
    Functional,
    SumNode,
    Vector,
    block_combine,
    combine,
    negate,
    validate_functional,
)

# `scc` builds no normed vector, so the norms load where they are evaluated
if TYPE_CHECKING:
    from .norms import NormSpace

# binary digits of precision in `rational_sqrt_below`
SQRT_BITS = 40
# leaves one repeated average may spend (see `_Cursor`)
MAX_REPEATED_AVERAGE_LEAVES = 20_000
# restarts per block of `l1_to_c0_blocking`
L1_TO_C0_SCC_BUDGET = 60


def rational_sqrt_below(K: Fraction) -> Fraction:
    """Largest convenient rational t with t*t <= K, within 2^-SQRT_BITS of sqrt(K)."""
    if K <= 0:
        raise ValueError("need a positive target")
    scale = 1 << SQRT_BITS
    t = Fraction(isqrt(K.numerator * K.denominator * scale * scale), K.denominator * scale)
    assert t * t <= K
    return t


# ---------------------------------------------------------------------------
# special convex combinations
# ---------------------------------------------------------------------------


class SccResult(Record):
    vector: Vector
    support_set: FinSet
    xi: Ordinal
    zeta: Ordinal
    eps: Fraction
    mass_certificate: Tuple[Fraction, FinSet]

    def reverify(self) -> bool:
        """Re-check all three defining conditions exactly."""
        coeffs = {c: v for c, v in self.vector.entries}
        if any(v < 0 for v in coeffs.values()):
            return False
        if sum(coeffs.values()) != 1:
            return False
        if self.vector.support() != self.support_set:
            return False
        if not member(self.support_set, SchreierFamily(self.xi)).member:
            return False
        res = family_mass(coeffs, SchreierFamily(self.zeta))
        return res.mass == self.mass_certificate[0] and res.mass < self.eps


class _Cursor:
    """Consumes values of an index sequence left to right, with a cap of
    MAX_REPEATED_AVERAGE_LEAVES on the leaves a construction may spend (the
    canonical hierarchy has supports that grow exponentially in the level,
    so deep restarts must fail cleanly instead of filling memory)."""

    def __init__(self, seq: IndexSequence, offset: int):
        self.seq = seq
        self.pos = offset + 1
        self.remaining = MAX_REPEATED_AVERAGE_LEAVES

    def peek(self) -> int:
        return self.seq.value_at(self.pos)

    def take(self) -> int:
        if self.remaining <= 0:
            raise BudgetExhausted("support budget exhausted in the repeated average")
        self.remaining -= 1
        v = self.seq.value_at(self.pos)
        self.pos += 1
        return v


def _repeated_average(xi: Ordinal, cursor: _Cursor) -> Dict[int, Fraction]:
    """Coefficient map of the canonical level-xi repeated average."""
    if xi.is_zero:
        return {cursor.take(): Fraction(1)}
    if xi.is_successor:
        n = cursor.peek()
        pieces = [_repeated_average(xi.predecessor(), cursor) for _ in range(n)]
        out: Dict[int, Fraction] = {}
        for piece in pieces:
            for c, v in piece.items():
                out[c] = out.get(c, Fraction(0)) + v / n
        return out
    return _repeated_average(fundamental(xi, cursor.peek()), cursor)


def scc_basic(
    xi: Ordinal,
    zeta: Ordinal,
    eps: Fraction,
    M: IndexSequence,
    budget: int = 60,
) -> SccResult:
    """A (xi, zeta, eps) basic special convex combination supported in M.

    Builds the canonical repeated average on successively deeper tails of M
    until the exact verifier certifies that every S_zeta set carries mass
    strictly below eps.  Raises BudgetExhausted with the best attempt if no
    tail within the budget certifies.
    """
    eps = Fraction(eps)
    if not compare(zeta, xi) < 0:
        raise ValueError("need zeta < xi")
    if eps <= 0:
        raise ValueError("need eps > 0")
    fam_xi, fam_zeta = SchreierFamily(xi), SchreierFamily(zeta)
    best: Optional[SccResult] = None
    for offset in range(budget):
        try:
            coeffs = _repeated_average(xi, _Cursor(M, offset))
        except SequenceExhausted:
            break
        except BudgetExhausted:
            continue
        vec = Vector.from_dict(coeffs)
        support = vec.support()
        if not member(support, fam_xi).member:
            continue
        mass = family_mass(coeffs, fam_zeta)
        result = SccResult(vec, support, xi, zeta, eps, (mass.mass, mass.argmax))
        if mass.mass < eps:
            return result
        if best is None or mass.mass < best.mass_certificate[0]:
            best = result
    raise BudgetExhausted(
        f"no ({xi}, {zeta}, {eps}) combination certified within budget "
        f"(best mass {best.mass_certificate[0] if best else 'n/a'})",
        best=best,
    )


def scc_on_blocks(
    bs: BlockSequence,
    xi: Ordinal,
    zeta: Ordinal,
    eps: Fraction,
    budget: int = 60,
) -> Tuple[Vector, SccResult]:
    """Transfer of the basic combination to a block sequence.

    Coefficients are chosen by running the basic builder over the minimal
    support points phi_k = min supp x_k; the result is sum c_k x_k together
    with the exact certificate on the phi coordinates.
    """
    phis = [b.support()[0] for b in bs.blocks]
    base = scc_basic(xi, zeta, eps, IndexSequence.explicit(phis), budget)
    coeff_by_phi = dict(base.vector.entries)
    return combine(bs.blocks, [coeff_by_phi.get(phi, 0) for phi in phis]), base


# ---------------------------------------------------------------------------
# l1 averages and rapidly increasing sequences
# ---------------------------------------------------------------------------


def build_l1_average(
    space: NormSpace,
    k: int,
    bs: BlockSequence,
    quality: Fraction,
    start: int = 1,
    *,
    normed: Optional[dict] = None,
) -> Tuple[Vector, dict]:
    """Normalised average of k successive blocks with certified norm quality.

    Scans start positions from `start` for a window of k blocks whose index
    set is admissible for S_1 relative to the block minima (k never exceeds
    the first block's min support) and whose unnormalised average has norm
    at least `quality`.  Returns the normalised average and a certificate
    dict; raises BudgetExhausted with the best window when quality is
    unreachable, and `norms._exact`'s errors when the space's norm is not
    exact.  `normed`, a memo that changes no result, keeps each window's
    average and its norm under (k, window start), so that a scan over the
    same space and blocks reads a window an earlier one normed.
    """
    from .norms import _exact

    if normed is None:
        normed = {}
    quality = Fraction(quality)
    best = None
    for s in range(start, len(bs) - k + 2):
        if k > bs.blocks[s - 1].support()[0]:
            continue
        hit = normed.get((k, s))
        if hit is None:
            avg = combine(bs.blocks[s - 1 : s + k - 1], [Fraction(1, k)] * k)
            hit = normed[(k, s)] = (avg, _exact(space, avg))
        avg, value = hit
        info = {
            "start": s,
            "indices": tuple(range(s, s + k)),
            "norm_before": value,
            "size": k,
        }
        if value >= quality:
            return avg * (1 / value), info
        if best is None or value > best["norm_before"]:
            best = info
    raise BudgetExhausted(
        f"no window of {k} blocks reaches quality {quality}", best=best
    )


def build_ris(space: NormSpace, sizes: Sequence[int], bs: BlockSequence, quality: Fraction = Fraction(0),
              *, normed: Optional[dict] = None) -> BlockSequence:
    """Rapidly increasing sequence of normalised l1 averages.

    Sizes must increase strictly, and each size must exceed the previous
    average's max support (the vector-side mirror of very fast growth);
    windows are chosen greedily left to right, over the window memo
    `normed` of `build_l1_average`.
    """
    sizes = list(sizes)
    if any(s1 >= s2 for s1, s2 in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    out: List[Vector] = []
    origins: List[FinSet] = []
    cursor = 1
    prev_max = 0
    for q, size in enumerate(sizes):
        if size <= prev_max:
            raise ValueError(
                f"size {size} at stage {q + 1} does not exceed previous max support {prev_max}"
            )
        vec, info = build_l1_average(space, size, bs, quality, cursor, normed=normed)
        out.append(vec)
        origins.append(info["indices"])
        cursor = info["indices"][-1] + 1
        prev_max = vec.support()[-1]
    return BlockSequence(tuple(out), tuple(origins))


# ---------------------------------------------------------------------------
# signed Schreier functionals
# ---------------------------------------------------------------------------


def build_schreier_functional(
    signs: Sequence[int], groups: Sequence[Sequence[Average]], xi: Ordinal
) -> Functional:
    """Signed admissible sum: sign_i applied to every average in group i.

    The concatenated averages must form a very fast growing,
    S_{w^xi}-admissible sequence; the signs are pushed to the unit leaves
    so the result stays inside the norming set.  Raises with the violated
    invariant when admissibility fails.
    """
    if len(signs) != len(groups):
        raise ValueError("one sign per group required")
    flat: List[Average] = []
    for sign, group in zip(signs, groups):
        if sign not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        for alpha in group:
            flat.append(alpha if sign == 1 else negate(alpha))
    functional = SumNode(tuple(flat))
    report = validate_functional(functional, xi)
    if not report.ok:
        raise ValueError(f"inadmissible combination: {report.detail}")
    return functional


# ---------------------------------------------------------------------------
# property P_n search and blockings
# ---------------------------------------------------------------------------


class ImprovedBlocking(Record):
    blocking: BlockSequence
    support_sets: List[FinSet]
    combinations: List[Tuple[FinSet, Tuple[Fraction, ...], Fraction]]
    target: Fraction


class PropertyPn(Record):
    n: int
    verified_constant: Fraction
    horizon: int
    target: Fraction


BlockingCertificate = Union[ImprovedBlocking, PropertyPn]


def james_blocking_step(
    space: NormSpace,
    bs: BlockSequence,
    n: int,
    K: Fraction,
    horizon: int,
    xi: Ordinal = ONE,
) -> BlockingCertificate:
    """One stage of the constant-improvement iteration at level n.

    Searches combinations sum a_i y_i over index sets E in the n-th stage
    family (min E >= n) with sum |a_i| = 1 and norm strictly below 1/t,
    where t is an exact rational with t*t <= K.  Violations found on
    successive index sets yield the renormalised improved blocking with its
    support sets; otherwise a property certificate is returned carrying the
    worst l1 ratio observed up to the horizon.

    The search is restricted to the right half of the window.  This is the
    finite mirror of the subsequence refinements in the infinitary
    argument: past the midpoint every index set that fits before the
    horizon has cardinality at most its own minimum, so unions of the
    violating sets collapse into the bottom family and the blocked
    sequence keeps its lower estimates there.
    """
    from .analysis import l1_lower_candidates

    K = Fraction(K)
    if K <= 1:
        raise ValueError("need K > 1")
    t = rational_sqrt_below(K)
    fam = SchreierFamily(_stage(xi, n))
    limit = min(horizon, len(bs))

    worst_ratio = Fraction(0)
    combos: List[Tuple[FinSet, Tuple[Fraction, ...], Fraction]] = []
    cursor = max(n, limit // 2 + 1)
    while cursor <= limit:
        # every candidate is the norm of a nonzero vector, so value > 0
        for E, coeffs, value in l1_lower_candidates(space, bs, fam, cursor, limit):
            ratio = Fraction(1) / value
            if ratio > worst_ratio:
                worst_ratio = ratio
            if value < Fraction(1) / t:
                combos.append((E, coeffs, value))
                cursor = E[-1] + 1
                break
        else:
            break
    if combos:
        raw = block_combine(bs, [(E, coeffs) for E, coeffs, _ in combos])
        scaled = (block * (Fraction(1) / value) for block, (_, _, value) in zip(raw.blocks, combos))
        blocking = BlockSequence(tuple(scaled), raw.origins)
        return ImprovedBlocking(
            blocking=blocking,
            support_sets=[E for E, _, _ in combos],
            combinations=combos,
            target=t,
        )
    return PropertyPn(n=n, verified_constant=worst_ratio, horizon=limit, target=t)


def two_norm_blocking(
    space: NormSpace,
    second: NormSpace,
    bs: BlockSequence,
    eps: Fraction,
    horizon: int,
    xi: Ordinal = ONE,
    n: int = 1,
    max_rounds: int = 6,
) -> Tuple[BlockSequence, dict]:
    """Iterate the improvement step against the second norm while tracking
    that unions of output supports over family sets stay in the family.

    Stops once the measured l1 lower ratio in the second norm is within
    1 + eps, or after max_rounds.  A support-tracking violation raises:
    the blocked supports are constructed to stay inside the family, so a
    violation means a construction bug, not a negative result.  The report
    carries the measured constants in both norms per round.
    """
    from .analysis import l1_lower_constant

    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("need eps > 0")
    fam = SchreierFamily(omega_power(xi))
    stage = SchreierFamily(_stage(xi, n))
    current = bs
    rounds = []
    for round_no in range(max_rounds):
        lower_second, _ = l1_lower_constant(second, current, stage, horizon)
        lower_first, _ = l1_lower_constant(space, current, stage, horizon)
        rounds.append({"round": round_no, "second_lower": lower_second, "first_lower": lower_first})
        # a norm of a nonzero combination, so lower_second > 0, and a K
        # past 1 + eps is past 1, as `james_blocking_step` needs
        K = Fraction(1) / lower_second
        if K <= 1 + eps:
            break
        step = james_blocking_step(second, current, n, K, horizon, xi)
        if isinstance(step, PropertyPn):
            break
        # union-of-supports tracking over the family
        limit = min(horizon, len(step.blocking))
        for first in range(1, limit + 1):
            probe = tuple(range(first, min(first + first, limit) + 1))
            if member(probe, fam).member:
                union = step.blocking.origin(probe)
                if not member(union, fam).member:
                    raise RuntimeError(
                        f"support tracking violated for index set {probe}: union {union}"
                    )
        current = step.blocking
    report = {"rounds": rounds, "eps": eps}
    return current, report


def c0_to_l1_blocking(bs: BlockSequence, sets: Sequence[FinSet]) -> BlockSequence:
    """Unnormalised sums over successive S_1 index sets of growing size."""
    fam = SchreierFamily(ONE)
    prev_card = 0
    prev_max = 0
    for F in sets:
        F = tuple(F)
        if not F or F[0] <= prev_max:
            raise ValueError("index sets must be successive")
        if len(F) <= prev_card:
            raise ValueError("cardinalities must increase strictly")
        if not member(F, fam).member:
            raise ValueError(f"index set {F} not in the admissible family")
        prev_card, prev_max = len(F), F[-1]
    groups = [(tuple(F), [Fraction(1)] * len(F)) for F in sets]
    return block_combine(bs, groups)


def l1_to_c0_blocking(
    space: NormSpace,
    bs: BlockSequence,
    xi: Ordinal,
    eps: Fraction,
    count: int = 2,
) -> Tuple[BlockSequence, List[SccResult]]:
    """Normalised special-convex-combination blocks with shrinking epsilons.

    Every block k is a (w^xi[2], w^xi[1], eps/2^(k-1)) combination over
    the unconsumed tail of the sequence, a (1, 0) one when xi = 0, since
    w^0 = 1 has no stages; it is normalised in the space, and the exact
    certificates are returned alongside.  The canonical hierarchy has
    supports exponential in the stage, so the desk-scale schedule keeps
    stage 1 for every block and shrinks only the epsilons.  Raises
    `norms._exact`'s errors when the space's norm is not exact.
    """
    from .norms import _exact

    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("need eps > 0")
    base = omega_power(xi)
    stage_hi = _stage(xi, 2)
    stage_lo = fundamental(base, 1) if base.is_limit else base.predecessor()
    out_blocks: List[Vector] = []
    out_origins: List[FinSet] = []
    certificates: List[SccResult] = []
    consumed = 0
    for k in range(1, count + 1):
        tail = BlockSequence(bs.blocks[consumed:], bs.origins[consumed:])
        if not tail.blocks:
            raise BudgetExhausted(f"ran out of blocks at stage {k}")
        vec, cert = scc_on_blocks(tail, stage_hi, stage_lo, eps / (2 ** (k - 1)), L1_TO_C0_SCC_BUDGET)
        out_blocks.append(vec * (1 / _exact(space, vec)))
        chosen = set(cert.support_set)
        used = [i + 1 for i, b in enumerate(tail.blocks) if b.support()[0] in chosen]
        out_origins.append(tail.origin(used))
        consumed += max(used)
        certificates.append(cert)
    return BlockSequence(tuple(out_blocks), tuple(out_origins)), certificates
