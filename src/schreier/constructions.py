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

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .families import (
    FinSet,
    IndexSequence,
    SchreierFamily,
    SequenceExhausted,
    family_mass,
    member,
)
from .norms import NormSpace, norm
from .ordinals import ONE, Ordinal, compare, fundamental, omega_power
from .vectors import (
    Average,
    BlockSequence,
    Functional,
    SumNode,
    Vector,
    block_combine,
    negate,
    validate_functional,
)

# binary digits of precision in `rational_sqrt_below`
SQRT_BITS = 40
# leaves one repeated average may spend (see `_Cursor`)
MAX_REPEATED_AVERAGE_LEAVES = 20_000
# restarts per block of `l1_to_c0_blocking`, and the largest stage it uses
L1_TO_C0_SCC_BUDGET = 60
L1_TO_C0_STAGE_CAP = 1


class BudgetExhausted(Exception):
    """A construction search ran out of restarts; carries the best attempt."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


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


@dataclass
class SccResult:
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

    def __init__(self, seq: IndexSequence, offset: int = 0):
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
    coeff_by_phi = {c: v for c, v in base.vector.entries}
    out = Vector()
    for phi, block in zip(phis, bs.blocks):
        c = coeff_by_phi.get(phi)
        if c:
            out = out + block * c
    return out, base


# ---------------------------------------------------------------------------
# l1 averages and rapidly increasing sequences
# ---------------------------------------------------------------------------


def build_l1_average(
    space: NormSpace,
    k: int,
    bs: BlockSequence,
    quality: Fraction,
    start: int = 1,
) -> Tuple[Vector, dict]:
    """Normalised average of k successive blocks with certified norm quality.

    Scans start positions from `start` for a window of k blocks whose index
    set is admissible for S_1 relative to the block minima (k never exceeds
    the first block's min support) and whose unnormalised average has norm
    at least `quality`.  Returns the normalised average and a certificate
    dict; raises BudgetExhausted with the best window when quality is
    unreachable, and ValueError when the space's norm is not exact.
    """
    quality = Fraction(quality)
    best = None
    for s in range(start, len(bs) - k + 2):
        window = bs.blocks[s - 1 : s + k - 1]
        if k > window[0].support()[0]:
            continue
        avg = window[0] * Fraction(1, k)
        for b in window[1:]:
            avg = avg + b * Fraction(1, k)
        res = norm(space, avg)
        if not res.exact:
            raise ValueError(f"the norm of {space} is not exact; an l1 average needs an exact scale")
        value = res.value
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


def build_ris(
    space: NormSpace, sizes: Sequence[int], bs: BlockSequence, quality: Fraction = Fraction(0)
) -> BlockSequence:
    """Rapidly increasing sequence of normalised l1 averages.

    Sizes must increase strictly, and each size must exceed the previous
    average's max support (the vector-side mirror of very fast growth);
    windows are chosen greedily left to right.
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
        found = None
        for s in range(cursor, len(bs) - size + 2):
            if size <= bs.blocks[s - 1].support()[0]:
                found = s
                break
        if found is None:
            raise BudgetExhausted(f"insufficient blocks for an average of size {size}")
        vec, info = build_l1_average(space, size, bs, quality, start=found)
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


@dataclass
class ImprovedBlocking:
    blocking: BlockSequence
    support_sets: List[FinSet]
    combinations: List[Tuple[FinSet, Tuple[Fraction, ...], Fraction]]
    target: Fraction


@dataclass
class PropertyPn:
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
    stage = fundamental(omega_power(xi), n) if omega_power(xi).is_limit else None
    fam = SchreierFamily(stage if stage is not None else omega_power(xi))
    limit = min(horizon, len(bs))

    worst_ratio = Fraction(0)
    groups: List[Tuple[FinSet, Tuple[Fraction, ...]]] = []
    combos: List[Tuple[FinSet, Tuple[Fraction, ...], Fraction]] = []
    cursor = max(n, limit // 2 + 1)
    while cursor <= limit:
        found = None
        for E, coeffs, value in l1_lower_candidates(space, bs, fam, cursor, limit):
            if value > 0:
                ratio = Fraction(1) / value
                if ratio > worst_ratio:
                    worst_ratio = ratio
            if value < Fraction(1) / t:
                found = (E, coeffs, value)
                break
        if found is None:
            break
        E, coeffs, value = found
        groups.append((E, coeffs))
        combos.append((E, coeffs, value))
        cursor = E[-1] + 1
    if combos:
        raw = block_combine(bs, groups)
        scaled_blocks = []
        for block, (_, _, value) in zip(raw.blocks, combos):
            scaled_blocks.append(block * (Fraction(1) / value))
        blocking = BlockSequence(tuple(scaled_blocks), raw.origins)
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
    current = bs
    rounds = []
    for round_no in range(max_rounds):
        lower_second, _ = l1_lower_constant(second, current, SchreierFamily(fundamental(omega_power(xi), n)), horizon)
        lower_first, _ = l1_lower_constant(space, current, SchreierFamily(fundamental(omega_power(xi), n)), horizon)
        rounds.append({"round": round_no, "second_lower": lower_second, "first_lower": lower_first})
        if lower_second > 0 and Fraction(1) / lower_second <= 1 + eps:
            break
        K = (Fraction(1) / lower_second) if lower_second > 0 else Fraction(4)
        if K <= 1:
            break
        step = james_blocking_step(second, current, n, K, horizon, xi)
        if isinstance(step, PropertyPn):
            break
        # union-of-supports tracking over the family
        limit = min(horizon, len(step.blocking))
        for first in range(1, limit + 1):
            probe = tuple(range(first, min(first + first, limit) + 1))
            if member(probe, fam).member:
                union = tuple(
                    sorted(
                        set(
                            i
                            for b in probe
                            for i in step.blocking.origins[b - 1]
                        )
                    )
                )
                if union and not member(union, fam).member:
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

    Block k is a (stage+1, stage, eps/2^(k-1)) combination over the
    unconsumed tail of the sequence, normalised in the space; the exact
    certificates are returned alongside.  The stage index is min(k,
    L1_TO_C0_STAGE_CAP): the canonical hierarchy has supports exponential in the
    stage, so the desk-scale schedule shrinks the epsilons while the stages
    are clamped, and every output carries the certificate actually used.
    Raises ValueError when the space's norm is not exact.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("need eps > 0")
    base = omega_power(xi)
    out_blocks: List[Vector] = []
    out_origins: List[FinSet] = []
    certificates: List[SccResult] = []
    consumed = 0
    for k in range(1, count + 1):
        stage = min(k, L1_TO_C0_STAGE_CAP)
        stage_hi = fundamental(base, stage + 1) if base.is_limit else base
        stage_lo = fundamental(base, stage) if base.is_limit else base.predecessor()
        tail_blocks = bs.blocks[consumed:]
        tail_origins = bs.origins[consumed:]
        if not tail_blocks:
            raise BudgetExhausted(f"ran out of blocks at stage {k}")
        tail = BlockSequence(tuple(tail_blocks), tuple(tail_origins))
        vec, cert = scc_on_blocks(tail, stage_hi, stage_lo, eps / (2 ** (k - 1)), L1_TO_C0_SCC_BUDGET)
        res = norm(space, vec)
        if not res.exact:
            raise ValueError(f"the norm of {space} is not exact; a normalised block needs an exact scale")
        out_blocks.append(vec * (1 / res.value))
        chosen = set(cert.support_set)
        used = [i + 1 for i, b in enumerate(tail.blocks) if b.support()[0] in chosen]
        origin = tuple(sorted(set(i for u in used for i in tail.origins[u - 1])))
        out_origins.append(origin)
        consumed += max(used)
        certificates.append(cert)
    return BlockSequence(tuple(out_blocks), tuple(out_origins)), certificates
