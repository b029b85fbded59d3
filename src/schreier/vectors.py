"""Exact finitely supported vectors, block sequences, and norming functionals.

Vectors are maps coordinate -> rational with finite support, stored
canonically (no explicit zeros) so they hash and memoise cleanly.  Block
sequences are lists of vectors with successive supports; each block
remembers which indices of the original sequence it was built from, so
repeated blockings can be composed and their supports tracked exactly.

Functionals are the trees of the norming set used by the implicit-norm
spaces:

    unit        +-e_n*
    average     (1/size) (f_1 + ... + f_d),  d <= size, size >= 2
    sum node    a_1 + ... + a_d  over averages that are very fast growing
                and admissible for a Schreier family

"Very fast growing" means the declared sizes strictly increase and each
size exceeds the previous average's max support; admissibility means the
set of min supports lies in S_{w^xi}.  The size of an average is a
declared field, chosen at construction: it is not determined by the
children, and all growth checks use the declared value, which makes
validity decidable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .ordinals import Ordinal, omega_power
from .reports import Record, WitnessReport

if TYPE_CHECKING:
    from .families import FinSet


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------


class Vector(Record, frozen=True):
    """Finitely supported sequence with exact rational entries."""

    entries: Tuple[Tuple[int, Fraction], ...] = ()

    def __post_init__(self) -> None:
        prev = 0
        for coord, value in self.entries:
            if coord < 1 or coord <= prev:
                raise ValueError("coordinates must be strictly increasing naturals")
            if value == 0:
                raise ValueError("explicit zeros are not stored")
            prev = coord

    @staticmethod
    def from_dict(data: Dict[int, Fraction]) -> "Vector":
        items = sorted((c, Fraction(v)) for c, v in data.items() if v != 0)
        return Vector(tuple(items))

    @staticmethod
    def basis(n: int) -> "Vector":
        return Vector(((n, Fraction(1)),))

    def support(self) -> FinSet:
        return tuple(c for c, _ in self.entries)

    def __getitem__(self, coord: int) -> Fraction:
        for c, v in self.entries:
            if c == coord:
                return v
            if c > coord:
                break
        return Fraction(0)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def restrict(self, coords: Iterable[int]) -> "Vector":
        keep = set(coords)
        return Vector(tuple((c, v) for c, v in self.entries if c in keep))

    def __add__(self, other: "Vector") -> "Vector":
        return combine((self, other), (1, 1))

    def __sub__(self, other: "Vector") -> "Vector":
        return combine((self, other), (1, -1))

    def __mul__(self, scalar) -> "Vector":
        s = Fraction(scalar)
        if s == 0:
            return Vector()
        return Vector(tuple((c, v * s) for c, v in self.entries))

    __rmul__ = __mul__

    def l1(self) -> Fraction:
        return sum((abs(v) for _, v in self.entries), Fraction(0))

    def linf(self) -> Fraction:
        return max((abs(v) for _, v in self.entries), default=Fraction(0))

    def __str__(self) -> str:
        return ",".join(f"{c}:{v}" for c, v in self.entries) or "0"


def combine(vectors: Sequence[Vector], coefficients: Sequence) -> Vector:
    out: Dict[int, Fraction] = {}
    for vec, a in zip(vectors, coefficients):
        a = Fraction(a)
        if a == 0:
            continue
        # `+`, `-` and plain sums pass coefficient 1, which needs no product
        unit = a == 1
        for c, v in vec.entries:
            if not unit:
                v = a * v
            if c in out:
                out[c] += v
            else:
                out[c] = v
    return Vector(tuple((c, v) for c, v in sorted(out.items()) if v))


# ---------------------------------------------------------------------------
# block sequences
# ---------------------------------------------------------------------------


def successive(blocks: Sequence[FinSet]) -> bool:
    """True when max of each block is below min of the next (empty blocks rejected)."""
    if any(not b for b in blocks):
        return False
    return all(blocks[i][-1] < blocks[i + 1][0] for i in range(len(blocks) - 1))


class BlockSequence(Record, frozen=True):
    """Ordered list of vectors with successive supports.

    `origins` records, per block, the set of indices of the underlying
    basis-or-original sequence the block was combined from; fresh
    sequences default to singletons.  Composed blockings compose origins
    through `origin`, which is what the support-tracking arguments need.
    """

    blocks: Tuple[Vector, ...]
    origins: Tuple[FinSet, ...] = ()

    def __post_init__(self) -> None:
        supports = [b.support() for b in self.blocks]
        if any(not s for s in supports):
            raise ValueError("blocks must be nonzero")
        if not successive(supports):
            raise ValueError("blocks must have successive supports")
        if self.origins:
            if len(self.origins) != len(self.blocks):
                raise ValueError("one origin set per block required")
        else:
            object.__setattr__(
                self, "origins", tuple((i,) for i in range(1, len(self.blocks) + 1))
            )

    @staticmethod
    def basis(count: int, start: int = 1) -> "BlockSequence":
        return BlockSequence(tuple(Vector.basis(start + i) for i in range(count)))

    def __len__(self) -> int:
        return len(self.blocks)

    def __getitem__(self, i: int) -> Vector:
        return self.blocks[i]

    def origin(self, E: Iterable[int]) -> FinSet:
        """The sorted union of the origins of the blocks at the 1-based
        positions E."""
        return tuple(sorted({j for i in E for j in self.origins[i - 1]}))


def block_combine(
    bs: BlockSequence, groups: Sequence[Tuple[Sequence[int], Sequence]]
) -> BlockSequence:
    """New blocks y_i = sum over j in E_i of a_j x_j.

    Groups are (index set, coefficient list) pairs over 1-based block
    indices; they must be successive and each coefficient list must match
    its group.  Origin sets are composed through, so the support of y_i
    over the original sequence stays available.
    """
    new_blocks: List[Vector] = []
    new_origins: List[FinSet] = []
    prev_max = 0
    for idx_set, coeffs in groups:
        idx = tuple(idx_set)
        if len(idx) != len(coeffs):
            raise ValueError("coefficient list must match group size")
        if not idx or idx[0] <= prev_max:
            raise ValueError("groups must be successive and nonempty")
        if any(idx[i] >= idx[i + 1] for i in range(len(idx) - 1)):
            raise ValueError("group indices must be strictly increasing")
        if idx[-1] > len(bs):
            raise ValueError(f"group index {idx[-1]} out of range")
        prev_max = idx[-1]
        vec = combine([bs.blocks[j - 1] for j in idx], coeffs)
        if vec.is_zero:
            raise ValueError("a group combined to the zero vector")
        new_blocks.append(vec)
        new_origins.append(bs.origin(idx))
    return BlockSequence(tuple(new_blocks), tuple(new_origins))


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


class Unit(Record, frozen=True):
    sign: int
    coord: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.coord < 1:
            raise ValueError("coordinate must be >= 1")


class Average(Record, frozen=True):
    """(1/size) times the sum of the children; size is declared, >= 2."""

    size: int
    children: Tuple["Functional", ...]

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError("average size must be >= 2")
        if len(self.children) > self.size:
            raise ValueError("average may not have more children than its size")
        if not self.children:
            raise ValueError("average needs at least one child")


class SumNode(Record, frozen=True):
    """Unweighted sum of averages; the Schreier-admissible combination node."""

    children: Tuple[Average, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("sum node needs at least one child")
        if not all(isinstance(c, Average) for c in self.children):
            raise TypeError("sum node children must be averages")


Functional = Union[Unit, Average, SumNode]


def functional_support(f: Functional) -> FinSet:
    if isinstance(f, Unit):
        return (f.coord,)
    out: List[int] = []
    for c in f.children:
        out.extend(functional_support(c))
    return tuple(sorted(out))


def evaluate(f: Functional, x: Vector) -> Fraction:
    """Exact pairing f(x)."""
    if isinstance(f, Unit):
        value = x[f.coord]
        return value if f.sign == 1 else -value
    if isinstance(f, Average):
        total = sum((evaluate(c, x) for c in f.children), Fraction(0))
        return total / f.size
    if isinstance(f, SumNode):
        return sum((evaluate(c, x) for c in f.children), Fraction(0))
    raise TypeError(f"not a functional: {f!r}")


def negate(f: Functional) -> Functional:
    """-f, with the sign pushed to the unit leaves (stays in the norming set)."""
    if isinstance(f, Unit):
        return Unit(-f.sign, f.coord)
    if isinstance(f, Average):
        return Average(f.size, tuple(negate(c) for c in f.children))
    return SumNode(tuple(negate(c) for c in f.children))


def validate_functional(f: Functional, xi: Ordinal) -> WitnessReport:
    """Check every structural invariant of a norming-set functional.

    For averages: declared size >= 2, at most size children, children with
    successive supports, children valid.  For sum nodes: children are
    averages with strictly increasing sizes, each size above the previous
    child's max support (very fast growing), and the set of min supports
    admissible for S_{w^xi}.  The first violation is reported.
    """
    from .families import SchreierFamily, member

    fam = SchreierFamily(omega_power(xi))

    def walk(g: Functional) -> Optional[str]:
        if isinstance(g, Unit):
            return None
        if isinstance(g, Average):
            if not successive([functional_support(c) for c in g.children]):
                return "average children must have successive supports"
        elif isinstance(g, SumNode):
            supports = [functional_support(c) for c in g.children]
            if not successive(supports):
                return "sum-node children must have successive supports"
            sizes = [c.size for c in g.children]
            if any(s1 >= s2 for s1, s2 in zip(sizes, sizes[1:])):
                return "sizes not strictly increasing"
            for support, nxt in zip(supports, g.children[1:]):
                if nxt.size <= support[-1]:
                    return f"size {nxt.size} does not exceed previous max support {support[-1]}"
            minima = tuple(support[0] for support in supports)
            if not member(minima, fam).member:
                return f"min-support set {minima} not admissible for the family"
        else:
            return f"not a functional: {g!r}"
        for c in g.children:
            bad = walk(c)
            if bad:
                return bad
        return None

    violation = walk(f)
    if violation is None:
        return WitnessReport(True, detail="functional valid", witness=f)
    return WitnessReport(False, detail=violation, counterexample=f)
