"""Countable ordinals below epsilon_0, in Cantor normal form.

An ordinal is stored as the finite term list of its Cantor normal form

    w^{e_1} * c_1 + ... + w^{e_k} * c_k

with exponents e_1 > e_2 > ... > e_k (themselves ordinals) and integer
coefficients c_i >= 1.  The empty term list is 0, and a finite ordinal n
is the single term (0, n).  This fragment is exactly what is finitely
representable, and it is large enough to index every family and every
space the rest of the package touches.

Besides construction and comparison the module provides the
non-commutative ordinal sum and the canonical fundamental sequences used
to define transfinite families at limit stages:

    (g + w^{b+1})[n] = g + w^b * n
    (g + w^lam)[n]   = g + w^{lam[n]}     for lam a limit

Everything here is an immutable value; all operations are pure.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from .reports import Record


class Ordinal(Record, frozen=True):
    """Cantor normal form: tuple of (exponent, coefficient) pairs.

    The predicates `is_zero`, `is_successor` and `is_limit` are computed
    once, at construction, and kept in read-only slots of their own,
    outside the record fields, as is the predecessor once asked for; the
    hash, like that of every frozen record, is computed once, on first use.
    """

    __slots__ = ("_predecessor", "is_zero", "is_successor", "is_limit")

    terms: Tuple[Tuple["Ordinal", int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for exp, coeff in self.terms:
            if not isinstance(exp, Ordinal):
                raise TypeError(f"exponent must be Ordinal, got {type(exp).__name__}")
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError(f"coefficient must be a positive integer, got {coeff!r}")
            if prev is not None and compare(exp, prev) >= 0:
                raise ValueError("exponents must be strictly decreasing")
            prev = exp
        successor = bool(self.terms) and self.terms[-1][0].is_zero
        # frozen: the derived slots are written past the record's __setattr__
        object.__setattr__(self, "_predecessor", None)
        object.__setattr__(self, "is_zero", not self.terms)
        object.__setattr__(self, "is_successor", successor)
        object.__setattr__(self, "is_limit", bool(self.terms) and not successor)

    # -- structure predicates -------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero)

    def as_int(self) -> int:
        """The value of a finite ordinal; raises on infinite input."""
        if self.is_zero:
            return 0
        if not self.is_finite:
            raise ValueError(f"{self} is not finite")
        return self.terms[0][1]

    def predecessor(self) -> "Ordinal":
        """Predecessor of a successor ordinal."""
        if self._predecessor is None:
            if not self.is_successor:
                raise ValueError(f"{self} is not a successor")
            exp, coeff = self.terms[-1]
            head = self.terms[:-1]
            pred = Ordinal(head + ((exp, coeff - 1),) if coeff > 1 else head)
            object.__setattr__(self, "_predecessor", pred)
        return self._predecessor

    @property
    def leading_exponent(self) -> "Ordinal":
        if self.is_zero:
            raise ValueError("0 has no leading exponent")
        return self.terms[0][0]

    # -- comparisons ----------------------------------------------------------

    def __lt__(self, other: "Ordinal") -> bool:
        return compare(self, other) < 0

    def __le__(self, other: "Ordinal") -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other: "Ordinal") -> bool:
        return compare(self, other) > 0

    def __ge__(self, other: "Ordinal") -> bool:
        return compare(self, other) >= 0

    def __add__(self, other: "Ordinal") -> "Ordinal":
        return add(self, other)

    # -- text -----------------------------------------------------------------

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"Ordinal[{to_text(self)}]"


ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def finite(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return ZERO if n == 0 else Ordinal(((ZERO, n),))


def omega_power(exponent: Ordinal, coefficient: int = 1) -> Ordinal:
    """w^exponent * coefficient as a single-term ordinal."""
    if exponent.is_zero:
        return finite(coefficient)
    return Ordinal(((exponent, coefficient),))


def compare(a: Ordinal, b: Ordinal) -> int:
    """Total CNF order; returns -1, 0 or 1."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) == len(b.terms):
        return 0
    return -1 if len(a.terms) < len(b.terms) else 1


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum a + b in normal form.

    Terms of a with exponent below the leading exponent of b are absorbed,
    so the sum is not commutative: 3 + w = w but w + 3 = w + 3.
    """
    if b.is_zero:
        return a
    if a.is_zero:
        return b
    lead = b.leading_exponent
    kept = [t for t in a.terms if compare(t[0], lead) > 0]
    rest = list(b.terms)
    if len(kept) < len(a.terms) and compare(a.terms[len(kept)][0], lead) == 0:
        rest[0] = (lead, a.terms[len(kept)][1] + rest[0][1])
    return Ordinal(tuple(kept) + tuple(rest))


@lru_cache(maxsize=None)
def fundamental(limit: Ordinal, n: int) -> Ordinal:
    """n-th element of the canonical fundamental sequence of a limit ordinal.

    Strictly increasing in n with supremum `limit`.  Successor or zero
    inputs are rejected: they do not have fundamental sequences.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    if not limit.is_limit:
        raise ValueError(f"{limit} is not a limit ordinal")
    head = limit.terms[:-1]
    exp, coeff = limit.terms[-1]
    if coeff > 1:
        head = head + ((exp, coeff - 1),)
    if exp.is_successor:
        beta = exp.predecessor()
        if beta.is_zero:
            tail_value = finite(n)
        else:
            tail_value = Ordinal(((beta, n),))
    else:
        tail_value = Ordinal(((fundamental(exp, n), 1),))
    return add(Ordinal(head), tail_value)


def _stage(xi: Ordinal, n: int) -> Ordinal:
    """The index of the n-th stage of S_{omega^xi}: omega^xi[n] when omega^xi
    is a limit, omega^xi itself otherwise."""
    base = omega_power(xi)
    return fundamental(base, n) if base.is_limit else base


def to_text(a: Ordinal) -> str:
    """Canonical literal: `0`, naturals, `w`, `w^<exp>`, `*<nat>`, `+`.

    Exponents that are not a plain natural or exactly w are parenthesised,
    so the printer output is unambiguous and round-trips through the parser.
    """
    if a.is_zero:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero:
            parts.append(str(coeff))
            continue
        if exp == ONE:
            body = "w"
        elif exp.is_finite:
            body = f"w^{exp.as_int()}"
        elif exp == OMEGA:
            body = "w^w"
        else:
            body = f"w^({to_text(exp)})"
        if coeff != 1:
            body += f"*{coeff}"
        parts.append(body)
    return "+".join(parts)
