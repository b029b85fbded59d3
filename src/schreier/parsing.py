"""Text grammars for ordinals, families, vectors, spaces and functionals.

Recursive descent with precise error positions.  Printers emit the same
grammars canonically, and parsing a printed value returns an equal value;
ordinal literals that are not in normal form are normalised rather than
rejected (the sum is folded through ordinal addition).  Text nested more
than MAX_NESTING levels deep is a parse error.  `families`, `norms` and
`vectors` are imported by the functions that build families and
sequences, spaces, vectors and functionals, so a command that reads none
of them loads none of them.

    ordinal   := term ('+' term)*
    term      := nat | 'w' ('^' expbase)? ('*' nat)?
    expbase   := nat | 'w' | '(' ordinal ')'
    family    := atom (('[' family ']') | ('(' seq ')'))*
    atom      := 'S(' ordinal ')' | 'A(' nat ')'
    seq       := '[' nat (',' nat)* ']' | 'arith(' nat ',' nat ')' | 'even'
    vector    := coord ':' rational (',' coord ':' rational)*
    space     := 'l1' | 'c0' | 'lp(' number ')' | 'T' | 'S(tol=' number ')'
                 | 'X(' ordinal ')'
    set       := nat (',' nat)*  (or the empty string)
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING

from .ordinals import ONE, OMEGA, Ordinal, add, finite, omega_power, to_text

if TYPE_CHECKING:
    from .families import Family, FinSet, IndexSequence
    from .norms import NormSpace
    from .vectors import Functional, Vector


class ParseError(ValueError):
    """Syntax error carrying the byte offset where parsing failed."""

    def __init__(self, message: str, text: str, offset: int):
        super().__init__(f"{message} at offset {offset}: {text!r}")
        self.offset = offset
        self.text = text


# levels of nesting a text may hold: ordinal exponents, family brackets
# and functional children together; deeper text is a parse error, not a
# recursion that runs out of stack here or in the code that reads the value
MAX_NESTING = 100


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def nested(self, rule):
        """`rule` read one level of nesting down."""
        if self.depth == MAX_NESTING:
            raise self.error("nested too deeply")
        self.depth += 1
        value = rule(self)
        self.depth -= 1
        return value

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            raise self.error(f"expected {literal!r}")

    def nat(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a natural number")
        return int(self.text[start : self.pos])

    def number(self) -> float:
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isdigit() or self.text[self.pos] in ".e-+"):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a number")
        try:
            return float(self.text[start : self.pos])
        except ValueError:
            raise self.error("malformed number") from None

    def rational(self) -> Fraction:
        sign = -1 if self.take("-") else 1
        num = self.nat()
        if self.take("/"):
            den = self.nat()
            if den == 0:
                raise self.error("zero denominator")
            return Fraction(sign * num, den)
        return Fraction(sign * num)


def _whole(text: str, rule, what: str):
    """`rule` read over the whole of `text`, bar surrounding whitespace."""
    sc = _Scanner(text.strip())
    value = rule(sc)
    if not sc.eof():
        raise sc.error(f"trailing input after {what}")
    return value


# ---------------------------------------------------------------------------
# ordinals
# ---------------------------------------------------------------------------


def parse_ordinal(text: str) -> Ordinal:
    return _whole(text, _ordinal, "ordinal")


def _ordinal(sc: _Scanner) -> Ordinal:
    total = _ordinal_term(sc)
    while sc.take("+"):
        total = add(total, _ordinal_term(sc))
    return total


def _ordinal_term(sc: _Scanner) -> Ordinal:
    if sc.peek().isdigit():
        return finite(sc.nat())
    if sc.take("w"):
        exponent = ONE
        if sc.take("^"):
            exponent = _expbase(sc)
        coeff = 1
        if sc.take("*"):
            coeff = sc.nat()
            if coeff == 0:
                raise sc.error("zero coefficient")
        return omega_power(exponent, coeff)
    raise sc.error("expected an ordinal term")


def _expbase(sc: _Scanner) -> Ordinal:
    if sc.peek().isdigit():
        return finite(sc.nat())
    if sc.take("("):
        inner = sc.nested(_ordinal)
        sc.expect(")")
        return inner
    if sc.take("w"):
        return OMEGA
    raise sc.error("expected an exponent")


print_ordinal = to_text


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def parse_family(text: str) -> Family:
    return _whole(text, _family, "family")


def _family(sc: _Scanner) -> Family:
    from .families import BracketFamily, RelabeledFamily

    fam = _family_atom(sc)
    while True:
        if sc.take("["):
            inner = sc.nested(_family)
            sc.expect("]")
            fam = BracketFamily(fam, inner)
        elif sc.take("("):
            seq = _sequence(sc)
            sc.expect(")")
            fam = RelabeledFamily(fam, seq)
        else:
            return fam


def _family_atom(sc: _Scanner) -> Family:
    from .families import CardinalityFamily, SchreierFamily

    if sc.take("S("):
        idx = _ordinal(sc)
        sc.expect(")")
        return SchreierFamily(idx)
    if sc.take("A("):
        bound = sc.nat()
        sc.expect(")")
        return CardinalityFamily(bound)
    raise sc.error("expected S(<ordinal>) or A(<nat>)")


def _sequence(sc: _Scanner) -> IndexSequence:
    from .families import IndexSequence

    start = sc.pos
    prefix, tail = (), (None, None)
    if sc.take("["):
        values = [sc.nat()]
        while sc.take(","):
            values.append(sc.nat())
        sc.expect("]")
        prefix = tuple(values)
    elif sc.take("arith("):
        a = sc.nat()
        sc.expect(",")
        d = sc.nat()
        sc.expect(")")
        tail = (a, d)
    elif sc.take("even"):
        tail = (2, 2)
    else:
        raise sc.error("expected [..], arith(a,d) or even")
    try:
        return IndexSequence(prefix, *tail)
    except ValueError as exc:
        # well-formed text that names no index sequence (not increasing,
        # or a value below 1) is reported where the sequence starts
        raise ParseError(str(exc), sc.text, start) from None


def print_family(fam: Family) -> str:
    from .families import BracketFamily, CardinalityFamily, RelabeledFamily, SchreierFamily

    if isinstance(fam, SchreierFamily):
        return f"S({to_text(fam.index)})"
    if isinstance(fam, CardinalityFamily):
        return f"A({fam.bound})"
    if isinstance(fam, BracketFamily):
        return f"{print_family(fam.outer)}[{print_family(fam.inner)}]"
    if isinstance(fam, RelabeledFamily):
        return f"{print_family(fam.base)}({print_sequence(fam.labels)})"
    raise TypeError(f"not a family: {fam!r}")


def parse_sequence(text: str) -> IndexSequence:
    return _whole(text, _sequence, "sequence")


def print_sequence(seq: IndexSequence) -> str:
    """Grammar text for a sequence.

    Table-extended sequences are out of grammar; their explicit prefix is
    emitted, which is faithful within any horizon the prefix covers.
    """
    if seq.tail_start is not None and not seq.prefix:
        if (seq.tail_start, seq.tail_step) == (2, 2):
            return "even"
        return f"arith({seq.tail_start},{seq.tail_step})"
    return "[" + ",".join(map(str, seq.prefix)) + "]"


# ---------------------------------------------------------------------------
# vectors and sets
# ---------------------------------------------------------------------------


def _coordinate(sc: _Scanner) -> int:
    start = sc.pos
    coord = sc.nat()
    if coord < 1:
        raise ParseError("coordinates start at 1", sc.text, start)
    return coord


def parse_vector(text: str) -> Vector:
    from .vectors import Vector

    text = text.strip()
    if not text or text == "0":
        return Vector()
    sc = _Scanner(text)
    data = {}
    while True:
        coord = _coordinate(sc)
        sc.expect(":")
        value = sc.rational()
        if coord in data:
            raise sc.error(f"coordinate {coord} repeated")
        data[coord] = value
        if sc.eof():
            break
        sc.expect(",")
    return Vector.from_dict(data)


def print_vector(x: Vector) -> str:
    return str(x)


def parse_set(text: str) -> FinSet:
    text = text.strip()
    if not text:
        return ()
    sc = _Scanner(text)
    values = [_coordinate(sc)]
    while sc.take(","):
        values.append(_coordinate(sc))
    if not sc.eof():
        raise sc.error("trailing input after set")
    out = tuple(values)
    if any(out[i] >= out[i + 1] for i in range(len(out) - 1)):
        raise ParseError("set must be strictly increasing", text, 0)
    return out


def print_set(E: FinSet) -> str:
    return ",".join(map(str, E))


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------


def parse_space(text: str) -> NormSpace:
    return _whole(text, _space, "space")


def _space(sc: _Scanner) -> NormSpace:
    from . import norms

    start = sc.pos
    if sc.take("l1"):
        return norms.L1Space()
    if sc.take("lp("):
        make, arg = norms.LpSpace, sc.number()
    elif sc.take("c0"):
        return norms.C0Space()
    elif sc.take("T"):
        return norms.TsirelsonSpace()
    elif sc.take("S("):
        sc.expect("tol=")
        make, arg = norms.SchlumprechtSpace, sc.number()
    elif sc.take("S"):
        return norms.SchlumprechtSpace()
    elif sc.take("X("):
        make, arg = norms.MixedSchreierSpace, _ordinal(sc)
    else:
        raise sc.error("expected l1, lp(p), c0, T, S(tol=..) or X(..)")
    sc.expect(")")
    try:
        return make(arg)
    except ValueError as exc:
        # a well-formed descriptor that names no space (lp(1), S(tol=0),
        # X(0)) is reported where the descriptor starts
        raise ParseError(str(exc), sc.text, start) from None


def print_space(space: NormSpace) -> str:
    from . import norms

    if isinstance(space, norms.L1Space):
        return "l1"
    if isinstance(space, norms.LpSpace):
        return f"lp({space.p!r})"
    if isinstance(space, norms.C0Space):
        return "c0"
    if isinstance(space, norms.TsirelsonSpace):
        return "T"
    if isinstance(space, norms.SchlumprechtSpace):
        return f"S(tol={space.tolerance!r})"
    if isinstance(space, norms.MixedSchreierSpace):
        return f"X({to_text(space.xi)})"
    raise TypeError(f"not a space: {space!r}")


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------


def print_functional(f: Functional) -> str:
    from .vectors import Average, SumNode, Unit

    if isinstance(f, Unit):
        return f"U({'+' if f.sign > 0 else '-'}{f.coord})"
    if isinstance(f, Average):
        inner = ",".join(print_functional(c) for c in f.children)
        return f"AVG({f.size})[{inner}]"
    if isinstance(f, SumNode):
        inner = ",".join(print_functional(c) for c in f.children)
        return f"SCH[{inner}]"
    raise TypeError(f"not a functional: {f!r}")


def parse_functional(text: str) -> Functional:
    return _whole(text, _functional, "functional")


def _functional(sc: _Scanner) -> Functional:
    from .vectors import Average, SumNode, Unit

    if sc.take("U("):
        sign = 1
        if sc.take("-"):
            sign = -1
        else:
            sc.take("+")
        coord = sc.nat()
        sc.expect(")")
        return Unit(sign, coord)
    if sc.take("AVG("):
        size = sc.nat()
        sc.expect(")")
        sc.expect("[")
        children = [sc.nested(_functional)]
        while sc.take(","):
            children.append(sc.nested(_functional))
        sc.expect("]")
        return Average(size, tuple(children))
    if sc.take("SCH["):
        children = [sc.nested(_functional)]
        while sc.take(","):
            children.append(sc.nested(_functional))
        sc.expect("]")
        return SumNode(tuple(children))
    raise sc.error("expected U(..), AVG(..)[..] or SCH[..]")
