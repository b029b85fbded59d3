"""Small result records, and the budget and construction errors, shared
across modules.

Every record of the package (ordinals, families, witnesses, vectors,
spaces and results) is a slotted class on `Record`: its fields are its
annotations, in order, and equality, hashing and repr follow from them.

Searches and verifiers in this package never claim more than they checked:
every report carries the horizon it was certified to and whether a budget
cut the search short.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Optional


class Factory:
    """A field default made afresh for every record by calling `make`."""

    def __init__(self, make) -> None:
        self.make = make


_MISSING = object()


def _frozen_setattr(self, name: str, value: Any) -> None:
    import dataclasses

    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    import dataclasses

    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def _frozen_setstate(self, state) -> None:
    # copy and pickle restore the slots past the frozen __setattr__; the
    # cached hash is left out, since str hashes differ between processes
    for name, value in state[1].items():
        if name != "_hash":
            object.__setattr__(self, name, value)


class _Slotted(type):
    """Creates every record class, `Record` aside, in one hook: the class
    gets `__slots__`, so that no record has an instance dict (the slots it
    declares itself, then its fields, then `_hash` for a frozen one), and
    then its generated methods.

    A class attribute of a slot's name would replace the slot, so the field
    defaults leave the namespace before `type.__new__`; the generated
    `__init__` alone keeps them.
    """

    def __new__(mcls, name, bases, ns, frozen: bool = False):
        names = tuple(ns.get("__annotations__", ()))
        defaults = {f: ns.pop(f) for f in names if f in ns}
        own = (*ns.get("__slots__", ()), *names)
        ns["__slots__"] = own + ("_hash",) if frozen else own
        cls = super().__new__(mcls, name, bases, ns)
        if not bases:
            return cls
        gen: Dict[str, Any] = {"_MISSING": _MISSING}
        params, body = [], []
        for field in names:
            value = field
            default = defaults.get(field, _MISSING)
            if isinstance(default, Factory):
                gen[f"_make_{field}"] = default.make
                params.append(f"{field}=_MISSING")
                value = f"_make_{field}() if {field} is _MISSING else {field}"
            elif default is not _MISSING:
                gen[f"_default_{field}"] = default
                params.append(f"{field}=_default_{field}")
            else:
                params.append(field)
            if frozen:
                gen[f"_set_{field}"] = cls.__dict__[field].__set__
                body.append(f"_set_{field}(self, {value})")
            else:
                body.append(f"self.{field} = {value}")
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        if frozen:
            gen["_set_hash"] = cls.__dict__["_hash"].__set__
        mine = "(" + "".join(f"self.{n}, " for n in names) + ")"
        theirs = "(" + "".join(f"other.{n}, " for n in names) + ")"
        shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
        exec(
            f"def __init__(self, {', '.join(params)}):\n"
            f"    {'; '.join(body) or 'pass'}\n"
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return {mine} == {theirs}\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            "    try:\n"
            "        return self._hash\n"
            "    except AttributeError:\n"
            f"        _set_hash(self, hash({mine}))\n"
            "        return self._hash\n"
            "def __repr__(self):\n"
            f"    return f'{cls.__qualname__}({shown})'\n",
            gen,
        )
        for method in ("__init__", "__eq__", "__repr__"):
            if method not in cls.__dict__:
                setattr(cls, method, gen[method])
        if cls.__dict__.get("__hash__") is None:
            cls.__hash__ = gen["__hash__"] if frozen else None
        if frozen:
            cls.__setattr__ = _frozen_setattr
            cls.__delattr__ = _frozen_delattr
            cls.__setstate__ = _frozen_setstate
        cls._fields = names
        return cls


class Record(metaclass=_Slotted):
    """A value record: the fields are the subclass's annotations, in order.

    A value the class body gives a field's name is its default (a
    `Factory` makes one per record).  The subclass gets an `__init__`
    taking the fields in order, which then calls `__post_init__` if the
    class has one; `==` between records of the same class comparing the
    field tuples; and the repr `Name(field=value, ...)`.  Methods the
    class defines itself are kept.  `class R(Record, frozen=True)` makes
    the record immutable: assigning or deleting an attribute raises
    `FrozenInstanceError`, and the hash is that of the field tuple.  A
    frozen record computes it on first use and keeps it in the read-only
    slot `_hash`, outside the fields: ordinals and family expressions key
    every family memo, and hashing their nested fields afresh on each
    lookup dominated those.  Other records are mutable and unhashable.

    Records hold no instance dict: `_Slotted`, the metaclass, creates each
    subclass with `__slots__` for its fields and generates its methods in
    the same hook, and a frozen `__init__` writes the fields through the
    slot descriptors.  The defaults live in the generated `__init__`
    alone, not as class attributes.  A record keeps state other than its
    fields only in slots it declares itself, in `__slots__`, as `Ordinal`
    does for its predecessor and predicates.

    These are the semantics of `dataclasses.dataclass`, and the methods
    are generated from source once per class as it does, but without the
    import of `dataclasses` (and `inspect`) and its per-class cost, which
    every command paid at start-up.
    """

    _fields = ()


class WitnessReport(Record):
    """Outcome of a check, with the evidence that decided it.

    `ok` is the verdict.  On success `witness` holds whatever certifies it;
    on failure `counterexample` holds the first violating object found.
    `certified_horizon` bounds the claim: nothing is asserted beyond it.
    """

    ok: bool
    detail: str = ""
    witness: Any = None
    counterexample: Any = None
    certified_horizon: Optional[int] = None
    budget_exhausted: bool = False
    method: Optional[str] = None
    stats: Dict[str, Any] = Factory(dict)

    def __bool__(self) -> bool:
        return self.ok


class BudgetExhausted(Exception):
    """A construction search ran out of restarts; carries the best attempt."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class ConstructionError(Exception):
    """A construction ran out of room before reaching the requested length."""


def to_jsonable(obj: Any) -> Any:
    """Recursively convert results to JSON-friendly structures.

    Exact rationals are rendered as "p/q" strings, never floats, so a
    report preserves exactness end to end.
    """
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, Record):
        out = {"type": type(obj).__name__}
        for name in obj._fields:
            out[name] = to_jsonable(getattr(obj, name))
        return out
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    return str(obj)
