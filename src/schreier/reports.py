"""Small result records, and the budget error, shared across modules.

Searches and verifiers in this package never claim more than they checked:
every report carries the horizon it was certified to and whether a budget
cut the search short.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Optional


@dataclass
class WitnessReport:
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
    stats: Dict[str, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


class BudgetExhausted(Exception):
    """A construction search ran out of restarts; carries the best attempt."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


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
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {"type": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = to_jsonable(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in obj]
    return str(obj)
