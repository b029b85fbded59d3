"""Every record class of the package and of the test oracles: value
equality, hashing, frozenness, repr text and JSON keys, all derived from its
field tuple."""

from __future__ import annotations

import ast
import copy
import dataclasses
import pickle
import types
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from schreier import analysis, constructions, families, norms, ordinals, reports, vectors
from schreier.ordinals import finite
from schreier.reports import Record, WitnessReport, to_jsonable

ONE_, TWO = finite(1), finite(2)
LEAF = families.LeafWitness("r")
E1 = vectors.Vector(((1, Fraction(1)),))
UNIT = vectors.Unit(1, 2)
AVG = vectors.Average(2, (UNIT,))

# one instance of every record class, with its repr
SAMPLES = [
    (ordinals.finite(2), "Ordinal[2]"),
    (WitnessReport(True),
     "WitnessReport(ok=True, detail='', witness=None, counterexample=None, "
     "certified_horizon=None, budget_exhausted=False, method=None, stats={})"),
    (families.EVENS, "IndexSequence(prefix=(), tail_start=2, tail_step=2)"),
    (families.S(1), "SchreierFamily(index=Ordinal[1])"),
    (families.A(2), "CardinalityFamily(bound=2)"),
    (families.BracketFamily(families.S(1), families.A(2)),
     "BracketFamily(outer=SchreierFamily(index=Ordinal[1]), inner=CardinalityFamily(bound=2))"),
    (families.RelabeledFamily(families.A(2), families.EVENS),
     "RelabeledFamily(base=CardinalityFamily(bound=2), "
     "labels=IndexSequence(prefix=(), tail_start=2, tail_step=2))"),
    (LEAF, "LeafWitness(rule='r')"),
    (families.SplitWitness(((2, 3),), (LEAF,), LEAF),
     "SplitWitness(blocks=((2, 3),), block_witnesses=(LeafWitness(rule='r'),), "
     "minima_witness=LeafWitness(rule='r'))"),
    (families.LimitWitness(3, TWO, LEAF),
     "LimitWitness(n=3, stage=Ordinal[2], inner=LeafWitness(rule='r'))"),
    (families.RelabelWitness((1,), LEAF),
     "RelabelWitness(preimage=(1,), inner=LeafWitness(rule='r'))"),
    (families.MembershipResult(True, LEAF),
     "MembershipResult(member=True, witness=LeafWitness(rule='r'))"),
    (families.MaximalEnumeration([(1,)], [False], False),
     "MaximalEnumeration(sets=[(1,)], truncated=[False], all_truncated=False)"),
    (families.ThresholdResult(2, 10, []),
     "ThresholdResult(n=2, certified_horizon=10, rejections=[], minimal=True)"),
    (families.MassResult(Fraction(1, 2), (3,)), "MassResult(mass=Fraction(1, 2), argmax=(3,))"),
    (E1, "Vector(entries=((1, Fraction(1, 1)),))"),
    (vectors.BlockSequence((E1,)),
     "BlockSequence(blocks=(Vector(entries=((1, Fraction(1, 1)),)),), origins=((1,),))"),
    (UNIT, "Unit(sign=1, coord=2)"),
    (AVG, "Average(size=2, children=(Unit(sign=1, coord=2),))"),
    (vectors.SumNode((AVG,)),
     "SumNode(children=(Average(size=2, children=(Unit(sign=1, coord=2),)),))"),
    (norms.L1, "L1Space()"),
    (norms.C0, "C0Space()"),
    (norms.LpSpace(2.0), "LpSpace(p=2.0)"),
    (norms.T, "TsirelsonSpace()"),
    (norms.SchlumprechtSpace(), "SchlumprechtSpace(tolerance=1e-09)"),
    (norms.MixedSchreierSpace(ONE_), "MixedSchreierSpace(xi=Ordinal[1])"),
    (norms.PartLeaf(1, -1), "PartLeaf(coord=1, sign=-1)"),
    (norms.PartNode(Fraction(1, 2), (norms.PartLeaf(1, 1),)),
     "PartNode(weight=Fraction(1, 2), children=(PartLeaf(coord=1, sign=1),))"),
    (norms.NormResult(Fraction(0), True),
     "NormResult(value=Fraction(0, 1), exact=True, converged=True, witness=None, tolerance=0.0)"),
    # the norming-set generator is a test oracle, and its record one of these classes
    (oracles.WGeneration([], False, 1), "WGeneration(functionals=[], truncated=False, depth=1)"),
    (constructions.SccResult(E1, (1,), ONE_, TWO, Fraction(1), (Fraction(0), ())),
     "SccResult(vector=Vector(entries=((1, Fraction(1, 1)),)), support_set=(1,), xi=Ordinal[1], "
     "zeta=Ordinal[2], eps=Fraction(1, 1), mass_certificate=(Fraction(0, 1), ()))"),
    (constructions.ImprovedBlocking(None, [], [], Fraction(2)),
     "ImprovedBlocking(blocking=None, support_sets=[], combinations=[], target=Fraction(2, 1))"),
    (constructions.PropertyPn(2, Fraction(1), 8, Fraction(1)),
     "PropertyPn(n=2, verified_constant=Fraction(1, 1), horizon=8, target=Fraction(1, 1))"),
    (analysis.IntervalNormSpec(2), "IntervalNormSpec(n=2)"),
    (analysis.SpreadingEstimate(families.A(2), 8, 1, 2, 3, 4),
     "SpreadingEstimate(family=CardinalityFamily(bound=2), horizon=8, l1_lower=1, l1_upper=2, "
     "c0_lower=3, c0_upper=4, witnesses={})"),
    (analysis.DistortionWitness((1,), None, E1, E1, 1, 1, 1, "x", "y"),
     "DistortionWitness(index_set=(1,), membership=None, x=Vector(entries=((1, Fraction(1, 1)),)), "
     "y=Vector(entries=((1, Fraction(1, 1)),)), ratio=1, x_second=1, y_second=1, x_label='x', "
     "y_label='y')"),
    (analysis.DistortionReport(None, 0, None, "c", 0, 2),
     "DistortionReport(found=None, best_ratio=0, best_pair=None, corpus_label='c', "
     "candidates_tried=0, t=2)"),
    (analysis.IntervalExperimentReport(ONE_, 2, 3, 0, 1, None, None, {}),
     "IntervalExperimentReport(xi=Ordinal[1], n=2, k=3, eps=0, formula_value=1, "
     "achieved_ratio=None, membership=None, details={}, budget_exhausted=False)"),
    (analysis.RatioCheckReport(1, 0, []), "RatioCheckReport(delta=1, samples=0, violations=[])"),
]

FROZEN = {
    "Ordinal", "IndexSequence", "SchreierFamily", "CardinalityFamily", "BracketFamily",
    "RelabeledFamily", "LeafWitness", "SplitWitness", "LimitWitness", "RelabelWitness",
    "MembershipResult", "Vector", "BlockSequence", "Unit", "Average", "SumNode", "L1Space",
    "C0Space", "LpSpace", "TsirelsonSpace", "SchlumprechtSpace", "MixedSchreierSpace",
    "PartLeaf", "PartNode", "IntervalNormSpec",
}


def test_samples_cover_every_record_class():
    modules = (ordinals, reports, families, vectors, norms, constructions, analysis, oracles)
    classes = {c for m in modules for c in vars(m).values()
               if isinstance(c, type) and issubclass(c, Record) and c is not Record}
    assert {type(r) for r, _ in SAMPLES} == classes
    assert len(classes) == 39 and FROZEN <= {c.__name__ for c in classes}


def _stranger(cls):
    """A record class of another name with the same fields and frozenness."""
    frozen = cls.__name__ in FROZEN
    return types.new_class("Stranger", (Record,), {"frozen": frozen},
                           lambda ns: ns.update(__annotations__=dict.fromkeys(cls._fields)))


@pytest.mark.parametrize("record, text", SAMPLES, ids=[type(r).__name__ for r, _ in SAMPLES])
def test_record_semantics(record, text):
    cls = type(record)
    values = tuple(getattr(record, name) for name in cls._fields)
    twin = cls(*values)
    assert twin is not record and twin == record and not twin != record
    stranger = _stranger(cls)(*values)
    assert stranger != record and record != stranger and not stranger == record
    assert repr(record) == text
    jsonable = to_jsonable(record)
    assert list(jsonable) == ["type", *cls._fields] and jsonable["type"] == cls.__name__
    name = cls._fields[0] if cls._fields else "anything"
    if cls.__name__ in FROZEN:
        assert hash(twin) == hash(record) == hash(values)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        assert record == twin
    else:
        with pytest.raises(TypeError):
            hash(record)
        new = object()
        setattr(twin, name, new)
        assert getattr(twin, name) is new and twin != record


def test_frozen_hash_is_cached_outside_the_fields():
    fam = families.BracketFamily(families.S(2), families.A(3))
    with pytest.raises(AttributeError):
        fam._hash  # unset until the first hash
    assert hash(fam) == hash((fam.outer, fam.inner))
    assert fam._hash == hash(fam)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fam._hash = 0
    assert fam._hash == hash(fam)
    assert list(to_jsonable(fam)) == ["type", "outer", "inner"]
    assert repr(fam) == ("BracketFamily(outer=SchreierFamily(index=Ordinal[2]), "
                         "inner=CardinalityFamily(bound=3))")


def test_records_hold_no_instance_dict():
    for record, _ in SAMPLES:
        cls = type(record)
        assert "__slots__" in vars(cls) and not hasattr(record, "__dict__"), cls.__name__
        # each field is its slot on the class: its default lives in __init__
        assert all(isinstance(vars(cls)[name], types.MemberDescriptorType)
                   for name in cls._fields), cls.__name__
    with pytest.raises(AttributeError):
        WitnessReport(True).extra = 1


@pytest.mark.parametrize("record, text", SAMPLES, ids=[type(r).__name__ for r, _ in SAMPLES])
def test_records_survive_copy_and_pickle(record, text):
    frozen = type(record).__name__ in FROZEN
    if frozen:
        hash(record)  # caches _hash
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and repr(twin) == text
        if frozen:
            with pytest.raises(AttributeError):
                twin._hash  # recomputed on first use, not carried over
            assert hash(twin) == hash(record)


def test_no_class_defines_its_own_hash():
    # `Record` owns the hash of every frozen record, and its cache
    package = Path(reports.__file__).parent
    own = [f"{path.name}:{node.name}" for path in sorted(package.glob("*.py"))
           for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)
           if any(isinstance(item, ast.FunctionDef) and item.name == "__hash__" for item in node.body)]
    assert own == []


def test_verdicts_decide_truthiness():
    # a membership answer and a report are true exactly when they hold,
    # whatever else they carry
    for verdict in (True, False):
        assert bool(families.MembershipResult(verdict, LEAF)) is verdict
        assert bool(WitnessReport(verdict, detail="d", witness=LEAF, stats={"n": 1})) is verdict


def test_factory_defaults_are_fresh():
    a, b = WitnessReport(True), WitnessReport(True)
    assert a.stats == {} and a.stats is not b.stats
    assert WitnessReport(True, stats={"n": 1}).stats == {"n": 1}
    c, d = (analysis.SpreadingEstimate(families.A(2), 8, 1, 2, 3, 4) for _ in range(2))
    assert c.witnesses == {} and c.witnesses is not d.witnesses
