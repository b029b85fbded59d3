"""Exact combinatorics of transfinite Schreier families, Tsirelson-type
implicit norms, and finite-horizon distortion witnesses.

Submodules load on first use (PEP 562): `from schreier import norm` imports
`schreier.norms` and what it needs, and nothing else.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "ordinals": "ONE OMEGA Ordinal ZERO add compare finite fundamental omega_power",
    "families": (
        "A BracketFamily CardinalityFamily EVENS Family IndexSequence NATURALS "
        "RelabeledFamily S SchreierFamily enumerate_maximal family_mass finset "
        "member spread_of"
    ),
    "verifiers": (
        "construct_L construct_L_bracket construct_N threshold_search "
        "verify_bracket_inclusion verify_union_property"
    ),
    "vectors": (
        "Average BlockSequence Functional SumNode Unit Vector block_combine "
        "evaluate negate validate_functional"
    ),
    "norms": (
        "C0 C0Space L1 L1Space LpSpace MixedSchreierSpace NormResult "
        "SchlumprechtSpace T TsirelsonSpace interval_norm norm norm_j"
    ),
    "constructions": (
        "BudgetExhausted ImprovedBlocking PropertyPn SccResult build_l1_average "
        "build_ris build_schreier_functional c0_to_l1_blocking "
        "james_blocking_step l1_to_c0_blocking scc_basic scc_on_blocks "
        "two_norm_blocking"
    ),
    "analysis": (
        "DistortionReport DistortionWitness IntervalNormSpec SpreadingEstimate "
        "alpha_index_diagnostic distortion_witness l1_lower_constant "
        "ratio_bound_check spreading_profile standard_corpus "
        "interval_distortion_experiment predicted_interval_ratio"
    ),
    "reports": "WitnessReport to_jsonable",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    # an imported submodule binds itself here too; dir() lists only the
    # exports and dunders, whichever submodules happen to be loaded
    return sorted({n for n in globals() if n.startswith("__")} | set(_MODULE_OF))
