"""Every import in the package is used where it is bound, every
module-level private helper is used somewhere in the package, the package
exposes the same public names as always, and each CLI command loads only
the modules it uses."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

import schreier

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "schreier"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def bound_names(node):
    """The names one import statement binds."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def names_read(node: ast.AST):
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    """Names imported at module level are used in the module; names
    imported inside a function are used in that function."""
    tree = ast.parse(path.read_text())
    used = names_read(tree)
    unused = [f"{name} (line {node.lineno})"
              for node in tree.body for name in bound_names(node) if name not in used]
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used = names_read(fn)
            unused += [f"{name} (line {node.lineno}, in {fn.name})"
                       for node in ast.walk(fn) for name in bound_names(node) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def referenced_names(node: ast.AST):
    """Every name read inside node, as a plain name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_no_unreferenced_private_helpers():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in referenced_names(tree))
    dead = [
        f"{module}: {node.name} (line {node.lineno})"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        # a helper that only calls itself is still unused
        and uses[node.name] == sum(name == node.name for name in referenced_names(node))
    ]
    assert not dead, f"private helpers nothing in the package uses: {', '.join(dead)}"


# the family expression classes, and the functions of families.py that may
# dispatch on them: the kernel compiler, canonical rewriting and the two
# oracles, which check the kernels and so must not ask them
FAMILY_CLASSES = {"SchreierFamily", "CardinalityFamily", "BracketFamily", "RelabeledFamily"}
FAMILY_READERS = {"_kernel", "canonicalize", "_exhaustive_uncached", "recheck_witness"}


def family_checks(node: ast.AST, owner=None):
    """(function, line) of each isinstance test against a family expression
    class, by the innermost function holding it."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "isinstance" and len(node.args) == 2:
        kinds = node.args[1]
        kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        if any(isinstance(k, ast.Name) and k.id in FAMILY_CLASSES for k in kinds):
            yield owner, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from family_checks(child, owner)


def test_only_the_kernel_compiler_reads_family_expressions():
    """Past compilation every question about a family is asked of its kernel,
    in `families` and in the verifiers built on it."""
    for name in ("families.py", "verifiers.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        stray = [f"{owner} (line {line})" for owner, line in family_checks(tree)
                 if owner not in FAMILY_READERS]
        assert not stray, f"{name} dispatches on family expressions in {', '.join(stray)}"


def test_verifiers_ask_kernels_for_their_shape():
    """Which kernels are brackets, and which are size-determined, is known
    to `families` alone: the verifiers import no bracket, relabeling or
    room kernel class, and compare no kernel's family expression."""
    tree = ast.parse((PACKAGE / "verifiers.py").read_text())
    imported = {name for node in ast.walk(tree) for name in bound_names(node)}
    assert not imported & {"_Bracket", "_Relabeled", "_Room"}
    compared = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
                and any(isinstance(sub, ast.Attribute) and sub.attr == "fam" for sub in ast.walk(node))]
    assert not compared, f"verifiers.py compares a kernel's family at lines {compared}"


# ---------------------------------------------------------------------------
# the public API
# ---------------------------------------------------------------------------

# every name the package exports, by the submodule defining it
PUBLIC = {
    "ordinals": ["ONE", "OMEGA", "Ordinal", "ZERO", "add", "compare", "finite", "fundamental",
                 "omega_power"],
    "families": ["A", "BracketFamily", "CardinalityFamily", "EVENS", "Family", "IndexSequence",
                 "NATURALS", "RelabeledFamily", "S", "SchreierFamily", "enumerate_maximal",
                 "family_mass", "finset", "member", "spread_of"],
    "verifiers": ["construct_L", "construct_L_bracket", "construct_N", "threshold_search",
                  "verify_bracket_inclusion", "verify_union_property"],
    "vectors": ["Average", "BlockSequence", "Functional", "SumNode", "Unit", "Vector",
                "block_combine", "evaluate", "negate", "validate_functional"],
    "norms": ["C0", "C0Space", "L1", "L1Space", "LpSpace", "MixedSchreierSpace", "NormResult",
              "SchlumprechtSpace", "T", "TsirelsonSpace", "interval_norm", "norm", "norm_j"],
    "constructions": ["BudgetExhausted", "ImprovedBlocking", "PropertyPn", "SccResult",
                      "build_l1_average", "build_ris", "build_schreier_functional",
                      "c0_to_l1_blocking", "james_blocking_step", "l1_to_c0_blocking",
                      "scc_basic", "scc_on_blocks", "two_norm_blocking"],
    "analysis": ["DistortionReport", "DistortionWitness", "IntervalNormSpec",
                 "SpreadingEstimate", "alpha_index_diagnostic", "distortion_witness",
                 "l1_lower_constant", "ratio_bound_check", "spreading_profile", "standard_corpus",
                 "interval_distortion_experiment", "predicted_interval_ratio"],
    "reports": ["WitnessReport", "to_jsonable"],
}


def test_public_names_are_listed():
    public = [n for n in dir(schreier) if not n.startswith("_")]
    assert sorted(public) == sorted(n for names in PUBLIC.values() for n in names)
    assert "__version__" in dir(schreier)
    assert schreier.__version__ == "0.1.0"


@pytest.mark.parametrize("module", PUBLIC)
def test_public_names_are_the_submodules_own(module):
    mod = import_module(f"schreier.{module}")
    for name in PUBLIC[module]:
        assert getattr(schreier, name) is getattr(mod, name), name


# the names `verifiers` defines that `families` binds on first read
MOVED_TO_VERIFIERS = ["ThresholdResult", "threshold_search", "construct_L", "construct_L_bracket",
                      "construct_N", "verify_union_property", "verify_bracket_inclusion"]


@pytest.mark.parametrize("name", MOVED_TO_VERIFIERS)
def test_verifier_names_are_one_object_everywhere(name):
    families, verifiers = import_module("schreier.families"), import_module("schreier.verifiers")
    value = getattr(verifiers, name)
    assert getattr(families, name) is value
    assert vars(families)[name] is value  # bound for whoever reads families.<name> next
    if name in PUBLIC["verifiers"]:
        assert getattr(schreier, name) is value


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        schreier.no_such_name
    with pytest.raises(ImportError):
        from schreier import no_such_name  # noqa: F401


# ---------------------------------------------------------------------------
# import footprint of CLI commands
# ---------------------------------------------------------------------------

_FOOTPRINT = """
import contextlib, io, json, sys
from schreier import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


# no command outside `verify` and `schreier threshold` compiles the verifiers
NO_VERIFIERS = ["verifiers"]


@pytest.mark.parametrize("argv, unused", [
    (["ordinal", "add", "--a", "w^2*2+w", "--b", "w^2"],
     ["families", "norms", "vectors", "constructions", "analysis"] + NO_VERIFIERS),
    (["schreier", "member", "--family", "S(2)", "--set", "2,3,4,5,6"],
     ["norms", "vectors", "constructions", "analysis"] + NO_VERIFIERS),
    (["verify", "bracket", "--lhs", "S(1)", "--rhs", "S(2)", "--horizon", "10"],
     ["norms", "vectors", "constructions", "analysis"]),
    (["norm", "eval", "--space", "T", "--vector", "3:1,4:1,5:1"],
     ["families", "constructions", "analysis"] + NO_VERIFIERS),
    (["scc", "basic", "--xi", "2", "--zeta", "1", "--eps", "1/3", "--seq", "arith(2,1)"],
     ["norms", "analysis"] + NO_VERIFIERS),
    (["scc", "blocks", "--xi", "1", "--zeta", "0", "--eps", "1/3"],
     ["norms", "analysis"] + NO_VERIFIERS),
    (["smodel", "profile", "--space", "T", "--family", "S(1)", "--horizon", "8"],
     ["constructions"] + NO_VERIFIERS),
    (["schreier", "maximal", "--family", "A(2)", "--first", "1", "--horizon", "4"],
     ["norms", "vectors", "constructions", "analysis"] + NO_VERIFIERS),
    (["schreier", "mass", "--family", "S(1)", "--coeffs", "2:1/6,3:1/6,4:1/6,5:1/6,6:1/6,7:1/6"],
     ["norms", "constructions", "analysis"] + NO_VERIFIERS),
    (["schreier", "threshold", "--xi", "2", "--zeta", "w", "--horizon", "20"],
     ["norms", "vectors", "constructions", "analysis"]),
    (["norm", "interval", "--space", "T", "--vector", "4:1/2,5:1/2,6:1/2,7:1/2", "--n", "2"],
     ["families", "constructions", "analysis"] + NO_VERIFIERS),
    (["distort", "search", "--space", "T", "--second", "interval:2", "--family", "S(1)",
      "--t", "6/5"], NO_VERIFIERS),
    (["distort", "baseline", "--space", "c0", "--second", "interval:3", "--n", "3"], NO_VERIFIERS),
    (["verify", "pair-absorption", "--xi", "1", "--horizon", "14"],
     ["norms", "vectors", "constructions", "analysis"]),
    (["verify", "refinement", "--which", "outer", "--xi", "w", "--zeta", "1", "--horizon", "20"],
     ["norms", "vectors", "constructions", "analysis"]),
    (["diag", "alpha", "--n", "1", "--floor", "4", "--horizon", "8"], ["constructions"] + NO_VERIFIERS),
], ids=["ordinal add", "schreier member", "verify bracket", "norm eval", "scc basic",
        "scc blocks", "smodel profile", "schreier maximal", "schreier mass", "schreier threshold",
        "norm interval", "distort search", "distort baseline", "verify pair-absorption",
        "verify refinement", "diag alpha"])
def test_cli_loads_only_what_the_command_uses(argv, unused):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    loaded = [m for m in unused if f"schreier.{m}" in result["modules"]]
    assert not loaded, f"{' '.join(argv[:2])} loaded {loaded}"
    # records are plain classes: no command pays for the dataclass machinery
    loaded = [m for m in ("dataclasses", "inspect") if m in result["modules"]]
    assert not loaded, f"{' '.join(argv[:2])} loaded {loaded}"
