"""Mutation checks: every check in the suite must be able to fail.

Each entry of MUTANTS names a file, an exact source text in it, the text
that replaces it, and the tests that must fail once it is replaced.  For
each entry the script copies `src/`, `tests/` and `pyproject.toml` to a
temporary directory, applies the edit there, runs the named tests, and
reports the mutant as killed (the tests fail, or their modules fail to
import the mutated package) or survived (they pass).  The working tree is
never edited.

Run from anywhere, with every entry or only those named:

    python tests/mutants.py
    python tests/mutants.py bracket-split-shortest-first

It exits 0 when every entry ends as its `expect` says: "killed" for a real
mutation, "survived" for an edit that changes nothing, which shows that the
script can tell the two apart.  pytest does not collect this file;
`tests/test_mutants.py` checks only that each source text occurs exactly
once in its file, so that a refactor which moves a mutated line must
update the table.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    source: str
    replacement: str
    tests: Tuple[str, ...]
    expect: str = "killed"


MUTANTS = [
    Mutant(
        "bracket-split-shortest-first",
        "src/schreier/families.py",
        "        for end in range(len(E), start, -1):\n",
        "        for end in range(start + 1, len(E) + 1):\n",
        ("tests/test_families.py::test_greedy_equals_exhaustive_small",),
    ),
    Mutant(
        "bracket-push-opens-before-joining",
        "src/schreier/families.py",
        "        nxt = self.inner.push(inner, x)\n"
        "        if nxt is not None:\n"
        "            return outer, nxt\n"
        "        outer = self.outer.push(outer, x)\n"
        "        nxt = None if outer is None else self.inner.start(x)\n"
        "        return None if nxt is None else (outer, nxt)\n",
        "        opened = self.outer.push(outer, x)\n"
        "        nxt = None if opened is None else self.inner.start(x)\n"
        "        if nxt is not None:\n"
        "            return opened, nxt\n"
        "        nxt = self.inner.push(inner, x)\n"
        "        return None if nxt is None else (outer, nxt)\n",
        ("tests/test_families.py::test_greedy_state_matches_exhaustive",
         "tests/test_families.py::test_greedy_state_matches_exhaustive_on_every_small_set"),
    ),
    Mutant(
        "block-search-skips-last-end",
        "src/schreier/families.py",
        "        for end in range(start + 1, len(E) + 1)\n",
        "        for end in range(start + 1, len(E))\n",
        ("tests/test_families.py::test_greedy_equals_exhaustive_small",),
    ),
    Mutant(
        "descent-bound-sums-blocks",
        "src/schreier/analysis.py",
        "                    if any(c * b >= value for c, b in zip(key, block_norms) if b is not None):\n",
        "                    if sum(c * b for c, b in zip(key, block_norms) if b is not None) >= value:\n",
        ("tests/test_analysis.py::test_descent_block_bound_matches_unskipped_descent",),
    ),
    Mutant(
        "descent-bound-in-every-space",
        "src/schreier/analysis.py",
        "    bounded = isinstance(space, (TsirelsonSpace, L1Space, C0Space))\n",
        "    bounded = True\n",
        ("tests/test_analysis.py::test_descent_evaluates_every_step_in_budgeted_mixed_space",),
    ),
    Mutant(
        "admissible-size-ignores-max-support",
        "src/schreier/norms.py",
        "        size = max(floor, prev_size + 1, prev_max + 1)\n",
        "        size = max(floor, prev_size + 1)\n",
        ("tests/test_norms.py::test_admissible_sum_matches_unpruned_search",),
    ),
    Mutant(
        "chunk-keeps-spent-budget",
        "src/schreier/norms.py",
        "        if (i, j) not in self.norm_memo:\n"
        "            self.budget = MIXED_TICK_BUDGET\n"
        "        return self.value(i, j)\n",
        "        return self.value(i, j)\n",
        ("tests/test_norms.py::test_interval_norms_carry_chunk_convergence",),
    ),
    Mutant(
        "whole-accepts-trailing-input",
        "src/schreier/parsing.py",
        "    value = rule(sc)\n"
        "    if not sc.eof():\n"
        "        raise sc.error(f\"trailing input after {what}\")\n"
        "    return value\n",
        "    return rule(sc)\n",
        ("tests/test_cli.py::test_parsers_reject_trailing_input",),
    ),
    Mutant(
        "frozen-hash-constant",
        "src/schreier/reports.py",
        "            f\"        _set_hash(self, hash({mine}))\\n\"\n",
        "            \"        _set_hash(self, 0)\\n\"\n",
        ("tests/test_reports.py::test_record_semantics",),
    ),
    Mutant(
        "families-getattr-drops-a-verifier",
        "src/schreier/families.py",
        '    "construct_N", "verify_union_property", "verify_bracket_inclusion",\n',
        '    "construct_N", "verify_union_property",\n',
        ("tests/test_imports.py::test_verifier_names_are_one_object_everywhere",),
    ),
    Mutant(
        "parser-builds-first-argument-only",
        "src/schreier/cli.py",
        "        if verb not in argv:\n",
        "        if verb not in argv[:1]:\n",
        ("tests/test_cli.py::test_help_and_usage_errors_are_unchanged",),
    ),
    Mutant(
        "params-keep-unset-options",
        "src/schreier/cli.py",
        "    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS and v is not None}\n",
        "    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}\n",
        ("tests/test_cli.py::test_reports_list_their_own_params",),
    ),
    Mutant(
        "lp-accepts-infinite-p",
        "src/schreier/norms.py",
        "        if self.p == math.inf:\n"
        "            raise ValueError(\"lp requires a finite p (use c0 for the sup norm)\")\n",
        "",
        ("tests/test_cli.py::test_space_descriptor_errors_point_at_the_descriptor",
         "tests/test_cli.py::test_usage_error_exit"),
    ),
    Mutant(
        "threshold-reads-the-pattern-budget",
        "src/schreier/verifiers.py",
        "        budget = THRESHOLD_MINIMALITY_BUDGET\n",
        "        budget = BRACKET_PATTERN_BUDGET\n",
        ("tests/test_families.py::test_threshold_budget_path_is_not_remembered",),
    ),
    Mutant(
        "threshold-roots-stop-short",
        "src/schreier/verifiers.py",
        "                 for root in range(n, min(n_struct, horizon + 1)))\n",
        "                 for root in range(n, min(n_struct - 1, horizon + 1)))\n",
        ("tests/test_families.py::test_threshold_matches_oracle",),
    ),
    Mutant(
        "threshold-structural-drops-k",
        "src/schreier/verifiers.py",
        "    return max(k, _structural_threshold(xi, fundamental(zeta, k)))\n",
        "    return _structural_threshold(xi, fundamental(zeta, k))\n",
        ("tests/test_families.py::test_threshold_matches_oracle",),
    ),
    Mutant(
        "enumerate-skips-the-gap-check",
        "src/schreier/families.py",
        "        if not k.plain or (current[-1] == horizon and k.push(state, horizon + 1) is not None):\n",
        "        if not k.plain:\n",
        ("tests/test_families.py::test_enumerations_match_oracles",),
    ),
    Mutant(
        "schlumprecht-takes-infinite-tolerance",
        "src/schreier/norms.py",
        "        if not 0 < self.tolerance < math.inf:\n",
        "        if not self.tolerance > 0:\n",
        ("tests/test_cli.py::test_space_descriptor_errors_point_at_the_descriptor",
         "tests/test_cli.py::test_edge_inputs_exit_as_documented"),
    ),
    Mutant(
        "exact-gate-takes-floats",
        "src/schreier/norms.py",
        "    if isinstance(space, (LpSpace, SchlumprechtSpace)):\n"
        "        raise ValueError(f\"the norm of {space} is not exact; a scale or a ratio needs exact values\")\n",
        "",
        ("tests/test_analysis.py::test_distortion_rejects_a_first_norm_that_is_not_exact",
         "tests/test_constructions.py::test_float_norms_give_no_exact_scale"),
    ),
    Mutant(
        "exact-gate-takes-lower-bounds",
        "src/schreier/norms.py",
        "    if not r.converged:\n",
        "    if False:\n",
        ("tests/test_analysis.py::test_distortion_rejects_a_second_norm_whose_budget_ran_out",
         "tests/test_constructions.py::test_budget_limited_norms_give_no_exact_scale"),
    ),
    Mutant(
        "report-allows-nan",
        "src/schreier/cli.py",
        "    text = json.dumps(report, indent=2, allow_nan=False)\n",
        "    text = json.dumps(report, indent=2)\n",
        ("tests/test_cli.py::test_reports_refuse_non_finite_floats",),
    ),
    Mutant(
        "empty-search-reads-clean",
        "src/schreier/cli.py",
        "                     report.found, budget_exhausted=not report.candidates_tried)\n",
        "                     report.found)\n",
        ("tests/test_cli.py::test_edge_inputs_exit_as_documented",),
    ),
    Mutant(
        "empty-baseline-reads-clear",
        "src/schreier/cli.py",
        "    untried = not all(r.candidates_tried for r in reports)\n",
        "    untried = False\n",
        ("tests/test_cli.py::test_edge_inputs_exit_as_documented",),
    ),
    Mutant(
        "kernel-table-unbounded",
        "src/schreier/families.py",
        "        self.count = 0\n"
        "        _kernels.clear()\n",
        "        self.count = 0\n",
        ("tests/test_families.py::test_kernel_table_clears_with_the_member_memo",),
    ),
    Mutant(
        "memo-clear-keeps-kernel-answers",
        "src/schreier/families.py",
        "        for table in self.tables:\n"
        "            table.clear()\n",
        "",
        ("tests/test_families.py::test_held_kernel_answers_stay_within_the_cap",),
    ),
    Mutant(
        "successor-leaf-keyed-by-size",
        "src/schreier/families.py",
        "        key = (len(minima), E[0])\n",
        "        key = len(minima)\n",
        ("tests/test_families.py::test_witnesses_pinned",),
    ),
    Mutant(
        "memo-count-skips-store",
        "src/schreier/families.py",
        "        table[E] = answer\n"
        "        self.count += 1\n",
        "        table[E] = answer\n",
        ("tests/test_families.py::test_equal_families_share_memo_entries",),
    ),
    Mutant(
        "construct-L-continues-by-step",
        "src/schreier/verifiers.py",
        "    rest = M.from_value(diag[-1] + 1)\n"
        "    memo[key] = L = IndexSequence(tuple(diag) + rest.prefix, rest.tail_start, rest.tail_step)\n",
        "    memo[key] = L = IndexSequence.table(diag, diag[-1] + M.tail_step, M.tail_step)\n",
        ("tests/test_families.py::test_construct_L_stays_inside_its_sequence",),
    ),
    Mutant(
        "construct-L-memo-drops-M",
        "src/schreier/verifiers.py",
        "    key = (xi, zeta, M, horizon)\n",
        "    key = (xi, zeta, horizon, None)\n",
        ("tests/test_families.py::test_construct_L_stays_inside_its_sequence",),
    ),
    Mutant(
        "construct-L-memo-never-read",
        "src/schreier/verifiers.py",
        "    if key in memo:\n"
        "        return memo[key]\n",
        "",
        ("tests/test_families.py::test_construct_L_builds_each_refinement_once",),
    ),
    Mutant(
        "from-value-drops-alignment",
        "src/schreier/families.py",
        "        start += (self.tail_start - start) % self.tail_step\n",
        "",
        ("tests/test_families.py::test_from_value_is_the_subsequence_from_a_value",),
    ),
    Mutant(
        "relabeled-shape-unguarded",
        "src/schreier/families.py",
        "        if not isinstance(base, _Relabeled):\n"
        "            # F[G](M) is the bracket over M; F(M)(L) is no bracket relabeled once\n"
        "            self.shape = base.shape\n",
        "        self.shape = base.shape\n",
        ("tests/test_families.py::test_bracket_inclusion_past_the_sweep",),
    ),
    Mutant(
        "frozen-init-assigns-through-setattr",
        "src/schreier/reports.py",
        "                body.append(f\"_set_{name}(self, {value})\")\n",
        "                body.append(f\"self.{name} = {value}\")\n",
        ("tests/test_reports.py::test_record_semantics",),
    ),
    Mutant(
        "frozen-slots-drop-hash",
        "src/schreier/reports.py",
        "        ns[\"__slots__\"] = own + (\"_hash\",) if flags.get(\"frozen\") else own\n",
        "        ns[\"__slots__\"] = own\n",
        ("tests/test_reports.py::test_frozen_hash_is_cached_outside_the_fields",),
    ),
    Mutant(
        "setstate-carries-the-hash",
        "src/schreier/reports.py",
        "        if name != \"_hash\":\n"
        "            object.__setattr__(self, name, value)\n",
        "        object.__setattr__(self, name, value)\n",
        ("tests/test_reports.py::test_records_survive_copy_and_pickle",),
    ),
    Mutant(
        "ordinal-drops-a-derived-slot",
        "src/schreier/ordinals.py",
        "    __slots__ = (\"_predecessor\", \"is_zero\", \"is_successor\", \"is_limit\")\n",
        "    __slots__ = (\"_predecessor\", \"is_zero\", \"is_successor\")\n",
        ("tests/test_ordinals.py::test_stored_attributes_are_read_only_and_hidden",),
    ),
    Mutant(
        "comment-only",
        "src/schreier/families.py",
        "        # x joins the open block when the inner family allows, else opens\n",
        "        # x joins the open block if the inner family allows it, or opens\n",
        ("tests/test_families.py::test_greedy_equals_exhaustive_small",),
        expect="survived",
    ),
]


def run(mutant: Mutant) -> Tuple[str, str]:
    """The outcome of the named tests on a mutated copy, 'killed' or
    'survived', and pytest's summary line."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / mutant.file
        text = target.read_text()
        if text.count(mutant.source) != 1:
            raise SystemExit(f"{mutant.name}: the source text does not occur exactly once in {mutant.file}")
        target.write_text(text.replace(mutant.source, mutant.replacement))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, capture_output=True, text=True,
        )
    # 1: some tests failed; 0: all passed; a collection error: the mutated
    # package fails to import, so every named test fails; anything else is
    # an error of the run
    broken = "ERROR collecting" in proc.stdout
    if proc.returncode not in (0, 1) and not broken:
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    return "survived" if proc.returncode == 0 else "killed", proc.stdout.strip().splitlines()[-1]


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"no mutant named {', '.join(sorted(unknown))}")
    wrong = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome, summary = run(mutant)
        wrong += outcome != mutant.expect
        print(f"{mutant.name}: {outcome} (expected {mutant.expect}); {summary}", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
