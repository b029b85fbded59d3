from __future__ import annotations

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_source_occurs_once(mutant):
    # a refactor that moves a mutated line must update the table
    assert (ROOT / mutant.file).read_text().count(mutant.source) == 1
