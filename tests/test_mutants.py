"""The mutant catalogue (``mutants.py``) still fits the code it mutates."""

import re
from pathlib import Path

import pytest
from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_names_are_unique():
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_old_text_occurs_once(mutant):
    assert mutant.new != mutant.old
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_verdict_names_a_test_or_a_reason(mutant):
    if mutant.killed_by == "equivalent":
        assert mutant.reason
        return
    path, *scopes = mutant.killed_by.split("::")
    source = (ROOT / path).read_text()
    for scope in scopes:  # the class, if any, and the test
        assert re.search(rf"^\s*(class|def) {scope}\b", source, re.MULTILINE), scope
