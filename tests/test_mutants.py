"""The mutation table of scripts/mutants.py stays runnable: each row's
snippet occurs exactly once in its file, inside the function it names, and
each test it names exists.  The kill run itself is opt-in:
python3 scripts/mutants.py."""
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_mutant_ids_are_unique():
    ids = [row.id for row in mutants.MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("row", mutants.MUTANTS, ids=lambda row: row.id)
def test_every_mutant_site_occurs_once(row):
    assert mutants.site_problem(row) is None
    assert row.old != row.new and row.tests
    for node in row.tests:
        path, name = node.split("::")
        assert f"\ndef {name}(" in (ROOT / path).read_text(), node
