"""Every row of the mutation table in ``tests/mutants.py`` is killed by its named test."""

from __future__ import annotations

import pytest

from tests import mutants


@pytest.mark.parametrize("name", list(mutants.MUTANTS))
def test_the_named_test_kills_the_mutant(name):
    assert mutants.outcome(mutants.MUTANTS[name], name) == mutants.KILLED


def test_a_stale_snippet_a_killer_naming_no_test_or_one_that_passes_fails_the_row():
    row = mutants.MUTANTS["simulator-seed-default-restored"]
    assert mutants.outcome(row._replace(old=row.new)) == mutants.STALE
    assert mutants.outcome(row._replace(new=row.old)) == mutants.SURVIVED
    row = mutants.MUTANTS["keyword-reply-in-a-handler"]
    renamed = row.killer.replace("[baselines/epaxos.py]", "[baselines/no_such_file.py]")
    assert mutants.outcome(row._replace(killer=renamed)) == mutants.STALE
