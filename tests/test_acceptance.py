"""Acceptance gate: the nine headline checks, one pass/fail line each.

The criteria, their bounds and their references are defined once, in
``randtri.report.CRITERIA``; ``randtri report`` runs the same table, and
these tests read the rows of the one report run that the ``full_report``
fixture makes.  Run with ``pytest -v tests/test_acceptance.py`` to get one
line per criterion; add ``-s`` to see the measured numbers on passing runs
too.
"""

import pytest

from randtri.report import CRITERIA


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion(name, full_report):
    (row,) = [r for r in full_report.record["results"] if r["criterion"] == name]
    print(f"{'PASS' if row['pass'] else 'FAIL'} {row}")
    assert row["pass"], row
