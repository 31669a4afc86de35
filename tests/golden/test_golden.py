"""The golden-digest gate: every pinned pipeline answer still holds.

A speedup or refactor that changes a carved set, a hull, a KNDS byte or
a quality number fails here.  See ``golden.py`` for what a row holds and
how the table is regenerated (only with a stated answer change).
"""

from __future__ import annotations

import pytest

from tests.golden.golden import CASES, compute_row, load_table

TABLE = {row["case"]: row for row in load_table()}


def test_table_covers_every_case():
    assert sorted(TABLE) == sorted(case.name for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_golden_row(case, tmp_path):
    assert compute_row(case, str(tmp_path)) == TABLE[case.name]
