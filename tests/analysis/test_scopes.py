"""The shared ``open()`` mode reading used by KND002, KND007 and KND015."""

import ast

import pytest

from repro.analysis.scopes import open_mode_writes


@pytest.mark.parametrize("call, writes", [
    ("open(p)", False),
    ("open(p, 'r')", False),
    ("open(p, 'rb')", False),
    ("open(p, mode='rt')", False),
    ("open(p, 'w')", True),
    ("open(p, 'ab')", True),
    ("open(p, mode='x')", True),
    ("open(p, 'r+b')", True),
    ("open(p, mode)", True),
    ("open(p, mode=m)", True),
    ("open(p, 1)", True),
])
def test_open_mode_writes(call, writes):
    node = ast.parse(call, mode="eval").body
    assert open_mode_writes(node) is writes
