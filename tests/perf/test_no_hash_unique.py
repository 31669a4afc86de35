"""Regression guard: 1-D dedupes and unions go through the set kernel.

Since numpy 2.3, 1-D ``np.unique`` and ``np.union1d`` take a hash-table
path that is tens of times slower than a sort on the flat-index sets
Kondo handles.  Every such call in ``src/repro`` goes through
:func:`repro.arraymodel.layout.sorted_unique` instead; row dedupes
(``np.unique(..., axis=0)``) are a different code path and stay allowed.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent


def _numpy_call(node: ast.Call):
    func = node.func
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")):
        return func.attr
    return None


def hash_unique_calls(tree: ast.AST):
    """Line numbers of 1-D ``np.unique`` and any ``np.union1d`` calls."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _numpy_call(node)
        if name == "union1d" or (
                name == "unique"
                and not any(k.arg == "axis" for k in node.keywords)):
            yield node.lineno, name


def test_no_one_dimensional_np_unique_or_union1d_in_src():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: np.{name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in hash_unique_calls(ast.parse(path.read_text()))
    ]
    assert found == [], (
        "use repro.arraymodel.layout.sorted_unique instead:\n"
        + "\n".join(found))


def test_guard_sees_the_calls_it_bans():
    tree = ast.parse(
        "np.unique(a)\nnp.unique(a, axis=0)\nnumpy.union1d(a, b)\n"
        "np.unique(a, return_counts=True)\n")
    assert list(hash_unique_calls(tree)) == [
        (1, "unique"), (3, "union1d"), (4, "unique")]
