"""Shared fixture-project builder for the analysis tests."""

import os
from typing import Dict, List

from repro.analysis import Finding, run_check


def make_tree(tmp_path, files: Dict[str, str]) -> str:
    """Write ``{relative/path.py: source}`` under ``tmp_path``.

    Every intermediate directory gets an ``__init__.py`` so the module
    inference sees a package tree rooted at ``tmp_path``.
    """
    for rel, source in files.items():
        path = tmp_path / rel
        d = path.parent
        d.mkdir(parents=True, exist_ok=True)
        walk = d
        while walk != tmp_path:
            init = walk / "__init__.py"
            if not init.exists():
                init.write_text("")
            walk = walk.parent
        path.write_text(source)
    return str(tmp_path)


def check_tree(tmp_path, files: Dict[str, str],
               select=None) -> List[Finding]:
    """Build a fixture tree and return its findings."""
    root = make_tree(tmp_path, files)
    return run_check([root], select=select).new


def rule_ids(findings) -> List[str]:
    return [f.rule_id for f in findings]


def real_src() -> str:
    """Path to the repo's real src/repro tree."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(here), "..", "src", "repro")
