"""KND002 — artifacts are written atomically, or not at all.

A writer that crashes mid-``write`` leaves a torn artifact at the
destination; the next reader sees a truncated KND/KNDS/npz/JSON file.
``repro.ioutil.atomic_write`` exists precisely so that never happens
(temp file + fsync + same-directory ``os.replace``).  This rule flags
every builtin ``open()`` whose mode can write — ``w``/``a``/``x`` or
in-place ``+`` — anywhere outside ``repro.ioutil`` itself.  A mode the
rule cannot see (a variable) is flagged too: reviewable writes are
spelled with a literal mode.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.model import Finding, Severity
from repro.analysis.project import Project, ProjectFile
from repro.analysis.rulebase import Rule, register
from repro.analysis.scopes import open_mode, open_mode_writes

EXEMPT_MODULES = ("repro.ioutil",)


@register
class AtomicWriteRule(Rule):
    rule_id = "KND002"
    name = "atomic-write"
    severity = Severity.ERROR
    summary = ("no raw open() writes outside repro.ioutil; artifacts go "
               "through repro.ioutil.atomic_write")
    rationale = __doc__ or ""

    def check(self, pf: ProjectFile, project: Project
              ) -> Iterator[Finding]:
        if pf.module in EXEMPT_MODULES:
            return
        for node in ast.walk(pf.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            if not open_mode_writes(node):
                continue
            mode = open_mode(node)
            if isinstance(mode, ast.Constant) and isinstance(
                    mode.value, str):
                yield self.finding(
                    pf, node,
                    f"raw open(..., {mode.value!r}) can leave a torn "
                    f"artifact on crash; route the write through "
                    f"repro.ioutil.atomic_write",
                )
            else:
                yield self.finding(
                    pf, node,
                    "open() mode is not a string literal, so the write "
                    "safety of this call cannot be reviewed; spell the "
                    "mode literally (and use repro.ioutil.atomic_write "
                    "for writes)",
                )
