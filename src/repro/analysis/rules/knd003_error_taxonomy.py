"""KND003 — broad exception handlers must feed the error taxonomy.

The self-healing runtime classifies failures through the ``repro.errors``
taxonomy and its failure-recording calls; a broad ``except Exception``
that swallows an error somewhere else starves that classification (a
fault the healer never sees is a fault it cannot heal).  A broad handler
(bare ``except:``, ``except Exception``, ``except BaseException``) is
allowed only when its body visibly keeps the failure alive:

* it re-raises (``raise`` / ``raise X from exc``), or
* it routes the exception into a failure-recording call —
  ``*.failure(...)`` / ``*.record_failure(...)``, or
* it carries an explicit ``# kondo: allow[KND003] reason`` suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.model import Finding, Severity
from repro.analysis.project import Project, ProjectFile
from repro.analysis.rulebase import Rule, register

BROAD = {"Exception", "BaseException"}
OUTCOME_CALLS = {"failure", "record_failure"}


def _is_broad(handler: ast.ExceptHandler) -> bool:
    t = handler.type
    if t is None:
        return True
    names = [t] if not isinstance(t, ast.Tuple) else list(t.elts)
    for n in names:
        if isinstance(n, ast.Name) and n.id in BROAD:
            return True
        if isinstance(n, ast.Attribute) and n.attr in BROAD:
            return True
    return False


def _keeps_failure_alive(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in OUTCOME_CALLS):
            return True
    return False


@register
class ErrorTaxonomyRule(Rule):
    rule_id = "KND003"
    name = "error-taxonomy"
    severity = Severity.WARNING
    summary = ("broad except handlers must re-raise or route into the "
               "failure/record_failure taxonomy path")
    rationale = __doc__ or ""

    def check(self, pf: ProjectFile, project: Project
              ) -> Iterator[Finding]:
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node):
                continue
            if _keeps_failure_alive(node):
                continue
            what = ("bare except:" if node.type is None
                    else "broad except")
            yield self.finding(
                pf, node,
                f"{what} swallows the failure: narrow the exception "
                f"type, re-raise, or route it into a failure-recording "
                f"call (.failure / .record_failure) so the taxonomy "
                f"can classify it",
            )
