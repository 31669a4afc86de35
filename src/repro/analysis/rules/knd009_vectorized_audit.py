"""KND009 — the audit engine stays vectorized.

The whole point of ``repro.audit.blockcapture`` / ``repro.audit.flatstore``
is that the per-I/O-call record path and the per-flush drain path do
numpy array work, never per-element Python iteration; and
``repro.audit.session`` resolves coverage from those flat runs without a
per-range loop.  One interpreted loop over an event buffer or a range
list quietly re-introduces the per-event cost the block path exists to
amortize, and no test catches it — the results stay bit-identical, only
the overhead fraction regresses.  So inside those three modules,
``for`` / ``while`` statements are only allowed in the explicitly
enumerated cold-path helpers:

* ``events`` — the lazy per-``Event`` materializer (only runs when a
  caller asks for object events, never on the record path);
* ``flush`` — iterates per-*thread-buffer*, not per-event;
* ``_ingest_groups`` — iterates per-*identity* group of a drained batch,
  with the per-event work vectorized inside each group;
* ``_grow_to`` — capacity-doubling loop, runs O(log n) times total;
* ``iter_intervals`` — the ordered per-interval generator used by tests
  and the B-tree parity checks;
* ``_matching_stores`` — the session's per-*identity* store lookup (one
  step per ``(pid, path)``, the ranges stay inside the stores).

Any loop elsewhere in these modules — ``record``, ``_drain``,
``insert_batch``, ``merged``, ``overlapping``, ``accessed_indices``, a
new helper — fires.
Comprehensions are deliberately out of scope: the ones these modules use
are small fixed-size constructions (module tables, per-buffer lists),
and flagging them would push authors toward less readable equivalents.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.model import Finding, Severity
from repro.analysis.project import Project, ProjectFile
from repro.analysis.rulebase import Rule, register

#: The modules whose hot paths must stay vectorized.
SCOPED_MODULES = frozenset({
    "repro.audit.blockcapture",
    "repro.audit.flatstore",
    "repro.audit.session",
})

#: Cold-path helpers where per-element / per-group iteration is the
#: design (see module docstring for why each is exempt).
ALLOWED_HELPERS = frozenset({
    "events",
    "flush",
    "_ingest_groups",
    "_grow_to",
    "iter_intervals",
    "_matching_stores",
})

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_LOOP_NODES = (ast.For, ast.While)


def _enclosing_function(tree: ast.Module, loop: ast.AST) -> Optional[str]:
    """Name of the innermost function containing ``loop``, if any."""
    innermost = None
    for node in ast.walk(tree):
        if not isinstance(node, _FUNC_NODES):
            continue
        if any(sub is loop for sub in ast.walk(node)):
            # Later hits are nested deeper (walk yields outer first for
            # our purposes only within a branch); keep the smallest span.
            if innermost is None or _span(node) <= _span(innermost):
                innermost = node
    return innermost.name if innermost is not None else None


def _span(node: ast.AST) -> int:
    end = getattr(node, "end_lineno", node.lineno)
    return end - node.lineno


@register
class VectorizedAuditRule(Rule):
    rule_id = "KND009"
    name = "vectorized-audit"
    severity = Severity.ERROR
    summary = ("blockcapture/flatstore/session hot paths must not loop "
               "over event buffers or ranges in Python — vectorize or "
               "move the loop into an allow-listed cold-path helper")
    rationale = __doc__ or ""

    def check(self, pf: ProjectFile, project: Project
              ) -> Iterator[Finding]:
        if pf.module not in SCOPED_MODULES:
            return
        for node in ast.walk(pf.tree):
            if not isinstance(node, _LOOP_NODES):
                continue
            func = _enclosing_function(pf.tree, node)
            if func in ALLOWED_HELPERS:
                continue
            kind = "for" if isinstance(node, ast.For) else "while"
            where = f"in {func}()" if func else "at module scope"
            yield self.finding(
                pf, node,
                f"python `{kind}` loop {where}: the block-capture hot "
                f"path must stay vectorized — batch the work with numpy "
                f"or move it into an allow-listed cold-path helper "
                f"({', '.join(sorted(ALLOWED_HELPERS))})",
            )
