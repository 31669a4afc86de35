"""KND007 — durable bundle artifacts mutate only through sanctioned APIs.

KND/KNDS bundles, their delta patches, and their journals are the
durability layer's crash-safety domain: every mutation must flow through
the journal's intent → fsync → commit protocol
(:mod:`repro.resilience.durability.journal`) or, for freshly-built
artifacts, through ``repro.ioutil.atomic_write``.  A raw ``open(...,
"wb")`` on a ``.knds`` path — or an ``os.replace`` / ``shutil.copyfile``
landing on one — bypasses both: it can tear the only copy of
``D_Theta`` on crash and leaves no journal record for ``kondo
rollback`` to restore.

The rule flags writing constructs whose *target path expression* smells
like a durable artifact: a string literal mentioning ``.knd`` /
``.knds`` / ``.kpatch`` / ``journal``, or an identifier named like one
(``bundle_path``, ``generation_path``, ``log_path``, ...).  Fault
injectors that deliberately damage artifacts carry
``# kondo: allow[KND007]`` annotations — injected damage is the point
there, and the annotation makes each site reviewable.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.model import Finding, Severity
from repro.analysis.project import Project, ProjectFile
from repro.analysis.rulebase import Rule, register
from repro.analysis.scopes import open_mode_writes

#: The sanctioned mutation sites themselves.
EXEMPT_MODULES = (
    "repro.ioutil",
    "repro.resilience.durability.journal",
)

#: Substrings of a *string literal* that mark a durable-artifact path.
LITERAL_SMELLS = (".knd", ".knds", ".kpatch", "journal")

#: Substrings of an *identifier* (variable / attribute / called helper)
#: that mark a durable-artifact path.
NAME_SMELLS = (
    "knd",
    "kpatch",
    "journal",
    "bundle_path",
    "generation_path",
    "gen_path",
    "patch_path",
    "log_path",
)


def _smells_durable(expr: Optional[ast.expr]) -> Optional[str]:
    """Why ``expr`` looks like a durable-artifact path, or ``None``."""
    if expr is None:
        return None
    for node in ast.walk(expr):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for smell in LITERAL_SMELLS:
                if smell in node.value:
                    return f"literal containing {smell!r}"
        ident = None
        if isinstance(node, ast.Name):
            ident = node.id
        elif isinstance(node, ast.Attribute):
            ident = node.attr
        if ident is not None:
            lowered = ident.lower()
            for smell in NAME_SMELLS:
                if smell in lowered:
                    return f"identifier {ident!r}"
    return None


def _dotted(func: ast.expr) -> str:
    parts = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


#: ``callable-name -> index of the destination-path argument``.
REPLACING_CALLS = {
    "os.replace": 1,
    "os.rename": 1,
    "shutil.copyfile": 1,
    "shutil.copy": 1,
    "shutil.move": 1,
}


@register
class DurableWritesRule(Rule):
    rule_id = "KND007"
    name = "durable-writes"
    severity = Severity.ERROR
    summary = ("KND/KNDS/patch/journal files mutate only through the "
               "durability journal API or repro.ioutil.atomic_write")
    rationale = __doc__ or ""

    def check(self, pf: ProjectFile, project: Project
              ) -> Iterator[Finding]:
        if pf.module in EXEMPT_MODULES:
            return
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                if not node.args or not open_mode_writes(node):
                    continue
                why = _smells_durable(node.args[0])
                if why is None:
                    continue
                yield self.finding(
                    pf, node,
                    f"raw writable open() on a durable artifact "
                    f"({why}); mutate bundles through "
                    f"repro.resilience.durability.journal (BundleJournal"
                    f".commit_patch / commit_bytes) or build them with "
                    f"repro.ioutil.atomic_write",
                )
                continue
            dotted = _dotted(node.func)
            dst_index = REPLACING_CALLS.get(dotted)
            if dst_index is None or len(node.args) <= dst_index:
                continue
            why = _smells_durable(node.args[dst_index])
            if why is None:
                continue
            yield self.finding(
                pf, node,
                f"{dotted}() lands on a durable artifact ({why}) "
                f"outside the journal's commit protocol; a crash here "
                f"leaves no generation to roll back to — go through "
                f"BundleJournal or repro.ioutil.atomic_write",
            )
