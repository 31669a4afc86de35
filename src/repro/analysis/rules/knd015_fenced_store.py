"""KND015 — campaign-store writes go through the fencing helpers.

The campaign service's whole correctness argument is that every byte
landing in its store — a fleet of one's state directory or a fleet's
shared directory — is CRC-sealed **and token-stamped**:
a record either carries the fencing token that was current when its
writer held the shard, or it does not exist.  One raw write — an
``atomic_write`` that replaces a lease without re-checking the token,
a ``durable_append`` to an event trail with no stamp, an ``os.open``
that truncates a completion record — reintroduces exactly the
split-brain the tokens exist to prevent: a fenced-out worker's bytes
mixed with a live worker's bookkeeping.

So the write surface is centralized: ``repro.service.fleet.fencing``
owns the raw primitives (``publish_sealed``, ``create_sealed_exclusive``,
``append_sealed``), and every other module under ``repro.service`` must
call those helpers — never ``atomic_write``, ``durable_append``, a
writable ``os.open``, or a writable builtin ``open`` directly.  The
service keeps no other durable state, so the rule covers the whole
package, not just the store.
Reads (``open(path, 'rb')``) stay permitted; degrading a torn record
to "absent" is the reader's job, not the writer's.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.model import Finding, Severity
from repro.analysis.project import Project, ProjectFile
from repro.analysis.rulebase import Rule, register
from repro.analysis.scopes import AliasTable, open_mode_writes

#: The raw write primitives only the fencing helper may touch.
RAW_WRITERS = {
    "repro.ioutil.atomic_write",
    "repro.ioutil.durable_append",
}

#: ``os.open`` flag names that make the descriptor writable.
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_EXCL", "O_APPEND",
               "O_TRUNC"}

#: The one module allowed to hold the primitives.
FENCING_MODULE = "repro.service.fleet.fencing"


def in_service_scope(module: str) -> bool:
    """True for ``repro.service`` modules other than the helper."""
    if not (module == "repro.service"
            or module.startswith("repro.service.")):
        return False
    return module != FENCING_MODULE


def _os_open_writes(call: ast.Call) -> bool:
    """True when an ``os.open`` call's flags can write (or are opaque)."""
    flags = call.args[1] if len(call.args) >= 2 else None
    if flags is None:
        for kw in call.keywords:
            if kw.arg == "flags":
                flags = kw.value
    if flags is None:
        return True  # flags we cannot see are flags we cannot trust
    names = {node.attr for node in ast.walk(flags)
             if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(flags)
              if isinstance(node, ast.Name)}
    return bool(names & WRITE_FLAGS) or not names


@register
class FencedStoreRule(Rule):
    rule_id = "KND015"
    name = "fenced-store-writes"
    severity = Severity.ERROR
    summary = ("repro.service modules write the campaign store only "
               "through the token-stamping fencing helpers, never via "
               "raw atomic_write/durable_append/os.open/open")
    rationale = __doc__ or ""

    def check(self, pf: ProjectFile, project: Project
              ) -> Iterator[Finding]:
        if not in_service_scope(pf.module):
            return
        aliases = AliasTable.scan(pf.tree)
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.Call):
                continue
            qname = aliases.qualify(node.func)
            if qname in RAW_WRITERS:
                helper = ("append_sealed"
                          if qname.endswith("durable_append")
                          else "publish_sealed")
                yield self.finding(
                    pf, node,
                    f"raw {qname.rsplit('.', 1)[-1]}() in a service "
                    f"module: campaign-store records must be CRC-sealed "
                    f"and token-stamped, so route this write through "
                    f"repro.service.fleet.fencing.{helper}",
                )
            elif qname == "os.open" and _os_open_writes(node):
                yield self.finding(
                    pf, node,
                    "writable os.open() in a service module: exclusive "
                    "creates belong to repro.service.fleet.fencing."
                    "create_sealed_exclusive, which seals and stamps "
                    "the record it lands",
                )
            elif (isinstance(node.func, ast.Name)
                    and node.func.id == "open"
                    and open_mode_writes(node)):
                yield self.finding(
                    pf, node,
                    "writable open() in a service module: every byte in "
                    "the campaign store carries a CRC seal and a fencing "
                    "token, so writes flow through the "
                    "repro.service.fleet.fencing helpers (reads like "
                    "open(path, 'rb') are fine)",
                )
