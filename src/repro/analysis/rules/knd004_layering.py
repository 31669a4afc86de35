"""KND004 — the package layering DAG.

The repo's architecture is a strict layering (ISSUE 3 / DESIGN.md): data
formats at the bottom, the audit layer above them, the fuzz/carve engines
above that, the pipeline core above those, and the CLI on top.  An
upward import (a lower layer reaching into a higher one) or a cross
import (two same-layer siblings coupling) quietly turns the DAG into a
ball of mud and eventually into import cycles.

Enforced on *import-time* edges only: imports inside function bodies and
under ``if TYPE_CHECKING:`` are the sanctioned escape hatches for
genuine cycles.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.analysis.imports import file_edges
from repro.analysis.model import Finding, Severity
from repro.analysis.project import Project, ProjectFile
from repro.analysis.rulebase import Rule, register

#: The architecture spec: dotted-module prefix -> layer number.  Imports
#: must point strictly downward (higher layer -> lower layer); equal
#: layers in different top-level packages are "cross" imports and also
#: banned.  Longest matching prefix wins, so a subpackage can sit on a
#: different layer than its parent (``fuzzing.config`` sits below the
#: rest of ``fuzzing``).
LAYERS = {
    "repro.errors": 0,
    "repro.ioutil": 0,
    "repro.arraymodel": 10,
    "repro.audit": 20,
    "repro.perf": 20,
    "repro.geometry": 30,
    "repro.resilience": 35,
    "repro.fuzzing.config": 38,
    "repro.fuzzing": 40,
    "repro.carving": 40,
    "repro.workloads": 50,
    "repro.metrics": 55,
    "repro.core": 60,
    "repro.service": 65,
    "repro.baselines": 70,
    "repro.container": 75,
    "repro.viz": 75,
    "repro.experiments": 85,
    "repro.analysis": 88,
    "repro.cli": 90,
    "repro": 95,
}


def layer_of(module: str) -> Optional[int]:
    best_len = -1
    best = None
    for prefix, layer in LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            if len(prefix) > best_len:
                best_len = len(prefix)
                best = layer
    return best


def _top_package(module: str) -> str:
    parts = module.split(".")
    return parts[1] if len(parts) > 1 and parts[0] == "repro" else parts[0]


@register
class LayeringRule(Rule):
    rule_id = "KND004"
    name = "layering"
    severity = Severity.ERROR
    summary = ("import-time imports must follow the layering DAG "
               "(geometry/arraymodel -> audit -> fuzzing/carving -> "
               "core -> cli); no upward or cross imports")
    rationale = __doc__ or ""

    def check(self, pf: ProjectFile, project: Project
              ) -> Iterator[Finding]:
        if not pf.module.startswith("repro"):
            return
        src_layer = layer_of(pf.module)
        if src_layer is None:
            return
        project_modules = set(project.modules)
        for edge in file_edges(pf.tree, pf.module, project_modules):
            if edge.deferred or edge.type_checking:
                continue
            if not edge.target.startswith("repro"):
                continue
            if _top_package(edge.src) == _top_package(edge.target):
                continue
            tgt_layer = layer_of(edge.target)
            if tgt_layer is None:
                continue
            if src_layer < tgt_layer:
                kind = "upward"
            elif src_layer == tgt_layer:
                kind = "cross-layer"
            else:
                continue
            anchor = _Anchor(edge.lineno, edge.col - 1)
            yield self.finding(
                pf, anchor,
                f"{kind} import: {edge.src} (layer {src_layer}) may not "
                f"import {edge.target} (layer {tgt_layer}) at import "
                f"time; move the dependency down a layer or defer the "
                f"import into the using function",
            )


class _Anchor:
    """Minimal lineno/col carrier for findings not tied to one node."""

    def __init__(self, lineno: int, col_offset: int):
        self.lineno = lineno
        self.col_offset = col_offset
