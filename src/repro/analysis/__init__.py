"""``kondo check`` — a from-scratch, pluggable AST invariant linter.

Kondo's correctness properties — bit-identical campaign replay, never a
torn artifact, failures surfacing through the error taxonomy, a layered
import DAG — are *whole-program dataflow properties* the test suite can
only sample.  This package enforces them statically: a project loader
and import-graph builder, per-file AST visitors with alias resolution,
a finding model with stable rule IDs, inline suppressions
(``# kondo: allow[KND00X] reason``), a committed baseline for
grandfathered findings, and text/JSON/SARIF reporters.

On top of the per-file rules sits a **project-wide concurrency
analysis**: per-function lockset/blocking/fork summaries
(:mod:`repro.analysis.locks`), a name-resolution call graph with
interprocedural fixpoints and a global lock-order graph
(:mod:`repro.analysis.callgraph`), and the flow-aware rules
KND011 (lock-order cycles), KND012 (blocking under a lock), and
KND013 (fork safety).  A run is one serial pass over the sorted
sources and writes no file besides its report.

Run it as ``kondo check src/repro`` or ``python -m repro.analysis``;
the rule catalog lives in :mod:`repro.analysis.rules`.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.callgraph import CallGraph, ConcurrencyContext
from repro.analysis.engine import CheckResult, main, run_check
from repro.analysis.imports import ImportEdge, ImportGraph
from repro.analysis.locks import FileConcurrency, FuncSummary
from repro.analysis.model import Finding, Severity
from repro.analysis.project import Project, ProjectFile
from repro.analysis.rulebase import Rule, all_rules, register

__all__ = [
    "Baseline",
    "CallGraph",
    "CheckResult",
    "ConcurrencyContext",
    "FileConcurrency",
    "Finding",
    "FuncSummary",
    "ImportEdge",
    "ImportGraph",
    "Project",
    "ProjectFile",
    "Rule",
    "Severity",
    "all_rules",
    "main",
    "register",
    "run_check",
]
