"""The pluggable rule protocol and registry.

A rule is a class with a stable ``rule_id``, catalog metadata, and a
``check(pf, project)`` generator yielding findings for one file.  Rules
register themselves with :func:`register` at import time; the engine runs
every registered (and selected) rule over every scanned file.  Adding a
rule is: write the class in ``repro/analysis/rules/``, decorate it,
import the module from ``rules/__init__``, add a fixture-pair test.

Rules can also request **project-level context**:

* ``project.concurrency()`` inside ``check`` hands a rule the
  interprocedural call-graph/lockset context
  (:mod:`repro.analysis.callgraph`), built once per run and shared;
* overriding :meth:`Rule.check_project` lets a rule emit findings that
  belong to the whole project rather than any single file — the engine
  calls it exactly once, after the per-file pass, and still routes the
  findings through inline suppressions.

A rule that raises does not abort the run: the engine converts the crash
into a KND000 internal-error finding on the offending file (or project)
and keeps going — the exit-code contract reserves ``2`` for the analyzer
itself failing, not for a rule bug.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Type

from repro.analysis.model import Finding, Severity
from repro.analysis.project import Project, ProjectFile


class Rule:
    """Base class for all checks.  Subclasses set the class attributes."""

    rule_id: str = "KND999"
    name: str = "unnamed"
    severity: Severity = Severity.ERROR
    #: One-line summary shown by ``--list-rules`` and in SARIF metadata.
    summary: str = ""
    #: Longer rationale (docstring-style), also exported to SARIF.
    rationale: str = ""

    def check(self, pf: ProjectFile, project: Project
              ) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Project-wide findings, emitted once per run (default: none)."""
        return iter(())

    def finding(self, pf: ProjectFile, node, message: str) -> Finding:
        return pf.finding(self.rule_id, message, node,
                          severity=self.severity)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, sorted by ID."""
    # The rules package registers on import; import here so callers that
    # reached the registry through the engine need no explicit import.
    import repro.analysis.rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[rid]() for rid in sorted(_REGISTRY)]
