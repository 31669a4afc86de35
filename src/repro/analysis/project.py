"""Project loading: discover sources, parse ASTs, infer module names.

The scanner is path-based, not import-based: it never imports the code it
checks.  Module names are inferred structurally — from a file, walk up
through every directory that contains an ``__init__.py``; the dotted path
from the topmost package directory is the module name.  That makes the
same loader work for ``src/repro`` and for the throwaway fixture trees
the test suite builds under ``tmp_path``.

Loading is one serial pass — :func:`discover_sources` lists the files,
:func:`load_file` parses each, :meth:`Project.load` folds them in order —
and writes nothing.  Concurrency summaries are not computed here: the
flow-aware rules ask :meth:`Project.concurrency` for them, so a run that
selects only per-file rules never summarizes.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from repro.analysis.model import FRAMEWORK_RULE_ID, Finding, Severity
from repro.analysis.suppress import SuppressionTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.callgraph import ConcurrencyContext


def infer_module(path: str) -> str:
    """Dotted module name for ``path`` (see module docstring)."""
    path = os.path.abspath(path)
    parts = [os.path.splitext(os.path.basename(path))[0]]
    d = os.path.dirname(path)
    while os.path.isfile(os.path.join(d, "__init__.py")):
        parts.append(os.path.basename(d))
        d = os.path.dirname(d)
    if parts[0] == "__init__":
        parts = parts[1:] or [os.path.basename(os.path.dirname(path))]
    return ".".join(reversed(parts))


@dataclass
class ProjectFile:
    """One parsed source file."""

    path: str            # as discovered (relative paths stay relative)
    module: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    suppressions: Optional[SuppressionTable] = None
    #: child AST node -> parent, filled lazily by :meth:`parents`.
    _parents: Optional[Dict[int, ast.AST]] = None

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def parents(self) -> Dict[int, ast.AST]:
        """``id(node) -> parent`` map over the whole tree."""
        if self._parents is None:
            self._parents = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    self._parents[id(child)] = node
        return self._parents

    def finding(self, rule_id: str, message: str, node: ast.AST,
                severity: Severity = Severity.ERROR) -> Finding:
        """Build a finding anchored at ``node`` in this file."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(
            rule_id=rule_id, message=message, path=self.path,
            module=self.module, line=lineno, col=col,
            severity=severity, snippet=self.line(lineno),
        )


def discover_sources(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under ``paths`` (files or dirs), sorted walk."""
    sources: List[str] = []
    for p in paths:
        if os.path.isdir(p):
            for root, dirs, names in os.walk(p):
                dirs[:] = sorted(
                    d for d in dirs
                    if d != "__pycache__" and not d.startswith(".")
                )
                sources.extend(
                    os.path.join(root, n)
                    for n in sorted(names) if n.endswith(".py")
                )
        elif p.endswith(".py"):
            sources.append(p)
    return sources


def load_file(path: str) -> Union[ProjectFile, Finding]:
    """Parse one source file.

    Returns the parsed :class:`ProjectFile`, suppression table included,
    or a KND000 :class:`Finding` when the file does not parse.
    """
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    module = infer_module(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            rule_id=FRAMEWORK_RULE_ID,
            message=f"could not parse: {exc.msg}",
            path=path, module=module,
            line=exc.lineno or 1, col=(exc.offset or 0) + 1,
            severity=Severity.ERROR,
        )
    lines = source.splitlines()
    return ProjectFile(path=path, module=module, source=source,
                       tree=tree, lines=lines,
                       suppressions=SuppressionTable.scan(lines))


@dataclass
class Project:
    """Every parsed file plus the findings produced while loading."""

    files: List[ProjectFile]
    load_findings: List[Finding]
    _concurrency: Optional["ConcurrencyContext"] = None

    @property
    def modules(self) -> Dict[str, ProjectFile]:
        return {pf.module: pf for pf in self.files}

    def concurrency(self) -> "ConcurrencyContext":
        """The interprocedural call-graph/lockset context, built once.

        Rules that need whole-program flow (KND011–KND013) call this;
        per-file rules never pay for it.
        """
        if self._concurrency is None:
            from repro.analysis.callgraph import build_context
            self._concurrency = build_context(self.files)
        return self._concurrency

    @classmethod
    def load(cls, paths: Sequence[str]) -> "Project":
        """Parse every ``.py`` file under ``paths`` (files or dirs)."""
        files: List[ProjectFile] = []
        load_findings: List[Finding] = []
        for path in discover_sources(paths):
            item = load_file(path)
            if isinstance(item, Finding):
                load_findings.append(item)
            else:
                files.append(item)
        return cls(files=files, load_findings=load_findings)
