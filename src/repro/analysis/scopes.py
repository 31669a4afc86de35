"""Alias resolution shared by the AST rules.

:class:`AliasTable` maps local names to the qualified module paths they
were imported as (``np`` → ``numpy``, ``perf_counter`` →
``time.perf_counter``), and resolves dotted call chains against that
table.  Resolution only succeeds when the chain is rooted at a known
import, which keeps rules from mistaking a local variable that happens
to be called ``random`` for the stdlib module.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class AliasTable:
    """Import aliases of one file (module-level and nested, flattened)."""

    aliases: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def scan(cls, tree: ast.Module) -> "AliasTable":
        table = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    name = a.asname or a.name.split(".")[0]
                    target = a.name if a.asname else a.name.split(".")[0]
                    table.aliases[name] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                for a in node.names:
                    if a.name == "*":
                        continue
                    name = a.asname or a.name
                    table.aliases[name] = f"{node.module}.{a.name}"
        return table

    def qualify(self, node: ast.AST) -> Optional[str]:
        """Qualified dotted name of an expression, or None.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when ``np`` was imported as numpy;
        chains rooted at plain variables resolve to nothing.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in self.aliases:
            return None
        parts.append(self.aliases[node.id])
        return ".".join(reversed(parts))
