"""Alias resolution and ``open()`` mode reading shared by the AST rules.

:class:`AliasTable` maps local names to the qualified module paths they
were imported as (``np`` → ``numpy``, ``perf_counter`` →
``time.perf_counter``), and resolves dotted call chains against that
table.  Resolution only succeeds when the chain is rooted at a known
import, which keeps rules from mistaking a local variable that happens
to be called ``random`` for the stdlib module.

:func:`open_mode_writes` is the one reading of whether a builtin
``open()`` call can write, used by every rule that polices writes.
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


def open_mode(call: ast.Call) -> Optional[ast.expr]:
    """The mode expression of an ``open()`` call, or None when omitted."""
    if len(call.args) >= 2:
        return call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    return None


def open_mode_writes(call: ast.Call) -> bool:
    """Whether an ``open()`` call can write.

    No mode reads; a literal mode writes when it holds any of ``wax+``;
    a mode that is not a string literal cannot be reviewed, so it counts
    as writing.
    """
    mode = open_mode(call)
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(c in mode.value for c in "wax+")
    return True
