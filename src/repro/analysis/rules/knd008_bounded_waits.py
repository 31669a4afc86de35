"""KND008 — blocking calls in the resilience/perf layers are bounded.

Supervised execution exists because an unbounded wait anywhere in the
watchdog's own machinery would be self-defeating: a supervisor that
blocks forever on ``join()`` while escalating, or a recovery path that
``wait()``\\ s indefinitely on a dead child, turns the layer that kills
hangs into a hang.  So inside ``repro.resilience`` and ``repro.perf``
every call to one of the classic blocking primitives — ``sleep``,
``join``, ``wait``, ``poll``, ``recv`` — must visibly carry a bound:
either a positional argument (``sleep(delay)``, ``stop.wait(interval)``)
or an explicit ``timeout=`` / ``deadline=`` keyword.

A bare ``thread.join()`` / ``event.wait()`` / ``conn.recv()`` with
neither is exactly the unbounded wait this PR's watchdog was built to
kill, and it fires.  Name-based matching is deliberate: ``str.join`` and
``os.path.join`` always take a positional argument, so they pass without
special-casing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.model import Finding, Severity
from repro.analysis.project import Project, ProjectFile
from repro.analysis.rulebase import Rule, register

#: Packages whose blocking calls must be bounded: the supervision /
#: recovery machinery itself, and the ``repro.perf`` set kernels.
SCOPED_PACKAGES = ("repro.resilience", "repro.perf")

#: Call names treated as blocking primitives.
BLOCKING_CALLS = frozenset({"sleep", "join", "wait", "poll", "recv"})

#: Keyword names accepted as an explicit bound.
BOUND_KEYWORDS = frozenset({"timeout", "deadline"})


def _in_scope(module: str) -> bool:
    return any(module == p or module.startswith(p + ".")
               for p in SCOPED_PACKAGES)


def _call_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


@register
class BoundedWaitsRule(Rule):
    rule_id = "KND008"
    name = "bounded-waits"
    severity = Severity.ERROR
    summary = ("blocking calls (sleep/join/wait/poll/recv) in "
               "resilience/perf must carry a timeout or deadline")
    rationale = __doc__ or ""

    def check(self, pf: ProjectFile, project: Project
              ) -> Iterator[Finding]:
        if not _in_scope(pf.module):
            return
        for node in ast.walk(pf.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name not in BLOCKING_CALLS:
                continue
            if node.args:
                # A positional argument is the bound for these
                # primitives (sleep(delay), stop.wait(interval), ...).
                continue
            if any(kw.arg in BOUND_KEYWORDS for kw in node.keywords):
                continue
            yield self.finding(
                pf, node,
                f"unbounded blocking call {name}(): the resilience/perf "
                f"layers may never wait without a timeout or deadline — "
                f"an unbounded wait inside the watchdog machinery is the "
                f"hang it exists to kill",
            )
