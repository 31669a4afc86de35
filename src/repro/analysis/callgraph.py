"""Project-wide call graph and interprocedural lockset/blocking analysis.

The linker resolves the symbolic call records of every
:class:`~repro.analysis.locks.FileConcurrency` against the project's
module table:

* ``self.m()`` / ``cls.m()`` — the lexically enclosing class, then its
  base classes (followed through same-file names and import aliases,
  depth-bounded);
* a bare module-level name — a function or class of the same file
  (a class call resolves to its ``__init__`` when one is defined);
* an import-qualified dotted chain — longest-prefix match against the
  project's modules, then function (``pkg.mod.f``) or method
  (``pkg.mod.Cls.m``) lookup in the matched module.

Anything else stays *unknown* and contributes nothing to any lockset —
the conservative choice documented in :mod:`repro.analysis.locks`.

On the linked graph three effect summaries are propagated to a fixpoint,
each mapping a function to the effects reachable from it with a
**witness chain** (the call path to the primitive, ending at its
``path:line`` site):

* ``may_acquire`` — lock ids possibly acquired by the function or any
  resolved callee;
* ``blocking`` — blocking-operation kinds (``fsync``, ``socket recv``,
  ``sleep``, ``subprocess``, ``journal append``, …) reachable from it;
* ``fork`` — whether ``os.fork``/``forkpty`` is reachable.

Chains are selected by lexicographic minimum over ``(length, hops)``,
which makes the whole fixpoint independent of file and iteration order —
a property the test suite pins with a shuffled-module hypothesis test
(order edges and effect sets must be byte-identical however the project
is enumerated).

Finally the **lock-order graph** is assembled: an edge ``a -> b`` means
some function acquires ``b`` (directly or through any chain of resolved
calls) while holding ``a``.  A cycle in that graph is a potential
deadlock; :meth:`ConcurrencyContext.lock_cycles` enumerates the cycles
with one deterministic witness per edge, and rule KND011 reports them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.locks import (
    CallRec,
    FileConcurrency,
    FuncSummary,
    collect_file,
)

Chain = Tuple[str, ...]

#: How many base-class hops method resolution follows.
MAX_BASE_DEPTH = 8


@dataclass(frozen=True)
class ResolvedCall:
    """One call site whose callee resolved to a project function."""

    callee: str
    rec: CallRec


@dataclass(frozen=True)
class EdgeWitness:
    """Where one lock-order edge ``held -> acquired`` was observed."""

    func: str
    path: str
    lineno: int
    chain: Chain

    def describe(self, held: str, acquired: str) -> str:
        via = f" via {' -> '.join(self.chain)}" if self.chain else ""
        return (f"{self.func} acquires {acquired} while holding {held} "
                f"({self.path}:{self.lineno}{via})")


class CallGraph:
    """Resolved call edges over every function of the project."""

    def __init__(self) -> None:
        self.files: Dict[str, FileConcurrency] = {}   # module -> file
        self.funcs: Dict[str, FuncSummary] = {}       # qualname -> summary
        self.calls: Dict[str, List[ResolvedCall]] = {}
        self.unresolved: Dict[str, int] = {}          # qualname -> count

    @classmethod
    def link(cls, files: Iterable[FileConcurrency]) -> "CallGraph":
        graph = cls()
        for fc in files:
            graph.files[fc.module] = fc
            for fn in fc.functions:
                graph.funcs[fn.qualname] = fn
        for fc in graph.files.values():
            for fn in fc.functions:
                resolved: List[ResolvedCall] = []
                unresolved = 0
                for rec in fn.calls:
                    callee = graph._resolve(fc, fn, rec)
                    if callee is not None:
                        resolved.append(ResolvedCall(callee, rec))
                    else:
                        unresolved += 1
                graph.calls[fn.qualname] = resolved
                graph.unresolved[fn.qualname] = unresolved
        return graph

    # -- resolution ----------------------------------------------------------

    def _resolve(self, fc: FileConcurrency, fn: FuncSummary,
                 rec: CallRec) -> Optional[str]:
        if rec.kind in ("self", "cls"):
            if fn.cls is None:
                return None
            return self._resolve_method(fc, fn.cls, rec.target,
                                        depth=MAX_BASE_DEPTH)
        if rec.kind == "local":
            if rec.target in fc.module_defs:
                return f"{fc.module}:{rec.target}"
            if rec.target in fc.classes:
                return self._resolve_method(fc, rec.target, "__init__",
                                            depth=MAX_BASE_DEPTH)
            return None
        if rec.kind == "qual":
            return self._resolve_qualified(rec.target)
        return None

    def _resolve_method(self, fc: FileConcurrency, cls: str, method: str,
                        depth: int) -> Optional[str]:
        if depth <= 0 or cls not in fc.classes:
            return None
        if method in fc.classes[cls]:
            return f"{fc.module}:{cls}.{method}"
        for base in fc.class_bases.get(cls, ()):
            located = self._locate_class(fc, base)
            if located is None:
                continue
            base_fc, base_cls = located
            hit = self._resolve_method(base_fc, base_cls, method, depth - 1)
            if hit is not None:
                return hit
        return None

    def _locate_class(self, fc: FileConcurrency, dotted: str
                      ) -> Optional[Tuple[FileConcurrency, str]]:
        """Find the file defining ``dotted`` as seen from ``fc``."""
        if dotted in fc.classes:
            return fc, dotted
        head = dotted.split(".", 1)[0]
        target = fc.aliases.get(head)
        if target is None:
            return None
        full = target + dotted[len(head):]
        module, rest = self._split_module(full)
        if module is None or len(rest) != 1:
            return None
        target_fc = self.files[module]
        if rest[0] in target_fc.classes:
            return target_fc, rest[0]
        return None

    def _resolve_qualified(self, dotted: str) -> Optional[str]:
        module, rest = self._split_module(dotted)
        if module is None:
            return None
        fc = self.files[module]
        if len(rest) == 1:
            if rest[0] in fc.module_defs:
                return f"{module}:{rest[0]}"
            if rest[0] in fc.classes:
                return self._resolve_method(fc, rest[0], "__init__",
                                            depth=MAX_BASE_DEPTH)
            return None
        if len(rest) == 2 and rest[0] in fc.classes:
            return self._resolve_method(fc, rest[0], rest[1],
                                        depth=MAX_BASE_DEPTH)
        return None

    def _split_module(self, dotted: str
                      ) -> Tuple[Optional[str], List[str]]:
        """Longest project-module prefix of ``dotted`` plus the rest."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module in self.files:
                return module, parts[cut:]
        return None, parts


def _better(cand: Chain, cur: Optional[Chain]) -> bool:
    return cur is None or (len(cand), cand) < (len(cur), cur)


class ConcurrencyContext:
    """Linked graph + fixpoint effect summaries + the lock-order graph."""

    def __init__(self, graph: CallGraph):
        self.graph = graph
        #: func -> lock id -> witness chain to its acquisition site.
        self.may_acquire: Dict[str, Dict[str, Chain]] = {}
        #: func -> blocking kind -> witness chain to the primitive.
        self.blocking: Dict[str, Dict[str, Chain]] = {}
        #: func -> witness chain to a reachable fork, if any.
        self.fork: Dict[str, Optional[Chain]] = {}
        #: (held, acquired) -> deterministic witness.
        self.lock_edges: Dict[Tuple[str, str], EdgeWitness] = {}
        self._by_path: Dict[str, List[FuncSummary]] = {}
        for fn in graph.funcs.values():
            self._by_path.setdefault(fn.path, []).append(fn)
        self._seed()
        self._fixpoint()
        self._build_lock_edges()

    # -- construction --------------------------------------------------------

    def _seed(self) -> None:
        for q, fn in self.graph.funcs.items():
            may: Dict[str, Chain] = {}
            for a in fn.acquires:
                cand: Chain = (f"{fn.path}:{a.lineno}",)
                if _better(cand, may.get(a.lock_id)):
                    may[a.lock_id] = cand
            blocking: Dict[str, Chain] = {}
            for b in fn.blocking:
                cand = (f"{b.call}() at {fn.path}:{b.lineno}",)
                if _better(cand, blocking.get(b.op)):
                    blocking[b.op] = cand
            fork: Optional[Chain] = None
            for f in fn.forks:
                cand = (f"{f.call}() at {fn.path}:{f.lineno}",)
                if _better(cand, fork):
                    fork = cand
            self.may_acquire[q] = may
            self.blocking[q] = blocking
            self.fork[q] = fork

    def _fixpoint(self) -> None:
        """Propagate effects caller-ward until chains stop improving.

        Every update replaces a chain with a strictly smaller
        ``(length, hops)`` key, and keys are bounded below, so the loop
        terminates; because only the *minimum* survives, the result is
        independent of module and iteration order.
        """
        changed = True
        while changed:
            changed = False
            for q in sorted(self.graph.funcs):
                for call in self.graph.calls.get(q, ()):  # pragma: no branch
                    g = call.callee
                    if g not in self.graph.funcs:
                        continue
                    for lock, chain in self.may_acquire[g].items():
                        cand = (g,) + chain
                        if _better(cand, self.may_acquire[q].get(lock)):
                            self.may_acquire[q][lock] = cand
                            changed = True
                    for kind, chain in self.blocking[g].items():
                        cand = (g,) + chain
                        if _better(cand, self.blocking[q].get(kind)):
                            self.blocking[q][kind] = cand
                            changed = True
                    if self.fork[g] is not None:
                        cand = (g,) + self.fork[g]
                        if _better(cand, self.fork[q]):
                            self.fork[q] = cand
                            changed = True

    def _build_lock_edges(self) -> None:
        def offer(held: str, acquired: str, witness: EdgeWitness) -> None:
            if held == acquired:
                return  # re-entry on one identity is not an order edge
            key = (held, acquired)
            cur = self.lock_edges.get(key)
            cand_rank = (witness.path, witness.lineno, witness.chain)
            if cur is None or cand_rank < (cur.path, cur.lineno, cur.chain):
                self.lock_edges[key] = witness

        for q, fn in self.graph.funcs.items():
            for a in fn.acquires:
                for held in a.held:
                    offer(held, a.lock_id, EdgeWitness(
                        func=q, path=fn.path, lineno=a.lineno, chain=()))
            for call in self.graph.calls.get(q, ()):
                if not call.rec.held or call.callee not in self.graph.funcs:
                    continue
                for lock, chain in self.may_acquire[call.callee].items():
                    for held in call.rec.held:
                        offer(held, lock, EdgeWitness(
                            func=q, path=fn.path, lineno=call.rec.lineno,
                            chain=(call.callee,) + chain))

    # -- queries -------------------------------------------------------------

    def functions_in(self, path: str) -> List[FuncSummary]:
        return self._by_path.get(path, [])

    def resolved_calls(self, qualname: str) -> List[ResolvedCall]:
        return self.graph.calls.get(qualname, [])

    def lock_cycles(self) -> List[List[str]]:
        """Cycles in the lock-order graph, canonicalized and deduped.

        Each cycle is returned as ``[a, b, ..., a]`` rotated so the
        lexicographically smallest lock comes first.
        """
        adj: Dict[str, Set[str]] = {}
        for a, b in self.lock_edges:
            adj.setdefault(a, set()).add(b)
        cycles: List[List[str]] = []
        seen_keys: Set[Tuple[str, ...]] = set()
        visited: Set[str] = set()
        stack: List[str] = []
        on_stack: Set[str] = set()

        def canonical(cycle: List[str]) -> Tuple[str, ...]:
            body = cycle[:-1]
            pivot = body.index(min(body))
            return tuple(body[pivot:] + body[:pivot])

        def dfs(node: str) -> None:
            visited.add(node)
            stack.append(node)
            on_stack.add(node)
            for nxt in sorted(adj.get(node, ())):
                if nxt not in visited:
                    dfs(nxt)
                elif nxt in on_stack:
                    cycle = stack[stack.index(nxt):] + [nxt]
                    key = canonical(cycle)
                    if key not in seen_keys:
                        seen_keys.add(key)
                        rotated = list(key) + [key[0]]
                        cycles.append(rotated)
            stack.pop()
            on_stack.remove(node)

        for node in sorted(adj):
            if node not in visited:
                dfs(node)
        return cycles

    def edge_witness(self, held: str, acquired: str
                     ) -> Optional[EdgeWitness]:
        return self.lock_edges.get((held, acquired))


def build_context(files: Sequence) -> ConcurrencyContext:
    """Build the concurrency context for a list of project files.

    Accepts :class:`~repro.analysis.project.ProjectFile` objects and
    collects each file's summary here, in input order.
    """
    return ConcurrencyContext(CallGraph.link(
        [collect_file(pf.path, pf.module, pf.tree) for pf in files]))


def build_context_from_trees(
        entries: Sequence[Tuple[str, str, "ast.Module"]],
) -> ConcurrencyContext:
    """Context straight from ``(path, module, tree)`` triples (tests)."""
    return ConcurrencyContext(CallGraph.link(
        [collect_file(p, m, t) for p, m, t in entries]))
