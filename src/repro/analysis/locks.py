"""Per-function concurrency summaries: locks, blocking ops, forks, threads.

This module is the *intra*procedural half of the concurrency analyzer
(the interprocedural half — linking, fixpoints, the lock-order graph —
lives in :mod:`repro.analysis.callgraph`).  For every function in a file
it produces a :class:`FuncSummary` recording, in source order and with
the set of locks held at each point:

* **acquisitions** — ``with <lock>:`` blocks and ``.acquire()`` /
  ``.release()`` pairs.  Lock *identity* is the qualified attribute path
  of the lock expression: ``self._lock`` inside class ``C`` of module
  ``m`` is ``m:C._lock`` (one identity per class attribute — the
  standard static-lockset abstraction), a module-level lock is ``m:L``,
  a function local is ``m:f.L``, and an attribute of an opaque receiver
  (``buf.lock``) is ``*.lock`` (merged by attribute name — conservative
  for deadlock detection).
* **calls** — every call that *could* resolve to a project function
  (``self.m()``, a module-level name, an import-qualified chain),
  carrying the locks held at the call site so the interprocedural pass
  can propagate lockset and blocking effects through it.  Calls on
  receivers the analyzer cannot type are dropped: an unknown callee
  contributes nothing to any lockset (the documented conservative
  choice — Kondo's own invariants are what the rules enforce, and those
  live in project code the resolver *can* see).
* **blocking operations** — ``fsync``/``fdatasync``, socket
  ``recv``/``accept``/``connect``, ``select``, ``sleep``,
  ``subprocess.*``, and the durability-journal appends
  (``durable_append``/``fsync_dir``), matched either by import-qualified
  name or, for opaque receivers, by terminal attribute name (the same
  deliberate name-based matching KND008 uses).
* **fork and thread-creation sites** — ``os.fork``/``forkpty`` and
  ``threading.Thread(...)``, for the fork-safety rule.

An expression is treated as a lock when it was *registered* — assigned
from a ``threading.Lock()``/``RLock()``/``Condition()``/``Semaphore()``
factory anywhere in the same file (module level, ``self.X = ...`` in a
class body, or a function local) — or when its terminal name contains
``lock``/``mutex``.  ``with open(...)`` and other non-lock context
managers never match (the expression must be a plain name or attribute).

Summaries hold no AST references: :func:`collect_file` reads a tree
once, and the call graph links the plain records it returns.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.scopes import AliasTable

#: Constructors whose result is registered as a lock object.
LOCK_FACTORIES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
})

#: Substrings marking a name as lock-like even without registration.
LOCK_NAME_HINTS = ("lock", "mutex")

#: Import-qualified call -> blocking kind.
QUALIFIED_BLOCKING: Dict[str, str] = {
    "os.fsync": "fsync",
    "os.fdatasync": "fsync",
    "time.sleep": "sleep",
    "select.select": "select",
    "select.poll": "select",
    "socket.create_connection": "socket connect",
    "subprocess.run": "subprocess",
    "subprocess.call": "subprocess",
    "subprocess.check_call": "subprocess",
    "subprocess.check_output": "subprocess",
    "subprocess.Popen": "subprocess",
    "repro.ioutil.durable_append": "journal append",
    "repro.ioutil.fsync_dir": "journal append",
}

#: Terminal attribute name (opaque receiver) -> blocking kind.
TERMINAL_BLOCKING: Dict[str, str] = {
    "fsync": "fsync",
    "fdatasync": "fsync",
    "recv": "socket recv",
    "recv_into": "socket recv",
    "recvfrom": "socket recv",
    "accept": "socket accept",
    "sleep": "sleep",
    "durable_append": "journal append",
}

#: Terminal names treated as a process fork on an opaque receiver.
FORK_TERMINALS = frozenset({"fork", "forkpty"})


def _hinted(name: str) -> bool:
    low = name.lower()
    return any(h in low for h in LOCK_NAME_HINTS)


def _terminal(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted text of a name/attribute chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif parts:
        parts.append("?")
    return ".".join(reversed(parts))


def _has_lock_factory(expr: ast.AST) -> bool:
    """Does ``expr`` contain a ``Lock()``-family constructor call?"""
    for node in ast.walk(expr):
        if isinstance(node, ast.Call) and _terminal(node.func) in LOCK_FACTORIES:
            return True
    return False


@dataclass(frozen=True)
class AcquireRec:
    """One lock acquisition, with the locks already held at that point."""

    lock_id: str
    lineno: int
    col: int
    held: Tuple[str, ...]


@dataclass(frozen=True)
class CallRec:
    """One potentially-resolvable call site.

    ``kind`` selects the resolution strategy the linker applies:
    ``"self"``/``"cls"`` (method on the lexically enclosing class or its
    bases), ``"local"`` (module-level function or class of the same
    file), or ``"qual"`` (import-qualified dotted chain resolved against
    the project module table).
    """

    kind: str
    target: str
    name: str
    lineno: int
    col: int
    held: Tuple[str, ...]


@dataclass(frozen=True)
class BlockRec:
    """A direct blocking operation and the locks held around it."""

    op: str
    call: str
    lineno: int
    col: int
    held: Tuple[str, ...]


@dataclass(frozen=True)
class ForkRec:
    call: str
    lineno: int
    col: int
    held: Tuple[str, ...]


@dataclass(frozen=True)
class ThreadRec:
    lineno: int
    col: int


@dataclass
class FuncSummary:
    """Everything the interprocedural pass needs about one function."""

    qualname: str            # "module:func" or "module:Class.method"
    module: str
    path: str
    name: str
    cls: Optional[str]
    lineno: int
    col: int
    acquires: List[AcquireRec] = field(default_factory=list)
    calls: List[CallRec] = field(default_factory=list)
    blocking: List[BlockRec] = field(default_factory=list)
    forks: List[ForkRec] = field(default_factory=list)
    threads: List[ThreadRec] = field(default_factory=list)


@dataclass
class FileConcurrency:
    """Per-file summary bundle plus the name tables the linker needs."""

    path: str
    module: str
    functions: List[FuncSummary] = field(default_factory=list)
    #: Module-level function names defined in this file.
    module_defs: Tuple[str, ...] = ()
    #: Class name -> method names.
    classes: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Class name -> dotted base-class expressions.
    class_bases: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Import alias table (local name -> dotted target).
    aliases: Dict[str, str] = field(default_factory=dict)


class _FuncWalker:
    """Walks one function body tracking the ordered set of held locks."""

    def __init__(self, summary: FuncSummary, file_ctx: "_FileContext"):
        self.s = summary
        self.ctx = file_ctx
        self.held: List[str] = []
        #: Function-local lock registrations (name -> lock id).
        self.local_locks: Dict[str, str] = {}

    # -- lock identity -------------------------------------------------------

    def _lock_id(self, expr: ast.AST, assume: bool = False) -> Optional[str]:
        if isinstance(expr, ast.Name):
            n = expr.id
            if n in self.local_locks:
                return self.local_locks[n]
            if n in self.ctx.module_locks:
                return f"{self.s.module}:{n}"
            if assume or _hinted(n):
                return f"{self.s.module}:{self._func_label()}.{n}"
            return None
        if isinstance(expr, ast.Attribute):
            attr = expr.attr
            base = expr.value
            if (isinstance(base, ast.Name) and base.id in ("self", "cls")
                    and self.s.cls is not None):
                registered = attr in self.ctx.class_locks.get(self.s.cls, ())
                if registered or assume or _hinted(attr):
                    return f"{self.s.module}:{self.s.cls}.{attr}"
                return None
            if assume or _hinted(attr):
                return f"*.{attr}"
        return None

    def _func_label(self) -> str:
        return self.s.qualname.split(":", 1)[1]

    # -- held-set bookkeeping ------------------------------------------------

    def _acquire(self, lock_id: str, node: ast.AST) -> None:
        self.s.acquires.append(AcquireRec(
            lock_id=lock_id, lineno=node.lineno, col=node.col_offset,
            held=tuple(self.held)))
        if lock_id not in self.held:
            self.held.append(lock_id)

    def _release(self, lock_id: str) -> None:
        if lock_id in self.held:
            self.held.remove(lock_id)

    # -- statements ----------------------------------------------------------

    def walk(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return  # nested defs run later, under their own locks
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            pushed: List[str] = []
            for item in stmt.items:
                lock_id = self._lock_id(item.context_expr)
                if lock_id is not None:
                    self._acquire(lock_id, item.context_expr)
                    pushed.append(lock_id)
                else:
                    self._scan_expr(item.context_expr)
                if item.optional_vars is not None:
                    self._scan_expr(item.optional_vars)
            self.walk(stmt.body)
            for lock_id in reversed(pushed):
                self._release(lock_id)
            return
        if isinstance(stmt, ast.Assign):
            self._maybe_register_local(stmt)
        for value in ast.iter_child_nodes(stmt):
            if isinstance(value, ast.expr):
                self._scan_expr(value)
            elif isinstance(value, ast.stmt):
                self._walk_stmt(value)
            elif isinstance(value, ast.ExceptHandler):
                if value.type is not None:
                    self._scan_expr(value.type)
                self.walk(value.body)

    def _maybe_register_local(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            return
        name = stmt.targets[0].id
        if _has_lock_factory(stmt.value):
            self.local_locks[name] = \
                f"{self.s.module}:{self._func_label()}.{name}"
            return
        # ``lk = self._lock`` — a local alias to an existing lock.
        alias_id = self._lock_id(stmt.value)
        if alias_id is not None:
            self.local_locks[name] = alias_id

    # -- expressions / calls -------------------------------------------------

    def _scan_expr(self, expr: ast.expr) -> None:
        stack: List[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue  # deferred body; runs under unknown locks
            if isinstance(node, ast.Call):
                self._classify_call(node)
            stack.extend(ast.iter_child_nodes(node))

    def _classify_call(self, call: ast.Call) -> None:
        func = call.func
        name = _terminal(func)
        held = tuple(self.held)
        # Explicit acquire/release: the receiver is a lock by definition.
        if isinstance(func, ast.Attribute) and name in ("acquire", "release"):
            lock_id = self._lock_id(func.value, assume=True)
            if lock_id is not None:
                if name == "acquire":
                    self._acquire(lock_id, call)
                else:
                    self._release(lock_id)
            return
        qual = self.ctx.aliases.qualify(func)
        dotted = qual or _dotted(func)
        # Fork sites.
        if qual == "os.fork" or (qual is None and name in FORK_TERMINALS
                                 and isinstance(func, ast.Attribute)):
            self.s.forks.append(ForkRec(
                call=dotted, lineno=call.lineno, col=call.col_offset,
                held=held))
            return
        # Thread creation.
        if qual == "threading.Thread" or name == "Thread":
            self.s.threads.append(ThreadRec(
                lineno=call.lineno, col=call.col_offset))
            return
        # Blocking primitives: import-qualified, or terminal-name match
        # on an opaque receiver (``conn.recv()``), never on a bare local
        # name the resolver might know better.
        kind = QUALIFIED_BLOCKING.get(qual) if qual else None
        if kind is None and qual is None and isinstance(func, ast.Attribute):
            kind = TERMINAL_BLOCKING.get(name)
        if kind is not None:
            self.s.blocking.append(BlockRec(
                op=kind, call=dotted, lineno=call.lineno,
                col=call.col_offset, held=held))
        # Resolvable project calls.
        rec = self._call_rec(func, name, qual, held, call)
        if rec is not None:
            self.s.calls.append(rec)

    def _call_rec(self, func: ast.AST, name: str, qual: Optional[str],
                  held: Tuple[str, ...], call: ast.Call
                  ) -> Optional[CallRec]:
        if isinstance(func, ast.Name):
            if qual is not None:
                return CallRec("qual", qual, name, call.lineno,
                               call.col_offset, held)
            if (name in self.ctx.module_defs or name in self.ctx.classes):
                return CallRec("local", name, name, call.lineno,
                               call.col_offset, held)
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls") \
                    and self.s.cls is not None:
                return CallRec("self", func.attr, name, call.lineno,
                               call.col_offset, held)
            if qual is not None:
                return CallRec("qual", qual, name, call.lineno,
                               call.col_offset, held)
        return None


class _FileContext:
    """Name tables shared by every function walker of one file."""

    def __init__(self, module: str, tree: ast.Module):
        self.aliases = AliasTable.scan(tree)
        self.module_locks: Dict[str, bool] = {}
        self.module_defs: List[str] = []
        self.classes: Dict[str, List[str]] = {}
        self.class_bases: Dict[str, List[str]] = {}
        self.class_locks: Dict[str, List[str]] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_defs.append(node.name)
            elif isinstance(node, ast.ClassDef):
                methods = [n.name for n in node.body
                           if isinstance(n, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))]
                self.classes[node.name] = methods
                self.class_bases[node.name] = [
                    _dotted(b) for b in node.bases if _dotted(b)]
                self.class_locks[node.name] = _class_lock_attrs(node)
            elif isinstance(node, ast.Assign):
                if (len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and _has_lock_factory(node.value)):
                    self.module_locks[node.targets[0].id] = True


def _class_lock_attrs(cls: ast.ClassDef) -> List[str]:
    """``self.X`` attributes assigned a lock factory anywhere in ``cls``."""
    attrs: List[str] = []
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and _has_lock_factory(node.value)
                    and target.attr not in attrs):
                attrs.append(target.attr)
    return attrs


def collect_file(path: str, module: str,
                 tree: ast.Module) -> FileConcurrency:
    """Summarize every (module-level and method) function of one file."""
    ctx = _FileContext(module, tree)
    out = FileConcurrency(
        path=path, module=module,
        module_defs=tuple(ctx.module_defs),
        classes={c: tuple(m) for c, m in ctx.classes.items()},
        class_bases={c: tuple(b) for c, b in ctx.class_bases.items()},
        aliases=dict(ctx.aliases.aliases),
    )

    def summarize(fn: ast.AST, cls: Optional[str]) -> None:
        label = fn.name if cls is None else f"{cls}.{fn.name}"
        summary = FuncSummary(
            qualname=f"{module}:{label}", module=module, path=path,
            name=fn.name, cls=cls, lineno=fn.lineno, col=fn.col_offset,
        )
        walker = _FuncWalker(summary, ctx)
        walker.walk(fn.body)
        out.functions.append(summary)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summarize(node, None)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    summarize(item, node.name)
    return out
