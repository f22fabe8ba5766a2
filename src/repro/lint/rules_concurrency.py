"""Concurrency rules: lock discipline (R006), fork safety (R008).

The pipeline mixes three concurrency regimes -- the obs registry is
shared across threads, the service owns listener/ingest threads, and
the parallel collector forks worker *processes*.  Each regime has one
rule: shared state mutates under its lock (R006), and fork-based
modules never touch threads before forking (R008).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from .finding import Finding
from .framework import FileContext, Rule, dotted_name, path_matches, register


def _declared_locks(cls: ast.ClassDef) -> Set[str]:
    """Attribute names ending in ``_lock`` assigned on self anywhere."""
    locks: Set[str] = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                if (isinstance(tgt, ast.Attribute)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self"
                        and tgt.attr.endswith("_lock")):
                    locks.add(tgt.attr)
    return locks


def _is_lock_ctx(item: ast.withitem, locks: Set[str]) -> bool:
    expr = item.context_expr
    return (isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr in locks)


class _LockWalk(ast.NodeVisitor):
    """Collect unlocked ``self.<attr>`` writes inside one method."""

    def __init__(self, locks: Set[str]) -> None:
        self.locks = locks
        self.depth = 0  # nesting level of held class locks
        self.unlocked_writes: List[ast.Attribute] = []

    def visit_With(self, node: ast.With) -> None:
        held = any(_is_lock_ctx(item, self.locks) for item in node.items)
        self.depth += held
        self.generic_visit(node)
        self.depth -= held

    # A nested def runs later, possibly on another thread; its writes
    # are judged with no lock held regardless of the enclosing `with`.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        saved, self.depth = self.depth, 0
        self.generic_visit(node)
        self.depth = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _record(self, target: ast.expr) -> None:
        if (self.depth == 0
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr not in self.locks):
            self.unlocked_writes.append(target)

    def visit_Assign(self, node: ast.Assign) -> None:
        for tgt in node.targets:
            self._record(tgt)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record(node.target)
        self.generic_visit(node)


@register
class LockDiscipline(Rule):
    """R006: classes that declare a lock write ``self.*`` under it.

    Targets the registry (``obs/metrics.py``), the server
    (``service/server.py``) and any future shared-state class: once a
    class owns a ``*_lock``, an attribute write outside ``with
    self.<lock>:`` is either a latent race or a deliberate
    single-threaded seam -- the latter goes on ``lock-allow-methods``
    (``__init__`` is always allowed: no second thread exists yet).
    """

    id = "R006"
    name = "lock-discipline"
    domains = ("lib",)
    description = ("self.* writes in lock-owning classes happen inside "
                   "`with self._lock` or an allowlisted method")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        allowed = set(ctx.config.lock_allow_methods) | {"__init__"}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            locks = _declared_locks(node)
            if not locks:
                continue
            for stmt in node.body:
                if (not isinstance(stmt, ast.FunctionDef)
                        or stmt.name in allowed):
                    continue
                walk = _LockWalk(locks)
                for body_stmt in stmt.body:
                    walk.visit(body_stmt)
                for write in walk.unlocked_writes:
                    yield ctx.finding(
                        self.id, write,
                        f"write to self.{write.attr} in {node.name}."
                        f"{stmt.name}() outside `with self.<lock>:`; the "
                        "class declares "
                        f"{', '.join(sorted(locks))} -- hold it, or add the "
                        "method to lock-allow-methods with a reason",
                    )


_THREAD_CALLS = frozenset({
    "threading.Thread", "threading.Timer",
    "concurrent.futures.ThreadPoolExecutor", "ThreadPoolExecutor",
})


def _creates_shared_memory(node: ast.Call, name: str) -> bool:
    """True for ``SharedMemory(..., create=True)`` (kw or positional)."""
    if not name or name.split(".")[-1] != "SharedMemory":
        return False
    for kw in node.keywords:
        if (kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True):
            return True
    # Signature: SharedMemory(name=None, create=False, size=0).
    return (len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value is True)


@register
class ForkSafety(Rule):
    """R008: fork-based modules never create threads, and only the
    shm modules create shared-memory segments.

    ``collector/parallel.py`` forks its workers; a thread started
    before ``fork()`` leaves the child with the thread's locks in
    whatever state the parent froze them -- the classic post-fork
    deadlock.  The rule bans thread creation
    *anywhere* in the configured fork modules: keeping the whole
    module thread-free is simpler to audit than proving ordering
    against every fork site.

    The second prong guards the other fork-adjacent resource:
    ``SharedMemory(create=True)`` outside the ``shm-modules``
    allowlist (``collector/shm.py``).  Every created segment needs
    exactly one owner that unlinks it; segments minted ad hoc around
    the codebase are how ``/dev/shm`` fills with orphans after a
    crash.
    """

    id = "R008"
    name = "subprocess-fork-safety"
    domains = ("lib",)
    description = ("no thread creation in fork-based modules "
                   "(fork-modules list); no SharedMemory(create=True) "
                   "outside shm-modules")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        in_fork = path_matches(ctx.rel_path, ctx.config.fork_modules)
        in_shm = path_matches(ctx.rel_path, ctx.config.shm_modules)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if in_fork and name in _THREAD_CALLS:
                yield ctx.finding(
                    self.id, node,
                    f"{name}() in a fork-based module; threads held "
                    "across fork() deadlock the child -- move threading "
                    "out of the fork path",
                )
            if not in_shm and name and _creates_shared_memory(node, name):
                yield ctx.finding(
                    self.id, node,
                    f"{name}(create=True) outside shm-modules; segment "
                    "creation (and the unlink discipline that keeps "
                    "/dev/shm clean) is confined to collector/shm.py -- "
                    "route new segments through ShmRing",
                )
