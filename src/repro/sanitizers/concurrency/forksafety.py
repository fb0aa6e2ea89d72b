"""REP201 — fork-safety of the worker-pool setup.

Under the default ``fork`` start method a worker inherits a snapshot of
the parent at fork time: locks held by other threads stay locked
forever, thread objects point at threads that no longer exist, and file
handles are shared byte positions. Three placements of a concurrency
primitive are therefore hazardous:

* at module import time in a scope the pool machinery imports (the
  child re-sees the parent's object, not a fresh one);
* inside (or transitively reachable from) a pool *initializer* — the
  one function every forked child runs, where creating threads/locks or
  making blocking calls can deadlock against inherited state;
* in a pool-constructing function *before* the process pool is built —
  a lock created on the line above ``ProcessPoolExecutor(...)`` is
  copied into every child in whatever state it happens to be in.

Thread pools are exempt: their workers share the address space, so
nothing is snapshotted.
"""

from __future__ import annotations

import ast

from repro.sanitizers.concurrency.callgraph import (
    PROCESS_POOL_TAILS,
    CallGraph,
    call_name,
)
from repro.sanitizers.dataflow.engine import Emitter, Module

RULE = "REP201"

#: Constructors whose instances must not pre-exist a fork or be created
#: in a forked child's initializer.
HAZARD_CONSTRUCTORS = frozenset({
    "Thread", "Timer", "local",
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
    "Event", "Barrier",
    "open", "Popen",
})

#: Blocking calls that can deadlock a forked child during initialization
#: (they may wait on a thread/lock that only existed in the parent).
BLOCKING_TAILS = frozenset({"join", "acquire", "wait", "input"})

#: Calls with a blocking tail that wait on no lock: ``select`` over the
#: caller's own descriptors. Matched by the dotted name the module's
#: imports give the call, so ``wait(...)`` after ``from
#: multiprocessing.connection import wait`` is one and
#: ``threading.Event().wait()`` is not.
NON_BLOCKING = frozenset({"multiprocessing.connection.wait"})


def _hazard_calls(node: ast.AST) -> list[tuple[ast.Call, str]]:
    out: list[tuple[ast.Call, str]] = []
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            tail = call_name(n.func)
            if tail in HAZARD_CONSTRUCTORS:
                out.append((n, tail))
    return out


def _imported_names(tree: ast.Module) -> dict[str, str]:
    """Each name the module's imports bind -> the dotted name it stands for."""
    names: dict[str, str] = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            for alias in n.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    top = alias.name.partition(".")[0]
                    names[top] = top
        elif isinstance(n, ast.ImportFrom) and n.module and not n.level:
            for alias in n.names:
                names[alias.asname or alias.name] = f"{n.module}.{alias.name}"
    return names


def _dotted(func: ast.expr, imported: dict[str, str]) -> str | None:
    """``a.b.c`` with ``a`` resolved through the imports; None unless the
    call target is a plain name or attribute chain."""
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    parts.append(imported.get(func.id, func.id))
    return ".".join(reversed(parts))


def _blocking_calls(
    node: ast.AST, imported: dict[str, str]
) -> list[tuple[ast.Call, str]]:
    out: list[tuple[ast.Call, str]] = []
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            tail = call_name(n.func)
            if tail in BLOCKING_TAILS and _dotted(n.func, imported) not in NON_BLOCKING:
                out.append((n, tail))
    return out


def check_fork_safety(
    module: Module, graph: CallGraph, emitters: dict[str, Emitter]
) -> None:
    """Whole-module pass (needs the interprocedural graph)."""
    emitter = emitters[RULE]
    _check_module_level(module.tree, emitter)
    reachable = graph.reachable_from_initializers()
    imported = _imported_names(module.tree)
    for qualname, fn in module.functions:
        if (module.display, qualname) in reachable:
            _check_initializer_body(fn, qualname, imported, emitter)
        if (module.display, qualname) in graph.pool_builders:
            _check_pre_fork(fn, emitter)


def _check_module_level(tree: ast.Module, emitter: Emitter) -> None:
    """Hazard constructors executed at import time."""
    for stmt in tree.body:
        if isinstance(
            stmt,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            continue
        for call, tail in _hazard_calls(stmt):
            emitter.emit(
                call,
                f"module-level {tail}() is snapshotted into every "
                "forked worker in an arbitrary state; create it "
                "after the pool, or per-process in the initializer "
                "via spawn",
            )


def _check_initializer_body(
    fn: ast.AST, qualname: str, imported: dict[str, str], emitter: Emitter
) -> None:
    """Hazards inside (or reachable from) a pool initializer."""
    for call, tail in _hazard_calls(fn):
        emitter.emit(
            call,
            f"{tail}() runs inside the pool initializer "
            f"(via {qualname}); a forked child must not create "
            "threads/locks/handles while inherited state is live",
        )
    for call, tail in _blocking_calls(fn, imported):
        emitter.emit(
            call,
            f"blocking .{tail}() runs inside the pool initializer "
            f"(via {qualname}) and can deadlock against a lock "
            "snapshotted mid-acquire by fork",
        )


def _check_pre_fork(fn: ast.AST, emitter: Emitter) -> None:
    """Hazards created lexically before the process pool is built."""
    pool_line: int | None = None
    for n in ast.walk(fn):
        if (
            isinstance(n, ast.Call)
            and call_name(n.func) in PROCESS_POOL_TAILS
        ):
            line = getattr(n, "lineno", 0)
            pool_line = line if pool_line is None else min(pool_line, line)
    if pool_line is None:
        return
    for call, tail in _hazard_calls(fn):
        if getattr(call, "lineno", 0) < pool_line:
            emitter.emit(
                call,
                f"{tail}() created before the process pool forks "
                "(line "
                f"{pool_line}); the child inherits it in an "
                "unknown state — construct it after the pool",
            )
