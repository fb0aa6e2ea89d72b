"""Interprocedural call graph for the concurrency rules.

REP201's fork-safety property is *reachability*: a hazard is a problem
not where it is written but where it can run — before the fork, or
inside a pool initializer that every forked worker executes. That needs
a (deliberately cheap) whole-scope call graph: every function defined in
the analyzed modules, call edges resolved by trailing name, and the set
of functions passed as ``initializer=`` to a process-pool constructor or
as ``target=`` to a ``Process``.

Resolution by trailing name over-approximates (two modules may both
define ``_warm``), which is the right direction for a safety lint: a
call that *might* reach a hazard is flagged. All containers iterate in
sorted order so findings are byte-stable across ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.sanitizers.dataflow.engine import Module

#: Constructors that start worker processes. The distinction matters:
#: only *processes* fork/spawn, so only they make pre-existing
#: threads/locks dangerous (thread pools are REP201-neutral).
PROCESS_POOL_TAILS = frozenset({
    "ProcessPoolExecutor",
    "Pool",  # multiprocessing.Pool / get_context(...).Pool
    "Process",  # multiprocessing.Process / get_context(...).Process
})

#: Keywords of those constructors naming the function every child runs.
_ENTRY_KEYWORDS = frozenset({"initializer", "target"})


def call_name(node: ast.expr) -> str | None:
    """Trailing name of a call target (``a.b.c()`` -> ``c``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@dataclass
class FunctionInfo:
    """One function definition known to the graph."""

    module: str  # display path
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def key(self) -> tuple[str, str]:
        return (self.module, self.qualname)


@dataclass
class CallGraph:
    """Functions, tail-name call edges, and pool-initializer roots."""

    #: trailing name -> definitions carrying it (sorted at build time)
    by_tail: dict[str, list[FunctionInfo]] = field(default_factory=dict)
    #: (module, qualname) -> trailing names it calls
    calls: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    #: trailing names passed as ``initializer=``/``target=`` to a process pool
    initializers: set[str] = field(default_factory=set)
    #: (module, qualname) of functions that construct a process pool
    pool_builders: set[tuple[str, str]] = field(default_factory=set)
    #: memo of :meth:`tails_reaching` (the graph is read-only once built)
    _reaching: dict[str, frozenset[str]] = field(
        default_factory=dict, repr=False
    )

    def add_module(self, module: Module) -> None:
        for qualname, fn in module.functions:
            info = FunctionInfo(
                module=module.display, qualname=qualname, node=fn
            )
            self.by_tail.setdefault(fn.name, []).append(info)
            callees: set[str] = set()
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                tail = call_name(node.func)
                if tail is not None:
                    callees.add(tail)
                self._note_pool_call(node, info)
            self.calls[info.key] = callees
        # Module-level pool construction (rare but legal) still registers
        # its initializer.
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                self._note_pool_call(node, None)

    def _note_pool_call(
        self, node: ast.Call, owner: FunctionInfo | None
    ) -> None:
        if call_name(node.func) not in PROCESS_POOL_TAILS:
            return
        if owner is not None:
            self.pool_builders.add(owner.key)
        for kw in node.keywords:
            if kw.arg in _ENTRY_KEYWORDS:
                tail = call_name(kw.value) or (
                    kw.value.id if isinstance(kw.value, ast.Name) else None
                )
                if tail:
                    self.initializers.add(tail)

    def reachable_from_initializers(self) -> set[tuple[str, str]]:
        """Every function a pool initializer can transitively call."""
        seen: set[tuple[str, str]] = set()
        frontier: list[FunctionInfo] = []
        for tail in sorted(self.initializers):
            frontier.extend(self.by_tail.get(tail, []))
        while frontier:
            info = frontier.pop()
            if info.key in seen:
                continue
            seen.add(info.key)
            for tail in sorted(self.calls.get(info.key, ())):
                frontier.extend(self.by_tail.get(tail, []))
        return seen

    def tails_reaching(self, target: str) -> frozenset[str]:
        """Call tails that may transitively reach a ``target`` call.

        Reverse reachability over the tail-name edges: start from every
        function that calls ``target`` (or is named it) and walk callers
        until fixpoint. Over-approximates by tail-name collision — the
        right direction for a staleness lint (REP304).
        """
        if target not in self._reaching:
            reaching = {target}
            grew = True
            while grew:
                grew = False
                for key in sorted(self.calls):
                    tail = key[1].rsplit(".", 1)[-1]
                    if tail not in reaching and self.calls[key] & reaching:
                        reaching.add(tail)
                        grew = True
            self._reaching[target] = frozenset(reaching)
        return self._reaching[target]


def build_graph(modules: list[Module]) -> CallGraph:
    """Assemble the graph over every module, sorted by display path."""
    graph = CallGraph()
    for module in sorted(modules, key=lambda m: m.display):
        graph.add_module(module)
    for infos in graph.by_tail.values():
        infos.sort(key=lambda i: i.key)
    return graph
