"""REP304 — invalidation-before-solve over the CFG and call graph.

The load balancer memoizes its placement decision keyed on the live
device set; :meth:`LoadBalancer.note_live_set_change` is the *only*
invalidation point. A mutation of the framework's live-set bookkeeping
(``self._live[name] = ...``) that can reach a solve — directly or
through any function the layer-4 call graph says may transitively call
``solve`` — without an invalidation in between revives the PR-6 bug
class: the balancer serves a decision computed for a live set that no
longer exists.

Domain: the set of pending live-set mutation sites. A call whose tail
is ``note_live_set_change`` discharges all of them. A call that may
reach a solve while mutations are pending is flagged *at the solve
site*; pending mutations surviving to a normal function exit are
flagged there too (the next solve happens in some later call — the
invalidation must be issued before this function gives up control).

Exception exits are exempt (unwinding abandons the round) and so is
``__init__`` (no decision cache exists before the first solve).
"""

from __future__ import annotations

import ast
from typing import Any

from repro.sanitizers.concurrency.callgraph import call_name
from repro.sanitizers.dataflow.cfg import IterElem, TestElem, WithElem
from repro.sanitizers.dataflow.engine import Emitter, FunctionContext


#: Subscript-store base tails treated as live-set bookkeeping.
LIVE_TAILS = frozenset({"_live", "live"})

#: The one discharge call.
INVALIDATE_TAIL = "note_live_set_change"

#: The barrier the invalidation must precede.
SOLVE_TAIL = "solve"

#: pending mutation sites: ((line, col_offset), ...) sorted
State = tuple[tuple[int, int], ...]


class _Site:
    """Positional stand-in so the Emitter can anchor exit findings."""

    def __init__(self, lineno: int, col_offset: int) -> None:
        self.lineno = lineno
        self.col_offset = col_offset


def _tail(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _iter_calls(node: ast.AST):
    """Calls in ``node``, skipping nested function/class bodies."""
    stack = [node]
    while stack:
        cur = stack.pop()
        if isinstance(
            cur,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ) and cur is not node:
            continue
        if isinstance(cur, ast.Call):
            yield cur
        stack.extend(reversed(list(ast.iter_child_nodes(cur))))


def _live_store(target: ast.expr) -> bool:
    """Is ``target`` a subscript store into live-set bookkeeping?"""
    if not isinstance(target, ast.Subscript):
        return False
    tail = _tail(target.value)
    return tail is not None and tail in LIVE_TAILS


class InvalidationAnalysis:
    def initial_state(self, ctx: FunctionContext) -> State:
        return ()

    def join(self, a: State, b: State) -> State:
        return tuple(sorted(set(a) | set(b)))

    def _apply_calls(
        self,
        node: ast.AST,
        pending: set[tuple[int, int]],
        emit: Emitter,
        ctx: FunctionContext,
    ) -> None:
        # Every call that may transitively reach a solve is a barrier.
        barriers = ctx.graph.tails_reaching(SOLVE_TAIL)
        for call in _iter_calls(node):
            name = call_name(call.func)
            if name is None:
                continue
            if name == INVALIDATE_TAIL:
                pending.clear()
            elif name in barriers and pending:
                emit.emit(
                    call,
                    f"{name}() may reach a solve while a live-set "
                    "mutation is pending — call note_live_set_change() "
                    "between the mutation and the solve (stale decision "
                    "cache)",
                )
                pending.clear()  # one finding per mutation/solve pair

    def _apply_stores(
        self, elem: ast.AST, pending: set[tuple[int, int]]
    ) -> None:
        if isinstance(elem, ast.Assign):
            for target in elem.targets:
                if _live_store(target):
                    pending.add((elem.lineno, elem.col_offset))
        elif isinstance(elem, (ast.AnnAssign, ast.AugAssign)):
            if _live_store(elem.target):
                pending.add((elem.lineno, elem.col_offset))
        elif isinstance(elem, ast.Delete):
            for target in elem.targets:
                if _live_store(target):
                    pending.add((elem.lineno, elem.col_offset))

    def transfer(
        self, elem: Any, state: State, emit: Emitter, ctx: FunctionContext
    ) -> State:
        pending = set(state)
        if isinstance(elem, TestElem):
            self._apply_calls(elem.expr, pending, emit, ctx)
        elif isinstance(elem, IterElem):
            self._apply_calls(elem.iterable, pending, emit, ctx)
        elif isinstance(elem, WithElem):
            self._apply_calls(elem.context, pending, emit, ctx)
        elif isinstance(
            elem, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            pass
        elif isinstance(elem, ast.AST):
            self._apply_calls(elem, pending, emit, ctx)
            self._apply_stores(elem, pending)
        return tuple(sorted(pending))

    def at_exit(
        self,
        state: State,
        emit: Emitter,
        ctx: FunctionContext,
        exceptional: bool,
    ) -> None:
        if exceptional:
            return
        if ctx.qualname.rsplit(".", 1)[-1] == "__init__":
            return  # no decision cache exists before the first solve
        for line, col in state:
            emit.emit(
                _Site(line, col),
                "live-set mutation escapes the function without "
                "note_live_set_change() — the balancer's next solve "
                "serves a decision for the old live set",
            )
