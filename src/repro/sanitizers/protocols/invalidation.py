"""REP304 — a live-set mutation is invalidated at once.

The load balancer memoizes its placement decision keyed on the live
device set; :meth:`LoadBalancer.note_live_set_change` is the *only*
invalidation point. A mutation of the framework's live-set bookkeeping
(``self._live[name] = ...``) that reaches a solve without an
invalidation in between revives the PR-6 bug class: the balancer serves
a decision computed for a live set that no longer exists.

The rule is a pattern: every subscript store into ``_live``/``live``
(assignment, augmented or annotated assignment, ``del``) must be
followed at once, in the same statement list, by a
``note_live_set_change()`` call statement. That covers every store a
path rule would flag: the call is the next thing that runs after the
store, so no solve and no normal exit comes between them, and no call
graph is needed to tell which calls may reach a solve.
"""

from __future__ import annotations

import ast

from repro.sanitizers.dataflow.engine import Emitter, Module


#: Subscript-store base tails treated as live-set bookkeeping.
LIVE_TAILS = frozenset({"_live", "live"})

#: The one discharge call.
INVALIDATE_TAIL = "note_live_set_change"


def _tail(node: ast.expr) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _live_store(stmt: ast.stmt) -> bool:
    """Does ``stmt`` store into (or delete from) live-set bookkeeping?"""
    if isinstance(stmt, (ast.Assign, ast.Delete)):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return False
    return any(
        isinstance(t, ast.Subscript) and _tail(t.value) in LIVE_TAILS
        for t in targets
    )


def _invalidates(stmt: ast.stmt | None) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and _tail(stmt.value.func) == INVALIDATE_TAIL
    )


def check_invalidation(module: Module, emitters: dict[str, Emitter]) -> None:
    """REP304 over one module: every statement list, every store."""
    emit = emitters["REP304"]
    for node in ast.walk(module.tree):
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            if not isinstance(stmts, list):
                continue
            for stmt, after in zip(stmts, [*stmts[1:], None]):
                if _live_store(stmt) and not _invalidates(after):
                    emit.emit(
                        stmt,
                        "live-set mutation not followed at once by "
                        "note_live_set_change() — the balancer's next "
                        "solve serves a decision for the old live set",
                    )
