"""REP202 — cross-process payload hygiene at submit sites.

The process backend's whole bit-exactness story rests on one rule: a
task submission carries *coordinates*, never pixels. Pickling an
ndarray into ``submit()`` silently works — and quietly re-introduces
the per-task copy the shared-memory design exists to eliminate, while a
pickled ``SharedMemory`` object resurrects the segment with a second
refcount. This rule taints every value that is (or views) bulk shared
data and flags it crossing a submit boundary, including closures over
tainted names (a lambda drags its cells through the pickler).

Scope is the process-pool code (``repro/exec/``): thread-pool submits
share an address space and legitimately pass closures (the DES backend
does exactly that).
"""

from __future__ import annotations

import ast

from repro.sanitizers.concurrency.callgraph import (
    CallGraph,
    call_name,
    dotted_root,
)
from repro.sanitizers.dataflow.engine import Emitter, Module

RULE = "REP202"

#: Method names that hand a payload to another process.
SUBMIT_TAILS = frozenset({"submit", "apply_async", "map", "starmap"})

#: Call roots/tails whose results are bulk data, not coordinates.
_ARRAY_ROOTS = frozenset({"np", "numpy"})
_TAINT_CALL_TAILS = frozenset({"SharedMemory", "ndarray", "view"})
_VIEW_GLOBALS = frozenset({"_VIEWS", "_SEGMENTS"})


def _is_tainted_expr(node: ast.expr, tainted: set[str]) -> bool:
    """Does this expression denote shared bulk data?"""
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, ast.Starred):
        return _is_tainted_expr(node.value, tainted)
    if isinstance(node, ast.Subscript):
        root = dotted_root(node)
        if root in _VIEW_GLOBALS:
            return True
        return _is_tainted_expr(node.value, tainted)
    if isinstance(node, ast.Attribute):
        return _is_tainted_expr(node.value, tainted)
    if isinstance(node, ast.Call):
        tail = call_name(node.func)
        root = dotted_root(node.func)
        if tail in _TAINT_CALL_TAILS or root in _ARRAY_ROOTS:
            return True
        # slicing helpers on a tainted receiver stay tainted
        if isinstance(node.func, ast.Attribute):
            return _is_tainted_expr(node.func.value, tainted)
    return False


def _annotation_is_array(node: ast.expr | None) -> bool:
    if node is None:
        return False
    text = ast.unparse(node)
    return "ndarray" in text or "SharedMemory" in text


def check_payloads(
    module: Module, graph: CallGraph | None, emitters: dict[str, Emitter]
) -> None:
    """Per-function taint pass; no interprocedural state needed."""
    emitter = emitters[RULE]
    for _qualname, fn in module.functions:
        _check_function(fn, emitter)
    _check_body(module.tree.body, set(), emitter)


def _check_function(fn: ast.AST, emitter: Emitter) -> None:
    tainted: set[str] = set()
    args = getattr(fn, "args", None)
    if args is not None:
        for a in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
        ):
            if _annotation_is_array(a.annotation):
                tainted.add(a.arg)
    _check_body(getattr(fn, "body", []), tainted, emitter)


def _check_body(
    body: list[ast.stmt], tainted: set[str], emitter: Emitter
) -> None:
    for stmt in body:
        if isinstance(
            stmt,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            continue  # nested scopes are visited on their own
        _track_assignments(stmt, tainted)
        for call in _submit_calls(stmt):
            _check_submit(call, tainted, emitter)
        for attr in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, attr, None)
            if isinstance(inner, list):
                _check_body(
                    [s for s in inner if isinstance(s, ast.stmt)],
                    tainted,
                    emitter,
                )
        for handler in getattr(stmt, "handlers", []) or []:
            _check_body(handler.body, tainted, emitter)


def _track_assignments(stmt: ast.stmt, tainted: set[str]) -> None:
    pairs: list[tuple[ast.expr, ast.expr]] = []
    if isinstance(stmt, ast.Assign):
        pairs = [(t, stmt.value) for t in stmt.targets]
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        pairs = [(stmt.target, stmt.value)]
    elif isinstance(stmt, ast.AugAssign):
        pairs = [(stmt.target, stmt.value)]
    for target, value in pairs:
        if isinstance(target, ast.Name):
            if _is_tainted_expr(value, tainted):
                tainted.add(target.id)
            else:
                tainted.discard(target.id)


def _submit_calls(stmt: ast.stmt) -> list[ast.Call]:
    out = []
    for n in ast.walk(stmt):
        if (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and (
                n.func.attr in SUBMIT_TAILS
                or n.func.attr.startswith("submit_")
            )
        ):
            out.append(n)
    return out


def _check_submit(
    call: ast.Call, tainted: set[str], emitter: Emitter
) -> None:
    assert isinstance(call.func, ast.Attribute)
    payload = list(call.args)
    if call.func.attr in SUBMIT_TAILS and payload:
        head, payload = payload[0], payload[1:]
        # The callable slot still smuggles data if it is a closure.
        _check_closure(head, tainted, emitter)
    for arg in payload:
        _check_closure(arg, tainted, emitter)
        if _is_tainted_expr(arg, tainted):
            emitter.emit(
                arg,
                f"{call.func.attr}() payload {ast.unparse(arg)} "
                "carries shared bulk data across the process "
                "boundary; pass (row0, nrows) coordinates and read "
                "the segment worker-side",
            )
    for kw in call.keywords:
        if kw.arg is None:
            continue
        if _is_tainted_expr(kw.value, tainted):
            emitter.emit(
                kw.value,
                f"{call.func.attr}() keyword {kw.arg!r} carries "
                "shared bulk data across the process boundary; "
                "pass coordinates instead",
            )


def _check_closure(
    node: ast.expr, tainted: set[str], emitter: Emitter
) -> None:
    if not isinstance(node, ast.Lambda):
        return
    bound = {a.arg for a in node.args.args}
    for n in ast.walk(node.body):
        if (
            isinstance(n, ast.Name)
            and n.id in tainted
            and n.id not in bound
        ):
            emitter.emit(
                node,
                f"lambda closes over shared array {n.id!r}; the "
                "pickled closure copies it into the worker — pass "
                "coordinates instead",
            )
            return
