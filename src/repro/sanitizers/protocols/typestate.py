"""REP301 — object-lifecycle typestate over the CFG.

Tracks variables bound to constructors of protocol-tracked classes
(``node = Node(...)``, ``self._pool = KernelPool(...)``, ``with
SharedFrameStore(cfg) as store:``) through the function's CFG with a
may-state domain: each tracked name maps to the *set* of protocol
states it can be in at that point (union join — one bad path is
enough). Every method call on a tracked name is checked against the
spec compiled from :mod:`repro.sanitizers.protocols.spec`:

- a transition fired outside its source states (``step()`` after
  ``retire()``, ``unlink()`` before ``close()``) is flagged and the
  offending state is carried forward (no cascade);
- an observer called in a forbidden state (``view()`` after ``close()``)
  is flagged;
- methods outside the spec's alphabet are neutral.

Exception edges come free from the layer-3 engine: the state before a
possibly-raising element flows to the handlers, so a ``close()`` inside
``finally`` correctly leaves the may-state ``{open, closed}`` in code
the exception path skips around.

The analysis is intraprocedural by design: objects received as
parameters or pulled from containers start untracked (their birth state
is unknown), mirroring the monitor's mid-life adoption rule.
"""

from __future__ import annotations

import ast
from typing import Any

from repro.sanitizers.concurrency.callgraph import call_name
from repro.sanitizers.dataflow.cfg import (
    ExceptElem,
    IterElem,
    TestElem,
    WithElem,
)
from repro.sanitizers.dataflow.engine import Emitter, FunctionContext
from repro.sanitizers.protocols.spec import CLASS_SPECS


#: tracked dotted name -> (class name, frozenset of possible states)
State = tuple[tuple[str, tuple[str, frozenset[str]]], ...]


def _as_dict(state: State) -> dict[str, tuple[str, frozenset[str]]]:
    return dict(state)


def _as_state(d: dict[str, tuple[str, frozenset[str]]]) -> State:
    return tuple(sorted(d.items()))


def _dotted(node: ast.expr) -> str | None:
    """``x`` / ``self.x`` / ``a.b.c`` as a dotted string, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


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


def _constructed_class(value: ast.expr) -> str | None:
    """Tracked class name if ``value`` is ``Cls(...)``, else None."""
    if isinstance(value, ast.Call):
        tail = call_name(value.func)
        if tail in CLASS_SPECS:
            return tail
    return None


class TypestateAnalysis:
    def initial_state(self, ctx: FunctionContext) -> State:
        return ()

    def join(self, a: State, b: State) -> State:
        da, db = _as_dict(a), _as_dict(b)
        out = dict(da)
        for name, (cls, states) in db.items():
            if name in out and out[name][0] == cls:
                out[name] = (cls, out[name][1] | states)
            else:
                out[name] = (cls, states)
        return _as_state(out)

    # ------------------------------------------------------------------

    def _check_call(
        self,
        call: ast.Call,
        vars_: dict[str, tuple[str, frozenset[str]]],
        emit: Emitter,
    ) -> None:
        if not isinstance(call.func, ast.Attribute):
            return
        recv = _dotted(call.func.value)
        if recv is None or recv not in vars_:
            return
        cls, states = vars_[recv]
        spec = CLASS_SPECS[cls]
        method = call.func.attr
        if not spec.knows(method):
            return
        nxt: set[str] = set()
        for st in sorted(states):
            after = spec.step(st, method)
            if after is None:
                allowed = sorted(spec.allowed_sources(method))
                emit.emit(
                    call,
                    f"{cls}.{method}() on {recv!r} in protocol state "
                    f"{st!r} (spec {spec.name!r} allows it from: "
                    f"{', '.join(allowed) or '-'})",
                )
                nxt.add(st)
            else:
                nxt.add(after)
        vars_[recv] = (cls, frozenset(nxt))

    def _bind(
        self,
        vars_: dict[str, tuple[str, frozenset[str]]],
        target: str,
        cls: str,
    ) -> None:
        vars_[target] = (cls, frozenset({CLASS_SPECS[cls].initial}))

    def transfer(
        self, elem: Any, state: State, emit: Emitter, ctx: FunctionContext
    ) -> State:
        vars_ = _as_dict(state)
        # Compound statements are decomposed by the CFG builder: only
        # each element's *own* expressions are walked here (the bodies
        # arrive as elements of their own blocks).
        if isinstance(elem, TestElem):
            for call in _iter_calls(elem.expr):
                self._check_call(call, vars_, emit)
        elif isinstance(elem, IterElem):
            for call in _iter_calls(elem.iterable):
                self._check_call(call, vars_, emit)
            target = _dotted(elem.target)
            if target is not None:
                vars_.pop(target, None)
        elif isinstance(elem, WithElem):
            for call in _iter_calls(elem.context):
                self._check_call(call, vars_, emit)
            cls = _constructed_class(elem.context)
            if cls is not None and elem.target is not None:
                target = _dotted(elem.target)
                if target is not None:
                    self._bind(vars_, target, cls)
        elif isinstance(elem, ExceptElem):
            pass
        elif isinstance(
            elem, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            pass
        elif isinstance(elem, ast.AST):
            # Simple statement: calls first (RHS evaluates before the
            # target rebinds), then bindings.
            for call in _iter_calls(elem):
                self._check_call(call, vars_, emit)
            if isinstance(elem, ast.Assign) and len(elem.targets) == 1:
                target = _dotted(elem.targets[0])
                if target is not None:
                    cls = _constructed_class(elem.value)
                    if cls is not None:
                        self._bind(vars_, target, cls)
                    else:
                        vars_.pop(target, None)
            elif isinstance(elem, ast.AnnAssign) and elem.value is not None:
                target = _dotted(elem.target)
                if target is not None:
                    cls = _constructed_class(elem.value)
                    if cls is not None:
                        self._bind(vars_, target, cls)
                    else:
                        vars_.pop(target, None)
            elif isinstance(elem, ast.Delete):
                for tgt in elem.targets:
                    target = _dotted(tgt)
                    if target is not None:
                        vars_.pop(target, None)
        return _as_state(vars_)

    def at_exit(
        self,
        state: State,
        emit: Emitter,
        ctx: FunctionContext,
        exceptional: bool,
    ) -> None:
        # Shutdown completeness is a dynamic property (objects escape
        # through returns/attributes); SAN-G2's require_terminal covers
        # it from the journal side.
        return None
