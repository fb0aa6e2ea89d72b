"""REP102 — unordered-iteration determinism analysis.

The DES must be bit-reproducible: event insertion order, heap
tie-breaks and LP candidate ordering all expose iteration order, so any
``set``/``frozenset`` iteration (hash-order under ``PYTHONHASHSEED``)
that reaches them makes timelines run-dependent.  This rule taints
values known to be unordered — set literals/comprehensions,
``set()``/``frozenset()`` construction and set algebra, parameters
annotated as sets, ``dict.popitem()`` — and flags the order-exposing
sinks: ``for`` loops, comprehension generators, and
``list()``/``tuple()``/``enumerate()`` conversions.

Order-insensitive consumption is deliberately silent: ``sorted()``,
``min``/``max``/``sum``/``len``/``any``/``all``, membership tests, and
rebuilding into another set all launder the taint, so the fix for a
true positive is always local (sort it, or iterate an ordered carrier).
"""

from __future__ import annotations

import ast

from repro.sanitizers.dataflow.cfg import (
    Element,
    ExceptElem,
    IterElem,
    TestElem,
    WithElem,
)
from repro.sanitizers.dataflow.engine import Emitter, FunctionContext

State = frozenset[str]  # names that may hold an unordered collection

#: Calls that consume a collection without exposing its order.
_ORDER_INSENSITIVE = frozenset(
    {"sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset"}
)

#: Calls that expose iteration order of their argument.
_ORDER_EXPOSING = frozenset({"list", "tuple", "enumerate", "iter", "next"})

#: Set-algebra methods whose result is again unordered.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

_SET_TYPE_NAMES = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)


def _annotation_is_set(ann: ast.expr | None) -> bool:
    """True if a parameter annotation names a set type (incl. unions)."""
    if ann is None:
        return False
    if isinstance(ann, ast.Name):
        return ann.id in _SET_TYPE_NAMES
    if isinstance(ann, ast.Attribute):
        return ann.attr in _SET_TYPE_NAMES
    if isinstance(ann, ast.Subscript):
        return _annotation_is_set(ann.value)
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        return _annotation_is_set(ann.left) or _annotation_is_set(ann.right)
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            return _annotation_is_set(ast.parse(ann.value, mode="eval").body)
        except SyntaxError:
            return False
    return False


class DeterminismAnalysis:
    """REP102 dataflow rule (see module docstring)."""

    def initial_state(self, ctx: FunctionContext) -> State:
        tainted: set[str] = set()
        fn = ctx.fn
        if fn is not None:
            args = list(fn.args.posonlyargs) + list(fn.args.args) + list(
                fn.args.kwonlyargs
            )
            for a in args:
                if _annotation_is_set(a.annotation):
                    tainted.add(a.arg)
        return frozenset(tainted)

    def join(self, a: State, b: State) -> State:
        return a | b

    def transfer(
        self, elem: Element, state: State, emit: Emitter, ctx: FunctionContext
    ) -> State:
        tainted = set(state)
        if isinstance(elem, IterElem):
            self._check_sinks_in(elem.iterable, state, emit)
            if self._is_unordered(elem.iterable, state):
                emit.emit(
                    elem.node,
                    "iterates an unordered set in an order-exposing loop; "
                    "hash-seed-dependent order can leak into event/candidate "
                    "ordering (sort it or iterate an ordered carrier)",
                )
            # Loop targets bind scalar elements, not collections.
            self._bind(elem.target, False, tainted)
        elif isinstance(elem, TestElem):
            self._check_sinks_in(elem.expr, state, emit)
        elif isinstance(elem, WithElem):
            self._check_sinks_in(elem.context, state, emit)
            if elem.target is not None:
                self._bind(elem.target, False, tainted)
        elif isinstance(elem, ExceptElem):
            if elem.name:
                tainted.discard(elem.name)
        elif isinstance(elem, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = elem.value
            if value is not None:
                self._check_sinks_in(value, state, emit)
                is_set = self._is_unordered(value, state)
                targets = (
                    elem.targets
                    if isinstance(elem, ast.Assign)
                    else [elem.target]
                )
                for t in targets:
                    self._bind(t, is_set, tainted)
            if isinstance(elem, ast.AnnAssign) and _annotation_is_set(
                elem.annotation
            ):
                self._bind(elem.target, True, tainted)
        elif isinstance(elem, ast.stmt):
            for sub in ast.iter_child_nodes(elem):
                if isinstance(sub, ast.expr):
                    self._check_sinks_in(sub, frozenset(tainted), emit)
        return frozenset(tainted)

    # ------------------------------------------------------------------

    def _bind(self, target: ast.expr, is_set: bool, tainted: set[str]) -> None:
        if isinstance(target, ast.Name):
            if is_set:
                tainted.add(target.id)
            else:
                tainted.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, False, tainted)

    def _is_unordered(self, expr: ast.expr, state: State) -> bool:
        """May this expression evaluate to an unordered collection?"""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in state
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute):
                if func.attr == "popitem":
                    return True
                if func.attr in _SET_METHODS:
                    return self._is_unordered(func.value, state)
            return False
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            # Set algebra keeps the result unordered.
            return self._is_unordered(expr.left, state) or self._is_unordered(
                expr.right, state
            )
        if isinstance(expr, ast.IfExp):
            return self._is_unordered(expr.body, state) or self._is_unordered(
                expr.orelse, state
            )
        if isinstance(expr, ast.NamedExpr):
            return self._is_unordered(expr.value, state)
        return False

    def _check_sinks_in(
        self, expr: ast.expr, state: State, emit: Emitter
    ) -> None:
        """Scan an expression tree for order-exposing consumption."""
        # A comprehension/genexp whose value feeds straight into an
        # order-insensitive consumer (frozenset(...), sorted(...), ...)
        # cannot leak iteration order; exempt those nodes up front.
        laundered: set[int] = set()
        for sub in ast.walk(expr):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in _ORDER_INSENSITIVE
            ):
                for arg in sub.args:
                    laundered.add(id(arg))
        for sub in ast.walk(expr):
            if id(sub) in laundered:
                continue
            if isinstance(sub, ast.Call):
                func = sub.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_EXPOSING
                    and sub.args
                    and self._is_unordered(sub.args[0], state)
                ):
                    emit.emit(
                        sub,
                        f"{func.id}() over an unordered set exposes "
                        "hash-seed-dependent order (wrap in sorted())",
                    )
            elif isinstance(
                sub, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)
            ):
                order_matters = not isinstance(sub, ast.SetComp)
                for gen in sub.generators:
                    if order_matters and self._is_unordered(gen.iter, state):
                        emit.emit(
                            sub,
                            "comprehension iterates an unordered set; "
                            "element order is hash-seed-dependent "
                            "(wrap the iterable in sorted())",
                        )
