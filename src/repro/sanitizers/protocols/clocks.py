"""REP302 — monotone-clock discipline.

Every simulated clock in the stack (``EncodingService.now``, the node
clocks wrapping it, the dispatcher's event-time high-water) is an
attribute named ``now`` that must only ever move forward. Three legal
write shapes, derived from how the DES composes clocks:

- ``c.now = max(c.now, t)`` — pull forward to an external time (idle
  jumps, dispatch-time sync); ``max`` with the *same* clock on the RHS
  guarantees monotonicity whatever ``t`` is;
- ``c.now += dt`` / ``c.now = c.now + dt`` — advance by a duration;
- a plain seed in ``__init__``/``reset`` — clock birth.

Everything else is flagged: ``c.now -= dt`` and ``c.now = c.now - dt``
rewind; ``a.now = b.now`` cross-assigns between clock domains (two
services' clocks are causally unrelated — syncing them by assignment
fabricates an ordering the DES never established); ``c.now = t``
outside ``__init__`` can rewind whenever ``t`` is stale.

The rule is one whole-module pass: each clock store is judged on its
own, under the name of its innermost enclosing function (stores outside
any function are not judged), so it needs no control flow. The dynamic
twin is SAN-G1's per-object clock-regression check on the runtime
journal.
"""

from __future__ import annotations

import ast

from repro.sanitizers.dataflow.engine import Emitter, Module
from repro.sanitizers.lint import _dotted


#: Attribute names treated as simulated clocks.
CLOCK_ATTRS = frozenset({"now"})

#: Functions where a plain clock seed is legal (clock birth).
SEED_FUNCTIONS = frozenset({"__init__", "reset"})


def _clock_target(target: ast.expr) -> str | None:
    """Dotted path if ``target`` is a clock attribute store, else None."""
    if isinstance(target, ast.Attribute) and target.attr in CLOCK_ATTRS:
        return _dotted(target)
    return None


def _clock_refs(expr: ast.expr) -> list[str]:
    """Dotted paths of every clock attribute read inside ``expr``."""
    out = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr in CLOCK_ATTRS:
            path = _dotted(node)
            if path is not None:
                out.append(path)
    return out


def _judge(
    stmt: ast.stmt, path: str, value: ast.expr, fn_name: str, emit: Emitter
) -> None:
    """One ``path = value`` clock store inside function ``fn_name``."""
    refs = _clock_refs(value)
    same = [r for r in refs if r == path]
    others = sorted({r for r in refs if r != path})
    if same:
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id == "max"
        ):
            return  # max(self-ref, ...) is monotone by construction
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Add):
            return  # c.now = c.now + dt
        word = (
            "rewound"
            if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Sub)
            else "assigned from a non-monotone expression"
        )
        emit.emit(
            stmt,
            f"clock {path!r} {word}; advance with "
            f"`{path} = max({path}, t)` or `{path} += dt`",
        )
        return
    if others:
        emit.emit(
            stmt,
            f"clock {path!r} cross-assigned from clock domain "
            f"{others[0]!r}; clocks of different objects are causally "
            f"unrelated — pull forward with max() against {path!r}",
        )
        return
    if fn_name in SEED_FUNCTIONS:
        return  # clock birth
    emit.emit(
        stmt,
        f"clock {path!r} set from a non-clock value outside "
        f"__init__/reset; this can rewind it — use "
        f"`{path} = max({path}, t)`",
    )


class _ClockStores(ast.NodeVisitor):
    """Every clock store, with the name of the function it sits in."""

    def __init__(self, emit: Emitter) -> None:
        self.emit = emit
        self.fn: str | None = None  # innermost enclosing function

    def _inside(self, node: ast.AST, fn: str | None) -> None:
        outer, self.fn = self.fn, fn
        self.generic_visit(node)
        self.fn = outer

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._inside(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._inside(node, node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._inside(node, None)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            path = _clock_target(target)
            if path is not None and self.fn is not None:
                _judge(node, path, node.value, self.fn, self.emit)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        path = _clock_target(node.target)
        if path is not None and self.fn is not None and node.value is not None:
            _judge(node, path, node.value, self.fn, self.emit)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        path = _clock_target(node.target)
        if path is not None and self.fn is not None and not isinstance(
            node.op, ast.Add
        ):
            self.emit.emit(
                node,
                f"clock {path!r} modified with a non-advancing "
                f"augmented assignment; only `+=` keeps it monotone",
            )


def check_clocks(module: Module, emitters: dict[str, Emitter]) -> None:
    """REP302 over one module."""
    _ClockStores(emitters["REP302"]).visit(module.tree)
