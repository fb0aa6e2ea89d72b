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

The rule runs per-function on the layer-3 engine (a stateless pass —
each write site is judged locally, on every path the CFG reaches it).
The dynamic twin is SAN-G1's per-object clock-regression check on the
runtime journal.
"""

from __future__ import annotations

import ast
from typing import Any

from repro.sanitizers.dataflow.engine import Emitter, FunctionContext
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


class ClockAnalysis:
    #: Stateless pass: the lattice is a single point. (Not ``None`` —
    #: the engine uses ``None`` as its unvisited sentinel.)
    def initial_state(self, ctx: FunctionContext) -> tuple:
        return ()

    def join(self, a: tuple, b: tuple) -> tuple:
        return ()

    def _check_assign(
        self, stmt: ast.Assign, emit: Emitter, ctx: FunctionContext
    ) -> None:
        for target in stmt.targets:
            path = _clock_target(target)
            if path is None:
                continue
            self._judge(stmt, path, stmt.value, emit, ctx)

    def _judge(
        self,
        stmt: ast.stmt,
        path: str,
        value: ast.expr,
        emit: Emitter,
        ctx: FunctionContext,
    ) -> None:
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
                if isinstance(value, ast.BinOp)
                and isinstance(value.op, ast.Sub)
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
        fn_name = ctx.qualname.rsplit(".", 1)[-1]
        if fn_name in SEED_FUNCTIONS:
            return  # clock birth
        emit.emit(
            stmt,
            f"clock {path!r} set from a non-clock value outside "
            f"__init__/reset; this can rewind it — use "
            f"`{path} = max({path}, t)`",
        )

    def transfer(
        self, elem: Any, state: tuple, emit: Emitter, ctx: FunctionContext
    ) -> tuple:
        if isinstance(elem, ast.Assign):
            self._check_assign(elem, emit, ctx)
        elif isinstance(elem, ast.AnnAssign) and elem.value is not None:
            path = _clock_target(elem.target)
            if path is not None:
                self._judge(elem, path, elem.value, emit, ctx)
        elif isinstance(elem, ast.AugAssign):
            path = _clock_target(elem.target)
            if path is not None and not isinstance(elem.op, ast.Add):
                emit.emit(
                    elem,
                    f"clock {path!r} modified with a non-advancing "
                    f"augmented assignment; only `+=` keeps it monotone",
                )
        return state

    def at_exit(
        self,
        state: tuple,
        emit: Emitter,
        ctx: FunctionContext,
        exceptional: bool,
    ) -> None:
        return None
