"""REP103 — a shared-memory segment must be released on every CFG path.

The process backend stages frames in ``SharedMemory`` segments; one
that is never closed and unlinked outlives the process as a
``/dev/shm`` file. This is a may-hold analysis: constructing a segment
bound to a single name (``seg = SharedMemory(...)``) adds a held token
keyed by that name, ``seg.close()`` / ``seg.unlink()`` clear it, and any
token still held at the function's normal or exceptional exit is a
finding. Ownership may *escape* instead of being released in-function:
returning the held name, or assigning exactly the held name to
something else (``self._segments[k] = seg``), transfers responsibility
to the new owner and drops the token — the container's own ``close()``
is then the audited release site.
"""

from __future__ import annotations

import ast
from types import SimpleNamespace

from repro.sanitizers.dataflow.cfg import Element
from repro.sanitizers.dataflow.engine import Emitter, FunctionContext

#: (key, line, col) of an acquisition that may still be held.
Token = tuple[str, int, int]
State = frozenset[Token]

#: Calls that release the resource held by their receiver.
RELEASE_NAMES = frozenset({"close", "unlink"})

#: Constructors whose bare call acquires an OS resource: a single-name
#: assignment ``x = Ctor(...)`` holds a token on ``x`` until a release
#: call on ``x`` or an ownership escape (return / re-assignment of ``x``).
CONSTRUCTOR_ACQUIRES = frozenset({"SharedMemory"})


def _callable_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _receiver_key(call: ast.Call) -> str | None:
    """Stable key for the resource a call acquires/releases."""
    func = call.func
    if isinstance(func, ast.Name):
        return f"<{func.id}>"
    if isinstance(func, ast.Attribute):
        parts: list[str] = []
        node: ast.expr = func.value
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return "<expr>"
    return None


class ResourceAnalysis:
    """REP103 dataflow rule (see module docstring)."""

    def initial_state(self, ctx: FunctionContext) -> State:
        return frozenset()

    def join(self, a: State, b: State) -> State:
        return a | b

    def transfer(
        self, elem: Element, state: State, emit: Emitter, ctx: FunctionContext
    ) -> State:
        if isinstance(elem, ast.stmt):
            exprs = [
                sub for sub in ast.iter_child_nodes(elem)
                if isinstance(sub, ast.expr)
            ]
        else:
            expr = getattr(elem, "expr", None) or getattr(elem, "iterable", None)
            exprs = [expr] if expr is not None else []
        held = set(state)
        for expr in exprs:
            for sub in ast.walk(expr):
                if (
                    isinstance(sub, ast.Call)
                    and _callable_name(sub) in RELEASE_NAMES
                    and (key := _receiver_key(sub)) is not None
                ):
                    held = {t for t in held if t[0] != key}
        return frozenset(self._statement_ownership(elem, held))

    @staticmethod
    def _statement_ownership(elem: Element, held: set[Token]) -> set[Token]:
        """Constructor acquisition and ownership escape (see module doc)."""
        # Constructor tokens are keyed by the bound *variable* name, the
        # same key `_receiver_key` yields for `seg.close()`/`seg.unlink()`.
        if isinstance(elem, ast.Return):
            if isinstance(elem.value, ast.Name):
                key = elem.value.id
                return {t for t in held if t[0] != key}
            return held
        if not isinstance(elem, (ast.Assign, ast.AnnAssign)):
            return held
        value = elem.value
        targets = elem.targets if isinstance(elem, ast.Assign) else [elem.target]
        if isinstance(value, ast.Name):
            # `owner[...] = seg` / `other = seg`: ownership moves to the
            # new binding; the original token is no longer this
            # function's responsibility.
            key = value.id
            return {t for t in held if t[0] != key}
        if (
            isinstance(value, ast.Call)
            and _callable_name(value) in CONSTRUCTOR_ACQUIRES
            and len(targets) == 1
            and isinstance(targets[0], ast.Name)
        ):
            held = set(held)
            held.add(
                (targets[0].id, value.lineno, value.col_offset + 1)
            )
        return held

    def exc_transfer(
        self, elem: Element, before: State, after: State
    ) -> State:
        """Exception-edge contribution of one element.

        A release is assumed to take effect even when the releasing
        statement raises (the release call itself is the last thing the
        statement does); a constructor that raises did NOT acquire. So a
        release-only element contributes its post-state, everything
        else its pre-state.
        """
        if after < before:  # strictly fewer tokens: pure release
            return after
        return before

    def at_exit(
        self,
        state: State,
        emit: Emitter,
        ctx: FunctionContext,
        exceptional: bool,
    ) -> None:
        how = "an exception path" if exceptional else "a return path"
        for key, line, col in sorted(state):
            emit.emit(
                SimpleNamespace(lineno=line, col_offset=col - 1),
                f"resource {key!r} acquired here may not be released on "
                f"{how} (add try/finally)",
            )
