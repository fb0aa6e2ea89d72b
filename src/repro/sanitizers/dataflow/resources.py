"""REP103 — engine/slot acquire must be released on every CFG path.

The DES models engines and copy slots as exclusive resources; a
schedule that acquires one and returns (or unwinds through an
exception) without releasing it deadlocks every later op on that
engine.  This is a may-hold analysis: an acquire-style call adds a held
token keyed by its receiver, a release-style call on the same receiver
clears it, and any token still held at the function's normal or
exceptional exit is a finding.  ``with``-statement acquisition is
exempt — the context manager's ``__exit__`` is the release.

Pairing is name-based (``acquire``/``release``, ``reserve``/``free``,
…) and receiver-based (``eng.acquire()`` is cleared by
``eng.release()``, not by releasing some other engine), which is
exactly the granularity the DES resource API exposes.

OS-level resources are tracked the same way: constructing a
``SharedMemory`` segment bound to a single name
(``seg = SharedMemory(...)``) acquires a token on that name, and
``seg.close()`` / ``seg.unlink()`` release it.  Ownership may *escape*
instead of being released in-function: returning the held name, or
assigning exactly the held name to something else
(``self._segments[k] = seg``), transfers responsibility to the new
owner and drops the token — the container's own ``close()`` is then
the audited release site.
"""

from __future__ import annotations

import ast
from types import SimpleNamespace

from repro.sanitizers.dataflow.cfg import Element, WithElem
from repro.sanitizers.dataflow.engine import Emitter, FunctionContext

#: (key, line, col) of an acquisition that may still be held.
Token = tuple[str, int, int]
State = frozenset[Token]

ACQUIRE_NAMES = frozenset(
    {
        "acquire",
        "acquire_engine",
        "acquire_slot",
        "reserve",
        "reserve_slot",
        "reserve_engine",
        "claim",
        "claim_engine",
        "claim_slot",
        "lock_engine",
    }
)

RELEASE_NAMES = frozenset(
    {
        "release",
        "release_engine",
        "release_slot",
        "free",
        "free_slot",
        "free_engine",
        "unreserve",
        "unclaim",
        "unlock_engine",
        "close",
        "unlink",
    }
)

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
        if isinstance(elem, WithElem):
            # `with dev.acquire_engine(...):` releases via __exit__.
            return state
        held = set(state)
        exprs: list[ast.expr] = []
        if isinstance(elem, ast.stmt):
            for sub in ast.iter_child_nodes(elem):
                if isinstance(sub, ast.expr):
                    exprs.append(sub)
        elif not isinstance(elem, WithElem):
            expr = getattr(elem, "expr", None) or getattr(
                elem, "iterable", None
            )
            if expr is not None:
                exprs.append(expr)
        for expr in exprs:
            for sub in ast.walk(expr):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                name = (
                    func.attr
                    if isinstance(func, ast.Attribute)
                    else func.id
                    if isinstance(func, ast.Name)
                    else None
                )
                if name in ACQUIRE_NAMES:
                    key = _receiver_key(sub)
                    if key is not None:
                        held.add(
                            (key, sub.lineno, sub.col_offset + 1)
                        )
                elif name in RELEASE_NAMES:
                    key = _receiver_key(sub)
                    if key is not None:
                        held = {t for t in held if t[0] != key}
        held = self._statement_ownership(elem, held)
        return frozenset(held)

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
        statement does); an acquire that raises did NOT acquire. So a
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
                f"{how} (add try/finally or use a with-statement)",
            )
