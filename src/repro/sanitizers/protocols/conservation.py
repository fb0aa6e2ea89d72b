"""REP303 — queue/admission conservation over the CFG.

A stream popped off a dispatch/admission queue is *in flight*: it is no
longer queued, not yet placed, and nothing else holds a reference that
will route it. Every CFG path from the dequeue to a normal function
exit must therefore pass a *disposition* call — place it on a node,
park/requeue it, reject it, or hand it to a helper that does. A path
that exits with the pop undischarged silently drops the stream: the
PR-7 stranded-stream class, where ``drain()`` popped a head it could
not place and a ``break`` skipped the requeue.

The domain is the set of pending dequeue sites (line, col). A dequeue
is ``.popleft()``/``.pop()`` on a receiver whose dotted tail names a
queue; any disposition call clears all pending sites (the analysis is
per-queue-agnostic on purpose — one disposition in the block is taken
to route the in-flight stream). Pending sites are reported at *normal*
exit only: an exception path is allowed to abandon the pop (the caller
unwinds the whole drain).

The disposition alphabet is derived from the ``dispatcher-queue`` spec
(place/park/reject + their code-level spellings), keeping the static
rule and SAN-G's ``dequeue-disposition`` obligation aligned.
"""

from __future__ import annotations

import ast
from typing import Any

from repro.sanitizers.dataflow.cfg import IterElem, TestElem, WithElem
from repro.sanitizers.dataflow.engine import Emitter, FunctionContext
from repro.sanitizers.protocols.spec import SPEC_BY_NAME
from repro.sanitizers.protocols.typestate import _iter_calls


#: Method names that take an element off a queue.
DEQUEUE_METHODS = frozenset({"popleft", "pop"})

#: Receiver tails that mark a queue (``self.queue``, ``global_queue``…).
QUEUE_TAILS = frozenset({"queue"})

#: Disposition calls that route an in-flight stream. Seeded from the
#: dispatcher-queue spec's discharge events, plus the code-level
#: spellings used by the dispatcher/admission tiers.
_SPEC = SPEC_BY_NAME["dispatcher-queue"]
DISPOSITION_TAILS = frozenset(
    {d for ob in _SPEC.obligations for d in ob.discharge}
    | {
        "_place",
        "requeue",
        "append",
        "appendleft",
        "admit",
        "submit",
        "offer",
        "push",
        "release",
        "drain",
    }
)

#: pending dequeue sites: ((line, col_offset), ...) sorted
State = tuple[tuple[int, int], ...]


class _Site:
    """Positional stand-in so the Emitter can anchor exit findings."""

    def __init__(self, lineno: int, col_offset: int) -> None:
        self.lineno = lineno
        self.col_offset = col_offset


def _tail(node: ast.expr) -> str | None:
    """Last attribute/name component of a dotted expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_queue_receiver(node: ast.expr) -> bool:
    tail = _tail(node)
    return tail is not None and (
        tail in QUEUE_TAILS or tail.endswith("queue")
    )


class ConservationAnalysis:
    def initial_state(self, ctx: FunctionContext) -> State:
        return ()

    def join(self, a: State, b: State) -> State:
        # May-analysis: a site pending on *any* path is pending.
        return tuple(sorted(set(a) | set(b)))

    def _apply_calls(self, node: ast.AST, pending: set[tuple[int, int]]) -> None:
        for call in _iter_calls(node):
            func = call.func
            name = _tail(func) if isinstance(func, (ast.Attribute, ast.Name)) else None
            if name is None:
                continue
            if (
                name in DEQUEUE_METHODS
                and isinstance(func, ast.Attribute)
                and _is_queue_receiver(func.value)
            ):
                pending.add((call.lineno, call.col_offset))
            elif name in DISPOSITION_TAILS:
                pending.clear()

    def transfer(
        self, elem: Any, state: State, emit: Emitter, ctx: FunctionContext
    ) -> State:
        pending = set(state)
        if isinstance(elem, TestElem):
            self._apply_calls(elem.expr, pending)
        elif isinstance(elem, IterElem):
            self._apply_calls(elem.iterable, pending)
        elif isinstance(elem, WithElem):
            self._apply_calls(elem.context, pending)
        elif isinstance(
            elem, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            pass
        elif isinstance(elem, ast.AST):
            self._apply_calls(elem, pending)
        return tuple(sorted(pending))

    def at_exit(
        self,
        state: State,
        emit: Emitter,
        ctx: FunctionContext,
        exceptional: bool,
    ) -> None:
        if exceptional:
            return  # unwinding abandons the whole drain; caller's problem
        for line, col in state:
            emit.emit(
                _Site(line, col),
                "dequeued stream can reach a normal exit without "
                "place/park/reject — a path from this pop strands the "
                "stream (dispose of it on every branch, or peek before "
                "popping)",
            )
