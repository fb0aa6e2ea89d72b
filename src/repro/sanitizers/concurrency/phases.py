"""REP204 — barrier-ordered phases (the τ1/τ2 happens-before shape).

Algorithm 1's frame is a strict three-beat bar: the host stages ``cur``
/``ref*``/``sf1..`` into shared memory, *then* submits phase-1 work
(ME + INT), *then* — only after every phase-1 future is collected at
the τ1 barrier — submits SME, which reads the ``sf0`` the INT workers
just wrote. Two orderings break bit-exactness silently:

* phase-1 work submitted before the staging writes are done — a worker
  may read last frame's pixels (flagged at the submit site when the
  function demonstrably stages but not definitely before the submit);
* SME submitted (or an ``sf*`` plane read host-side) while phase-1
  futures may still be in flight — the τ1 happens-before edge is gone.

Implemented as one pass over the layer-3 worklist engine with a
combined must/may state: ``staged`` is a must-fact (AND at joins),
``pending phase-1`` a may-fact (OR at joins), so a single unbarriered
path through the CFG is enough to flag.
"""

from __future__ import annotations

import ast
from typing import Any

from repro.sanitizers.concurrency.bands import BARRIER_TAILS, _shm_slice_writes
from repro.sanitizers.concurrency.callgraph import call_name
from repro.sanitizers.dataflow.engine import Emitter, FunctionContext


#: (staged: must, pending_p1: may, function_stages: static fact)
State = tuple[bool, bool, bool]


def _submit_kind(call: ast.Call) -> str | None:
    """``"p1"`` (ME/INT), ``"sme"``, or None for non-submit calls."""
    tail = call_name(call.func)
    if tail is None:
        return None
    if tail == "submit_sme":
        return "sme"
    if tail in ("submit_me", "submit_int"):
        return "p1"
    if tail == "submit" or tail.startswith("submit_"):
        head = call.args[0] if call.args else None
        name = (
            head.id if isinstance(head, ast.Name)
            else head.attr if isinstance(head, ast.Attribute)
            else ""
        )
        if "sme" in name:
            return "sme"
        return "p1"
    return None


def _stages_somewhere(fn: ast.AST) -> bool:
    for stmt in ast.walk(fn):
        if isinstance(stmt, ast.stmt) and _shm_slice_writes(stmt, set()):
            return True
    return False


class PhaseOrderAnalysis:
    def initial_state(self, ctx: FunctionContext) -> State:
        stages = ctx.fn is not None and _stages_somewhere(ctx.fn)
        return (False, False, stages)

    def join(self, a: State, b: State) -> State:
        return (a[0] and b[0], a[1] or b[1], a[2] or b[2])

    def transfer(
        self, elem: Any, state: State, emit: Emitter, ctx: FunctionContext
    ) -> State:
        node = getattr(elem, "node", elem)
        if not isinstance(node, ast.AST):
            return state
        staged, pending, stages = state
        if isinstance(node, ast.stmt) and _shm_slice_writes(node, set()):
            staged = True
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            kind = _submit_kind(call)
            if kind == "p1":
                if stages and not staged:
                    emit.emit(
                        call,
                        "phase-1 work submitted before this function's "
                        "cur/ref staging writes are definitely done; "
                        "workers may read stale frame data",
                    )
                pending = True
            elif kind == "sme":
                if pending:
                    emit.emit(
                        call,
                        "SME submitted while phase-1 (ME/INT) futures "
                        "may still be in flight; the τ1 barrier must "
                        "order sf0 writes before any SME read",
                    )
            elif kind is None:
                tail = call_name(call.func)
                if tail in BARRIER_TAILS:
                    pending = False
                elif tail == "view" and pending:
                    arg = call.args[0] if call.args else None
                    if (
                        isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                        and arg.value.startswith("sf")
                    ):
                        emit.emit(
                            call,
                            f"host reads {arg.value!r} while phase-1 "
                            "futures may still be writing it; collect "
                            "them (τ1) before touching the SF planes",
                        )
        return (staged, pending, stages)

    def at_exit(
        self,
        state: State,
        emit: Emitter,
        ctx: FunctionContext,
        exceptional: bool,
    ) -> None:
        return None
