"""REP203 — shared-write confinement to the ``(row0, nrows)`` band.

Worker side: every store into an shm-backed array inside a band task (a
function taking ``row0`` and ``nrows``) must be provably confined to
its band. The proof is a tiny symbolic interval analysis: slice bounds
are evaluated to linear forms over the band parameters and the local
constants, and a write ``[lo:hi]`` is confined exactly when

* ``lo`` scales with ``row0`` (and not ``nrows``), and
* ``hi - lo`` equals ``lo`` with every ``row0`` renamed to ``nrows``

— i.e. ``lo = k·row0 (+ c)`` and ``hi = k·(row0 + nrows) (+ c)`` for
one common symbolic scale ``k`` (``4·MB_SIZE`` pixel rows per MB row in
the real kernels). Anything the algebra cannot linearize is flagged
conservatively: an unprovable write into shared memory *is* the bug.

Host side: once a frame's tasks are submitted, the host may not write
any shared segment until a barrier (``collect``/``result``/``wait``/
…) orders the writes; a may-analysis over the function CFG (the
layer-3 worklist engine) flags stores in the submitted-but-uncollected
window.
"""

from __future__ import annotations

import ast
from typing import Any

from repro.sanitizers.concurrency.callgraph import CallGraph, call_name
from repro.sanitizers.dataflow.engine import (
    Emitter,
    FunctionContext,
    FunctionNode,
    Module,
)

RULE = "REP203"

#: Band parameters every worker task is keyed on.
BAND_PARAMS = ("row0", "nrows")

#: Call tails that order submitted work before the host may write again.
BARRIER_TAILS = frozenset({
    "collect", "_collect", "result", "wait", "join", "barrier",
    "shutdown", "drain",
})

# --------------------------------------------------------------------------
# linear forms: {(sorted symbol tuple): int coefficient}; key () is the
# constant term. None means "not linear in anything we can reason about".

Lin = dict[tuple[str, ...], int]


def _lin_const(c: int) -> Lin:
    return {(): c} if c else {}


def _lin_sym(name: str) -> Lin:
    return {(name,): 1}


def _lin_add(a: Lin | None, b: Lin | None, sign: int = 1) -> Lin | None:
    if a is None or b is None:
        return None
    out = dict(a)
    for mono, coeff in b.items():
        val = out.get(mono, 0) + sign * coeff
        if val:
            out[mono] = val
        else:
            out.pop(mono, None)
    return out


def _lin_mul(a: Lin | None, b: Lin | None) -> Lin | None:
    if a is None or b is None:
        return None
    out: Lin = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(sorted(ma + mb))
            # nonlinear in a band parameter -> outside the theory
            if sum(s in BAND_PARAMS for s in mono) > 1:
                return None
            val = out.get(mono, 0) + ca * cb
            if val:
                out[mono] = val
            else:
                out.pop(mono, None)
    return out


class _LinEnv:
    """Sequential evaluation environment for one function body."""

    def __init__(self, fn: FunctionNode) -> None:
        self.bindings: dict[str, Lin] = {}
        for a in (
            list(fn.args.posonlyargs)
            + list(fn.args.args)
            + list(fn.args.kwonlyargs)
        ):
            self.bindings[a.arg] = _lin_sym(a.arg)

    def eval(self, node: ast.expr | None) -> Lin | None:
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            return _lin_const(node.value) if isinstance(node.value, int) else None
        if isinstance(node, ast.Name):
            return self.bindings.get(node.id, _lin_sym(node.id))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return _lin_add(_lin_const(0), self.eval(node.operand), sign=-1)
        if isinstance(node, ast.BinOp):
            left, right = self.eval(node.left), self.eval(node.right)
            if isinstance(node.op, ast.Add):
                return _lin_add(left, right)
            if isinstance(node.op, ast.Sub):
                return _lin_add(left, right, sign=-1)
            if isinstance(node.op, ast.Mult):
                return _lin_mul(left, right)
            return None
        return None

    def assign(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            lin = self.eval(value)
            if lin is not None:
                self.bindings[target.id] = lin
            else:
                self.bindings.pop(target.id, None)


def _band_confined(lo: Lin, hi: Lin) -> bool:
    """``[lo, hi)`` ⊆ ``[k·row0+c, k·(row0+nrows)+c)`` for some k > 0?"""
    if any("nrows" in mono for mono in lo):
        return False
    row_terms = {m: c for m, c in lo.items() if "row0" in m}
    if not row_terms or any(c <= 0 for c in row_terms.values()):
        return False
    expected = {
        tuple(sorted("nrows" if s == "row0" else s for s in m)): c
        for m, c in row_terms.items()
    }
    diff = _lin_add(hi, lo, sign=-1)
    return diff == expected


# --------------------------------------------------------------------------
# shm-backed base detection


def _is_shm_base(node: ast.expr, aliases: set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in aliases
    if isinstance(node, ast.Subscript):
        base = node.value
        # Both the worker-local ``_VIEWS[...]`` and a qualified
        # ``pool._VIEWS[...]`` reach the same shared segments.
        tail = (
            base.attr if isinstance(base, ast.Attribute)
            else base.id if isinstance(base, ast.Name)
            else None
        )
        if tail in ("_VIEWS", "_SEGMENTS"):
            return True
        return _is_shm_base(base, aliases)
    if isinstance(node, ast.Call):
        tail = call_name(node.func)
        return tail == "view" or (tail or "").endswith("_view")
    return False


def _shm_slice_writes(
    stmt: ast.stmt, aliases: set[str]
) -> list[tuple[ast.Subscript, ast.expr]]:
    """(subscript target, slice expr) stores into shm-backed arrays."""
    targets: list[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    out = []
    for t in targets:
        if isinstance(t, ast.Subscript) and _is_shm_base(t.value, aliases):
            out.append((t, t.slice))
    return out


def _row_slice(slice_node: ast.expr) -> ast.Slice | None:
    """The leading (row) slice of ``arr[rows]`` / ``arr[rows, cols]``."""
    node = slice_node
    if isinstance(node, ast.Tuple) and node.elts:
        node = node.elts[0]
    return node if isinstance(node, ast.Slice) else None


# --------------------------------------------------------------------------
# worker-side: the symbolic confinement proof (a whole-module pass)


def check_band_workers(
    module: Module, graph: CallGraph | None, emitters: dict[str, Emitter]
) -> None:
    """Prove every band task's shared writes stay inside its band."""
    emitter = emitters[RULE]
    for _qualname, fn in module.functions:
        params = {
            a.arg
            for a in list(fn.args.posonlyargs) + list(fn.args.args)
            + list(fn.args.kwonlyargs)
        }
        if all(p in params for p in BAND_PARAMS):
            _walk_worker(fn.body, _LinEnv(fn), set(), emitter)


def _walk_worker(
    body: list[ast.stmt],
    env: _LinEnv,
    aliases: set[str],
    emitter: Emitter,
) -> None:
    for stmt in body:
        if isinstance(
            stmt,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            continue
        if isinstance(stmt, ast.Assign):
            for t in stmt.targets:
                if isinstance(t, ast.Name):
                    if _is_shm_base(stmt.value, aliases):
                        aliases.add(t.id)
                    else:
                        aliases.discard(t.id)
                env.assign(t, stmt.value)
        for target, slice_node in _shm_slice_writes(stmt, aliases):
            _check_write(target, slice_node, env, emitter)
        for attr in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, attr, None)
            if isinstance(inner, list):
                _walk_worker(
                    [s for s in inner if isinstance(s, ast.stmt)],
                    env, aliases, emitter,
                )
        for handler in getattr(stmt, "handlers", []) or []:
            _walk_worker(handler.body, env, aliases, emitter)


def _check_write(
    target: ast.Subscript,
    slice_node: ast.expr,
    env: _LinEnv,
    emitter: Emitter,
) -> None:
    rows = _row_slice(slice_node)
    if rows is None or rows.step is not None:
        emitter.emit(
            target,
            "worker-side store into shared memory without a plain "
            "row slice; cannot prove it stays inside the "
            "(row0, nrows) band",
        )
        return
    if rows.lower is None or rows.upper is None:
        emitter.emit(
            target,
            "worker-side store spans the whole shared plane; the "
            "band contract requires [k*row0 : k*(row0+nrows)]",
        )
        return
    lo, hi = env.eval(rows.lower), env.eval(rows.upper)
    if lo is None or hi is None:
        emitter.emit(
            target,
            "worker-side shared-memory write bounds are not linear "
            "in (row0, nrows); confinement is unprovable",
        )
        return
    if not _band_confined(lo, hi):
        emitter.emit(
            target,
            "worker-side shared-memory write escapes its "
            "(row0, nrows) band: bounds must be "
            "k*row0(+c) : k*(row0+nrows)(+c)",
        )


# --------------------------------------------------------------------------
# host-side: no shared write while submitted work is uncollected


class HostWriteWindowAnalysis:
    """May-analysis: ``True`` = a submit may be pending, unbarriered."""

    def initial_state(self, ctx: FunctionContext) -> bool:
        return False

    def join(self, a: bool, b: bool) -> bool:
        return a or b

    def transfer(
        self, elem: Any, state: bool, emit: Emitter, ctx: FunctionContext
    ) -> bool:
        node = getattr(elem, "node", elem)
        if not isinstance(node, ast.AST):
            return state
        if state:
            for stmt in [node] if isinstance(node, ast.stmt) else []:
                for target, _slice in _shm_slice_writes(stmt, set()):
                    emit.emit(
                        target,
                        "host writes a shared segment while submitted "
                        "tasks may still be running; collect the "
                        "futures (or hit a barrier) first",
                    )
        for call in ast.walk(node) if isinstance(node, ast.AST) else []:
            if not isinstance(call, ast.Call):
                continue
            tail = call_name(call.func)
            if tail is None:
                continue
            if tail == "submit" or tail.startswith("submit_"):
                state = True
            elif tail in BARRIER_TAILS:
                state = False
        return state

    def at_exit(
        self,
        state: bool,
        emit: Emitter,
        ctx: FunctionContext,
        exceptional: bool,
    ) -> None:
        return None
