"""Fixpoint solver: abstract interpretation over the function CFGs.

A :class:`FunctionAnalysis` supplies a lattice (initial state, join,
equality via ``==``) and a transfer function over CFG elements; the
solver iterates a worklist to a fixpoint and hands the exit states back
for end-of-function checks.  Findings are emitted through a deduplicating
collector because transfer functions re-run as states grow.

The solver is deliberately defensive: states must be *plain comparable
values* (dicts/frozensets), iteration is capped as a termination
backstop against non-monotone transfer bugs. An exception escaping an
analysis is the driver's business (:mod:`repro.sanitizers.runner` turns
it into an :class:`AnalyzerError` so ``repro lint`` can report an
internal-error exit code instead of a stack trace).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol

from repro.sanitizers.dataflow.cfg import CFG, Element
from repro.sanitizers.lint import LintViolation

if TYPE_CHECKING:
    from repro.sanitizers.concurrency.callgraph import CallGraph

FunctionNode = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass(frozen=True)
class AnalyzerError(Exception):
    """An internal analyzer failure (not a lint finding)."""

    path: str
    function: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return (
            f"{self.path}: internal analyzer error in {self.rule} "
            f"while analyzing {self.function!r}: {self.detail}"
        )


class Emitter:
    """Deduplicating finding collector for one rule over one module."""

    def __init__(self, rule: str, display: str) -> None:
        self.rule = rule
        self.display = display
        self._seen: set[tuple[int, int, str]] = set()
        self.findings: list[LintViolation] = []

    def emit(self, node: ast.AST | Any, message: str) -> None:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0) + 1
        key = (line, col, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            LintViolation(
                rule=self.rule,
                path=self.display,
                line=line,
                col=col,
                message=message,
            )
        )


@dataclass
class Module:
    """One parsed source file, as every rule sees it."""

    display: str
    source: str
    tree: ast.Module
    functions: list[tuple[str, FunctionNode]]  # iter_functions(tree)


@dataclass
class FunctionContext:
    """Everything a rule can see about the function under analysis."""

    fn: FunctionNode | None  # None: the module's top-level statements
    qualname: str
    graph: CallGraph | None = None  # whole-scope call graph (REP304)


class FunctionAnalysis(Protocol):
    """Interface of a rule solved over each function's CFG."""

    def initial_state(self, ctx: FunctionContext) -> Any: ...

    def join(self, a: Any, b: Any) -> Any: ...

    def transfer(
        self, elem: Element, state: Any, emit: Emitter, ctx: FunctionContext
    ) -> Any: ...

    def at_exit(
        self,
        state: Any,
        emit: Emitter,
        ctx: FunctionContext,
        exceptional: bool,
    ) -> None: ...


def run_analysis(
    cfg: CFG,
    analysis: FunctionAnalysis,
    ctx: FunctionContext,
    emitter: Emitter,
) -> None:
    """Solve one analysis over one CFG to fixpoint."""
    succs: dict[int, list[tuple[int, str]]] = {bid: [] for bid in cfg.blocks}
    for e in cfg.edges:
        succs[e.src].append((e.dst, e.kind))

    states: dict[int, Any] = {cfg.entry: analysis.initial_state(ctx)}
    work: deque[int] = deque([cfg.entry])
    queued = {cfg.entry}
    # Termination backstop: generous bound, far above what monotone
    # lattices need, so a non-monotone transfer bug degrades to a
    # best-effort result instead of a hang.
    budget = 64 * max(1, len(cfg.blocks)) + 256

    while work and budget > 0:
        budget -= 1
        bid = work.popleft()
        queued.discard(bid)
        in_state = states[bid]
        out_state = in_state
        # Exception edges fire when some element raises; the state then
        # is the state *before* that element (an element either takes
        # effect or raises). Join over all pre-element states.
        exc_state = None  # element-less blocks pass their in-state through
        for elem in cfg.blocks[bid].elems:
            exc_state = (
                out_state
                if exc_state is None
                else analysis.join(exc_state, out_state)
            )
            out_state = analysis.transfer(elem, out_state, emitter, ctx)
        if exc_state is None:
            exc_state = in_state
        for dst, kind in succs[bid]:
            prop = exc_state if kind == "except" else out_state
            old = states.get(dst)
            new = prop if old is None else analysis.join(old, prop)
            if old is None or new != old:
                states[dst] = new
                if dst not in queued:
                    queued.add(dst)
                    work.append(dst)

    if cfg.exit in states:
        analysis.at_exit(states[cfg.exit], emitter, ctx, exceptional=False)
    if cfg.raise_exit in states:
        analysis.at_exit(
            states[cfg.raise_exit], emitter, ctx, exceptional=True
        )


def iter_functions(tree: ast.Module) -> list[tuple[str, FunctionNode]]:
    """Every function/method in a module with a dotted qualname."""
    out: list[tuple[str, FunctionNode]] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                out.append((qual, child))
                walk(child, f"{qual}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out
