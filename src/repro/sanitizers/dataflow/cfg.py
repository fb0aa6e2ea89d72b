"""Function-level control-flow graphs over Python AST.

The dataflow analyses (:mod:`repro.sanitizers.dataflow.engine`) need a
CFG that exposes *every* path a function can take — branch arms, loop
back-edges, ``for``/``while`` ``else`` clauses, and the exception edges
that a per-line AST lint structurally cannot see.  The graph is
statement-granular but block-structured: a :class:`BasicBlock` holds a
run of non-branching elements, and edges carry a kind so the
resource-safety rule can distinguish "function returned" from "function
unwound through an exception".

Blocks hold *elements* rather than raw statements because branch tests
and loop bindings are expressions, not statements: an ``if x < y`` test
becomes a :class:`TestElem`, a ``for row in rows`` binding an
:class:`IterElem`, so transfer functions see them in execution order.

Exception routing: every ``try`` pushes its landing pad (handler
dispatch, else its ``finally`` entry, else the enclosing pad) onto a
stack; ``raise`` and implicitly-raising statements edge to the innermost
pad, which chains outward naturally.  ``return``/``break``/``continue``
detour through every active ``finally`` body innermost-first, so no path
— normal or exceptional — skips a ``finally``.  Unmatched handlers and
escaping exceptions leave through the finally too.  The construction
over-approximates paths (some joined continuations are shared), which is
sound for the may-analyses built on top.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Edge kinds. ``except`` edges mark exceptional control flow; the
#: solver propagates the *join* of a block's entry and exit states along
#: them (the exception may fire before any statement of the block ran).
#: ``reraise`` marks a finally block re-raising after running to
#: completion: exceptional control flow, but the block's *exit* state
#: applies (unlike ``except``, which may fire mid-block).
EDGE_KINDS = frozenset(
    {
        "normal",
        "true",
        "false",
        "loop",
        "else",
        "except",
        "finally",
        "back",
        "reraise",
    }
)


@dataclass(frozen=True)
class TestElem:
    """A branch/loop condition evaluated for its value."""

    __test__ = False  # not a pytest class, despite the name

    expr: ast.expr
    node: ast.stmt  # owning statement (for line numbers)


@dataclass(frozen=True)
class IterElem:
    """A ``for target in iterable`` binding (one abstract iteration)."""

    target: ast.expr
    iterable: ast.expr
    node: ast.stmt


@dataclass(frozen=True)
class WithElem:
    """One ``with ctx [as name]`` item entering scope."""

    context: ast.expr
    target: ast.expr | None
    node: ast.stmt


@dataclass(frozen=True)
class ExceptElem:
    """An ``except Type as name`` binding at handler entry."""

    type: ast.expr | None
    name: str | None
    node: ast.stmt


#: Anything a block can hold.
Element = ast.stmt | TestElem | IterElem | WithElem | ExceptElem


@dataclass
class BasicBlock:
    bid: int
    elems: list[Element] = field(default_factory=list)


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    kind: str


@dataclass
class CFG:
    """Control-flow graph of one function (or a module body)."""

    name: str
    blocks: dict[int, BasicBlock]
    edges: list[Edge]
    entry: int
    exit: int
    raise_exit: int

    def succs(self, bid: int) -> list[tuple[int, str]]:
        return [(e.dst, e.kind) for e in self.edges if e.src == bid]

    def preds(self, bid: int) -> list[tuple[int, str]]:
        return [(e.src, e.kind) for e in self.edges if e.dst == bid]


def _may_raise(stmt: ast.stmt) -> bool:
    """Conservative: could executing this statement raise?

    Any call, subscript, attribute access, binary op or assert can raise
    at runtime; only trivially safe statements (pass, simple name/const
    rebinding, defs) are exempt, which keeps except-edge counts sane
    without losing the paths a rule cares about.
    """
    if isinstance(stmt, (ast.Pass, ast.Global, ast.Nonlocal)):
        return False
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return False
    if isinstance(stmt, ast.Assert):
        return True
    for sub in ast.walk(stmt):
        if isinstance(
            sub, (ast.Call, ast.Subscript, ast.Attribute, ast.BinOp, ast.Await)
        ):
            return True
    return False


class _Builder:
    def __init__(self, name: str) -> None:
        self.name = name
        self.blocks: dict[int, BasicBlock] = {}
        self.edges: list[Edge] = []
        self._edge_set: set[tuple[int, int, str]] = set()
        self.entry = self._new().bid
        self.exit = self._new().bid
        self.raise_exit = self._new().bid
        # Innermost exception landing pad (handler dispatch / finally
        # entry / function raise-exit).
        self.exc_stack: list[int] = [self.raise_exit]
        # (continue_target, break_target) per enclosing loop.
        self.loop_stack: list[tuple[int, int]] = []
        # Active finally bodies, outermost first:
        # (finally_entry_bid, pending continuation targets).
        self.finally_stack: list[tuple[int, set[int]]] = []

    # ------------------------------------------------------------------

    def _new(self) -> BasicBlock:
        blk = BasicBlock(bid=len(self.blocks))
        self.blocks[blk.bid] = blk
        return blk

    def _edge(self, src: int, dst: int, kind: str = "normal") -> None:
        key = (src, dst, kind)
        if key in self._edge_set:
            return
        self._edge_set.add(key)
        self.edges.append(Edge(src=src, dst=dst, kind=kind))

    def _abrupt(self, cur: int, target: int, kind: str) -> None:
        """Route return/break/continue, detouring through active finallys.

        The jump enters the innermost finally; each finally's pending set
        chains to the next outer one, and the outermost records the true
        destination.
        """
        if not self.finally_stack:
            self._edge(cur, target, kind)
            return
        self._edge(cur, self.finally_stack[-1][0], "finally")
        for i in range(len(self.finally_stack) - 1, 0, -1):
            self.finally_stack[i][1].add(self.finally_stack[i - 1][0])
        self.finally_stack[0][1].add(target)

    # ------------------------------------------------------------------

    def build(self, body: list[ast.stmt]) -> CFG:
        first = self._new()
        self._edge(self.entry, first.bid)
        end = self._stmts(body, first.bid)
        if end is not None:
            self._edge(end, self.exit)
        return CFG(
            name=self.name,
            blocks=self.blocks,
            edges=self.edges,
            entry=self.entry,
            exit=self.exit,
            raise_exit=self.raise_exit,
        )

    def _stmts(self, stmts: list[ast.stmt], cur: int | None) -> int | None:
        """Build a statement list; returns the fall-through block or None."""
        for stmt in stmts:
            if cur is None:
                # Unreachable code after return/raise/break: park it in a
                # fresh predecessor-less block so it still gets built.
                cur = self._new().bid
            cur = self._stmt(stmt, cur)
        return cur

    def _stmt(self, stmt: ast.stmt, cur: int) -> int | None:
        if isinstance(stmt, ast.Return):
            self.blocks[cur].elems.append(stmt)
            self._abrupt(cur, self.exit, "normal")
            return None
        if isinstance(stmt, ast.Raise):
            self.blocks[cur].elems.append(stmt)
            # exc_stack already chains through dispatches and finallys.
            self._edge(cur, self.exc_stack[-1], "except")
            return None
        if isinstance(stmt, ast.Break):
            if self.loop_stack:
                self._abrupt(cur, self.loop_stack[-1][1], "normal")
            return None
        if isinstance(stmt, ast.Continue):
            if self.loop_stack:
                self._abrupt(cur, self.loop_stack[-1][0], "back")
            return None
        if isinstance(stmt, ast.If):
            return self._if(stmt, cur)
        if isinstance(stmt, ast.While):
            return self._while(stmt, cur)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, cur)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, cur)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, cur)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, cur)
        # Simple statement.
        self.blocks[cur].elems.append(stmt)
        if _may_raise(stmt):
            self._edge(cur, self.exc_stack[-1], "except")
        return cur

    # ------------------------------------------------------------------

    def _if(self, stmt: ast.If, cur: int) -> int:
        self.blocks[cur].elems.append(TestElem(expr=stmt.test, node=stmt))
        self._edge(cur, self.exc_stack[-1], "except")
        after = self._new().bid
        then = self._new().bid
        self._edge(cur, then, "true")
        then_end = self._stmts(stmt.body, then)
        if then_end is not None:
            self._edge(then_end, after)
        if stmt.orelse:
            els = self._new().bid
            self._edge(cur, els, "false")
            els_end = self._stmts(stmt.orelse, els)
            if els_end is not None:
                self._edge(els_end, after)
        else:
            self._edge(cur, after, "false")
        return after

    def _loop(
        self,
        head_elem: TestElem | IterElem,
        body_stmts: list[ast.stmt],
        orelse: list[ast.stmt],
        cur: int,
        body_kind: str,
    ) -> int:
        head = self._new().bid
        self._edge(cur, head)
        self.blocks[head].elems.append(head_elem)
        self._edge(head, self.exc_stack[-1], "except")
        after = self._new().bid
        body = self._new().bid
        self._edge(head, body, body_kind)
        self.loop_stack.append((head, after))
        body_end = self._stmts(body_stmts, body)
        self.loop_stack.pop()
        if body_end is not None:
            self._edge(body_end, head, "back")
        if orelse:
            # The else clause runs only on normal loop exhaustion; break
            # jumps straight to `after`, bypassing it.
            els = self._new().bid
            self._edge(head, els, "else")
            els_end = self._stmts(orelse, els)
            if els_end is not None:
                self._edge(els_end, after)
        else:
            self._edge(head, after, "false")
        return after

    def _while(self, stmt: ast.While, cur: int) -> int:
        return self._loop(
            TestElem(expr=stmt.test, node=stmt),
            stmt.body,
            stmt.orelse,
            cur,
            "true",
        )

    def _for(self, stmt: ast.For | ast.AsyncFor, cur: int) -> int:
        return self._loop(
            IterElem(target=stmt.target, iterable=stmt.iter, node=stmt),
            stmt.body,
            stmt.orelse,
            cur,
            "loop",
        )

    def _with(self, stmt: ast.With | ast.AsyncWith, cur: int) -> int | None:
        for item in stmt.items:
            self.blocks[cur].elems.append(
                WithElem(
                    context=item.context_expr,
                    target=item.optional_vars,
                    node=stmt,
                )
            )
        self._edge(cur, self.exc_stack[-1], "except")
        return self._stmts(stmt.body, cur)

    def _match(self, stmt: ast.Match, cur: int) -> int:
        self.blocks[cur].elems.append(TestElem(expr=stmt.subject, node=stmt))
        self._edge(cur, self.exc_stack[-1], "except")
        after = self._new().bid
        self._edge(cur, after, "false")  # no case may match
        for case in stmt.cases:
            arm = self._new().bid
            self._edge(cur, arm, "true")
            arm_end = self._stmts(case.body, arm)
            if arm_end is not None:
                self._edge(arm_end, after)
        return after

    def _try(self, stmt: ast.Try, cur: int) -> int:
        after = self._new().bid
        has_finally = bool(stmt.finalbody)
        outer_exc = self.exc_stack[-1]
        fin_entry = self._new().bid if has_finally else None
        dispatch = self._new().bid if stmt.handlers else None

        # Where exceptions in the try body land.
        if dispatch is not None:
            body_exc = dispatch
        elif fin_entry is not None:
            body_exc = fin_entry
        else:
            body_exc = outer_exc
        # Where exceptions in handlers / the else clause land.
        escape = fin_entry if fin_entry is not None else outer_exc

        pending: set[int] = set()
        if has_finally:
            assert fin_entry is not None
            self.finally_stack.append((fin_entry, pending))
            # An escaping exception runs the finally and then unwinds.
            pending.add(outer_exc)

        # --- try body --------------------------------------------------
        body = self._new().bid
        self._edge(cur, body)
        self.exc_stack.append(body_exc)
        body_end = self._stmts(stmt.body, body)
        self.exc_stack.pop()

        self.exc_stack.append(escape)
        # The else clause runs on normal completion; its exceptions are
        # NOT caught by this try's handlers.
        if body_end is not None and stmt.orelse:
            body_end = self._stmts(stmt.orelse, body_end)
        if body_end is not None:
            if has_finally:
                assert fin_entry is not None
                self._edge(body_end, fin_entry, "finally")
                pending.add(after)
            else:
                self._edge(body_end, after)

        # --- handlers --------------------------------------------------
        if dispatch is not None:
            for handler in stmt.handlers:
                hblock = self._new().bid
                self._edge(dispatch, hblock, "except")
                self.blocks[hblock].elems.append(
                    ExceptElem(
                        type=handler.type, name=handler.name, node=handler
                    )
                )
                h_end = self._stmts(handler.body, hblock)
                if h_end is not None:
                    if has_finally:
                        assert fin_entry is not None
                        self._edge(h_end, fin_entry, "finally")
                        pending.add(after)
                    else:
                        self._edge(h_end, after)
            # No handler matched: the exception escapes.
            self._edge(
                dispatch, escape, "finally" if has_finally else "except"
            )
        self.exc_stack.pop()

        # --- finally ---------------------------------------------------
        if has_finally:
            assert fin_entry is not None
            self.finally_stack.pop()
            fin_end = self._stmts(stmt.finalbody, fin_entry)
            if fin_end is not None:
                pending.add(after)
                for target in sorted(pending):
                    kind = (
                        "reraise"
                        if target in (self.raise_exit, outer_exc)
                        and target != after
                        else "normal"
                    )
                    self._edge(fin_end, target, kind)
        return after


def build_cfg(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str | None = None
) -> CFG:
    """CFG of one function body."""
    return _Builder(qualname or fn.name).build(fn.body)


def build_module_cfg(tree: ast.Module, name: str = "<module>") -> CFG:
    """CFG of a module's top-level statements."""
    return _Builder(name).build(tree.body)
